// Cross-scheduler conformance suite: every registered scheduler variant ×
// every protocol, one shared contract.
//
// The paper's self-stabilisation guarantee is scheduler-robustness: no
// interaction model in this library — benign, hostile, faulty or
// partitioned — may break the Scheduler contract.  For each
// (scheduler, protocol) pair the suite asserts:
//
//   * termination with an honest verdict: the run ends silent with a valid
//     ranking and zero productive weight, OR ends non-silent with global
//     productive weight remaining and a stated reason (budget exhausted,
//     or — graph-restricted only — a locally stuck configuration);
//   * RunResult invariants: interactions >= productive_steps, the budget
//     is respected, parallel time is finite and consistent with the run,
//     silent == valid, no spurious aborts;
//   * budget and observer: a budget of n interactions is never overrun
//     (and used in full unless the run ends silent or locally stuck), and
//     an observer that returns false stops the run on that very call;
//   * work counters add up (instrumented builds): kProductiveSteps equals
//     productive_steps, and on every run_exact scheduler (all but uniform)
//     each interaction is either a null or a productive step;
//   * determinism: the same seed through the same (const, stateless)
//     scheduler instance reproduces the trajectory exactly — identical
//     RunResult and identical final configuration;
//   * models whose mixing is complete (everything except sparse
//     graph-restricted topologies and adversaries on the line protocol)
//     actually stabilise within a generous whp budget.
//
// The roster comes from all_scheduler_specs(); add a scheduler there and
// it is conformance-tested on every protocol automatically.  CTest labels
// this binary "conformance" (ctest -L conformance).
#include "schedulers/scheduler.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <string>
#include <vector>

#include "core/initial.hpp"
#include "obs/counters.hpp"
#include "protocols/factory.hpp"
#include "rng/seed_sequence.hpp"

namespace pp {
namespace {

struct Case {
  SchedulerSpec spec;
  std::string protocol;
};

std::vector<Case> conformance_cases() {
  std::vector<Case> cases;
  for (const SchedulerSpec& spec : all_scheduler_specs()) {
    for (const auto proto : protocol_names()) {
      cases.push_back({spec, std::string(proto)});
    }
  }
  return cases;
}

std::string case_label(const ::testing::TestParamInfo<Case>& info) {
  std::string s = info.param.spec.to_string() + "__" + info.param.protocol;
  for (char& c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return s;
}

class SchedulerConformance : public ::testing::TestWithParam<Case> {
 protected:
  // The adversaries enumerate O(states^2) candidates per step, so they get
  // a small population and a tight budget; everything else gets the usual
  // generous whp headroom over the paper's uniform-scheduler bounds.
  u64 population() const {
    return preferred_population(GetParam().protocol, 16);
  }
  u64 budget() const {
    const u64 n = population();
    return GetParam().spec.kind == SchedulerKind::kAdversarial
               ? 10'000
               : 20 * n * n * n;
  }
  // Sparse topologies legitimately strand ranking (locally stuck), and the
  // hostile adversaries can cycle the line protocol forever; every other
  // pair must reach silence within the budget.
  bool must_stabilise() const {
    const Case& c = GetParam();
    if (c.spec.kind == SchedulerKind::kGraphRestricted) {
      return c.spec.graph == GraphKind::kComplete;
    }
    if (c.spec.kind == SchedulerKind::kAdversarial) {
      return c.protocol != "line-of-traps";
    }
    return true;
  }

  RunResult run_once(const Scheduler& sched, u64 seed, ProtocolPtr& out) {
    RunOptions opt;
    opt.max_interactions = budget();
    return run_once(sched, seed, out, opt);
  }

  // Runs with the work counters recording into work_ (a no-op scope when
  // they are compiled out).
  RunResult run_once(const Scheduler& sched, u64 seed, ProtocolPtr& out,
                     const RunOptions& opt) {
    out = make_protocol(GetParam().protocol, population());
    Rng rng(seed);
    out->reset(initial::uniform_random(*out, rng));
    work_.clear();
    const obs::ScopedCounters scope(&work_);
    return sched.run(*out, rng, opt);
  }

  // The counters of the last run_once account for its RunResult: every
  // productive step is counted once, and every scheduler on run_exact (all
  // but the tick-by-tick uniform oracle) counts each of its interactions
  // either as a null or as a productive step.
  void expect_counters_add_up(const RunResult& r) const {
#if PP_OBS
    using obs::Counter;
    const u64 productive = work_.get(Counter::kProductiveSteps);
    EXPECT_EQ(productive, r.productive_steps);
    if (GetParam().spec.kind != SchedulerKind::kUniform) {
      EXPECT_EQ(work_.get(Counter::kNullSkips) + productive, r.interactions);
    }
#else
    (void)r;
#endif
  }

  obs::CounterBlock work_;
};

TEST_P(SchedulerConformance, HonestVerdictAndRunResultInvariants) {
  const Case& c = GetParam();
  const SchedulerPtr sched = make_scheduler(c.spec, population());
  ASSERT_NE(sched, nullptr);
  EXPECT_EQ(sched->name(), c.spec.to_string());

  ProtocolPtr p;
  const u64 seed = derive_seed(70, c.spec.to_string(), population());
  const RunResult r = run_once(*sched, seed, p);
  expect_counters_add_up(r);

  // RunResult invariants.
  EXPECT_FALSE(r.aborted);
  EXPECT_GE(r.interactions, r.productive_steps);
  EXPECT_LE(r.interactions, budget());
  EXPECT_TRUE(std::isfinite(r.parallel_time));
  EXPECT_GE(r.parallel_time, 0.0);
  if (r.interactions > 0) EXPECT_GT(r.parallel_time, 0.0);

  // Honest verdict: silent == valid ranking == no productive weight left;
  // non-silent runs must still have global work to do AND a stated reason
  // to have stopped.
  EXPECT_EQ(r.silent, r.valid);
  EXPECT_EQ(r.silent, p->is_silent());
  if (r.silent) {
    EXPECT_TRUE(p->is_valid_ranking());
    EXPECT_EQ(p->productive_weight(), 0u);
  } else {
    EXPECT_GT(p->productive_weight(), 0u);
    if (c.spec.kind != SchedulerKind::kGraphRestricted) {
      EXPECT_EQ(r.interactions, budget())
          << "a non-graph scheduler stopped early without exhausting the "
             "budget";
    }
  }

  if (must_stabilise()) {
    EXPECT_TRUE(r.silent)
        << sched->name() << " failed to stabilise " << c.protocol
        << " within " << budget() << " interactions";
  }
}

TEST_P(SchedulerConformance, BudgetAndObserverAbortAreHonoured) {
  const Case& c = GetParam();
  const SchedulerPtr sched = make_scheduler(c.spec, population());
  const u64 n = population();

  // A budget of n interactions, far below stabilisation: never overrun,
  // and spent in full unless the run found silence or (graph-restricted
  // only) got locally stuck first.
  {
    ProtocolPtr p;
    RunOptions opt;
    opt.max_interactions = n;
    const RunResult r =
        run_once(*sched, derive_seed(72, c.spec.to_string(), n), p, opt);
    expect_counters_add_up(r);
    EXPECT_LE(r.interactions, n);
    EXPECT_FALSE(r.aborted);
    if (!r.silent && c.spec.kind != SchedulerKind::kGraphRestricted) {
      EXPECT_EQ(r.interactions, n);
    }
  }

  // An observer that returns false on its third call ends the run there.
  // Only a sparse graph may end the run first, by getting locally stuck
  // within its first two configuration changes.
  {
    ProtocolPtr p;
    RunOptions opt;
    opt.max_interactions = budget();
    u64 calls = 0;
    opt.on_change = [&calls](const Protocol&, u64) { return ++calls < 3; };
    const RunResult r =
        run_once(*sched, derive_seed(73, c.spec.to_string(), n), p, opt);
    expect_counters_add_up(r);
    EXPECT_GE(r.interactions, r.productive_steps);
    if (c.spec.kind == SchedulerKind::kGraphRestricted && !r.aborted) {
      EXPECT_LT(calls, 3u);
      EXPECT_EQ(calls, r.productive_steps);
      EXPECT_FALSE(r.silent);
      EXPECT_GT(p->productive_weight(), 0u);
      EXPECT_LT(r.interactions, budget()) << "stuck runs stop early";
    } else {
      EXPECT_TRUE(r.aborted);
      EXPECT_EQ(calls, 3u);
    }
  }
}

TEST_P(SchedulerConformance, SameSeedSameTrajectory) {
  const Case& c = GetParam();
  // One shared const instance for both runs: schedulers hold only immutable
  // configuration, so replaying a seed must reproduce the run exactly.
  const SchedulerPtr sched = make_scheduler(c.spec, population());
  const u64 seed = derive_seed(71, c.spec.to_string(), population());

  ProtocolPtr a, b;
  const RunResult ra = run_once(*sched, seed, a);
  const RunResult rb = run_once(*sched, seed, b);
  EXPECT_EQ(ra.interactions, rb.interactions);
  EXPECT_EQ(ra.productive_steps, rb.productive_steps);
  EXPECT_EQ(ra.fault_events, rb.fault_events);
  EXPECT_EQ(ra.silent, rb.silent);
  EXPECT_EQ(ra.valid, rb.valid);
  EXPECT_EQ(ra.aborted, rb.aborted);
  EXPECT_EQ(ra.parallel_time, rb.parallel_time);
  EXPECT_EQ(a->counts(), b->counts());
}

INSTANTIATE_TEST_SUITE_P(AllSchedulersAllProtocols, SchedulerConformance,
                         ::testing::ValuesIn(conformance_cases()),
                         case_label);

TEST(SchedulerConformanceRoster, CoversEveryKindAndEveryPolicy) {
  // The roster must not silently lose a scheduler family: every enum value
  // of SchedulerKind and AdversaryPolicy appears at least once.
  const std::vector<SchedulerSpec> specs = all_scheduler_specs();
  for (const SchedulerKind kind : scheduler_kinds()) {
    bool found = false;
    for (const SchedulerSpec& s : specs) found |= s.kind == kind;
    EXPECT_TRUE(found) << scheduler_kind_name(kind);
  }
  for (const AdversaryPolicy policy : adversary_policies()) {
    bool found = false;
    for (const SchedulerSpec& s : specs) {
      found |= s.kind == SchedulerKind::kAdversarial && s.adversary == policy;
    }
    EXPECT_TRUE(found) << adversary_policy_name(policy);
  }
  // And every roster name is unique — duplicate names would make BENCH
  // records and conformance case labels collide.
  for (size_t i = 0; i < specs.size(); ++i) {
    for (size_t j = i + 1; j < specs.size(); ++j) {
      EXPECT_NE(specs[i].to_string(), specs[j].to_string());
    }
  }
}

}  // namespace
}  // namespace pp
