// Adversarial-scheduler tests (schedulers/adversarial.hpp).
//
// Headline findings (mirrored by bench_adversarial):
//   * AG and the ring protocol terminate under EVERY productive schedule,
//     and even take a schedule-independent number of productive steps —
//     the same "handled consistently" phenomenon the paper proves for
//     lines in Lemmas 5/7;
//   * the line protocol admits infinite productive schedules (an adversary
//     can circulate surplus tokens through X forever): its stabilisation
//     guarantee is genuinely probabilistic, relying on the random
//     scheduler;
//   * the tree protocol stabilised under every adversary we implement
//     (the post-reset pour is deterministic by counting).
//
// The PinnedTrajectoryRegression tests pin the Scheduler port of the
// retired run_adversarial() entry point: every literal below was recorded
// from the pre-port core/adversary.cpp implementation, so the port is
// proven step-for-step and seed-for-seed behaviour-preserving.
#include "schedulers/adversarial.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "core/initial.hpp"
#include "protocols/factory.hpp"
#include "rng/seed_sequence.hpp"
#include "runner/runner.hpp"
#include "runner/sink.hpp"

namespace pp {
namespace {

RunResult run_adversary(Protocol& p, AdversaryPolicy policy, Rng& rng,
                        u64 budget) {
  const AdversarialScheduler sched(policy);
  RunOptions opt;
  opt.max_interactions = budget;
  return sched.run(p, rng, opt);
}

// FNV-1a over the final count vector — the fingerprint the pinned
// trajectories use (recorded from the pre-port implementation).
u64 counts_hash(const std::vector<Count>& c) {
  u64 h = 1469598103934665603ULL;
  for (const u64 v : c) {
    h ^= v;
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(Adversary, AgTerminatesUnderEveryPolicy) {
  for (const auto policy : adversary_policies()) {
    ProtocolPtr p = make_protocol("ag", 24);
    Rng rng(derive_seed(51, adversary_policy_name(policy)));
    p->reset(initial::uniform_random(*p, rng));
    const RunResult r = run_adversary(*p, policy, rng, 1'000'000);
    EXPECT_TRUE(r.silent) << adversary_policy_name(policy);
    EXPECT_TRUE(r.valid) << adversary_policy_name(policy);
  }
}

TEST(Adversary, RingTerminatesUnderEveryPolicy) {
  for (const auto policy : adversary_policies()) {
    ProtocolPtr p = make_protocol("ring-of-traps", 30);
    Rng rng(derive_seed(52, adversary_policy_name(policy)));
    p->reset(initial::uniform_random(*p, rng));
    const RunResult r = run_adversary(*p, policy, rng, 1'000'000);
    EXPECT_TRUE(r.silent) << adversary_policy_name(policy);
    EXPECT_TRUE(r.valid) << adversary_policy_name(policy);
  }
}

TEST(Adversary, AgProductiveStepCountIsScheduleIndependent) {
  // From one fixed start, every policy (and every random seed) fires
  // exactly the same number of productive interactions before silence.
  for (const u64 cfg_seed : {1u, 2u, 3u}) {
    ProtocolPtr p = make_protocol("ag", 20);
    Rng cfg_rng(cfg_seed);
    const Configuration start = initial::uniform_random(*p, cfg_rng);
    u64 expected = 0;
    bool first = true;
    for (const auto policy : adversary_policies()) {
      for (const u64 seed : {10u, 20u}) {
        p->reset(start);
        Rng rng(seed);
        const RunResult r = run_adversary(*p, policy, rng, 1'000'000);
        ASSERT_TRUE(r.silent);
        if (first) {
          expected = r.productive_steps;
          first = false;
        } else {
          EXPECT_EQ(r.productive_steps, expected)
              << adversary_policy_name(policy) << " seed " << seed;
        }
      }
    }
  }
}

TEST(Adversary, RingProductiveStepCountIsScheduleIndependent) {
  for (const u64 cfg_seed : {4u, 5u}) {
    ProtocolPtr p = make_protocol("ring-of-traps", 30);
    Rng cfg_rng(cfg_seed);
    const Configuration start = initial::uniform_random(*p, cfg_rng);
    u64 expected = 0;
    bool first = true;
    for (const auto policy : adversary_policies()) {
      p->reset(start);
      Rng rng(derive_seed(53, adversary_policy_name(policy)));
      const RunResult r = run_adversary(*p, policy, rng, 1'000'000);
      ASSERT_TRUE(r.silent);
      if (first) {
        expected = r.productive_steps;
        first = false;
      } else {
        EXPECT_EQ(r.productive_steps, expected)
            << adversary_policy_name(policy);
      }
    }
  }
}

TEST(Adversary, LineProtocolCanBeCycledForever) {
  // The max-load adversary keeps the line protocol alive past any budget
  // from a generic random start — stabilisation is probabilistic, not
  // adversarial.  (random-productive, the honest jump chain, terminates.)
  ProtocolPtr p = make_protocol("line-of-traps", 72);
  Rng rng(derive_seed(54, "line-adversary"));
  const Configuration start = initial::uniform_random(*p, rng);

  p->reset(start);
  const RunResult hostile =
      run_adversary(*p, AdversaryPolicy::kMaxLoad, rng, 100'000);
  EXPECT_FALSE(hostile.silent)
      << "max-load adversary unexpectedly let the line protocol finish";
  // No null steps: a cycling adversary burns the whole budget productively.
  EXPECT_EQ(hostile.interactions, 100'000u);
  EXPECT_EQ(hostile.productive_steps, 100'000u);

  p->reset(start);
  const RunResult honest =
      run_adversary(*p, AdversaryPolicy::kRandomProductive, rng, 1'000'000);
  EXPECT_TRUE(honest.silent);
  EXPECT_TRUE(honest.valid);
}

TEST(Adversary, TreeStabilisesUnderAllImplementedPolicies) {
  for (const auto policy : adversary_policies()) {
    ProtocolPtr p = make_protocol("tree-ranking", 33);
    Rng rng(derive_seed(55, adversary_policy_name(policy)));
    p->reset(initial::uniform_random(*p, rng));
    const RunResult r = run_adversary(*p, policy, rng, 1'000'000);
    EXPECT_TRUE(r.silent) << adversary_policy_name(policy);
    EXPECT_TRUE(r.valid) << adversary_policy_name(policy);
  }
}

TEST(Adversary, SilentStartReturnsImmediately) {
  ProtocolPtr p = make_protocol("ag", 8);
  Rng rng(1);
  p->reset(initial::valid_ranking(*p));
  const RunResult r = run_adversary(*p, AdversaryPolicy::kMaxLoad, rng, 1000);
  EXPECT_EQ(r.interactions, 0u);
  EXPECT_TRUE(r.silent);
}

TEST(Adversary, ProtocolStaysLiveDuringTheRun) {
  // The port drives the protocol through apply_pair, so (unlike the retired
  // run_adversarial, which published a local count vector only at the end)
  // an observer sees a consistent protocol after every firing.
  ProtocolPtr p = make_protocol("ag", 10);
  Rng rng(2);
  p->reset(initial::all_in_state(*p, 3));
  const AdversarialScheduler sched(AdversaryPolicy::kStubborn);
  RunOptions opt;
  u64 calls = 0;
  opt.on_change = [&](const Protocol& q, u64 k) {
    ++calls;
    EXPECT_EQ(q.configuration().agents(), 10u);
    EXPECT_EQ(k, calls);  // every adversarial step is a config change
    return true;
  };
  const RunResult r = sched.run(*p, rng, opt);
  EXPECT_TRUE(p->is_valid_ranking());
  EXPECT_EQ(p->counts()[3], 1u);
  EXPECT_EQ(calls, r.productive_steps);
}

// ---- pinned pre-port trajectories -----------------------------------------

struct Pin {
  AdversaryPolicy policy;
  u64 steps;
  bool silent;
  u64 hash;
};

void expect_pinned(const char* proto, u64 n, u64 seed, u64 budget,
                   const Pin& pin) {
  ProtocolPtr p = make_protocol(proto, n);
  Rng rng(seed);
  p->reset(initial::uniform_random(*p, rng));
  const RunResult r = run_adversary(*p, pin.policy, rng, budget);
  const char* name = adversary_policy_name(pin.policy);
  EXPECT_EQ(r.interactions, pin.steps) << proto << " " << name;
  EXPECT_EQ(r.productive_steps, pin.steps) << proto << " " << name;
  EXPECT_EQ(r.silent, pin.silent) << proto << " " << name;
  EXPECT_EQ(r.valid, pin.silent) << proto << " " << name;
  EXPECT_EQ(counts_hash(p->counts()), pin.hash) << proto << " " << name;
}

// Recorded from run_adversarial() as it stood before the Scheduler port.
// If the port (or anything upstream: Rng, initial::, the rule tables)
// changes the firing sequence, these fail — that is the point.
TEST(AdversaryPinned, AgTrajectoryRegression) {
  // ag n=16, uniform_random start, seed 42: every policy fires exactly 29
  // productive steps to the same silent ranking (schedule-independence).
  for (const auto policy : adversary_policies()) {
    expect_pinned("ag", 16, 42, 1'000'000,
                  {policy, 29, true, 0xf9dbd55202e74853ULL});
  }
}

TEST(AdversaryPinned, TreeTrajectoryRegression) {
  // tree-ranking n=15, seed 11: policy-dependent step counts, one silent
  // final ranking.
  expect_pinned("tree-ranking", 15, 11, 1'000'000,
                {AdversaryPolicy::kRandomProductive, 271, true,
                 0xc71fd8d24742c6e0ULL});
  expect_pinned("tree-ranking", 15, 11, 1'000'000,
                {AdversaryPolicy::kMaxLoad, 158, true,
                 0xc71fd8d24742c6e0ULL});
  expect_pinned("tree-ranking", 15, 11, 1'000'000,
                {AdversaryPolicy::kMinRankCoverage, 128, true,
                 0xc71fd8d24742c6e0ULL});
  expect_pinned("tree-ranking", 15, 11, 1'000'000,
                {AdversaryPolicy::kStubborn, 122, true,
                 0xc71fd8d24742c6e0ULL});
}

TEST(AdversaryPinned, LineTrajectoryRegressionIncludingCycling) {
  // line-of-traps n=72, seed 7, budget 500: the honest jump chain
  // stabilises at 305 steps; the three hostile policies burn the whole
  // budget, each in its own distinguishable non-silent configuration.
  expect_pinned("line-of-traps", 72, 7, 500,
                {AdversaryPolicy::kRandomProductive, 305, true,
                 0x1861243758f8b891ULL});
  expect_pinned("line-of-traps", 72, 7, 500,
                {AdversaryPolicy::kMaxLoad, 500, false,
                 0xa65d4929098e12c3ULL});
  expect_pinned("line-of-traps", 72, 7, 500,
                {AdversaryPolicy::kMinRankCoverage, 500, false,
                 0x75f7c1dd0af86cabULL});
  expect_pinned("line-of-traps", 72, 7, 500,
                {AdversaryPolicy::kStubborn, 500, false,
                 0xf20c121889b91d45ULL});
}

// ---- runner + sink wiring -------------------------------------------------

TEST(AdversaryRunner, RunsThroughTheSchedulerPathAndNamesThePolicy) {
  TrialSpec spec;
  spec.protocol = "ag";
  spec.n = 16;
  spec.label = "adv-sink";
  spec.engine = EngineKind::kScheduled;
  spec.scheduler.kind = SchedulerKind::kAdversarial;
  spec.scheduler.adversary = AdversaryPolicy::kMinRankCoverage;
  RunnerOptions opt;
  opt.trials = 4;
  opt.threads = 2;
  const TrialSet set = run_trials(spec, opt);
  EXPECT_EQ(set.stats.timeouts, 0u);
  EXPECT_EQ(set.stats.invalid, 0u);
  for (const TrialRecord& r : set.records) {
    EXPECT_EQ(r.interactions, r.productive_steps);  // no null steps
  }

  // BENCH trajectories stay comparable only if the records carry the
  // concrete policy, not a bare "adversarial".
  std::ostringstream json, csv;
  JsonlSink(json).write_aggregate(spec, set);
  CsvSink(csv).write_trials(spec, set);
  EXPECT_NE(json.str().find("\"engine\":\"adversarial[min-rank-coverage]\""),
            std::string::npos)
      << json.str();
  EXPECT_NE(csv.str().find(",adversarial[min-rank-coverage],"),
            std::string::npos)
      << csv.str();
}

}  // namespace
}  // namespace pp
