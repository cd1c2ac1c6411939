// The pluggable scheduler subsystem (src/schedulers/).
//
// The load-bearing guarantees:
//   * UniformScheduler / AcceleratedUniformScheduler reproduce the
//     pre-refactor run_uniform / run_accelerated trajectories seed-for-seed
//     (bit-identical, pinned by hard-coded regression values);
//   * GraphRestrictedScheduler on the complete graph is the uniform
//     scheduler in disguise — statistically indistinguishable mean
//     stabilisation times (KS-style check as in test_engine.cpp);
//   * the matching and graph-restricted models behave sanely on every
//     protocol (stabilise where the topology allows, report locally-stuck
//     configurations where it does not).
#include "schedulers/scheduler.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/assert.hpp"
#include "core/initial.hpp"
#include "obs/counters.hpp"
#include "protocols/ag.hpp"
#include "protocols/factory.hpp"
#include "runner/runner.hpp"
#include "runner/sink.hpp"
#include "schedulers/graph_restricted.hpp"
#include "schedulers/random_matching.hpp"
#include "schedulers/uniform.hpp"

namespace pp {
namespace {

// Pre-refactor trajectory pins for AG n=16, uniform_random start, seed 42
// (see PinnedTrajectoryRegression below).
constexpr u64 kPinnedUniformInteractions = 1522;
constexpr u64 kPinnedUniformProductive = 29;
constexpr u64 kPinnedAcceleratedInteractions = 1543;
constexpr u64 kPinnedAcceleratedProductive = 29;

// Graph-restricted pins, recorded from the sampler-layer implementation
// (see SchedulerGraph.PinnedTrajectoryRegression below): AG n=16,
// uniform_random start; a to-silence run on K_16 (seed 42) and a
// locally-stuck run on the 16-cycle (seed 47).
constexpr u64 kPinnedGraphAcceleratedInteractions = 2505;
constexpr u64 kPinnedGraphAcceleratedProductive = 29;
constexpr u64 kPinnedGraphNaiveInteractions = 2208;
constexpr u64 kPinnedGraphNaiveProductive = 29;
constexpr u64 kPinnedCycleAcceleratedInteractions = 35;
constexpr u64 kPinnedCycleNaiveInteractions = 58;
constexpr u64 kPinnedCycleProductive = 3;

RunResult run_via(const Scheduler& s, std::string_view proto, u64 n, u64 seed,
                  const RunOptions& opt = {}) {
  ProtocolPtr p = make_protocol(proto, n);
  Rng rng(seed);
  p->reset(initial::uniform_random(*p, rng));
  return s.run(*p, rng, opt);
}

// ---- bit-identical delegation --------------------------------------------

TEST(SchedulerUniform, BitIdenticalToRunUniform) {
  const UniformScheduler sched;
  for (u64 seed = 1; seed <= 5; ++seed) {
    AgProtocol a(24), b(24);
    Rng ra(seed), rb(seed);
    a.reset(initial::uniform_random(a, ra));
    b.reset(initial::uniform_random(b, rb));
    const RunResult legacy = run_uniform(a, ra);
    const RunResult via = sched.run(b, rb);
    EXPECT_EQ(legacy.interactions, via.interactions) << seed;
    EXPECT_EQ(legacy.productive_steps, via.productive_steps) << seed;
    EXPECT_EQ(a.counts(), b.counts()) << seed;
    EXPECT_EQ(ra.bits(), rb.bits()) << "generators diverged, seed " << seed;
  }
}

TEST(SchedulerUniform, AcceleratedBitIdenticalToRunAccelerated) {
  const AcceleratedUniformScheduler sched;
  for (u64 seed = 1; seed <= 5; ++seed) {
    ProtocolPtr a = make_protocol("tree-ranking", 32);
    ProtocolPtr b = make_protocol("tree-ranking", 32);
    Rng ra(seed), rb(seed);
    a->reset(initial::uniform_random(*a, ra));
    b->reset(initial::uniform_random(*b, rb));
    const RunResult legacy = run_accelerated(*a, ra);
    const RunResult via = sched.run(*b, rb);
    EXPECT_EQ(legacy.interactions, via.interactions) << seed;
    EXPECT_EQ(legacy.productive_steps, via.productive_steps) << seed;
    EXPECT_EQ(a->counts(), b->counts()) << seed;
    EXPECT_EQ(ra.bits(), rb.bits()) << "generators diverged, seed " << seed;
  }
}

// Pinned pre-refactor trajectories: these literals were recorded from the
// engines as they stood before the scheduler extraction.  If either engine
// (or anything upstream of it: Rng, initial::, the AG rule table) changes
// its draw sequence, this fails — that is the point.
TEST(SchedulerUniform, PinnedTrajectoryRegression) {
  const UniformScheduler uniform;
  const AcceleratedUniformScheduler accelerated;
  const RunResult u = run_via(uniform, "ag", 16, /*seed=*/42);
  EXPECT_TRUE(u.valid);
  EXPECT_EQ(u.interactions, kPinnedUniformInteractions);
  EXPECT_EQ(u.productive_steps, kPinnedUniformProductive);
  const RunResult a = run_via(accelerated, "ag", 16, /*seed=*/42);
  EXPECT_TRUE(a.valid);
  EXPECT_EQ(a.interactions, kPinnedAcceleratedInteractions);
  EXPECT_EQ(a.productive_steps, kPinnedAcceleratedProductive);
}

// ---- random matching ------------------------------------------------------

TEST(SchedulerMatching, StabilisesEveryProtocol) {
  const RandomMatchingScheduler sched;
  for (const auto name : protocol_names()) {
    const u64 n = preferred_population(name, 48);
    const RunResult r = run_via(sched, name, n, /*seed=*/3);
    EXPECT_TRUE(r.silent) << name;
    EXPECT_TRUE(r.valid) << name;
    EXPECT_GE(r.interactions, r.productive_steps) << name;
    EXPECT_GT(r.parallel_time, 0.0) << name;
  }
}

TEST(SchedulerMatching, OddPopulationLeavesOneAgentIdle) {
  const RandomMatchingScheduler sched;
  const RunResult r = run_via(sched, "ag", 17, /*seed=*/4);
  EXPECT_TRUE(r.valid);
  // 17 agents -> 8 meetings per round; interactions must be consistent
  // with an integer number of rounds at 8 meetings each (the final round
  // may be cut short only by silence, never mid-round here).
  EXPECT_EQ(r.interactions % 8, 0u);
  EXPECT_DOUBLE_EQ(r.parallel_time, static_cast<double>(r.interactions) / 8);
}

TEST(SchedulerMatching, RespectsInteractionBudget) {
  const RandomMatchingScheduler sched;
  RunOptions opt;
  opt.max_interactions = 100;
  const RunResult r = run_via(sched, "ag", 64, /*seed=*/5, opt);
  EXPECT_EQ(r.interactions, 100u);
  EXPECT_FALSE(r.silent);
}

TEST(SchedulerMatching, MatchesUniformEngineStatistically) {
  // The matching model fires the same rules under a different meeting
  // process; on the complete meeting structure the *productive step count*
  // to silence should be statistically close to the uniform scheduler's
  // (the embedded jump chains are close for AG, whose productive pairs are
  // state-symmetric).  Generous 30% band, means over 40 trials.
  const RandomMatchingScheduler sched;
  const u64 n = 24;
  const int kTrials = 40;
  double matching_steps = 0, uniform_steps = 0;
  for (int t = 0; t < kTrials; ++t) {
    matching_steps += static_cast<double>(
        run_via(sched, "ag", n, 3000 + t).productive_steps);
    AgProtocol p(n);
    Rng rng(700000 + t);
    p.reset(initial::uniform_random(p, rng));
    uniform_steps += static_cast<double>(run_uniform(p, rng).productive_steps);
  }
  EXPECT_NEAR(matching_steps / uniform_steps, 1.0, 0.30);
}

// ---- graph-restricted -----------------------------------------------------

TEST(SchedulerGraph, CompleteGraphMatchesUniformStatistically) {
  // The central equivalence: restricting to the complete graph is no
  // restriction, so mean stabilisation times must agree with run_uniform
  // within the same tolerance test_engine.cpp uses for the engines.
  const u64 n = 24;
  const int kTrials = 60;
  auto graph = std::make_shared<const InteractionGraph>(
      InteractionGraph::complete(n));
  for (const bool accelerated : {true, false}) {
    const GraphRestrictedScheduler sched(graph, accelerated);
    double graph_time = 0, uniform_time = 0;
    for (int t = 0; t < kTrials; ++t) {
      const RunResult r = run_via(sched, "ag", n, 4000 + t);
      EXPECT_TRUE(r.valid);
      graph_time += r.parallel_time;
      AgProtocol p(n);
      Rng rng(800000 + t);
      p.reset(initial::uniform_random(p, rng));
      uniform_time += run_uniform(p, rng).parallel_time;
    }
    EXPECT_NEAR(graph_time / uniform_time, 1.0, 0.25)
        << (accelerated ? "accelerated" : "naive");
  }
}

TEST(SchedulerGraph, AcceleratedMatchesNaiveOnSparseGraph) {
  // Null-skipping must be exact on restricted topologies too: naive and
  // accelerated paths on the same cycle agree on the distribution of
  // productive work and of getting stuck.
  const u64 n = 16;
  const int kTrials = 80;
  auto graph =
      std::make_shared<const InteractionGraph>(InteractionGraph::cycle(n));
  double steps[2] = {0, 0};
  int stuck[2] = {0, 0};
  for (const bool accelerated : {true, false}) {
    const GraphRestrictedScheduler sched(graph, accelerated);
    for (int t = 0; t < kTrials; ++t) {
      const RunResult r = run_via(sched, "ag", n, 5000 + t);
      steps[accelerated] += static_cast<double>(r.productive_steps);
      stuck[accelerated] += r.silent ? 0 : 1;
    }
  }
  EXPECT_NEAR(steps[1] / steps[0], 1.0, 0.25);
  EXPECT_NEAR(static_cast<double>(stuck[1]) / kTrials,
              static_cast<double>(stuck[0]) / kTrials, 0.25);
}

TEST(SchedulerGraph, CycleStrandsMostRuns) {
  // Non-stabilisation under sparse topologies is the phenomenon this
  // scheduler exposes: a locally stuck run terminates (no hang), reports
  // silent = false, and the protocol still has global productive weight.
  const u64 n = 32;
  auto graph =
      std::make_shared<const InteractionGraph>(InteractionGraph::cycle(n));
  const GraphRestrictedScheduler sched(graph, /*accelerated=*/true);
  int stranded = 0;
  for (int t = 0; t < 10; ++t) {
    ProtocolPtr p = make_protocol("ag", n);
    Rng rng(6000 + t);
    p->reset(initial::uniform_random(*p, rng));
    const RunResult r = sched.run(*p, rng, {});
    if (!r.silent) {
      ++stranded;
      EXPECT_FALSE(r.valid);
      EXPECT_GT(p->productive_weight(), 0u)
          << "stuck means locally stuck, not globally silent";
    } else {
      EXPECT_TRUE(r.valid);
    }
  }
  EXPECT_GE(stranded, 5) << "a cycle should strand most random AG starts";
}

TEST(SchedulerGraph, SparseTopologiesTerminateCleanlyOnTreeRanking) {
  // Self-stabilising *ranking* fundamentally needs global meetings: the
  // end-game duplicates of a nearly ranked population are rarely adjacent
  // in a sparse graph, so even an expander strands most runs — a genuine
  // model property, not a bug.  What the scheduler owes us: every run
  // terminates (no hang), its extra-state/orientation-sensitive rules do
  // fire through apply_pair, and the outcome is classified correctly —
  // silent implies a valid ranking, stuck implies global productive weight
  // remains.
  const u64 n = 32;
  auto graph = std::make_shared<const InteractionGraph>(
      InteractionGraph::random_regular(n, 4, /*seed=*/2));
  const GraphRestrictedScheduler sched(graph, /*accelerated=*/true);
  u64 productive = 0;
  for (int t = 0; t < 10; ++t) {
    ProtocolPtr p = make_protocol("tree-ranking", n);
    Rng rng(7000 + t);
    p->reset(initial::uniform_random(*p, rng));
    const RunResult r = sched.run(*p, rng, {});
    productive += r.productive_steps;
    if (r.silent) {
      EXPECT_TRUE(r.valid);
    } else {
      EXPECT_GT(p->productive_weight(), 0u);
    }
  }
  EXPECT_GT(productive, 0u) << "the buffer-line rules never fired at all";
}

TEST(SchedulerGraph, CompleteGraphStabilisesTreeRanking) {
  // On the complete graph nothing is restricted, so the tree protocol's
  // extra states and orientation-sensitive R4 rule must carry it to a
  // valid ranking through apply_pair exactly as under the engines.
  const u64 n = 32;
  auto graph = std::make_shared<const InteractionGraph>(
      InteractionGraph::complete(n));
  const GraphRestrictedScheduler sched(graph, /*accelerated=*/true);
  for (int t = 0; t < 5; ++t) {
    const RunResult r = run_via(sched, "tree-ranking", n, 7100 + t);
    EXPECT_TRUE(r.silent) << t;
    EXPECT_TRUE(r.valid) << t;
  }
}

// Pinned post-refactor trajectories for the graph-restricted scheduler on
// the Fenwick-backed sampler layer (PR 4).  The naive path consumes the
// generator exactly as the pre-refactor swap-remove implementation did
// (unit weights make Fenwick::find the identity on the drawn target); the
// accelerated path draws the same below(W) but maps targets in id order
// rather than insertion order, so its literals were re-recorded at
// refactor time.  Any change to the sampler layer's draw sequence fails
// here — that is the point.
TEST(SchedulerGraph, PinnedTrajectoryRegression) {
  auto complete = std::make_shared<const InteractionGraph>(
      InteractionGraph::complete(16));
  auto cycle = std::make_shared<const InteractionGraph>(
      InteractionGraph::cycle(16));
  // A full run to silence on the unrestricted topology...
  const GraphRestrictedScheduler acc_k(complete, /*accelerated=*/true);
  const GraphRestrictedScheduler naive_k(complete, /*accelerated=*/false);
  const RunResult a = run_via(acc_k, "ag", 16, /*seed=*/42);
  EXPECT_TRUE(a.silent);
  EXPECT_EQ(a.interactions, kPinnedGraphAcceleratedInteractions);
  EXPECT_EQ(a.productive_steps, kPinnedGraphAcceleratedProductive);
  const RunResult u = run_via(naive_k, "ag", 16, /*seed=*/42);
  EXPECT_TRUE(u.silent);
  EXPECT_EQ(u.interactions, kPinnedGraphNaiveInteractions);
  EXPECT_EQ(u.productive_steps, kPinnedGraphNaiveProductive);
  // ...and a locally stuck run on the cycle, pinning the stuck-detection
  // path too.
  const GraphRestrictedScheduler acc_c(cycle, /*accelerated=*/true);
  const GraphRestrictedScheduler naive_c(cycle, /*accelerated=*/false);
  const RunResult ca = run_via(acc_c, "ag", 16, /*seed=*/47);
  EXPECT_FALSE(ca.silent);
  EXPECT_EQ(ca.interactions, kPinnedCycleAcceleratedInteractions);
  EXPECT_EQ(ca.productive_steps, kPinnedCycleProductive);
  const RunResult cn = run_via(naive_c, "ag", 16, /*seed=*/47);
  EXPECT_FALSE(cn.silent);
  EXPECT_EQ(cn.interactions, kPinnedCycleNaiveInteractions);
  EXPECT_EQ(cn.productive_steps, kPinnedCycleProductive);
}

TEST(SchedulerGraph, RespectsInteractionBudget) {
  const u64 n = 16;
  auto graph = std::make_shared<const InteractionGraph>(
      InteractionGraph::random_regular(n, 4, /*seed=*/3));
  for (const bool accelerated : {true, false}) {
    const GraphRestrictedScheduler sched(graph, accelerated);
    RunOptions opt;
    opt.max_interactions = 50;
    const RunResult r = run_via(sched, "ag", n, /*seed=*/8, opt);
    EXPECT_LE(r.interactions, 50u);
    EXPECT_GE(r.interactions, r.productive_steps);
  }
}

// ---- factory + runner wiring ---------------------------------------------

TEST(SchedulerFactory, BuildsEveryKindWithMatchingNames) {
  for (const SchedulerKind kind : scheduler_kinds()) {
    SchedulerSpec spec;
    spec.kind = kind;
    const SchedulerPtr s = make_scheduler(spec, 12);
    ASSERT_NE(s, nullptr);
    // The built scheduler and the spec agree on the display name, and the
    // name always leads with the kind (parameterised kinds decorate it,
    // e.g. "adversarial[random-productive]").
    EXPECT_EQ(s->name(), spec.to_string());
    EXPECT_EQ(spec.to_string().rfind(scheduler_kind_name(kind), 0), 0u)
        << spec.to_string();
  }
  SchedulerSpec rr;
  rr.kind = SchedulerKind::kGraphRestricted;
  rr.graph = GraphKind::kRandomRegular;
  rr.degree = 4;
  EXPECT_EQ(rr.to_string(), "graph-restricted[random-4-regular]");
  EXPECT_EQ(make_scheduler(rr, 12)->name(),
            "graph-restricted[random-4-regular]");
  // Non-default topology seeds are encoded: specs differing only in the
  // random-regular seed must not collide in sinks or BENCH labels.
  rr.graph_seed = 7;
  EXPECT_EQ(rr.to_string(), "graph-restricted[random-4-regular/g7]");
  EXPECT_EQ(make_scheduler(rr, 12)->name(), rr.to_string());
  rr.graph_seed = 1;
  SchedulerSpec wt;
  wt.kind = SchedulerKind::kWeighted;
  wt.kernel = WeightKernel::kRingDecay;
  EXPECT_EQ(wt.to_string(), "weighted[ring-decay]");
  wt.kernel_power = 2;
  EXPECT_EQ(wt.to_string(), "weighted[ring-decay^2]");
  EXPECT_EQ(make_scheduler(wt, 12)->name(), "weighted[ring-decay^2]");
  SchedulerSpec dyn;
  dyn.kind = SchedulerKind::kDynamicGraph;
  dyn.graph = GraphKind::kCycle;
  EXPECT_EQ(dyn.to_string(), "dynamic[cycle/markov]");
  dyn.edge_birth = 0.005;
  dyn.edge_death = 0.1;
  EXPECT_EQ(dyn.to_string(), "dynamic[cycle/markov/b0.005/d0.1]");
  EXPECT_EQ(make_scheduler(dyn, 12)->name(), dyn.to_string());
  dyn = SchedulerSpec{};
  dyn.kind = SchedulerKind::kDynamicGraph;
  dyn.graph = GraphKind::kRandomRegular;
  dyn.degree = 4;
  dyn.dynamics = GraphDynamics::kPeriodicRewire;
  dyn.rewire_period = 96;
  EXPECT_EQ(dyn.to_string(), "dynamic[random-4-regular/rewire/T96]");
  EXPECT_EQ(make_scheduler(dyn, 12)->name(), dyn.to_string());
  SchedulerSpec adv;
  adv.kind = SchedulerKind::kAdversarial;
  adv.adversary = AdversaryPolicy::kMaxLoad;
  EXPECT_EQ(adv.to_string(), "adversarial[max-load]");
  EXPECT_EQ(make_scheduler(adv, 12)->name(), "adversarial[max-load]");
  SchedulerSpec churn;
  churn.kind = SchedulerKind::kChurn;
  churn.churn_rate = 0.05;
  churn.churn_faults = 3;
  churn.churn_reset = ChurnReset::kStateZero;
  EXPECT_EQ(churn.to_string(), "churn[0.05x3/state-zero]");
  EXPECT_EQ(make_scheduler(churn, 12)->name(), "churn[0.05x3/state-zero]");
  SchedulerSpec part;
  part.kind = SchedulerKind::kPartition;
  part.partition_blocks = 4;
  EXPECT_EQ(part.to_string(), "partition[4-blocks]");
  EXPECT_EQ(make_scheduler(part, 12)->name(), "partition[4-blocks]");
  // Non-default storm/phase knobs are encoded too, so specs differing only
  // in those never collide in BENCH records or conformance labels.
  churn.churn_active = 777;
  EXPECT_EQ(churn.to_string(), "churn[0.05x3/state-zero/a777]");
  EXPECT_EQ(make_scheduler(churn, 12)->name(), churn.to_string());
  part.partition_split = 100;
  part.partition_heal = 50;
  part.partition_cycles = 5;
  EXPECT_EQ(part.to_string(), "partition[4-blocks/s100/h50/c5]");
  EXPECT_EQ(make_scheduler(part, 12)->name(), part.to_string());
}

TEST(SchedulerRunner, ScheduledAcceleratedUniformIsBitIdenticalToEngine) {
  // The runner path through EngineKind::kScheduled + accelerated-uniform
  // must give the very same records as EngineKind::kAccelerated — the
  // acceptance bar for the refactor at the runner level.
  TrialSpec engine_spec;
  engine_spec.protocol = "ag";
  engine_spec.n = 32;
  engine_spec.label = "sched-equiv";
  engine_spec.engine = EngineKind::kAccelerated;

  TrialSpec sched_spec = engine_spec;
  sched_spec.engine = EngineKind::kScheduled;
  sched_spec.scheduler.kind = SchedulerKind::kAcceleratedUniform;

  RunnerOptions opt;
  opt.trials = 16;
  opt.threads = 2;
  const TrialSet a = run_trials(engine_spec, opt);
  const TrialSet b = run_trials(sched_spec, opt);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (u64 t = 0; t < a.records.size(); ++t) {
    EXPECT_EQ(a.records[t].seed, b.records[t].seed) << t;
    EXPECT_EQ(a.records[t].interactions, b.records[t].interactions) << t;
    EXPECT_EQ(a.records[t].productive_steps, b.records[t].productive_steps)
        << t;
    EXPECT_EQ(a.records[t].parallel_time, b.records[t].parallel_time) << t;
  }
}

TEST(SchedulerRunner, SinkRecordsNameTheConcreteScheduler) {
  // A bare engine:"scheduled" would make every scheduler variant
  // serialize identically; records must carry the interaction model.
  TrialSpec spec;
  spec.protocol = "ag";
  spec.n = 12;
  spec.label = "sink-detail";
  spec.engine = EngineKind::kScheduled;
  spec.scheduler.kind = SchedulerKind::kGraphRestricted;
  spec.scheduler.graph = GraphKind::kCycle;
  RunnerOptions opt;
  opt.trials = 2;
  opt.threads = 1;
  const TrialSet set = run_trials(spec, opt);

  std::ostringstream json, csv;
  JsonlSink(json).write_aggregate(spec, set);
  CsvSink(csv).write_trials(spec, set);
  EXPECT_NE(json.str().find("\"engine\":\"graph-restricted[cycle]\""),
            std::string::npos)
      << json.str();
  EXPECT_NE(csv.str().find(",graph-restricted[cycle],"), std::string::npos)
      << csv.str();
}

TEST(SchedulerRunner, MatchingAndGraphRunThroughTheRunner) {
  for (const SchedulerKind kind :
       {SchedulerKind::kRandomMatching, SchedulerKind::kGraphRestricted}) {
    TrialSpec spec;
    spec.protocol = "ag";
    spec.n = 24;
    spec.label = "sched-runner";
    spec.engine = EngineKind::kScheduled;
    spec.scheduler.kind = kind;
    RunnerOptions opt;
    opt.trials = 8;
    opt.threads = 4;
    const TrialSet set = run_trials(spec, opt);
    EXPECT_EQ(set.stats.trials, 8u);
    EXPECT_EQ(set.stats.timeouts, 0u) << scheduler_kind_name(kind);
    EXPECT_EQ(set.stats.invalid, 0u) << scheduler_kind_name(kind);
  }
}

// ---- pinned tick-phase and round trajectories -----------------------------

// One run through the scheduler named `spec_name` with an observer that
// counts its calls and sums the interaction counts it is handed; `stop_at`
// (0 = never) makes it abort on the change that lands on that interaction.
struct PinRun {
  RunResult r;
  u64 calls = 0;
  u64 seen = 0;
  u64 next_draw = 0;  // the generator's first draw after the run
};

PinRun run_pinned(std::string_view spec_name, std::string_view proto, u64 n,
                  u64 seed, u64 budget, u64 stop_at = 0) {
  const std::optional<SchedulerSpec> spec = parse_scheduler_spec(spec_name);
  PP_ASSERT_MSG(spec.has_value(), "pinned spec name does not parse");
  const SchedulerPtr sched = make_scheduler(*spec, n);
  ProtocolPtr p = make_protocol(proto, n);
  Rng rng(seed);
  p->reset(initial::uniform_random(*p, rng));
  PinRun out;
  RunOptions opt;
  opt.max_interactions = budget;
  opt.on_change = [&out, stop_at](const Protocol&, u64 k) {
    ++out.calls;
    out.seen += k;
    return k != stop_at;
  };
  out.r = sched->run(*p, rng, opt);
  out.next_draw = rng.bits();
  return out;
}

struct Pin {
  const char* spec;
  const char* proto;
  u64 n, seed, budget, stop_at;
  u64 interactions, productive_steps, fault_events;
  double parallel_time;
  bool silent, aborted;
  u64 calls, seen, next_draw;
};

void expect_pin(const Pin& pin) {
  const PinRun run = run_pinned(pin.spec, pin.proto, pin.n, pin.seed,
                                pin.budget, pin.stop_at);
  const RunResult& r = run.r;
  const std::string at = std::string(pin.spec) + " " + pin.proto + " n=" +
                         std::to_string(pin.n) + " seed=" +
                         std::to_string(pin.seed) + " budget=" +
                         std::to_string(pin.budget);
  EXPECT_EQ(r.interactions, pin.interactions) << at;
  EXPECT_EQ(r.productive_steps, pin.productive_steps) << at;
  EXPECT_EQ(r.fault_events, pin.fault_events) << at;
  EXPECT_EQ(r.parallel_time, pin.parallel_time) << at;
  EXPECT_EQ(r.silent, pin.silent) << at;
  EXPECT_EQ(r.valid, pin.silent) << at;
  EXPECT_EQ(r.aborted, pin.aborted) << at;
  EXPECT_EQ(run.calls, pin.calls) << at;
  EXPECT_EQ(run.seen, pin.seen) << at;
  EXPECT_EQ(run.next_draw, pin.next_draw) << at;
}

constexpr u64 kUnlimited = ~u64{0};

// Recorded from the hand-written churn, partition and random-matching loops
// (and the accelerated clean tail churn and partition hand over to) before
// those models moved onto run_exact.  Each model gets one run to its end and
// one whose budget stops it mid-phase or mid-round.
TEST(TickPhasePins, ChurnStormThenCleanTail) {
  // ring-of-traps n = 40: the storm is 2000 ticks, so the 1000 budget ends
  // inside it.  The move_agent fast path and the rebuild reference agree.
  for (const char* spec : {"churn[0.02/uniform-state]",
                           "churn[0.02/uniform-state/dense-ref]"}) {
    expect_pin({spec, "ring-of-traps", 40, 11, kUnlimited, 0, 40312, 205, 48,
                1007.8, true, false, 251, 3000440, 0x49f3d7bc7c686799ULL});
    expect_pin({spec, "ring-of-traps", 40, 12, 1000, 0, 1000, 14, 14, 25,
                false, false, 26, 14555, 0x1aac36605b7f7366ULL});
  }
}

TEST(TickPhasePins, ChurnStormTicksDrawNoGaps) {
  // Every step of the storm is a tick at event probability 1: run_exact
  // steps it without a gap, so a run whose budget ends inside the storm
  // records no null-skip gap, and still counts each interaction once.
  obs::CounterBlock work;
  PinRun run;
  {
    const obs::ScopedCounters scope(&work);
    run = run_pinned("churn[0.02/uniform-state]", "ring-of-traps", 40, 12,
                     1000);
  }
  EXPECT_EQ(run.r.interactions, 1000u);
#if PP_OBS
  EXPECT_EQ(work.sketch_count(obs::Sketch::kNullSkipGap), 0u);
  EXPECT_EQ(work.get(obs::Counter::kNullSkips) +
                work.get(obs::Counter::kProductiveSteps),
            run.r.interactions);
#endif
}

TEST(TickPhasePins, PartitionPhasesThenCleanTail) {
  // ag n = 30: three 600-step split/heal cycles; the 900 budget ends in the
  // first heal phase.
  expect_pin({"partition[2-blocks]", "ag", 30, 11, kUnlimited, 0, 15119, 81, 6,
              503.96666666666664, true, false, 81, 460179,
              0x0cb4e85ed5962523ULL});
  expect_pin({"partition[2-blocks]", "ag", 30, 12, 900, 0, 900, 14, 2, 30,
              false, false, 14, 6586, 0x485b56c3a464b666ULL});
  expect_pin({"partition[3-blocks]", "ag", 30, 11, kUnlimited, 0, 17482, 81, 6,
              582.73333333333335, true, false, 81, 553711,
              0x3b05b549a7523497ULL});
  expect_pin({"partition[3-blocks]", "ag", 30, 12, 900, 0, 900, 14, 2, 30,
              false, false, 14, 8872, 0x485b56c3a464b666ULL});
}

TEST(TickPhasePins, RandomMatchingRounds) {
  // 15 meetings a round at n = 30 and at n = 31 (one agent idles); the
  // budgets 100 and 101 end mid-round.
  expect_pin({"random-matching", "ag", 30, 13, kUnlimited, 0, 12570, 103, 0,
              838, true, false, 103, 447188, 0x7297ea49cc7f47a9ULL});
  expect_pin({"random-matching", "ag", 30, 14, 100, 0, 100, 5, 0,
              6.666666666666667, false, false, 5, 190, 0xd500076db01b6455ULL});
  expect_pin({"random-matching", "ag", 31, 15, kUnlimited, 0, 17490, 122, 0,
              1166, true, false, 122, 675052, 0x0a75d270d2ed84c3ULL});
  expect_pin({"random-matching", "ag", 31, 16, 101, 0, 101, 2, 0,
              6.7333333333333334, false, false, 2, 65, 0x8fa25ab8f7b2f5a0ULL});
}

TEST(TickPhasePins, PartitionBudgetOnAPhaseBoundaryCountsTheNextTransition) {
  // A budget of exactly three 20 n phases: the split, heal and split that
  // ran, plus the move into the heal phase the budget left no room for.
  const u64 hashes[] = {0x6af58836621df374ULL, 0x892d337cc6415b9dULL,
                        0xb26f84ebe1a92a8bULL, 0x5888dc0a3bd54c69ULL};
  const u64 productive[] = {16, 23, 15, 11};
  const u64 seen[] = {12750, 16965, 10332, 11554};
  for (u64 seed = 1; seed <= 4; ++seed) {
    expect_pin({"partition[2-blocks]", "ag", 30, seed, 60 * 30, 0, 1800,
                productive[seed - 1], 4, 60, false, false,
                productive[seed - 1], seen[seed - 1], hashes[seed - 1]});
  }
}

TEST(TickPhasePins, PartitionAbortOnAPhasesLastStepCountsNoTransition) {
  // Seed 138 changes the configuration on interaction 600, the first split
  // phase's last; the observer stops the run there, before the heal.
  expect_pin({"partition[2-blocks]", "ag", 30, 138, kUnlimited, 600, 600, 4, 1,
              20, false, true, 4, 1016, 0xa6a20b893c1c816bULL});
}

}  // namespace
}  // namespace pp
