// Tests for the observability layer (src/obs/): deterministic counter
// merges, span nesting/closing under early aborts, Chrome trace JSON
// structure, provenance manifests that replay bit-for-bit, the
// generalized fault_events accounting, and the heartbeat/stall watchdog.
//
// Everything that needs the compiled-in hooks is skipped (not silently
// passed) when the suite is built with -DPOPRANK_OBS=OFF; the determinism
// and replay tests run in both configurations — they are exactly the
// claims the OFF build must also honour.
#include "obs/counters.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/initial.hpp"
#include "ds/fenwick.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "protocols/factory.hpp"
#include "runner/runner.hpp"
#include "runner/seed_stream.hpp"
#include "runner/sink.hpp"
#include "rng/seed_sequence.hpp"
#include "schedulers/pair_sampler.hpp"
#include "structures/ring_layout.hpp"

namespace pp {
namespace {

using obs::Counter;
using obs::CounterBlock;
using obs::Sketch;

// A spec that exercises counters from several subsystems: churn faults,
// uniform stepping, and the clean accelerated tail (null skips).
TrialSpec churn_spec(u64 n = 64) {
  TrialSpec spec;
  spec.protocol = "ag";
  spec.n = n;
  spec.label = "test-obs-churn";
  spec.engine = EngineKind::kScheduled;
  spec.scheduler.kind = SchedulerKind::kChurn;
  spec.scheduler.churn_rate = 0.05;
  spec.scheduler.churn_active = 5 * n;
  return spec;
}

TrialSpec partition_spec(u64 n = 64) {
  TrialSpec spec;
  spec.protocol = "ag";
  spec.n = n;
  spec.label = "test-obs-partition";
  spec.engine = EngineKind::kScheduled;
  spec.scheduler.kind = SchedulerKind::kPartition;
  spec.scheduler.partition_blocks = 2;
  spec.scheduler.partition_cycles = 3;
  return spec;
}

bool records_equal(const std::vector<TrialRecord>& a,
                   const std::vector<TrialRecord>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].trial != b[i].trial || a[i].seed != b[i].seed ||
        a[i].interactions != b[i].interactions ||
        a[i].productive_steps != b[i].productive_steps ||
        a[i].fault_events != b[i].fault_events ||
        a[i].parallel_time != b[i].parallel_time ||
        a[i].silent != b[i].silent || a[i].valid != b[i].valid) {
      return false;
    }
  }
  return true;
}

// ---- counter registry ----------------------------------------------------

TEST(ObsCounters, SketchBucketsAreBitWidth) {
  EXPECT_EQ(obs::sketch_bucket(0), 0u);
  EXPECT_EQ(obs::sketch_bucket(1), 1u);
  EXPECT_EQ(obs::sketch_bucket(2), 2u);
  EXPECT_EQ(obs::sketch_bucket(3), 2u);
  EXPECT_EQ(obs::sketch_bucket(4), 3u);
  EXPECT_EQ(obs::sketch_bucket(1024), 11u);
  EXPECT_EQ(obs::sketch_bucket(~static_cast<u64>(0)), 64u);
}

TEST(ObsCounters, NamesAreUniqueSnakeCase) {
  std::set<std::string> names;
  for (u32 c = 0; c < obs::kNumCounters; ++c) {
    const std::string name = obs::counter_name(static_cast<Counter>(c));
    EXPECT_TRUE(names.insert(name).second) << "duplicate " << name;
    for (const char ch : name) {
      EXPECT_TRUE((ch >= 'a' && ch <= 'z') || ch == '_') << name;
    }
  }
  for (u32 s = 0; s < obs::kNumSketches; ++s) {
    const std::string name = obs::sketch_name(static_cast<Sketch>(s));
    EXPECT_TRUE(names.insert(name).second) << "duplicate " << name;
  }
}

TEST(ObsCounters, MergeSumsAndDeterministicEqualIgnoresWall) {
  CounterBlock a, b;
  a.counter[0] = 3;
  a.sketch[0][5] = 2;
  a.wall_us = 100;
  b.counter[0] = 4;
  b.sketch[0][5] = 1;
  b.wall_us = 999;
  a.merge(b);
  EXPECT_EQ(a.counter[0], 7u);
  EXPECT_EQ(a.sketch[0][5], 3u);
  EXPECT_EQ(a.wall_us, 1099u);

  CounterBlock c = a;
  c.wall_us = 0;
  EXPECT_TRUE(CounterBlock::deterministic_equal(a, c));
  c.counter[0] = 8;
  EXPECT_FALSE(CounterBlock::deterministic_equal(a, c));
  EXPECT_FALSE(a.deterministic_empty());
  EXPECT_TRUE(CounterBlock{}.deterministic_empty());
}

TEST(ObsCounters, ToJsonShapeAndNames) {
  CounterBlock b;
  b.counter[static_cast<u32>(Counter::kNullSkips)] = 41;
  b.sketch[static_cast<u32>(Sketch::kNullSkipGap)][3] = 7;
  b.wall_us = 5;
  const std::string json = b.to_json();
  EXPECT_NE(json.find("\"null_skips\":41"), std::string::npos) << json;
  EXPECT_NE(json.find("\"null_skip_gap\":{\"count\":7,\"buckets\":{\"3\":7}}"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find("wall_us"), std::string::npos) << json;
  EXPECT_NE(b.to_json(/*include_wall=*/true).find("\"wall_us\":5"),
            std::string::npos);
}

// The headline determinism claim: merged counters are bit-identical for
// every thread count, because blocks are per-trial and merged in trial
// order.  Holds vacuously (all empty) when POPRANK_OBS=OFF — asserted
// too, since that is the OFF build's half of the contract.
TEST(ObsCounters, MergedCountersAreThreadCountIndependent) {
  RunnerOptions opt;
  opt.trials = 24;
  opt.threads = 1;
  const TrialSet base = run_trials(churn_spec(), opt);
#if PP_OBS
  EXPECT_FALSE(base.counters.deterministic_empty());
  EXPECT_GT(base.counters.get(Counter::kFaultEvents), 0u);
  EXPECT_GT(base.counters.get(Counter::kNullSkips), 0u);
  EXPECT_GT(base.counters.sketch_count(Sketch::kNullSkipGap), 0u);
#else
  EXPECT_TRUE(base.counters.deterministic_empty());
#endif
  for (const u64 threads : {2u, 8u}) {
    opt.threads = threads;
    const TrialSet set = run_trials(churn_spec(), opt);
    EXPECT_TRUE(records_equal(base.records, set.records)) << threads;
    EXPECT_TRUE(CounterBlock::deterministic_equal(base.counters, set.counters))
        << threads << " threads";
  }
}

// Counters must never perturb a trajectory: records with counters armed
// equal records from the plain single-trial path (no block installed).
TEST(ObsCounters, CountersDoNotPerturbTrajectories) {
  RunnerOptions opt;
  opt.trials = 8;
  opt.threads = 2;
  const TrialSpec spec = churn_spec();
  const TrialSet set = run_trials(spec, opt);
  const SeedStream seeds(opt.master_seed, spec.label);
  for (u64 t = 0; t < opt.trials; ++t) {
    const TrialRecord solo = run_one_trial(spec, t, seeds.trial_seed(t));
    EXPECT_EQ(solo.interactions, set.records[t].interactions) << t;
    EXPECT_EQ(solo.productive_steps, set.records[t].productive_steps) << t;
    EXPECT_EQ(solo.fault_events, set.records[t].fault_events) << t;
  }
}

// ---- Fenwick work budget ---------------------------------------------------
//
// Hard, machine-independent gates on the event loop's tree work: reset()
// builds its trees in O(n) without point updates, and a rank rule costs
// one point update per rank state whose productive weight c(c-1) changes
// net — at most 2 for ag's (s,s) -> (s,s+1), at most 3 for ring-of-traps.

#if PP_OBS
// Point updates a step from `before` to `after` needs on a protocol
// without extra states (the count tree is never built on that path).
u64 changed_rank_weights(const std::vector<Count>& before,
                         const std::vector<Count>& after) {
  u64 changed = 0;
  for (size_t s = 0; s < before.size(); ++s) {
    const u64 b = before[s];
    const u64 a = after[s];
    if (b * (b - (b > 0 ? 1 : 0)) != a * (a - (a > 0 ? 1 : 0))) ++changed;
  }
  return changed;
}
#endif

TEST(ObsWork, ResetMakesNoFenwickUpdates) {
#if !PP_OBS
  GTEST_SKIP() << "observability compiled out";
#else
  for (const auto name : protocol_names()) {
    ProtocolPtr p = make_protocol(name, preferred_population(name, 1000));
    ProtocolPtr sibling = p->sibling();
    Rng rng(derive_seed(81, name));
    const Configuration c = initial::uniform_random(*p, rng);
    CounterBlock block;
    {
      obs::ScopedCounters scope(&block);
      p->reset(c);
      p->reset(c);
      sibling->reset(c);
    }
    EXPECT_EQ(block.get(Counter::kFenwickUpdates), 0u) << name;
  }
#endif
}

TEST(ObsWork, RankRuleCostsOneUpdatePerChangedWeight) {
#if !PP_OBS
  GTEST_SKIP() << "observability compiled out";
#else
  for (const std::string name : {"ag", "ring-of-traps"}) {
    const u64 max_updates = name == "ag" ? 2 : 3;
    ProtocolPtr p = make_protocol(name, preferred_population(name, 500));
    Rng rng(derive_seed(82, name));
    p->reset(initial::uniform_random(*p, rng));
    for (int step = 0; step < 2000 && !p->is_silent(); ++step) {
      const std::vector<Count> before = p->counts();
      CounterBlock block;
      {
        obs::ScopedCounters scope(&block);
        p->step_productive(rng);
      }
      const u64 updates = block.get(Counter::kFenwickUpdates);
      ASSERT_EQ(updates, changed_rank_weights(before, p->counts()))
          << name << " step " << step;
      ASSERT_LE(updates, max_updates) << name << " step " << step;
    }
  }
#endif
}

TEST(ObsWork, AcceleratedRunStaysWithinUpdateBudget) {
#if !PP_OBS
  GTEST_SKIP() << "observability compiled out";
#else
  const auto run = [](ProtocolPtr& p, Rng& rng) {
    CounterBlock block;
    RunResult r;
    {
      obs::ScopedCounters scope(&block);
      r = run_accelerated(*p, rng);
    }
    EXPECT_TRUE(r.silent) << p->name();
    EXPECT_GT(r.productive_steps, 0u) << p->name();
    // Every update writes one entry per level of the weight tree.
    const u64 updates = block.get(Counter::kFenwickUpdates);
    const u32 levels = Fenwick(p->num_ranks()).levels();
    EXPECT_EQ(block.sketch_count(Sketch::kFenwickDepth), updates);
    EXPECT_EQ(block.get(Sketch::kFenwickDepth)[obs::sketch_bucket(levels)],
              updates)
        << p->name();
    return std::pair{updates, r.productive_steps};
  };
  for (const std::string name : {"ag", "ring-of-traps"}) {
    ProtocolPtr p = make_protocol(name, preferred_population(name, 2000));
    Rng rng(derive_seed(83, name));
    p->reset(initial::k_distant(*p, 1, rng));
    const auto [updates, steps] = run(p, rng);
    if (name == "ag") {
      // The duplicate walks the ring: every event empties one weight and
      // fills the next, except the last, which lands in the hole and
      // leaves that weight at 0.
      EXPECT_EQ(updates, 2 * steps - 1);
    } else {
      EXPECT_LE(updates, 3 * steps);
    }
    // Random starts pile up to c > 2 agents per state, where the net
    // deltas matter: (s,s) -> (s,t) still touches only s and t.
    p->reset(initial::uniform_random(*p, rng));
    const auto [random_updates, random_steps] = run(p, rng);
    EXPECT_LE(random_updates, (name == "ag" ? 2 : 3) * random_steps) << name;
  }
#endif
}

TEST(ObsWork, TrapSamplerPassesOnlyOnCrossTrapEvents) {
#if !PP_OBS
  GTEST_SKIP() << "observability compiled out";
#else
  // Ring-of-traps under the trap-decay kernel: an inner-rule event keeps
  // the moving agent in its trap and must not touch the trap rows; a
  // gate-rule event ejects it to the next trap and costs one fused pass.
  ProtocolPtr p = make_protocol("ring-of-traps",
                                preferred_population("ring-of-traps", 500));
  Rng rng(derive_seed(84, "ring-of-traps"));
  p->reset(initial::uniform_random(*p, rng));
  TrapKernelSampler ts(*p, /*power=*/1);
  const RingLayout layout(p->num_states());
  u64 inner = 0, gate = 0;
  for (int step = 0; step < 4000 && ts.productive_total() > 0; ++step) {
    const std::vector<Count> before = p->counts();
    CounterBlock block;
    {
      obs::ScopedCounters scope(&block);
      ts.fire(*p, rng);
    }
    std::vector<i64> trap_delta(layout.num_traps(), 0);
    for (StateId s = 0; s < p->num_states(); ++s) {
      trap_delta[layout.trap_of(s)] +=
          static_cast<i64>(p->counts()[s]) - static_cast<i64>(before[s]);
    }
    const bool crossed = std::any_of(trap_delta.begin(), trap_delta.end(),
                                     [](i64 d) { return d != 0; });
    ASSERT_EQ(block.get(Counter::kTrapRowPasses), crossed ? 1u : 0u)
        << "step " << step;
    ++(crossed ? gate : inner);
  }
  EXPECT_GT(inner, 0u);
  EXPECT_GT(gate, 0u);
#endif
}

TEST(ObsWork, FenwickDepthIsTheLevelCount) {
#if !PP_OBS
  GTEST_SKIP() << "observability compiled out";
#else
  // One entry per level: the leaf plus each 8-ary sum level above it.
  const std::pair<u64, u32> expect[] = {
      {1, 1}, {8, 1}, {9, 2}, {4096, 4}, {4097, 5}, {1000000, 7},
  };
  for (const auto& [size, levels] : expect) {
    Fenwick f(size);
    ASSERT_EQ(f.levels(), levels) << size;
    CounterBlock block;
    {
      obs::ScopedCounters scope(&block);
      f.add(0, 3);
      f.add(size - 1, 2);
      f.set(size / 2, 7);
      f.add(0, -3);
      f.set(size / 2, f.get(size / 2));  // no change, no update
    }
    const u64 updates = block.get(Counter::kFenwickUpdates);
    EXPECT_EQ(updates, 4u) << size;
    EXPECT_EQ(block.sketch_count(Sketch::kFenwickDepth), updates) << size;
    EXPECT_EQ(block.get(Sketch::kFenwickDepth)[obs::sketch_bucket(levels)],
              updates)
        << size;
  }
#endif
}

// ---- generalized fault_events (partition split/heal) ---------------------

TEST(ObsFaults, PartitionCountsSplitHealTransitions) {
  RunnerOptions opt;
  opt.trials = 6;
  const TrialSet set = run_trials(partition_spec(), opt);
  // Every trial injects at least the first split; a full run injects
  // 2 * cycles transitions.
  EXPECT_GE(set.stats.fault_events, opt.trials);
  EXPECT_LE(set.stats.fault_events,
            2 * partition_spec().scheduler.partition_cycles * opt.trials);
  for (const TrialRecord& r : set.records) EXPECT_GE(r.fault_events, 1u);
}

TEST(ObsFaults, AggregateFaultEventsFoldsAndReachesSinks) {
  RunnerOptions opt;
  opt.trials = 4;
  const TrialSet set = run_trials(partition_spec(), opt);
  u64 sum = 0;
  for (const TrialRecord& r : set.records) sum += r.fault_events;
  EXPECT_EQ(set.stats.fault_events, sum);

  std::ostringstream json;
  JsonlSink(json).write_aggregate(partition_spec(), set);
  EXPECT_NE(json.str().find("\"fault_events\":" + std::to_string(sum)),
            std::string::npos)
      << json.str();
  std::ostringstream csv;
  CsvSink(csv).write_aggregate(partition_spec(), set);
  EXPECT_NE(csv.str().find(",fault_events,"), std::string::npos);
}

// ---- span tracing --------------------------------------------------------

#if PP_OBS

TEST(ObsTrace, SpansNestAndCloseUnderEarlyAbort) {
  obs::TraceSession session;
  {
    obs::ScopedTraceSession install(&session);
    // Runner path with the budget cut almost immediately.
    TrialSpec aborting = churn_spec(32);
    aborting.max_interactions = 16;
    RunnerOptions opt;
    opt.trials = 3;
    opt.threads = 2;
    (void)run_trials(aborting, opt);
    // Engine path under an observer abort, inside a live span.
    {
      obs::ScopedSpan span("observer-abort");
      ProtocolPtr p = make_protocol("ag", 32);
      Rng rng(3);
      p->reset(initial::uniform_random(*p, rng));
      RunOptions ro;
      ro.on_change = [](const Protocol&, u64) { return false; };
      const RunResult r = run_accelerated(*p, rng, ro);
      EXPECT_TRUE(r.aborted);
    }
  }
  // Every span closed: no thread has a live frame left.
  for (const obs::SpanStackSnapshot& s : obs::live_span_stacks()) {
    EXPECT_TRUE(s.frames.empty()) << "thread " << s.tid << " leaked a span";
  }
  u64 setup = 0, run = 0, abort_span = 0;
  // Per trial: its trial-setup span and the init / reset spans inside it.
  std::map<std::string, std::map<std::string, std::vector<obs::TraceEvent>>>
      by_trial;
  for (const obs::TraceEvent& e : session.events()) {
    if (e.name == "trial-setup") ++setup;
    if (e.name == "scheduler-run") ++run;
    if (e.name == "observer-abort") ++abort_span;
    if (e.name == "trial-setup" || e.name == "protocol-init" ||
        e.name == "protocol-reset") {
      by_trial[e.args][e.name].push_back(e);
    }
    EXPECT_EQ(e.phase, 'X');
  }
  EXPECT_EQ(setup, 3u);
  EXPECT_EQ(run, 3u);
  EXPECT_EQ(abort_span, 1u);
  ASSERT_EQ(by_trial.size(), 3u);
  for (const auto& [trial, spans] : by_trial) {
    ASSERT_EQ(spans.size(), 3u) << trial;
    for (const auto& [name, events] : spans) {
      ASSERT_EQ(events.size(), 1u) << trial << " " << name;
    }
    const obs::TraceEvent& outer = spans.at("trial-setup")[0];
    for (const char* inner_name : {"protocol-init", "protocol-reset"}) {
      const obs::TraceEvent& inner = spans.at(inner_name)[0];
      EXPECT_EQ(inner.tid, outer.tid) << trial << " " << inner_name;
      EXPECT_GE(inner.ts_us, outer.ts_us) << trial << " " << inner_name;
      EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us)
          << trial << " " << inner_name;
    }
  }
}

TEST(ObsTrace, StepTraceRecordsInstantEventsForFlaggedTrialOnly) {
  obs::TraceSession session;
  {
    obs::ScopedTraceSession install(&session);
    obs::set_step_trace(true);
    obs::trace_step(123);
    obs::set_step_trace(false);
    obs::trace_step(456);  // not recorded: flag off
  }
  const auto events = session.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "productive-step");
  EXPECT_EQ(events[0].phase, 'i');
  EXPECT_NE(events[0].args.find("\"interactions\":123"), std::string::npos);
}

// Minimal structural JSON check: balanced braces/brackets outside strings,
// and the document carries the Chrome trace_event framing.
void expect_wellformed_trace_json(const std::string& json) {
  i64 depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json.substr(0, 40);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

TEST(ObsTrace, TraceJsonRoundTripsThroughMinimalParser) {
  obs::TraceSession session;
  {
    obs::ScopedTraceSession install(&session);
    obs::ScopedSpan outer("outer", "\"k\":1");
    {
      obs::ScopedSpan inner("inner");
    }
    obs::trace_instant("mark", "\"weird\":\"quote \\\" and \\\\ slash\"");
  }
  const std::string json = session.to_json();
  expect_wellformed_trace_json(json);
  // Complete events carry durations; instants carry thread scope.
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\":0"), std::string::npos);
}

TEST(ObsTrace, SessionCapDropsInsteadOfGrowing) {
  obs::TraceSession session(/*max_events=*/4);
  for (int i = 0; i < 10; ++i) {
    obs::TraceEvent e;
    e.name = "e";
    session.record(std::move(e));
  }
  EXPECT_EQ(session.events().size(), 4u);
  EXPECT_EQ(session.dropped(), 6u);
  EXPECT_NE(session.to_json().find("\"dropped_events\":6"), std::string::npos);
}

#endif  // PP_OBS

// ---- provenance ----------------------------------------------------------

// The specs the benches build beyond the roster: edge-Markovian cycles
// with edge_death = 2/n at every size the scale sections reach (%g gave
// the two line-of-traps sizes rounded names), and the s2 churn grid.
std::vector<SchedulerSpec> bench_built_specs() {
  std::vector<SchedulerSpec> out;
  for (const u64 n : {10000, 100000, 13824, 123480}) {
    SchedulerSpec s;
    s.kind = SchedulerKind::kDynamicGraph;
    s.graph = GraphKind::kCycle;
    s.edge_death = 2.0 / static_cast<double>(n);
    out.push_back(s);
  }
  for (const double rate : {0.005, 0.02, 0.08}) {
    for (const u64 burst : {1, 4, 16}) {
      SchedulerSpec s;
      s.kind = SchedulerKind::kChurn;
      s.churn_rate = rate;
      s.churn_faults = burst;
      out.push_back(s);
    }
  }
  return out;
}

std::vector<SchedulerSpec> roster_and_bench_specs() {
  std::vector<SchedulerSpec> specs = all_scheduler_specs();
  for (const SchedulerSpec& s : bench_built_specs()) specs.push_back(s);
  return specs;
}

TrialSpec kv_spec(const SchedulerSpec& sched, EngineKind engine,
                  std::string label = "test-obs-roundtrip") {
  TrialSpec spec;
  spec.protocol = "ag";
  spec.n = 48;
  spec.label = std::move(label);
  spec.engine = engine;
  spec.scheduler = sched;
  return spec;
}

TEST(ObsProvenance, SpecKvRoundTripsForEveryRegisteredScheduler) {
  // The second label holds every byte the kv grammar escapes.
  for (const std::string label : {"test-obs-roundtrip", "a;b=c%d"}) {
    for (const EngineKind engine : {EngineKind::kAccelerated,
                                    EngineKind::kUniform,
                                    EngineKind::kScheduled}) {
      for (const SchedulerSpec& sched : roster_and_bench_specs()) {
        const TrialSpec spec = kv_spec(sched, engine, label);
        const std::string kv = obs::spec_to_kv(spec);
        EXPECT_TRUE(obs::spec_is_replayable(spec)) << kv;
        const std::optional<TrialSpec> back = obs::spec_from_kv(kv);
        ASSERT_TRUE(back.has_value()) << kv;
        EXPECT_EQ(back->label, label) << kv;
        EXPECT_EQ(back->engine, engine) << kv;
        EXPECT_EQ(back->scheduler, sched) << kv;
        EXPECT_EQ(obs::spec_to_kv(*back), kv);
        EXPECT_EQ(obs::spec_hash(*back), obs::spec_hash(spec));
      }
    }
  }
  // Labels without escaped bytes keep their plain text; a '%' that starts
  // no escape code is rejected.
  const std::string plain =
      obs::spec_to_kv(kv_spec(SchedulerSpec{}, EngineKind::kAccelerated));
  EXPECT_NE(plain.find(";label=test-obs-roundtrip;"), std::string::npos);
  EXPECT_NE(obs::spec_to_kv(kv_spec(SchedulerSpec{}, EngineKind::kAccelerated,
                                    "a;b=c%d"))
                .find(";label=a%3Bb%3Dc%25d;"),
            std::string::npos);
  for (const char* bad : {"%", "%2", "%3b", "%41", "x%"}) {
    std::string kv = plain;
    kv.replace(kv.find("test-obs-roundtrip"), 18, bad);
    EXPECT_FALSE(obs::spec_from_kv(kv).has_value()) << kv;
  }
}

TEST(SchedulerNames, ParseInvertsToString) {
  for (const SchedulerSpec& s : roster_and_bench_specs()) {
    const std::optional<SchedulerSpec> back =
        parse_scheduler_spec(s.to_string());
    ASSERT_TRUE(back.has_value()) << s.to_string();
    EXPECT_EQ(*back, s) << s.to_string();
  }
  // Every knob's spelling, one name each.
  for (const char* name :
       {"dynamic[random-4-regular/g7/markov/b0.5/d0.25/dense-ref]",
        "dynamic[path/rewire/T64]", "graph-restricted[routing]",
        "graph-restricted[random-3-regular/g2]",
        "churn[0.05x4/state-zero/a320/dense-ref]",
        "partition[4-blocks/s10/h20/c5]", "weighted[trap-decay^3/dense-ref]"}) {
    const std::optional<SchedulerSpec> s = parse_scheduler_spec(name);
    ASSERT_TRUE(s.has_value()) << name;
    EXPECT_EQ(s->to_string(), name);
  }
}

TEST(SchedulerNames, DoublesPrintExactlyAndKeepShortNames) {
  const std::vector<SchedulerSpec> bench = bench_built_specs();
  EXPECT_EQ(bench[0].to_string(), "dynamic[cycle/markov/d0.0002]");
  EXPECT_EQ(bench[1].to_string(), "dynamic[cycle/markov/d2e-05]");
  EXPECT_EQ(bench[2].to_string(),
            "dynamic[cycle/markov/d0.00014467592592592592]");
  EXPECT_EQ(bench[3].to_string(),
            "dynamic[cycle/markov/d1.6196954972465176e-05]");
  EXPECT_EQ(bench[4].to_string(), "churn[0.005/uniform-state]");
  // Six significant digits used to give these two one name.
  SchedulerSpec a = bench[0];
  a.edge_death = 1e-4;
  SchedulerSpec b = a;
  b.edge_death = 1.000001e-4;
  EXPECT_EQ(a.to_string(), "dynamic[cycle/markov/d0.0001]");
  EXPECT_NE(a.to_string(), b.to_string());
  EXPECT_EQ(parse_scheduler_spec(b.to_string()), b);
}

TEST(SchedulerNames, NonCanonicalSpellingsAreRejected) {
  for (const char* name :
       {"", "Uniform", " uniform", "uniform ", "uniform[]", "weighted",
        "weighted[]", "weighted[ring-decay", "weighted[ring-decay^1]",
        "weighted[ring-decay^02]", "weighted[ring-decay^]",
        "dynamic[cycle/markov/d0.01]", "dynamic[cycle/markov/d1e-4]",
        "dynamic[cycle/markov/d+0.5]", "dynamic[cycle/markov/dnan]",
        "dynamic[cycle/markov/dinf]", "dynamic[cycle/markov/d1e999]",
        "dynamic[cycle/rewire/dense-ref]", "dynamic[cycle]",
        "dynamic[random-regular/markov]", "dynamic[cycle/g2/markov]",
        "graph-restricted[random-04-regular]",
        "graph-restricted[cycle/dense-ref]", "churn[0.020/uniform-state]",
        "churn[0.02x1/uniform-state]", "churn[0.02]",
        "churn[0.02/uniform-state/dense-ref/a5]",
        "churn[0.02/uniform-state/a]", "partition[2-blocks/c3]",
        "partition[-2-blocks]", "partition[2-blocks/s18446744073709551616]",
        "adversarial[max-load/dense-ref]"}) {
    EXPECT_FALSE(parse_scheduler_spec(name).has_value()) << name;
  }
}

// Byte flips, truncations and splices of roster names and kv strings:
// each parser rejects the input or reads back exactly what it was given,
// and neither aborts (the ASan+UBSan leg runs this too).
TEST(SchedulerNames, MutatedNamesAndKvStringsAreRejectedOrRoundTrip) {
  std::vector<std::string> names, kvs;
  for (const SchedulerSpec& s : roster_and_bench_specs()) {
    names.push_back(s.to_string());
    kvs.push_back(obs::spec_to_kv(kv_spec(s, EngineKind::kScheduled)));
  }
  const std::string alphabet = "[]/^x=;%-.+0123456789abcdeghinsT \x01\xff";
  Rng rng(2025);
  const auto mutate = [&](const std::vector<std::string>& pool) {
    std::string m = pool[rng.below(pool.size())];
    for (u64 edits = 1 + rng.below(3); edits > 0; --edits) {
      const u64 at = m.empty() ? 0 : rng.below(m.size() + 1);
      switch (rng.below(4)) {
        case 0:  // flip one byte to a grammar character
          if (at < m.size()) m[at] = alphabet[rng.below(alphabet.size())];
          break;
        case 1:  // truncate
          m.resize(at);
          break;
        case 2: {  // splice in the tail of another entry
          const std::string& o = pool[rng.below(pool.size())];
          m = m.substr(0, at) + o.substr(rng.below(o.size() + 1));
          break;
        }
        default:  // delete one byte
          if (at < m.size()) m.erase(at, 1);
      }
    }
    return m;
  };
  u64 accepted = 0, rejected = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string name = mutate(names);
    if (const auto s = parse_scheduler_spec(name)) {
      ++accepted;
      EXPECT_EQ(s->to_string(), name);
      EXPECT_EQ(parse_scheduler_spec(name), s);
    } else {
      ++rejected;
    }
    const std::string kv = mutate(kvs);
    if (const auto spec = obs::spec_from_kv(kv)) {
      ++accepted;
      EXPECT_EQ(obs::spec_to_kv(*spec), kv);
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, accepted);
}

TEST(ObsProvenance, CustomFactoriesAndInitsAreHonestlyNonReplayable) {
  TrialSpec spec;
  spec.protocol = "ag";
  spec.n = 16;
  spec.factory = [] { return make_protocol("ag", 16); };
  EXPECT_FALSE(obs::spec_is_replayable(spec));
  TrialSpec spec2;
  spec2.protocol = "ag";
  spec2.n = 16;
  spec2.init = [](const Protocol& p, Rng& rng) {
    return initial::uniform_random(p, rng);
  };
  EXPECT_FALSE(obs::spec_is_replayable(spec2));
  // The *named* uniform-random generator is recognised.
  spec2.init = gen_uniform_random();
  EXPECT_TRUE(obs::spec_is_replayable(spec2));
}

TEST(ObsProvenance, ManifestFieldExtraction) {
  const std::string line =
      "{\"kind\":\"point\",\"label\":\"a b\",\"n\":64,\"replayable\":true,"
      "\"spec\":\"protocol=ag;n=64;\"}";
  EXPECT_EQ(obs::manifest_field(line, "kind"), "point");
  EXPECT_EQ(obs::manifest_field(line, "label"), "a b");
  EXPECT_EQ(obs::manifest_field(line, "n"), "64");
  EXPECT_EQ(obs::manifest_field(line, "replayable"), "true");
  EXPECT_EQ(obs::manifest_field(line, "spec"), "protocol=ag;n=64;");
  EXPECT_EQ(obs::manifest_field(line, "absent"), "");
}

TEST(ObsProvenance, Fnv1a64MatchesReferenceVectors) {
  // Standard FNV-1a test vectors (so the python checker can cross-check).
  EXPECT_EQ(obs::fnv1a64(""), 14695981039346656037ull);
  EXPECT_EQ(obs::fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(obs::fnv1a64("foobar"), 0x85944171f73967e8ull);
}

// The headline provenance claim: a sink's manifest sidecar alone is
// enough to reproduce the artifact's records bit for bit.
TEST(ObsProvenance, ManifestReplaysRunBitForBit) {
  const std::string path = ::testing::TempDir() + "obs_replay.jsonl";
  TrialSpec spec = churn_spec(48);
  spec.init = gen_uniform_random();
  RunnerOptions opt;
  opt.trials = 5;
  opt.master_seed = 0xfeedbeef;
  const TrialSet set = run_trials(spec, opt);
  {
    JsonlSink sink(path);
    sink.write_trials(spec, set);
  }

  // Read the sidecar back; find the point line.
  std::ifstream manifest(path + ".manifest.json");
  ASSERT_TRUE(manifest.good());
  std::string line, point_line, header_line;
  while (std::getline(manifest, line)) {
    if (obs::manifest_field(line, "kind") == "manifest") header_line = line;
    if (obs::manifest_field(line, "kind") == "point") point_line = line;
  }
  ASSERT_FALSE(header_line.empty());
  ASSERT_FALSE(point_line.empty());
  EXPECT_EQ(obs::manifest_field(point_line, "spec_hash"),
            obs::spec_hash(spec));

  // Replay purely from the manifest record.
  const obs::ReplayPoint rp = obs::parse_manifest_point(point_line);
  EXPECT_EQ(rp.master_seed, opt.master_seed);
  EXPECT_EQ(rp.trials, opt.trials);
  RunnerOptions replay_opt;
  replay_opt.trials = rp.trials;
  replay_opt.master_seed = rp.master_seed;
  replay_opt.threads = 2;  // determinism claim: thread count is free
  const TrialSet replay = run_trials(rp.spec, replay_opt);
  EXPECT_TRUE(records_equal(set.records, replay.records));
  EXPECT_TRUE(
      CounterBlock::deterministic_equal(set.counters, replay.counters));
}

TEST(ObsProvenance, ManifestRecordsLabelsWithGrammarBytes) {
  // '=' in a label used to abort the sink's manifest write.
  const std::string path = ::testing::TempDir() + "obs_label_escape.jsonl";
  TrialSpec spec;
  spec.protocol = "ag";
  spec.n = 16;
  spec.label = "rate=0.5";
  RunnerOptions opt;
  opt.trials = 2;
  const TrialSet set = run_trials(spec, opt);
  {
    JsonlSink sink(path);
    sink.write_trials(spec, set);
  }
  std::ifstream manifest(path + ".manifest.json");
  ASSERT_TRUE(manifest.good());
  std::string line, point_line;
  while (std::getline(manifest, line)) {
    if (obs::manifest_field(line, "kind") == "point") point_line = line;
  }
  ASSERT_FALSE(point_line.empty());
  const obs::ReplayPoint rp = obs::parse_manifest_point(point_line);
  EXPECT_EQ(rp.spec.label, "rate=0.5");
  EXPECT_EQ(obs::spec_to_kv(rp.spec), obs::spec_to_kv(spec));
  EXPECT_EQ(obs::manifest_field(point_line, "spec_hash"),
            obs::spec_hash(spec));
}

TEST(ObsProvenance, BuildInfoIsStamped) {
  const obs::BuildInfo b = obs::build_info();
  EXPECT_NE(std::string(b.git_sha), "");
  EXPECT_NE(std::string(b.build_type), "");
  EXPECT_EQ(b.obs_enabled, PP_OBS != 0);
}

// ---- watchdog ------------------------------------------------------------

TEST(ObsWatchdog, DisabledMonitorStartsNoThread) {
  obs::WatchdogOptions opt;  // both deadlines zero
  obs::ProgressMonitor monitor(opt);
  EXPECT_FALSE(monitor.enabled());
  monitor.trial_started(0);
  monitor.trial_finished(0, 10);  // cheap no-ops, must not crash
}

TEST(ObsWatchdog, HeartbeatAndStallDumpFire) {
  obs::WatchdogOptions opt;
  opt.heartbeat_seconds = 0.01;
  opt.stall_seconds = 0.02;
  opt.abort_on_stall = false;  // observe the dump instead of dying
  opt.label = "test-obs-watchdog";
  opt.total_trials = 2;
  obs::ProgressMonitor monitor(opt);
  EXPECT_TRUE(monitor.enabled());
  monitor.trial_started(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  monitor.force_tick();
  EXPECT_GE(monitor.heartbeats(), 1u);
  EXPECT_EQ(monitor.stall_dumps(), 1u);
  // A stalled trial dumps once, not once per scan.
  monitor.force_tick();
  EXPECT_EQ(monitor.stall_dumps(), 1u);
  monitor.trial_finished(0, 100);
  monitor.trial_started(1);
  monitor.force_tick();
  EXPECT_EQ(monitor.stall_dumps(), 1u) << "fresh trial is not stalled";
}

}  // namespace
}  // namespace pp
