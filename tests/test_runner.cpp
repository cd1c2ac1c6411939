// Tests for the parallel Monte-Carlo runner (src/runner/): the thread
// pool, the per-trial seed streams, thread-count-independent determinism
// of both records and aggregates, a pinned trial trajectory, and the
// CSV/JSONL sinks.
#include "runner/runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/stats.hpp"
#include "protocols/factory.hpp"
#include "runner/seed_stream.hpp"
#include "runner/sink.hpp"
#include "runner/thread_pool.hpp"
#include "schedulers/scheduler.hpp"

namespace pp {
namespace {

// ---- ThreadPool ----------------------------------------------------------

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (const u64 threads : {1u, 2u, 3u, 8u}) {
    for (const u64 count : {0u, 1u, 7u, 64u, 1000u}) {
      ThreadPool pool(threads);
      EXPECT_EQ(pool.size(), threads);
      std::vector<std::atomic<u32>> hits(count);
      pool.parallel_for(count, [&](u64 i) {
        ASSERT_LT(i, count);
        hits[i].fetch_add(1);
      });
      for (u64 i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1u) << "index " << i;
      }
    }
  }
}

TEST(ThreadPool, SequentialJobsOnOnePool) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<u64> sum{0};
    pool.parallel_for(100, [&](u64 i) { sum.fetch_add(i + 1); });
    EXPECT_EQ(sum.load(), 5050u);
  }
}

// Regression for a wakeup race: with far more threads than indices, most
// workers wake only after the job is fully drained — possibly after the
// next job was already submitted (with its own stack-local fn).  A late
// waker must never touch a retired job's function object.
TEST(ThreadPool, LateWakingWorkersOnTinyBackToBackJobs) {
  ThreadPool pool(8);
  u64 total = 0;
  for (int round = 0; round < 500; ++round) {
    std::atomic<u64> hits{0};
    pool.parallel_for(1, [&](u64) { hits.fetch_add(1); });
    ASSERT_EQ(hits.load(), 1u) << "round " << round;
    total += hits.load();
  }
  EXPECT_EQ(total, 500u);
}

TEST(ThreadPool, ChunkSizeCoversAllWorkloads) {
  EXPECT_EQ(ThreadPool::chunk_size(0, 8), 1u);
  EXPECT_EQ(ThreadPool::chunk_size(7, 8), 1u);
  EXPECT_GE(ThreadPool::chunk_size(10000, 2), 1u);
  // Chunks are small enough that every thread gets work.
  EXPECT_LE(ThreadPool::chunk_size(1000, 8) * 8, 1000u);
}

// ---- SeedStream ----------------------------------------------------------

TEST(SeedStream, MatchesDeriveSeed) {
  const SeedStream s(kDefaultRootSeed, "exp");
  for (u64 t = 0; t < 10; ++t) {
    EXPECT_EQ(s.trial_seed(t), derive_seed(kDefaultRootSeed, "exp", t));
  }
}

TEST(SeedStream, TrialAndSubSeedsAreDistinct) {
  const SeedStream s(1234, "label");
  std::set<u64> seen;
  for (u64 t = 0; t < 50; ++t) {
    seen.insert(s.trial_seed(t));
    seen.insert(s.sub_seed(t, "config"));
    seen.insert(s.sub_seed(t, "faults"));
  }
  EXPECT_EQ(seen.size(), 150u);
}

// ---- runner determinism --------------------------------------------------

TrialSpec ring_spec(u64 n = 126) {
  TrialSpec spec;
  spec.protocol = "ring-of-traps";
  spec.n = n;
  spec.label = "test-runner";
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

// The tentpole guarantee: same master seed + same spec => bit-identical
// records and aggregates for 1, 2 and 8 threads.
TEST(Runner, AggregatesAreThreadCountIndependent) {
  const TrialSpec spec = ring_spec();
  RunnerOptions opt;
  opt.trials = 24;
  opt.master_seed = 99;

  opt.threads = 1;
  const TrialSet base = run_trials(spec, opt);
  for (const u64 threads : {2u, 8u}) {
    opt.threads = threads;
    const TrialSet set = run_trials(spec, opt);
    EXPECT_TRUE(records_equal(base.records, set.records))
        << threads << " threads";
    // Aggregates are folded in trial order, so they are bit-identical,
    // not merely close.
    EXPECT_EQ(base.stats.trials, set.stats.trials);
    EXPECT_EQ(base.stats.timeouts, set.stats.timeouts);
    EXPECT_EQ(base.stats.invalid, set.stats.invalid);
    EXPECT_EQ(base.stats.parallel_time.mean(), set.stats.parallel_time.mean());
    EXPECT_EQ(base.stats.parallel_time.stddev(),
              set.stats.parallel_time.stddev());
    EXPECT_EQ(base.stats.parallel_time.min(), set.stats.parallel_time.min());
    EXPECT_EQ(base.stats.parallel_time.max(), set.stats.parallel_time.max());
    EXPECT_EQ(base.stats.interactions.mean(), set.stats.interactions.mean());
    EXPECT_EQ(base.stats.productive_steps.mean(),
              set.stats.productive_steps.mean());
  }
}

TEST(Runner, RecordsAreTrialIndexOrdered) {
  RunnerOptions opt;
  opt.trials = 40;
  opt.threads = 8;
  const SeedStream seeds(opt.master_seed, "test-runner");
  const TrialSet set = run_trials(ring_spec(), opt);
  ASSERT_EQ(set.records.size(), 40u);
  for (u64 t = 0; t < 40; ++t) {
    EXPECT_EQ(set.records[t].trial, t);
    EXPECT_EQ(set.records[t].seed, seeds.trial_seed(t));
  }
}

// Pinned trajectory: ring-of-traps n = 126 from uniform-random starts,
// label "compat", master seed 4242, printed with %.17g.  A change to the
// seed derivation, a trial's Rng use or the engine shows here, at every
// thread count.
TEST(Runner, ReproducesPinnedTrajectory) {
  const std::vector<double> pinned = {
      6371.230158730159,  10732.912698412698, 10567.428571428571,
      6957.936507936508,  7371.0079365079364, 9409.0317460317456,
      5772.1190476190477, 8084.6507936507933, 8875.3015873015866,
      5368.8095238095239, 8901.5158730158728, 6796.6428571428569,
  };
  TrialSpec spec = ring_spec();
  spec.label = "compat";
  spec.init = gen_uniform_random();
  RunnerOptions opt;
  opt.trials = 12;
  opt.master_seed = 4242;
  for (const u64 threads : {1u, 4u}) {
    opt.threads = threads;
    const TrialSet set = run_trials(spec, opt);
    EXPECT_EQ(set.parallel_times(), pinned) << threads << " threads";
    EXPECT_EQ(set.stats.timeouts, 0u);
    EXPECT_EQ(set.stats.invalid, 0u);
  }
}

TEST(Runner, TimeoutsAreCountedAndCensored) {
  TrialSpec spec = ring_spec();
  spec.max_interactions = 100;  // far below stabilisation at n=126
  RunnerOptions opt;
  opt.trials = 6;
  opt.threads = 2;
  const TrialSet set = run_trials(spec, opt);
  EXPECT_EQ(set.stats.timeouts, 6u);
  for (const TrialRecord& r : set.records) {
    EXPECT_FALSE(r.silent);
    EXPECT_EQ(r.interactions, 100u);
  }
}

TEST(Runner, UniformAndAdversarialEnginesRun) {
  TrialSpec spec = ring_spec(30);
  RunnerOptions opt;
  opt.trials = 4;
  opt.threads = 2;

  spec.engine = EngineKind::kUniform;
  const TrialSet uni = run_trials(spec, opt);
  EXPECT_EQ(uni.stats.timeouts, 0u);
  EXPECT_EQ(uni.stats.invalid, 0u);

  // Hostile models go through the same scheduler path as everything else
  // (EngineKind::kAdversarial is retired).
  spec.engine = EngineKind::kScheduled;
  spec.scheduler.kind = SchedulerKind::kAdversarial;
  spec.scheduler.adversary = AdversaryPolicy::kMaxLoad;
  const TrialSet adv = run_trials(spec, opt);
  EXPECT_EQ(adv.stats.timeouts, 0u);
  for (const TrialRecord& r : adv.records) {
    EXPECT_TRUE(r.silent && r.valid);
    // The adversary fires only productive pairs.
    EXPECT_EQ(r.interactions, r.productive_steps);
  }
}

TEST(Runner, KeepRecordsFalseStillAggregates) {
  RunnerOptions opt;
  opt.trials = 8;
  opt.threads = 2;
  opt.keep_records = false;
  const TrialSet set = run_trials(ring_spec(), opt);
  EXPECT_TRUE(set.records.empty());
  EXPECT_EQ(set.stats.trials, 8u);
  EXPECT_GT(set.stats.parallel_time.mean(), 0.0);
}

TEST(Runner, ExplicitFactoryOverridesRegistryName) {
  TrialSpec spec;
  spec.factory = [] { return make_protocol("ag", 16); };
  spec.label = "factory";
  RunnerOptions opt;
  opt.trials = 3;
  opt.threads = 1;
  const TrialSet set = run_trials(spec, opt);
  EXPECT_EQ(set.stats.trials, 3u);
  EXPECT_EQ(set.stats.invalid, 0u);
}

TEST(Runner, FactoryRunsOncePerTrialSet) {
  // One prototype per trial set, shared across trials and threads: each
  // trial runs on a sibling, and the scheduled engine sizes its shared
  // scheduler from the same prototype instead of a second build.
  for (const EngineKind engine :
       {EngineKind::kAccelerated, EngineKind::kScheduled}) {
    for (const u64 threads : {1u, 4u}) {
      std::atomic<u64> calls{0};
      TrialSpec spec;
      spec.factory = [&calls] {
        calls.fetch_add(1);
        return make_protocol("ring-of-traps", 30);
      };
      spec.engine = engine;
      spec.label = "factory-calls";
      RunnerOptions opt;
      opt.trials = 16;
      opt.threads = threads;
      const TrialSet set = run_trials(spec, opt);
      EXPECT_EQ(set.stats.trials, 16u);
      EXPECT_EQ(calls.load(), 1u)
          << engine_kind_name(engine) << " threads=" << threads;
      // The siblings reproduce the per-trial replay, which builds its own.
      for (const TrialRecord& r : set.records) {
        const TrialRecord replay = run_one_trial(spec, r.trial, r.seed);
        EXPECT_EQ(replay.interactions, r.interactions) << r.trial;
        EXPECT_EQ(replay.productive_steps, r.productive_steps) << r.trial;
      }
    }
  }
}

// ---- sinks ---------------------------------------------------------------

TEST(Sink, CsvWritesHeaderAndOneRowPerTrial) {
  RunnerOptions opt;
  opt.trials = 5;
  opt.threads = 2;
  const TrialSet set = run_trials(ring_spec(), opt);

  std::ostringstream out;
  CsvSink sink(out);
  sink.write_trials(ring_spec(), set);
  std::istringstream in(out.str());
  std::string line;
  u64 lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    if (lines == 1) {
      EXPECT_EQ(line.substr(0, 6), "label,");
    } else {
      EXPECT_NE(line.find("test-runner,ring-of-traps,126,accelerated,"),
                std::string::npos);
    }
  }
  EXPECT_EQ(lines, 6u);  // header + 5 trials
}

TEST(Sink, DegenerateAggregateStaysFinite) {
  // A single-trial aggregate is the NaN hazard: every n-1 denominator and
  // sqrt(count) division is degenerate.  The stats layer clamps them to 0
  // and the sinks assert finiteness, so the serialized artifact must never
  // contain a non-finite token.
  RunnerOptions opt;
  opt.trials = 1;
  const TrialSet set = run_trials(ring_spec(), opt);
  EXPECT_EQ(set.stats.parallel_time.count(), 1u);
  std::ostringstream csv;
  std::ostringstream jsonl;
  {
    CsvSink sink(csv);
    sink.write_aggregate(ring_spec(), set);
  }
  {
    JsonlSink sink(jsonl);
    sink.write_aggregate(ring_spec(), set);
  }
  for (const std::string& text : {csv.str(), jsonl.str()}) {
    EXPECT_FALSE(text.empty());
    EXPECT_EQ(text.find("nan"), std::string::npos) << text;
    EXPECT_EQ(text.find("inf"), std::string::npos) << text;
  }
}

TEST(Sink, CsvOutputIsThreadCountInvariant) {
  RunnerOptions opt;
  opt.trials = 10;
  std::string texts[2];
  const u64 threads[2] = {1, 8};
  for (int i = 0; i < 2; ++i) {
    opt.threads = threads[i];
    const TrialSet set = run_trials(ring_spec(), opt);
    std::ostringstream out;
    CsvSink sink(out);
    sink.write_trials(ring_spec(), set);
    texts[i] = out.str();
  }
  EXPECT_EQ(texts[0], texts[1]);
}

// Companion pin for lint rule R2 (no iteration over unordered containers
// in src/): the sparse edge-Markovian scheduler is the one model whose
// internal state is hash-indexed (the pair->roster-entry map).  If hash
// iteration order ever leaked into pair selection, trial rows — and the
// aggregates folded from them in trial-index order — would drift with the
// thread count; both must stay bit-identical across 1 and 8 threads.
// (The aggregate JSONL line carries wall_seconds/threads, which are
// documented as outside the determinism contract, so the aggregate is
// pinned on the folded stats rather than on bytes.)
TEST(Sink, JsonlTrialsAreThreadCountInvariantUnderDynamicGraph) {
  TrialSpec spec;
  spec.protocol = "ag";
  spec.n = 64;
  spec.label = "test-runner-dyn";
  spec.engine = EngineKind::kScheduled;
  spec.scheduler.kind = SchedulerKind::kDynamicGraph;
  spec.scheduler.graph = GraphKind::kCycle;
  spec.scheduler.dynamics = GraphDynamics::kEdgeMarkovian;
  spec.max_interactions = 500000;

  RunnerOptions opt;
  opt.trials = 6;
  std::string texts[2];
  AggregateStats stats[2];
  const u64 threads[2] = {1, 8};
  for (int i = 0; i < 2; ++i) {
    opt.threads = threads[i];
    const TrialSet set = run_trials(spec, opt);
    std::ostringstream out;
    JsonlSink sink(out);
    sink.write_trials(spec, set);
    texts[i] = out.str();
    stats[i] = set.stats;
  }
  EXPECT_EQ(texts[0], texts[1]);
  EXPECT_EQ(stats[0].timeouts, stats[1].timeouts);
  EXPECT_EQ(stats[0].fault_events, stats[1].fault_events);
  EXPECT_EQ(stats[0].parallel_time.mean(), stats[1].parallel_time.mean());
  EXPECT_EQ(stats[0].interactions.mean(), stats[1].interactions.mean());
}

TEST(Sink, JsonlEmitsOneObjectPerTrialPlusAggregate) {
  RunnerOptions opt;
  opt.trials = 4;
  opt.threads = 2;
  const TrialSet set = run_trials(ring_spec(), opt);

  std::ostringstream out;
  JsonlSink sink(out);
  sink.write_trials(ring_spec(), set);
  sink.write_aggregate(ring_spec(), set);
  std::istringstream in(out.str());
  std::string line;
  u64 trials = 0, aggregates = 0;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    if (line.find("\"kind\":\"trial\"") != std::string::npos) ++trials;
    if (line.find("\"kind\":\"aggregate\"") != std::string::npos) {
      ++aggregates;
      EXPECT_NE(line.find("\"trials\":4"), std::string::npos);
    }
  }
  EXPECT_EQ(trials, 4u);
  EXPECT_EQ(aggregates, 1u);
}

TEST(Sink, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape(std::string_view("a\x01z", 3)), "a\\u0001z");
}

// ---- RunningStat (the aggregate accumulator) -----------------------------

TEST(RunningStat, MatchesBatchStatistics) {
  const std::vector<double> xs{3.0, 1.5, 4.25, 1.125, 5.5, 9.0, 2.625};
  RunningStat s;
  for (const double x : xs) s.push(x);
  EXPECT_EQ(s.count(), xs.size());
  EXPECT_NEAR(s.mean(), mean_of(xs), 1e-12);
  EXPECT_NEAR(s.stddev(), stddev_of(xs), 1e-12);
  EXPECT_EQ(s.min(), 1.125);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStat, MergeEqualsConcatenation) {
  RunningStat a, b, all;
  for (int i = 0; i < 10; ++i) {
    const double x = static_cast<double>(i * i % 7);
    a.push(x);
    all.push(x);
  }
  for (int i = 10; i < 25; ++i) {
    const double x = static_cast<double>(i * 3 % 11);
    b.push(x);
    all.push(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());

  RunningStat empty;
  empty.merge(a);
  EXPECT_EQ(empty.count(), a.count());
  a.merge(RunningStat());
  EXPECT_EQ(a.count(), all.count());
}

}  // namespace
}  // namespace pp
