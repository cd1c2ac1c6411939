// Tests for the sharded experiment service (src/service/): the chunk
// model and its on-disk cache, the run_trial_ranges kernel, and the
// coordinator that computes cache misses on a thread pool — including the
// load-bearing claims:
//
//  * a cold sharded run is BIT-identical to run_trials() at 1, 2, 4 and 8
//    threads (records, stats, counters, and the sink rows rendered from
//    them);
//  * a repeated sweep is 100% cache hits;
//  * a partially warm cache (deleted and corrupted chunk files) recomputes
//    exactly the missing and stale chunks and still merges to the same
//    bits;
//  * non-replayable specs fall back in-process, reported.
#include "service/coordinator.hpp"

#include <gtest/gtest.h>

#include <dirent.h>
#include <stdlib.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/file_io.hpp"
#include "protocols/factory.hpp"
#include "runner/runner.hpp"
#include "runner/sink.hpp"
#include "service/chunk.hpp"

namespace pp {
namespace {

// ---- helpers -------------------------------------------------------------

std::string fresh_dir(const std::string& tag) {
  std::string templ = ::testing::TempDir() + "poprank_" + tag + "_XXXXXX";
  std::vector<char> buf(templ.begin(), templ.end());
  buf.push_back('\0');
  const char* made = mkdtemp(buf.data());
  EXPECT_NE(made, nullptr);
  return std::string(buf.data());
}

std::vector<std::string> list_dir(const std::string& path) {
  std::vector<std::string> names;
  DIR* d = opendir(path.c_str());
  if (d == nullptr) return names;
  while (dirent* e = readdir(d)) {
    const std::string name = e->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

TrialSpec small_spec(const std::string& label) {
  TrialSpec spec;
  spec.label = label;
  spec.protocol = "ag";
  spec.n = 16;
  return spec;  // default engine, default (replayable) init
}

/// A scheduled spec: all chunks' trials share one scheduler across the
/// pool threads.
TrialSpec scheduled_spec(const std::string& label) {
  TrialSpec spec = small_spec(label);
  spec.n = 24;
  spec.engine = EngineKind::kScheduled;
  spec.scheduler.kind = SchedulerKind::kDynamicGraph;
  spec.scheduler.graph = GraphKind::kCycle;
  spec.scheduler.dynamics = GraphDynamics::kEdgeMarkovian;
  spec.max_interactions = 50000;
  return spec;
}

RunnerOptions small_options(u64 trials, u64 seed = 12345) {
  RunnerOptions opt;
  opt.trials = trials;
  opt.master_seed = seed;
  opt.threads = 2;
  return opt;
}

service::ServiceOptions cache_options(const std::string& tag,
                                      u64 chunk_trials) {
  service::ServiceOptions sopt;
  sopt.cache_dir = fresh_dir(tag);
  sopt.chunk_trials = chunk_trials;
  return sopt;
}

void expect_records_identical(const std::vector<TrialRecord>& a,
                              const std::vector<TrialRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (u64 i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].trial, b[i].trial) << i;
    EXPECT_EQ(a[i].seed, b[i].seed) << i;
    EXPECT_EQ(a[i].interactions, b[i].interactions) << i;
    EXPECT_EQ(a[i].productive_steps, b[i].productive_steps) << i;
    EXPECT_EQ(a[i].fault_events, b[i].fault_events) << i;
    EXPECT_EQ(std::bit_cast<u64>(a[i].parallel_time),
              std::bit_cast<u64>(b[i].parallel_time))
        << i;
    EXPECT_EQ(a[i].silent, b[i].silent) << i;
    EXPECT_EQ(a[i].valid, b[i].valid) << i;
  }
}

void expect_sets_identical(const TrialSet& a, const TrialSet& b) {
  expect_records_identical(a.records, b.records);
  EXPECT_EQ(a.stats.trials, b.stats.trials);
  EXPECT_EQ(a.stats.timeouts, b.stats.timeouts);
  EXPECT_EQ(a.stats.invalid, b.stats.invalid);
  EXPECT_EQ(a.stats.fault_events, b.stats.fault_events);
  // The stat accumulators fold the same values in the same order, so the
  // derived moments must match to the bit, not to a tolerance.
  EXPECT_EQ(std::bit_cast<u64>(a.stats.parallel_time.mean()),
            std::bit_cast<u64>(b.stats.parallel_time.mean()));
  EXPECT_EQ(std::bit_cast<u64>(a.stats.parallel_time.variance()),
            std::bit_cast<u64>(b.stats.parallel_time.variance()));
  EXPECT_EQ(std::bit_cast<u64>(a.stats.interactions.mean()),
            std::bit_cast<u64>(b.stats.interactions.mean()));
  EXPECT_EQ(std::bit_cast<u64>(a.stats.productive_steps.mean()),
            std::bit_cast<u64>(b.stats.productive_steps.mean()));
  EXPECT_TRUE(obs::CounterBlock::deterministic_equal(a.counters, b.counters));
}

/// Renders the trial rows (CSV + JSONL) of a set: fully deterministic, so
/// the sharded service must reproduce them byte for byte.
std::string render_trial_rows(const TrialSpec& spec, const TrialSet& set) {
  std::ostringstream csv, jsonl;
  CsvSink c(csv);
  c.write_trials(spec, set);
  JsonlSink j(jsonl);
  j.write_trials(spec, set);
  return csv.str() + jsonl.str();
}

/// Renders the aggregate rows after normalize_throughput(): with the
/// wall-clock fields zeroed, the remaining fields are all deterministic.
std::string render_aggregate_rows(const TrialSpec& spec, TrialSet set) {
  service::normalize_throughput(&set);
  std::ostringstream csv, jsonl;
  CsvSink c(csv);
  c.write_aggregate(spec, set);
  JsonlSink j(jsonl);
  j.write_aggregate(spec, set);
  return csv.str() + jsonl.str();
}

// ---- run_trial_ranges ----------------------------------------------------

TEST(TrialRanges, PartitionReproducesRunTrials) {
  const TrialSpec spec = small_spec("svc-range");
  const RunnerOptions opt = small_options(17);
  const TrialSet whole = run_trials(spec, opt);

  // Any partition of [0, trials) — listed out of order, with an empty
  // slice — run as one fan-out and folded back in trial order must match.
  std::vector<TrialRange> ranges(4);
  for (const auto& [i, b, e] : std::vector<std::tuple<u64, u64, u64>>{
           {0, 6, 17}, {1, 0, 5}, {2, 6, 6}, {3, 5, 6}}) {
    ranges[i].begin = b;
    ranges[i].end = e;
  }
  for (const u64 threads : {1u, 3u}) {
    ThreadPool pool(threads);
    std::vector<u64> done(ranges.size(), 0);
    run_trial_ranges(spec, opt.master_seed, ranges, pool,
                     [&](u64 i) { ++done[i]; });
    EXPECT_EQ(done, (std::vector<u64>{1, 1, 1, 1})) << threads;

    std::vector<TrialRecord> stitched;
    obs::CounterBlock counters;
    for (const u64 i : {1u, 3u, 2u, 0u}) {
      EXPECT_EQ(ranges[i].records.size(), ranges[i].end - ranges[i].begin);
      stitched.insert(stitched.end(), ranges[i].records.begin(),
                      ranges[i].records.end());
      counters.merge(ranges[i].counters);
    }
    expect_records_identical(whole.records, stitched);
    EXPECT_TRUE(
        obs::CounterBlock::deterministic_equal(whole.counters, counters));
  }
}

// ---- chunk model & cache -------------------------------------------------

TEST(ChunkCache, PartitionCoversTrialSpace) {
  const auto chunks = service::chunk_ranges(17, 5);
  ASSERT_EQ(chunks.size(), 4u);
  u64 expect_begin = 0;
  for (u64 i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].index, i);
    EXPECT_EQ(chunks[i].begin, expect_begin);
    expect_begin = chunks[i].end;
  }
  EXPECT_EQ(chunks.back().end, 17u);
  // Chunk sizing never depends on thread count (cache-sharing contract).
  EXPECT_GE(service::default_chunk_trials(1), 1u);
  EXPECT_EQ(service::default_chunk_trials(160), 10u);
}

TEST(ChunkCache, HitMissStale) {
  const std::string dir = fresh_dir("chunks");
  const TrialSpec spec = small_spec("svc-cache");
  const service::ChunkSpec chunk{0, 0, 4};
  const std::string material = service::chunk_key_material(spec, 99, chunk);

  // Miss: nothing stored yet.
  EXPECT_EQ(service::load_chunk(dir, material, chunk).status,
            service::CacheProbe::kMiss);

  // Hit: store, load, records round-trip exactly.
  std::vector<TrialRange> ranges(1);
  ranges[0].end = 4;
  ThreadPool pool(1);
  run_trial_ranges(spec, 99, ranges, pool);
  const TrialRange& range = ranges[0];
  ASSERT_NE(service::store_chunk(dir, material, chunk, range), "");
  service::ChunkLoad load = service::load_chunk(dir, material, chunk);
  ASSERT_EQ(load.status, service::CacheProbe::kHit);
  expect_records_identical(range.records, load.range.records);
  EXPECT_TRUE(obs::CounterBlock::deterministic_equal(range.counters,
                                                     load.range.counters));

  // A different spec keys a different file: still a miss, never a
  // false hit.
  TrialSpec other = small_spec("svc-cache");
  other.n = 32;
  const std::string other_material =
      service::chunk_key_material(other, 99, chunk);
  EXPECT_NE(service::chunk_file_name(material),
            service::chunk_file_name(other_material));
  EXPECT_EQ(service::load_chunk(dir, other_material, chunk).status,
            service::CacheProbe::kMiss);

  // Stale: a torn/corrupt file at the keyed path fails verification.
  write_file_atomic(dir + "/" + service::chunk_file_name(material),
                    "poprank-chunk-v1\nkey " + material + "\ntorn");
  EXPECT_EQ(service::load_chunk(dir, material, chunk).status,
            service::CacheProbe::kStale);
}

// ---- sharded runs: bit identity ------------------------------------------

TEST(Service, ColdRunBitIdenticalAt1_2_4_8Threads) {
  for (const TrialSpec& spec :
       {small_spec("svc-cold"), scheduled_spec("svc-cold-dyn")}) {
    RunnerOptions opt = small_options(24);
    opt.threads = 1;
    const TrialSet base = run_trials(spec, opt);
    const std::string base_trials = render_trial_rows(spec, base);
    const std::string base_aggregate = render_aggregate_rows(spec, base);

    for (const u64 threads : {1u, 2u, 4u, 8u}) {
      opt.threads = threads;
      service::ServiceOptions sopt =
          cache_options("svct" + std::to_string(threads), 3);
      service::ServiceReport rep;
      const TrialSet sharded = run_trials_sharded(spec, opt, sopt, &rep);
      expect_sets_identical(base, sharded);
      EXPECT_EQ(rep.chunks, 8u) << threads;
      EXPECT_EQ(rep.cache_misses, 8u) << threads;
      EXPECT_EQ(rep.cache_hits, 0u) << threads;
      EXPECT_EQ(rep.inprocess_chunks, 8u) << threads;
      EXPECT_FALSE(rep.fallback_in_process);
      // The reported thread count is the pool's, as for run_trials().
      EXPECT_EQ(sharded.threads, threads);

      // Sink rows: trial rows byte-identical as-is; aggregate rows
      // byte-identical once the documented wall-clock fields are
      // normalized out.
      EXPECT_EQ(base_trials, render_trial_rows(spec, sharded)) << threads;
      EXPECT_EQ(base_aggregate, render_aggregate_rows(spec, sharded))
          << threads;
    }
  }
}

TEST(Service, WarmRerunIsAllHits) {
  const TrialSpec spec = small_spec("svc-rerun");
  RunnerOptions opt = small_options(20);
  opt.threads = 4;
  const service::ServiceOptions sopt = cache_options("svcrerun", 5);

  service::ServiceReport rep;
  const TrialSet first = run_trials_sharded(spec, opt, sopt, &rep);
  EXPECT_EQ(rep.cache_misses, 4u);

  // Pure cache, zero computation, same bits — at any thread count.
  opt.threads = 1;
  const TrialSet second = run_trials_sharded(spec, opt, sopt, &rep);
  expect_sets_identical(first, second);
  EXPECT_EQ(rep.chunks, 4u);
  EXPECT_EQ(rep.cache_hits, 4u);
  EXPECT_EQ(rep.cache_misses, 0u);
  EXPECT_EQ(rep.cache_stale, 0u);
  EXPECT_EQ(rep.inprocess_chunks, 0u);

  // A different master seed keys different chunks: misses again.
  const RunnerOptions reseeded = small_options(20, 777);
  run_trials_sharded(spec, reseeded, sopt, &rep);
  EXPECT_EQ(rep.cache_misses, 4u);
}

TEST(Service, PartiallyWarmCacheRecomputesExactlyTheGaps) {
  const TrialSpec spec = small_spec("svc-partial");
  RunnerOptions opt = small_options(32);
  const TrialSet base = run_trials(spec, opt);
  const service::ServiceOptions sopt = cache_options("svcpartial", 4);

  service::ServiceReport rep;
  run_trials_sharded(spec, opt, sopt, &rep);
  ASSERT_EQ(rep.chunks, 8u);

  // Delete three chunk files and corrupt a fourth (a torn write).
  const std::string chunks_dir = sopt.cache_dir + "/chunks";
  const std::vector<std::string> files = list_dir(chunks_dir);
  ASSERT_EQ(files.size(), 8u);
  for (const u64 i : {1u, 4u, 6u}) {
    ASSERT_EQ(std::remove((chunks_dir + "/" + files[i]).c_str()), 0);
  }
  write_file_atomic(chunks_dir + "/" + files[2], "poprank-chunk-v1\ntorn");

  opt.threads = 4;
  const TrialSet patched = run_trials_sharded(spec, opt, sopt, &rep);
  expect_sets_identical(base, patched);
  EXPECT_EQ(rep.cache_hits, 4u);
  EXPECT_EQ(rep.cache_misses, 3u);
  EXPECT_EQ(rep.cache_stale, 1u);
  EXPECT_EQ(rep.inprocess_chunks, rep.cache_misses + rep.cache_stale);

  // The recomputed chunks went back to the cache: the next run is warm.
  EXPECT_EQ(list_dir(chunks_dir).size(), 8u);
  run_trials_sharded(spec, opt, sopt, &rep);
  EXPECT_EQ(rep.cache_hits, 8u);
}

TEST(Service, NonReplayableSpecFallsBackInProcess) {
  TrialSpec spec;
  spec.label = "svc-fallback";
  spec.factory = [] { return make_protocol("ag", 16); };
  const RunnerOptions opt = small_options(6);
  const TrialSet base = run_trials(spec, opt);

  service::ServiceReport rep;
  const TrialSet fell_back =
      run_trials_sharded(spec, opt, cache_options("svcfb", 0), &rep);
  expect_records_identical(base.records, fell_back.records);
  EXPECT_TRUE(rep.fallback_in_process);
  EXPECT_EQ(rep.chunks, 0u);
}

TEST(Service, RejectsWorkerCount) {
  service::ServiceOptions sopt = cache_options("svcworkers", 0);
  sopt.workers = 2;
  EXPECT_DEATH(
      run_trials_sharded(small_spec("svc-workers"), small_options(4), sopt),
      "workers must be 0");
}

}  // namespace
}  // namespace pp
