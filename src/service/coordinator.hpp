// Coordinator of the sharded experiment service.
//
// run_trials_sharded() is a drop-in sibling of run_trials(): same spec,
// same options, same TrialSet out — but the trial space is partitioned
// into chunks (service/chunk.hpp) that are satisfied from the on-disk
// chunk cache when possible and computed on a thread pool otherwise:
//
//   1. probe <cache-dir>/chunks/ for every chunk (hit / miss / stale);
//   2. run the trials of the missing and stale chunks as one fan-out
//      (run_trial_ranges) on a ThreadPool sized from
//      RunnerOptions::threads (0 = hardware concurrency, as in
//      run_trials), one trial per task; the thread that finishes a
//      chunk's last trial stores it with an atomic rename;
//   3. merge every chunk in chunk-index order.
//
// Because every chunk is a pure function of (spec, master_seed, range)
// and the merge order is fixed, the result is bit-identical to
// run_trials() with the same master seed — for any thread count and any
// cache state (pinned by tests/test_service.cpp).  An interrupted sweep
// resumes from whatever chunks reached the cache.
//
// Specs that cannot round-trip through the provenance serialisation
// (explicit factories, custom generators — see spec_is_replayable())
// have no cache key; those fall back to the plain in-process runner,
// reported via ServiceReport::fallback_in_process.
#pragma once

#include <string>

#include "runner/runner.hpp"

namespace pp::service {

struct ServiceOptions {
  /// Must be 0 (asserted).  Kept only because the benchmark harness sets
  /// it; it goes with the next change to the benchmark.  Cache misses run
  /// on RunnerOptions::threads.
  u64 workers = 0;

  /// Root of the chunk cache ("" disables the service entirely; callers
  /// then use run_trials()).
  std::string cache_dir;

  /// Trials per chunk; 0 = default_chunk_trials(trials).
  u64 chunk_trials = 0;
};

/// What the sharded run actually did — the cache economics.  The CI
/// smoke and the service tests assert on these.
struct ServiceReport {
  u64 chunks = 0;
  u64 cache_hits = 0;
  u64 cache_misses = 0;
  u64 cache_stale = 0;  ///< present but failed verification; recomputed
  u64 inprocess_chunks = 0;  ///< computed by this call (misses + stale)
  bool fallback_in_process = false;  ///< non-replayable spec, plain runner
};

/// run_trials(), sharded: probe the chunk cache, compute misses on a
/// ThreadPool of opt.threads, merge in chunk order.  Bit-identical to
/// run_trials() with the same (spec, master seed) — see file header.
/// TrialSet::threads is that pool's size.  `report` (optional) receives
/// the cache accounting.
TrialSet run_trials_sharded(const TrialSpec& spec, const RunnerOptions& opt,
                            const ServiceOptions& sopt,
                            ServiceReport* report = nullptr);

/// Zeroes the fields documented as outside the determinism contract
/// (wall_seconds, trials_per_sec, threads, counters wall time) so two
/// TrialSets — or the sink rows rendered from them — can be compared
/// byte for byte across thread counts and machines.
void normalize_throughput(TrialSet* set);

}  // namespace pp::service
