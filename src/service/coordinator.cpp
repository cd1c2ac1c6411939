#include "service/coordinator.hpp"

#include <cstdio>
#include <vector>

#include "common/assert.hpp"
#include "common/file_io.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "service/chunk.hpp"

namespace pp::service {
namespace {

/// One chunk of the point: its identity and, once probed or computed, its
/// result.
struct ChunkState {
  ChunkSpec chunk;
  std::string key_material;
  TrialRange range;
};

/// Plain in-process runner with the service bookkeeping attached — the
/// path for non-replayable specs and disabled caches.
TrialSet run_fallback(const TrialSpec& spec, const RunnerOptions& opt,
                      ServiceReport* rep) {
  rep->fallback_in_process = true;
  return run_trials(spec, opt);
}

}  // namespace

void normalize_throughput(TrialSet* set) {
  set->wall_seconds = 0;
  set->trials_per_sec = 0;
  set->threads = 0;
  set->counters.wall_us = 0;
}

TrialSet run_trials_sharded(const TrialSpec& spec, const RunnerOptions& opt,
                            const ServiceOptions& sopt,
                            ServiceReport* report) {
  PP_ASSERT(opt.trials >= 1);
  PP_ASSERT_MSG(sopt.workers == 0,
                "ServiceOptions::workers must be 0: cache misses run on "
                "RunnerOptions::threads");
  obs::init_from_env();
  ServiceReport local;
  ServiceReport* const rep = report != nullptr ? report : &local;
  *rep = ServiceReport{};

  if (sopt.cache_dir.empty()) return run_fallback(spec, opt, rep);
  if (!obs::spec_is_replayable(spec)) {
    // A chunk's cache key is the canonical spec serialisation; an explicit
    // factory / custom generator has none, so run the plain runner rather
    // than silently caching under an incomplete key.
    std::fprintf(stderr,
                 "[service] %s: spec not replayable, running in-process\n",
                 spec.label.c_str());
    return run_fallback(spec, opt, rep);
  }

  const u64 t0_us = obs::now_us();
  const std::string chunks_dir = sopt.cache_dir + "/chunks";
  make_dirs(chunks_dir);

  const u64 chunk_trials = sopt.chunk_trials != 0
                               ? sopt.chunk_trials
                               : default_chunk_trials(opt.trials);
  const std::vector<ChunkSpec> chunks = chunk_ranges(opt.trials, chunk_trials);
  rep->chunks = chunks.size();

  // Probe the cache for every chunk; stale files are simply overwritten
  // by the recomputation below.
  std::vector<ChunkState> state(chunks.size());
  std::vector<u64> missing;
  for (u64 i = 0; i < chunks.size(); ++i) {
    state[i].chunk = chunks[i];
    state[i].key_material =
        chunk_key_material(spec, opt.master_seed, chunks[i]);
    ChunkLoad load = load_chunk(chunks_dir, state[i].key_material, chunks[i]);
    switch (load.status) {
      case CacheProbe::kHit:
        state[i].range = std::move(load.range);
        ++rep->cache_hits;
        break;
      case CacheProbe::kStale:
        ++rep->cache_stale;
        missing.push_back(i);
        break;
      case CacheProbe::kMiss:
        ++rep->cache_misses;
        missing.push_back(i);
        break;
    }
  }

  // Compute the misses on a pool sized like run_trials(spec, opt)'s, one
  // trial per task so a chunk of slow trials never strands the other
  // threads.  Each chunk is stored by the thread that finishes its last
  // trial; no pool is built when the cache already holds everything.
  const u64 threads = ThreadPool::resolve_threads(opt.threads);
  if (!missing.empty()) {
    std::vector<TrialRange> ranges(missing.size());
    for (u64 m = 0; m < missing.size(); ++m) {
      ranges[m].begin = state[missing[m]].chunk.begin;
      ranges[m].end = state[missing[m]].chunk.end;
    }
    ThreadPool pool(threads);
    run_trial_ranges(spec, opt.master_seed, ranges, pool, [&](u64 m) {
      const ChunkState& s = state[missing[m]];
      store_chunk(chunks_dir, s.key_material, s.chunk, ranges[m]);
    });
    for (u64 m = 0; m < missing.size(); ++m) {
      state[missing[m]].range = std::move(ranges[m]);
    }
    rep->inprocess_chunks = missing.size();
  }

  // Merge in chunk-index order.  Chunks partition [0, trials) in
  // ascending contiguous ranges, so chunk order IS trial order: records
  // concatenate sorted, stats fold exactly as run_trials() folds them,
  // and the counter merge (commutative sums) matches bit for bit.
  TrialSet out;
  out.master_seed = opt.master_seed;
  out.threads = threads;
  out.records.reserve(opt.trials);
  for (const ChunkState& s : state) {
    for (const TrialRecord& r : s.range.records) out.records.push_back(r);
    out.counters.merge(s.range.counters);
  }
  PP_ASSERT(out.records.size() == opt.trials);
  for (const TrialRecord& r : out.records) out.stats.fold(r);

  // Wall-clock bookkeeping, as ever outside the determinism contract.
  out.wall_seconds =
      static_cast<double>(obs::now_us() - t0_us) / 1e6;
  out.trials_per_sec = out.wall_seconds > 0
                           ? static_cast<double>(opt.trials) / out.wall_seconds
                           : 0.0;

  std::printf("[service] %s: chunks=%llu hits=%llu misses=%llu stale=%llu "
              "inprocess=%llu threads=%llu\n",
              spec.label.c_str(),
              static_cast<unsigned long long>(rep->chunks),
              static_cast<unsigned long long>(rep->cache_hits),
              static_cast<unsigned long long>(rep->cache_misses),
              static_cast<unsigned long long>(rep->cache_stale),
              static_cast<unsigned long long>(rep->inprocess_chunks),
              static_cast<unsigned long long>(out.threads));

  if (!opt.keep_records) {
    out.records.clear();
    out.records.shrink_to_fit();
  }
  return out;
}

}  // namespace pp::service
