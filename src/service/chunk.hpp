// Chunk model of the sharded experiment service (src/service/).
//
// A sweep point (one TrialSpec × trials) is partitioned into contiguous
// *chunks* of trial indices.  Because the runner derives trial t's RNG
// stream from (master_seed, label, t) alone, a chunk's records are a
// pure function of (spec, master_seed, range) — independent of which
// thread computes them, when, or after how many interrupted runs.  That
// purity is what the whole service leans on:
//
//  * Chunks are the unit of recomputation: the coordinator recomputes
//    exactly the missing ones, their trials fanned out on a thread pool
//    (service/coordinator.hpp).
//
//  * Chunks are the unit of caching: a computed chunk is persisted as
//    `chunk-<fnv1a64-key>.result` in the cache directory, keyed by the
//    canonical spec serialisation (obs/provenance.hpp spec_to_kv, the
//    scheduler by its display name) plus master seed and trial range.
//    Any spec change — protocol, n, budget, scheduler knob — changes the
//    key, so a stale entry can never be *returned*; a file whose embedded
//    key material disagrees with its name's (corruption, a hash
//    collision, a format bump) is detected on load and reported kStale,
//    then recomputed.
//
//  * Chunks are idempotent: two runs computing the same chunk write
//    byte-identical files via atomic rename, so two invocations sharing
//    a cache lose only duplicated work, never correctness.
//
// The result file is a line format with bit-exact doubles (parallel
// times travel as hex u64 bit patterns, not decimal round-trips) and a
// trailing end marker, so a torn or truncated file is unloadable rather
// than silently short.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "runner/runner.hpp"

namespace pp::service {

/// One chunk of a sweep point's trial index space.
struct ChunkSpec {
  u64 index = 0;  ///< position in the partition (merge order)
  u64 begin = 0;
  u64 end = 0;  ///< exclusive
};

/// Partitions [0, trials) into ceil(trials / chunk_trials) contiguous
/// chunks of at most chunk_trials each (the last may be short).
std::vector<ChunkSpec> chunk_ranges(u64 trials, u64 chunk_trials);

/// The default chunk size for a sweep point: trials/16-ish.  Deliberately
/// a function of the trial count alone — never of the thread count — so
/// runs with different --threads values share cache entries.
u64 default_chunk_trials(u64 trials);

/// The canonical key material of one chunk: spec_to_kv(spec) (scheduler
/// by display name) plus master seed, trial range and a format version.
/// Two chunks agree on this string iff their records must be bit-identical.
std::string chunk_key_material(const TrialSpec& spec, u64 master_seed,
                               const ChunkSpec& chunk);

/// "chunk-<16-hex-fnv1a64-of-material>.result" — the cache file name.
std::string chunk_file_name(const std::string& key_material);

/// Serialises a computed chunk (records + merged counters) with its key
/// material.  load_chunk() inverts it exactly.
std::string serialize_chunk(const std::string& key_material,
                            const ChunkSpec& chunk, const TrialRange& range);

enum class CacheProbe {
  kHit,    ///< file present, key material and shape verified, loaded
  kMiss,   ///< no file at the keyed path
  kStale,  ///< file present but failed verification — recompute
};

const char* cache_probe_name(CacheProbe p);

struct ChunkLoad {
  CacheProbe status = CacheProbe::kMiss;
  TrialRange range;
};

/// Probes `dir` for the chunk keyed by `key_material`.  kHit fills
/// `range`; kStale means a file existed but its embedded key, range or
/// framing disagreed (the caller recomputes and overwrites).
ChunkLoad load_chunk(const std::string& dir, const std::string& key_material,
                     const ChunkSpec& chunk);

/// Persists a computed chunk into `dir` via atomic rename.  Returns the
/// final path ("" on failure — callers treat the cache as best-effort).
std::string store_chunk(const std::string& dir,
                        const std::string& key_material,
                        const ChunkSpec& chunk, const TrialRange& range);

}  // namespace pp::service
