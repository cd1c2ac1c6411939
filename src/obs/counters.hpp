// The deterministic counter/metrics registry — the cheap, always-correct
// half of the observability layer (src/obs/).
//
// Counters answer the question end-of-run aggregates cannot: *where* did
// the work go?  Every hot path of the simulator carries a named hook —
// null-skip gap lengths in the engines, update depth in the Fenwick trees,
// group sizes touched by the hierarchical sampler, trap-row passes in the
// state-distance sampler, roster rebuilds and rejection retries in the
// sparse edge-Markovian state, fault bursts in the hostile schedulers —
// and each hook is one predictable branch plus an array increment against
// a thread-local CounterBlock.
//
// Determinism.  Counters never read the clock and never consume RNG, so
// they cannot perturb a trajectory.  The parallel runner installs one
// block per *trial* (not per thread) via ScopedCounters and merges the
// per-trial blocks in trial-index order, so the merged metrics inherit the
// runner's thread-count-independent determinism bit for bit — the only
// exception is the per-trial wall clock, which lives in a separate
// `wall_us` field excluded from deterministic_equal().
//
// Zero overhead when compiled out.  Configure with -DPOPRANK_OBS=OFF and
// every PP_OBS_* macro expands to nothing: the instrumented binaries are
// instruction-identical to a build that never heard of this module, which
// is what lets CI assert the pinned trajectories and bench baselines are
// untouched by observability.
//
// Distribution sketches are fixed-size log2 histograms: value v lands in
// bucket bit_width(v) (0..64), so a sketch is 65 u64 slots — coarse, but
// enough to see a gap-length distribution shift regimes, and cheap enough
// for per-interaction hooks.
#pragma once

#include <array>
#include <bit>
#include <string>

#include "common/types.hpp"

// Compile-time switch, normally injected by CMake's POPRANK_OBS option
// (PUBLIC on the pp target, so library, tests and benches always agree).
// Standalone compilations without CMake default to instrumented.
#ifndef PP_OBS
#define PP_OBS 1
#endif

namespace pp::obs {

enum class Counter : u32 {
  kProductiveSteps,    ///< productive firings (== productive_steps)
  kNullSkips,          ///< nulls run_exact passes (skipped gaps, null
                       ///< ticks, every churn fault tick, flip-only events,
                       ///< stuck jumps, the budget-clamped rest):
                       ///< + kProductiveSteps == its interactions
  kFenwickUpdates,     ///< Fenwick point updates (add/set with delta != 0)
  kGroupTouches,       ///< GroupedKernelSampler group members scanned
  kRosterGrows,        ///< DirectedPairRoster capacity-doubling rebuilds
  kRosterRejections,   ///< sparse markov birth-sampling rejection retries
  kFaultEvents,        ///< environmental faults (churn events, partition
                       ///< split/heal transitions)
  kFaultAgentMoves,    ///< agents teleported by churn fault events
  kFaultStateTouches,  ///< per-state count mutations applied by the churn
                       ///< move_agent fast path (2 per applied move) — the
                       ///< O(k log n) fault-cost evidence the update
                       ///< microbench and property tests read
  kTrapRowPasses,      ///< TrapKernelSampler passes over its T trap rows
                       ///< (one per event that moves agents across traps
                       ///< or in or out of the extra states; 0 per
                       ///< same-trap move)
  kCount,
};
inline constexpr u32 kNumCounters = static_cast<u32>(Counter::kCount);

enum class Sketch : u32 {
  kNullSkipGap,   ///< gap length per closed-form null skip (tick phases,
                  ///< at event probability 1, record none)
  kFenwickDepth,  ///< tree levels written per Fenwick update
  kGroupSize,     ///< group size per hierarchical-sampler touch
  kFaultBurst,    ///< agents moved per churn fault event
  kCount,
};
inline constexpr u32 kNumSketches = static_cast<u32>(Sketch::kCount);

/// Bucket index of value v in a log2 sketch: bit_width(v), i.e. 0 for 0,
/// k for v in [2^(k-1), 2^k).
inline constexpr u32 kSketchBuckets = 65;
inline u32 sketch_bucket(u64 v) { return static_cast<u32>(std::bit_width(v)); }

/// Stable snake_case names used by the JSON dumps (manifests, BENCH
/// records) and the python artifact checker.
const char* counter_name(Counter c);
const char* sketch_name(Sketch s);

/// One trial's (or one merge's) worth of metrics.  Everything except
/// wall_us is a pure function of (spec, seed).
struct CounterBlock {
  std::array<u64, kNumCounters> counter{};
  std::array<std::array<u64, kSketchBuckets>, kNumSketches> sketch{};
  u64 wall_us = 0;  ///< per-trial wall clock; NOT deterministic

  void clear() { *this = CounterBlock{}; }

  /// Element-wise sum (wall_us included).  Addition commutes, but the
  /// runner still merges in trial-index order so the claim "merged
  /// metrics are a fold over the trial sequence" stays structural, not
  /// accidental.
  void merge(const CounterBlock& other);

  u64 get(Counter c) const { return counter[static_cast<u32>(c)]; }
  const std::array<u64, kSketchBuckets>& get(Sketch s) const {
    return sketch[static_cast<u32>(s)];
  }

  /// Total observations recorded into sketch s.
  u64 sketch_count(Sketch s) const;

  /// True when nothing was ever recorded (wall_us ignored) — sinks and
  /// BENCH records use this to stay byte-identical to their pre-obs
  /// output when the registry is compiled out or nothing was hooked.
  bool deterministic_empty() const;

  /// Bit-identical comparison of everything except wall_us — the
  /// thread-count-independence contract tests pin.
  static bool deterministic_equal(const CounterBlock& a,
                                  const CounterBlock& b);

  /// Appends the registry dump as a JSON object,
  ///   {"counters":{...},"sketches":{"name":{"count":c,"buckets":{"3":k}}}}
  /// (sketches keyed by bucket index, zero buckets omitted); wall_us is
  /// emitted as "wall_us" only when include_wall is set.
  std::string to_json(bool include_wall = false) const;
};

#if PP_OBS

/// The block hot-path hooks write into, or nullptr when nothing is being
/// measured on this thread.  Owned by ScopedCounters; hooks must treat it
/// as read-only-pointer/write-through.
inline thread_local CounterBlock* tls_block = nullptr;

/// Installs `block` as this thread's active block for the current scope
/// (restores the previous one on destruction, so scopes nest).
class ScopedCounters {
 public:
  explicit ScopedCounters(CounterBlock* block) : prev_(tls_block) {
    tls_block = block;
  }
  ~ScopedCounters() { tls_block = prev_; }
  ScopedCounters(const ScopedCounters&) = delete;
  ScopedCounters& operator=(const ScopedCounters&) = delete;

 private:
  CounterBlock* prev_;
};

inline void bump(Counter c, u64 by = 1) {
  if (CounterBlock* b = tls_block) b->counter[static_cast<u32>(c)] += by;
}

inline void record(Sketch s, u64 value) {
  if (CounterBlock* b = tls_block) {
    ++b->sketch[static_cast<u32>(s)][sketch_bucket(value)];
  }
}

/// True when some block is installed — hooks that must *compute* the
/// value they would record (e.g. count loop iterations) guard on this so
/// the un-measured path pays one branch, nothing more.
inline bool active() { return tls_block != nullptr; }

#else  // !PP_OBS — every hook compiles to nothing.

class ScopedCounters {
 public:
  explicit ScopedCounters(CounterBlock*) {}
};

inline void bump(Counter, u64 = 1) {}
inline void record(Sketch, u64) {}
inline constexpr bool active() { return false; }

#endif

}  // namespace pp::obs

// Macro forms for call sites inside tight loops: they evaluate their
// arguments only when the layer is compiled in, so an OFF build carries
// neither the increment nor the argument expression.
#if PP_OBS
#define PP_OBS_INC(c) ::pp::obs::bump(::pp::obs::Counter::c)
#define PP_OBS_ADD(c, v) ::pp::obs::bump(::pp::obs::Counter::c, (v))
#define PP_OBS_SKETCH(s, v) ::pp::obs::record(::pp::obs::Sketch::s, (v))
#else
#define PP_OBS_INC(c) ((void)0)
#define PP_OBS_ADD(c, v) ((void)0)
#define PP_OBS_SKETCH(s, v) ((void)0)
#endif
