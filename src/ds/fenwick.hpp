// Sum tree over u64 weights with eight children per node: O(log₈ n) point
// updates, prefix sums, and weighted sampling.  The name is historical —
// it keeps the binary indexed tree's API, not its layout.
//
// This is the simulator's hot data structure.  Each protocol keeps
//   * a tree of per-state "productive weights" c_s(c_s - 1) used to sample
//     the next productive interaction, and
//   * a tree of raw per-state agent counts used to sample uniform
//     interaction partners, built on first use (the accelerated engine on
//     a protocol without extra states never reads it).
// A live tree sees one point update per state whose count changes net, so
// a same-state rank rule costs at most three updates of the weight tree.
//
// Layout.  Level 0 is the weight vector itself, used in place (no copy,
// no padding).  Each level above holds one sum per eight entries of the
// level below, until a level fits in one node.  A node is eight sibling
// u64s: 64 bytes, one cache line's worth.  The internal levels share one
// flat, zero-padded buffer (about n/7 entries) that is reused while the
// size stays the same.  find() reads one node per level and picks the
// child with a branch-free scan; add() touches one entry per level.
// Nodes are not line-aligned: the leaves are the caller's vector, and
// aligning the internal levels measured no faster (a 64-byte-aligned
// allocator also raised peak RSS at n = 10⁶).
//
// Why.  At n = 10⁶ a binary walk is ~20 dependent steps, each with a
// data-dependent branch, over a tree and a leaf mirror of 8 MB apiece;
// the 8-ary tree reads 7 nodes over the leaves plus ~1.1 MB of sums.  On
// 1-distant starts at n = 10⁶ (4 threads, 4-core x86 host) a productive
// event went from 403–433 to 196–205 ns for ring-of-traps and from
// 145–159 to 109–113 ns for ag.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace pp {

class Fenwick {
 public:
  /// Bound on every weight and on the total (checked): point updates
  /// travel as signed deltas.
  static constexpr u64 kMaxTotal = static_cast<u64>(INT64_MAX);

  Fenwick() = default;
  explicit Fenwick(u64 size) { reset(size); }

  /// Re-initialises to `size` zero weights.
  void reset(u64 size);

  /// Re-initialises to hold `weights` verbatim (taken by value: callers
  /// move, the vector becomes the leaf level).  O(n) — each internal
  /// entry is summed once — versus the O(n log n) of reset() + n add()s;
  /// the schedulers' pair-sampler layer builds Θ(n^2)-slot trees per run
  /// and leans on the difference.
  void assign(std::vector<u64> weights);

  u64 size() const { return n_; }

  /// Sum of all weights.
  u64 total() const { return total_; }

  /// Number of levels, leaves included: ⌈log₈ size⌉, at least 1.  Every
  /// point update writes one entry per level.
  u32 levels() const { return levels_; }

  /// Current weight at index i.
  u64 get(u64 i) const {
    PP_DCHECK(i < n_);
    return leaf_[i];
  }

  /// Adds (possibly negative) `delta` to index i.  The caller guarantees the
  /// resulting weight is non-negative and the total stays <= kMaxTotal;
  /// both are checked.
  void add(u64 i, i64 delta);

  /// Sets index i to `w` (checked <= kMaxTotal).
  void set(u64 i, u64 w);

  /// Prefix sum of weights with index < i (i may equal size()).
  u64 prefix(u64 i) const;

  /// Given `target` in [0, total()), returns the unique index i such that
  /// prefix(i) <= target < prefix(i+1); i.e. samples i with probability
  /// weight(i)/total() when `target` is uniform.  One node scan per level.
  u64 find(u64 target) const;

 private:
  /// Lays out the internal levels for `size` leaves; keeps the buffer
  /// (and its contents) when the size is unchanged.
  void shape(u64 size);

  // Children per node; eight u64s fill one cache line.
  static constexpr u64 kArity = 8;
  // ⌈log₈(2⁶⁴)⌉ levels cover any u64 size.
  static constexpr u32 kMaxLevels = 22;

  std::vector<u64> leaf_;  // level 0: the weights
  std::vector<u64> sums_;  // levels 1.., bottom up, zero-padded nodes
  std::array<u64, kMaxLevels> level_{};  // offset of level l >= 1 in sums_
  u64 n_ = 0;
  u64 total_ = 0;
  u32 levels_ = 1;
};

}  // namespace pp
