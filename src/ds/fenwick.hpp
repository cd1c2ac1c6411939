// Sum trees over u64 weights with eight children per node: O(log₈ n) point
// updates, prefix sums, and weighted sampling.  The name is historical —
// Fenwick keeps the binary indexed tree's API, not its layout.
//
// This is the simulator's hot data structure.  Each protocol keeps two
// trees whose leaves are its one count array, read in place:
//   * per-state "productive weights" c_s(c_s - 1), used to sample the next
//     productive interaction, and
//   * raw per-state agent counts, used to sample uniform interaction
//     partners, built on first use (the accelerated engine on a protocol
//     without extra states never reads it).
// A live tree sees one point update per state whose count changes net, so
// a same-state rank rule costs at most three updates of the weight tree.
//
// Layout.  Level 0 is the leaves, read in place through an accessor w(i)
// (no copy, no padding): Fenwick's own u64 vector, or c(c - 1) and c
// computed in u64 from a protocol's 32-bit counts (a leaf node of counts
// is 32 bytes).  SumLevels holds the levels above: one sum per eight
// entries of the level below, until a level fits in one node.  An
// internal node is eight sibling u64s: 64 bytes, one cache line's worth.
// The internal levels share one flat, zero-padded buffer (about n/7
// entries) that is reused while the size stays the same.  find() reads
// one node per level and picks the child with a branch-free scan; add()
// touches one entry per level.  Nodes are not line-aligned: the leaves are the
// caller's array, and aligning the internal levels measured no faster (a
// 64-byte-aligned allocator also raised peak RSS at n = 10⁶).
//
// Why.  At n = 10⁶ a binary walk was ~20 dependent steps, each with a
// data-dependent branch, over a tree and a leaf mirror of 8 MB apiece;
// the 8-ary tree reads 7 nodes over one 4 MB count array plus ~1.1 MB of
// sums.  On 1-distant starts at n = 10⁶ (4 threads, 4-core x86 host) the
// 8-ary tree took a productive event from 403–433 to 196–205 ns for
// ring-of-traps and from 145–159 to 109–113 ns for ag.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace pp {

/// Scans entries [first, first + count) of a level — one node, entry j
/// read as w(j) — for the child holding `remaining`: the number of
/// children whose running sum is <= remaining (weights are non-negative,
/// so those form a prefix), with their sum taken off `remaining` by a
/// conditional move, not a branch.
template <class Weight>
u64 pick_child(const Weight& w, u64 first, u64 count, u64& remaining) {
  u64 running = 0;
  u64 below = 0;
  u64 child = 0;
  for (u64 k = 0; k < count; ++k) {
    running += w(first + k);
    const bool passed = running <= remaining;
    child += passed;
    below = passed ? running : below;
  }
  remaining -= below;
  return child;
}

/// Leaf accessors over a per-state count array: w = c, or w = c(c - 1)
/// ordered pairs.  The product is taken in u64, so it is exact for every
/// 32-bit count and 0 at c = 0 too (a node scan needs no branch).
struct Leaves {
  const std::vector<Count>& c;
  u64 operator()(u64 i) const { return c[i]; }
};
struct PairLeaves {
  const std::vector<Count>& c;
  u64 operator()(u64 i) const {
    const u64 x = c[i];
    return x * (x - 1);
  }
};

/// The levels of an 8-ary sum tree above its leaves.  The leaf weights
/// live with the caller, who passes an accessor `w(i)` wherever they are
/// read and reports every change of a leaf weight through add().
class SumLevels {
 public:
  struct NoHook {
    void operator()(u64 /*first*/) const {}
  };
  /// Bound on every weight and on the total (checked): point updates
  /// travel as signed deltas.
  static constexpr u64 kMaxTotal = static_cast<u64>(INT64_MAX);

  u64 size() const { return n_; }
  u64 total() const { return total_; }
  /// Number of levels, leaves included: ⌈log₈ size⌉, at least 1.  Every
  /// point update writes one entry per level.
  u32 levels() const { return levels_; }

  /// Entry j of internal level l in [1, levels()): the sum of leaves
  /// [j·8^l, (j+1)·8^l).
  u64 sum(u32 l, u64 j) const { return sums_[level_[l] + j]; }

  /// Re-initialises to `size` leaves weighing w(0), ..., w(size - 1).
  /// O(n) — each internal entry is summed once — versus the O(n log n)
  /// of n add()s.
  template <class Weight>
  void build(u64 size, const Weight& w) {
    shape(size);
    // Level 1 from the leaves, bounding the running total on the way;
    // then each level from the one below.  Padding entries are never
    // written and stay zero.
    total_ = 0;
    for (u64 node = 0, i = 0; i < n_; ++node) {
      const u64 before = total_;
      for (const u64 end = std::min(i + kArity, n_); i < end; ++i) {
        const u64 wi = w(i);
        PP_ASSERT_MSG(wi <= kMaxTotal - total_,
                      "Fenwick total exceeds i64 max");
        total_ += wi;
      }
      if (levels_ > 1) sums_[level_[1] + node] = total_ - before;
    }
    for (u32 l = 2; l < levels_; ++l) {
      const u64 below = level_[l - 1];
      for (u64 e = 0; e < (level_[l] - below) / kArity; ++e) {
        u64 sum = 0;
        for (u64 k = 0; k < kArity; ++k) sum += sums_[below + e * kArity + k];
        sums_[level_[l] + e] = sum;
      }
    }
  }

  /// Records that leaf i's weight changed by `delta` (possibly negative,
  /// 0 is a no-op): the total and one entry per level above the leaf.
  /// The total stays within [0, kMaxTotal] (checked).
  void add(u64 i, i64 delta);

  /// Prefix sum of weights with index < i (i may equal size()).
  template <class Weight>
  u64 prefix(u64 i, const Weight& w) const {
    PP_DCHECK(i <= n_);
    // Each level adds the siblings left of i's ancestor within its node;
    // the top level is a single node, so there that is everything left.
    const auto node_start = [this](u32 level, u64 j) {
      return level + 1 < levels_ ? j / kArity * kArity : 0;
    };
    u64 sum = 0;
    for (u64 k = node_start(0, i); k < i; ++k) sum += w(k);
    for (u32 l = 1; l < levels_; ++l) {
      i /= kArity;
      for (u64 k = node_start(l, i); k < i; ++k) sum += sums_[level_[l] + k];
    }
    return sum;
  }

  /// Given `target` in [0, total()), returns the unique index i such that
  /// prefix(i) <= target < prefix(i+1); i.e. samples i with probability
  /// w(i)/total() when `target` is uniform.  One node scan per level.
  /// `at_leaf_node(first)` runs before the leaf node starting at `first`
  /// is scanned, so a caller can prefetch what it will read next.
  template <class Weight, class AtLeafNode = NoHook>
  u64 find(u64 target, const Weight& w, AtLeafNode at_leaf_node = {}) const {
    PP_DCHECK(target < total_);
    const auto sum = [this](u64 j) { return sums_[j]; };
    u64 remaining = target;
    u64 node = 0;
    for (u32 l = levels_ - 1; l > 0; --l) {
      node = node * kArity +
             pick_child(sum, level_[l] + node * kArity, kArity, remaining);
    }
    // Only the last leaf node may be partial; full ones get the unrolled
    // scan (the bounded loop costs ag at n = 10⁶ about a fifth per event).
    const u64 first = node * kArity;
    at_leaf_node(first);
    const u64 pos =
        first + (first + kArity <= n_
                     ? pick_child(w, first, kArity, remaining)
                     : pick_child(w, first, n_ - first, remaining));
    PP_DCHECK(pos < n_);
    PP_DCHECK(w(pos) > remaining);
    return pos;
  }

 private:
  /// Lays out the internal levels for `size` leaves; keeps the buffer
  /// (and its contents) when the size is unchanged.
  void shape(u64 size);

  // Children per node; eight u64s fill one cache line.
  static constexpr u64 kArity = 8;
  // ⌈log₈(2⁶⁴)⌉ levels cover any u64 size.
  static constexpr u32 kMaxLevels = 22;

  std::vector<u64> sums_;  // levels 1.., bottom up, zero-padded nodes
  std::array<u64, kMaxLevels> level_{};  // offset of level l >= 1 in sums_
  u64 n_ = 0;
  u64 total_ = 0;
  u32 levels_ = 1;
};

/// A sum tree that owns its leaf weights.
class Fenwick {
 public:
  static constexpr u64 kMaxTotal = SumLevels::kMaxTotal;

  Fenwick() = default;
  explicit Fenwick(u64 size) { reset(size); }

  /// Re-initialises to `size` zero weights.
  void reset(u64 size) { assign(std::vector<u64>(size, 0)); }

  /// Re-initialises to hold `weights` verbatim (taken by value: callers
  /// move, the vector becomes the leaf level).  O(n); the schedulers'
  /// pair-sampler layer builds Θ(n^2)-slot trees per run and leans on the
  /// difference from reset() + n add()s.
  void assign(std::vector<u64> weights) {
    leaf_ = std::move(weights);
    tree_.build(leaf_.size(), Own{leaf_});
  }

  u64 size() const { return tree_.size(); }
  u64 total() const { return tree_.total(); }
  u32 levels() const { return tree_.levels(); }

  /// Current weight at index i.
  u64 get(u64 i) const {
    PP_DCHECK(i < size());
    return leaf_[i];
  }

  /// Adds (possibly negative) `delta` to index i.  The caller guarantees the
  /// resulting weight is non-negative and the total stays <= kMaxTotal;
  /// both are checked.
  void add(u64 i, i64 delta);

  /// Sets index i to `w` (checked <= kMaxTotal).
  void set(u64 i, u64 w);

  u64 prefix(u64 i) const { return tree_.prefix(i, Own{leaf_}); }
  u64 find(u64 target) const { return tree_.find(target, Own{leaf_}); }

 private:
  struct Own {
    const std::vector<u64>& w;
    u64 operator()(u64 i) const { return w[i]; }
  };

  SumLevels tree_;
  std::vector<u64> leaf_;
};

}  // namespace pp
