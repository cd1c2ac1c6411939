// Fenwick (binary indexed) tree over u64 weights with O(log n) point
// updates, prefix sums, and weighted sampling.
//
// This is the simulator's hot data structure.  Each protocol keeps
//   * a tree of per-state "productive weights" c_s(c_s - 1) used to sample
//     the next productive interaction, and
//   * a tree of raw per-state agent counts used to sample uniform
//     interaction partners, built on first use (the accelerated engine on
//     a protocol without extra states never reads it).
// A live tree sees one point update per state whose count changes net, so
// a same-state rank rule costs at most three walks of the weight tree.
#pragma once

#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace pp {

class Fenwick {
 public:
  Fenwick() = default;
  explicit Fenwick(u64 size) { reset(size); }

  /// Re-initialises to `size` zero weights.
  void reset(u64 size);

  /// Re-initialises to hold `weights` verbatim (taken by value: callers
  /// move, the vector becomes the leaf mirror).  O(n) — each internal
  /// node is accumulated once — versus the O(n log n) of reset() + n
  /// add()s; the schedulers' pair-sampler layer builds Θ(n^2)-slot trees
  /// per run and leans on the difference.
  void assign(std::vector<u64> weights);

  u64 size() const { return n_; }

  /// Sum of all weights.
  u64 total() const { return total_; }

  /// Current weight at index i.
  u64 get(u64 i) const {
    PP_DCHECK(i < n_);
    return leaf_[i];
  }

  /// Adds (possibly negative) `delta` to index i.  The caller guarantees the
  /// resulting weight is non-negative; this is checked.
  void add(u64 i, i64 delta);

  /// Sets index i to `w`.
  void set(u64 i, u64 w);

  /// Prefix sum of weights with index < i (i may equal size()).
  u64 prefix(u64 i) const;

  /// Given `target` in [0, total()), returns the unique index i such that
  /// prefix(i) <= target < prefix(i+1); i.e. samples i with probability
  /// weight(i)/total() when `target` is uniform.  O(log n) via binary
  /// lifting over the implicit tree.
  u64 find(u64 target) const;

 private:
  std::vector<u64> tree_;  // 1-based internal array
  std::vector<u64> leaf_;  // mirror of per-index weights for O(1) get()
  u64 n_ = 0;
  u64 total_ = 0;
  u64 log2n_ = 0;  // highest power of two <= n_, for find()
};

}  // namespace pp
