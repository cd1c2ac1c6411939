#include "ds/fenwick.hpp"

#include <algorithm>
#include <utility>

#include "obs/counters.hpp"

namespace pp {

namespace {

/// Scans entries [first, first + count) of `level` — one node — for the
/// child holding `remaining`: the number of children whose running sum is
/// <= remaining (weights are non-negative, so those form a prefix), with
/// their sum taken off `remaining` by a conditional move, not a branch.
u64 pick_child(const std::vector<u64>& level, u64 first, u64 count,
               u64& remaining) {
  u64 running = 0;
  u64 below = 0;
  u64 child = 0;
  for (u64 k = 0; k < count; ++k) {
    running += level[first + k];
    const bool passed = running <= remaining;
    child += passed;
    below = passed ? running : below;
  }
  remaining -= below;
  return child;
}

}  // namespace

void Fenwick::shape(u64 size) {
  if (size == n_) return;
  n_ = size;
  levels_ = 1;
  u64 entries = size;
  u64 offset = 0;
  while (entries > kArity) {
    entries = (entries + kArity - 1) / kArity;
    level_[levels_++] = offset;
    offset += (entries + kArity - 1) / kArity * kArity;
  }
  sums_.assign(offset, 0);
}

void Fenwick::reset(u64 size) {
  shape(size);
  std::fill(sums_.begin(), sums_.end(), 0);
  leaf_.assign(n_, 0);
  total_ = 0;
}

void Fenwick::assign(std::vector<u64> weights) {
  shape(weights.size());
  leaf_ = std::move(weights);
  // Level 1 from the leaves, bounding the running total on the way; then
  // each level from the one below.  Padding entries are never written
  // and stay zero.
  total_ = 0;
  for (u64 node = 0, i = 0; i < n_; ++node) {
    const u64 before = total_;
    for (const u64 end = std::min(i + kArity, n_); i < end; ++i) {
      PP_ASSERT_MSG(leaf_[i] <= kMaxTotal - total_,
                    "Fenwick total exceeds i64 max");
      total_ += leaf_[i];
    }
    if (levels_ > 1) sums_[level_[1] + node] = total_ - before;
  }
  for (u32 l = 2; l < levels_; ++l) {
    const u64 below = level_[l - 1];
    const u64 entries = (level_[l] - below) / kArity;
    for (u64 e = 0; e < entries; ++e) {
      u64 sum = 0;
      for (u64 k = 0; k < kArity; ++k) sum += sums_[below + e * kArity + k];
      sums_[level_[l] + e] = sum;
    }
  }
}

void Fenwick::add(u64 i, i64 delta) {
  PP_DCHECK(i < n_);
  if (delta == 0) return;
  // Two's-complement u64 addition lands on the signed result.
  const u64 step = static_cast<u64>(delta);
  if (delta < 0) {
    PP_ASSERT_MSG(leaf_[i] >= 0 - step, "Fenwick weight underflow");
  } else {
    PP_ASSERT_MSG(step <= kMaxTotal - total_, "Fenwick total exceeds i64 max");
  }
  leaf_[i] += step;
  total_ += step;
  PP_OBS_INC(kFenwickUpdates);
  PP_OBS_SKETCH(kFenwickDepth, levels_);
  for (u32 l = 1; l < levels_; ++l) {
    i /= kArity;
    sums_[level_[l] + i] += step;
  }
}

void Fenwick::set(u64 i, u64 w) {
  PP_ASSERT_MSG(w <= kMaxTotal, "Fenwick weight exceeds i64 max");
  add(i, static_cast<i64>(w) - static_cast<i64>(leaf_[i]));
}

u64 Fenwick::prefix(u64 i) const {
  PP_DCHECK(i <= n_);
  // Each level adds the siblings left of i's ancestor within its node;
  // the top level is a single node, so there that is everything left.
  const auto node_start = [this](u32 level, u64 j) {
    return level + 1 < levels_ ? j / kArity * kArity : 0;
  };
  u64 sum = 0;
  for (u64 k = node_start(0, i); k < i; ++k) sum += leaf_[k];
  for (u32 l = 1; l < levels_; ++l) {
    i /= kArity;
    for (u64 k = node_start(l, i); k < i; ++k) sum += sums_[level_[l] + k];
  }
  return sum;
}

u64 Fenwick::find(u64 target) const {
  PP_DCHECK(target < total_);
  u64 remaining = target;
  u64 node = 0;
  for (u32 l = levels_ - 1; l > 0; --l) {
    node = node * kArity +
           pick_child(sums_, level_[l] + node * kArity, kArity, remaining);
  }
  // Only the last leaf node may be partial; full ones get the unrolled
  // scan (the bounded loop costs ag at n = 10⁶ about a fifth per event).
  const u64 first = node * kArity;
  const u64 pos =
      first + (first + kArity <= n_
                   ? pick_child(leaf_, first, kArity, remaining)
                   : pick_child(leaf_, first, n_ - first, remaining));
  PP_DCHECK(pos < n_);
  PP_DCHECK(leaf_[pos] > remaining);
  return pos;
}

}  // namespace pp
