#include "ds/fenwick.hpp"

#include "obs/counters.hpp"

namespace pp {

void SumLevels::shape(u64 size) {
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

void SumLevels::add(u64 i, i64 delta) {
  PP_DCHECK(i < n_);
  if (delta == 0) return;
  // Two's-complement u64 addition lands on the signed result.
  const u64 step = static_cast<u64>(delta);
  if (delta < 0) {
    PP_ASSERT_MSG(total_ >= 0 - step, "Fenwick weight underflow");
  } else {
    PP_ASSERT_MSG(step <= kMaxTotal - total_, "Fenwick total exceeds i64 max");
  }
  total_ += step;
  PP_OBS_INC(kFenwickUpdates);
  PP_OBS_SKETCH(kFenwickDepth, levels_);
  for (u32 l = 1; l < levels_; ++l) {
    i /= kArity;
    sums_[level_[l] + i] += step;
  }
}

void Fenwick::add(u64 i, i64 delta) {
  PP_DCHECK(i < size());
  const u64 step = static_cast<u64>(delta);
  PP_ASSERT_MSG(delta >= 0 || leaf_[i] >= 0 - step,
                "Fenwick weight underflow");
  tree_.add(i, delta);
  leaf_[i] += step;
}

void Fenwick::set(u64 i, u64 w) {
  PP_ASSERT_MSG(w <= kMaxTotal, "Fenwick weight exceeds i64 max");
  add(i, static_cast<i64>(w) - static_cast<i64>(leaf_[i]));
}

}  // namespace pp
