#include "structures/ring_layout.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "structures/trap.hpp"

namespace pp {

namespace {

u64 canonical_traps(u64 n) {
  // Largest m with m(m+1) <= n.
  u64 m = static_cast<u64>(
      (std::sqrt(4.0 * static_cast<double>(n) + 1.0) - 1.0) / 2.0);
  while (m * (m + 1) > n) --m;
  while ((m + 1) * (m + 2) <= n) ++m;
  return m;
}

}  // namespace

RingLayout::RingLayout(u64 n) : RingLayout(n, canonical_traps(n)) {}

RingLayout::RingLayout(u64 n, u64 m) : n_(n) {
  PP_ASSERT_MSG(n >= 2, "RingLayout requires n >= 2");
  PP_ASSERT_MSG(m >= 1 && m <= n, "trap count out of range");

  const u64 base = n / m;
  const u64 rem = n % m;
  offsets_.reserve(m);
  trap_of_.resize(n);
  u64 off = 0;
  for (u64 a = 0; a < m; ++a) {
    offsets_.push_back(off);
    const u64 size = base + (a < rem ? 1 : 0);
    for (u64 b = 0; b < size; ++b) trap_of_[off + b] = static_cast<u32>(a);
    off += size;
    if (size > max_size_) max_size_ = size;
  }
  PP_ASSERT(off == n);
}

u64 RingLayout::lemma3_weight(std::span<const Count> counts) const {
  PP_ASSERT(counts.size() == n_);
  u64 k1 = 0;
  u64 k2 = 0;
  for (u64 a = 0; a < num_traps(); ++a) {
    const auto slice = trap_counts(counts, a);
    k2 += trap::gaps(slice);
    if (trap::is_flat(slice) && slice[0] == 0) ++k1;
  }
  return k1 + 2 * k2;
}

}  // namespace pp
