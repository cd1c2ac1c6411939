// Tests of the ring-of-traps layout: canonical m(m+1) shape, generic-n
// partitions, and the Lemma 3 weight function.
#include "structures/ring_layout.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace pp {
namespace {

TEST(RingLayout, CanonicalShape) {
  // n = m(m+1) -> m traps of size m+1.
  for (const u64 m : {1u, 2u, 5u, 10u, 31u}) {
    RingLayout ring(m * (m + 1));
    EXPECT_EQ(ring.num_traps(), m);
    for (u64 a = 0; a < m; ++a) {
      EXPECT_EQ(ring.trap_size(a), m + 1) << "m=" << m << " a=" << a;
    }
  }
}

TEST(RingLayout, PartitionCoversAllStatesOnce) {
  for (const u64 n : {2u, 3u, 7u, 12u, 100u, 101u, 997u}) {
    RingLayout ring(n);
    u64 covered = 0;
    for (u64 a = 0; a < ring.num_traps(); ++a) {
      EXPECT_EQ(ring.trap_offset(a), covered);
      covered += ring.trap_size(a);
      EXPECT_GE(ring.trap_size(a), 1u);
    }
    EXPECT_EQ(covered, n);
  }
}

TEST(RingLayout, TrapSizesAreBalanced) {
  for (const u64 n : {50u, 99u, 1000u}) {
    RingLayout ring(n);
    u64 lo = ~0ull, hi = 0;
    for (u64 a = 0; a < ring.num_traps(); ++a) {
      lo = std::min(lo, ring.trap_size(a));
      hi = std::max(hi, ring.trap_size(a));
    }
    EXPECT_LE(hi - lo, 1u) << "n=" << n;
  }
}

TEST(RingLayout, TrapOfAndLocalOfInverses) {
  RingLayout ring(30);  // m = 5, traps of size 6
  for (StateId s = 0; s < 30; ++s) {
    const u64 a = ring.trap_of(s);
    const u64 b = ring.local_of(s);
    EXPECT_EQ(ring.trap_offset(a) + b, s);
    EXPECT_LT(b, ring.trap_size(a));
  }
}

TEST(RingLayout, GatesAndTops) {
  RingLayout ring(12);  // m = 3, traps of size 4
  EXPECT_EQ(ring.num_traps(), 3u);
  EXPECT_EQ(ring.gate(0), 0u);
  EXPECT_EQ(ring.top(0), 3u);
  EXPECT_EQ(ring.gate(1), 4u);
  EXPECT_EQ(ring.next_gate(2), ring.gate(0)) << "ring wraps";
}

TEST(RingLayout, Lemma3WeightOfFinalConfigurationIsZero) {
  RingLayout ring(20);
  std::vector<Count> counts(20, 1);
  EXPECT_EQ(ring.lemma3_weight(counts), 0u);
}

TEST(RingLayout, Lemma3WeightCountsGapsTwice) {
  RingLayout ring(12);  // 3 traps of size 4
  std::vector<Count> counts(12, 1);
  counts[1] = 0;  // inner gap in trap 0
  counts[2] = 2;  // keep the population size
  EXPECT_EQ(ring.lemma3_weight(counts), 2u);
}

TEST(RingLayout, Lemma3WeightCountsFlatTrapsWithEmptyGateOnce) {
  RingLayout ring(12);
  std::vector<Count> counts(12, 1);
  counts[4] = 0;  // trap 1's gate empty; trap 1 flat
  counts[5] = 1;
  counts[0] = 2;  // keep population
  EXPECT_EQ(ring.lemma3_weight(counts), 1u);
}

TEST(RingLayout, Lemma3WeightUpperBound) {
  // K = k1 + 2 k2 <= 2k where k is the number of unoccupied rank states.
  RingLayout ring(42);
  std::vector<Count> counts(42, 1);
  // Vacate 5 states (2 gates, 3 inner), dump the agents on state 0.
  counts[0] += 5;
  counts[ring.gate(0)] = counts[0];  // keep gate 0 occupied (it IS state 0)
  u64 k = 0;
  for (const u64 s : {7u, 13u, 20u, 28u, 35u}) {
    counts[s] = 0;
    ++k;
  }
  EXPECT_LE(ring.lemma3_weight(counts), 2 * k);
}

}  // namespace
}  // namespace pp
