// Unit tests for the Fenwick tree with weighted sampling.
#include "ds/fenwick.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <limits>
#include <map>
#include <vector>

#include "rng/random.hpp"

namespace pp {
namespace {

// Sizes around the 8-ary level boundaries: one node, a partial last leaf
// node, a partial top node, and one past each full level.
constexpr u64 kShapeSizes[] = {1,  7,   8,   9,   63,  64,
                               65, 511, 512, 513, 4096, 4097};

// Checks every prefix(i), i <= size, and find(t) for every target t
// against a linear scan of `weights`.
void expect_matches_naive(const Fenwick& f, const std::vector<u64>& weights) {
  const u64 size = weights.size();
  ASSERT_EQ(f.size(), size);
  u64 cum = 0;
  for (u64 i = 0; i <= size; ++i) {
    ASSERT_EQ(f.prefix(i), cum) << size << ": prefix " << i;
    if (i == size) break;
    ASSERT_EQ(f.get(i), weights[i]) << size << ": get " << i;
    for (u64 t = cum; t < cum + weights[i]; ++t) {
      ASSERT_EQ(f.find(t), i) << size << ": target " << t;
    }
    cum += weights[i];
  }
  ASSERT_EQ(f.total(), cum) << size;
}

TEST(Fenwick, EmptyTreeHasZeroTotal) {
  Fenwick f(10);
  EXPECT_EQ(f.total(), 0u);
  EXPECT_EQ(f.size(), 10u);
  for (u64 i = 0; i < 10; ++i) EXPECT_EQ(f.get(i), 0u);
}

TEST(Fenwick, AddAndGet) {
  Fenwick f(8);
  f.add(3, 5);
  f.add(7, 2);
  EXPECT_EQ(f.get(3), 5u);
  EXPECT_EQ(f.get(7), 2u);
  EXPECT_EQ(f.total(), 7u);
  f.add(3, -5);
  EXPECT_EQ(f.get(3), 0u);
  EXPECT_EQ(f.total(), 2u);
}

TEST(Fenwick, SetOverwrites) {
  Fenwick f(4);
  f.set(1, 10);
  f.set(1, 3);
  EXPECT_EQ(f.get(1), 3u);
  EXPECT_EQ(f.total(), 3u);
}

TEST(Fenwick, PrefixSums) {
  Fenwick f(6);
  const u64 w[6] = {1, 0, 4, 2, 0, 3};
  for (u64 i = 0; i < 6; ++i) f.set(i, w[i]);
  u64 expect = 0;
  for (u64 i = 0; i <= 6; ++i) {
    EXPECT_EQ(f.prefix(i), expect) << "prefix " << i;
    if (i < 6) expect += w[i];
  }
}

TEST(Fenwick, FindReturnsBucketOfTarget) {
  Fenwick f(5);
  // weights: 2, 0, 3, 1, 0 -> cumulative 2, 2, 5, 6, 6
  f.set(0, 2);
  f.set(2, 3);
  f.set(3, 1);
  EXPECT_EQ(f.find(0), 0u);
  EXPECT_EQ(f.find(1), 0u);
  EXPECT_EQ(f.find(2), 2u);
  EXPECT_EQ(f.find(3), 2u);
  EXPECT_EQ(f.find(4), 2u);
  EXPECT_EQ(f.find(5), 3u);
}

TEST(Fenwick, FindNeverReturnsZeroWeightIndex) {
  Fenwick f(16);
  for (u64 i = 0; i < 16; i += 2) f.set(i, i + 1);  // odd indices stay 0
  for (u64 t = 0; t < f.total(); ++t) {
    const u64 idx = f.find(t);
    EXPECT_GT(f.get(idx), 0u) << "target " << t;
  }
}

TEST(Fenwick, SizeOneTree) {
  Fenwick f(1);
  f.set(0, 4);
  EXPECT_EQ(f.find(0), 0u);
  EXPECT_EQ(f.find(3), 0u);
  EXPECT_EQ(f.prefix(1), 4u);
}

TEST(Fenwick, NonPowerOfTwoSizes) {
  std::vector<u64> sizes = {3, 5, 100, 1000};
  sizes.insert(sizes.end(), std::begin(kShapeSizes), std::end(kShapeSizes));
  for (const u64 size : sizes) {
    Fenwick f(size);
    std::vector<u64> weights(size);
    for (u64 i = 0; i < size; ++i) {
      weights[i] = i % 3;
      f.set(i, weights[i]);
    }
    u64 total = 0;
    for (u64 i = 0; i < size; ++i) total += i % 3;
    EXPECT_EQ(f.total(), total) << "size " << size;
    if (total > 0) {
      EXPECT_GT(f.get(f.find(total - 1)), 0u);
      EXPECT_EQ(f.find(0), 1u) << "first positive weight is at index 1";
    }
    expect_matches_naive(f, weights);
  }
}

TEST(Fenwick, ResetClears) {
  Fenwick f(4);
  f.set(2, 9);
  f.reset(6);
  EXPECT_EQ(f.size(), 6u);
  EXPECT_EQ(f.total(), 0u);
  // A same-size reset keeps the internal levels and must zero them all.
  for (const u64 size : kShapeSizes) {
    f.reset(size);
    for (u64 i = 0; i < size; ++i) f.set(i, i + 1);
    f.reset(size);
    std::vector<u64> weights(size, 0);
    weights[size - 1] = 3;
    f.set(size - 1, 3);
    expect_matches_naive(f, weights);
  }
}

TEST(Fenwick, RandomizedAgainstNaive) {
  Rng rng(123);
  std::vector<u64> sizes = {37};
  sizes.insert(sizes.end(), std::begin(kShapeSizes), std::end(kShapeSizes));
  for (const u64 size : sizes) {
    Fenwick f(size);
    std::vector<u64> naive(size, 0);
    for (int step = 0; step < 2000; ++step) {
      const u64 i = rng.below(size);
      const u64 w = rng.below(20);
      f.set(i, w);
      naive[i] = w;
      // Spot-check prefix at a random index.
      const u64 q = rng.below(size + 1);
      u64 expect = 0;
      for (u64 j = 0; j < q; ++j) expect += naive[j];
      ASSERT_EQ(f.prefix(q), expect) << size;
    }
    // Exhaustive prefix() and find() check against cumulative sums.
    expect_matches_naive(f, naive);
  }
}

TEST(Fenwick, AssignMatchesPointwiseConstruction) {
  // The O(n) bulk builder must be indistinguishable from reset() + set()s
  // across sizes that exercise every tree shape (powers of two, one off,
  // tiny, empty-suffix, and every 8-ary level boundary).
  Rng rng(88);
  std::vector<u64> sizes = {2, 100};
  sizes.insert(sizes.end(), std::begin(kShapeSizes), std::end(kShapeSizes));
  for (const u64 size : sizes) {
    std::vector<u64> weights(size);
    for (u64 i = 0; i < size; ++i) weights[i] = rng.below(50);
    Fenwick bulk;
    bulk.assign(weights);
    Fenwick pointwise(size);
    for (u64 i = 0; i < size; ++i) pointwise.set(i, weights[i]);
    ASSERT_EQ(bulk.size(), pointwise.size());
    EXPECT_EQ(bulk.total(), pointwise.total());
    for (u64 i = 0; i <= size; ++i) {
      EXPECT_EQ(bulk.prefix(i), pointwise.prefix(i)) << size << ":" << i;
    }
    for (u64 t = 0; t < bulk.total(); ++t) {
      ASSERT_EQ(bulk.find(t), pointwise.find(t)) << size << ":" << t;
    }
    expect_matches_naive(bulk, weights);
    // And it stays a live tree: point updates after a bulk build work.
    if (size >= 2) {
      bulk.add(1, 5);
      pointwise.add(1, 5);
      EXPECT_EQ(bulk.prefix(size), pointwise.prefix(size));
      EXPECT_EQ(bulk.find(bulk.total() - 1), pointwise.find(bulk.total() - 1));
      weights[1] += 5;
      expect_matches_naive(bulk, weights);
    }
    // Re-assigning at the same size reuses the internal levels.
    std::vector<u64> again(size);
    for (u64 i = 0; i < size; ++i) again[i] = rng.below(50);
    bulk.assign(again);
    expect_matches_naive(bulk, again);
  }
}

TEST(FenwickDeathTest, WeightsAndTotalStayWithinI64) {
  const u64 max = Fenwick::kMaxTotal;
  EXPECT_DEATH(Fenwick(2).set(0, max + 1), "exceeds i64 max");
  EXPECT_DEATH(
      {
        Fenwick f(2);
        f.set(0, max);
        f.add(1, 1);
      },
      "exceeds i64 max");
  EXPECT_DEATH(
      {
        Fenwick f(2);
        f.set(0, max);
        f.set(1, 1);
      },
      "exceeds i64 max");
  EXPECT_DEATH(Fenwick().assign({max, 1}), "exceeds i64 max");
  EXPECT_DEATH(Fenwick().assign({max + 1}), "exceeds i64 max");
  // Up to the bound itself everything holds.
  Fenwick f(9);
  f.set(0, max - 1);
  f.set(8, 1);
  EXPECT_EQ(f.total(), max);
  EXPECT_EQ(f.find(max - 1), 8u);
  EXPECT_EQ(f.prefix(8), max - 1);
  Fenwick bulk;
  bulk.assign({max - 1, 0, 1});
  EXPECT_EQ(bulk.total(), max);
}

// The protocol's leaves widen a 32-bit count to u64 before they multiply:
// c(c - 1) is exact at the widest count and 0 at c = 0 and c = 1.
TEST(CountLeaves, PairWeightIsExactAtEveryCountWidth) {
  constexpr Count kMax = std::numeric_limits<Count>::max();
  const std::vector<Count> c{0, 1, 2, kMax};
  const PairLeaves pairs{c};
  EXPECT_EQ(pairs(0), 0u);
  EXPECT_EQ(pairs(1), 0u);
  EXPECT_EQ(pairs(2), 2u);
  EXPECT_EQ(pairs(3), 18446744060824649730ULL);  // (2^32 - 1)(2^32 - 2)
  EXPECT_EQ(pairs(3), (u64{kMax}) * (u64{kMax} - 1));
  const Leaves counts{c};
  EXPECT_EQ(counts(3), u64{kMax});
}

TEST(Fenwick, SamplingIsProportional) {
  Rng rng(77);
  Fenwick f(4);
  f.set(0, 10);
  f.set(1, 30);
  f.set(2, 0);
  f.set(3, 60);
  std::map<u64, u64> hits;
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++hits[f.find(rng.below(f.total()))];
  EXPECT_EQ(hits[2], 0u);
  EXPECT_NEAR(static_cast<double>(hits[0]) / kDraws, 0.10, 0.01);
  EXPECT_NEAR(static_cast<double>(hits[1]) / kDraws, 0.30, 0.015);
  EXPECT_NEAR(static_cast<double>(hits[3]) / kDraws, 0.60, 0.015);
}

}  // namespace
}  // namespace pp
