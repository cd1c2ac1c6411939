// Unit tests for the initial-configuration generators.
#include "core/initial.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "rng/random.hpp"

namespace pp {
namespace {

TEST(Initial, ValidRanking) {
  const Configuration c = initial::valid_ranking(5, 7);
  EXPECT_EQ(c.agents(), 5u);
  EXPECT_TRUE(is_valid_ranking(c, 5));
}

TEST(Initial, UniformRandomHasRightPopulation) {
  Rng rng(1);
  const Configuration c = initial::uniform_random(100, 10, rng);
  EXPECT_EQ(c.agents(), 100u);
  EXPECT_EQ(c.num_states(), 10u);
}

TEST(Initial, UniformRandomRanksNeverUsesExtraStates) {
  Rng rng(2);
  const Configuration c = initial::uniform_random_ranks(200, 8, 12, rng);
  EXPECT_EQ(c.agents(), 200u);
  for (u64 s = 8; s < 12; ++s) EXPECT_EQ(c.counts[s], 0u);
}

TEST(Initial, KDistantHasExactDistance) {
  Rng rng(3);
  for (const u64 k : {0u, 1u, 5u, 31u}) {
    const Configuration c = initial::k_distant(32, 33, k, rng);
    EXPECT_EQ(c.agents(), 32u);
    EXPECT_EQ(k_distance(c, 32), k) << "k=" << k;
    EXPECT_EQ(c.counts[32], 0u) << "no agents in extra states";
  }
}

TEST(Initial, KDistantZeroIsValidRanking) {
  Rng rng(4);
  const Configuration c = initial::k_distant(16, 16, 0, rng);
  EXPECT_TRUE(is_valid_ranking(c, 16));
}

// k_distant as it was first written: re-home the displaced agents through
// an explicit list of the surviving ranks.  The current construction must
// make the same draws and build the same configuration.
Configuration k_distant_by_survivor_list(u64 num_ranks, u64 num_states, u64 k,
                                         Rng& rng) {
  Configuration c = initial::valid_ranking(num_ranks, num_states);
  if (k == 0) return c;
  const std::vector<u64> vacated = rng.sample_distinct(num_ranks, k);
  for (const u64 v : vacated) c.counts[v] = 0;
  std::vector<u64> occupied;
  for (u64 s = 0; s < num_ranks; ++s) {
    if (c.counts[s] != 0) occupied.push_back(s);
  }
  for (u64 i = 0; i < k; ++i) {
    ++c.counts[occupied[rng.below(occupied.size())]];
  }
  return c;
}

TEST(Initial, KDistantMatchesSurvivorListConstruction) {
  // k = n/4 and n/4 + 1 straddle sample_distinct's switch from Floyd's
  // algorithm to a partial Fisher-Yates shuffle.
  for (const u64 n : {2u, 9u, 1000u, 1056u}) {
    for (const u64 k : {u64{1}, u64{2}, n / 4, n / 4 + 1, n - 1}) {
      if (k >= n) continue;
      for (u64 seed = 0; seed < 8; ++seed) {
        Rng rng(seed);
        Rng oracle(seed);
        ASSERT_EQ(initial::k_distant(n, n + 1, k, rng).counts,
                  k_distant_by_survivor_list(n, n + 1, k, oracle).counts)
            << "n=" << n << " k=" << k << " seed " << seed;
        ASSERT_EQ(rng.bits(), oracle.bits())
            << "n=" << n << " k=" << k << " seed " << seed;
      }
    }
  }
}

TEST(Initial, AllInState) {
  const Configuration c = initial::all_in_state(9, 4, 2);
  EXPECT_EQ(c.agents(), 9u);
  EXPECT_EQ(c.counts[2], 9u);
}

TEST(Initial, PerturbedPreservesPopulation) {
  Rng rng(5);
  Configuration base = initial::valid_ranking(20, 21);
  const Configuration p = initial::perturbed(base, 7, rng);
  EXPECT_EQ(p.agents(), 20u);
}

TEST(Initial, PerturbedZeroFaultsIsIdentity) {
  Rng rng(6);
  Configuration base = initial::valid_ranking(10, 10);
  const Configuration p = initial::perturbed(base, 0, rng);
  EXPECT_EQ(p.counts, base.counts);
}

TEST(Initial, PerturbedManyFaultsActuallyMovesAgents) {
  Rng rng(7);
  Configuration base = initial::valid_ranking(50, 50);
  const Configuration p = initial::perturbed(base, 25, rng);
  EXPECT_NE(p.counts, initial::valid_ranking(50, 50).counts);
}

}  // namespace
}  // namespace pp
