// The pair-sampler layer (schedulers/pair_sampler.hpp).
//
// The load-bearing guarantees:
//   * PairSampler weight / productivity bookkeeping: the productive tree
//     always equals the base tree masked to the flagged pairs, through any
//     interleaving of set_weight and set_productive (including flags set
//     while the weight is 0 — the dense edge-Markovian reference leans on
//     that), and productive sampling is weight-proportional and never
//     returns an unproductive pair;
//   * DirectedEdgeSampler mirrors the protocol: its roster's productive
//     total counts exactly the directed edges whose endpoints δ would
//     change, each flag agrees with δ, the scheduling total stays 2|E|,
//     and fire() keeps all of that in sync with apply_pair;
//   * DirectedPairRoster compacts, grows and keeps its flag tree equal to
//     a brute-force flag array under random add/remove/set_flag.
#include "schedulers/pair_sampler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/initial.hpp"
#include "protocols/ag.hpp"
#include "structures/interaction_graph.hpp"

namespace pp {
namespace {

TEST(PairSampler, WeightAndProductivityBookkeeping) {
  PairSampler s;
  s.reset(std::vector<u64>(8, 0), std::vector<u8>(8, 0));
  EXPECT_EQ(s.weight_total(), 0u);
  EXPECT_EQ(s.productive_total(), 0u);
  EXPECT_EQ(s.productive_probability(), 0.0);

  s.set_weight(0, 3);
  s.set_weight(1, 5);
  EXPECT_EQ(s.weight_total(), 8u);
  EXPECT_EQ(s.productive_total(), 0u);  // nothing flagged yet

  s.set_productive(1, true);
  EXPECT_EQ(s.productive_total(), 5u);
  EXPECT_DOUBLE_EQ(s.productive_probability(), 5.0 / 8.0);

  // Weight changes follow the flag.
  s.set_weight(1, 2);
  EXPECT_EQ(s.weight_total(), 5u);
  EXPECT_EQ(s.productive_total(), 2u);

  // Flags survive a weight of 0: an edge death followed by a rebirth
  // restores the right productive mass without re-testing δ.
  s.set_weight(1, 0);
  EXPECT_EQ(s.productive_total(), 0u);
  s.set_weight(1, 7);
  EXPECT_EQ(s.productive_total(), 7u);

  // Flagging a zero-weight pair contributes nothing until weight arrives.
  s.set_productive(4, true);
  EXPECT_EQ(s.productive_total(), 7u);
  s.set_weight(4, 1);
  EXPECT_EQ(s.productive_total(), 8u);

  s.set_productive(1, false);
  EXPECT_EQ(s.productive_total(), 1u);
  EXPECT_EQ(s.weight_total(), 11u);

  // The bulk build masks the weights to the flags the same way.
  s.reset({1, 0, 3, 6}, {1, 1, 0, 1});
  EXPECT_EQ(s.weight_total(), 10u);
  EXPECT_EQ(s.productive_total(), 7u);
  s.set_weight(1, 4);  // flagged while its weight was 0
  EXPECT_EQ(s.productive_total(), 11u);
}

TEST(PairSampler, ProductiveSamplingIsWeightProportional) {
  PairSampler s;
  s.reset({1, 0, 3, 6}, {1, 0, 0, 1});

  Rng rng(123);
  const int kDraws = 20000;
  int prod_count[4] = {0, 0, 0, 0};
  for (int i = 0; i < kDraws; ++i) ++prod_count[s.sample_productive(rng)];
  // Productive draws only hit the flagged ids, at ratio 1 : 6.
  EXPECT_EQ(prod_count[1] + prod_count[2], 0);
  EXPECT_NEAR(static_cast<double>(prod_count[0]) / kDraws, 1.0 / 7.0, 0.02);
  EXPECT_NEAR(static_cast<double>(prod_count[3]) / kDraws, 6.0 / 7.0, 0.02);
}

TEST(DirectedEdgeSampler, TracksProtocolProductivityOnCompleteGraph) {
  // On the complete graph every productive ordered *agent* pair is a
  // productive directed edge, so the sampler's productive total must
  // equal the protocol's productive weight — and stay equal through a
  // whole run of fire() steps.
  const u64 n = 12;
  AgProtocol p(n);
  Rng rng(7);
  p.reset(initial::uniform_random(p, rng));
  const InteractionGraph g = InteractionGraph::complete(n);
  DirectedEdgeSampler es(g, p, p.configuration().to_agent_states());

  while (es.productive_total() != 0) {
    EXPECT_EQ(es.productive_total(), p.productive_weight());
    EXPECT_EQ(es.weight_total(), n * (n - 1));
    es.fire(p, rng);
  }
  EXPECT_TRUE(p.is_silent());
  EXPECT_TRUE(p.is_valid_ranking());
}

TEST(DirectedEdgeSampler, SparseGraphIntersectsProductiveWeight) {
  // On a sparse graph the productive-edge weight is the protocol's
  // productive weight *intersected* with the edge set: recount it from
  // scratch against δ after every step.
  const u64 n = 10;
  for (const InteractionGraph& g :
       {InteractionGraph::cycle(n), InteractionGraph::path(n),
        InteractionGraph::random_regular(n, 4, /*seed=*/5)}) {
    AgProtocol p(n);
    Rng rng(11);
    p.reset(initial::uniform_random(p, rng));
    DirectedEdgeSampler es(g, p, p.configuration().to_agent_states());

    for (int step = 0; step < 100 && es.productive_total() != 0; ++step) {
      EXPECT_EQ(es.weight_total(), 2 * g.num_edges()) << g.description();
      u64 recount = 0;
      for (u64 d = 0; d < 2 * g.num_edges(); ++d) {
        recount += es.is_productive(d) ? 1 : 0;
        EXPECT_EQ(es.productive(d), es.is_productive(d))
            << g.description() << " " << d;
      }
      EXPECT_EQ(es.productive_total(), recount) << g.description();
      EXPECT_LE(recount, p.productive_weight()) << g.description();
      es.fire(p, rng);
    }
  }
}

// ---- DistanceKernel edge geometry -----------------------------------------

TEST(DistanceKernel, TinyPopulationsAndSeams) {
  // n = 2 ring: one distance, one partner each way.
  DistanceKernel two(DistanceKernel::Geometry::kRing, 2, {5});
  EXPECT_EQ(two.weight(0, 1), 5u);
  EXPECT_EQ(two.row_total(0), 5u);
  EXPECT_EQ(two.total(), 10u);

  // Even ring: the antipodal partner is counted exactly once per row.
  DistanceKernel ring(DistanceKernel::Geometry::kRing, 6, {9, 3, 1});
  EXPECT_EQ(ring.weight(0, 3), 1u);   // antipodal, d = 3
  EXPECT_EQ(ring.weight(0, 5), 9u);   // d = 1 across the seam
  EXPECT_EQ(ring.row_total(0), 9 + 9 + 3 + 3 + 1u);
  EXPECT_EQ(ring.total(), 6 * 25u);

  // Line: boundary rows see one arm only.
  DistanceKernel line(DistanceKernel::Geometry::kLine, 4, {7, 2, 1});
  EXPECT_EQ(line.row_total(0), 7 + 2 + 1u);
  EXPECT_EQ(line.row_total(1), 7 + 7 + 2u);
  EXPECT_EQ(line.total(), 10 + 16 + 16 + 10u);
}

TEST(DistanceKernel, PartnerSamplingStaysInRangeAndProportional) {
  DistanceKernel ring(DistanceKernel::Geometry::kRing, 5, {4, 1});
  Rng rng(99);
  std::vector<u64> hits(5, 0);
  const u64 kSamples = 20000;
  for (u64 t = 0; t < kSamples; ++t) {
    const u64 j = ring.sample_partner(rng, 2);
    ASSERT_NE(j, 2u);
    ASSERT_LT(j, 5u);
    ++hits[j];
  }
  // Row 2's partners: d=1 -> {1, 3} at weight 4, d=2 -> {0, 4} at 1.
  const double unit = static_cast<double>(kSamples) / 10.0;
  EXPECT_NEAR(static_cast<double>(hits[1]), 4 * unit, 5 * std::sqrt(4 * unit));
  EXPECT_NEAR(static_cast<double>(hits[3]), 4 * unit, 5 * std::sqrt(4 * unit));
  EXPECT_NEAR(static_cast<double>(hits[0]), unit, 5 * std::sqrt(unit));
  EXPECT_NEAR(static_cast<double>(hits[4]), unit, 5 * std::sqrt(unit));
}

// Boundary pin at n = 10^5 for the kernel's index arithmetic (the
// hardened -Wconversion/-Wsign-conversion sweep owns this code; a signed
// intermediate or narrowed distance would first go wrong at scale, on the
// seam and antipodal rows, not at the n <= 6 sizes above).
TEST(DistanceKernel, IndexArithmeticAtHundredThousand) {
  const u64 n = 100000;
  const u64 half = n / 2;
  std::vector<u64> decay(half);
  for (u64 d = 1; d <= half; ++d) decay[d - 1] = (d % 7) + 1;
  DistanceKernel ring(DistanceKernel::Geometry::kRing, n, decay);

  // Seam and antipode: weight(i, j) must reduce the ring distance the
  // same way on both sides of the wrap.
  EXPECT_EQ(ring.weight(0, n - 1), decay[0]);       // d = 1 across the seam
  EXPECT_EQ(ring.weight(0, half), decay[half - 1]); // antipodal
  EXPECT_EQ(ring.weight(n - 1, 0), decay[0]);
  EXPECT_EQ(ring.weight(half - 1, n - 1), decay[half - 1]);

  // Row marginal: every d < n/2 contributes two partners, the antipode
  // one; identical for an interior row and the wrap-around rows.
  u64 expect_row = decay[half - 1];
  for (u64 d = 1; d < half; ++d) expect_row += 2 * decay[d - 1];
  EXPECT_EQ(ring.row_total(0), expect_row);
  EXPECT_EQ(ring.row_total(n - 1), expect_row);
  EXPECT_EQ(ring.row_total(half), expect_row);
  EXPECT_EQ(ring.total(), n * expect_row);

  // Sampled partners from the extreme rows stay in [0, n) and never
  // return the row itself.
  Rng rng(7);
  for (const u64 i : {u64{0}, n - 1, half}) {
    for (int t = 0; t < 200; ++t) {
      const u64 j = ring.sample_partner(rng, i);
      ASSERT_LT(j, n);
      ASSERT_NE(j, i);
    }
  }

  // Line geometry at the same scale: the first/last rows see one arm.
  DistanceKernel line(DistanceKernel::Geometry::kLine, n,
                      std::vector<u64>(n - 1, 1));
  EXPECT_EQ(line.row_total(0), n - 1);
  EXPECT_EQ(line.row_total(n - 1), n - 1);
  EXPECT_EQ(line.weight(0, n - 1), 1u);
}

TEST(DistanceKernelDeathTest, RejectsMalformedProfiles) {
  EXPECT_DEATH(DistanceKernel(DistanceKernel::Geometry::kRing, 8, {1, 2}),
               "profile length");
  EXPECT_DEATH(DistanceKernel(DistanceKernel::Geometry::kLine, 4, {1, 0, 1}),
               "positive");
  // 63-bit overflow: four weights near u64 max.
  EXPECT_DEATH(DistanceKernel(DistanceKernel::Geometry::kLine, 5,
                              std::vector<u64>(4, ~u64{0} / 2)),
               "63-bit");
}

// ---- DirectedPairRoster ---------------------------------------------------

TEST(DirectedPairRoster, AddRemoveCompactionAndGrowth) {
  DirectedPairRoster roster(/*initial_capacity=*/4);
  EXPECT_EQ(roster.size(), 0u);
  EXPECT_EQ(roster.weight_total(), 0u);

  // Fill past the initial capacity to force a growth rebuild.
  for (u64 e = 0; e < 10; ++e) {
    EXPECT_EQ(roster.add(/*fwd=*/e % 2 == 0, /*rev=*/false), e);
  }
  EXPECT_EQ(roster.size(), 10u);
  EXPECT_GE(roster.capacity(), 10u);
  EXPECT_EQ(roster.weight_total(), 20u);   // two unit slots per entry
  EXPECT_EQ(roster.productive_total(), 5u);  // even entries, forward only

  // Remove a middle entry: the back entry's flags must travel into the
  // hole, and the totals must drop by exactly one entry's contribution.
  // Entry 9 (odd: unproductive) swap-fills slot 2 (even: productive).
  EXPECT_EQ(roster.remove(2), 9u);
  EXPECT_EQ(roster.size(), 9u);
  EXPECT_EQ(roster.weight_total(), 18u);
  EXPECT_EQ(roster.productive_total(), 4u);

  // Removing the back entry moves nothing (entry 8 was productive, so the
  // productive total drops with it).
  EXPECT_EQ(roster.remove(8), DirectedPairRoster::kNoEntry);
  EXPECT_EQ(roster.size(), 8u);
  EXPECT_EQ(roster.productive_total(), 3u);

  // Flags are per live entry and orientation.
  roster.set_flag(1, 1, true);
  EXPECT_EQ(roster.productive_total(), 4u);
  roster.set_flag(1, 1, false);
  EXPECT_EQ(roster.productive_total(), 3u);

  // Productive sampling only returns live, flagged slots.
  Rng rng(3);
  for (int t = 0; t < 200; ++t) {
    const auto [e, orient] = roster.sample_productive(rng);
    EXPECT_LT(e, roster.size());
    EXPECT_EQ(orient, 0u);      // only forward orientations are flagged
    EXPECT_EQ(e % 2, 0u);       // surviving productive entries are even
  }
}

TEST(DirectedPairRoster, MatchesBruteForceFlagsUnderRandomOps) {
  // Random adds, removes and flag flips from capacity 4, in phases that
  // grow the roster well past it and shrink it back, against a plain flag
  // array (two per live entry) that swap-removes the same way.  After
  // every op the totals, the probability and a productive sample (the
  // same below() target drawn from a copy of the generator) must agree.
  DirectedPairRoster roster(/*initial_capacity=*/4);
  std::vector<u8> flags;
  Rng ops(41);
  Rng draws(42);
  u64 most_capacity = roster.capacity();
  for (u64 step = 0; step < 6000; ++step) {
    const bool growing = (step / 1000) % 2 == 0;
    const u64 size = flags.size() / 2;
    const u64 r = ops.below(10);
    if (size == 0 || r < (growing ? 5u : 2u)) {
      const bool fwd = ops.bernoulli(0.4);
      const bool rev = ops.bernoulli(0.4);
      ASSERT_EQ(roster.add(fwd, rev), size);
      flags.push_back(fwd ? 1 : 0);
      flags.push_back(rev ? 1 : 0);
    } else if (r < 7) {
      const u64 e = ops.below(size);
      const u64 back = size - 1;
      ASSERT_EQ(roster.remove(e),
                e != back ? back : DirectedPairRoster::kNoEntry);
      flags[2 * e] = flags[2 * back];
      flags[2 * e + 1] = flags[2 * back + 1];
      flags.resize(2 * back);
    } else {
      const u64 e = ops.below(size);
      const u64 orient = ops.below(2);
      const bool on = ops.bernoulli(0.5);
      roster.set_flag(e, orient, on);
      flags[2 * e + orient] = on ? 1 : 0;
    }
    most_capacity = std::max(most_capacity, roster.capacity());

    u64 productive = 0;
    for (const u8 f : flags) productive += f;
    ASSERT_EQ(roster.size(), flags.size() / 2) << step;
    ASSERT_EQ(roster.weight_total(), flags.size()) << step;
    ASSERT_EQ(roster.productive_total(), productive) << step;
    ASSERT_EQ(roster.productive_probability(),
              flags.empty() ? 0.0
                            : static_cast<double>(productive) /
                                  static_cast<double>(flags.size()))
        << step;
    if (productive == 0) continue;
    Rng copy = draws;
    const u64 target = copy.below(productive);
    u64 slot = 0;
    for (u64 seen = 0;; ++slot) {
      if (flags[slot] != 0 && seen++ == target) break;
    }
    const auto [e, orient] = roster.sample_productive(draws);
    ASSERT_EQ(2 * e + orient, slot) << step;
    ASSERT_EQ(draws.bits(), copy.bits()) << step;
  }
  EXPECT_GE(most_capacity, 256u);
}

}  // namespace
}  // namespace pp
