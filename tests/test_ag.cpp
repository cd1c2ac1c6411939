// Tests of the AG baseline protocol: rule semantics, silence <=> valid
// ranking, stabilisation from assorted starts, and the Θ(n^2) growth trend.
#include "protocols/ag.hpp"

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "core/initial.hpp"

namespace pp {
namespace {

TEST(Ag, Dimensions) {
  AgProtocol p(10);
  EXPECT_EQ(p.num_agents(), 10u);
  EXPECT_EQ(p.num_ranks(), 10u);
  EXPECT_EQ(p.num_extra_states(), 0u);
  EXPECT_EQ(p.name(), "ag");
}

TEST(Ag, ValidRankingIsSilent) {
  AgProtocol p(8);
  p.reset(initial::valid_ranking(p));
  EXPECT_TRUE(p.is_silent());
  EXPECT_TRUE(p.is_valid_ranking());
  EXPECT_EQ(p.productive_weight(), 0u);
}

TEST(Ag, SameStateRuleMovesResponderForward) {
  AgProtocol p(5);
  Configuration c = initial::valid_ranking(p);
  c.counts[2] = 3;  // 3 agents at rank 2 (plus ranks 0,1,3,4 -> 7 agents)
  c.counts[3] = 0;
  c.counts[4] = 0;  // keep population n = 5: {1,1,3,0,0}
  p.reset(c);
  // Only state 2 has a productive pair: weight 3*2 = 6.
  EXPECT_EQ(p.productive_weight(), 6u);
  Rng rng(1);
  p.step_productive(rng);
  EXPECT_EQ(p.counts()[2], 2u);
  EXPECT_EQ(p.counts()[3], 1u);
}

TEST(Ag, WrapAroundAtRankNMinus1) {
  AgProtocol p(4);
  p.reset(Configuration(std::vector<Count>{0, 1, 1, 2}));
  Rng rng(2);
  p.step_productive(rng);
  EXPECT_EQ(p.counts()[3], 1u);
  EXPECT_EQ(p.counts()[0], 1u) << "responder wraps to rank 0";
  EXPECT_TRUE(p.is_silent());
  EXPECT_TRUE(p.is_valid_ranking());
}

TEST(Ag, StabilisesFromAllInOneState) {
  AgProtocol p(16);
  p.reset(initial::all_in_state(p, 5));
  Rng rng(3);
  const RunResult r = run_accelerated(p, rng);
  EXPECT_TRUE(r.silent);
  EXPECT_TRUE(r.valid);
  EXPECT_GT(r.interactions, 0u);
}

TEST(Ag, StabilisesFromUniformRandom) {
  for (const u64 seed : {1u, 2u, 3u}) {
    AgProtocol p(32);
    Rng rng(seed);
    p.reset(initial::uniform_random(p, rng));
    const RunResult r = run_accelerated(p, rng);
    EXPECT_TRUE(r.silent);
    EXPECT_TRUE(r.valid);
  }
}

TEST(Ag, InteractionsEqualNTimesParallelTime) {
  AgProtocol p(10);
  Rng rng(4);
  p.reset(initial::all_in_state(p, 0));
  const RunResult r = run_accelerated(p, rng);
  EXPECT_DOUBLE_EQ(r.parallel_time * 10.0,
                   static_cast<double>(r.interactions));
}

TEST(Ag, QuadraticTrend) {
  // Mean stabilisation time at 2n should be roughly 4x that at n — allow a
  // factor-2 band around the Θ(n^2) prediction.
  auto mean_time = [](u64 n) {
    double sum = 0;
    const int kTrials = 5;
    for (int t = 0; t < kTrials; ++t) {
      AgProtocol p(n);
      Rng rng(100 + static_cast<u64>(t));
      p.reset(initial::uniform_random(p, rng));
      sum += run_accelerated(p, rng).parallel_time;
    }
    return sum / kTrials;
  };
  const double t64 = mean_time(64);
  const double t128 = mean_time(128);
  EXPECT_GT(t128 / t64, 2.0);
  EXPECT_LT(t128 / t64, 8.0);
}

TEST(Ag, BudgetIsHonoured) {
  AgProtocol p(64);
  Rng rng(5);
  p.reset(initial::all_in_state(p, 0));
  RunOptions opt;
  opt.max_interactions = 100;
  const RunResult r = run_accelerated(p, rng, opt);
  EXPECT_LE(r.interactions, 100u);
  EXPECT_FALSE(r.silent);
}

}  // namespace
}  // namespace pp
