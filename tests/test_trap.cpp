// Tests of the trap vocabulary (§2.1): gaps, surplus, flat / saturated /
// full / tidy / stabilised predicates.
#include "structures/trap.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace pp {
namespace {

// counts[0] is the gate, counts[1..m] the inner states.

TEST(Trap, AgentsAndGaps) {
  const std::vector<Count> c{1, 0, 2, 0, 1};  // gate=1; inner 0,2,0,1
  EXPECT_EQ(trap::agents(c), 4u);
  EXPECT_EQ(trap::gaps(c), 2u);
}

TEST(Trap, GateDoesNotCountAsGap) {
  const std::vector<Count> c{0, 1, 1};
  EXPECT_EQ(trap::gaps(c), 0u);
}

TEST(Trap, SurplusZeroWhenUnderfull) {
  const std::vector<Count> c{0, 1, 0};  // capacity 3, 1 agent
  EXPECT_EQ(trap::surplus(c), 0u);
}

TEST(Trap, SurplusCountsBeyondCapacity) {
  const std::vector<Count> c{2, 3, 1};  // capacity 3 (m=2), 6 agents
  EXPECT_EQ(trap::surplus(c), 3u);
}

TEST(Trap, FlatMeansNoOverloadedInnerState) {
  EXPECT_TRUE(trap::is_flat(std::vector<Count>{5, 1, 0, 1}));  // gate overload ok
  EXPECT_FALSE(trap::is_flat(std::vector<Count>{0, 2, 0}));
}

TEST(Trap, SaturatedAndFull) {
  const std::vector<Count> saturated_not_full{0, 1, 1};  // 2 agents, cap 3
  EXPECT_TRUE(trap::is_saturated(saturated_not_full));
  EXPECT_FALSE(trap::is_full(saturated_not_full));

  const std::vector<Count> full{1, 1, 1};
  EXPECT_TRUE(trap::is_full(full));

  const std::vector<Count> overfull{0, 2, 1};  // 3 agents, saturated
  EXPECT_TRUE(trap::is_full(overfull));

  const std::vector<Count> gap{1, 0, 2};
  EXPECT_FALSE(trap::is_full(gap));
}

TEST(Trap, TidyRequiresOverloadsAboveGaps) {
  // Overload at inner 3, gap at inner 1 -> tidy.
  EXPECT_TRUE(trap::is_tidy(std::vector<Count>{0, 0, 1, 2}));
  // Overload at inner 1, gap at inner 3 -> not tidy.
  EXPECT_FALSE(trap::is_tidy(std::vector<Count>{0, 2, 1, 0}));
  // No overloads or no gaps -> trivially tidy.
  EXPECT_TRUE(trap::is_tidy(std::vector<Count>{0, 1, 1, 1}));
  EXPECT_TRUE(trap::is_tidy(std::vector<Count>{0, 2, 2, 2}));
}

TEST(Trap, AlmostStabilised) {
  // Exactly m+1 agents, saturated, gate empty.
  EXPECT_TRUE(trap::is_almost_stabilised(std::vector<Count>{0, 2, 1}));
  EXPECT_FALSE(trap::is_almost_stabilised(std::vector<Count>{1, 1, 1}));
  EXPECT_FALSE(trap::is_almost_stabilised(std::vector<Count>{0, 1, 1}));
}

TEST(Trap, FullyStabilised) {
  EXPECT_TRUE(trap::is_fully_stabilised(std::vector<Count>{1, 1, 1}));
  EXPECT_FALSE(trap::is_fully_stabilised(std::vector<Count>{0, 2, 1}));
  EXPECT_FALSE(trap::is_fully_stabilised(std::vector<Count>{1, 1, 2}));
}

TEST(Trap, DegenerateSingleStateTrap) {
  const std::vector<Count> c{3};
  EXPECT_EQ(trap::agents(c), 3u);
  EXPECT_EQ(trap::gaps(c), 0u);
  EXPECT_TRUE(trap::is_flat(c));
  EXPECT_TRUE(trap::is_saturated(c));
  EXPECT_EQ(trap::surplus(c), 2u);
}

}  // namespace
}  // namespace pp
