// Unit tests for Configuration and its metrics.
#include "core/configuration.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace pp {
namespace {

TEST(Configuration, AgentsSumsCounts) {
  Configuration c(std::vector<Count>{1, 0, 3, 2});
  EXPECT_EQ(c.agents(), 6u);
  EXPECT_EQ(c.num_states(), 4u);
}

TEST(Configuration, FromAgentStatesRoundTrip) {
  const std::vector<StateId> agents{0, 2, 2, 5, 1};
  const Configuration c = Configuration::from_agent_states(agents, 6);
  EXPECT_EQ(c.counts, (std::vector<Count>{1, 1, 2, 0, 0, 1}));
  const auto back = c.to_agent_states();
  EXPECT_EQ(back, (std::vector<StateId>{0, 1, 2, 2, 5}));
}

TEST(Configuration, KDistance) {
  // 5 ranks + 1 extra state; ranks 1 and 3 are empty.
  Configuration c(std::vector<Count>{1, 0, 2, 0, 1, 1});
  EXPECT_EQ(k_distance(c, 5), 2u);
  EXPECT_EQ(k_distance(c, 6), 2u);  // extra state occupied
}

TEST(Configuration, ValidRankingRequiresExactlyOneEverywhere) {
  Configuration good(std::vector<Count>{1, 1, 1, 0});
  EXPECT_TRUE(is_valid_ranking(good, 3));

  Configuration doubled(std::vector<Count>{2, 1, 0, 0});
  EXPECT_FALSE(is_valid_ranking(doubled, 3));

  Configuration in_extra(std::vector<Count>{1, 1, 0, 1});
  EXPECT_FALSE(is_valid_ranking(in_extra, 3));
}

TEST(Configuration, ValidRankingIsZeroDistant) {
  Configuration good(std::vector<Count>{1, 1, 1});
  EXPECT_EQ(k_distance(good, 3), 0u);
}

}  // namespace
}  // namespace pp
