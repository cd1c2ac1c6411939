// Tests for the protocol factory and population-size snapping.
#include "protocols/factory.hpp"

#include <gtest/gtest.h>

#include "structures/line_layout.hpp"

namespace pp {
namespace {

TEST(Factory, MakesEveryListedProtocol) {
  for (const auto name : protocol_names()) {
    const u64 n = preferred_population(name, 100);
    ProtocolPtr p = make_protocol(name, n);
    ASSERT_NE(p, nullptr) << name;
    EXPECT_EQ(p->name(), name);
    EXPECT_EQ(p->num_agents(), n);
    EXPECT_EQ(p->num_ranks(), n);
  }
}

// n(n - 1) past the sum trees' bound is rejected by every shape builder
// before it allocates anything O(n): at n = 2^32 a table built first would
// ask for tens of GB (and an ag rule loop over 32-bit state ids would not
// end), so only an early check lets this test finish.
TEST(FactoryDeathTest, RejectsOversizedPopulationsBeforeBuilding) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const auto name : protocol_names()) {
    EXPECT_DEATH(make_protocol(name, u64{1} << 32), "population too large")
        << name;
  }
}

TEST(Factory, BaselineIsListedFirst) {
  EXPECT_EQ(protocol_names().front(), "ag");
  EXPECT_EQ(protocol_names().size(), 4u);
}

TEST(Factory, MinPopulations) {
  EXPECT_EQ(min_population("ag"), 2u);
  EXPECT_EQ(min_population("ring-of-traps"), 2u);
  EXPECT_EQ(min_population("tree-ranking"), 2u);
  EXPECT_EQ(min_population("line-of-traps"), 72u);
}

TEST(Factory, PreferredPopulationIsIdentityForMostProtocols) {
  EXPECT_EQ(preferred_population("ag", 1000), 1000u);
  EXPECT_EQ(preferred_population("ring-of-traps", 999), 999u);
  EXPECT_EQ(preferred_population("tree-ranking", 12345), 12345u);
}

TEST(Factory, PreferredPopulationClampsToMinimum) {
  EXPECT_EQ(preferred_population("ag", 0), 2u);
  EXPECT_EQ(preferred_population("line-of-traps", 10), 72u);
}

TEST(Factory, LineSnapsToNearestCanonicalSize) {
  // canonical sizes: 72 (m=2), 960 (m=4), 4536 (m=6), 13824 (m=8)...
  EXPECT_EQ(preferred_population("line-of-traps", 72), 72u);
  EXPECT_EQ(preferred_population("line-of-traps", 100), 72u);
  EXPECT_EQ(preferred_population("line-of-traps", 900), 960u);
  EXPECT_EQ(preferred_population("line-of-traps", 960), 960u);
  EXPECT_EQ(preferred_population("line-of-traps", 3000), 4536u);
  EXPECT_EQ(preferred_population("line-of-traps", 5000), 4536u);
}

TEST(Factory, SnappedSizesAreConstructible) {
  for (const u64 hint : {2u, 50u, 73u, 500u, 2000u}) {
    for (const auto name : protocol_names()) {
      const u64 n = preferred_population(name, hint);
      EXPECT_NE(make_protocol(name, n), nullptr)
          << name << " hint " << hint << " -> " << n;
    }
  }
}

TEST(Factory, CanonicalLineSizesMatchFormula) {
  for (const u64 m : {2u, 4u, 6u, 8u}) {
    EXPECT_EQ(LineLayout::canonical_n(m), 3 * m * m * m * (m + 1));
  }
}

}  // namespace
}  // namespace pp
