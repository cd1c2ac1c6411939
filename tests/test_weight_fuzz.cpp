// Weight-consistency fuzz across many population sizes: for every
// protocol, at many sizes and many random configurations, the optimized
// productive-weight bookkeeping must equal the brute-force count derived
// from the formal transition function δ.  This is the single strongest
// guard against bookkeeping drift anywhere in the Fenwick machinery.
//
// The mixed-path fuzz also covers the lazily built count tree: rank-only
// events run before its first use, and afterwards every mutation path
// (productive steps, uniform steps, churn-style moves) must keep it equal
// to the count vector.
#include <gtest/gtest.h>

#include <vector>

#include "core/agent_simulator.hpp"
#include "core/initial.hpp"
#include "protocols/factory.hpp"
#include "protocols/line_of_traps.hpp"
#include "protocols/tree_ranking.hpp"
#include "rng/seed_sequence.hpp"

namespace pp {
namespace {

class WeightFuzz
    : public ::testing::TestWithParam<std::tuple<std::string, u64>> {};

TEST_P(WeightFuzz, OptimizedWeightEqualsBruteForce) {
  const auto& [name, n_hint] = GetParam();
  const u64 n = preferred_population(name, n_hint);
  ProtocolPtr p = make_protocol(name, n);
  Rng rng(derive_seed(71, name, n));
  for (int trial = 0; trial < 25; ++trial) {
    p->reset(initial::uniform_random(*p, rng));
    ASSERT_EQ(p->productive_weight(),
              reference_productive_weight(*p, p->counts()))
        << name << " n=" << n << " trial " << trial;
    // Also check mid-trajectory after a few productive steps.
    for (int s = 0; s < 8 && !p->is_silent(); ++s) p->step_productive(rng);
    ASSERT_EQ(p->productive_weight(),
              reference_productive_weight(*p, p->counts()));
  }
}

std::string label(
    const ::testing::TestParamInfo<std::tuple<std::string, u64>>& info) {
  std::string s =
      std::get<0>(info.param) + "_n" + std::to_string(std::get<1>(info.param));
  for (char& c : s) {
    if (c == '-') c = '_';
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndProtocols, WeightFuzz,
    ::testing::Combine(::testing::Values(std::string("ag"),
                                         std::string("ring-of-traps"),
                                         std::string("line-of-traps"),
                                         std::string("tree-ranking")),
                       ::testing::Values<u64>(2, 3, 5, 8, 13, 21, 34, 55,
                                              89, 144)),
    label);

TEST(WeightFuzz, ModifiedTreeProtocolToo) {
  TreeRankingProtocol p(40, 4, TreeRankingProtocol::ResetMode::kModified);
  Rng rng(72);
  for (int trial = 0; trial < 25; ++trial) {
    p.reset(initial::uniform_random(p, rng));
    ASSERT_EQ(p.productive_weight(),
              reference_productive_weight(p, p.counts()));
  }
}

TEST(WeightFuzz, SingleLineToo) {
  SingleLineProtocol p(12, 3, 2);
  Rng rng(73);
  for (int trial = 0; trial < 25; ++trial) {
    p.reset(initial::uniform_random(p, rng));
    ASSERT_EQ(p.productive_weight(),
              reference_productive_weight(p, p.counts()));
  }
}

TEST(WeightFuzz, UniformStepPreservesConsistencyToo) {
  // The uniform-step path mutates through apply_cross; fuzz it as well.
  for (const auto name : protocol_names()) {
    const u64 n = preferred_population(name, 72);
    ProtocolPtr p = make_protocol(name, n);
    Rng rng(derive_seed(74, name));
    p->reset(initial::uniform_random(*p, rng));
    for (int s = 0; s < 500 && !p->is_silent(); ++s) {
      p->step_uniform(rng);
    }
    ASSERT_EQ(p->productive_weight(),
              reference_productive_weight(*p, p->counts()))
        << name;
  }
}

// State of agent `target` under the canonical count ordering, read off the
// count vector directly.
StateId canonical_agent_state(const std::vector<u64>& counts, u64 target) {
  StateId s = 0;
  while (target >= counts[s]) target -= counts[s++];
  return s;
}

void expect_consistent(Protocol& p, const std::string& where) {
  ASSERT_EQ(p.productive_weight(), reference_productive_weight(p, p.counts()))
      << where;
  const std::vector<u64>& counts = p.counts();
  for (u64 t = 0; t < p.num_agents(); ++t) {
    ASSERT_EQ(p.uniform_agent_state(t), canonical_agent_state(counts, t))
        << where << " agent " << t;
  }
}

TEST(WeightFuzz, MixedPathsKeepEveryTreeConsistent) {
  for (const auto name : protocol_names()) {
    for (const u64 hint : {2, 5, 13, 34, 72, 150}) {
      const u64 n = preferred_population(name, hint);
      ProtocolPtr p = make_protocol(name, n);
      Rng rng(derive_seed(75, name, n));
      for (int trial = 0; trial < 6; ++trial) {
        p->reset(initial::uniform_random(*p, rng));
        // Rank-only events first, so the count tree is built from a
        // configuration the productive path has already moved.
        const u64 warmup = rng.below(8);
        for (u64 s = 0; s < warmup && !p->is_silent(); ++s) {
          p->step_productive(rng);
          ASSERT_EQ(p->productive_weight(),
                    reference_productive_weight(*p, p->counts()));
        }
        for (int op = 0; op < 60; ++op) {
          const std::string where = std::string(name) + " n=" +
                                    std::to_string(n) + " trial " +
                                    std::to_string(trial) + " op " +
                                    std::to_string(op);
          switch (rng.below(4)) {
            case 0:
              if (!p->is_silent()) p->step_productive(rng);
              break;
            case 1:
              p->step_uniform(rng);
              break;
            case 2: {
              const StateId from =
                  canonical_agent_state(p->counts(), rng.below(n));
              const auto to = static_cast<StateId>(rng.below(p->num_states()));
              p->move_agent(from, to);
              p->commit_moves();
              break;
            }
            default: {
              const u64 t = rng.below(n);
              ASSERT_EQ(p->uniform_agent_state(t),
                        canonical_agent_state(p->counts(), t))
                  << where;
            }
          }
          ASSERT_NO_FATAL_FAILURE(expect_consistent(*p, where));
        }
      }
    }
  }
}

}  // namespace
}  // namespace pp
