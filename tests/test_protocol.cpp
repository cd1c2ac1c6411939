// The Protocol backbone's own bookkeeping: the two sum trees that read
// their leaves from counts() in place, checked against brute force after
// every kind of mutation, reset()'s by-value contract, and sibling()s that
// share the immutable tables yet run like fresh builds.
#include "core/protocol.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/initial.hpp"
#include "protocols/factory.hpp"
#include "protocols/line_of_traps.hpp"
#include "protocols/ring_of_traps.hpp"
#include "protocols/tree_ranking.hpp"
#include "rng/seed_sequence.hpp"
#include "sparse_weight_protocol.hpp"

namespace pp {
namespace {

// State of agent `target` in state order, read off the counts directly.
StateId state_of_agent(const std::vector<Count>& counts, u64 target) {
  StateId s = 0;
  while (target >= counts[s]) target -= counts[s++];
  return s;
}

// Checks `tree` against the brute-force leaf weights `w`: every internal
// entry equals the sum of its block of leaves, the total equals Σw, and
// find(t) equals a linear scan for 16 random targets, one of them in the
// last leaf node (partial when 8 does not divide the size).
template <class Leaf>
void expect_tree_matches(const SumLevels& tree, const Leaf& leaf,
                         const std::vector<u64>& w, Rng& rng,
                         const std::string& where) {
  const u64 n = w.size();
  ASSERT_EQ(tree.size(), n) << where;
  const u64 total = std::accumulate(w.begin(), w.end(), u64{0});
  ASSERT_EQ(tree.total(), total) << where;
  u64 span = 8;
  for (u32 l = 1; l < tree.levels(); ++l, span *= 8) {
    for (u64 j = 0; j * span < n; ++j) {
      const auto first = w.begin() + static_cast<std::ptrdiff_t>(j * span);
      const auto last =
          w.begin() + static_cast<std::ptrdiff_t>(std::min(n, (j + 1) * span));
      ASSERT_EQ(tree.sum(l, j), std::accumulate(first, last, u64{0}))
          << where << ": level " << l << " entry " << j;
    }
  }
  if (total == 0) return;
  const auto last_node = static_cast<std::ptrdiff_t>((n - 1) / 8 * 8);
  const u64 before_last =
      std::accumulate(w.begin(), w.begin() + last_node, u64{0});
  for (int i = 0; i < 16; ++i) {
    const u64 t = i == 0 && before_last < total
                      ? before_last + rng.below(total - before_last)
                      : rng.below(total);
    u64 s = 0;
    for (u64 below = t; below >= w[s]; below -= w[s++]) {
    }
    ASSERT_EQ(tree.find(t, leaf), s) << where << ": target " << t;
  }
}

void expect_trees_match(Protocol& p, Rng& rng, const std::string& where) {
  const std::vector<Count>& c = p.counts();
  const std::vector<u64> counts(c.begin(), c.end());
  std::vector<u64> pairs(p.num_ranks());
  for (u64 s = 0; s < pairs.size(); ++s) {
    pairs[s] = counts[s] * (counts[s] - 1);
  }
  ASSERT_NO_FATAL_FAILURE(expect_tree_matches(
      p.pair_weight_tree(), PairLeaves{c}, pairs, rng, where + " pair tree"));
  ASSERT_NO_FATAL_FAILURE(expect_tree_matches(
      p.count_levels(), Leaves{c}, counts, rng, where + " count tree"));
}

TEST(CountTrees, MatchBruteForceUnderEveryMutation) {
  for (const auto name : protocol_names()) {
    for (const u64 hint : {2, 7, 8, 9, 65, 1000}) {
      const u64 n = preferred_population(name, hint);
      ProtocolPtr p = make_protocol(name, n);
      Rng rng(derive_seed(91, name, n));
      Rng check(derive_seed(92, name, n));
      p->reset(initial::uniform_random(*p, rng));
      for (int op = 0; op < 150; ++op) {
        const std::string where = std::string(name) + " n=" +
                                  std::to_string(n) + " op " +
                                  std::to_string(op);
        switch (rng.below(5)) {
          case 0:
            if (!p->is_silent()) p->step_productive(rng);
            break;
          case 1:
            p->step_uniform(rng);
            break;
          case 2: {
            // Two distinct agents: the responder is drawn from the rest.
            std::vector<Count> rest = p->counts();
            const StateId a = state_of_agent(rest, rng.below(n));
            --rest[a];
            const StateId b = state_of_agent(rest, rng.below(n - 1));
            p->apply_pair(a, b);
            break;
          }
          case 3:
            p->move_agent(state_of_agent(p->counts(), rng.below(n)),
                          static_cast<StateId>(rng.below(p->num_states())));
            break;
          default:
            p->reset(rng.below(2) == 0
                         ? initial::uniform_random(*p, rng)
                         : initial::k_distant(*p, rng.below(p->num_ranks()),
                                              rng));
        }
        ASSERT_NO_FATAL_FAILURE(expect_trees_match(*p, check, where));
      }
    }
  }
}

TEST(ProtocolReset, LeavesAnLvalueConfigurationUnchanged) {
  ProtocolPtr p = make_protocol("ring-of-traps", 64);
  EXPECT_TRUE(p->counts().empty()) << "no configuration before reset()";
  Rng rng(93);
  const Configuration c = initial::k_distant(*p, 5, rng);
  const Configuration copy = c;
  p->reset(c);
  EXPECT_EQ(c.counts, copy.counts);
  EXPECT_EQ(p->counts(), copy.counts);
  p->step_productive(rng);
  EXPECT_EQ(c.counts, copy.counts) << "the protocol must own its counts";
}

TEST(ProtocolReset, ResetAgainMatchesAFreshReset) {
  for (const auto name : protocol_names()) {
    const u64 n = preferred_population(name, 1000);
    Rng gen(derive_seed(94, name));
    ProtocolPtr reused = make_protocol(name, n);
    ProtocolPtr fresh = make_protocol(name, n);
    const Configuration start = initial::k_distant(*reused, n / 3, gen);
    const Configuration other = initial::uniform_random(*reused, gen);
    reused->reset(start);
    reused->reset(other);
    // Bring the count tree to life on the other configuration, so the
    // next reset has to drop it.
    Rng side(derive_seed(95, name));
    for (int i = 0; i < 50; ++i) reused->step_uniform(side);
    reused->reset(start);
    fresh->reset(start);
    ASSERT_EQ(reused->counts(), fresh->counts()) << name;
    ASSERT_EQ(reused->productive_weight(), fresh->productive_weight())
        << name;
    Rng r1(derive_seed(96, name));
    Rng r2(derive_seed(96, name));
    for (int i = 0; i < 200 && !fresh->is_silent(); ++i) {
      reused->step_productive(r1);
      fresh->step_productive(r2);
      ASSERT_EQ(reused->counts(), fresh->counts()) << name << " step " << i;
    }
    EXPECT_EQ(reused->productive_weight(), fresh->productive_weight()) << name;
    EXPECT_EQ(r1.bits(), r2.bits()) << name;
  }
}

// ---- siblings ------------------------------------------------------------

// The derived class's shared geometry (layout or tree), or nullptr for a
// protocol whose only table is its rules.
const void* geometry_of(const Protocol& p) {
  if (const auto* r = dynamic_cast<const RingOfTrapsProtocol*>(&p)) {
    return &r->layout();
  }
  if (const auto* l = dynamic_cast<const LineOfTrapsProtocol*>(&p)) {
    return &l->layout();
  }
  if (const auto* t = dynamic_cast<const TreeRankingProtocol*>(&p)) {
    return &t->tree();
  }
  return nullptr;
}

struct Build {
  std::string where;
  std::function<ProtocolPtr()> fresh;
};

std::vector<Build> sibling_cases() {
  std::vector<Build> out;
  for (const auto name : protocol_names()) {
    for (const u64 hint : {9, 1000, 5000}) {
      const u64 n = preferred_population(name, hint);
      out.push_back({std::string(name) + " n=" + std::to_string(n),
                     [name, n] { return make_protocol(name, n); }});
    }
  }
  out.push_back({"single-line",
                 [] { return std::make_unique<SingleLineProtocol>(40, 4, 5); }});
  out.push_back({"sparse-weight",
                 [] { return std::make_unique<SparseWeightProtocol>(50); }});
  return out;
}

// Loads a uniform random start drawn from `seed` and runs the accelerated
// engine for at most 4n^2 interactions.
RunResult seeded_run(Protocol& p, u64 seed, Rng& rng) {
  rng = Rng(seed);
  p.reset(initial::uniform_random(p, rng));
  RunOptions opt;
  opt.max_interactions = 4 * p.num_agents() * p.num_agents();
  return run_accelerated(p, rng, opt);
}

TEST(ProtocolSibling, SharesTablesAndRunsLikeAFreshBuild) {
  for (const Build& b : sibling_cases()) {
    const ProtocolPtr prototype = b.fresh();
    const ProtocolPtr sib = prototype->sibling();
    ASSERT_NE(sib.get(), prototype.get()) << b.where;
    EXPECT_EQ(sib->name(), prototype->name()) << b.where;
    EXPECT_EQ(sib->num_agents(), prototype->num_agents()) << b.where;
    EXPECT_EQ(sib->num_states(), prototype->num_states()) << b.where;
    EXPECT_EQ(sib->rule_table(), prototype->rule_table()) << b.where;
    EXPECT_EQ(sib->rule_table()->size(), prototype->num_ranks()) << b.where;
    EXPECT_EQ(geometry_of(*sib), geometry_of(*prototype)) << b.where;
    EXPECT_TRUE(sib->counts().empty()) << b.where << ": loaded before reset";

    const ProtocolPtr fresh = b.fresh();
    EXPECT_NE(fresh->rule_table(), prototype->rule_table()) << b.where;
    for (u64 seed = 1; seed <= 3; ++seed) {
      Rng r1(0);
      Rng r2(0);
      const RunResult a = seeded_run(*sib, derive_seed(97, b.where, seed), r1);
      const RunResult f =
          seeded_run(*fresh, derive_seed(97, b.where, seed), r2);
      EXPECT_EQ(a.interactions, f.interactions) << b.where << " " << seed;
      EXPECT_EQ(a.productive_steps, f.productive_steps) << b.where;
      EXPECT_EQ(a.silent, f.silent) << b.where;
      EXPECT_EQ(a.valid, f.valid) << b.where;
      EXPECT_EQ(a.aborted, f.aborted) << b.where;
      EXPECT_EQ(a.parallel_time, f.parallel_time) << b.where;
      EXPECT_EQ(sib->counts(), fresh->counts()) << b.where << " " << seed;
      EXPECT_EQ(r1.bits(), r2.bits()) << b.where << " " << seed;
    }
    EXPECT_TRUE(prototype->counts().empty()) << b.where;
  }
}

TEST(ProtocolSibling, MutatingOneSiblingLeavesTheOtherUnchanged) {
  for (const Build& b : sibling_cases()) {
    ProtocolPtr prototype = b.fresh();
    const ProtocolPtr one = prototype->sibling();
    const ProtocolPtr two = prototype->sibling();
    Rng rng(derive_seed(98, b.where));
    const Configuration start = initial::uniform_random(*one, rng);
    one->reset(start);
    two->reset(start);
    const u64 weight = two->productive_weight();
    for (int i = 0; i < 100 && !one->is_silent(); ++i) {
      one->step_productive(rng);
      one->step_uniform(rng);
    }
    ASSERT_NE(one->counts(), start.counts) << b.where << ": nothing moved";
    EXPECT_EQ(two->counts(), start.counts) << b.where;
    EXPECT_EQ(two->productive_weight(), weight) << b.where;
    EXPECT_TRUE(prototype->counts().empty()) << b.where;
    // The siblings keep the tables alive once the prototype is gone.
    prototype.reset();
    const ProtocolPtr third = two->sibling();
    EXPECT_EQ(third->rule_table(), one->rule_table()) << b.where;
    third->reset(start);
    for (int i = 0; i < 100 && !third->is_silent(); ++i) {
      third->step_productive(rng);
    }
    EXPECT_EQ(two->counts(), start.counts) << b.where;
  }
}

}  // namespace
}  // namespace pp
