// The hierarchical sampler layer (schedulers/pair_sampler.hpp:
// DistanceKernel + GroupedKernelSampler, and the sparse edge-Markovian
// path built on DirectedPairRoster) cross-validated against the dense
// Θ(n²) reference implementations it replaced.
//
// The load-bearing guarantees:
//   * the closed-form kernel agrees with the dense kernel table slot for
//     slot (weights, row marginals, grand total) — exact equality, every
//     geometry and power;
//   * weight-proportional pair sampling from the closed form matches the
//     exact dense distribution (chi-squared goodness of fit, ring-decay);
//   * the grouped productive mass equals the dense productive scan
//     exactly on live mid-run configurations, and productive sampling
//     matches the exact productive distribution (chi-squared);
//   * the sparse edge-Markovian path is distributionally indistinguishable
//     from the dense reference: the state pair fired first has the same
//     distribution (two-sample chi-squared) and full-run stabilisation
//     statistics agree;
//   * the hierarchical structures at n = 10^5 are O(n)-sized and
//     budget-capped runs complete — the memory-shape assertion that the
//     Θ(n²) universe is really gone (a dense build at this size would
//     need ~10^10 slots);
//   * fixed-seed trajectories through both new paths are pinned, so an
//     accidental change to their rng consumption shows up as a literal
//     diff, not a silent distribution shift.
#include "schedulers/pair_sampler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/initial.hpp"
#include "protocols/ag.hpp"
#include "protocols/factory.hpp"
#include "schedulers/dynamic_graph.hpp"
#include "schedulers/scheduler.hpp"
#include "schedulers/weighted.hpp"
#include "structures/ring_layout.hpp"

namespace pp {
namespace {

// Normal-approximation z-score of a chi-squared statistic: X² over df
// degrees of freedom has mean df and variance 2 df, so |z| < 6 is a
// deterministic-seed-safe acceptance band.
double chi2_z(double x2, double df) { return (x2 - df) / std::sqrt(2 * df); }

// ---- DistanceKernel vs the dense kernel table -----------------------------

TEST(DistanceKernel, MatchesDenseKernelTableExactly) {
  for (const WeightKernel kernel :
       {WeightKernel::kUniform, WeightKernel::kRingDecay,
        WeightKernel::kLineDecay}) {
    for (const u64 power : {u64{1}, u64{2}}) {
      for (const u64 n : {u64{2}, u64{3}, u64{16}, u64{17}}) {
        const WeightedScheduler sched(kernel, power);
        const DistanceKernel k = sched.distance_kernel(n);
        const std::vector<u64> table = sched.kernel_table(n);
        u64 total = 0;
        for (u64 i = 0; i < n; ++i) {
          u64 row = 0;
          for (u64 j = 0; j < n; ++j) {
            if (i == j) continue;
            EXPECT_EQ(k.weight(i, j), table[i * n + j])
                << "kernel " << static_cast<int>(kernel) << "^" << power
                << " n=" << n << " (" << i << "," << j << ")";
            row += table[i * n + j];
          }
          EXPECT_EQ(k.row_total(i), row) << "row " << i << " n=" << n;
          total += row;
        }
        EXPECT_EQ(k.total(), total);
      }
    }
  }
}

TEST(DistanceKernel, PairSamplingMatchesDenseDistribution) {
  // Chi-squared goodness of fit of sample_pair against the exact dense
  // probabilities, on the steepest standard kernel (ring-decay spans a
  // 32x weight ratio at n = 64).
  const u64 n = 64;
  const WeightedScheduler sched(WeightKernel::kRingDecay);
  const DistanceKernel k = sched.distance_kernel(n);
  const std::vector<u64> table = sched.kernel_table(n);
  const double total = static_cast<double>(k.total());

  const u64 kSamples = 200000;
  std::vector<u64> hits(n * n, 0);
  Rng rng(1234);
  for (u64 s = 0; s < kSamples; ++s) {
    const auto [i, j] = k.sample_pair(rng);
    ASSERT_NE(i, j);
    ++hits[i * n + j];
  }
  double x2 = 0;
  double df = -1;  // totals match by construction
  for (u64 id = 0; id < n * n; ++id) {
    if (table[id] == 0) {
      EXPECT_EQ(hits[id], 0u);  // diagonal must never be sampled
      continue;
    }
    const double expected =
        static_cast<double>(kSamples) * static_cast<double>(table[id]) / total;
    ASSERT_GE(expected, 5.0);  // keep the chi-squared approximation honest
    const double d = static_cast<double>(hits[id]) - expected;
    x2 += d * d / expected;
    df += 1;
  }
  EXPECT_LT(std::fabs(chi2_z(x2, df)), 6.0) << "x2=" << x2 << " df=" << df;
}

// ---- GroupedKernelSampler vs the dense productive scan --------------------

TEST(GroupedKernelSampler, ProductiveMassMatchesDenseScanExactly) {
  // On a live mid-run configuration, the grouped productive total must
  // equal the dense path's pair-by-pair productive scan to the unit — the
  // two paths maintain the same quantity through different bookkeeping.
  const u64 n = 96;
  const WeightedScheduler sched(WeightKernel::kRingDecay);
  const DistanceKernel k = sched.distance_kernel(n);
  AgProtocol p(n);
  Rng rng(77);
  p.reset(initial::uniform_random(p, rng));
  std::vector<StateId> placement = p.configuration().to_agent_states();
  rng.shuffle(placement);
  GroupedKernelSampler gs(k, p, placement);

  for (int round = 0; round < 25; ++round) {
    u64 dense_total = 0;
    const std::vector<StateId>& s = gs.states();
    for (u64 i = 0; i < n; ++i) {
      for (u64 j = 0; j < n; ++j) {
        if (i != j && pair_is_productive(p, s[i], s[j])) {
          dense_total += k.weight(i, j);
        }
      }
    }
    ASSERT_EQ(gs.productive_total(), dense_total) << "round " << round;
    if (gs.productive_total() == 0) break;
    const auto [i, j] = gs.sample_productive(rng);
    gs.fire(p, i, j);
  }
}

TEST(GroupedKernelSampler, GroupMassesHoldThroughLargeGroupChurn) {
  // Tree-ranking from all-in starts piles every agent into one rank group,
  // so fires swap-remove members from the middle of large groups.  After
  // every fire, each rank state's stored mass must equal the brute-force
  // Σ_{x<y} 2 w(x, y) over its current members.
  const u64 n = 72;
  const WeightedScheduler sched(WeightKernel::kRingDecay);
  const DistanceKernel k = sched.distance_kernel(n);
  ProtocolPtr p = make_protocol("tree-ranking", n);
  ASSERT_EQ(p->num_agents(), n);
  Rng rng(79);
  u64 fires = 0, restarts = 0, largest = 0;
  while (fires < 2000) {
    const StateId start = static_cast<StateId>(rng.below(p->num_ranks()));
    p->reset(initial::all_in_state(*p, start));
    GroupedKernelSampler gs(k, *p, p->configuration().to_agent_states());
    ++restarts;
    while (fires < 2000 && gs.productive_total() > 0) {
      const auto [i, j] = gs.sample_productive(rng);
      gs.fire(*p, i, j);
      ++fires;
      std::vector<u64> mass(p->num_ranks(), 0);
      std::vector<u64> size(p->num_ranks(), 0);
      const std::vector<StateId>& st = gs.states();
      for (u64 x = 0; x < n; ++x) {
        if (st[x] >= p->num_ranks()) continue;
        ++size[st[x]];
        for (u64 y = x + 1; y < n; ++y) {
          if (st[y] == st[x]) mass[st[x]] += 2 * k.weight(x, y);
        }
      }
      for (StateId s = 0; s < p->num_ranks(); ++s) {
        ASSERT_EQ(gs.group_mass(s), mass[s]) << "state " << s << " fire "
                                             << fires;
        largest = std::max(largest, size[s]);
      }
    }
  }
  EXPECT_GE(largest, n / 2) << "restarts " << restarts;
}

TEST(GroupedKernelSampler, ProductiveSamplingMatchesDenseDistribution) {
  // Chi-squared goodness of fit of sample_productive against the exact
  // productive distribution (dense enumeration of w * productive).
  const u64 n = 64;
  const WeightedScheduler sched(WeightKernel::kRingDecay);
  const DistanceKernel k = sched.distance_kernel(n);
  AgProtocol p(n);
  Rng rng(4321);
  p.reset(initial::uniform_random(p, rng));
  std::vector<StateId> placement = p.configuration().to_agent_states();
  rng.shuffle(placement);
  GroupedKernelSampler gs(k, p, placement);
  ASSERT_GT(gs.productive_total(), 0u);

  std::map<std::pair<u64, u64>, double> expected;
  const std::vector<StateId>& s = gs.states();
  for (u64 i = 0; i < n; ++i) {
    for (u64 j = 0; j < n; ++j) {
      if (i != j && pair_is_productive(p, s[i], s[j])) {
        expected[{i, j}] = static_cast<double>(k.weight(i, j));
      }
    }
  }
  const double total = static_cast<double>(gs.productive_total());

  const u64 kSamples = 40000;
  std::map<std::pair<u64, u64>, u64> hits;
  for (u64 t = 0; t < kSamples; ++t) {
    const auto pair = gs.sample_productive(rng);
    ASSERT_NE(expected.find(pair), expected.end())
        << "sampled an unproductive pair (" << pair.first << ","
        << pair.second << ")";
    ++hits[pair];
  }
  double x2 = 0;
  double df = -1;
  for (const auto& [pair, w] : expected) {
    const double e = static_cast<double>(kSamples) * w / total;
    ASSERT_GE(e, 5.0);
    const double d = static_cast<double>(hits[pair]) - e;
    x2 += d * d / e;
    df += 1;
  }
  EXPECT_LT(std::fabs(chi2_z(x2, df)), 6.0) << "x2=" << x2 << " df=" << df;
}

// ---- extra-state protocols on the grouped sampler -------------------------

TEST(ExtraStateGrouped, ProductiveMassMatchesDenseScanExactly) {
  // The tentpole claim of the extra-class window: for line-of-traps (every
  // pair with an X responder fires) and tree-ranking (every pair with a
  // buffer initiator fires), the grouped sampler's split totals — rank
  // group mass plus Σ of kernel row totals over extra agents — must equal
  // the dense pair-by-pair productive scan to the unit, on live mid-run
  // configurations.
  for (const std::string name : {"line-of-traps", "tree-ranking"}) {
    const u64 n = preferred_population(name, 72);
    const WeightedScheduler sched(WeightKernel::kRingDecay);
    const DistanceKernel k = sched.distance_kernel(n);
    ProtocolPtr p = make_protocol(name, n);
    Rng rng(78);
    p->reset(initial::uniform_random(*p, rng));
    std::vector<StateId> placement = p->configuration().to_agent_states();
    rng.shuffle(placement);
    GroupedKernelSampler gs(k, *p, placement);
    const u64 ranks = p->num_ranks();

    for (int round = 0; round < 30; ++round) {
      u64 dense_rank = 0, dense_extra = 0;
      const std::vector<StateId>& s = gs.states();
      for (u64 i = 0; i < n; ++i) {
        for (u64 j = 0; j < n; ++j) {
          if (i == j || !pair_is_productive(*p, s[i], s[j])) continue;
          if (s[i] >= ranks || s[j] >= ranks) {
            dense_extra += k.weight(i, j);
          } else {
            dense_rank += k.weight(i, j);
          }
        }
      }
      ASSERT_EQ(gs.extra_total(), dense_extra) << name << " round " << round;
      ASSERT_EQ(gs.productive_total(), dense_rank + dense_extra)
          << name << " round " << round;
      if (gs.productive_total() == 0) break;
      const auto [i, j] = gs.sample_productive(rng);
      gs.fire(*p, i, j);
    }
  }
}

TEST(ExtraStateGrouped, ProductiveSamplingMatchesDenseDistribution) {
  // Chi-squared goodness of fit of sample_productive against the dense
  // enumeration of w * productive, for both extra-state protocols under
  // ring-decay.  Thin cells (extra-state pairs spread mass over many
  // ordered pairs) are pooled to keep the approximation honest.
  for (const std::string name : {"line-of-traps", "tree-ranking"}) {
    const u64 n = preferred_population(name, 72);
    const WeightedScheduler sched(WeightKernel::kRingDecay);
    const DistanceKernel k = sched.distance_kernel(n);
    ProtocolPtr p = make_protocol(name, n);
    Rng rng(5678);
    p->reset(initial::uniform_random(*p, rng));
    std::vector<StateId> placement = p->configuration().to_agent_states();
    rng.shuffle(placement);
    GroupedKernelSampler gs(k, *p, placement);
    ASSERT_GT(gs.productive_total(), 0u) << name;

    std::map<std::pair<u64, u64>, double> expected;
    const std::vector<StateId>& s = gs.states();
    for (u64 i = 0; i < n; ++i) {
      for (u64 j = 0; j < n; ++j) {
        if (i != j && pair_is_productive(*p, s[i], s[j])) {
          expected[{i, j}] = static_cast<double>(k.weight(i, j));
        }
      }
    }
    const double total = static_cast<double>(gs.productive_total());

    const u64 kSamples = 60000;
    std::map<std::pair<u64, u64>, u64> hits;
    for (u64 t = 0; t < kSamples; ++t) {
      const auto pair = gs.sample_productive(rng);
      ASSERT_NE(expected.find(pair), expected.end())
          << name << ": sampled an unproductive pair (" << pair.first << ","
          << pair.second << ")";
      ++hits[pair];
    }
    double x2 = 0;
    double cells = 0;
    double pooled_e = 0;
    u64 pooled_h = 0;
    for (const auto& [pair, w] : expected) {
      const double e = static_cast<double>(kSamples) * w / total;
      if (e < 5.0) {
        pooled_e += e;
        pooled_h += hits[pair];
        continue;
      }
      const double d = static_cast<double>(hits[pair]) - e;
      x2 += d * d / e;
      cells += 1;
    }
    if (pooled_e > 0) {
      const double d = static_cast<double>(pooled_h) - pooled_e;
      x2 += d * d / pooled_e;
      cells += 1;
    }
    ASSERT_GT(cells, 1) << name;
    EXPECT_LT(std::fabs(chi2_z(x2, cells - 1)), 6.0)
        << name << " x2=" << x2 << " cells=" << cells;
  }
}

// ---- TrapKernelSampler vs direct enumeration over the count vector --------

TEST(TrapKernelSampler, MassesMatchDirectEnumerationOnLiveConfigs) {
  // No positional dense reference exists for a state-distance kernel, so
  // the ground truth is the direct Θ(states²) quadratic form over the
  // count vector: Σ c_s (c_t - [s == t]) κ(s, t), masked to the
  // productive pairs for the productive total.  Both totals must agree to
  // the unit on live configurations as events fire.
  //
  // Events come in two kinds: same-trap moves, whose net trap deltas are
  // zero and skip the trap-row pass, and moves that cross traps.  Both
  // must be seen for every protocol.  Ring-of-traps runs longer: its inner
  // rule never leaves the trap, so gate-rule events, which do, are rare.
  for (const std::string name :
       {"ag", "ring-of-traps", "line-of-traps", "tree-ranking"}) {
    for (const u64 power : {u64{1}, u64{2}}) {
      const u64 n = preferred_population(name, 72);
      ProtocolPtr p = make_protocol(name, n);
      Rng rng(81 + power);
      p->reset(initial::uniform_random(*p, rng));
      TrapKernelSampler ts(*p, power);
      const u64 states = p->num_states();
      const RingLayout layout(states);
      const int rounds = name == "ring-of-traps" ? 400 : 25;
      u64 same_trap = 0, cross_trap = 0;

      for (int round = 0; round < rounds; ++round) {
        u64 weight = 0, productive = 0;
        const std::vector<Count>& c = p->counts();
        for (StateId s = 0; s < states; ++s) {
          if (c[s] == 0) continue;
          for (StateId t = 0; t < states; ++t) {
            const u64 pairs = c[s] * (c[t] - (s == t ? u64{1} : u64{0}));
            if (pairs == 0) continue;
            const u64 mass = pairs * ts.kappa(s, t);
            weight += mass;
            if (pair_is_productive(*p, s, t)) productive += mass;
          }
        }
        ASSERT_EQ(ts.weight_total(), weight)
            << name << "^" << power << " round " << round;
        ASSERT_EQ(ts.productive_total(), productive)
            << name << "^" << power << " round " << round;
        if (ts.productive_total() == 0) break;
        const std::vector<Count> before = c;
        ts.fire(*p, rng);
        std::vector<i64> trap_delta(layout.num_traps(), 0);
        for (StateId s = 0; s < states; ++s) {
          trap_delta[layout.trap_of(s)] += static_cast<i64>(p->counts()[s]) -
                                           static_cast<i64>(before[s]);
        }
        const bool crossed = std::any_of(trap_delta.begin(), trap_delta.end(),
                                         [](i64 d) { return d != 0; });
        ++(crossed ? cross_trap : same_trap);
      }
      EXPECT_GT(same_trap, 0u) << name << "^" << power;
      EXPECT_GT(cross_trap, 0u) << name << "^" << power;
    }
  }
}

// Serialises the nonzero per-state count deltas of one event, ascending by
// state — the observable footprint of which state pair fired (the same
// binning idea as first_fire_bin below, but computable on both the
// sampled and the enumerated side).
std::string count_delta_bin(const std::vector<Count>& before,
                            const std::vector<Count>& after) {
  std::string bin;
  for (u64 s = 0; s < before.size(); ++s) {
    const i64 d =
        static_cast<i64>(after[s]) - static_cast<i64>(before[s]);
    if (d != 0) bin += std::to_string(s) + ":" + std::to_string(d) + ";";
  }
  return bin;
}

std::string pair_delta_bin(StateId s, StateId t,
                           std::pair<StateId, StateId> out) {
  std::map<u64, i64> d;
  --d[s];
  --d[t];
  ++d[out.first];
  ++d[out.second];
  std::string bin;
  for (const auto& [state, dd] : d) {
    if (dd != 0) bin += std::to_string(state) + ":" + std::to_string(dd) + ";";
  }
  return bin;
}

TEST(TrapKernelSampler, FiredPairMatchesDirectEnumeration) {
  // Chi-squared goodness of fit of the pair fire() selects against the
  // exact κ-proportional distribution, binned by count-delta footprint
  // (fire applies the pair, so each draw rebuilds the sampler on a reset
  // copy of the same configuration — construction is O(states), cheap).
  for (const std::string name : {"line-of-traps", "tree-ranking"}) {
    const u64 n = preferred_population(name, 72);
    ProtocolPtr p = make_protocol(name, n);
    Rng rng(91);
    p->reset(initial::uniform_random(*p, rng));
    const Configuration snap = p->configuration();
    const u64 states = p->num_states();

    const TrapKernelSampler ref(*p, /*power=*/1);
    std::map<std::string, double> expected;  // footprint -> κ mass
    double total = 0;
    for (StateId s = 0; s < states; ++s) {
      if (snap.counts[s] == 0) continue;
      for (StateId t = 0; t < states; ++t) {
        const u64 pairs =
            snap.counts[s] * (snap.counts[t] - (s == t ? u64{1} : u64{0}));
        if (pairs == 0 || !pair_is_productive(*p, s, t)) continue;
        const double mass =
            static_cast<double>(pairs) * static_cast<double>(ref.kappa(s, t));
        expected[pair_delta_bin(s, t, p->transition(s, t))] += mass;
        total += mass;
      }
    }
    ASSERT_GT(total, 0.0) << name;

    const u64 kSamples = 20000;
    std::map<std::string, u64> hits;
    for (u64 it = 0; it < kSamples; ++it) {
      p->reset(snap);
      TrapKernelSampler ts(*p, /*power=*/1);
      ts.fire(*p, rng);
      const std::string bin = count_delta_bin(snap.counts, p->counts());
      ASSERT_NE(expected.find(bin), expected.end())
          << name << ": fired a pair outside the enumerated support: " << bin;
      ++hits[bin];
    }
    double x2 = 0;
    double cells = 0;
    double pooled_e = 0;
    u64 pooled_h = 0;
    for (const auto& [bin, mass] : expected) {
      const double e = static_cast<double>(kSamples) * mass / total;
      if (e < 5.0) {
        pooled_e += e;
        pooled_h += hits[bin];
        continue;
      }
      const double d = static_cast<double>(hits[bin]) - e;
      x2 += d * d / e;
      cells += 1;
    }
    if (pooled_e > 0) {
      const double d = static_cast<double>(pooled_h) - pooled_e;
      x2 += d * d / pooled_e;
      cells += 1;
    }
    ASSERT_GT(cells, 1) << name;
    EXPECT_LT(std::fabs(chi2_z(x2, cells - 1)), 6.0)
        << name << " x2=" << x2 << " cells=" << cells;
  }
}

// ---- dense vs hierarchical / sparse: whole-run cross-validation -----------

RunResult run_weighted(const Scheduler& sched, u64 n, u64 seed,
                       const RunOptions& opt = {}) {
  ProtocolPtr p = make_protocol("ag", n);
  Rng rng(seed);
  p->reset(initial::uniform_random(*p, rng));
  return sched.run(*p, rng, opt);
}

RunResult run_weighted_protocol(const Scheduler& sched, const std::string& name,
                                u64 n, u64 seed, const RunOptions& opt = {}) {
  ProtocolPtr p = make_protocol(name, n);
  Rng rng(seed);
  p->reset(initial::uniform_random(*p, rng));
  return sched.run(*p, rng, opt);
}

TEST(HierarchicalWeighted, RingDecayMatchesDenseReferenceStatistically) {
  // Same kernel, same protocol, same seeds: the hierarchical and dense
  // paths must produce the same stabilisation-time distribution (they
  // consume randomness differently, so only statistics can agree).
  const u64 n = 48;
  const WeightedScheduler hier(WeightKernel::kRingDecay);
  const WeightedScheduler dense(WeightKernel::kRingDecay, 1, 0,
                                /*dense_reference=*/true);
  const int kTrials = 60;
  double hier_time = 0, dense_time = 0;
  for (int t = 0; t < kTrials; ++t) {
    const RunResult h = run_weighted(hier, n, 86000 + t);
    EXPECT_TRUE(h.valid);
    hier_time += h.parallel_time;
    const RunResult d = run_weighted(dense, n, 87000 + t);
    EXPECT_TRUE(d.valid);
    dense_time += d.parallel_time;
  }
  EXPECT_NEAR(hier_time / dense_time, 1.0, 0.25);
}

// First productive firing under the edge-Markovian model, categorised by
// the (state-count delta) it applied — the observable footprint of which
// state pair fired.  Used for the sparse-vs-dense two-sample chi-squared.
std::string first_fire_bin(const SchedulerSpec& spec, u64 n, u64 seed) {
  ProtocolPtr p = make_protocol("ag", n);
  Rng rng(seed);
  p->reset(initial::uniform_random(*p, rng));
  const std::vector<Count> before = p->counts();
  const SchedulerPtr sched = make_scheduler(spec, n);
  RunOptions opt;
  opt.max_interactions = 1 << 22;
  opt.on_change = [](const Protocol&, u64) { return false; };  // stop at 1
  const RunResult r = sched->run(*p, rng, opt);
  if (r.productive_steps == 0) return "no-fire";
  std::string bin;
  for (u64 s = 0; s < before.size(); ++s) {
    const i64 d = static_cast<i64>(p->counts()[s]) - static_cast<i64>(before[s]);
    if (d != 0) bin += std::to_string(s) + ":" + std::to_string(d) + ";";
  }
  return bin;
}

TEST(SparseMarkov, FirstFireDistributionMatchesDenseReference) {
  // Two-sample chi-squared over the state-pair fired first: the sparse
  // present-set path and the dense two-list reference start from the same
  // seeded configuration and must fire the same way in distribution
  // (their flip-victim sampling differs mechanically — rejection vs
  // list indexing — but not in law).
  const u64 n = 24;
  SchedulerSpec spec;
  spec.kind = SchedulerKind::kDynamicGraph;
  spec.graph = GraphKind::kCycle;
  spec.dynamics = GraphDynamics::kEdgeMarkovian;
  spec.edge_birth = 0.02;
  spec.edge_death = 0.05;

  const int kRuns = 1500;
  std::map<std::string, std::pair<u64, u64>> bins;  // bin -> (sparse, dense)
  for (int t = 0; t < kRuns; ++t) {
    spec.dense_reference = false;
    ++bins[first_fire_bin(spec, n, 91000 + t)].first;
    spec.dense_reference = true;
    ++bins[first_fire_bin(spec, n, 91000 + t)].second;
  }
  // Pool thin bins so every cell keeps expected count >= 5 under the
  // pooled-total expectation.
  u64 rare_a = 0, rare_b = 0;
  double x2 = 0;
  double cells = 0;
  const auto add_cell = [&](double a, double b) {
    // Equal sample sizes: expected half of (a + b) in each column.
    const double e = (a + b) / 2.0;
    if (e <= 0) return;
    x2 += (a - e) * (a - e) / e + (b - e) * (b - e) / e;
    cells += 1;
  };
  for (const auto& [bin, ab] : bins) {
    EXPECT_NE(bin, "no-fire");
    if (ab.first + ab.second < 10) {
      rare_a += ab.first;
      rare_b += ab.second;
      continue;
    }
    add_cell(static_cast<double>(ab.first), static_cast<double>(ab.second));
  }
  add_cell(static_cast<double>(rare_a), static_cast<double>(rare_b));
  ASSERT_GT(cells, 1);
  EXPECT_LT(std::fabs(chi2_z(x2, cells - 1)), 6.0)
      << "x2=" << x2 << " cells=" << cells;
}

TEST(SparseMarkov, FullRunMatchesDenseReferenceStatistically) {
  const u64 n = 24;
  SchedulerSpec spec;
  spec.kind = SchedulerKind::kDynamicGraph;
  spec.graph = GraphKind::kCycle;
  spec.dynamics = GraphDynamics::kEdgeMarkovian;
  spec.edge_birth = 0.02;
  spec.edge_death = 0.05;
  const int kTrials = 80;
  const u64 budget = 400000;
  double sparse_inter = 0, dense_inter = 0;
  double sparse_steps = 0, dense_steps = 0;
  for (int t = 0; t < kTrials; ++t) {
    RunOptions opt;
    opt.max_interactions = budget;
    spec.dense_reference = false;
    const SchedulerPtr sparse = make_scheduler(spec, n);
    ProtocolPtr p = make_protocol("ag", n);
    Rng rng(95000 + t);
    p->reset(initial::uniform_random(*p, rng));
    const RunResult a = sparse->run(*p, rng, opt);
    EXPECT_TRUE(a.silent);
    sparse_inter += static_cast<double>(a.interactions);
    sparse_steps += static_cast<double>(a.productive_steps);

    spec.dense_reference = true;
    const SchedulerPtr dense = make_scheduler(spec, n);
    ProtocolPtr q = make_protocol("ag", n);
    Rng rng2(96000 + t);
    q->reset(initial::uniform_random(*q, rng2));
    const RunResult b = dense->run(*q, rng2, opt);
    EXPECT_TRUE(b.silent);
    dense_inter += static_cast<double>(b.interactions);
    dense_steps += static_cast<double>(b.productive_steps);
  }
  EXPECT_NEAR(sparse_inter / dense_inter, 1.0, 0.20);
  EXPECT_NEAR(sparse_steps / dense_steps, 1.0, 0.20);
}

// ---- memory shape and scale: the Θ(n²) universe is gone -------------------

TEST(HierarchicalScale, KernelStructuresAreLinearAtHundredThousand) {
  const u64 n = 100000;
  const WeightedScheduler ring(WeightKernel::kRingDecay);
  const DistanceKernel k = ring.distance_kernel(n);
  // O(n) proof: the ring profile holds floor(n/2) + 1 slots (a dense
  // universe would need n² ~ 10^10).
  EXPECT_LE(k.memory_slots(), 2 * n);
  const WeightedScheduler line(WeightKernel::kLineDecay);
  EXPECT_LE(line.distance_kernel(n).memory_slots(), 3 * n);
  EXPECT_EQ(k.n(), n);
  EXPECT_GT(k.total(), 0u);
}

TEST(HierarchicalScale, WeightedRingDecayRunsAtHundredThousand) {
  // weighted[ring-decay] at n = 10^5: construction plus a budget-capped
  // run must complete — the dense path cannot even allocate here (~160 GB
  // of Fenwick slots), so completion inside the suite's timeout IS the
  // no-Θ(n²)-allocation assertion, alongside the O(n) slot count above.
  const u64 n = 100000;
  SchedulerSpec spec;
  spec.kind = SchedulerKind::kWeighted;
  spec.kernel = WeightKernel::kRingDecay;
  const SchedulerPtr sched = make_scheduler(spec, n);
  RunOptions opt;
  opt.max_interactions = 10 * n;
  const RunResult r = run_weighted(*sched, n, /*seed=*/13, opt);
  EXPECT_EQ(r.interactions, 10 * n);
  EXPECT_FALSE(r.silent);  // AG needs ~n² parallel time; 10 is a cap probe
  EXPECT_GT(r.productive_steps, 0u);
}

TEST(HierarchicalScale, ExtraStateWeightedRunsAtHundredThousand) {
  // The tentpole's headline: an extra-state protocol at n = 10^5 through
  // the default weighted path.  The hierarchical sampler carries
  // line-of-traps (its declared extra-pair classes are supported), so a
  // budget-capped run completes where the old dense-only routing could
  // not even allocate.
  const u64 n = preferred_population("line-of-traps", 100000);
  EXPECT_GE(n, 90000u);
  SchedulerSpec spec;
  spec.kind = SchedulerKind::kWeighted;
  spec.kernel = WeightKernel::kRingDecay;
  const SchedulerPtr sched = make_scheduler(spec, n);
  RunOptions opt;
  opt.max_interactions = 5 * n;
  const RunResult r =
      run_weighted_protocol(*sched, "line-of-traps", n, /*seed=*/15, opt);
  EXPECT_EQ(r.interactions, 5 * n);
  EXPECT_FALSE(r.silent);
  EXPECT_GT(r.productive_steps, 0u);
}

TEST(HierarchicalScale, TrapDecayRunsAtHundredThousand) {
  // weighted[trap-decay] at n = 10^5: O(states) aggregates, O(√states)
  // per event — a budget-capped run must complete, and the sampler's slot
  // count must stay linear in the state count.
  const u64 n = 100000;
  {
    ProtocolPtr p = make_protocol("ag", n);
    Rng rng(16);
    p->reset(initial::uniform_random(*p, rng));
    const TrapKernelSampler ts(*p, /*power=*/1);
    EXPECT_LE(ts.memory_slots(), 6 * p->num_states());
  }
  SchedulerSpec spec;
  spec.kind = SchedulerKind::kWeighted;
  spec.kernel = WeightKernel::kTrapDecay;
  const SchedulerPtr sched = make_scheduler(spec, n);
  RunOptions opt;
  opt.max_interactions = 2 * n;
  const RunResult r = run_weighted(*sched, n, /*seed=*/17, opt);
  EXPECT_EQ(r.interactions, 2 * n);
  EXPECT_FALSE(r.silent);
  EXPECT_GT(r.productive_steps, 0u);
}

TEST(HierarchicalScale, SparseMarkovRunsAtHundredThousand) {
  const u64 n = 100000;
  SchedulerSpec spec;
  spec.kind = SchedulerKind::kDynamicGraph;
  spec.graph = GraphKind::kCycle;
  spec.dynamics = GraphDynamics::kEdgeMarkovian;
  spec.edge_death = 2.0 / static_cast<double>(n);  // mix ~2x per unit of
                                                   // parallel time
  const SchedulerPtr sched = make_scheduler(spec, n);
  ProtocolPtr p = make_protocol("ag", n);
  Rng rng(14);
  p->reset(initial::uniform_random(*p, rng));
  RunOptions opt;
  opt.max_interactions = 2 * n;
  const RunResult r = sched->run(*p, rng, opt);
  EXPECT_EQ(r.interactions, 2 * n);
  EXPECT_FALSE(r.silent);
}

// ---- pinned trajectories --------------------------------------------------

// Fixed-seed runs through the two new default paths.  The values pin the
// paths' rng consumption: a refactor that changes how either path draws
// randomness must consciously re-record them (the statistical suites
// above decide whether the new consumption is still correct).
TEST(HierarchicalPins, WeightedRingDecayTrajectory) {
  const WeightedScheduler sched(WeightKernel::kRingDecay);
  const RunResult r = run_weighted(sched, 32, /*seed=*/424242);
  EXPECT_TRUE(r.silent);
  EXPECT_EQ(r.interactions, 13905u);
  EXPECT_EQ(r.productive_steps, 68u);
}

TEST(HierarchicalPins, WeightedRingDecayLineOfTrapsTrajectory) {
  // Extra-state protocol through the grouped sampler's extra-class window:
  // pins the combined rank+extra draw and the row-CDF partner inversion.
  const WeightedScheduler sched(WeightKernel::kRingDecay);
  const u64 n = preferred_population("line-of-traps", 72);
  const RunResult r =
      run_weighted_protocol(sched, "line-of-traps", n, /*seed=*/424242);
  EXPECT_TRUE(r.silent);
  EXPECT_EQ(r.interactions, 357260u);
  EXPECT_EQ(r.productive_steps, 462u);
}

TEST(HierarchicalPins, WeightedRingDecayTreeRankingTrajectory) {
  const WeightedScheduler sched(WeightKernel::kRingDecay);
  const u64 n = preferred_population("tree-ranking", 72);
  const RunResult r =
      run_weighted_protocol(sched, "tree-ranking", n, /*seed=*/424242);
  EXPECT_TRUE(r.silent);
  EXPECT_EQ(r.interactions, 42014u);
  EXPECT_EQ(r.productive_steps, 2660u);
}

TEST(HierarchicalPins, WeightedTrapDecayTrajectory) {
  // Pins the trap sampler's single-draw firing (rank-diagonal vs
  // extra-window split, trap scans) end to end.
  const WeightedScheduler sched(WeightKernel::kTrapDecay);
  const u64 n = preferred_population("line-of-traps", 72);
  const RunResult r =
      run_weighted_protocol(sched, "line-of-traps", n, /*seed=*/424242);
  EXPECT_TRUE(r.silent);
  EXPECT_EQ(r.interactions, 287366u);
  EXPECT_EQ(r.productive_steps, 1431u);
}

TEST(HierarchicalPins, WeightedTrapDecayRingOfTrapsTrajectory) {
  // Ring-of-traps' inner rule keeps the moving agent in its trap, so most
  // events here are same-trap moves (net per-trap deltas of zero), with
  // gate-rule crossings between them.
  const WeightedScheduler sched(WeightKernel::kTrapDecay);
  const u64 n = preferred_population("ring-of-traps", 72);
  const RunResult r =
      run_weighted_protocol(sched, "ring-of-traps", n, /*seed=*/424242);
  EXPECT_TRUE(r.silent);
  EXPECT_EQ(r.interactions, 159877u);
  EXPECT_EQ(r.productive_steps, 744u);
}

TEST(HierarchicalPins, WeightedRingDecayLargeTreeRankingTrajectory) {
  // n = 1024 gives tree-ranking rank groups large enough that the grouped
  // sampler's in-group pair resolution walks long member rows.
  const WeightedScheduler sched(WeightKernel::kRingDecay);
  const u64 n = preferred_population("tree-ranking", 1024);
  const RunResult r =
      run_weighted_protocol(sched, "tree-ranking", n, /*seed=*/424242);
  EXPECT_TRUE(r.silent);
  EXPECT_EQ(r.interactions, 10607130u);
  EXPECT_EQ(r.productive_steps, 57790u);
}

// One pinned dynamic-graph run: ag at n = 32 from a uniform random start,
// seed 424242, a budget of 20 n^3 interactions.
RunResult run_dynamic_pin(const SchedulerSpec& spec) {
  const u64 n = 32;
  const DynamicGraphScheduler sched(spec, n);
  ProtocolPtr p = make_protocol("ag", n);
  Rng rng(424242);
  p->reset(initial::uniform_random(*p, rng));
  RunOptions opt;
  opt.max_interactions = 20 * n * n * n;
  return sched.run(*p, rng, opt);
}

SchedulerSpec dynamic_cycle_spec(GraphDynamics dynamics) {
  SchedulerSpec spec;
  spec.kind = SchedulerKind::kDynamicGraph;
  spec.graph = GraphKind::kCycle;
  spec.dynamics = dynamics;
  return spec;
}

TEST(HierarchicalPins, SparseMarkovTrajectory) {
  const RunResult r =
      run_dynamic_pin(dynamic_cycle_spec(GraphDynamics::kEdgeMarkovian));
  EXPECT_TRUE(r.silent);
  EXPECT_EQ(r.interactions, 21593u);
  EXPECT_EQ(r.productive_steps, 68u);
}

TEST(HierarchicalPins, SparseMarkovAtScale) {
  // ring-of-traps at n = 10^4 on a cycle whose edges die at 2/n per step:
  // about two births and two deaths per step, so over a 2n budget the
  // death batches often take the roster's back entry, which the n = 32
  // run above rarely does.  Recorded before the roster kept one tree.
  struct Expected {
    u64 seed, interactions, productive_steps, calls, next_draw;
  };
  const Expected runs[] = {{1, 20000, 0, 0, 0x5192cef7dfcd09a7ULL},
                           {2, 20000, 0, 0, 0xa772ee7990d56fc5ULL},
                           {3, 20000, 1, 1, 0x534288a07dabbd52ULL}};
  const u64 n = 10000;
  SchedulerSpec spec = dynamic_cycle_spec(GraphDynamics::kEdgeMarkovian);
  spec.edge_death = 2.0 / static_cast<double>(n);
  const DynamicGraphScheduler sched(spec, n);
  for (const Expected& want : runs) {
    ProtocolPtr p = make_protocol("ring-of-traps", n);
    Rng rng(want.seed);
    p->reset(initial::uniform_random(*p, rng));
    u64 calls = 0;
    RunOptions opt;
    opt.max_interactions = 2 * n;
    opt.on_change = [&calls](const Protocol&, u64) {
      ++calls;
      return true;
    };
    const RunResult r = sched.run(*p, rng, opt);
    EXPECT_EQ(r.interactions, want.interactions) << want.seed;
    EXPECT_EQ(r.productive_steps, want.productive_steps) << want.seed;
    EXPECT_FALSE(r.silent) << want.seed;
    EXPECT_EQ(calls, want.calls) << want.seed;
    EXPECT_EQ(rng.bits(), want.next_draw) << want.seed;
  }
}

TEST(HierarchicalPins, DenseMarkovTrajectory) {
  // The dense reference draws its flip counts through the same conditioned
  // births/deaths construction as the sparse path.
  SchedulerSpec spec = dynamic_cycle_spec(GraphDynamics::kEdgeMarkovian);
  spec.dense_reference = true;
  ASSERT_EQ(spec.to_string(), "dynamic[cycle/markov/dense-ref]");
  const RunResult r = run_dynamic_pin(spec);
  EXPECT_TRUE(r.silent);
  EXPECT_EQ(r.interactions, 32710u);
  EXPECT_EQ(r.productive_steps, 68u);
}

TEST(HierarchicalPins, CycleRewireTrajectory) {
  const SchedulerSpec spec =
      dynamic_cycle_spec(GraphDynamics::kPeriodicRewire);
  ASSERT_EQ(spec.to_string(), "dynamic[cycle/rewire]");
  const RunResult r = run_dynamic_pin(spec);
  EXPECT_TRUE(r.silent);
  EXPECT_EQ(r.interactions, 15337u);
  EXPECT_EQ(r.productive_steps, 68u);
}

TEST(HierarchicalPins, RandomRegularRewireTrajectory) {
  // Every epoch boundary resamples the random-regular graph from rng.bits().
  const std::optional<SchedulerSpec> spec =
      parse_scheduler_spec("dynamic[random-4-regular/rewire]");
  ASSERT_TRUE(spec.has_value());
  const RunResult r = run_dynamic_pin(*spec);
  EXPECT_TRUE(r.silent);
  EXPECT_EQ(r.interactions, 9327u);
  EXPECT_EQ(r.productive_steps, 68u);
}

}  // namespace
}  // namespace pp
