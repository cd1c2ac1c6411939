#include "schedulers/dynamic_graph.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/assert.hpp"
#include "obs/counters.hpp"
#include "schedulers/pair_sampler.hpp"

namespace pp {
namespace {

constexpr u32 kNotInList = static_cast<u32>(-1);

// Dense-universe cap for the edge-Markovian *reference* path (the sparse
// default and the rewire model track live edges only).
constexpr u64 kMaxMarkovPopulation = 4096;

// (1 - q)^m with the edge cases pinned down before std::exp can produce
// 0 * inf = NaN.
double no_success_prob(u64 m, double q) {
  if (m == 0 || q <= 0.0) return 1.0;
  if (q >= 1.0) return 0.0;
  return std::exp(static_cast<double>(m) * std::log1p(-q));
}

// The dense reference state of the edge-Markovian model: agent states per
// vertex, the sampler over all 2P directed pairs (weight 1 while the
// underlying undirected pair is present, 0 while absent), swap-remove
// lists of present/absent pair ids for sampling flip victims, and
// per-vertex adjacency of *present* pairs.  Θ(n²) memory — kept as the
// transparent implementation the sparse path is cross-validated against
// (SchedulerSpec::dense_reference), capped at kMaxMarkovPopulation.
//
// Productivity flags are maintained lazily: a pair's flags are
// recomputed when one of its endpoints changes state — but only for
// present pairs (the adjacency lists) — and once at birth, before the
// pair's weight is restored.  Absent pairs may carry stale flags; that
// is sound because a zero-weight pair contributes nothing to either tree
// and its flags are a deterministic function of the endpoint states,
// recomputed the moment they matter.  This keeps a productive step at
// O(present-degree) instead of Θ(n) dead flag maintenance.
struct MarkovState {
  const Protocol& p;
  u64 n;
  u64 num_pairs;
  double birth;
  double death;
  std::vector<StateId> state;                // per vertex
  std::vector<std::pair<u32, u32>> uv;       // pair id -> (u, v), u < v
  PairSampler pairs;                         // directed ids 2*pid + orient
  std::vector<u32> present, absent;          // pair ids, unordered
  std::vector<u32> where;                    // pair id -> index in its list
  std::vector<std::vector<u32>> adj;         // per vertex: present pair ids
  std::vector<std::pair<u32, u32>> adj_pos;  // pair id -> index in adj[u],
                                             // adj[v]

  MarkovState(const InteractionGraph& g, const Protocol& proto,
              std::vector<StateId> placement, double birth_rate,
              double death_rate)
      : p(proto),
        n(placement.size()),
        num_pairs(n * (n - 1) / 2),
        birth(birth_rate),
        death(death_rate),
        state(std::move(placement)) {
    uv.reserve(num_pairs);
    for (u32 u = 0; u < n; ++u) {
      for (u32 v = u + 1; v < n; ++v) uv.emplace_back(u, v);
    }
    // Seed the present set from the initial topology (parallel edges of a
    // multigraph collapse to one — the pair universe is simple), then
    // bulk-build the sampler: weight 1 per present directed pair, flags
    // from δ for every pair, present or not.
    std::vector<u8> seeded(num_pairs, 0);
    for (const auto& [u, v] : g.edges()) seeded[pair_id(u, v)] = 1;
    std::vector<u64> weights(2 * num_pairs, 0);
    std::vector<u8> flags(2 * num_pairs, 0);
    for (u32 pid = 0; pid < num_pairs; ++pid) {
      const auto [a, b] = uv[pid];
      weights[2 * pid] = weights[2 * pid + 1] = seeded[pid] ? 1 : 0;
      flags[2 * pid] = pair_is_productive(p, state[a], state[b]) ? 1 : 0;
      flags[2 * pid + 1] = pair_is_productive(p, state[b], state[a]) ? 1 : 0;
    }
    pairs.reset(std::move(weights), std::move(flags));
    where.assign(num_pairs, kNotInList);
    adj.resize(n);
    adj_pos.assign(num_pairs, {0, 0});
    for (u32 pid = 0; pid < num_pairs; ++pid) {
      if (seeded[pid]) {
        where[pid] = static_cast<u32>(present.size());
        present.push_back(pid);
        adj_add(pid);
      } else {
        where[pid] = static_cast<u32>(absent.size());
        absent.push_back(pid);
      }
    }
  }

  u64 present_count() const { return present.size(); }
  u64 absent_count() const { return absent.size(); }
  double productive_probability() const {
    return pairs.productive_probability();
  }

  void adj_add(u32 pid) {
    const auto [a, b] = uv[pid];
    adj_pos[pid] = {static_cast<u32>(adj[a].size()),
                    static_cast<u32>(adj[b].size())};
    adj[a].push_back(pid);
    adj[b].push_back(pid);
  }

  void adj_remove_side(u32 vtx, u32 pid) {
    std::vector<u32>& list = adj[vtx];
    const u32 idx =
        uv[pid].first == vtx ? adj_pos[pid].first : adj_pos[pid].second;
    const u32 moved = list.back();
    list[idx] = moved;
    if (uv[moved].first == vtx) {
      adj_pos[moved].first = idx;
    } else {
      adj_pos[moved].second = idx;
    }
    list.pop_back();
  }

  u32 pair_id(u32 a, u32 b) const {
    const u64 u = std::min(a, b);
    const u64 v = std::max(a, b);
    return static_cast<u32>(u * (n - 1) - u * (u - 1) / 2 + (v - u - 1));
  }

  bool is_present(u32 pid) const {
    return pairs.weight(2 * static_cast<u64>(pid)) != 0;
  }

  void refresh_pair(u32 pid) {
    const auto [a, b] = uv[pid];
    pairs.set_productive(2 * static_cast<u64>(pid),
                         pair_is_productive(p, state[a], state[b]));
    pairs.set_productive(2 * static_cast<u64>(pid) + 1,
                         pair_is_productive(p, state[b], state[a]));
  }

  /// Re-tests the *present* pairs incident to v (absent pairs keep stale
  /// flags until they are born again).
  void refresh_vertex(u32 v) {
    for (const u32 pid : adj[v]) refresh_pair(pid);
  }

  void set_presence(u32 pid, bool now) {
    if (is_present(pid) == now) return;
    std::vector<u32>& from = now ? absent : present;
    std::vector<u32>& to = now ? present : absent;
    const u32 idx = where[pid];
    const u32 moved = from.back();
    from[idx] = moved;
    where[moved] = idx;
    from.pop_back();
    where[pid] = static_cast<u32>(to.size());
    to.push_back(pid);
    if (now) {
      // Born: the flags may be stale from state changes while the pair
      // was absent — recompute them before the weight makes them count.
      refresh_pair(pid);
      adj_add(pid);
    } else {
      adj_remove_side(uv[pid].first, pid);
      adj_remove_side(uv[pid].second, pid);
    }
    pairs.set_weight(2 * static_cast<u64>(pid), now ? 1 : 0);
    pairs.set_weight(2 * static_cast<u64>(pid) + 1, now ? 1 : 0);
  }

  /// Applies one step's edge flips conditioned on at least one occurring.
  /// `A` = P(no births), `B` = P(no deaths) for the current lists.
  void apply_flips(Rng& rng, double A, double B) {
    const u64 na = absent.size();
    const u64 np = present.size();
    u64 births = 0, deaths = 0;
    // Partition "some flip" into {births >= 1} and {no birth, deaths >= 1};
    // within the chosen part the first flipped edge's index is a truncated
    // geometric and the remaining trials stay unconditioned binomials.
    // When one category has zero mass (A == 1 or B == 1), route to the
    // other directly: u can round exactly onto the boundary, and the
    // comparison must never select an impossible branch.
    const bool births_possible = na > 0 && birth > 0.0;
    const bool deaths_possible = np > 0 && death > 0.0;
    const double u = rng.real01() * (1.0 - A * B);
    if (births_possible && (!deaths_possible || u < 1.0 - A)) {
      const u64 first = rng.geometric_failures_truncated(birth, na);
      births = 1 + rng.binomial(na - 1 - first, birth);
      deaths = rng.binomial(np, death);
    } else {
      const u64 first = rng.geometric_failures_truncated(death, np);
      deaths = 1 + rng.binomial(np - 1 - first, death);
    }
    // The flip count plus a uniform subset of that size IS m independent
    // Bernoulli trials (exchangeability); read both victim sets before
    // mutating either list.
    std::vector<u32> born, died;
    born.reserve(births);
    died.reserve(deaths);
    for (const u64 idx : rng.sample_distinct(na, births)) {
      born.push_back(absent[idx]);
    }
    for (const u64 idx : rng.sample_distinct(np, deaths)) {
      died.push_back(present[idx]);
    }
    for (const u32 pid : born) set_presence(pid, true);
    for (const u32 pid : died) set_presence(pid, false);
  }

  void fire(Protocol& proto, Rng& rng, u64& productive_steps) {
    const u64 d = pairs.sample_productive(rng);
    const auto [a, b] = uv[static_cast<u32>(d >> 1)];
    const auto [ini, res] = (d & 1) ? std::make_pair(b, a)
                                    : std::make_pair(a, b);
    const auto [si, sr] = proto.apply_pair(state[ini], state[res]);
    PP_DCHECK(si != state[ini] || sr != state[res]);
    state[ini] = si;
    state[res] = sr;
    refresh_vertex(ini);
    refresh_vertex(res);
    ++productive_steps;
  }
};

// The sparse default state of the edge-Markovian model: only the present
// edge set is materialised — a hash-indexed DirectedPairRoster plus
// per-vertex adjacency over live entries, O(n + present edges) memory
// against the dense path's Θ(n²).  The step distribution is unchanged:
// flip counts come from the same conditioned truncated-geometric +
// binomial construction (the absent count is arithmetic: P - present),
// death victims are a uniform distinct sample of the roster, and birth
// victims are drawn by rejection — uniform pairs of the arithmetic
// universe, resampled while they hit the thin present set (or an earlier
// victim of the same step), which is exactly a uniform distinct sample of
// the absent set.  Rejection is cheap precisely in the sparse regime the
// model targets (present ≪ P); the worst case (a near-complete graph,
// where expected retries approach P / absent) is only reachable at the
// small populations the dense-seeded specs use.
struct SparseMarkovState {
  const Protocol& p;
  u64 n;
  u64 num_pairs;  // P = n(n-1)/2
  double birth;
  double death;
  std::vector<StateId> state;                 // per vertex
  DirectedPairRoster roster;                  // live entries = present pairs
  std::vector<std::pair<u32, u32>> ends;      // entry -> (u, v), u < v
  std::vector<std::pair<u32, u32>> adj_pos;   // entry -> index in adj[u], [v]
  std::vector<std::vector<u32>> adj;          // per vertex: entry ids
  std::unordered_map<u64, u32> entry_of;      // pair key -> entry id
  std::vector<std::pair<u32, u32>> born_scratch_, died_scratch_;  // reused
                                              // across flip steps

  SparseMarkovState(const InteractionGraph& g, const Protocol& proto,
                    std::vector<StateId> placement, double birth_rate,
                    double death_rate)
      : p(proto),
        n(placement.size()),
        num_pairs(n * (n - 1) / 2),
        birth(birth_rate),
        death(death_rate),
        state(std::move(placement)),
        roster(2 * g.num_edges() + 16) {
    adj.resize(n);
    entry_of.reserve(2 * g.num_edges());
    for (const auto& [u, v] : g.edges()) {
      const u32 lo = std::min(u, v);
      const u32 hi = std::max(u, v);
      if (entry_of.count(key(lo, hi)) != 0) continue;  // multigraph collapse
      add_present(lo, hi);
    }
  }

  u64 key(u32 u, u32 v) const { return static_cast<u64>(u) * n + v; }

  u64 present_count() const { return roster.size(); }
  u64 absent_count() const { return num_pairs - roster.size(); }
  double productive_probability() const {
    return roster.productive_probability();
  }

  bool productive(u32 u, u32 v) const {
    return pair_is_productive(p, state[u], state[v]);
  }

  void add_present(u32 u, u32 v) {
    PP_DCHECK(u < v);
    const u64 e = roster.add(productive(u, v), productive(v, u));
    PP_DCHECK(e == ends.size());
    ends.emplace_back(u, v);
    adj_pos.emplace_back(static_cast<u32>(adj[u].size()),
                         static_cast<u32>(adj[v].size()));
    adj[u].push_back(static_cast<u32>(e));
    adj[v].push_back(static_cast<u32>(e));
    entry_of.emplace(key(u, v), static_cast<u32>(e));
  }

  void adj_remove_side(u32 vtx, u32 e) {
    std::vector<u32>& list = adj[vtx];
    const u32 idx =
        ends[e].first == vtx ? adj_pos[e].first : adj_pos[e].second;
    const u32 moved = list.back();
    list[idx] = moved;
    if (ends[moved].first == vtx) {
      adj_pos[moved].first = idx;
    } else {
      adj_pos[moved].second = idx;
    }
    list.pop_back();
  }

  void remove_present(u32 e) {
    const auto [u, v] = ends[e];
    adj_remove_side(u, e);
    adj_remove_side(v, e);
    entry_of.erase(key(u, v));
    const u64 moved = roster.remove(e);
    if (moved != DirectedPairRoster::kNoEntry) {
      // The roster swap-filled the hole with its back entry; repoint every
      // structure that knew the back entry by its old id.
      ends[e] = ends[moved];
      adj_pos[e] = adj_pos[moved];
      adj[ends[e].first][adj_pos[e].first] = e;
      adj[ends[e].second][adj_pos[e].second] = e;
      entry_of[key(ends[e].first, ends[e].second)] = e;
    }
    ends.pop_back();
    adj_pos.pop_back();
  }

  /// Uniform distinct absent pairs by rejection against the present set
  /// and the batch's earlier picks (written into the reused scratch).
  void sample_absent(Rng& rng, u64 count,
                     std::vector<std::pair<u32, u32>>& out) {
    out.clear();
    out.reserve(count);
    while (out.size() < count) {
      const auto [a, b] = rng.ordered_pair(n);
      const u32 u = static_cast<u32>(std::min(a, b));
      const u32 v = static_cast<u32>(std::max(a, b));
      if (entry_of.count(key(u, v)) != 0) {
        PP_OBS_INC(kRosterRejections);
        continue;
      }
      bool duplicate = false;
      for (const auto& picked : out) {
        if (picked.first == u && picked.second == v) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) out.emplace_back(u, v);
    }
  }

  void refresh_vertex(u32 v) {
    for (const u32 e : adj[v]) {
      const auto [a, b] = ends[e];
      roster.set_flag(e, 0, productive(a, b));
      roster.set_flag(e, 1, productive(b, a));
    }
  }

  /// Applies one step's edge flips conditioned on at least one occurring;
  /// same partition of "some flip" as the dense reference (see above).
  void apply_flips(Rng& rng, double A, double B) {
    const u64 na = absent_count();
    const u64 np = present_count();
    u64 births = 0, deaths = 0;
    const bool births_possible = na > 0 && birth > 0.0;
    const bool deaths_possible = np > 0 && death > 0.0;
    const double u = rng.real01() * (1.0 - A * B);
    if (births_possible && (!deaths_possible || u < 1.0 - A)) {
      const u64 first = rng.geometric_failures_truncated(birth, na);
      births = 1 + rng.binomial(na - 1 - first, birth);
      deaths = rng.binomial(np, death);
    } else {
      const u64 first = rng.geometric_failures_truncated(death, np);
      deaths = 1 + rng.binomial(np - 1 - first, death);
    }
    // Read both victim sets before mutating: births are appended after the
    // death victims are fixed by (u, v), so neither sample disturbs the
    // other (born pairs are absent, dying pairs present — disjoint).
    sample_absent(rng, births, born_scratch_);
    died_scratch_.clear();
    died_scratch_.reserve(deaths);
    for (const u64 idx : rng.sample_distinct(np, deaths)) {
      died_scratch_.push_back(ends[idx]);
    }
    for (const auto& [u2, v2] : born_scratch_) add_present(u2, v2);
    for (const auto& [u2, v2] : died_scratch_) {
      remove_present(entry_of.at(key(u2, v2)));
    }
  }

  void fire(Protocol& proto, Rng& rng, u64& productive_steps) {
    const auto [e, orient] = roster.sample_productive(rng);
    const auto [a, b] = ends[e];
    const auto [ini, res] = orient != 0 ? std::make_pair(b, a)
                                        : std::make_pair(a, b);
    const auto [si, sr] = proto.apply_pair(state[ini], state[res]);
    PP_DCHECK(si != state[ini] || sr != state[res]);
    state[ini] = si;
    state[res] = sr;
    refresh_vertex(ini);
    refresh_vertex(res);
    ++productive_steps;
  }
};

// The shared event-driven loop over either Markov state representation.
// One step is: every potential edge flips independently, then one
// directed present edge is drawn.  A step is *eventful* when some edge
// flips (probability f, constant while the graph is unchanged) or —
// flip-free steps keep the graph static — the draw is productive
// (probability q).  The gap to the next eventful step is therefore
// exactly geometric, which is what keeps null-skipping alive on a
// topology that changes.
template <typename State>
RunResult markov_loop(State& ms, Protocol& p, Rng& rng,
                      const RunOptions& opt) {
  RunResult r;
  GeometricFailures gaps;
  while (!p.is_silent()) {
    const double A = no_success_prob(ms.absent_count(), ms.birth);
    const double B = no_success_prob(ms.present_count(), ms.death);
    const double f = 1.0 - A * B;
    const double q = ms.productive_probability();
    const double p_event = f + (1.0 - f) * q;
    if (p_event <= 0.0) break;  // frozen dynamics and locally stuck
    if (!advance_past_nulls(rng, gaps, p_event, opt.max_interactions,
                            r.interactions)) {
      break;
    }
    bool fire_now;
    // q == 0 forces the flip branch outright: the draw below can round
    // onto p_event exactly, and firing with no productive pair would be
    // nonsense.
    if (q <= 0.0 || rng.real01() * p_event < f) {
      // The eventful step opens with flips; its interaction slot then
      // draws on the post-flip graph.
      ms.apply_flips(rng, A, B);
      fire_now = rng.bernoulli(ms.productive_probability());
    } else {
      fire_now = true;
    }
    if (!fire_now) continue;
    ms.fire(p, rng, r.productive_steps);
    if (opt.on_change && !opt.on_change(p, r.interactions)) {
      r.aborted = true;
      break;
    }
  }
  return finish_run(p, r);
}

}  // namespace

DynamicGraphScheduler::DynamicGraphScheduler(const SchedulerSpec& spec, u64 n)
    : graph_kind_(spec.graph),
      degree_(spec.degree),
      n_(n),
      dynamics_(spec.dynamics),
      birth_(spec.edge_birth),
      death_(spec.edge_death),
      period_(spec.rewire_period),
      dense_reference_(spec.dense_reference) {
  PP_ASSERT_MSG(spec.kind == SchedulerKind::kDynamicGraph,
                "DynamicGraphScheduler needs a kDynamicGraph spec");
  PP_ASSERT_MSG(n >= 2, "dynamic-graph scheduler needs n >= 2");
  PP_ASSERT_MSG(birth_ >= 0.0 && birth_ <= 1.0,
                "edge birth rate must be in [0, 1] (0 = auto)");
  PP_ASSERT_MSG(death_ >= 0.0 && death_ <= 1.0,
                "edge death rate must be in [0, 1]");
  if (dynamics_ == GraphDynamics::kEdgeMarkovian) {
    PP_ASSERT_MSG(!dense_reference_ || n <= kMaxMarkovPopulation,
                  "the dense edge-Markovian reference path caps n at 4096 "
                  "(dense pair universe); drop dense_reference for the "
                  "sparse default");
    PP_ASSERT_MSG(birth_ > 0.0 || death_ > 0.0,
                  "edge-Markovian dynamics with birth = death = 0 are a "
                  "frozen graph; use graph-restricted instead");
  }
  graph_ = std::make_shared<const InteractionGraph>(
      InteractionGraph::make(spec.graph, n, spec.degree, spec.graph_seed));
  name_ = spec.to_string();
}

double DynamicGraphScheduler::resolved_birth() const {
  if (birth_ > 0.0) return birth_;
  // Auto: stationary edge count birth/(birth+death) * P targeting ~n edges
  // (cycle sparsity), clamped for the tiny populations where n edges would
  // exceed the pair universe.
  const double universe = 0.5 * static_cast<double>(n_) *
                          static_cast<double>(n_ - 1);
  const double target =
      std::min(static_cast<double>(n_), 0.75 * universe);
  return std::min(1.0, death_ * target / (universe - target));
}

RunResult DynamicGraphScheduler::run(Protocol& p, Rng& rng,
                                     const RunOptions& opt) const {
  PP_ASSERT_MSG(p.num_agents() == n_,
                "dynamic-graph scheduler built for a different population "
                "size");
  return dynamics_ == GraphDynamics::kEdgeMarkovian
             ? run_markovian(p, rng, opt)
             : run_rewire(p, rng, opt);
}

RunResult DynamicGraphScheduler::run_markovian(Protocol& p, Rng& rng,
                                               const RunOptions& opt) const {
  std::vector<StateId> placement = p.configuration().to_agent_states();
  rng.shuffle(placement);
  if (dense_reference_) {
    MarkovState ms(*graph_, p, std::move(placement), resolved_birth(),
                   resolved_death());
    return markov_loop(ms, p, rng, opt);
  }
  SparseMarkovState ms(*graph_, p, std::move(placement), resolved_birth(),
                       resolved_death());
  return markov_loop(ms, p, rng, opt);
}

RunResult DynamicGraphScheduler::run_rewire(Protocol& p, Rng& rng,
                                            const RunOptions& opt) const {
  const u64 n = p.num_agents();
  const u64 period = resolved_period();
  std::vector<StateId> placement = p.configuration().to_agent_states();
  rng.shuffle(placement);

  std::optional<InteractionGraph> regen;  // owns resampled topologies
  const InteractionGraph* g = graph_.get();
  std::optional<DirectedEdgeSampler> es;
  es.emplace(*g, p, std::move(placement));

  RunResult r;
  GeometricFailures gaps;
  u64 epoch_end = period;
  const auto rewire = [&] {
    std::vector<StateId> states = es->take_states();
    es.reset();  // es points at *g; drop it before regen replaces the graph
    if (graph_kind_ == GraphKind::kRandomRegular) {
      regen.emplace(InteractionGraph::random_regular(n, degree_, rng.bits()));
      g = &*regen;
    }
    // A fresh uniform embedding — for deterministic topologies (cycle,
    // path, ...) the re-placement IS the rewiring; for random-regular it
    // composes with the resampled graph.
    rng.shuffle(states);
    es.emplace(*g, p, std::move(states));
  };

  while (true) {
    if (es->pairs().productive_total() == 0) {
      if (p.is_silent()) break;
      // Locally stuck on this epoch's topology: every remaining step of
      // the epoch is null, so jump straight to the boundary and rewire.
      if (epoch_end >= opt.max_interactions) {
        r.interactions = opt.max_interactions;
        break;
      }
      r.interactions = epoch_end;
      rewire();
      epoch_end += period;
      continue;
    }
    // The epoch's graph is static, so the geometric gap construction of
    // the graph-restricted scheduler applies verbatim — merely capped at
    // the epoch boundary (memorylessness makes the fresh restart under
    // the next topology exact).
    const u64 cap = std::min(opt.max_interactions, epoch_end);
    if (!advance_past_nulls(rng, gaps, es->pairs().productive_probability(),
                            cap, r.interactions)) {
      if (r.interactions >= opt.max_interactions) break;
      rewire();
      epoch_end += period;
      continue;
    }
    es->fire(p, rng);
    ++r.productive_steps;
    if (opt.on_change && !opt.on_change(p, r.interactions)) {
      r.aborted = true;
      break;
    }
    if (r.interactions == epoch_end && r.interactions < opt.max_interactions) {
      rewire();
      epoch_end += period;
    }
  }
  return finish_run(p, r);
}

}  // namespace pp
