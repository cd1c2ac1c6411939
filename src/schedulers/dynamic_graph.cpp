#include "schedulers/dynamic_graph.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
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

// One per-step flip rate with its log1p(-rate), taken once per run.
struct FlipRate {
  double p;
  double log_q;
  explicit FlipRate(double rate) : p(rate), log_q(std::log1p(-rate)) {}

  // (1 - p)^m with the edge cases pinned down before std::exp can produce
  // 0 * inf = NaN.
  double none_of(u64 m) const {
    if (m == 0 || p <= 0.0) return 1.0;
    if (p >= 1.0) return 0.0;
    return std::exp(static_cast<double>(m) * log_q);
  }

  // 1 - (1 - p)^m as the truncated geometric takes it, -expm1(m * log_q).
  double some_of(u64 m) const {
    return -std::expm1(static_cast<double>(m) * log_q);
  }
};

struct FlipCounts {
  u64 births = 0;
  u64 deaths = 0;
};

// One step's birth and death counts over `absent` and `present` pairs,
// conditioned on at least one flip; `A` = P(no births) and `B` = P(no
// deaths).  Partitions "some flip" into {births >= 1} and {no birth,
// deaths >= 1}; within the chosen part the first flipped edge's index is
// a truncated geometric and the remaining trials stay unconditioned
// binomials.  When one category has zero mass (A == 1 or B == 1), route to
// the other directly: u can round exactly onto the boundary, and the
// comparison must never select an impossible branch.
FlipCounts draw_flip_counts(Rng& rng, u64 absent, u64 present,
                            const FlipRate& birth, const FlipRate& death,
                            double A, double B) {
  FlipCounts c;
  const bool births_possible = absent > 0 && birth.p > 0.0;
  const bool deaths_possible = present > 0 && death.p > 0.0;
  const double u = rng.real01() * (1.0 - A * B);
  if (births_possible && (!deaths_possible || u < 1.0 - A)) {
    const u64 first = rng.geometric_failures_truncated(
        birth.p, birth.log_q, absent, birth.some_of(absent));
    c.births = 1 + rng.binomial(absent - 1 - first, birth.p, birth.log_q);
    c.deaths = rng.binomial(present, death.p, death.log_q);
  } else {
    const u64 first = rng.geometric_failures_truncated(
        death.p, death.log_q, present, death.some_of(present));
    c.deaths = 1 + rng.binomial(present - 1 - first, death.p, death.log_q);
  }
  return c;
}

// An open-addressing set of u64 keys: linear probing, and backward-shift
// deletion, so an erase leaves no tombstone behind.  It holds no payload
// and allocates only when it doubles past half load, so a flip that adds
// or drops a key allocates nothing.  ~0 marks an empty slot and is never a
// key.
class KeySet {
 public:
  explicit KeySet(u64 expected) {
    rehash(std::bit_ceil(std::max<u64>(2 * expected, 16)));
  }

  bool contains(u64 key) const {
    for (u64 i = home(key);; i = (i + 1) & mask_) {
      if (slot_[i] == key) return true;
      if (slot_[i] == kEmpty) return false;
    }
  }

  void insert(u64 key) {
    PP_DCHECK(key != kEmpty);
    if (2 * (size_ + 1) > slot_.size()) rehash(2 * slot_.size());
    u64 i = home(key);
    for (; slot_[i] != kEmpty; i = (i + 1) & mask_) {
      if (slot_[i] == key) return;
    }
    slot_[i] = key;
    ++size_;
  }

  void erase(u64 key) {
    u64 hole = home(key);
    for (; slot_[hole] != key; hole = (hole + 1) & mask_) {
      if (slot_[hole] == kEmpty) return;
    }
    // Shift the rest of the probe run back: an entry may fill the hole
    // unless its home lies cyclically in (hole, j].
    for (u64 j = (hole + 1) & mask_; slot_[j] != kEmpty; j = (j + 1) & mask_) {
      if (((j - home(slot_[j])) & mask_) >= ((j - hole) & mask_)) {
        slot_[hole] = slot_[j];
        hole = j;
      }
    }
    slot_[hole] = kEmpty;
    --size_;
  }

 private:
  static constexpr u64 kEmpty = ~u64{0};

  // Fibonacci hashing: the top bits of key times 2^64 / phi.
  u64 home(u64 key) const { return (key * 0x9e3779b97f4a7c15ULL) >> shift_; }

  void rehash(u64 slots) {
    std::vector<u64> old = std::move(slot_);
    slot_.assign(slots, kEmpty);
    mask_ = slots - 1;
    shift_ = 64 - static_cast<u32>(std::countr_zero(slots));
    size_ = 0;
    for (const u64 key : old) {
      if (key != kEmpty) insert(key);
    }
  }

  std::vector<u64> slot_;
  u64 mask_ = 0;
  u32 shift_ = 0;
  u64 size_ = 0;
};

// Per vertex, the ids of the pairs incident to it.
using Adjacency = std::vector<std::vector<u32>>;

// A pair's endpoints (u < v) and its index in each endpoint's list of the
// adjacency.
struct Link {
  u32 u = 0, v = 0;
  u32 at_u = 0, at_v = 0;
};

// Appends pair `id` to both endpoints' lists.
void link_pair(Adjacency& adj, std::vector<Link>& links, u32 id) {
  Link& l = links[id];
  l.at_u = static_cast<u32>(adj[l.u].size());
  l.at_v = static_cast<u32>(adj[l.v].size());
  adj[l.u].push_back(id);
  adj[l.v].push_back(id);
}

// Swap-removes pair `id` from both endpoints' lists, re-indexing the ids
// moved into them.
void unlink_pair(Adjacency& adj, std::vector<Link>& links, u32 id) {
  const Link l = links[id];
  for (const auto& [vtx, idx] :
       {std::pair{l.u, l.at_u}, std::pair{l.v, l.at_v}}) {
    std::vector<u32>& list = adj[vtx];
    const u32 moved = list.back();
    list[idx] = moved;
    Link& m = links[moved];
    (m.u == vtx ? m.at_u : m.at_v) = idx;
    list.pop_back();
  }
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
  std::vector<StateId> state;         // per vertex
  std::vector<Link> links;            // pair id -> (u, v), u < v, adj index
  PairSampler pairs;                  // directed ids 2*pid + orient
  std::vector<u32> present, absent;   // pair ids, unordered
  std::vector<u32> where;             // pair id -> index in its list
  Adjacency adj;                      // per vertex: present pair ids

  MarkovState(const InteractionGraph& g, const Protocol& proto,
              std::vector<StateId> placement)
      : p(proto),
        n(placement.size()),
        num_pairs(n * (n - 1) / 2),
        state(std::move(placement)) {
    links.reserve(num_pairs);
    for (u32 u = 0; u < n; ++u) {
      for (u32 v = u + 1; v < n; ++v) links.push_back({u, v});
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
      const u32 a = links[pid].u;
      const u32 b = links[pid].v;
      weights[2 * pid] = weights[2 * pid + 1] = seeded[pid] ? 1 : 0;
      flags[2 * pid] = pair_is_productive(p, state[a], state[b]) ? 1 : 0;
      flags[2 * pid + 1] = pair_is_productive(p, state[b], state[a]) ? 1 : 0;
    }
    pairs.reset(std::move(weights), std::move(flags));
    where.assign(num_pairs, kNotInList);
    adj.resize(n);
    for (u32 pid = 0; pid < num_pairs; ++pid) {
      if (seeded[pid]) {
        where[pid] = static_cast<u32>(present.size());
        present.push_back(pid);
        link_pair(adj, links, pid);
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

  u32 pair_id(u32 a, u32 b) const {
    const u64 u = std::min(a, b);
    const u64 v = std::max(a, b);
    return static_cast<u32>(u * (n - 1) - u * (u - 1) / 2 + (v - u - 1));
  }

  bool is_present(u32 pid) const {
    return pairs.weight(2 * static_cast<u64>(pid)) != 0;
  }

  void refresh_pair(u32 pid) {
    const u32 a = links[pid].u;
    const u32 b = links[pid].v;
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
      link_pair(adj, links, pid);
    } else {
      unlink_pair(adj, links, pid);
    }
    pairs.set_weight(2 * static_cast<u64>(pid), now ? 1 : 0);
    pairs.set_weight(2 * static_cast<u64>(pid) + 1, now ? 1 : 0);
  }

  /// Applies one step's flips: `births` absent and `deaths` present pairs.
  void apply_flips(Rng& rng, FlipCounts flips) {
    // The flip count plus a uniform subset of that size IS m independent
    // Bernoulli trials (exchangeability); read both victim sets before
    // mutating either list.
    std::vector<u32> born, died;
    born.reserve(flips.births);
    died.reserve(flips.deaths);
    for (const u64 idx : rng.sample_distinct(absent.size(), flips.births)) {
      born.push_back(absent[idx]);
    }
    for (const u64 idx : rng.sample_distinct(present.size(), flips.deaths)) {
      died.push_back(present[idx]);
    }
    for (const u32 pid : born) set_presence(pid, true);
    for (const u32 pid : died) set_presence(pid, false);
  }

  /// A productive present pair as (initiator, responder).
  std::pair<u32, u32> sample_productive(Rng& rng) const {
    const u64 d = pairs.sample_productive(rng);
    const Link& l = links[static_cast<u32>(d >> 1)];
    return (d & 1) ? std::make_pair(l.v, l.u) : std::make_pair(l.u, l.v);
  }
};

// The sparse default state of the edge-Markovian model: only the present
// edge set is materialised — a DirectedPairRoster with a flat membership
// index of the present pairs, plus per-vertex adjacency over live entries,
// O(n + present edges) memory against the dense path's Θ(n²).  The step
// distribution is unchanged: flip counts come from the same conditioned
// truncated-geometric + binomial construction (the absent count is
// arithmetic: P - present), death victims are a uniform distinct sample of
// the roster, and birth victims are drawn by rejection — uniform pairs of
// the arithmetic universe, resampled while they hit the thin present set
// (or an earlier victim of the same step), which is exactly a uniform
// distinct sample of the absent set.  Rejection is cheap precisely in the
// sparse regime the model targets (present ≪ P); the worst case (a
// near-complete graph, where expected retries approach P / absent) is only
// reachable at the small populations the dense-seeded specs use.
struct SparseMarkovState {
  static constexpr u32 kNotDying = ~u32{0};

  const Protocol& p;
  u64 n;
  u64 num_pairs;  // P = n(n-1)/2
  std::vector<StateId> state;                 // per vertex
  DirectedPairRoster roster;                  // live entries = present pairs
  std::vector<Link> links;                    // entry -> (u, v), u < v, adj
  Adjacency adj;                              // per vertex: entry ids
  KeySet present;                             // key(u, v) of present pairs
  // One flip step's victims, reused across steps: the born pairs, the
  // dying entry ids, and per entry its index in dying (kNotDying if none),
  // so a swap-remove that moves a dying entry repoints it in O(1).
  std::vector<std::pair<u32, u32>> born;
  std::vector<u64> dying;
  std::vector<u32> dying_at;

  SparseMarkovState(const InteractionGraph& g, const Protocol& proto,
                    std::vector<StateId> placement)
      : p(proto),
        n(placement.size()),
        num_pairs(n * (n - 1) / 2),
        state(std::move(placement)),
        roster(2 * g.num_edges() + 16),
        present(2 * g.num_edges()) {
    adj.resize(n);
    for (const auto& [u, v] : g.edges()) {
      const u32 lo = std::min(u, v);
      const u32 hi = std::max(u, v);
      if (present.contains(key(lo, hi))) continue;  // multigraph collapse
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
    PP_DCHECK(e == links.size());
    links.push_back({u, v});
    link_pair(adj, links, static_cast<u32>(e));
    dying_at.push_back(kNotDying);
    present.insert(key(u, v));
  }

  void remove_present(u32 e) {
    present.erase(key(links[e].u, links[e].v));
    unlink_pair(adj, links, e);
    const u64 moved = roster.remove(e);
    if (moved != DirectedPairRoster::kNoEntry) {
      // The roster swap-filled the hole with its back entry; repoint every
      // structure that knew the back entry by its old id.
      const Link& l = links[e] = links[moved];
      adj[l.u][l.at_u] = e;
      adj[l.v][l.at_v] = e;
      dying_at[e] = dying_at[moved];
      if (dying_at[e] != kNotDying) dying[dying_at[e]] = e;
    }
    links.pop_back();
    dying_at.pop_back();
  }

  /// Uniform distinct absent pairs by rejection against the present set
  /// and the batch's earlier picks (written into `born`).
  void sample_absent(Rng& rng, u64 count) {
    born.clear();
    born.reserve(count);
    while (born.size() < count) {
      const auto [a, b] = rng.ordered_pair(n);
      const u32 u = static_cast<u32>(std::min(a, b));
      const u32 v = static_cast<u32>(std::max(a, b));
      if (present.contains(key(u, v))) {
        PP_OBS_INC(kRosterRejections);
        continue;
      }
      bool duplicate = false;
      for (const auto& picked : born) {
        if (picked.first == u && picked.second == v) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) born.emplace_back(u, v);
    }
  }

  void refresh_vertex(u32 v) {
    for (const u32 e : adj[v]) {
      const Link& l = links[e];
      roster.set_flag(e, 0, productive(l.u, l.v));
      roster.set_flag(e, 1, productive(l.v, l.u));
    }
  }

  /// Applies one step's flips: `births` absent and `deaths` present pairs.
  void apply_flips(Rng& rng, FlipCounts flips) {
    // Both victim sets are drawn before either is applied.  Births are
    // appended behind the entries alive now, so the dying entries keep
    // their ids until the removals start, which follow the sampled order.
    sample_absent(rng, flips.births);
    rng.sample_distinct(present_count(), flips.deaths, dying);
    for (const auto& [u, v] : born) add_present(u, v);
    for (u64 i = 0; i < dying.size(); ++i) {
      dying_at[dying[i]] = static_cast<u32>(i);
    }
    for (u64 i = 0; i < dying.size(); ++i) {
      const u32 e = static_cast<u32>(dying[i]);
      dying_at[e] = kNotDying;
      remove_present(e);
    }
  }

  /// A productive present pair as (initiator, responder).
  std::pair<u32, u32> sample_productive(Rng& rng) const {
    const auto [e, orient] = roster.sample_productive(rng);
    const Link& l = links[e];
    return orient != 0 ? std::make_pair(l.v, l.u) : std::make_pair(l.u, l.v);
  }
};

// The edge-Markovian model over either state representation, as a
// run_exact sampler.  One step is: every potential edge flips
// independently, then one directed present edge is drawn.  A step is an
// event when some edge flips (probability f, constant while the graph is
// unchanged) or — flip-free steps keep the graph static — the draw is
// productive (probability q).  The gap to the next event is therefore
// exactly geometric, which is what keeps null-skipping alive on a topology
// that changes.  An event that only flips edges changes no agent, so fire
// reports it as Fired::kNull.
template <typename State>
struct MarkovEvents {
  State& graph;
  FlipRate birth, death;                    // per-step edge flip rates
  double no_births = 1.0, no_deaths = 1.0;  // A and B of the current step
  double flip = 0.0, productive = 0.0, event = 0.0;  // f, q, f + (1-f) q

  MarkovEvents(State& g, double birth_rate, double death_rate)
      : graph(g), birth(birth_rate), death(death_rate) {}

  // 0 once the protocol is silent, and when the graph is frozen (f = 0)
  // on a locally stuck configuration (q = 0).
  double productive_probability() {
    if (graph.p.is_silent()) return 0.0;
    no_births = birth.none_of(graph.absent_count());
    no_deaths = death.none_of(graph.present_count());
    flip = 1.0 - no_births * no_deaths;
    productive = graph.productive_probability();
    event = flip + (1.0 - flip) * productive;
    return event;
  }

  Fired fire(Protocol& p, Rng& rng) {
    // q == 0 forces the flip branch outright: the draw below can round
    // onto the event probability exactly, and firing with no productive
    // pair would be nonsense.
    if (productive <= 0.0 || rng.real01() * event < flip) {
      // The event opens with flips; its interaction slot then draws on the
      // post-flip graph.
      graph.apply_flips(rng, draw_flip_counts(rng, graph.absent_count(),
                                              graph.present_count(), birth,
                                              death, no_births, no_deaths));
      if (!rng.bernoulli(graph.productive_probability())) {
        return Fired::kNull;
      }
    }
    const auto [ini, res] = graph.sample_productive(rng);
    const auto [si, sr] = p.apply_pair(graph.state[ini], graph.state[res]);
    PP_DCHECK(si != graph.state[ini] || sr != graph.state[res]);
    graph.state[ini] = si;
    graph.state[res] = sr;
    graph.refresh_vertex(ini);
    graph.refresh_vertex(res);
    return Fired::kStep;
  }
};

// The periodic-rewire model as a run_exact sampler: each epoch's topology
// is static, so it is the graph-restricted DirectedEdgeSampler with the
// epoch's end as the horizon.  At every boundary the agent placement is
// re-drawn (and a random-regular topology resampled).
class RewireEpochs {
 public:
  RewireEpochs(const InteractionGraph& g, const Protocol& p,
               std::vector<StateId> placement, GraphKind kind, u64 degree,
               u64 period)
      : p_(p), g_(&g), kind_(kind), degree_(degree), period_(period),
        epoch_end_(period),
        es_(std::in_place, g, p, std::move(placement)) {}

  double productive_probability() const {
    return es_->productive_probability();
  }
  void fire(Protocol& p, Rng& rng) { es_->fire(p, rng); }
  u64 horizon() const { return epoch_end_; }

  void on_horizon(Rng& rng) {
    std::vector<StateId> states = es_->take_states();
    es_.reset();  // es_ points at *g_; drop it before regen_ replaces it
    if (kind_ == GraphKind::kRandomRegular) {
      regen_.emplace(
          InteractionGraph::random_regular(p_.num_agents(), degree_,
                                           rng.bits()));
      g_ = &*regen_;
    }
    // A fresh uniform embedding — for deterministic topologies (cycle,
    // path, ...) the re-placement IS the rewiring; for random-regular it
    // composes with the resampled graph.
    rng.shuffle(states);
    es_.emplace(*g_, p_, std::move(states));
    epoch_end_ += period_;
  }

 private:
  const Protocol& p_;
  const InteractionGraph* g_;
  GraphKind kind_;
  u64 degree_;
  u64 period_;
  u64 epoch_end_;
  std::optional<InteractionGraph> regen_;  // owns resampled topologies
  std::optional<DirectedEdgeSampler> es_;
};

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
  std::vector<StateId> placement = p.configuration().to_agent_states();
  rng.shuffle(placement);
  if (dynamics_ == GraphDynamics::kPeriodicRewire) {
    RewireEpochs epochs(*graph_, p, std::move(placement), graph_kind_,
                        degree_, resolved_period());
    return run_exact(p, rng, opt, epochs);
  }
  if (dense_reference_) {
    MarkovState ms(*graph_, p, std::move(placement));
    MarkovEvents<MarkovState> events(ms, resolved_birth(), resolved_death());
    return run_exact(p, rng, opt, events);
  }
  SparseMarkovState ms(*graph_, p, std::move(placement));
  MarkovEvents<SparseMarkovState> events(ms, resolved_birth(),
                                         resolved_death());
  return run_exact(p, rng, opt, events);
}

}  // namespace pp
