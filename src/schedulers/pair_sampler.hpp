// The Fenwick-backed pair-sampler layer: "sample a pair proportionally to
// weight, keep the weights fresh as agents change state".
//
// Every scheduler in this library is secretly sampling from a weight
// function over ordered pairs: the uniform scheduler weights all n(n-1)
// ordered pairs equally, the graph-restricted scheduler weights directed
// edges of a topology 1 and everything else 0, a spatial model weights
// pairs by distance decay, and a dynamic graph moves weight around as
// edges are born and die.  This module extracts the machinery those models
// share — the same construction the protocols' own productive-weight
// Fenwick uses, lifted from states to pairs:
//
//   * a Fenwick tree of per-pair *scheduling weights* w(e) (how likely the
//     scheduler is to propose pair e next), plus
//   * a parallel Fenwick of *productive weights* — w(e) for exactly those
//     pairs whose interaction would change a state, 0 elsewhere — kept in
//     sync through point updates.
//
// With both totals known exactly, the accelerated path of any scheduler
// built on this layer falls out for free: the gap to the next productive
// step is Geometric(productive_total / weight_total) and the firing pair
// is sampled from the productive tree — the uniform engine's exact
// null-skipping construction, generalised to arbitrary weights.
//
// PairSampler is deliberately protocol-agnostic: callers decide what a
// pair id means (directed edge of a graph, dense (i, j) index, ...), test
// productivity against δ themselves, and tell the sampler.
// DirectedEdgeSampler below is the graph-shaped glue used by the
// graph-restricted and dynamic-graph schedulers.
//
// Scaling past the dense universe.  A flat PairSampler over all n(n-1)
// ordered pairs is the *reference* construction: transparent, exactly
// incremental, and Θ(n²) in memory — which caps it near n = 4096.  The
// second half of this header is the sparse/hierarchical replacement that
// lifts the weighted and dynamic models to the n ~ 10^5 the uniform
// engines handle:
//
//   * DistanceKernel — a translation-invariant kernel w(i, j) = K(d(i, j))
//     held in closed form: O(n) prefix tables, O(log n) weighted pair
//     sampling, u64-overflow-checked totals.  The weight function is
//     *evaluated*, never materialised.
//   * GroupedKernelSampler — the two-level productive sampler: same-state
//     rank pairs resolve through a top-level Fenwick over per-state
//     within-group kernel mass with partners found inside the (small)
//     group, and extra-state pairs through per-agent kernel-row masses
//     driven by the protocol's declared ExtraPairClasses (every library
//     protocol qualifies).  O(n) memory, O(log n + group) sampling,
//     O(group + log n) weight update per state change — against the dense
//     path's Θ(n²) memory and Θ(n log n) update.
//   * TrapKernelSampler — the state-distance spatial sampler behind
//     weighted[trap-decay]: product weights κ(state, state) over
//     ring_layout trap distance, run entirely on per-trap count
//     aggregates (O(states) memory; O(log states) per same-trap move,
//     O(√states) per move across traps).
//   * DirectedPairRoster — a compacting roster of unit-weight directed
//     pairs that grows and shrinks (the edge-Markovian present set), kept
//     as one productive-flag tree: memory tracks the *live* edge count,
//     not the pair universe.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "core/protocol.hpp"
#include "ds/fenwick.hpp"
#include "rng/random.hpp"
#include "structures/interaction_graph.hpp"
#include "structures/ring_layout.hpp"

namespace pp {

/// The agent-level pair-productivity predicate shared by every sampler
/// glue layer: "δ changes either endpoint's state".  This is deliberately
/// not Protocol::productive_weight's "changes the configuration" — the
/// two coincide for every protocol in this library (δ is null iff it
/// returns its inputs unchanged; rules never merely swap states), but a
/// hypothetical swap rule δ(a,b) = (b,a) WOULD count as productive here:
/// under the positional schedulers agents have positions, so a swap
/// genuinely moves state around even though the count vector is
/// unchanged.  Such a protocol never reaches pair-silence on its own —
/// run it with a finite RunOptions::max_interactions.
inline bool pair_is_productive(const Protocol& p, StateId initiator,
                               StateId responder) {
  return p.transition(initiator, responder) !=
         std::make_pair(initiator, responder);
}

class PairSampler {
 public:
  PairSampler() = default;
  explicit PairSampler(u64 universe) { reset(universe); }

  /// Re-initialises to `universe` pair slots, all with weight 0 and marked
  /// unproductive.
  void reset(u64 universe);

  /// Bulk re-initialisation: scheduling weights plus productivity flags
  /// (the productive tree becomes `weights` masked to `flags`).  O(n) via
  /// Fenwick::assign — the dense pair universes are rebuilt per run, so
  /// construction cost matters.
  void reset(std::vector<u64> weights, std::vector<u8> flags);

  u64 universe() const { return weight_.size(); }

  /// Scheduling weight of pair `id` (0 = the scheduler never proposes it).
  u64 weight(u64 id) const { return weight_.get(id); }
  u64 weight_total() const { return weight_.total(); }

  /// Total scheduling weight of the currently productive pairs.
  u64 productive_total() const { return productive_.total(); }

  /// Per-step probability that a weight-proportional draw is productive
  /// (the accelerated path's geometric success probability); 0 when no
  /// weight is assigned at all.
  double productive_probability() const {
    const u64 total = weight_.total();
    if (total == 0) return 0.0;
    return static_cast<double>(productive_.total()) /
           static_cast<double>(total);
  }

  /// Sets the scheduling weight of `id`, keeping the productive tree in
  /// sync with the pair's current productivity flag.  This is how dynamic
  /// models move weight around (an edge death is set_weight(id, 0)).
  void set_weight(u64 id, u64 w);

  /// Records whether pair `id` is currently productive (its interaction
  /// would change a state).  The productive tree carries w(id) for flagged
  /// pairs and 0 otherwise; flags are tracked even for zero-weight pairs,
  /// so a later set_weight restores the right productive mass.
  void set_productive(u64 id, bool productive);
  bool productive(u64 id) const { return flag_[id] != 0; }

  /// Samples a pair with probability weight(id) / weight_total().
  /// Precondition: weight_total() > 0.
  u64 sample(Rng& rng) const {
    PP_DCHECK(weight_.total() > 0);
    return weight_.find(rng.below(weight_.total()));
  }

  /// Samples a productive pair with probability proportional to its
  /// weight.  Precondition: productive_total() > 0.
  u64 sample_productive(Rng& rng) const {
    PP_DCHECK(productive_.total() > 0);
    return productive_.find(rng.below(productive_.total()));
  }

 private:
  Fenwick weight_;      // per-pair scheduling weights
  Fenwick productive_;  // weight_ masked to the productive pairs
  std::vector<u8> flag_;
};

/// The graph-shaped glue over PairSampler: binds the 2|E| directed edges
/// of an InteractionGraph (pair id = 2 * edge + orientation) to a protocol
/// and a per-vertex state vector, with unit scheduling weight per directed
/// edge.  A productive application at (u, v) only changes the states of u
/// and v, so fire() re-tests just the edges incident to the two endpoints
/// against δ — O(deg) work per productive step on bounded-degree
/// topologies.  The graph-restricted scheduler holds one per run; the
/// periodic-rewiring dynamics rebuild one per epoch (take_states()
/// carries the population across).
class DirectedEdgeSampler {
 public:
  /// `states` is the per-vertex agent placement; every directed edge gets
  /// weight 1 and its productivity is computed up front.
  DirectedEdgeSampler(const InteractionGraph& g, const Protocol& p,
                      std::vector<StateId> states);

  const PairSampler& pairs() const { return pairs_; }

  /// Per-step probability that a uniform directed-edge draw is productive
  /// (run_exact's sampler interface; 0 at edge-silence).
  double productive_probability() const {
    return pairs_.productive_probability();
  }

  /// Endpoints of a directed edge id as (initiator, responder).
  std::pair<u32, u32> endpoints(u64 directed) const {
    const auto [u, v] = g_->edges()[directed >> 1];
    return (directed & 1) ? std::make_pair(v, u) : std::make_pair(u, v);
  }

  /// Applies δ at the endpoints of `directed` (which must be productive),
  /// updates the vertex states and refreshes every incident directed edge.
  void fire(Protocol& p, u64 directed);

  /// Samples a productive directed edge and fires it (run_exact's sampler
  /// interface).  Precondition: pairs().productive_total() > 0.
  void fire(Protocol& p, Rng& rng) { fire(p, pairs_.sample_productive(rng)); }

  /// Edge productivity through the shared pair_is_productive predicate
  /// (see its comment above for the agent-level vs configuration-level
  /// subtlety).
  bool is_productive(u64 directed) const {
    const auto [u, v] = endpoints(directed);
    return pair_is_productive(*p_, state_[u], state_[v]);
  }

  const std::vector<StateId>& states() const { return state_; }

  /// Hands the state vector to the caller (for rebuilding on a rewired
  /// graph); the sampler must not be used afterwards.
  std::vector<StateId> take_states() { return std::move(state_); }

 private:
  void refresh(u64 directed) {
    pairs_.set_productive(directed, is_productive(directed));
  }

  const InteractionGraph* g_;
  const Protocol* p_;
  std::vector<StateId> state_;
  PairSampler pairs_;
};

/// A translation-invariant pair-weight kernel w(i, j) = K(d(i, j)) over n
/// positions, held in closed form instead of as a dense table: one prefix
/// array over the decay profile K (plus, on the line, one over the row
/// totals) answers every query the dense Θ(n²) table answered —
/// pair weight, row marginal, grand total, and weight-proportional
/// sampling of a pair or of a partner given one endpoint — in O(log n)
/// from O(n) memory.  This is the top level of the hierarchical sampler:
/// the weight function is evaluated on demand, never materialised.
///
/// Geometry picks the distance: kRing wraps (d = min(|i-j|, n-|i-j|),
/// profile length floor(n/2)), kLine does not (d = |i-j|, profile length
/// n-1).  The profile must be positive everywhere (a zero-weight distance
/// would sever pairs and break the "weighted runs cannot get locally
/// stuck" guarantee).  Construction checks that the grand total fits u64
/// exactly (128-bit accumulation) — the principled replacement for the
/// dense path's blanket population cap.
class DistanceKernel {
 public:
  enum class Geometry { kRing, kLine };

  /// `decay[d - 1]` is K(d) for d = 1..decay.size(); the profile length
  /// must match the geometry (see above).
  DistanceKernel(Geometry g, u64 n, std::vector<u64> decay);

  u64 n() const { return n_; }
  Geometry geometry() const { return geom_; }

  /// Kernel weight of ordered pair (i, j).  Requires i != j; symmetric by
  /// construction.
  u64 weight(u64 i, u64 j) const;

  /// Row marginal: sum of w(i, j) over all j != i.
  u64 row_total(u64 i) const;

  /// Grand total over all n(n-1) ordered pairs.
  u64 total() const { return total_; }

  /// Samples ordered pair (i, j) with probability w(i, j) / total().
  std::pair<u64, u64> sample_pair(Rng& rng) const;

  /// Samples j with probability w(i, j) / row_total(i).
  u64 sample_partner(Rng& rng, u64 i) const;

  /// Deterministic partner resolution: the j whose row slot contains
  /// `target` (in [0, row_total(i))) under the fixed clockwise-arm-first
  /// (ring) / left-first (line) row order sample_partner draws from.
  /// Callers that already hold a uniform target (the grouped sampler's
  /// extra-class window) invert the row CDF without spending a draw.
  u64 partner_at(u64 i, u64 target) const;

  /// Number of u64 slots held — tests pin this at O(n) to prove the
  /// hierarchical path never re-grows a dense pair universe.
  u64 memory_slots() const { return prefix_.size() + row_prefix_.size(); }

 private:
  /// Smallest d with prefix_[d] > target (i.e. inverts the decay-profile
  /// CDF; target < prefix_.back()).
  u64 find_distance(u64 target) const;

  Geometry geom_;
  u64 n_ = 0;
  std::vector<u64> prefix_;      // prefix_[d] = K(1) + ... + K(d)
  std::vector<u64> row_prefix_;  // kLine only: prefix sums of row totals
  u64 ring_row_ = 0;             // kRing: the (shared) row marginal
  u64 total_ = 0;
};

/// The two-level productive sampler over a DistanceKernel: level one is a
/// Fenwick across *states* carrying each state's within-group ordered
/// kernel mass, level two resolves the pair inside the (small) group of
/// agents currently sharing that state.
///
/// Scope.  The rank-state half rides this library's protocol backbone
/// (every rank state carries a same-state rule that changes the
/// configuration, and distinct-rank pairs are null).  Extra states ride
/// the protocol's Protocol::ExtraPairClasses declaration: the supported
/// patterns are "no extra pair productive" (extra-state-free protocols,
/// inert extras) and "all (extra, extra) pairs plus exactly one
/// orientation of cross pairs productive" — line-of-traps (every pair
/// with an X *responder* fires) and tree-ranking (every pair with a
/// buffer *initiator* fires).  For those patterns the productive extra
/// mass collapses to Σ over extra-state agents b of the kernel row total
/// of b — a per-position Fenwick updated in O(log n) per membership
/// change, with the partner drawn unconditionally from b's kernel row
/// (any partner forms a productive pair).  supports() reports whether a
/// protocol's declared pattern fits; the declaration itself is
/// cross-checked against transition() on a bounded probe set at
/// construction; an unsupported pattern fails that check (only the
/// weighted scheduler's dense reference path can run it).
///
/// Costs, with g the size of the groups touched (O(log n / log log n)
/// under a uniform random placement):  O(n) memory, O(log n + g) per
/// productive sample, O(g + log n) per agent state change — against the
/// dense path's Θ(n²) memory and Θ(n log n) per productive step.  Both
/// totals (kernel total, productive total) are exact, so the accelerated
/// geometric null-skipping construction carries over unchanged.
class GroupedKernelSampler {
 public:
  /// `placement` maps position -> current state; the kernel fixes n.
  GroupedKernelSampler(const DistanceKernel& kernel, const Protocol& p,
                       std::vector<StateId> placement);

  /// Whether this sampler can represent p's productive-pair structure:
  /// true for extra-state-free protocols and for declared extra-pair
  /// patterns where the extra mass is a sum of full kernel rows (all
  /// (extra, extra) pairs productive together with exactly one cross
  /// orientation, or no extra pair productive at all).
  static bool supports(const Protocol& p);

  u64 weight_total() const { return kernel_->total(); }
  u64 productive_total() const { return productive_.total() + extra_total(); }

  /// Per-step probability that a weight-proportional draw is productive.
  double productive_probability() const {
    return static_cast<double>(productive_total()) /
           static_cast<double>(kernel_->total());
  }

  /// Samples a productive ordered pair of positions with probability
  /// proportional to its kernel weight.  Precondition:
  /// productive_total() > 0.
  std::pair<u64, u64> sample_productive(Rng& rng) const;

  /// Applies δ at positions (i, j) — which must currently be productive —
  /// through p.apply_pair and migrates the agents between groups.
  void fire(Protocol& p, u64 i, u64 j);

  /// Samples a productive pair and fires it (run_exact's sampler
  /// interface).  Precondition: productive_total() > 0.
  void fire(Protocol& p, Rng& rng) {
    const auto [i, j] = sample_productive(rng);
    fire(p, i, j);
  }

  const std::vector<StateId>& states() const { return state_; }

  /// Within-group ordered kernel mass of state s (exposed for the
  /// dense-vs-hierarchical cross-validation tests).  Rank states only;
  /// extra-state pairs live in the extra-class window.
  u64 group_mass(StateId s) const { return productive_.get(s); }

  /// Total extra-class productive mass (Σ of kernel row totals over the
  /// extra-state agents; 0 when no extra class is productive).  Exposed
  /// for the cross-validation tests.
  u64 extra_total() const {
    return has_extra_window_ ? extra_mass_.total() : 0;
  }

 private:
  /// Asserts the declared ExtraPairClasses (and the backbone's rank-pair
  /// structure) against transition() on a bounded probe set.
  void verify_classes() const;

  void move_agent(u64 a, StateId from, StateId to);

  const DistanceKernel* kernel_;
  const Protocol* p_;
  Protocol::ExtraPairClasses classes_;
  u64 num_ranks_ = 0;
  bool has_extra_window_ = false;  // any extra class productive
  std::vector<StateId> state_;            // per position
  std::vector<std::vector<u32>> group_;   // per state: member positions
  std::vector<u32> slot_;                 // position -> index in its group
  // Rank-state agents only: Σ over the members y after position a in its
  // group of 2 w(a, y), so each rank group's after_ sums to its mass.
  std::vector<u64> after_;
  Fenwick productive_;    // per rank state: within-group mass
  Fenwick extra_mass_;    // per position: kernel row total iff extra agent
};

/// The state-distance spatial sampler behind weighted[trap-decay]: pair
/// weights are a *product kernel* over states, w(pair) = κ(s, t) for an
/// agent in state s meeting an agent in state t, with κ(s, t) =
/// ⌊T/max(d, 1)⌋^power over the ring distance d between the traps of s
/// and t in the structures/ring_layout geometry (T traps ≈ √states laid
/// over ALL states, extras included).  Unlike the positional
/// DistanceKernel models, the weight of a pair *moves with the agents'
/// states* — spatially embedded populations where locality lives in the
/// state space itself — so there is no meaningful positional dense
/// reference; tests cross-validate against a direct Θ(states²)
/// enumeration over the count vector instead.
///
/// Agents are anonymous here (the kernel cannot distinguish two agents in
/// the same state), so the whole sampler runs on per-trap aggregates of
/// the count vector: per-trap agent/extra-agent counts, the per-trap row
/// sums R[A] = Σ_B n_B κ(A, B), the quadratic form Q = Σ_A n_A R[A] and
/// the extra-row sum Σ extra agents' rows — every total exact, so the
/// accelerated geometric null-skipping construction carries over.  An
/// event folds its count changes into net per-trap deltas: a move that
/// stays inside its trap costs only O(log states) Fenwick work, and one
/// that crosses traps (or enters or leaves the extra states) adds one
/// O(√states) pass over the trap rows.  A draw that lands in the extra
/// window scans the extra states and the traps.  Memory O(states).
/// Extra-state productivity rides the same Protocol::ExtraPairClasses
/// patterns GroupedKernelSampler supports.
class TrapKernelSampler {
 public:
  /// Builds from p's current configuration; `power` in {1, 2, 3}.
  TrapKernelSampler(const Protocol& p, u64 power);

  /// Same supported class patterns as the grouped sampler.
  static bool supports(const Protocol& p) {
    return GroupedKernelSampler::supports(p);
  }

  /// Total scheduling weight over all ordered pairs of distinct agents.
  u64 weight_total() const;
  /// Total scheduling weight of the productive ordered pairs.
  u64 productive_total() const;

  double productive_probability() const {
    return static_cast<double>(productive_total()) /
           static_cast<double>(weight_total());
  }

  /// Samples a productive ordered state pair κ-proportionally, applies it
  /// through p.apply_pair and folds the count deltas back in.
  /// Precondition: productive_total() > 0.
  void fire(Protocol& p, Rng& rng);

  /// Kernel value κ(s, t) — also defined on the diagonal (κ(s, s) is the
  /// weight of a same-state pair).  Exposed for the direct-enumeration
  /// cross-validation tests.
  u64 kappa(StateId s, StateId t) const;

  u64 num_traps() const { return layout_.num_traps(); }

  /// Number of u64 slots held — tests pin this at O(states).
  u64 memory_slots() const {
    return kval_.size() + trap_count_.size() + trap_extra_.size() +
           row_.size() + extra_row_.size() + counts_.size();
  }

 private:
  /// Trap-distance kernel value for trap ring distance d.
  u64 kval(u64 a, u64 b) const {
    const u64 gap = a > b ? a - b : b - a;
    return kval_[std::min(gap, layout_.num_traps() - gap)];
  }

  /// Net per-trap changes of one event's agent and extra-agent counts:
  /// at most four traps (two agents, each leaving one state for another).
  struct TrapDeltas {
    u64 trap[4];
    i64 agents[4];
    i64 extras[4];
    u64 size = 0;
    void add(u64 trap_id, i64 da, i64 de);
  };

  /// Folds one count change (state s gains `delta` ∈ {-1, +1} agents)
  /// into counts_, rank_diag_ and x_extra_, and its trap's share into d;
  /// O(log states).
  void count_change(StateId s, i64 delta, TrapDeltas& d);

  /// Folds an event's net trap deltas into the trap rows, Q and SER: no
  /// work when every trap's changes cancel, else one O(√states) pass.
  void apply_trap_deltas(const TrapDeltas& d);

  const Protocol* p_;
  Protocol::ExtraPairClasses classes_;
  u64 num_ranks_ = 0;
  u64 n_ = 0;
  u64 k1_ = 0;  // κ at trap distance 0 or 1 (= T^power)
  RingLayout layout_;
  std::vector<u64> kval_;        // kernel value per trap ring distance
  std::vector<Count> counts_;    // mirror of p's count vector
  std::vector<u64> trap_count_;  // agents per trap
  std::vector<u64> trap_extra_;  // extra-state agents per trap
  std::vector<u64> row_;         // R[A] = Σ_B n_B κ(A, B)
  std::vector<u64> extra_row_;   // RE[A] = Σ_B E_B κ(A, B)
  u64 q_ = 0;                    // Σ_A n_A R[A] (incl. self pairs)
  u64 ser_ = 0;                  // Σ_A E_A R[A]
  u64 x_extra_ = 0;              // total extra-state agents
  Fenwick rank_diag_;            // per rank state: c(c-1)
};

/// A compacting roster of entries that grow and shrink: live entries
/// occupy indices [0, size()), each owning two directed slots (2e for
/// entry e's forward orientation, 2e+1 for the reverse) with independent
/// productivity flags.  Every live slot has scheduling weight 1, so the
/// only tree kept is the productive one, over the flags, and the
/// scheduling total is 2 size() by arithmetic; a slot whose flag stays
/// put costs no tree update.  remove() swap-fills
/// the hole from the back — the caller learns which entry moved and
/// repoints its own bookkeeping — and add() doubles the capacity by
/// O(capacity) rebuild when the roster outgrows it, so memory tracks the
/// live entry count, never a pair universe.  This is the sparse
/// edge-Markovian model's present-edge store.
class DirectedPairRoster {
 public:
  static constexpr u64 kNoEntry = ~static_cast<u64>(0);

  explicit DirectedPairRoster(u64 initial_capacity = 16);

  u64 size() const { return size_; }
  u64 capacity() const { return capacity_; }

  /// Appends a live entry with the given orientation flags; returns its
  /// index (== previous size()).
  u64 add(bool fwd_productive, bool rev_productive);

  /// Removes entry e.  Returns the index of the entry that was moved into
  /// the hole (the previous back), or kNoEntry when e was the back.
  u64 remove(u64 e);

  void set_flag(u64 e, u64 orientation, bool productive) {
    PP_DCHECK(e < size_ && orientation < 2);
    set_slot(2 * e + orientation, productive ? 1 : 0);
  }

  u64 weight_total() const { return 2 * size_; }
  u64 productive_total() const { return productive_.total(); }

  /// Productive fraction of the live directed slots (0 when empty).
  double productive_probability() const {
    if (size_ == 0) return 0.0;
    return static_cast<double>(productive_.total()) /
           static_cast<double>(2 * size_);
  }

  /// Samples a productive (entry, orientation); precondition
  /// productive_total() > 0.
  std::pair<u64, u64> sample_productive(Rng& rng) const {
    PP_DCHECK(productive_.total() > 0);
    const u64 d = productive_.find(rng.below(productive_.total()));
    return {d >> 1, d & 1};
  }

 private:
  void grow(u64 new_capacity);

  /// Sets directed slot d's flag; a tree update only when it changes.
  void set_slot(u64 d, u8 flag) {
    if (flag_[d] == flag) return;
    flag_[d] = flag;
    productive_.set(d, flag);
  }

  Fenwick productive_;   // 2 * capacity_ slots: 1 on productive live slots
  std::vector<u8> flag_;  // the same, one byte per slot
  u64 size_ = 0;
  u64 capacity_ = 0;
};

}  // namespace pp
