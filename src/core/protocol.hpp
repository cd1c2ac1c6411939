// The Protocol interface: a self-stabilising ranking population protocol
// ready for simulation under the uniform random scheduler.
//
// Design.  The paper observes (§2) that in a state-optimal ranking protocol
// the *only* permitted rules are of the form (s,s) -> (s',s'') on rank
// states — any other rule would keep firing in the final configuration and
// break silence.  All four protocols in this library therefore share the
// same backbone:
//
//   * one per-state count array (32-bit Count), the configuration's only
//     copy;
//   * a per-rank-state table of same-state rules (immutable, and shared
//     with every sibling() — see below), with a sum tree of
//     "productive weights" c_s(c_s - 1) (the number of ordered pairs of
//     distinct agents both in s) used to sample the next productive
//     interaction in O(log n) — its leaves are computed from counts_ in
//     place, not stored; and
//   * optional protocol-specific *extra categories* covering interactions
//     that involve extra states (the line protocol's X, the tree protocol's
//     red/green buffer), exposed through three virtual hooks.
//
// The two engines drive this interface in different ways:
//   * run_accelerated calls productive_weight() / step_productive() and
//     skips null interactions in closed form (exact in distribution);
//   * run_uniform calls step_uniform(), faithfully simulating every
//     single interaction — it exists to validate the accelerated path.
//
// Invariant maintained throughout: productive_weight() counts *exactly* the
// ordered agent pairs whose interaction would change the configuration, so
// productive_weight() == 0  <=>  the configuration is silent.
//
// Immutable and mutable parts.  The rule table and the geometry behind it
// (a ring or line layout, a balanced tree) depend only on the protocol and
// n, so they live behind std::shared_ptr<const ...>; everything a run
// changes (counts_, the sum trees) is per object.  sibling() hands out a
// fresh object over the same tables: the runner builds one prototype per
// trial set and runs every trial, on every thread, on a sibling of it.
#pragma once

#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "core/configuration.hpp"
#include "ds/fenwick.hpp"
#include "rng/random.hpp"

namespace pp {

class Protocol;
using ProtocolPtr = std::unique_ptr<Protocol>;

class Protocol {
 public:
  virtual ~Protocol() = default;
  Protocol(const Protocol&) = delete;
  Protocol& operator=(const Protocol&) = delete;

  /// Human-readable protocol name (e.g. "ring-of-traps").
  virtual std::string_view name() const = 0;

  /// A new protocol of the same kind and size that shares this one's
  /// immutable tables (rule_table(), and the derived class's layout or
  /// tree) instead of rebuilding them.  It has no configuration loaded
  /// (counts() is empty until reset()) and shares nothing mutable, so
  /// siblings run independently; calling this on a const prototype from
  /// several threads at once is safe.
  virtual ProtocolPtr sibling() const = 0;

  /// The largest population a protocol accepts: the largest n whose
  /// n(n - 1) ordered pairs, the most any sum tree holds, fit
  /// SumLevels::kMaxTotal.  Every count is at most n, so it fits Count.
  static constexpr u64 kMaxAgents = 3'037'000'500;
  static_assert(kMaxAgents * (kMaxAgents - 1) <= SumLevels::kMaxTotal &&
                (kMaxAgents + 1) * kMaxAgents > SumLevels::kMaxTotal);
  static_assert(kMaxAgents <= std::numeric_limits<Count>::max());

  /// Population size n; equals the number of rank states for ranking
  /// protocols (auxiliary sub-protocols such as the single-line model of
  /// §4.1 may differ).
  u64 num_agents() const { return n_agents_; }
  u64 num_ranks() const { return n_ranks_; }
  u64 num_states() const { return n_states_; }
  u64 num_extra_states() const { return n_states_ - n_ranks_; }

  /// Loads a starting configuration (any arrangement of num_agents() agents
  /// over num_states() states — this is a *self-stabilising* protocol).
  /// Taken by value: an rvalue's counts become the protocol's own, an
  /// lvalue is copied and left unchanged.
  void reset(Configuration c);

  /// Current configuration as per-state counts (empty before reset()).
  const std::vector<Count>& counts() const { return counts_; }
  Configuration configuration() const { return Configuration(counts_); }

  /// Number of ordered agent pairs whose interaction changes the
  /// configuration.
  u64 productive_weight() const {
    return rank_weight_.total() + extra_weight();
  }

  /// Applies one productive interaction sampled uniformly among all
  /// productive ordered pairs.  Precondition: productive_weight() > 0.
  void step_productive(Rng& rng);

  /// Simulates one interaction of the uniform scheduler (an ordered pair of
  /// distinct agents chosen uniformly).  Returns true iff the configuration
  /// changed.
  bool step_uniform(Rng& rng);

  /// Applies δ to one *specific* ordered pair of agents currently in states
  /// (initiator, responder) and returns their new states — unchanged inputs
  /// mean a null interaction.  This is how the agent-level schedulers
  /// (src/schedulers/: random matching, graph-restricted) drive the
  /// protocol: they decide who meets, the protocol's transition function
  /// decides what happens, and all count/Fenwick bookkeeping stays
  /// consistent.  Precondition: both states are occupied (two distinct
  /// agents, so count(s) >= 2 when initiator == responder).
  std::pair<StateId, StateId> apply_pair(StateId initiator, StateId responder);

  /// Same-state rule (s,s) -> (out1, out2) of a rank state s.  Every rule
  /// changes the configuration (out1 != s or out2 != s).
  struct Rule {
    StateId out1;
    StateId out2;
  };
  using RuleTable = std::vector<Rule>;
  /// The rule table, one entry per rank state, shared by siblings.
  const std::shared_ptr<const RuleTable>& rule_table() const {
    return rules_;
  }

  /// The sum trees over counts(), for consistency checks: leaves
  /// PairLeaves{counts()} and Leaves{counts()} (built on first use).
  const SumLevels& pair_weight_tree() const { return rank_weight_; }
  const SumLevels& count_levels() { return count_tree(); }

  /// Silent <=> no interaction can change the configuration.
  bool is_silent() const { return productive_weight() == 0; }

  /// True iff every rank is held by exactly one agent (the final
  /// configuration).  For every protocol in this library this is equivalent
  /// to is_silent(); tests assert the equivalence rather than assuming it.
  bool is_valid_ranking() const;

  /// Capability declaration for the hierarchical pair samplers
  /// (schedulers/pair_sampler.hpp): which whole *classes* of ordered pairs
  /// involving extra-state agents are productive, independent of counts.
  /// Under this library's protocol backbone every same-state rank pair is
  /// productive and every distinct-rank pair is null; the extra-state
  /// protocols additionally make entire orientation classes productive —
  /// e.g. line-of-traps routes *every* agent meeting an X responder, and
  /// tree-ranking fires on *every* pair whose initiator is a buffer agent.
  /// When a class flag is set, EVERY ordered pair in that class must be
  /// productive; when clear, every such pair must be null.  This is a
  /// promise: GroupedKernelSampler cross-checks it against transition() at
  /// construction on a bounded probe set, so a wrong declaration fails fast
  /// instead of skewing the sampling distribution.
  struct ExtraPairClasses {
    bool extra_extra = false;  ///< every ordered (extra, extra) pair
    bool extra_rank = false;   ///< every ordered (extra, rank) pair
    bool rank_extra = false;   ///< every ordered (rank, extra) pair
  };
  /// Default: no extra pair is ever productive (exactly right for
  /// protocols without extra states, and for inert extras such as
  /// SingleLineProtocol's absorbing X).
  virtual ExtraPairClasses extra_pair_classes() const { return {}; }

  /// --- O(log n) mutation API for fault models --------------------------
  /// A churn fault teleports k agents; rebuilding the protocol from a
  /// copied configuration costs O(n), these two calls cost O(k log n)
  /// total once the count tree is live (its O(n) build happens once per
  /// reset(), on the first uniform_agent_state()).  ChurnScheduler's fast
  /// path uses them; the copy-and-rebuild reference survives behind
  /// SchedulerSpec::dense_reference and tests pin the two paths
  /// bit-identical.

  /// State of the `target`-th agent under the canonical count ordering
  /// (agents are anonymous: "a uniform agent" is a state sampled with
  /// probability proportional to its count).  `target` in [0, n).  Builds
  /// the count tree on first use (O(n) once; mutations keep it current).
  StateId uniform_agent_state(u64 target) {
    PP_DCHECK(target < n_agents_);
    return find_by_count(target);
  }

  /// Teleports one agent from state `from` (which must be occupied) to
  /// state `to`, keeping counts and every live sum tree consistent;
  /// from == to is a no-op.
  void move_agent(StateId from, StateId to) {
    PP_DCHECK(counts_[from] >= 1);
    if (from == to) return;
    mutate(from, -1);
    mutate(to, +1);
  }

  /// The formal transition function δ(initiator, responder) ->
  /// (initiator', responder') — the paper's rule set, written down
  /// directly.  Null interactions return the inputs unchanged.
  ///
  /// This is deliberately *independent* of the optimized count/Fenwick
  /// machinery driving step_productive()/step_uniform(): the agent-level
  /// reference simulator (core/agent_simulator.hpp) runs on transition()
  /// alone, and consistency tests check the two implementations against
  /// each other pair-by-pair and trajectory-by-trajectory.
  virtual std::pair<StateId, StateId> transition(StateId initiator,
                                                 StateId responder) const = 0;

  /// Debugging name of a state, e.g. "(a=3,b=0|gate)" or "X_4".
  virtual std::string describe_state(StateId s) const;

 protected:
  /// A ranking protocol has num_agents == num_ranks; auxiliary
  /// sub-protocols may simulate fewer/more agents than rank states.
  /// `rules` holds one entry per rank state (outputs may be extra states);
  /// a derived class whose rules sit inside a larger immutable shape
  /// passes an aliasing pointer that owns the whole shape.
  Protocol(u64 num_agents, u64 num_ranks, u64 num_extra,
           std::shared_ptr<const RuleTable> rules);

  /// Aborts unless `num_agents` is in [2, kMaxAgents]; returns it.  The
  /// constructor checks this, and every shape builder checks first,
  /// before it allocates anything O(n).
  static u64 check_agents(u64 num_agents);


  /// --- hooks for protocols with extra states ------------------------
  /// Number of productive ordered pairs not counted by the rank-state
  /// Fenwick (i.e. pairs involving at least one extra-state agent).
  virtual u64 extra_weight() const { return 0; }
  /// Applies the extra productive interaction selected by
  /// `target` uniform in [0, extra_weight()).
  virtual void step_extra(u64 target, Rng& rng);
  /// Uniform-scheduler interaction for a pair that is not two rank agents
  /// in the same state.  Returns true iff the configuration changed.
  virtual bool apply_cross(StateId initiator, StateId responder);

  /// --- helpers for derived classes -----------------------------------
  /// Adds delta agents to state s, keeping counts, the extra-agent tally
  /// and every live Fenwick tree consistent.
  void mutate(StateId s, i64 delta);
  /// Fires the same-state rule of rank state s (two agents in s interact).
  void apply_rank_rule(StateId s);
  u64 count(StateId s) const { return counts_[s]; }
  /// Total number of agents currently in rank states.
  u64 rank_agents() const { return n_agents_ - extra_agents_; }
  /// Samples a rank state with probability proportional to its count;
  /// `target` must be uniform in [0, rank_agents()).  Builds the count
  /// tree on first use.
  StateId sample_rank_by_count(u64 target) { return find_by_count(target); }

 private:
  /// The count tree, built from counts_ on first use after a reset().
  SumLevels& count_tree();
  /// The state of the `target`-th agent in state order, via the count tree.
  StateId find_by_count(u64 target) {
    return static_cast<StateId>(count_tree().find(target, Leaves{counts_}));
  }
  /// Moves two agents from states (from1, from2) to (to1, to2) with one
  /// point update per tree entry whose state count changes net.
  void move_pair(StateId from1, StateId from2, StateId to1, StateId to2);

  u64 n_agents_;
  u64 n_ranks_;
  u64 n_states_;
  std::shared_ptr<const RuleTable> rules_;  // immutable, shared by siblings
  std::vector<Count> counts_;  // the configuration; the trees' leaves
  u64 extra_agents_ = 0;       // agents in extra states
  SumLevels rank_weight_;      // rank states: c_s * (c_s - 1)
  // All states: c_s.  Only the uniform scheduler, churn and the extra
  // states' rank sampling read it, so it is built lazily and, once live,
  // kept current by mutate().
  SumLevels count_all_;
  bool count_live_ = false;
};

}  // namespace pp
