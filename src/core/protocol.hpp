// The Protocol interface: a self-stabilising ranking population protocol
// ready for simulation under the uniform random scheduler.
//
// Design.  The paper observes (§2) that in a state-optimal ranking protocol
// the *only* permitted rules are of the form (s,s) -> (s',s'') on rank
// states — any other rule would keep firing in the final configuration and
// break silence.  All four protocols in this library therefore share the
// same backbone:
//
//   * a per-rank-state table of same-state rules, with a Fenwick tree of
//     "productive weights" c_s(c_s - 1) (the number of ordered pairs of
//     distinct agents both in s) used to sample the next productive
//     interaction in O(log n); and
//   * optional protocol-specific *extra categories* covering interactions
//     that involve extra states (the line protocol's X, the tree protocol's
//     red/green buffer), exposed through three virtual hooks.
//
// The two engines drive this interface in different ways:
//   * AcceleratedEngine calls productive_weight() / step_productive() and
//     skips null interactions in closed form (exact in distribution);
//   * UniformEngine calls step_uniform(), faithfully simulating every
//     single interaction — it exists to validate the accelerated path.
//
// Invariant maintained throughout: productive_weight() counts *exactly* the
// ordered agent pairs whose interaction would change the configuration, so
// productive_weight() == 0  <=>  the configuration is silent.
#pragma once

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

class Protocol {
 public:
  virtual ~Protocol() = default;
  Protocol(const Protocol&) = delete;
  Protocol& operator=(const Protocol&) = delete;

  /// Human-readable protocol name (e.g. "ring-of-traps").
  virtual std::string_view name() const = 0;

  /// Population size n; equals the number of rank states for ranking
  /// protocols (auxiliary sub-protocols such as the single-line model of
  /// §4.1 may differ).
  u64 num_agents() const { return n_agents_; }
  u64 num_ranks() const { return n_ranks_; }
  u64 num_states() const { return n_states_; }
  u64 num_extra_states() const { return n_states_ - n_ranks_; }

  /// Loads a starting configuration (any arrangement of num_agents() agents
  /// over num_states() states — this is a *self-stabilising* protocol).
  void reset(const Configuration& c);

  /// Current configuration as per-state counts.
  const std::vector<u64>& counts() const { return counts_; }
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

  /// Silent <=> no interaction can change the configuration.
  bool is_silent() const { return productive_weight() == 0; }

  /// True iff every rank is held by exactly one agent (the final
  /// configuration).  For every protocol in this library this is equivalent
  /// to is_silent(); tests assert the equivalence rather than assuming it.
  bool is_valid_ranking() const;

  /// Capability flag for the count-vector engine (core/count_engine.hpp):
  /// true iff δ ignores agent identity entirely — the dynamics are a pure
  /// function of the state-count vector.  Concretely the protocol promises
  /// (a) it has no extra states, and (b) every productive rule is a
  /// same-state rank rule (s,s) -> (s',s'') — δ(s,t) is null for s != t —
  /// so the productive ordered pairs of a configuration are exactly the
  /// c_s(c_s - 1) diagonal pairs.  ag and ring-of-traps qualify; protocols
  /// with extra-state machinery (line/tree) must keep the default false.
  /// CountEngine cross-checks the promise against transition() at
  /// construction.
  virtual bool is_count_determined() const { return false; }

  /// Capability declaration for the hierarchical pair samplers
  /// (schedulers/pair_sampler.hpp): which whole *classes* of ordered pairs
  /// involving extra-state agents are productive, independent of counts.
  /// Under this library's protocol backbone every same-state rank pair is
  /// productive and every distinct-rank pair is null; the extra-state
  /// protocols additionally make entire orientation classes productive —
  /// e.g. line-of-traps routes *every* agent meeting an X responder, and
  /// tree-ranking fires on *every* pair whose initiator is a buffer agent.
  /// When a class flag is set, EVERY ordered pair in that class must be
  /// productive; when clear, every such pair must be null.  Like
  /// is_count_determined(), this is a promise: GroupedKernelSampler
  /// cross-checks it against transition() at construction on a bounded
  /// probe set, so a wrong declaration fails fast instead of skewing the
  /// sampling distribution.
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
  /// copied configuration costs O(n), these three calls cost O(k log n)
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
    return static_cast<StateId>(count_tree().find(target));
  }

  /// Teleports one agent from state `from` (which must be occupied) to
  /// state `to`, keeping counts and every live Fenwick tree consistent;
  /// from == to is a no-op.  Callers mutating in bulk must call
  /// commit_moves() afterwards.
  void move_agent(StateId from, StateId to) {
    PP_DCHECK(counts_[from] >= 1);
    if (from == to) return;
    mutate(from, -1);
    mutate(to, +1);
  }

  /// Ends a bulk-mutation burst: gives derived protocols the same
  /// cache-refresh hook a full reset() would (no library protocol caches
  /// anything today, but the contract keeps move_agent equivalent to
  /// reset(configuration-with-moves-applied) forever).
  void commit_moves() { on_reset(); }

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
  Protocol(u64 num_agents, u64 num_ranks, u64 num_extra);

  /// Same-state rule (s,s) -> (out1, out2); derived constructors must fill
  /// one entry per rank state (outputs may be extra states).  Every rule
  /// must change the configuration (out1 != s or out2 != s).
  struct Rule {
    StateId out1;
    StateId out2;
  };
  std::vector<Rule> rules_;

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
  /// Called at the end of reset() so derived classes can refresh caches.
  virtual void on_reset() {}

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
  StateId sample_rank_by_count(u64 target) {
    return static_cast<StateId>(count_tree().find(target));
  }

 private:
  /// The count tree, built from counts_ on first use after a reset().
  Fenwick& count_tree();
  /// Moves two agents from states (from1, from2) to (to1, to2) with one
  /// point update per tree entry whose state count changes net.
  void move_pair(StateId from1, StateId from2, StateId to1, StateId to2);

  u64 n_agents_;
  u64 n_ranks_;
  u64 n_states_;
  std::vector<u64> counts_;
  u64 extra_agents_ = 0;  // agents in extra states
  Fenwick rank_weight_;   // rank states: c_s * (c_s - 1)
  // All states: c_s.  Only the uniform scheduler, churn and the extra
  // states' rank sampling read it, so it is built lazily and, once live,
  // kept current by mutate().
  Fenwick count_all_;
  bool count_live_ = false;
};

using ProtocolPtr = std::unique_ptr<Protocol>;

}  // namespace pp
