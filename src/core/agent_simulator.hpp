// Agent-level reference simulator.
//
// The production engines (core/engine.hpp) are count-based and lean on
// per-protocol Fenwick bookkeeping for speed.  This module is the
// gold-standard cross-check: it stores one explicit state per agent and
// drives the simulation through nothing but the protocol's formal
// transition function δ — exactly the model of the paper:
//
//   repeat: draw an ordered pair (initiator, responder) of distinct agents
//           uniformly at random; apply δ to their states.
//
// Silence is detected from first principles as well: a configuration is
// silent iff δ changes no ordered pair of occupied states (an O(states^2)
// scan, re-run only when the configuration changed since the last scan).
//
// It is deliberately slow and simple; tests use it to validate the
// optimized engines' trajectories, final configurations and productive
// weights (see reference_productive_weight).
#pragma once

#include <vector>

#include "core/engine.hpp"
#include "core/protocol.hpp"

namespace pp {

/// Brute-force count of productive ordered agent pairs of `counts` under
/// the protocol's transition(): sum over ordered state pairs (s1, s2) with
/// δ(s1,s2) != (s1,s2) of c1 * (c2 - [s1 == s2]).  Must equal
/// Protocol::productive_weight() in every reachable configuration.
u64 reference_productive_weight(const Protocol& p,
                                const std::vector<Count>& counts);

class AgentSimulator {
 public:
  /// The simulator drives `p` only through transition(); the protocol's
  /// own mutable state is not touched.
  AgentSimulator(const Protocol& p, const Configuration& initial);

  /// Per-agent states (size = num_agents).
  const std::vector<StateId>& agents() const { return agents_; }

  /// Current per-state counts.
  const std::vector<Count>& counts() const { return counts_; }

  /// Applies one uniformly random ordered-pair interaction; returns true
  /// iff some agent changed state.
  bool step(Rng& rng);

  /// Brute-force silence check (cached between configuration changes).
  bool is_silent();

  bool is_valid_ranking() const;

  /// Runs to silence or budget; same result contract as the engines.
  /// Note: opt.on_change receives the (immutable) protocol object — its
  /// counts() do NOT track this simulator; read AgentSimulator::counts()
  /// instead.
  RunResult run(Rng& rng, const RunOptions& opt = {});

 private:
  const Protocol& protocol_;
  std::vector<StateId> agents_;
  std::vector<Count> counts_;
  bool dirty_ = true;       // configuration changed since last silence scan
  bool silent_ = false;     // valid only when !dirty_
};

}  // namespace pp
