// State-space geometry of the one-extra-state protocol (paper §4).
//
// Canonically n = 3 m^3 (m+1) for even m: m^2 lines, each a chain of 3m
// traps of size m+1.  Within a line, trap index a runs from 0 (the *exit*
// trap, whose gate releases agents to the extra state X) to 3m-1 (the
// *entrance* trap, whose gate receives routed agents).  Agents move from
// trap a to trap a-1.
//
// For other n (the paper: "one can arbitrarily scatter n - 3m^3(m+1) states
// by adding up to 2 states to each trap and keep the same asymptotic
// bounds") we generalise: pick the largest even m >= 2 with
// 3 m^3 (m+1) <= n, then distribute the n rank states evenly over the m^2
// lines (line sizes differ by at most 1) and, within each line, evenly over
// its 3m traps.  Every trap keeps size Θ(m) and every line 3m traps, which
// is all the §4 analysis uses.
//
// Routing (§4.2): each trap "points to" a slot i = a / m in {0,1,2}; an
// agent in X that initiates with... — rather, that *responds* to an agent
// in a state of such a trap — is forwarded to the entrance gate of line
// neighbour(l, i) of the routing graph G.  X+X forwards to line 0.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "structures/routing_graph.hpp"

namespace pp {

class LineLayout {
 public:
  /// Lays out `n` rank states; requires n >= 72 (= 3*2^3*3, the m = 2
  /// canonical size).
  explicit LineLayout(u64 n);

  /// The canonical population size 3 m^3 (m+1) for a given even m.
  static u64 canonical_n(u64 m) { return 3 * m * m * m * (m + 1); }

  u64 num_states() const { return n_; }
  u64 m() const { return m_; }
  u64 num_lines() const { return m_ * m_; }
  u64 traps_per_line() const { return 3 * m_; }
  const RoutingGraph& graph() const { return graph_; }

  u64 line_of(StateId s) const { return line_of_[s]; }
  u64 trap_of(StateId s) const { return trap_of_[s]; }
  u64 local_of(StateId s) const { return s - trap_offset_of_[s]; }

  u64 line_offset(u64 l) const { return line_offsets_[l]; }
  u64 line_size(u64 l) const {
    return (l + 1 < num_lines() ? line_offsets_[l + 1] : n_) -
           line_offsets_[l];
  }

  u64 trap_offset(u64 l, u64 a) const {
    return trap_offsets_[l * traps_per_line() + a];
  }
  u64 trap_size(u64 l, u64 a) const {
    const u64 idx = l * traps_per_line() + a;
    const u64 end = (idx + 1 < trap_offsets_.size()) ? trap_offsets_[idx + 1]
                                                     : n_;
    return end - trap_offsets_[idx];
  }

  StateId gate(u64 l, u64 a) const {
    return static_cast<StateId>(trap_offset(l, a));
  }
  StateId top(u64 l, u64 a) const {
    return static_cast<StateId>(trap_offset(l, a) + trap_size(l, a) - 1);
  }
  StateId entrance_gate(u64 l) const { return gate(l, traps_per_line() - 1); }
  StateId exit_gate(u64 l) const { return gate(l, 0); }

  /// Routing slot of trap a: which of the three G-neighbours agents in this
  /// trap point to.
  u32 slot_of_trap(u64 a) const { return static_cast<u32>(a / m_); }

  /// Entrance gate an X-agent is routed to after meeting an agent in rank
  /// state s (precomputed; rule (l,a,b) + X -> (l,a,b) + (l_i, 3m, 0)).
  StateId route_target(StateId s) const { return route_target_[s]; }

  /// Per-trap slice of a per-state count vector (rank states only).
  std::span<const Count> trap_counts(std::span<const Count> counts, u64 l,
                                     u64 a) const {
    return counts.subspan(trap_offset(l, a), trap_size(l, a));
  }

 private:
  u64 n_;
  u64 m_;
  RoutingGraph graph_;
  std::vector<u64> line_offsets_;      // per line
  std::vector<u64> trap_offsets_;      // per (line, trap), flattened
  std::vector<u32> line_of_;           // per state
  std::vector<u32> trap_of_;           // per state (trap index within line)
  std::vector<u64> trap_offset_of_;    // per state
  std::vector<StateId> route_target_;  // per state
};

}  // namespace pp
