// Configurations of anonymous agents.
//
// Agents in population protocols are indistinguishable, so a configuration
// is fully described by how many agents occupy each state.  The whole
// library (engines, generators, analysis) works on these count vectors;
// an agent-level view is only ever materialised by tests that cross-check
// the count-based simulation against a naive per-agent one.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace pp {

struct Configuration {
  /// counts[s] = number of agents in state s; size = number of states
  /// (rank states first, then extra states).
  std::vector<Count> counts;

  Configuration() = default;
  explicit Configuration(std::vector<Count> c) : counts(std::move(c)) {}

  u64 num_states() const { return counts.size(); }

  /// Total number of agents.
  u64 agents() const;

  /// Builds a configuration from an explicit per-agent state assignment.
  static Configuration from_agent_states(std::span<const StateId> states,
                                         u64 num_states);

  /// Expands back to one (sorted) state per agent.
  std::vector<StateId> to_agent_states() const;
};

/// Number of rank states not occupied by any agent — the configuration's
/// "k-distance" from a final configuration (paper §1).
u64 k_distance(const Configuration& c, u64 num_ranks);

/// True iff every rank state holds exactly one agent and no agent occupies
/// an extra state — the (unique) final configuration of a ranking protocol.
bool is_valid_ranking(const Configuration& c, u64 num_ranks);

}  // namespace pp
