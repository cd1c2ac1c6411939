// Agent traps (paper §2.1) — diagnostics over a trap's per-state counts.
//
// A trap of size m+1 consists of one *gate* state (local index 0) and m
// *inner* states (local indices 1..m).  Its rules (owned by the protocols,
// not by this module) are
//   inner:  R_i : i + i -> i + (i-1)            (agents descend)
//   gate:   R_g : 0 + 0 -> m + Y                (eject every other agent)
// where Y is the next trap's gate or an extra state.
//
// This header provides the vocabulary of the paper's analysis — gaps,
// surplus, flat / saturated / full / tidy / (almost-/fully-) stabilised —
// as pure functions over a span of counts, `counts[b]` being the number of
// agents in local state b.  They power the invariant property tests
// (Facts 1-3, Lemma 2, Lemma 3's weight function) and the protocols'
// debugging output.
#pragma once

#include <span>

#include "common/types.hpp"

namespace pp::trap {

/// Number of agents in the trap.
u64 agents(std::span<const Count> counts);

/// Number of unoccupied inner states ("gaps", §2.1).
u64 gaps(std::span<const Count> counts);

/// Surplus l >= 0: agents beyond the trap's capacity of m+1
/// (0 when the trap holds at most m+1 agents).
u64 surplus(std::span<const Count> counts);

/// No inner state holds more than one agent (§3.2).
bool is_flat(std::span<const Count> counts);

/// All inner states occupied (no gaps).
bool is_saturated(std::span<const Count> counts);

/// Saturated and at least m+1 agents in the trap.  Facts 1 and 3: gaps
/// never reopen and full traps stay full.
bool is_full(std::span<const Count> counts);

/// Every overloaded inner state has a higher local index than every gap
/// (§2.2).  Lemma 2: configurations become and remain tidy.
bool is_tidy(std::span<const Count> counts);

/// Exactly m+1 agents, saturated, gate empty (§2.1, final definitions).
bool is_almost_stabilised(std::span<const Count> counts);

/// Every state of the trap holds exactly one agent.
bool is_fully_stabilised(std::span<const Count> counts);

}  // namespace pp::trap
