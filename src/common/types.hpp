// Basic integral aliases used across the poprank library.
//
// Conventions:
//  * `StateId` indexes a protocol state (rank states first, extra states
//    after them).  It is 32-bit: populations beyond 2^32 states are out of
//    scope for a laptop-scale simulator.
//  * `Count` is the number of agents in one state.  It is 32-bit: no count
//    exceeds n, and construction rejects any n whose n(n - 1) ordered
//    pairs overflow the sum trees' bound, which keeps n below 2^32.
//    Halving the per-state arrays keeps more of them in cache at n = 10^6.
//  * Population sizes, pair weights and interaction counters are 64-bit.
//    A single run of the quadratic baseline at n = 2^20 performs ~2^60
//    interactions in the worst case, which still fits.
#pragma once

#include <cstdint>

namespace pp {

using u8 = std::uint8_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i32 = std::int32_t;
using i64 = std::int64_t;

/// Index of a protocol state.  Rank states are `0 .. n_ranks-1`; extra
/// states (if any) occupy `n_ranks .. n_states-1`.
using StateId = u32;

/// Sentinel for "no state".
inline constexpr StateId kNoState = static_cast<StateId>(-1);

/// Number of agents in one state; see the conventions above.
using Count = u32;

}  // namespace pp
