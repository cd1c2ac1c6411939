#include "structures/trap.hpp"

#include "common/assert.hpp"

namespace pp::trap {

u64 agents(std::span<const Count> counts) {
  u64 sum = 0;
  for (const u64 c : counts) sum += c;
  return sum;
}

u64 gaps(std::span<const Count> counts) {
  u64 g = 0;
  for (u64 b = 1; b < counts.size(); ++b) {
    if (counts[b] == 0) ++g;
  }
  return g;
}

u64 surplus(std::span<const Count> counts) {
  const u64 a = agents(counts);
  const u64 capacity = counts.size();  // m + 1
  return a > capacity ? a - capacity : 0;
}

bool is_flat(std::span<const Count> counts) {
  for (u64 b = 1; b < counts.size(); ++b) {
    if (counts[b] >= 2) return false;
  }
  return true;
}

bool is_saturated(std::span<const Count> counts) {
  return gaps(counts) == 0;
}

bool is_full(std::span<const Count> counts) {
  return is_saturated(counts) && agents(counts) >= counts.size();
}

bool is_tidy(std::span<const Count> counts) {
  // Highest gap must lie below the lowest overloaded inner state.
  u64 highest_gap = 0;       // local index, 0 = none
  u64 lowest_overload = 0;   // local index, 0 = none
  for (u64 b = 1; b < counts.size(); ++b) {
    if (counts[b] == 0) highest_gap = b;
    if (counts[b] >= 2 && lowest_overload == 0) lowest_overload = b;
  }
  if (highest_gap == 0 || lowest_overload == 0) return true;
  return lowest_overload > highest_gap;
}

bool is_almost_stabilised(std::span<const Count> counts) {
  return agents(counts) == counts.size() && is_saturated(counts) &&
         counts[0] == 0;
}

bool is_fully_stabilised(std::span<const Count> counts) {
  for (const u64 c : counts) {
    if (c != 1) return false;
  }
  return true;
}

}  // namespace pp::trap
