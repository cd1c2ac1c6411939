#include "core/initial.hpp"

#include <algorithm>
#include <limits>

#include "common/assert.hpp"

namespace pp::initial {

Configuration valid_ranking(u64 num_ranks, u64 num_states) {
  PP_ASSERT(num_ranks <= num_states);
  Configuration c;
  c.counts.assign(num_states, 0);
  for (u64 s = 0; s < num_ranks; ++s) c.counts[s] = 1;
  return c;
}

Configuration uniform_random(u64 num_agents, u64 num_states, Rng& rng) {
  Configuration c;
  c.counts.assign(num_states, 0);
  for (u64 i = 0; i < num_agents; ++i) ++c.counts[rng.below(num_states)];
  return c;
}

Configuration uniform_random_ranks(u64 num_agents, u64 num_ranks,
                                   u64 num_states, Rng& rng) {
  PP_ASSERT(num_ranks <= num_states);
  Configuration c;
  c.counts.assign(num_states, 0);
  for (u64 i = 0; i < num_agents; ++i) ++c.counts[rng.below(num_ranks)];
  return c;
}

Configuration k_distant(u64 num_ranks, u64 num_states, u64 k, Rng& rng) {
  PP_ASSERT_MSG(k < num_ranks, "cannot vacate every rank state");
  Configuration c = valid_ranking(num_ranks, num_states);
  if (k == 0) return c;
  std::vector<u64> vacated = rng.sample_distinct(num_ranks, k);
  for (const u64 v : vacated) c.counts[v] = 0;
  // Re-home the k displaced agents on occupied ranks, sampled uniformly by
  // index among the num_ranks - k survivors.  The j-th survivor is j plus
  // the number of vacated ranks at or below it: those whose count of
  // survivors below, vacated[m] - m in sorted order, is at most j.
  std::sort(vacated.begin(), vacated.end());
  for (u64 m = 0; m < k; ++m) vacated[m] -= m;
  for (u64 i = 0; i < k; ++i) {
    const u64 j = rng.below(num_ranks - k);
    const auto below = std::upper_bound(vacated.begin(), vacated.end(), j);
    ++c.counts[j + static_cast<u64>(below - vacated.begin())];
  }
  PP_ASSERT(k_distance(c, num_ranks) == k);
  return c;
}

Configuration all_in_state(u64 num_agents, u64 num_states, StateId s) {
  PP_ASSERT(s < num_states);
  PP_ASSERT_MSG(num_agents <= std::numeric_limits<Count>::max(),
                "a state count must fit Count");
  Configuration c;
  c.counts.assign(num_states, 0);
  c.counts[s] = static_cast<Count>(num_agents);
  return c;
}

Configuration perturbed(Configuration base, u64 faults, Rng& rng) {
  const u64 num_agents = base.agents();
  const u64 num_states = base.num_states();
  PP_ASSERT(num_agents > 0);
  for (u64 f = 0; f < faults; ++f) {
    // Pick a uniform agent by walking the counts (generators are not hot
    // paths; O(states) per fault is fine).
    u64 target = rng.below(num_agents);
    u64 s = 0;
    while (target >= base.counts[s]) {
      target -= base.counts[s];
      ++s;
    }
    --base.counts[s];
    ++base.counts[rng.below(num_states)];
  }
  return base;
}

Configuration valid_ranking(const Protocol& p) {
  return valid_ranking(p.num_ranks(), p.num_states());
}
Configuration uniform_random(const Protocol& p, Rng& rng) {
  return uniform_random(p.num_agents(), p.num_states(), rng);
}
Configuration uniform_random_ranks(const Protocol& p, Rng& rng) {
  return uniform_random_ranks(p.num_agents(), p.num_ranks(), p.num_states(),
                              rng);
}
Configuration k_distant(const Protocol& p, u64 k, Rng& rng) {
  return k_distant(p.num_ranks(), p.num_states(), k, rng);
}
Configuration all_in_state(const Protocol& p, StateId s) {
  return all_in_state(p.num_agents(), p.num_states(), s);
}

}  // namespace pp::initial
