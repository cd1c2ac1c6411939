#include "core/agent_simulator.hpp"

#include "common/assert.hpp"

namespace pp {

u64 reference_productive_weight(const Protocol& p,
                                const std::vector<Count>& counts) {
  const u64 states = p.num_states();
  PP_ASSERT(counts.size() == states);
  u64 w = 0;
  for (StateId s1 = 0; s1 < states; ++s1) {
    if (counts[s1] == 0) continue;
    for (StateId s2 = 0; s2 < states; ++s2) {
      const u64 c2 = counts[s2] - (s1 == s2 ? 1 : 0);
      if (counts[s2] == 0 || c2 == 0) continue;
      if (p.transition(s1, s2) != std::make_pair(s1, s2)) {
        w += counts[s1] * c2;
      }
    }
  }
  return w;
}

AgentSimulator::AgentSimulator(const Protocol& p, const Configuration& initial)
    : protocol_(p) {
  PP_ASSERT(initial.num_states() == p.num_states());
  PP_ASSERT(initial.agents() == p.num_agents());
  agents_ = initial.to_agent_states();
  counts_ = initial.counts;
}

bool AgentSimulator::step(Rng& rng) {
  const auto [i, j] = rng.ordered_pair(agents_.size());
  const StateId si = agents_[i];
  const StateId sj = agents_[j];
  const auto [si2, sj2] = protocol_.transition(si, sj);
  if (si2 == si && sj2 == sj) return false;
  agents_[i] = si2;
  agents_[j] = sj2;
  --counts_[si];
  --counts_[sj];
  ++counts_[si2];
  ++counts_[sj2];
  dirty_ = true;
  return true;
}

bool AgentSimulator::is_silent() {
  if (dirty_) {
    silent_ = reference_productive_weight(protocol_, counts_) == 0;
    dirty_ = false;
  }
  return silent_;
}

bool AgentSimulator::is_valid_ranking() const {
  return pp::is_valid_ranking(Configuration(counts_), protocol_.num_ranks());
}

RunResult AgentSimulator::run(Rng& rng, const RunOptions& opt) {
  RunResult r;
  while (!is_silent()) {
    if (r.interactions >= opt.max_interactions) break;
    ++r.interactions;
    if (step(rng)) {
      ++r.productive_steps;
      if (opt.on_change && !opt.on_change(protocol_, r.interactions)) {
        r.aborted = true;
        break;
      }
    }
  }
  r.silent = is_silent();
  r.valid = is_valid_ranking();
  r.parallel_time = static_cast<double>(r.interactions) /
                    static_cast<double>(protocol_.num_agents());
  return r;
}

}  // namespace pp
