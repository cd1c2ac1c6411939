#include "schedulers/random_matching.hpp"

#include "common/assert.hpp"
#include "obs/counters.hpp"

namespace pp {

RunResult RandomMatchingScheduler::run(Protocol& p, Rng& rng,
                                       const RunOptions& opt) const {
  PP_ASSERT_MSG(p.num_agents() >= 2,
                "random matching needs n >= 2 (no pairs otherwise)");
  // Agents are anonymous, so an explicit state-per-agent vector shuffled
  // each round *is* a uniformly random maximal matching: pair slot 2i with
  // slot 2i+1.  The protocol object is kept in sync through apply_pair(),
  // so silence detection and the result contract come from the protocol
  // itself, exactly as in the engines.
  std::vector<StateId> agents = p.configuration().to_agent_states();
  // Parallel time is the number of rounds.  Every round fires exactly
  // floor(n/2) meetings (null ones included), so interactions / pairs IS
  // the elapsed round count — and stays exact (fractional) when the
  // interaction budget or an observer abort cuts a round short.
  const u64 pairs = agents.size() / 2;
  const auto rounds_elapsed = [pairs](const RunResult& r) {
    return static_cast<double>(r.interactions) / static_cast<double>(pairs);
  };
  RunResult r;
  while (!p.is_silent() && r.interactions < opt.max_interactions) {
    rng.shuffle(agents);
    for (u64 i = 0; i < pairs; ++i) {
      if (r.interactions >= opt.max_interactions) break;
      ++r.interactions;
      // The shuffle is a uniform permutation, so slot 2i vs 2i+1 already
      // assigns the initiator/responder orientation by a fair coin.
      const u64 a = 2 * i;
      const u64 b = 2 * i + 1;
      const auto [sa, sb] = p.apply_pair(agents[a], agents[b]);
      if (sa == agents[a] && sb == agents[b]) continue;  // null meeting
      agents[a] = sa;
      agents[b] = sb;
      ++r.productive_steps;
      PP_OBS_INC(kProductiveSteps);
      if (opt.on_change && !opt.on_change(p, r.interactions)) {
        r.aborted = true;
        return finish_run(p, r, rounds_elapsed(r));
      }
    }
  }
  return finish_run(p, r, rounds_elapsed(r));
}

}  // namespace pp
