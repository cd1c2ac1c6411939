#include "schedulers/random_matching.hpp"

#include <vector>

namespace pp {
namespace {

// The rounds as a run_exact sampler.  Agents are anonymous, so an explicit
// state-per-agent vector shuffled each round *is* a uniformly random
// maximal matching: pair slot 2i with slot 2i+1.  Each meeting is an event
// (probability 1) and each round's end a horizon, where the next shuffle
// happens; apply_pair() keeps the protocol object in sync.
struct MatchingRounds {
  const Protocol& proto;
  std::vector<StateId> agents = proto.configuration().to_agent_states();
  u64 pairs = agents.size() / 2;
  u64 round_end = 0;  // the first round begins on the horizon at 0
  u64 slot = 0;
  bool done = false;

  double productive_probability() const { return done ? 0.0 : 1.0; }
  u64 horizon() const { return round_end; }
  void on_horizon(Rng& rng) {
    // Silence is checked between rounds only: a round that silences the
    // protocol still runs its remaining (null) meetings.
    done = proto.is_silent();
    if (done) return;
    rng.shuffle(agents);
    round_end += pairs;
    slot = 0;
  }

  Fired fire(Protocol& p, Rng&) {
    // The shuffle is a uniform permutation, so slot 2i vs 2i+1 already
    // assigns the initiator/responder orientation by a fair coin.
    const u64 a = slot++;
    const u64 b = slot++;
    const auto [sa, sb] = p.apply_pair(agents[a], agents[b]);
    if (sa == agents[a] && sb == agents[b]) return Fired::kNull;
    agents[a] = sa;
    agents[b] = sb;
    return Fired::kStep;
  }
};

}  // namespace

RunResult RandomMatchingScheduler::run(Protocol& p, Rng& rng,
                                       const RunOptions& opt) const {
  MatchingRounds rounds{p};
  RunResult r = run_exact(p, rng, opt, rounds);
  // Parallel time is the number of rounds.  Every round fires exactly
  // floor(n/2) meetings (nulls included), so interactions / pairs counts
  // them, fractionally when the budget or an observer abort cuts one short.
  r.parallel_time =
      static_cast<double>(r.interactions) / static_cast<double>(rounds.pairs);
  return r;
}

}  // namespace pp
