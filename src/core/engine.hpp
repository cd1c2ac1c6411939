// Simulation engines for the uniform random scheduler.
//
// Parallel time (the paper's complexity measure) is the number of scheduler
// interactions divided by n.  Near stabilisation almost all interactions
// are null (the two sampled agents have no applicable rule), which makes a
// naive simulation of a Θ(n^2)-parallel-time protocol cost Θ(n^3) work.
//
// run_accelerated removes that overhead *exactly*: if W of the n(n-1)
// ordered pairs are productive, the index of the next productive
// interaction is geometrically distributed with success probability
// p = W / (n(n-1)), and conditioned on being productive the pair is uniform
// among the W productive ones.  Both quantities are exactly what the
// protocols expose (productive_weight / step_productive), so the engine
// samples the gap length in closed form and replays only productive
// interactions.  The resulting trajectory has the same distribution as the
// naive simulation — tests/test_engine.cpp validates this against
// run_uniform statistically.  The loop itself is run_exact, which every
// scheduler in src/schedulers/ drives with its own sampler.
//
// run_uniform simulates every interaction; it is the reference
// implementation used in tests and small demos.
#pragma once

#include <algorithm>
#include <concepts>
#include <functional>
#include <type_traits>

#include "common/types.hpp"
#include "core/protocol.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "rng/random.hpp"

namespace pp {

struct RunOptions {
  /// Hard budget on scheduler interactions (null ones included); the run
  /// reports silent = false if the budget is exhausted first.
  u64 max_interactions = ~static_cast<u64>(0);

  /// Optional observer invoked after every configuration change with the
  /// number of interactions elapsed so far; return false to abort the run.
  std::function<bool(const Protocol&, u64)> on_change;
};

struct RunResult {
  u64 interactions = 0;      ///< scheduler steps, null interactions included
  u64 productive_steps = 0;  ///< configuration changes driven by δ
  u64 fault_events = 0;      ///< environmental faults injected: churn fault
                             ///< events and partition split/heal transitions
                             ///< (0 under the non-hostile models)
  bool silent = false;       ///< reached a silent configuration
  bool valid = false;        ///< final configuration is a valid ranking
  bool aborted = false;      ///< observer requested an early stop
  double parallel_time = 0;  ///< interactions / n
};

/// Exact accelerated simulation (geometric null-skipping).
RunResult run_accelerated(Protocol& p, Rng& rng, const RunOptions& opt = {});

/// Faithful one-interaction-at-a-time simulation.
RunResult run_uniform(Protocol& p, Rng& rng, const RunOptions& opt = {});

/// run_exact's kernel: samples the geometric run of null steps before the
/// next event (per-step probability `prob`, through the per-run `gaps`
/// memo) and advances `interactions` past it, the event's own step
/// included.  Returns false, with interactions clamped to `budget`, when
/// the gap overruns the budget; Rng::kGeometricInfinity (the saturation
/// sentinel for astronomically small `prob`) overruns any budget.  Adds
/// the nulls it passes, the clamped remainder included, to kNullSkips.
bool advance_past_nulls(Rng& rng, GeometricFailures& gaps, double prob,
                        u64 budget, u64& interactions);

/// The one exit path of every engine and scheduler: stamps silent/valid
/// from the protocol, sets parallel_time = interactions / n (random
/// matching overwrites it with rounds) and enforces the RunResult contract
/// that observers and the parallel runner rely on: interactions never
/// undercounts productive_steps, and `silent` stays defined as
/// productive_weight()==0 on the protocol object itself.  The second
/// assert is a tripwire against future drift (e.g. silent becoming a
/// cached flag that can go stale); an *independent* recount of silence
/// from the formal transition function lives in tests/test_engine.cpp,
/// not on the hot path.
RunResult finish_run(const Protocol& p, RunResult r);

/// What one event did, for a run_exact sampler whose fire is not void.
enum class Fired {
  kNull,   ///< changed no agent (edges flipped, a burst undid itself)
  kStep,   ///< a productive protocol step
  kFault,  ///< a churn burst changed agents: a null, but observed
};

/// The uniform scheduler as a run_exact sampler (run_accelerated, and the
/// end of churn and partition): W productive pairs out of n(n-1).
struct UniformPairs {
  const Protocol& proto;
  double pairs = static_cast<double>(proto.num_agents()) *
                 static_cast<double>(proto.num_agents() - 1);
  double productive_probability() const {
    return static_cast<double>(proto.productive_weight()) / pairs;
  }
  void fire(Protocol& q, Rng& g) const { q.step_productive(g); }
};

inline constexpr u64 kNoHorizon = ~u64{0};  ///< past a sampler's last change

/// The event loop of every scheduler but the two test oracles (run_uniform
/// and graph-restricted's naive path).  `s` exposes
/// productive_probability() — the per-step chance of an event, 0 once none
/// can happen, 1 in a tick-by-tick phase (the loop then steps one
/// interaction without advance_past_nulls: no gap, no sketch entry) — and
/// fire(p, rng), which samples one event and applies it.  The loop skips a
/// geometric run of nulls, fires, and repeats until the probability is 0,
/// the budget runs out or the observer aborts.  Optional, by type:
///   * fire returns a Fired, not void: kNull and kFault count as nulls,
///     and kFault, having changed agents, still reaches the observer.
///   * horizon() and on_horizon(rng) name a step where the sampler changes
///     (the end of a rewire epoch, churn storm, partition phase or matching
///     round).  Gaps are capped there, which memorylessness makes exact;
///     on_horizon runs when the loop stands on the horizon inside the
///     budget: a gap overran it, a fire landed on it, or a stuck but
///     non-silent sampler jumped to it.
/// Every interaction passed is counted once, in kProductiveSteps or in
/// kNullSkips, so the two sum to RunResult::interactions.
template <class Sampler>
RunResult run_exact(Protocol& p, Rng& rng, const RunOptions& opt,
                    Sampler& s) {
  using FireResult = decltype(s.fire(p, rng));
  static_assert(std::is_void_v<FireResult> ||
                    std::is_same_v<FireResult, Fired>,
                "a run_exact sampler's fire returns void or Fired");
  constexpr bool kHorizon = requires(Sampler& x, Rng& g) {
    { x.horizon() } -> std::convertible_to<u64>;
    x.on_horizon(g);
  };
  const u64 budget = opt.max_interactions;
  RunResult r;
  GeometricFailures gaps;
  while (true) {
    u64 cap = budget;
    if constexpr (kHorizon) {
      if (r.interactions == s.horizon() && r.interactions < budget) {
        s.on_horizon(rng);
      }
      cap = std::min(budget, s.horizon());
    }
    const double prob = s.productive_probability();
    if (prob <= 0.0) {
      if constexpr (kHorizon) {
        if (!p.is_silent()) {  // stuck: every step to the horizon is null
          PP_OBS_ADD(kNullSkips, cap - r.interactions);
          r.interactions = cap;
          if (cap < budget) continue;
        }
      }
      break;
    }
    if (prob >= 1.0) {  // a tick: the event is the next step, no gap
      if (r.interactions >= cap) {
        if (cap < budget) continue;  // stopped at the horizon
        break;
      }
      ++r.interactions;
    } else if (!advance_past_nulls(rng, gaps, prob, cap, r.interactions)) {
      if (cap < budget) continue;  // stopped at the horizon
      break;
    }
    Fired fired = Fired::kStep;
    if constexpr (std::is_void_v<FireResult>) {
      s.fire(p, rng);
    } else {
      fired = s.fire(p, rng);
    }
    if (fired != Fired::kStep) {
      PP_OBS_INC(kNullSkips);  // no step of the protocol
      if (fired == Fired::kNull) continue;
    } else {
      ++r.productive_steps;
      PP_OBS_INC(kProductiveSteps);
      PP_OBS_TRACE_STEP(r.interactions);
    }
    if (opt.on_change && !opt.on_change(p, r.interactions)) {
      r.aborted = true;
      break;
    }
  }
  return finish_run(p, r);
}

}  // namespace pp
