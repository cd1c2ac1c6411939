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
// run_uniform statistically.  The loop itself is run_exact, which the
// accelerated scheduler paths (src/schedulers/) drive with their own
// weighted pair samplers.
//
// run_uniform simulates every interaction; it is the reference
// implementation used in tests and small demos.
#pragma once

#include <functional>

#include "common/types.hpp"
#include "core/protocol.hpp"
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

/// The exact-acceleration kernel under run_exact (and the dynamic-graph
/// schedulers, whose topology events interleave with it): samples the
/// geometric run of null steps preceding the next productive one
/// (per-step success probability `prob`, through the caller's per-run
/// `gaps` memo) and advances `interactions` past it, including the
/// productive step itself.  Returns false — with interactions clamped to
/// `budget` — when the gap overruns the budget, treating
/// Rng::kGeometricInfinity (the sampler's saturation sentinel for
/// astronomically small `prob`) as an overrun of any budget.
bool advance_past_nulls(Rng& rng, GeometricFailures& gaps, double prob,
                        u64 budget, u64& interactions);

/// The one exit path of every engine and scheduler: stamps silent/valid
/// from the protocol, installs `parallel_time` and enforces the RunResult
/// contract that observers and the parallel runner rely on: interactions
/// never undercounts productive_steps, and `silent` stays defined as
/// productive_weight()==0 on the protocol object itself.  The second
/// assert is a tripwire against future drift (e.g. silent becoming a
/// cached flag that can go stale); an *independent* recount of silence
/// from the formal transition function lives in tests/test_engine.cpp,
/// not on the hot path.
RunResult finish_run(const Protocol& p, RunResult r, double parallel_time);

/// finish_run with the default parallel time, interactions / n.
RunResult finish_run(const Protocol& p, RunResult r);

/// The exact null-skipping loop shared by run_accelerated and every
/// accelerated scheduler path (graph-restricted, the three weighted
/// samplers).  `s` exposes productive_probability() — the per-step chance
/// that a scheduler draw is productive, 0 once nothing is — and
/// fire(p, rng), which samples one productive pair and applies it.  The
/// loop skips a Geometric(productive_probability()) run of nulls, fires
/// one productive pair, and repeats until silence (in the sampler's
/// sense: a graph-restricted run also stops when it is locally stuck),
/// budget exhaustion or observer abort.
template <class Sampler>
RunResult run_exact(Protocol& p, Rng& rng, const RunOptions& opt,
                    Sampler& s) {
  RunResult r;
  GeometricFailures gaps;
  while (true) {
    const double prob = s.productive_probability();
    if (prob <= 0.0) break;
    if (!advance_past_nulls(rng, gaps, prob, opt.max_interactions,
                            r.interactions)) {
      break;
    }
    s.fire(p, rng);
    ++r.productive_steps;
    if (opt.on_change && !opt.on_change(p, r.interactions)) {
      r.aborted = true;
      break;
    }
  }
  return finish_run(p, r);
}

}  // namespace pp
