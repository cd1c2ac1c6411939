#include "core/engine.hpp"

#include "common/assert.hpp"

namespace pp {

RunResult finish_run(const Protocol& p, RunResult r) {
  r.silent = p.is_silent();
  r.valid = p.is_valid_ranking();
  r.parallel_time = static_cast<double>(r.interactions) /
                    static_cast<double>(p.num_agents());
  PP_ASSERT_MSG(r.interactions >= r.productive_steps,
                "engine contract: interactions >= productive_steps");
  PP_ASSERT_MSG(!r.silent || p.productive_weight() == 0,
                "engine contract: silent implies productive_weight()==0");
  return r;
}

bool advance_past_nulls(Rng& rng, GeometricFailures& gaps, double prob,
                        u64 budget, u64& interactions) {
  const u64 skip = gaps(rng, prob);
  // For astronomically small `prob` the sampled gap can exceed u64 range
  // (geometric_failures saturates at kGeometricInfinity).  Any such gap
  // necessarily overruns the interaction budget, so clamp to it instead
  // of treating the sentinel as an ordinary gap length.
  if (skip == Rng::kGeometricInfinity || skip >= budget - interactions) {
    PP_OBS_ADD(kNullSkips, budget - interactions);
    interactions = budget;
    return false;
  }
  interactions += skip + 1;
  PP_OBS_ADD(kNullSkips, skip);
  PP_OBS_SKETCH(kNullSkipGap, skip);
  return true;
}

RunResult run_accelerated(Protocol& p, Rng& rng, const RunOptions& opt) {
  PP_ASSERT_MSG(p.num_agents() >= 2,
                "run_accelerated needs n >= 2 (no pairs otherwise)");
  UniformPairs uniform{p};
  return run_exact(p, rng, opt, uniform);
}

RunResult run_uniform(Protocol& p, Rng& rng, const RunOptions& opt) {
  PP_ASSERT_MSG(p.num_agents() >= 2,
                "run_uniform needs n >= 2 (no pairs otherwise)");
  RunResult r;
  while (p.productive_weight() != 0) {
    if (r.interactions >= opt.max_interactions) return finish_run(p, r);
    ++r.interactions;
    if (p.step_uniform(rng)) {
      ++r.productive_steps;
      PP_OBS_INC(kProductiveSteps);
      PP_OBS_TRACE_STEP(r.interactions);
      if (opt.on_change && !opt.on_change(p, r.interactions)) {
        r.aborted = true;
        return finish_run(p, r);
      }
    }
  }
  return finish_run(p, r);
}

}  // namespace pp
