#include "schedulers/churn.hpp"

#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "core/configuration.hpp"
#include "obs/counters.hpp"

namespace pp {
namespace {

// Where one teleported agent lands; shared by both fault paths so their
// RNG consumption can never drift apart.
StateId sample_reset(const Protocol& p, Rng& rng, ChurnReset reset) {
  switch (reset) {
    case ChurnReset::kUniformState:
      return static_cast<StateId>(rng.below(p.num_states()));
    case ChurnReset::kUniformRank:
      return static_cast<StateId>(rng.below(p.num_ranks()));
    case ChurnReset::kStateZero:
      return 0;
  }
  return 0;
}

// The storm, then the clean run, as one run_exact sampler.  A storm tick
// (probability 1) is a fault burst with probability churn_rate, else one
// uniform pair; past the storm's end the sampler is run_accelerated's.
struct ChurnStorm {
  const SchedulerSpec& spec;
  u64 storm_end;  // kNoHorizon once the storm is over
  UniformPairs clean;
  u64 fault_events = 0;
  // Fast-path scratch: net per-state deltas of one burst plus the states
  // it touched, so deciding "did the burst change the configuration" and
  // clearing the scratch both cost O(faults), never O(states).
  std::vector<i64> delta = std::vector<i64>(clean.proto.num_states());
  std::vector<StateId> touched{};

  double productive_probability() const {
    return storm_end != kNoHorizon ? 1.0 : clean.productive_probability();
  }
  u64 horizon() const { return storm_end; }
  void on_horizon(Rng&) { storm_end = kNoHorizon; }

  Fired fire(Protocol& p, Rng& rng) {
    if (storm_end == kNoHorizon) {
      clean.fire(p, rng);
      return Fired::kStep;
    }
    if (!rng.bernoulli(spec.churn_rate)) {
      return p.step_uniform(rng) ? Fired::kStep : Fired::kNull;
    }
    // A fault is environmental, never a productive step of the protocol.
    ++fault_events;
    PP_OBS_INC(kFaultEvents);
    PP_OBS_ADD(kFaultAgentMoves, spec.churn_faults);
    PP_OBS_SKETCH(kFaultBurst, spec.churn_faults);
    return burst(p, rng) ? Fired::kFault : Fired::kNull;
  }

  // Teleports churn_faults uniformly random agents and says whether the
  // configuration changed.  Agents are anonymous, so "a uniform agent" is a
  // state sampled with probability proportional to its count.  Both paths
  // below consume identical RNG draws and sample victims from the same
  // intermediate distributions (the fast path applies each move
  // immediately, which is exactly the reference path's scan of its mutated
  // copy), so trajectories are bit-identical — pinned by test.
  bool burst(Protocol& p, Rng& rng) {
    const u64 n = p.num_agents();
    if (spec.dense_reference) {
      // Transparent reference: mutate a copy, rebuild everything.  O(n)
      // per fault event.
      Configuration c = p.configuration();
      for (u64 f = 0; f < spec.churn_faults; ++f) {
        u64 t = rng.below(n);
        StateId victim = 0;
        while (t >= c.counts[victim]) {
          t -= c.counts[victim];
          ++victim;
        }
        const StateId target = sample_reset(p, rng, spec.churn_reset);
        --c.counts[victim];
        ++c.counts[target];
      }
      if (c.counts == p.counts()) return false;
      p.reset(std::move(c));
      return true;
    }
    // Fast path: O(log n) per teleported agent through the protocol's
    // mutation API.
    for (u64 f = 0; f < spec.churn_faults; ++f) {
      const StateId victim = p.uniform_agent_state(rng.below(n));
      const StateId target = sample_reset(p, rng, spec.churn_reset);
      if (victim == target) continue;
      p.move_agent(victim, target);
      PP_OBS_ADD(kFaultStateTouches, 2);
      if (delta[victim] == 0) touched.push_back(victim);
      --delta[victim];
      if (delta[target] == 0) touched.push_back(target);
      ++delta[target];
    }
    bool changed = false;
    for (const StateId s : touched) {
      if (delta[s] != 0) changed = true;
      delta[s] = 0;
    }
    touched.clear();
    return changed;
  }
};

}  // namespace

ChurnScheduler::ChurnScheduler(double rate, u64 faults, u64 active,
                               ChurnReset reset, bool rebuild_reference) {
  PP_ASSERT_MSG(rate >= 0.0 && rate <= 1.0, "churn rate must be in [0, 1]");
  PP_ASSERT_MSG(faults >= 1, "a churn event must teleport at least 1 agent");
  spec_.kind = SchedulerKind::kChurn;
  spec_.churn_rate = rate;
  spec_.churn_faults = faults;
  spec_.churn_active = active;
  spec_.churn_reset = reset;
  spec_.dense_reference = rebuild_reference;
  name_ = spec_.to_string();
}

RunResult ChurnScheduler::run(Protocol& p, Rng& rng,
                              const RunOptions& opt) const {
  const u64 active = spec_.churn_active;
  ChurnStorm storm{spec_, active != 0 ? active : 50 * p.num_agents(),
                   UniformPairs{p}};
  RunResult r = run_exact(p, rng, opt, storm);
  r.fault_events = storm.fault_events;
  return r;
}

}  // namespace pp
