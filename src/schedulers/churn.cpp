#include "schedulers/churn.hpp"

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

}  // namespace

ChurnScheduler::ChurnScheduler(double rate, u64 faults, u64 active,
                               ChurnReset reset, bool rebuild_reference)
    : rate_(rate),
      faults_(faults),
      active_(active),
      reset_(reset),
      rebuild_reference_(rebuild_reference) {
  PP_ASSERT_MSG(rate >= 0.0 && rate <= 1.0, "churn rate must be in [0, 1]");
  PP_ASSERT_MSG(faults >= 1, "a churn event must teleport at least 1 agent");
  SchedulerSpec spec;
  spec.kind = SchedulerKind::kChurn;
  spec.churn_rate = rate;
  spec.churn_faults = faults;
  spec.churn_active = active;
  spec.churn_reset = reset;
  spec.dense_reference = rebuild_reference;
  name_ = spec.to_string();
}

RunResult ChurnScheduler::run(Protocol& p, Rng& rng,
                              const RunOptions& opt) const {
  const u64 n = p.num_agents();
  PP_ASSERT_MSG(n >= 2, "churn scheduler needs n >= 2 (no pairs otherwise)");
  const u64 storm_ticks = active_ != 0 ? active_ : 50 * n;

  // Fast-path scratch, allocated once per run: net per-state deltas of one
  // burst plus the list of states the burst touched, so deciding "did the
  // burst change the configuration" and clearing the scratch both cost
  // O(faults), never O(states).
  std::vector<i64> delta;
  std::vector<StateId> touched;
  if (!rebuild_reference_) {
    delta.assign(p.num_states(), 0);
    touched.reserve(2 * faults_);
  }

  RunResult r;
  while (r.interactions < storm_ticks &&
         r.interactions < opt.max_interactions) {
    ++r.interactions;
    bool changed;
    if (rng.bernoulli(rate_)) {
      // Fault event: teleport faults_ uniformly random agents.  Agents are
      // anonymous, so "a uniform agent" is a state sampled with probability
      // proportional to its count.  Both paths below consume identical RNG
      // draws and sample victims from the same intermediate distributions
      // (the fast path applies each move immediately, which is exactly the
      // reference path's scan of its mutated copy), so trajectories are
      // bit-identical — pinned by test.
      if (rebuild_reference_) {
        // Transparent reference: mutate a copy, rebuild everything.  O(n)
        // per fault event.
        Configuration c = p.configuration();
        for (u64 f = 0; f < faults_; ++f) {
          u64 t = rng.below(n);
          StateId victim = 0;
          while (t >= c.counts[victim]) {
            t -= c.counts[victim];
            ++victim;
          }
          const StateId target = sample_reset(p, rng, reset_);
          --c.counts[victim];
          ++c.counts[target];
        }
        changed = c.counts != p.counts();
        if (changed) p.reset(c);
      } else {
        // Fast path: O(log n) per teleported agent through the protocol's
        // mutation API.
        for (u64 f = 0; f < faults_; ++f) {
          const StateId victim = p.uniform_agent_state(rng.below(n));
          const StateId target = sample_reset(p, rng, reset_);
          if (victim == target) continue;
          p.move_agent(victim, target);
          PP_OBS_ADD(kFaultStateTouches, 2);
          if (delta[victim] == 0) touched.push_back(victim);
          --delta[victim];
          if (delta[target] == 0) touched.push_back(target);
          ++delta[target];
        }
        changed = false;
        for (const StateId s : touched) {
          if (delta[s] != 0) changed = true;
          delta[s] = 0;
        }
        touched.clear();
      }
      ++r.fault_events;
      PP_OBS_INC(kFaultEvents);
      PP_OBS_ADD(kFaultAgentMoves, faults_);
      PP_OBS_SKETCH(kFaultBurst, faults_);
      // A fault is environmental, never a productive step of the protocol.
    } else {
      changed = p.step_uniform(rng);
      if (changed) {
        ++r.productive_steps;
        PP_OBS_INC(kProductiveSteps);
      }
    }
    if (changed && opt.on_change && !opt.on_change(p, r.interactions)) {
      r.aborted = true;
      return finish_run(p, r);
    }
  }

  // The storm is over: run clean to silence on the remaining budget, with
  // exact null-skipping (the storm phase is the only part that needs
  // tick-by-tick simulation).
  detail::run_clean_tail(p, rng, opt, r);
  return finish_run(p, r);
}

}  // namespace pp
