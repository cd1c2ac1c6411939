// Churn: transient faults as a first-class interaction model.
//
// Self-stabilisation means "converges from every configuration once the
// faults stop".  This scheduler makes the fault process part of the
// schedule instead of an observer hack in the tests: for a bounded storm
// phase, every scheduler tick is either
//
//   * (probability 1 - rate) one uniform random pair interaction — the
//     paper's model, simulated faithfully; or
//   * (probability rate) a fault event that teleports `faults` agents
//     (chosen uniformly, with multiplicity) to states drawn from a
//     configurable reset distribution (ChurnReset) — the kill/respawn of
//     an agent whose memory is re-initialised arbitrarily.
//
// The storm's end, after `active` ticks, is a run_exact horizon; past it
// the sampler is run_accelerated's (UniformPairs), so the run continues
// *clean* until silence or budget exhaustion — a churn run ends exactly
// like the fault-storm tests always did: abuse, then prove recovery.
// active = 0 resolves to 50 n at run time (a storm long enough to hit a
// stabilised population many times over).
//
// Accounting: RunResult::interactions counts ticks (fault events occupy a
// scheduler slot, null meetings included); productive_steps counts only
// δ-driven configuration changes; fault_events counts the injected faults
// (so tests can assert the storm actually corrupted the run);
// parallel_time = ticks / n.  A fault tick is one null in kNullSkips,
// and reaches the observer only if its burst changed the configuration.
//
// Fault cost.  By default each fault event applies its teleports through
// the Protocol's O(log n) mutation API (uniform_agent_state / move_agent)
// — O(k log n) for a k-agent burst, which is what lets the
// hostile benches run churn at n = 10^5.  The original transparent
// implementation — copy the configuration, apply the burst to the copy,
// reset the protocol — costs O(n) per fault and survives behind
// SchedulerSpec::dense_reference ("churn[.../dense-ref]"); the two paths
// consume identical RNG draws and are pinned bit-identical by test.
#pragma once

#include <string>
#include <string_view>

#include "schedulers/scheduler.hpp"

namespace pp {

class ChurnScheduler final : public Scheduler {
 public:
  /// rate: per-tick fault probability in [0, 1]; faults: agents teleported
  /// per event (>= 1); active: storm length in ticks (0 = 50 n); reset:
  /// where teleported agents land; rebuild_reference: take the O(n)
  /// copy-and-rebuild fault path instead of the O(k log n) move_agent
  /// fast path (bit-identical trajectories — see the header comment).
  ChurnScheduler(double rate, u64 faults, u64 active, ChurnReset reset,
                 bool rebuild_reference = false);

  std::string_view name() const override { return name_; }

  RunResult run(Protocol& p, Rng& rng,
                const RunOptions& opt = {}) const override;

 private:
  SchedulerSpec spec_;  // kChurn: the knobs, and the name built from them
  std::string name_;    // "churn[<rate>{x<faults>}/<reset>{/dense-ref}]"
};

}  // namespace pp
