// Adversarial schedulers behind the Scheduler interface.
//
// The paper's guarantees are stated for the uniform random scheduler.  A
// natural robustness question for a library user: what happens under a
// *hostile* scheduler that still makes progress (always fires some
// productive pair) but chooses which one maliciously?  This module
// implements a family of greedy adversaries over the protocol's formal
// transition function δ (the policies are enumerated by AdversaryPolicy in
// schedulers/scheduler.hpp):
//
//   kRandomProductive  uniform among productive pairs (the embedded jump
//                      chain of the random scheduler — baseline);
//   kMaxLoad           always fire the pair inside the most-loaded state
//                      (tries to keep agents piled up);
//   kMinRankCoverage   fire the productive pair whose outcome minimises
//                      the number of occupied rank states (actively fights
//                      the ranking);
//   kStubborn          keep firing in the same state as long as possible
//                      (starves the rest of the population).
//
// Interesting facts these expose (see tests/test_adversary.cpp and
// bench_adversarial): AG and the ring protocol stabilise under *every*
// such adversary (their progress measures are schedule-independent), while
// the line protocol admits infinite productive schedules — the whp bound
// genuinely needs the scheduler's randomness.
//
// The adversary is a run_exact sampler whose every step is an event;
// tests/test_adversary.cpp pins its trajectories seed for seed.  The budget
// is RunOptions::max_interactions, counted in *productive* firings (the
// adversary never fires a null step), so interactions == productive_steps.
//
// Enumeration is O(states^2) per step, so this is a small-n analysis tool,
// not a performance path.
#pragma once

#include <string>
#include <string_view>

#include "schedulers/scheduler.hpp"

namespace pp {

class AdversarialScheduler final : public Scheduler {
 public:
  explicit AdversarialScheduler(AdversaryPolicy policy);

  std::string_view name() const override { return name_; }
  AdversaryPolicy policy() const { return policy_; }

  RunResult run(Protocol& p, Rng& rng,
                const RunOptions& opt = {}) const override;

 private:
  AdversaryPolicy policy_;
  std::string name_;  // "adversarial[<policy>]"
};

}  // namespace pp
