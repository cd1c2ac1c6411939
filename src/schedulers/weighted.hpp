// The weighted scheduler: pair selection from an arbitrary weight kernel.
//
// The paper's uniform scheduler is the special case w ≡ 1 of a more
// general model: agents sit at positions 0..n-1 (a uniformly random
// placement drawn at run start, like the graph-restricted scheduler's),
// and each step proposes the ordered pair (i, j) with probability
// w(i, j) / Σ w — any non-negative integer kernel.  The complete and
// graph-restricted models are the 1/0 special cases of this; the kernels
// shipped here open the *spatial* family the temporal-graph literature
// studies, where interaction probability decays with distance:
//
//   uniform      w = 1 for every ordered pair — the paper's model through
//                the weighted machinery (tests pin the statistical
//                equivalence to the uniform engine);
//   ring-decay   positions on a ring (the geometry of
//                structures/ring_layout): distance d(i, j) =
//                min(|i-j|, n-|i-j|), kernel w = floor(n/d)^power — nearby
//                agents meet Θ(n/d)^power more often, but every pair keeps
//                weight >= 1, so mixing is slowed, never severed;
//   line-decay   positions on a line (the geometry of
//                structures/line_layout): d(i, j) = |i-j|, same harmonic
//                kernel — adds the boundary asymmetry a ring lacks.
//
// A fourth kernel moves the geometry from positions into the *state
// space* itself:
//
//   trap-decay   no positions at all: an agent in state s meeting an agent
//                in state t weighs floor(T/d)^power, d the ring distance
//                between the traps of s and t in the structures/ring_layout
//                geometry (T ≈ √states traps over all states) — so pair
//                weights move with the agents as they change state.
//
// Pair selection runs on the hierarchical sampler layer
// (schedulers/pair_sampler.hpp) by default: the translation-invariant
// kernel is held in closed form (DistanceKernel, O(n) memory) and the
// productive mass lives in a two-level structure over states and their
// occupant groups (GroupedKernelSampler) — O(log n + group) per sample,
// O(group + log n) per state change, exact totals, so the accelerated
// uniform engine's geometric null-skipping (run_exact) carries over at any
// n whose kernel total fits the sampler's 63-bit range (n ~ 10^6 for the
// harmonic kernels at power 1).  Protocols with extra states ride the same
// path through their declared Protocol::ExtraPairClasses (every library
// protocol qualifies — see GroupedKernelSampler::supports; a protocol
// whose pattern does not fails that check at sampler construction).  Only
// callers that ask for it (SchedulerSpec::dense_reference) take the dense
// Θ(n²) reference path over all n(n-1) ordered pairs — the transparent
// implementation the cross-validation tests pin the hierarchical path
// against; it keeps a population guard at n <= kDenseMaxPopulation.  The
// trap-decay kernel is agent-anonymous and runs entirely on
// TrapKernelSampler's per-trap count aggregates (O(log states) per
// same-trap move, O(√states) per move across traps); it has no positional
// dense path at all.
//
// Because every kernel here assigns positive weight to every pair, a
// weighted run can never get locally stuck: it ends at true silence,
// budget exhaustion or observer abort.  Parallel time is interactions / n.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "schedulers/pair_sampler.hpp"
#include "schedulers/scheduler.hpp"

namespace pp {

class WeightedScheduler final : public Scheduler {
 public:
  /// Population guard for the *dense reference path* only: it allocates
  /// Θ(n²) Fenwick slots over the ordered-pair universe (~0.5 GB at
  /// n = 4096, one sampler per run and one run per runner thread).  The
  /// hierarchical path has no such cap — its bound is the 63-bit kernel
  /// total, checked at DistanceKernel construction.
  static constexpr u64 kDenseMaxPopulation = 4096;

  /// `power` sharpens the decay (w = floor(n/d)^power); must be in
  /// {1, 2, 3} — enough to span gentle-to-steep spatial locality.  A
  /// non-zero `n` pins the population size and precomputes the kernel
  /// tables once at construction — the parallel runner builds one
  /// scheduler per trial set, so a sweep's trials share them; n = 0
  /// defers to run() (any population, tables built per run).
  /// `dense_reference` routes a positional kernel through the dense Θ(n²)
  /// reference universe instead of the hierarchical sampler; the
  /// trap-decay kernel has no dense reference and rejects it.
  explicit WeightedScheduler(WeightKernel kernel, u64 power = 1, u64 n = 0,
                             bool dense_reference = false);

  std::string_view name() const override { return name_; }
  RunResult run(Protocol& p, Rng& rng,
                const RunOptions& opt = {}) const override;

  WeightKernel kernel() const { return kernel_; }
  u64 power() const { return power_; }
  bool dense_reference() const { return dense_reference_; }

  /// The kernel weight of ordered pair (i, j) in a population of n;
  /// exposed for tests.  Requires i != j.  Positional kernels only (the
  /// trap-decay weight is a function of states, not positions — see
  /// TrapKernelSampler::kappa).
  u64 pair_weight(u64 n, u64 i, u64 j) const;

  /// The full dense table: kernel weight at id i * n + j, 0 on the
  /// diagonal.  Θ(n²) — the dense reference path's universe.  Positional
  /// kernels only.
  std::vector<u64> kernel_table(u64 n) const;

  /// The closed-form view of the same kernel (the hierarchical path's top
  /// level); exposed for tests and for the memory-shape assertions.
  /// Positional kernels only.
  DistanceKernel distance_kernel(u64 n) const;

 private:
  WeightKernel kernel_;
  u64 power_;
  u64 n_;  // 0 = resolved per run
  bool dense_reference_;
  std::vector<u64> dense_weights_;  // kernel_table(n_) when pinned + dense
  std::unique_ptr<const DistanceKernel> pinned_kernel_;  // when pinned
  std::string name_;
};

}  // namespace pp
