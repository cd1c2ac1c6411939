// The dynamic-graph scheduler: interaction topologies that change mid-run.
//
// PRs 2–3 established that sparse *static* topologies strand the ranking
// protocols: the end-game duplicates of a nearly ranked population are
// rarely adjacent, so runs end locally stuck.  The temporal-graph
// literature predicts sparse *dynamic* topologies should not — any fixed
// pair of agents is eventually joined by an edge, so local stuckness is a
// passing phase, not a verdict.  This scheduler makes that claim testable
// with two classic GraphDynamics policies over an initial
// structures/interaction_graph topology:
//
//   edge-Markovian     every potential edge of the n-vertex pair universe
//                      is an independent two-state Markov chain: at each
//                      step an absent edge appears with probability
//                      `birth` and a present edge disappears with
//                      probability `death` (the initial topology seeds the
//                      present set).  After the flips, the step draws one
//                      directed present edge uniformly (no present edge =
//                      a null step);
//   periodic-rewire    the topology is frozen for T-step epochs; at every
//                      epoch boundary the agent placement is re-drawn
//                      uniformly (and a random-regular topology is
//                      resampled with a fresh seed) — the "resample the
//                      d-regular graph every T steps" model.
//
// Both run on the Fenwick-backed pair-sampler layer
// (schedulers/pair_sampler.hpp) and keep the productive-edge weight fresh
// across *both* kinds of change: protocol steps re-test the pairs touching
// the two agents that moved, edge births/deaths move scheduling weight
// while productivity flags persist.  Both run on run_exact
// (core/engine.hpp), so geometric null-skipping is exact in both models:
//
//   * a rewire epoch is internally static: its sampler is the
//     graph-restricted DirectedEdgeSampler with the epoch's end as
//     run_exact's horizon, which caps each gap there (memorylessness makes
//     the restart at the boundary exact) and rewires in on_horizon — also
//     when the epoch's topology has left the run locally stuck;
//   * under edge-Markovian dynamics a step is an *event* when some edge
//     flips or the drawn edge is productive; the gap to the next event is
//     Geometric(f + (1-f) q) with f the per-step flip probability and q
//     the productive fraction, both exactly maintained.  Flip events then
//     sample their flip set conditioned on being non-empty (first flipped
//     edge by truncated-geometric inversion, the rest binomially) —
//     bit-for-bit the distribution of flipping every edge every step, at
//     O(flips + productive steps + events) cost.  An event whose slot then
//     draws a null pair changed no agent: fire reports it as
//     Fired::kNull, and run_exact counts it as a null interaction.
//
// The edge-Markovian model stores only the *present* edge set by default
// (schedulers/pair_sampler's DirectedPairRoster, with a flat open-addressing
// membership index of the present pairs: O(n + present edges) memory, and
// no allocation per flip), sampling birth victims by rejection against it
// — exact, because the absent set is the complement of a thin present set
// in the arithmetic pair universe.  The flip rates' logarithms are taken
// once per run, so an eventful step pays for its flips' draws and the
// roster's bookkeeping, and a flip whose productivity flags stay put costs
// no tree update.  That lifts the model from
// the old dense-list cap of n = 4096 to the n ~ 10^5 the uniform engines
// handle.  The dense two-list implementation survives behind
// SchedulerSpec::dense_reference ("dynamic[G/markov/dense-ref]") as the
// reference the cross-validation tests pin the sparse path against.
//
// A locally stuck configuration does not stop a dynamic run (the topology
// will change); termination is true silence, budget exhaustion, observer
// abort, or — only when the dynamics themselves are frozen (no flippable
// edge, e.g. birth = 0 on an empty graph) — permanent stuckness.
// Parallel time is interactions / n, exactly as for the static graphs.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "schedulers/scheduler.hpp"
#include "structures/interaction_graph.hpp"

namespace pp {

class DynamicGraphScheduler final : public Scheduler {
 public:
  /// Builds the dynamics described by `spec` (kind must be kDynamicGraph)
  /// for populations of size n.  The initial topology is derived from
  /// (spec.graph, spec.degree, spec.graph_seed, n) alone, so every trial
  /// of a sweep point starts from the same graph.
  DynamicGraphScheduler(const SchedulerSpec& spec, u64 n);

  std::string_view name() const override { return name_; }
  RunResult run(Protocol& p, Rng& rng,
                const RunOptions& opt = {}) const override;

  const InteractionGraph& initial_graph() const { return *graph_; }

  /// The per-run edge-Markovian rates: an explicit edge_birth is used
  /// verbatim; edge_birth = 0 auto-targets a stationary edge count of n
  /// (the sparsity of a cycle), i.e. birth = death * n / (P - n) over the
  /// P = n(n-1)/2 pair universe.
  double resolved_birth() const;
  double resolved_death() const { return death_; }

  /// The per-run rewire period: an explicit rewire_period is used
  /// verbatim; 0 resolves to n (one epoch per unit of parallel time).
  u64 resolved_period() const { return period_ != 0 ? period_ : n_; }

 private:
  std::shared_ptr<const InteractionGraph> graph_;
  GraphKind graph_kind_;
  u64 degree_;
  u64 n_;
  GraphDynamics dynamics_;
  double birth_;
  double death_;
  u64 period_;
  bool dense_reference_;
  std::string name_;
};

}  // namespace pp
