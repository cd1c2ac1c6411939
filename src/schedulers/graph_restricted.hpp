// The graph-restricted scheduler: interactions only along edges of a graph.
//
// Agents are pinned to the vertices of a fixed InteractionGraph by a
// uniformly random placement drawn once at run start (the protocols are
// self-stabilising, so *which* states start where is already arbitrary —
// the random placement just removes any artefact of the count-vector
// expansion order).  Each step draws one of the 2|E| directed edges
// uniformly at random and lets (initiator, responder) = its endpoints
// interact; parallel edges therefore carry proportionally more scheduling
// weight, and parallel time is interactions / n exactly as under the
// uniform scheduler (which this model recovers on the complete graph —
// tests check that statistically).
//
// Accelerated path.  Near stabilisation almost every directed edge is null,
// so the naive loop wastes Θ(2|E| / W_G) draws per productive step, where
// W_G is the number of *productive directed edges* — the protocol's
// productive weight intersected with the edge set.  Pair selection runs on
// the Fenwick-backed sampler layer (schedulers/pair_sampler.hpp): a
// DirectedEdgeSampler keeps the productive-edge weight fresh incrementally
// (a productive application at edge (u, v) only changes the states of u
// and v, so only edges incident to u or v are re-tested against δ — O(deg
// log |E|) per productive step on bounded-degree topologies).  With W_G
// known exactly, the gap to the next productive step is
// Geometric(W_G / 2|E|) and the firing edge is uniform among the W_G
// productive ones: the same exact null-skipping construction as the
// accelerated uniform engine, applied edge-wise.
//
// A configuration with W_G = 0 but productive_weight() > 0 is *locally
// stuck*: distant agents could still interact, adjacent ones cannot.  Both
// paths stop there and report silent = false (restricted topologies
// genuinely do strand protocols whose progress needs non-local meetings —
// that is the phenomenon this scheduler exists to expose).
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "schedulers/scheduler.hpp"
#include "structures/interaction_graph.hpp"

namespace pp {

class GraphRestrictedScheduler final : public Scheduler {
 public:
  /// The graph is shared (a topology can serve many concurrent runs); its
  /// vertex count must equal the protocol's population size at run time.
  /// `accelerated` selects the null-skipping path (identical in
  /// distribution to the naive loop; both consume the generator
  /// differently, so trajectories differ seed-for-seed while every
  /// statistic agrees).
  explicit GraphRestrictedScheduler(
      std::shared_ptr<const InteractionGraph> graph, bool accelerated = true);

  std::string_view name() const override { return name_; }
  RunResult run(Protocol& p, Rng& rng,
                const RunOptions& opt = {}) const override;

  const InteractionGraph& graph() const { return *graph_; }

 private:
  std::shared_ptr<const InteractionGraph> graph_;
  bool accelerated_;
  std::string name_;
};

}  // namespace pp
