#include "schedulers/graph_restricted.hpp"

#include "common/assert.hpp"
#include "obs/counters.hpp"
#include "schedulers/pair_sampler.hpp"

namespace pp {

GraphRestrictedScheduler::GraphRestrictedScheduler(
    std::shared_ptr<const InteractionGraph> graph, bool accelerated)
    : graph_(std::move(graph)), accelerated_(accelerated) {
  PP_ASSERT_MSG(graph_ != nullptr, "graph-restricted scheduler needs a graph");
  name_ = "graph-restricted[" + graph_->description() + "]";
}

RunResult GraphRestrictedScheduler::run(Protocol& p, Rng& rng,
                                        const RunOptions& opt) const {
  const u64 n = p.num_agents();
  PP_ASSERT_MSG(graph_->num_vertices() == n,
                "interaction graph size != population size");
  // The protocols are self-stabilising, so *which* states start where is
  // already arbitrary — the random placement just removes any artefact of
  // the count-vector expansion order.
  std::vector<StateId> placement = p.configuration().to_agent_states();
  rng.shuffle(placement);
  DirectedEdgeSampler es(*graph_, p, std::move(placement));
  // Both paths stop at edge-silence (no productive directed edge left —
  // either true silence or a locally stuck configuration), budget
  // exhaustion or observer abort.
  if (accelerated_) return run_exact(p, rng, opt, es);

  // The naive loop draws every directed edge, nulls included: the test
  // oracle the accelerated path is checked against.
  RunResult r;
  while (es.productive_total() != 0) {
    if (r.interactions >= opt.max_interactions) break;
    ++r.interactions;
    const u64 drawn = rng.below(es.weight_total());
    if (!es.productive(drawn)) continue;  // null step
    es.fire(p, drawn);
    ++r.productive_steps;
    PP_OBS_INC(kProductiveSteps);
    if (opt.on_change && !opt.on_change(p, r.interactions)) {
      r.aborted = true;
      break;
    }
  }
  return finish_run(p, r);
}

}  // namespace pp
