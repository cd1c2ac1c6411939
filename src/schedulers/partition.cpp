#include "schedulers/partition.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "obs/counters.hpp"

namespace pp {
namespace {

// The phases, then the healed run, as one run_exact sampler.  A phase step
// (probability 1 until silence) is one uniform ordered pair of agents, a
// null while it straddles blocks in a split.  Phase starts are horizons,
// the first at 0; past the last phase the sampler is run_accelerated's.
struct PartitionPhases {
  u64 split_len, heal_len;
  u64 phases;  // split, heal, split, ...: 2 per cycle
  std::vector<StateId> agents;
  std::vector<u32> block;
  UniformPairs clean;
  u64 begun = 0;      // phases begun so far; phases + 1 once healed
  u64 phase_end = 0;  // where the next phase begins
  u64 fault_events = 0;

  bool healed() const { return begun > phases; }
  double productive_probability() const {
    if (healed()) return clean.productive_probability();
    return clean.proto.is_silent() ? 0.0 : 1.0;
  }
  u64 horizon() const { return healed() ? kNoHorizon : phase_end; }
  void on_horizon(Rng&) { next_phase(); }

  // Each topology change the environment imposes — cutting the links into
  // blocks, healing them back — is a fault event, counted exactly like a
  // churn storm's faults so RunResult::fault_events means "environmental
  // interventions" across every hostile model, not just churn.
  void next_phase() {
    if (++begun > phases) return;
    phase_end += begun % 2 == 1 ? split_len : heal_len;
    ++fault_events;
    PP_OBS_INC(kFaultEvents);
  }

  Fired fire(Protocol& p, Rng& rng) {
    if (healed()) {
      clean.fire(p, rng);
      return Fired::kStep;
    }
    const auto [a, b] = rng.ordered_pair(agents.size());
    if (begun % 2 == 1 && block[a] != block[b]) return Fired::kNull;
    const auto [sa, sb] = p.apply_pair(agents[a], agents[b]);
    if (sa == agents[a] && sb == agents[b]) return Fired::kNull;
    agents[a] = sa;
    agents[b] = sb;
    return Fired::kStep;
  }
};

}  // namespace

PartitionScheduler::PartitionScheduler(u64 blocks, u64 split, u64 heal,
                                       u64 cycles) {
  PP_ASSERT_MSG(blocks >= 2, "a partition needs at least 2 blocks");
  spec_.kind = SchedulerKind::kPartition;
  spec_.partition_blocks = blocks;
  spec_.partition_split = split;
  spec_.partition_heal = heal;
  spec_.partition_cycles = cycles;
  name_ = spec_.to_string();
}

RunResult PartitionScheduler::run(Protocol& p, Rng& rng,
                                  const RunOptions& opt) const {
  const u64 n = p.num_agents();
  const u64 blocks = std::min(spec_.partition_blocks, n);
  // Agents are anonymous, so shuffling an explicit state-per-agent vector
  // and assigning blocks round-robin IS a uniformly random balanced
  // partition.  apply_pair() keeps the protocol object in sync.
  std::vector<StateId> agents = p.configuration().to_agent_states();
  rng.shuffle(agents);
  std::vector<u32> block(n);
  for (u64 i = 0; i < n; ++i) block[i] = static_cast<u32>(i % blocks);
  const u64 split = spec_.partition_split, heal = spec_.partition_heal;
  PartitionPhases phases{split != 0 ? split : 20 * n, heal != 0 ? heal : 20 * n,
                         2 * spec_.partition_cycles,
                         std::move(agents), std::move(block), UniformPairs{p}};
  RunResult r = run_exact(p, rng, opt, phases);
  // A phase that ends on the budget's last step (not by an observer abort)
  // still hands over, though run_exact stops short of that horizon.
  if (!r.aborted && r.interactions == phases.horizon()) phases.next_phase();
  r.fault_events = phases.fault_events;
  return r;
}

}  // namespace pp
