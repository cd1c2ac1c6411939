#include "schedulers/partition.hpp"

#include <vector>

#include "common/assert.hpp"
#include "obs/counters.hpp"

namespace pp {

PartitionScheduler::PartitionScheduler(u64 blocks, u64 split, u64 heal,
                                       u64 cycles)
    : blocks_(blocks), split_(split), heal_(heal), cycles_(cycles) {
  PP_ASSERT_MSG(blocks >= 2, "a partition needs at least 2 blocks");
  SchedulerSpec spec;
  spec.kind = SchedulerKind::kPartition;
  spec.partition_blocks = blocks;
  spec.partition_split = split;
  spec.partition_heal = heal;
  spec.partition_cycles = cycles;
  name_ = spec.to_string();
}

RunResult PartitionScheduler::run(Protocol& p, Rng& rng,
                                  const RunOptions& opt) const {
  const u64 n = p.num_agents();
  PP_ASSERT_MSG(n >= 2, "partition scheduler needs n >= 2");
  const u64 blocks = blocks_ < n ? blocks_ : n;
  const u64 split_len = split_ != 0 ? split_ : 20 * n;
  const u64 heal_len = heal_ != 0 ? heal_ : 20 * n;

  // Agents are anonymous, so shuffling an explicit state-per-agent vector
  // and assigning blocks round-robin IS a uniformly random balanced
  // partition.  The protocol object stays in sync through apply_pair(), so
  // silence detection and the result contract come from the protocol
  // itself, exactly as in the other agent-level schedulers.
  std::vector<StateId> agents = p.configuration().to_agent_states();
  rng.shuffle(agents);
  std::vector<u32> block(n);
  for (u64 i = 0; i < n; ++i) block[i] = static_cast<u32>(i % blocks);

  RunResult r;
  // One phase of tick-by-tick uniform pair sampling; cross-block pairs are
  // nulls while `split` is true.  Returns false when the outer loop should
  // stop (budget, observer abort, or silence).
  const auto phase = [&](u64 len, bool split) {
    for (u64 step = 0; step < len; ++step) {
      if (p.is_silent() || r.interactions >= opt.max_interactions) {
        return false;
      }
      ++r.interactions;
      const auto [a, b] = rng.ordered_pair(n);
      if (split && block[a] != block[b]) continue;  // link down: no meeting
      const auto [sa, sb] = p.apply_pair(agents[a], agents[b]);
      if (sa == agents[a] && sb == agents[b]) continue;  // null meeting
      agents[a] = sa;
      agents[b] = sb;
      ++r.productive_steps;
      PP_OBS_INC(kProductiveSteps);
      if (opt.on_change && !opt.on_change(p, r.interactions)) {
        r.aborted = true;
        return false;
      }
    }
    return true;
  };

  // Each topology change the environment imposes — cutting the links into
  // blocks, healing them back — is a fault event, counted exactly like a
  // churn storm's faults so RunResult::fault_events means "environmental
  // interventions" across every hostile model, not just churn.
  const auto inject = [&r] {
    ++r.fault_events;
    PP_OBS_INC(kFaultEvents);
  };
  for (u64 cycle = 0; cycle < cycles_; ++cycle) {
    inject();  // split: cross-block links go down
    if (!phase(split_len, /*split=*/true)) break;
    inject();  // heal: all links restored
    if (!phase(heal_len, /*split=*/false)) break;
  }

  // Healed for good: run clean to silence on the remaining budget.
  detail::run_clean_tail(p, rng, opt, r);
  return finish_run(p, r);
}

}  // namespace pp
