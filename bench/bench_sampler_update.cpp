// S4 — fault-update-cost microbench: what does one churn fault event
// actually cost, rebuild vs move?
//
// The churn scheduler has two fault paths with pinned bit-identical
// trajectories (tests/test_fault_injection.cpp):
//
//   fast       the default — each teleported agent goes through the
//              Protocol mutation API (uniform_agent_state /
//              move_agent), O(log n) Fenwick work per move, so a
//              k-agent burst costs O(k log n) no matter how large the
//              population is;
//   dense-ref  the transparent original behind churn[.../dense-ref] —
//              copy the configuration, scan it linearly per victim,
//              reset the protocol — O(n) per *fault event* on top of
//              O(n) per victim scan.
//
// This bench isolates the fault path: rate 1.0 makes every storm tick a
// fault event (no pair interactions at all), the storm is exactly the
// interaction budget (no clean tail), and the grid sweeps burst size
// k ∈ {1, 16, 256} against n ∈ {10^3, 10^4, 10^5}.  The BENCH records
// carry the merged obs counters — fault_state_touches ≤ 2 k per event on
// the fast path is the O(k)-not-O(n) evidence, machine-independent —
// while the wall columns show the throughput gap the fast path buys
// (the dense-ref rows should scale with n at fixed k; the fast rows
// should not, beyond the O(n) per-trial setup).
//
// Every (path × n × k) point goes through the parallel runner and
// appends one BENCH json record with k in the `param` column, so the
// per-fault cost rides the same regression gate as the stabilisation
// benches.
#include "bench_common.hpp"

#include <cstdio>
#include <string>
#include <vector>

#include "schedulers/scheduler.hpp"

namespace pp::bench {
namespace {

int run(const Context& ctx) {
  const u64 trials = ctx.trials_or(ctx.quick() ? 2 : 3);
  // Fault events per trial: enough to dominate runner overhead, few
  // enough that the dense-ref rows at n = 10^5 stay in budget.
  const u64 events = 64;
  const std::vector<u64> sizes = capped_sizes(ctx, {1000, 10000, 100000});
  const u64 bursts[] = {1, 16, 256};

  for (const bool dense_ref : {false, true}) {
    Table t(std::string("S4 fault-update cost — ") +
            (dense_ref ? "dense-ref (copy-and-rebuild)"
                       : "fast (move_agent)") +
            ", ag, " + std::to_string(events) + " fault events/trial (" +
            std::to_string(trials) + " trials/point)");
    t.headers({"scheduler", "n", "k", "interactions", "trials/s", "wall s",
               "us/move"});
    for (const u64 n : sizes) {
      for (const u64 k : bursts) {
        SchedulerSpec sched;
        sched.kind = SchedulerKind::kChurn;
        sched.churn_rate = 1.0;  // every tick is a fault event
        sched.churn_faults = k;
        sched.churn_active = events;
        sched.dense_reference = dense_ref;
        const std::string sched_name = sched.to_string();
        TrialSpec spec;
        spec.label = std::string("s4-update-ag-") + sched_name;
        spec.protocol = "ag";
        spec.n = n;
        spec.init = gen_uniform_random();
        spec.max_interactions = events;  // storm only, no clean tail
        spec.engine = EngineKind::kScheduled;
        spec.scheduler = sched;
        const TrialSet set =
            run_trials_ctx(ctx, spec, runner_options(ctx, trials));
        warn_if_invalid(set, spec.label);
        emit_bench_json(ctx, spec, n, static_cast<double>(k), set);
        const double moves =
            static_cast<double>(trials * events * k);
        t.row()
            .cell(sched_name)
            .cell(n)
            .cell(k)
            .cell(set.stats.interactions.mean(), 0)
            .cell(set.trials_per_sec, 4)
            .cell(set.wall_seconds, 3)
            .cell(set.wall_seconds / moves * 1e6, 4);
      }
    }
    emit(ctx, t);
  }

  std::printf(
      "axes: param = k (agents teleported per fault event).  us/move = wall "
      "time per teleported agent, including the O(n) per-trial setup — read "
      "the trend across n at fixed k: dense-ref grows linearly (O(n) copy + "
      "scan per event), fast stays flat (O(log n) per move).  The BENCH "
      "records carry fault_state_touches (<= 2 k per event, fast path only) "
      "as machine-independent evidence.\n");
  return 0;
}

}  // namespace
}  // namespace pp::bench

int main(int argc, char** argv) {
  const auto ctx = pp::bench::init(
      argc, argv, "S4: churn fault-update cost",
      "Perf axis: per-fault mutation cost, O(k log n) move_agent fast path "
      "vs the O(n) copy-and-rebuild reference.");
  return pp::bench::run(ctx);
}
