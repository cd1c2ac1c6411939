// A5 — (extension, not a paper claim) robustness beyond the random
// scheduler.
//
// The paper's guarantees hold whp under the uniform random scheduler.
// This bench drives each protocol with the greedy adversarial schedulers
// (schedulers/adversarial.hpp) — hostile models that always fire *some*
// productive pair but pick it maliciously — and reports productive steps
// to silence (or CYCLES if the budget is exhausted).
//
// Findings (reproduced in tests/test_adversary.cpp):
//   * AG / ring: terminate under every adversary, with a
//     schedule-INDEPENDENT productive-step count — a global version of
//     the paper's Lemma 5/7 "tokens are handled consistently";
//   * line-of-traps: an adversary can circulate surplus agents through X
//     forever; stabilisation is genuinely probabilistic;
//   * tree-ranking: terminates under all implemented adversaries (the
//     post-reset pour is deterministic by counting).
//
// Every (protocol × policy) point runs through the parallel runner via
// TrialSpec::scheduler — the same path as every other interaction model —
// and appends one BENCH json record whose engine field names the concrete
// policy (e.g. "adversarial[max-load]"), so the perf trajectories of the
// four adversaries stay distinguishable and comparable across commits.
#include "bench_common.hpp"

#include <cstdio>

#include "core/initial.hpp"
#include "protocols/factory.hpp"
#include "schedulers/scheduler.hpp"

namespace pp::bench {
namespace {

int run(const Context& ctx) {
  const u64 budget = ctx.quick() ? 100'000 : 400'000;
  // Every policy except random-productive is deterministic given the start
  // (the policy loops never consume the generator), so extra trials of the
  // greedy adversaries would be bit-identical replays — run those once.
  const u64 trials = ctx.trials_or(ctx.quick() ? 2 : 4);

  Table t("A5 adversarial schedulers (productive steps to silence, budget " +
          std::to_string(budget) + ")");
  t.headers({"protocol", "n", "random-productive", "max-load",
             "min-rank-coverage", "stubborn"});
  for (const auto name : protocol_names()) {
    const u64 n = preferred_population(name, 72);
    // One shared start per protocol so the columns are comparable (and the
    // ag/ring schedule-independence is visible as identical counts).
    ProtocolPtr probe = make_protocol(name, n);
    Rng cfg_rng(derive_seed(ctx.seed, std::string("a5-start-") +
                                          std::string(name)));
    const Configuration start = initial::uniform_random(*probe, cfg_rng);
    auto row = t.row();
    row.cell(std::string(name)).cell(n);
    for (const AdversaryPolicy policy : adversary_policies()) {
      const std::string proto(name);
      TrialSpec spec = make_spec(
          std::string("a5-") + proto + "-" + adversary_policy_name(policy), n,
          [proto, n] { return make_protocol(proto, n); },
          [start](const Protocol&, Rng&) { return start; }, budget);
      spec.protocol = proto;  // descriptive only
      spec.engine = EngineKind::kScheduled;
      spec.scheduler.kind = SchedulerKind::kAdversarial;
      spec.scheduler.adversary = policy;
      const u64 point_trials =
          policy == AdversaryPolicy::kRandomProductive ? trials : 1;
      const TrialSet set =
          run_trials_ctx(ctx, spec, runner_options(ctx, point_trials));
      warn_if_invalid(set, spec.label);
      emit_bench_json(ctx, spec, n, 0, set);
      row.cell(set.stats.timeouts == 0
                   ? std::to_string(static_cast<u64>(
                         set.stats.productive_steps.max()))
                   : std::string("CYCLES"));
    }
  }
  emit(ctx, t);
  std::printf(
      "reading guide: identical step counts across columns (ag, ring) mean "
      "the protocol's work is schedule-independent; CYCLES means the "
      "adversary found an infinite productive schedule — that protocol's "
      "guarantee needs the random scheduler.\n");
  return 0;
}

}  // namespace
}  // namespace pp::bench

int main(int argc, char** argv) {
  const auto ctx = pp::bench::init(
      argc, argv, "A5: adversarial-scheduler robustness (extension)",
      "How each protocol behaves when the scheduler fires productive pairs "
      "maliciously instead of uniformly at random.");
  return pp::bench::run(ctx);
}
