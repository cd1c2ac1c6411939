// Exact Markov-chain analysis of tiny populations — ground truth without
// sampling noise.
//
// For small n the protocol's configuration space fits in memory, so we can
// enumerate it, verify that the ONLY reachable silent configuration is the
// valid ranking (stability, exhaustively!), and solve for the exact
// expected stabilisation time — then confront the Monte-Carlo engine with
// it.
//
//   $ ./exact_analysis [n] [trials]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "analysis/exact.hpp"
#include "core/initial.hpp"
#include "protocols/factory.hpp"
#include "runner/runner.hpp"

int main(int argc, char** argv) {
  const pp::u64 n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 6;
  const pp::u64 trials =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 20000;

  std::printf("exact analysis of all-in-state-0 starts, n = %llu\n\n",
              static_cast<unsigned long long>(n));
  std::printf("%-16s %14s %10s %8s %14s %14s %8s\n", "protocol", "reachable",
              "silent", "ranking", "E[time] exact", "sim mean", "ratio");

  for (const auto name : pp::protocol_names()) {
    if (pp::min_population(name) > n) {
      std::printf("%-16s (needs n >= %llu, skipped)\n",
                  std::string(name).c_str(),
                  static_cast<unsigned long long>(pp::min_population(name)));
      continue;
    }
    pp::ProtocolPtr p = pp::make_protocol(name, n);
    const pp::Configuration start = pp::initial::all_in_state(*p, 0);
    const pp::ExactAnalysis exact = pp::analyze_exact(*p, start);

    pp::TrialSpec spec;
    spec.protocol = name;
    spec.n = n;
    spec.init = pp::gen_all_in_state(0);
    spec.label = name;
    pp::RunnerOptions opt;
    opt.trials = trials;
    opt.master_seed = 99;
    const pp::TrialSet set = pp::run_trials(spec, opt);
    // A plain sum in trial order (RunningStat's streaming mean rounds
    // differently in the last digits).
    double sum = 0;
    for (const pp::TrialRecord& r : set.records) sum += r.parallel_time;
    const double sim = sum / static_cast<double>(trials);
    std::printf("%-16s %14llu %10llu %8s %14.4f %14.4f %8.4f\n",
                std::string(name).c_str(),
                static_cast<unsigned long long>(
                    exact.reachable_configurations),
                static_cast<unsigned long long>(exact.silent_configurations),
                exact.all_silent_are_rankings ? "yes" : "NO",
                exact.expected_parallel_time, sim,
                sim / exact.expected_parallel_time);
  }
  std::printf(
      "\nreading guide: 'silent' = reachable silent configurations (always "
      "exactly 1, the ranking: exhaustive proof of stability at this n); "
      "'ratio' ~ 1 validates the Monte-Carlo engine against the exact "
      "chain.\n");
  return 0;
}
