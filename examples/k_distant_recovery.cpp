// Section 3's scenario: recovery from k faults with zero extra states.
//
// A stabilised population of n agents loses k of its ranks (k agents are
// displaced onto already-held ranks).  Theorem 1: the state-optimal
// ring-of-traps protocol re-ranks everyone in O(k n^{3/2}) parallel time —
// the fewer the faults, the faster the recovery, with no extra state cost.
//
//   $ ./k_distant_recovery [n] [trials]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "runner/runner.hpp"

int main(int argc, char** argv) {
  const pp::u64 n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2256;
  const pp::u64 trials = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 5;

  std::printf("ring-of-traps recovery from k-distant configurations, n=%llu\n",
              static_cast<unsigned long long>(n));
  std::printf("(paper Theorem 1: O(k n^{3/2}) whp; AG would need ~n^2 = %.3g "
              "regardless of k)\n\n",
              static_cast<double>(n) * static_cast<double>(n));
  std::printf("%8s %14s %14s %16s\n", "k", "mean time", "max time",
              "time/(k n^1.5)");

  const double n15 = std::pow(static_cast<double>(n), 1.5);
  for (pp::u64 k = 1; k <= n / 8; k *= 2) {
    // One label per damage level: every k draws its own trial streams.
    pp::TrialSpec spec;
    spec.protocol = "ring-of-traps";
    spec.n = n;
    spec.init = pp::gen_k_distant(k);
    spec.label = "k-distant-recovery-k" + std::to_string(k);
    pp::RunnerOptions opt;
    opt.trials = trials;
    opt.master_seed = 1234;
    const pp::TrialSet set = pp::run_trials(spec, opt);
    if (set.stats.invalid + set.stats.timeouts > 0) {
      std::fprintf(stderr, "unexpected invalid outcome!\n");
      return 1;
    }
    const pp::Summary s = set.summary();
    std::printf("%8llu %14.1f %14.1f %16.4f\n",
                static_cast<unsigned long long>(k), s.mean, s.max,
                s.mean / (static_cast<double>(k) * n15));
  }
  std::printf("\nreading guide: recovery cost scales with the damage k "
              "(last column bounded), as Theorem 1 predicts.\n");
  return 0;
}
