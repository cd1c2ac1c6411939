// Integration tests: the trial harness end-to-end with the experiment
// building blocks (registry protocols, start generators, seed labels) and
// cross-protocol comparisons that the benches rely on.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "analysis/experiment.hpp"
#include "analysis/fit.hpp"
#include "runner/runner.hpp"

namespace pp {
namespace {

// `trials` accelerated trials of `protocol` at size n from `init`, under
// the default master seed.
TrialSet run(const std::string& protocol, u64 n, ConfigGenerator init,
             const std::string& label, u64 trials) {
  TrialSpec spec;
  spec.protocol = protocol;
  spec.n = n;
  spec.init = std::move(init);
  spec.label = label;
  RunnerOptions opt;
  opt.trials = trials;
  return run_trials(spec, opt);
}

TEST(Experiment, RunsRequestedTrials) {
  const TrialSet set =
      run("ag", 24, gen_uniform_random(), "integration-measure", 4);
  EXPECT_EQ(set.records.size(), 4u);
  EXPECT_EQ(set.stats.timeouts, 0u);
  EXPECT_EQ(set.stats.invalid, 0u);
  for (const double t : set.parallel_times()) EXPECT_GT(t, 0.0);
}

TEST(Experiment, DifferentLabelsGiveDifferentStreams) {
  const auto times = [](const std::string& label) {
    return run("ag", 24, gen_uniform_random(), label, 3).parallel_times();
  };
  EXPECT_NE(times("stream-a"), times("stream-b"));
}

TEST(Experiment, KDistantGeneratorPluggedIn) {
  const TrialSet set =
      run("ring-of-traps", 56, gen_k_distant(2), "integration-kdistant", 3);
  EXPECT_EQ(set.stats.timeouts, 0u);
}

// The headline comparison the paper motivates: with O(log n) extra states
// the tree protocol beats the quadratic baseline comfortably even at
// moderate n.
TEST(Integration, TreeBeatsAgAtModerateSize) {
  const std::string label = "integration-tree-vs-ag";
  const double ag =
      run("ag", 256, gen_uniform_random(), label, 5).summary().mean;
  const double tree =
      run("tree-ranking", 256, gen_uniform_random(), label, 5).summary().mean;
  EXPECT_LT(tree * 2, ag) << "tree=" << tree << " ag=" << ag;
}

// Ring beats AG when k is small (Theorem 1's regime k = o(sqrt n)).
TEST(Integration, RingBeatsAgForSmallK) {
  const std::string label = "integration-ring-vs-ag";
  const u64 n = 210;  // 14 * 15
  const double ring =
      run("ring-of-traps", n, gen_k_distant(1), label, 5).summary().mean;
  const double ag = run("ag", n, gen_k_distant(1), label, 5).summary().mean;
  EXPECT_LT(ring, ag) << "ring=" << ring << " ag=" << ag;
}

// Sanity on the fitting pipeline over real measurements: AG's exponent over
// a small dyadic sweep should land near 2.
TEST(Integration, AgExponentRoughlyQuadratic) {
  std::vector<double> xs, ys;
  for (const u64 n : {32u, 64u, 128u}) {
    const TrialSet set =
        run("ag", n, gen_uniform_random(), "integration-ag-exponent", 4);
    xs.push_back(static_cast<double>(n));
    ys.push_back(set.summary().mean);
  }
  const PowerFit f = fit_power(xs, ys);
  EXPECT_GT(f.exponent, 1.5);
  EXPECT_LT(f.exponent, 2.5);
}

}  // namespace
}  // namespace pp
