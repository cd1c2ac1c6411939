#include "analysis/exact.hpp"

#include <cmath>
#include <limits>
#include <map>
#include <queue>

#include "common/assert.hpp"

namespace pp {
namespace {

// Sparse row of the embedded (productive-only) jump chain.
struct Row {
  // (target configuration index, weight w_j); weights sum to W.
  std::vector<std::pair<u64, u64>> targets;
  u64 weight = 0;  // W(c); 0 <=> silent
};

}  // namespace

ExactAnalysis analyze_exact(const Protocol& p, const Configuration& start,
                            const ExactOptions& opt) {
  PP_ASSERT(start.num_states() == p.num_states());
  PP_ASSERT(start.agents() == p.num_agents());
  const u64 n = p.num_agents();
  const u64 states = p.num_states();
  const double pairs = static_cast<double>(n) * static_cast<double>(n - 1);

  // --- 1. enumerate the reachable set (BFS over configurations) --------
  std::map<std::vector<Count>, u64> index_of;
  std::vector<std::vector<Count>> configs;
  std::vector<Row> rows;
  std::queue<u64> frontier;

  auto intern = [&](const std::vector<Count>& c) -> u64 {
    const auto [it, inserted] = index_of.emplace(c, configs.size());
    if (inserted) {
      PP_ASSERT_MSG(configs.size() < opt.max_configurations,
                    "exact analysis: reachable set too large");
      configs.push_back(c);
      rows.emplace_back();
      frontier.push(it->second);
    }
    return it->second;
  };

  intern(start.counts);
  while (!frontier.empty()) {
    const u64 idx = frontier.front();
    frontier.pop();
    // Copy: `configs` may reallocate while we intern successors.
    const std::vector<Count> c = configs[idx];
    // Aggregate successor weights before storing (several ordered pairs
    // can lead to the same configuration).
    std::map<std::vector<Count>, u64> successors;
    u64 total_weight = 0;
    for (StateId s1 = 0; s1 < states; ++s1) {
      if (c[s1] == 0) continue;
      for (StateId s2 = 0; s2 < states; ++s2) {
        const u64 c2 = c[s2] - (s1 == s2 ? 1 : 0);
        if (c[s2] == 0 || c2 == 0) continue;
        const auto [o1, o2] = p.transition(s1, s2);
        if (o1 == s1 && o2 == s2) continue;
        const u64 w = c[s1] * c2;
        std::vector<Count> next = c;
        --next[s1];
        --next[s2];
        ++next[o1];
        ++next[o2];
        successors[std::move(next)] += w;
        total_weight += w;
      }
    }
    // Intern successors BEFORE touching rows[idx]: intern() appends to
    // `rows` and may reallocate it.
    std::vector<std::pair<u64, u64>> targets;
    targets.reserve(successors.size());
    for (const auto& [next, w] : successors) {
      targets.emplace_back(intern(next), w);
    }
    rows[idx].weight = total_weight;
    rows[idx].targets = std::move(targets);
  }

  ExactAnalysis out;
  out.reachable_configurations = configs.size();
  // is_absorbing[i] => 1.0/2.0 tag: 1 = silent ranking, 2 = silent but NOT
  // a ranking (stranded).  0 = transient.
  std::vector<u8> silent_tag(configs.size(), 0);
  for (u64 i = 0; i < configs.size(); ++i) {
    if (rows[i].weight == 0) {
      ++out.silent_configurations;
      if (is_valid_ranking(Configuration(configs[i]), p.num_ranks())) {
        silent_tag[i] = 1;
      } else {
        silent_tag[i] = 2;
        ++out.stranded_configurations;
        out.all_silent_are_rankings = false;
      }
    }
  }

  // --- 2. hitting probabilities: h = P h with h fixed on the absorbing
  // set.  Gauss-Seidel from 0 converges monotonically to the *minimal*
  // solution, which is exactly the hitting probability — no assumption
  // that absorption is almost sure.  Same reverse sweep order as the
  // expectation solve below.
  auto hitting = [&](auto&& boundary) {
    std::vector<double> h(configs.size(), 0.0);
    for (u64 i = 0; i < configs.size(); ++i) {
      if (rows[i].weight == 0 && boundary(i)) h[i] = 1.0;
    }
    double change = opt.epsilon + 1;
    while (change > opt.epsilon && out.iterations < opt.max_iterations) {
      change = 0;
      ++out.iterations;
      for (u64 i = configs.size(); i-- > 0;) {
        const Row& row = rows[i];
        if (row.weight == 0) continue;
        double v = 0;
        for (const auto& [j, w] : row.targets) {
          v += static_cast<double>(w) * h[j];
        }
        v /= static_cast<double>(row.weight);
        const double d = std::fabs(v - h[i]);
        if (d > change) change = d;
        h[i] = v;
      }
    }
    PP_ASSERT_MSG(out.iterations < opt.max_iterations,
                  "exact analysis: hitting probabilities failed to converge");
    return h;
  };
  out.absorption_probability =
      hitting([&](u64 i) { return silent_tag[i] != 0; })[0];
  out.stranded_probability =
      out.stranded_configurations == 0
          ? 0.0
          : hitting([&](u64 i) { return silent_tag[i] == 2; })[0];

  // --- 3. Gauss-Seidel on E[c] = D/W + sum (w_j/W) E[j] ------------------
  // Only solvable when absorption is almost sure; otherwise the recursion
  // has no finite solution and the expectation is +infinity (the epsilon
  // slack absorbs the hitting solve's own truncation error).
  if (out.absorption_probability < 1.0 - 1e-6) {
    out.diverges = true;
    out.expected_parallel_time = std::numeric_limits<double>::infinity();
    return out;
  }
  std::vector<double> e(configs.size(), 0.0);
  double delta = opt.epsilon + 1;
  while (delta > opt.epsilon && out.iterations < opt.max_iterations) {
    delta = 0;
    ++out.iterations;
    // Sweep in reverse insertion order: BFS tends to discover
    // later-in-trajectory configurations later, so reverse sweeps
    // propagate absorption values faster.
    for (u64 i = configs.size(); i-- > 0;) {
      const Row& row = rows[i];
      if (row.weight == 0) continue;
      double v = pairs;  // expected interactions to leave c, times W... :
      // E_interactions[c] = D/W + sum (w_j/W) E[j]  ==  (D + sum w_j E[j])/W
      for (const auto& [j, w] : row.targets) {
        v += static_cast<double>(w) * e[j];
      }
      v /= static_cast<double>(row.weight);
      const double d = std::fabs(v - e[i]);
      if (d > delta) delta = d;
      e[i] = v;
    }
  }
  PP_ASSERT_MSG(out.iterations < opt.max_iterations,
                "exact analysis failed to converge");

  out.expected_parallel_time = e[0] / static_cast<double>(n);
  return out;
}

}  // namespace pp
