// Tests of the one-extra-state line-of-traps protocol (§4): rule
// semantics, the Lemma 5 schedule-independent line outcome, the Lemma 10
// identity s(C) = d(C), and stabilisation from assorted starts.
#include "protocols/line_of_traps.hpp"

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "core/initial.hpp"

namespace pp {
namespace {

TEST(Line, Dimensions) {
  LineOfTrapsProtocol p(72);  // m = 2
  EXPECT_EQ(p.num_agents(), 72u);
  EXPECT_EQ(p.num_ranks(), 72u);
  EXPECT_EQ(p.num_extra_states(), 1u);
  EXPECT_EQ(p.x_state(), 72u);
  EXPECT_EQ(p.layout().m(), 2u);
}

TEST(Line, ValidRankingIsSilent) {
  LineOfTrapsProtocol p(72);
  p.reset(initial::valid_ranking(p));
  EXPECT_TRUE(p.is_silent());
  EXPECT_TRUE(p.is_valid_ranking());
  EXPECT_EQ(p.global_deficit(), 0u);
  EXPECT_EQ(p.global_surplus(), 0u);
  EXPECT_EQ(p.global_excess(), 0u);
}

TEST(Line, ExitGateReleasesToX) {
  LineOfTrapsProtocol p(72);
  Configuration c = initial::valid_ranking(p);
  const StateId exit = p.layout().exit_gate(0);
  const StateId top0 = p.layout().top(0, 0);
  c.counts[exit] = 3;           // 2 extra agents at line 0's exit gate
  c.counts[top0] = 0;           // taken from the top inner state
  c.counts[p.layout().gate(0, 1)] = 0;  // and the next gate
  p.reset(c);
  Rng rng(1);
  // The only productive pairs sit at the exit gate.
  p.step_productive(rng);
  EXPECT_EQ(p.counts()[exit], 1u);
  EXPECT_EQ(p.counts()[top0], 1u);
  EXPECT_EQ(p.counts()[p.x_state()], 1u) << "one agent released to X";
}

TEST(Line, XRoutingTargetsEntranceGates) {
  LineOfTrapsProtocol p(72);
  Configuration c = initial::valid_ranking(p);
  // One agent in X, its rank-state slot empty.
  c.counts[p.x_state()] = 1;
  c.counts[10] = 0;
  p.reset(c);
  EXPECT_FALSE(p.is_silent()) << "a lone X agent still interacts";
  Rng rng(2);
  p.step_productive(rng);
  EXPECT_EQ(p.counts()[p.x_state()], 0u);
  // The agent landed on some entrance gate.
  u64 on_entrances = 0;
  for (u64 l = 0; l < p.layout().num_lines(); ++l) {
    on_entrances += p.counts()[p.layout().entrance_gate(l)] > 1 ? 1 : 0;
  }
  EXPECT_EQ(on_entrances, 1u);
}

TEST(Line, PredictOutcomeEmptyLine) {
  const std::vector<u64> beta{0, 0, 0};
  const std::vector<u64> gamma{0, 0, 0};
  const std::vector<u64> cap{2, 2, 2};
  const LineOutcome out = predict_line_outcome(beta, gamma, cap);
  EXPECT_EQ(out.released, 0u);
  EXPECT_EQ(out.excess, 0u);
  EXPECT_EQ(out.deficit, 9u);  // 3 traps x 3 states, all empty
}

TEST(Line, PredictOutcomeFullySaturatedLine) {
  const std::vector<u64> beta{2, 2, 2};
  const std::vector<u64> gamma{1, 1, 1};
  const std::vector<u64> cap{2, 2, 2};
  const LineOutcome out = predict_line_outcome(beta, gamma, cap);
  EXPECT_EQ(out.released, 0u);
  EXPECT_EQ(out.deficit, 0u);
  for (const u64 a : out.alpha) EXPECT_EQ(a, 2u);
  for (const u64 d : out.delta) EXPECT_EQ(d, 1u);
}

TEST(Line, PredictOutcomeSurplusFlowsThrough) {
  // Entrance trap (index 2) holds 6 agents at its gate; caps are 1.
  const std::vector<u64> beta{0, 0, 0};
  const std::vector<u64> gamma{0, 0, 6};
  const std::vector<u64> cap{1, 1, 1};
  const LineOutcome out = predict_line_outcome(beta, gamma, cap);
  // Trap 2: y=6, half=3 > cap -> alpha=1, delta=1, pass 0+6-1-1=4.
  // Trap 1: y=4, half=2 > cap -> alpha=1, delta=1, pass 0+4-1-1=2.
  // Trap 0: y=2, half=1 = cap -> alpha=1, delta=0, release 1.
  EXPECT_EQ(out.alpha, (std::vector<u64>{1, 1, 1}));
  EXPECT_EQ(out.delta, (std::vector<u64>{0, 1, 1}));
  EXPECT_EQ(out.released, 1u);
  // Conservation: 6 = alpha+delta+released.
  EXPECT_EQ(out.alpha[0] + out.alpha[1] + out.alpha[2] + out.delta[0] +
                out.delta[1] + out.delta[2] + out.released,
            6u);
}

TEST(Line, PredictOutcomeConservesAgents) {
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    const u64 traps = 2 + rng.below(5);
    std::vector<u64> beta(traps), gamma(traps), cap(traps);
    u64 total = 0;
    for (u64 a = 0; a < traps; ++a) {
      cap[a] = 1 + rng.below(4);
      beta[a] = rng.below(2 * cap[a]);
      gamma[a] = rng.below(5);
      total += beta[a] + gamma[a];
    }
    const LineOutcome out = predict_line_outcome(beta, gamma, cap);
    u64 kept = out.released;
    for (u64 a = 0; a < traps; ++a) kept += out.alpha[a] + out.delta[a];
    EXPECT_EQ(kept, total) << "agents lost or created by the recurrence";
    for (u64 a = 0; a < traps; ++a) {
      EXPECT_LE(out.alpha[a], cap[a]);
      EXPECT_LE(out.delta[a], 1u);
    }
  }
}

TEST(Line, Lemma10SurplusEqualsDeficit) {
  LineOfTrapsProtocol p(72);
  Rng rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    p.reset(initial::uniform_random(p, rng));
    EXPECT_EQ(p.global_surplus(), p.global_deficit());
    EXPECT_LE(p.global_surplus(), p.global_excess()) << "s(C) <= r(C)";
  }
}

TEST(Line, Lemma10HoldsAlongTrajectories) {
  LineOfTrapsProtocol p(72);
  Rng rng(5);
  p.reset(initial::uniform_random(p, rng));
  RunOptions opt;
  u64 checks = 0;
  opt.on_change = [&](const Protocol&, u64) {
    if (++checks % 16 == 0) {  // subsample: the check is O(n)
      EXPECT_EQ(p.global_surplus(), p.global_deficit());
    }
    return true;
  };
  const RunResult r = run_accelerated(p, rng, opt);
  EXPECT_TRUE(r.valid);
}

TEST(Line, StabilisesFromAssortedStarts) {
  LineOfTrapsProtocol p(72);
  Rng rng(6);
  // All agents in X.
  p.reset(initial::all_in_state(p, p.x_state()));
  EXPECT_TRUE(run_accelerated(p, rng).valid);
  // All agents on one exit gate.
  p.reset(initial::all_in_state(p, p.layout().exit_gate(3)));
  EXPECT_TRUE(run_accelerated(p, rng).valid);
  // Uniform random over all 73 states.
  p.reset(initial::uniform_random(p, rng));
  EXPECT_TRUE(run_accelerated(p, rng).valid);
}

TEST(Line, StabilisesOnNonCanonicalSizes) {
  for (const u64 n : {73u, 100u, 150u}) {
    LineOfTrapsProtocol p(n);
    Rng rng(n);
    p.reset(initial::uniform_random(p, rng));
    EXPECT_TRUE(run_accelerated(p, rng).valid) << "n=" << n;
  }
}

// --- SingleLineProtocol / Lemma 5 ---------------------------------------

TEST(SingleLine, Lemma5OutcomeIsScheduleIndependent) {
  // A tidy starting configuration of one line must always release the
  // predicted number of agents and stabilise to the predicted alpha/delta
  // vectors, whatever the schedule.
  const u64 traps = 4, inner = 3;
  Rng gen(7);
  for (int trial = 0; trial < 8; ++trial) {
    // Build a tidy random line: inner states filled from the top down.
    std::vector<u64> beta(traps), gamma(traps), cap(traps, inner);
    for (u64 a = 0; a < traps; ++a) {
      beta[a] = gen.below(2 * inner);
      gamma[a] = gen.below(4);
    }
    const LineOutcome predicted = predict_line_outcome(beta, gamma, cap);

    for (const u64 seed : {11u, 22u, 33u}) {
      SingleLineProtocol p(/*num_agents=*/[&] {
        u64 t = 0;
        for (u64 a = 0; a < traps; ++a) t += beta[a] + gamma[a];
        return t < 2 ? 2 : t;
      }(), traps, inner);
      Configuration c;
      c.counts.assign(p.num_states(), 0);
      u64 placed = 0;
      for (u64 a = 0; a < traps; ++a) {
        c.counts[p.gate(a)] = gamma[a];
        // Tidy fill: pile agents on the highest inner states first.
        u64 remaining = beta[a];
        for (u64 b = inner; b >= 1 && remaining > 0; --b) {
          const u64 put = (b == 1) ? remaining : std::min<u64>(remaining, 2);
          c.counts[p.gate(a) + b] += put;
          remaining -= put;
        }
        placed += beta[a] + gamma[a];
      }
      if (placed < 2) c.counts[p.gate(0)] += 2 - placed;  // tiny fixup
      p.reset(c);
      Rng rng(seed);
      const RunResult r = run_accelerated(p, rng);
      EXPECT_TRUE(r.silent);
      if (placed < 2) continue;  // fixup breaks the prediction; skip checks
      EXPECT_EQ(p.released(), predicted.released)
          << "trial " << trial << " seed " << seed;
      EXPECT_EQ(p.beta(), predicted.alpha);
      EXPECT_EQ(p.gamma(), predicted.delta);
    }
  }
}

// Boundary pin at a 10^5-state space for the beta()/gamma() index
// arithmetic (the hardened -Wconversion sweep rewrote beta()'s inner-state
// walk; an off-by-one or narrowed StateId would misread a neighbouring
// trap's gate, which the distinct per-state counts below would catch —
// gates carry >= 100 agents, inner state gate(a)+b carries exactly b).
TEST(SingleLine, BetaGammaIndexArithmeticAtHundredThousandStates) {
  const u64 traps = 1000, inner = 99;  // num_ranks = traps * (inner+1) = 1e5
  std::vector<Count> counts(traps * (inner + 1) + 1, 0);
  u64 total = 0;
  for (u64 a = 0; a < traps; ++a) {
    counts[a * (inner + 1)] = 100 + a % 7;  // gate
    total += 100 + a % 7;
    for (u64 b = 1; b <= inner; ++b) {
      counts[a * (inner + 1) + b] = b;
      total += b;
    }
  }
  SingleLineProtocol p(total, traps, inner);
  ASSERT_EQ(p.num_ranks(), 100000u);
  ASSERT_EQ(p.x_state(), 100000u);
  Configuration c;
  c.counts = counts;
  p.reset(c);

  const u64 inner_sum = inner * (inner + 1) / 2;  // sum of 1..99 = 4950
  const std::vector<u64> beta = p.beta();
  const std::vector<u64> gamma = p.gamma();
  ASSERT_EQ(beta.size(), traps);
  ASSERT_EQ(gamma.size(), traps);
  for (const u64 a : {u64{0}, u64{1}, traps / 2, traps - 2, traps - 1}) {
    EXPECT_EQ(beta[a], inner_sum) << "trap " << a;
    EXPECT_EQ(gamma[a], 100 + a % 7) << "trap " << a;
  }
  EXPECT_EQ(p.released(), 0u);
}

TEST(SingleLine, XIsAbsorbing) {
  SingleLineProtocol p(10, 2, 2);
  Configuration c;
  c.counts.assign(p.num_states(), 0);
  c.counts[p.x_state()] = 10;
  p.reset(c);
  EXPECT_TRUE(p.is_silent()) << "agents in X never interact productively";
  EXPECT_FALSE(p.is_valid_ranking());
}

}  // namespace
}  // namespace pp
