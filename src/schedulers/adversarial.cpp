#include "schedulers/adversarial.hpp"

#include <algorithm>
#include <vector>

#include "common/assert.hpp"

namespace pp {
namespace {

struct Candidate {
  StateId s1, s2;   // ordered pair of states (initiator, responder)
  StateId o1, o2;   // δ outputs
  u64 weight;       // number of ordered agent pairs realising it
};

// Occupied-rank delta of firing a candidate on `counts`.
i64 rank_coverage_delta(const std::vector<Count>& counts, u64 num_ranks,
                        const Candidate& c) {
  // Occupancy can only flip at the (<= 4 distinct) touched states.
  auto occupied_after = [&](StateId s) {
    i64 v = static_cast<i64>(counts[s]);
    if (s == c.s1) --v;
    if (s == c.s2) --v;
    if (s == c.o1) ++v;
    if (s == c.o2) ++v;
    return v > 0;
  };
  i64 delta = 0;
  StateId touched[4] = {c.s1, c.s2, c.o1, c.o2};
  std::sort(touched, touched + 4);
  for (int i = 0; i < 4; ++i) {
    if (i > 0 && touched[i] == touched[i - 1]) continue;
    const StateId s = touched[i];
    if (s >= num_ranks) continue;
    const bool before = counts[s] > 0;
    const bool after = occupied_after(s);
    if (before != after) delta += after ? 1 : -1;
  }
  return delta;
}

// The greedy adversary as a run_exact sampler.  It never fires a null step:
// every step is an event (probability 1 until silence, so no gap is drawn)
// and every fire a productive one.
struct GreedyFirings {
  const Protocol& proto;
  AdversaryPolicy policy;
  std::vector<Candidate> candidates{};
  StateId stubborn_s1 = kNoState, stubborn_s2 = kNoState;

  double productive_probability() const {
    return proto.is_silent() ? 0.0 : 1.0;
  }

  void fire(Protocol& p, Rng& rng) {
    const std::vector<Count>& counts = p.counts();
    const u64 states = p.num_states();
    candidates.clear();
    u64 total_weight = 0;
    for (StateId s1 = 0; s1 < states; ++s1) {
      if (counts[s1] == 0) continue;
      for (StateId s2 = 0; s2 < states; ++s2) {
        const u64 c2 = counts[s2] - (s1 == s2 ? 1 : 0);
        if (counts[s2] == 0 || c2 == 0) continue;
        const auto [o1, o2] = p.transition(s1, s2);
        if (o1 == s1 && o2 == s2) continue;
        candidates.push_back({s1, s2, o1, o2, counts[s1] * c2});
        total_weight += counts[s1] * c2;
      }
    }
    PP_ASSERT(!candidates.empty());  // not silent

    const Candidate* pick = nullptr;
    switch (policy) {
      case AdversaryPolicy::kRandomProductive: {
        u64 t = rng.below(total_weight);
        for (const auto& c : candidates) {
          if (t < c.weight) {
            pick = &c;
            break;
          }
          t -= c.weight;
        }
        break;
      }
      case AdversaryPolicy::kMaxLoad: {
        u64 best = 0;
        for (const auto& c : candidates) {
          const u64 load = std::max(counts[c.s1], counts[c.s2]);
          if (load > best) {
            best = load;
            pick = &c;
          }
        }
        break;
      }
      case AdversaryPolicy::kMinRankCoverage: {
        i64 best = 5;  // any candidate changes coverage by at most +-4
        for (const auto& c : candidates) {
          const i64 d = rank_coverage_delta(counts, p.num_ranks(), c);
          if (d < best) {
            best = d;
            pick = &c;
          }
        }
        break;
      }
      case AdversaryPolicy::kStubborn: {
        for (const auto& c : candidates) {
          if (c.s1 == stubborn_s1 && c.s2 == stubborn_s2) {
            pick = &c;
            break;
          }
        }
        if (pick == nullptr) pick = &candidates.front();
        stubborn_s1 = pick->s1;
        stubborn_s2 = pick->s2;
        break;
      }
    }
    PP_ASSERT(pick != nullptr);
    // apply_pair keeps the protocol's bookkeeping live, so the observer
    // sees a consistent protocol after every firing.
    p.apply_pair(pick->s1, pick->s2);
  }
};

}  // namespace

AdversarialScheduler::AdversarialScheduler(AdversaryPolicy policy)
    : policy_(policy),
      name_(std::string("adversarial[") + adversary_policy_name(policy) +
            "]") {}

RunResult AdversarialScheduler::run(Protocol& p, Rng& rng,
                                    const RunOptions& opt) const {
  GreedyFirings firings{p, policy_};
  return run_exact(p, rng, opt, firings);
}

}  // namespace pp
