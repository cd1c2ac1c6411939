#include "schedulers/weighted.hpp"

#include <algorithm>
#include <optional>

#include "common/assert.hpp"

namespace pp {
namespace {

// The dense reference path's mutable per-run state: agent states per
// position plus the sampler over the dense universe of ordered pairs
// (id = i * n + j; the n diagonal slots keep weight 0 forever).
struct DenseState {
  const Protocol& p;
  u64 n;
  std::vector<StateId> state;
  PairSampler pairs;

  DenseState(std::vector<u64> kernel_table, const Protocol& proto,
             std::vector<StateId> placement)
      : p(proto), n(placement.size()), state(std::move(placement)) {
    std::vector<u8> flags(n * n, 0);
    for (u64 i = 0; i < n; ++i) {
      for (u64 j = 0; j < n; ++j) {
        if (i == j) continue;
        flags[i * n + j] =
            pair_is_productive(p, state[i], state[j]) ? 1 : 0;
      }
    }
    pairs.reset(std::move(kernel_table), std::move(flags));
  }

  void refresh(u64 id) {
    pairs.set_productive(id,
                         pair_is_productive(p, state[id / n], state[id % n]));
  }

  /// Re-tests every ordered pair involving position v.
  void refresh_position(u64 v) {
    for (u64 x = 0; x < n; ++x) {
      if (x == v) continue;
      refresh(v * n + x);
      refresh(x * n + v);
    }
  }

  // run_exact's sampler interface.
  double productive_probability() const {
    return pairs.productive_probability();
  }

  void fire(Protocol& proto, Rng& rng) {
    const u64 fired = pairs.sample_productive(rng);
    const u64 i = fired / n;
    const u64 j = fired % n;
    const auto [si, sj] = proto.apply_pair(state[i], state[j]);
    PP_DCHECK(si != state[i] || sj != state[j]);
    state[i] = si;
    state[j] = sj;
    refresh_position(i);
    refresh_position(j);
  }
};

}  // namespace

WeightedScheduler::WeightedScheduler(WeightKernel kernel, u64 power, u64 n,
                                     bool dense_reference)
    : kernel_(kernel), power_(power), n_(n), dense_reference_(dense_reference) {
  PP_ASSERT_MSG(power >= 1 && power <= 3,
                "weighted scheduler needs kernel power in {1, 2, 3}");
  if (kernel_ == WeightKernel::kTrapDecay) {
    // The state-distance kernel is agent-anonymous: there is no positional
    // DistanceKernel to pin (the sampler is built per run from the
    // protocol's state space) and no dense pair universe to fall back to.
    PP_ASSERT_MSG(!dense_reference_,
                  "the trap-decay kernel has no positional dense reference "
                  "(weights live on states, not positions); tests "
                  "cross-validate it by direct enumeration instead");
    SchedulerSpec spec;
    spec.kind = SchedulerKind::kWeighted;
    spec.kernel = kernel_;
    spec.kernel_power = power_;
    name_ = spec.to_string();
    return;
  }
  if (n_ != 0) {
    PP_ASSERT_MSG(n_ >= 2, "weighted scheduler needs n >= 2");
    // Pin the closed-form kernel for every trial of a sweep (O(n) memory;
    // also runs the 63-bit total check up front, where the caller is).
    pinned_kernel_ =
        std::make_unique<const DistanceKernel>(distance_kernel(n_));
    // Only the dense reference materialises the Θ(n²) table (and rejects
    // an oversized population here, where the caller is).
    if (dense_reference_) {
      PP_ASSERT_MSG(n_ <= kDenseMaxPopulation,
                    "the dense reference path caps n at 4096 (dense pair "
                    "universe); use the hierarchical path for larger "
                    "populations");
      dense_weights_ = kernel_table(n_);
    }
  }
  SchedulerSpec spec;
  spec.kind = SchedulerKind::kWeighted;
  spec.kernel = kernel;
  spec.kernel_power = power;
  spec.dense_reference = dense_reference_;
  name_ = spec.to_string();
}

std::vector<u64> WeightedScheduler::kernel_table(u64 n) const {
  PP_ASSERT_MSG(kernel_ != WeightKernel::kTrapDecay,
                "trap-decay weights are state-distance, not positional");
  std::vector<u64> weights(n * n, 0);
  for (u64 i = 0; i < n; ++i) {
    for (u64 j = 0; j < n; ++j) {
      if (i != j) weights[i * n + j] = pair_weight(n, i, j);
    }
  }
  return weights;
}

u64 WeightedScheduler::pair_weight(u64 n, u64 i, u64 j) const {
  PP_DCHECK(i != j && i < n && j < n);
  u64 base = 1;
  switch (kernel_) {
    case WeightKernel::kUniform:
      base = 1;
      break;
    case WeightKernel::kRingDecay: {
      const u64 gap = i > j ? i - j : j - i;
      base = n / std::min(gap, n - gap);
      break;
    }
    case WeightKernel::kLineDecay:
      base = n / (i > j ? i - j : j - i);
      break;
    case WeightKernel::kTrapDecay:
      PP_ASSERT_MSG(false,
                    "trap-decay weights are state-distance, not positional");
      break;
  }
  u64 w = 1;
  for (u64 k = 0; k < power_; ++k) w *= base;
  return w;
}

DistanceKernel WeightedScheduler::distance_kernel(u64 n) const {
  PP_ASSERT_MSG(kernel_ != WeightKernel::kTrapDecay,
                "trap-decay weights are state-distance, not positional");
  const auto geometry = kernel_ == WeightKernel::kRingDecay
                            ? DistanceKernel::Geometry::kRing
                            : DistanceKernel::Geometry::kLine;
  const u64 distances =
      geometry == DistanceKernel::Geometry::kRing ? n / 2 : n - 1;
  std::vector<u64> decay(distances);
  for (u64 d = 1; d <= distances; ++d) {
    u64 base = kernel_ == WeightKernel::kUniform ? 1 : n / d;
    u64 w = 1;
    for (u64 k = 0; k < power_; ++k) w *= base;
    decay[d - 1] = w;
  }
  return DistanceKernel(geometry, n, std::move(decay));
}

RunResult WeightedScheduler::run(Protocol& p, Rng& rng,
                                 const RunOptions& opt) const {
  const u64 n = p.num_agents();
  PP_ASSERT_MSG(n >= 2, "weighted scheduler needs n >= 2");
  PP_ASSERT_MSG(n_ == 0 || n_ == n,
                "weighted scheduler built for a different population size");
  // Every kernel weight is >= 1, so zero productive weight is exactly
  // global silence — weighted runs cannot get locally stuck the way a
  // zero/one graph kernel can.
  if (kernel_ == WeightKernel::kTrapDecay) {
    // Agents are anonymous under a state-distance kernel, so there is no
    // placement to shuffle: the sampler runs straight off the protocol's
    // count vector.
    TrapKernelSampler ts(p, power_);
    return run_exact(p, rng, opt, ts);
  }
  std::vector<StateId> placement = p.configuration().to_agent_states();
  rng.shuffle(placement);
  if (dense_reference_) {
    PP_ASSERT_MSG(n <= kDenseMaxPopulation,
                  "the dense reference path caps n at 4096 (dense pair "
                  "universe); use the hierarchical path for larger "
                  "populations — see schedulers/weighted.hpp");
    // The placement-independent kernel table is shared by every trial
    // when the population size was pinned at construction (one copy per
    // run, as the sampler consumes it); the unpinned path builds its own.
    DenseState ds(!dense_weights_.empty() ? dense_weights_ : kernel_table(n),
                  p, std::move(placement));
    return run_exact(p, rng, opt, ds);
  }
  // Pinned constructions share one closed-form kernel across every trial
  // (it is immutable, so concurrent runner threads read it freely); the
  // unpinned path builds its own O(n) copy.
  std::optional<DistanceKernel> local;
  const DistanceKernel* kernel = pinned_kernel_.get();
  if (kernel == nullptr) {
    local.emplace(distance_kernel(n));
    kernel = &*local;
  }
  GroupedKernelSampler gs(*kernel, p, std::move(placement));
  return run_exact(p, rng, opt, gs);
}

}  // namespace pp
