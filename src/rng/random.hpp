// High-level random primitives on top of xoshiro256++.
//
// Everything the simulator and the experiment harness needs:
//   * unbiased bounded integers (Lemire's multiply-shift with rejection),
//   * uniform doubles in [0,1),
//   * geometric "how many null interactions before the next productive one"
//     sampling used by the accelerated engine,
//   * Fisher-Yates shuffling and distinct-pair sampling.
#pragma once

#include <cmath>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "rng/xoshiro256pp.hpp"

namespace pp {

class Rng {
 public:
  explicit Rng(u64 seed = 0x9d3ce3f1a7b42c55ULL) : gen_(seed) {}

  /// Raw 64 random bits.
  u64 bits() { return gen_(); }

  /// Uniform integer in [0, bound).  Requires bound >= 1.
  u64 below(u64 bound);

  /// Uniform integer in [lo, hi].  Requires lo <= hi.
  u64 range(u64 lo, u64 hi);

  /// Uniform double in [0, 1) with 53 bits of precision.
  double real01();

  /// Uniform double in (0, 1] — never returns 0; safe as a log() argument.
  double real01_open_left();

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p);

  /// Number of consecutive *failures* before the first success of a
  /// Bernoulli(p) sequence (a Geometric(p) variate supported on {0,1,...}).
  ///
  /// This is the accelerated engine's core primitive: with productive-pair
  /// probability p per interaction, it jumps over the exact number of null
  /// interactions the uniform scheduler would have produced.  Uses the
  /// standard inversion floor(log(U)/log1p(-p)); for p = 1 returns 0 and
  /// for p = 0 saturates at kGeometricInfinity (caller must treat the
  /// configuration as silent before asking).
  u64 geometric_failures(double p);

  /// geometric_failures(p) for p in (0, 1), given log_q = log1p(-p): the
  /// same draw and the same result, bit for bit, without the log1p.
  u64 geometric_failures_log(double log_q);

  /// Number of consecutive failures before the first success, conditioned
  /// on a success occurring within the first `bound` trials — a
  /// Geometric(p) variate truncated to [0, bound).  Requires p in (0, 1]
  /// and bound >= 1.  Sampled by inversion of the truncated CDF, so it
  /// costs one uniform draw (no rejection loop even for tiny p * bound —
  /// the dynamic-graph scheduler leans on that to place the first edge
  /// flip of a step already known to contain one).
  u64 geometric_failures_truncated(double p, u64 bound);

  /// geometric_failures_truncated(p, bound) given log_q = log1p(-p) and
  /// mass = -expm1(bound * log_q), the chance of a success within `bound`
  /// trials: the same draw and the same result, bit for bit, without the
  /// log1p and the expm1 (a caller that reuses a bound keeps its mass).
  u64 geometric_failures_truncated(double p, double log_q, u64 bound,
                                   double mass);

  /// Number of successes among `m` independent Bernoulli(p) trials.
  /// Expected O(1 + m * min(p, 1-p)) time by jumping between successes
  /// with geometric_failures — exact, and fast precisely in the sparse
  /// regime (m * p small) where the edge-Markovian dynamics live.
  u64 binomial(u64 m, double p);

  /// binomial(m, p) given log_q = log1p(-p): the same draws and the same
  /// result, bit for bit.  log_q goes unused when p > 0.5, where the
  /// count is taken as m minus a Binomial(m, 1 - p) failure count.
  u64 binomial(u64 m, double p, double log_q);

  /// Ordered pair of *distinct* indices in [0, n).  Requires n >= 2.
  /// Models the paper's random scheduler: (initiator, responder).
  std::pair<u64, u64> ordered_pair(u64 n);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (u64 i = v.size(); i > 1; --i) {
      const u64 j = below(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// `k` distinct values uniformly sampled from [0, n), in random order.
  /// Requires k <= n.  O(k) expected time via hash-free Floyd sampling for
  /// small k and partial Fisher-Yates otherwise.
  std::vector<u64> sample_distinct(u64 n, u64 k);

  /// sample_distinct(n, k) written into `out` (its previous contents are
  /// dropped, its capacity reused): the same draws and the same values in
  /// the same order.
  void sample_distinct(u64 n, u64 k, std::vector<u64>& out);

  /// Split off an independent generator (2^128 apart on the xoshiro orbit).
  Rng split();

  static constexpr u64 kGeometricInfinity = ~static_cast<u64>(0);

 private:
  Xoshiro256pp gen_;
};

/// Rng::geometric_failures with log1p(-p) memoised on the exact double p.
/// The null-skipping loops draw one gap per event, and the productive
/// weight behind p often survives an event unchanged (a rule that passes
/// a collision on, counts (2, 1) -> (1, 2), nets zero), so most draws
/// skip the log1p.  Draws and results are those of geometric_failures(p).
class GeometricFailures {
 public:
  u64 operator()(Rng& rng, double p) {
    if (p >= 1.0) return 0;
    if (p <= 0.0) return Rng::kGeometricInfinity;
    if (p != p_) {
      p_ = p;
      log_q_ = std::log1p(-p);
    }
    return rng.geometric_failures_log(log_q_);
  }

 private:
  double p_ = 0.0;  // never a key: p <= 0 returns above
  double log_q_ = 0.0;
};

}  // namespace pp
