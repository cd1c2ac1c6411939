#include "rng/random.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace pp {

u64 Rng::below(u64 bound) {
  PP_DCHECK(bound >= 1);
  // Lemire's multiply-shift method with rejection for exact uniformity.
  u64 x = gen_();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  u64 lo = static_cast<u64>(m);
  if (lo < bound) {
    const u64 threshold = (~bound + 1) % bound;  // == 2^64 mod bound
    while (lo < threshold) {
      x = gen_();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<u64>(m);
    }
  }
  return static_cast<u64>(m >> 64);
}

u64 Rng::range(u64 lo, u64 hi) {
  PP_DCHECK(lo <= hi);
  return lo + below(hi - lo + 1);
}

double Rng::real01() {
  return static_cast<double>(gen_() >> 11) * 0x1.0p-53;
}

double Rng::real01_open_left() {
  // (x >> 11) + 1 is uniform on {1, ..., 2^53}; scaled into (0, 1].
  return static_cast<double>((gen_() >> 11) + 1) * 0x1.0p-53;
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return real01() < p;
}

u64 Rng::geometric_failures(double p) {
  if (p >= 1.0) return 0;
  if (p <= 0.0) return kGeometricInfinity;
  // log1p keeps precision for tiny p, which is the common case near
  // stabilisation (p ~ 1/n^2).
  return geometric_failures_log(std::log1p(-p));
}

u64 Rng::geometric_failures_log(double log_q) {
  const double u = real01_open_left();
  // failures = floor(ln u / ln(1-p)); the quotient is >= 0, so the
  // truncating conversion is the floor.
  const double f = std::log(u) / log_q;
  if (f >= 1.8e19) return kGeometricInfinity;
  return static_cast<u64>(f);
}

u64 Rng::geometric_failures_truncated(double p, u64 bound) {
  // 1 - q^bound, computed as -expm1(bound * log q) to keep precision when
  // q^bound is close to 1 (tiny p * bound).
  const double log_q = std::log1p(-p);
  return geometric_failures_truncated(
      p, log_q, bound, -std::expm1(static_cast<double>(bound) * log_q));
}

u64 Rng::geometric_failures_truncated(double p, double log_q, u64 bound,
                                      double mass) {
  PP_ASSERT_MSG(p > 0.0 && bound >= 1,
                "truncated geometric needs p > 0 and a non-empty range");
  if (p >= 1.0 || bound == 1) return 0;
  // Inversion of P(X <= k | X < bound) = (1 - q^(k+1)) / (1 - q^bound):
  // draw u uniform, return floor(log(1 - u * (1 - q^bound)) / log q).
  const double u = real01();
  const double f = std::log1p(-u * mass) / log_q;
  const u64 k = f > 0.0 ? static_cast<u64>(f) : 0;
  return k < bound ? k : bound - 1;  // guard against floating-point spill
}

u64 Rng::binomial(u64 m, double p) {
  return binomial(m, p, std::log1p(-p));
}

u64 Rng::binomial(u64 m, double p, double log_q) {
  if (m == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return m;
  if (p > 0.5) return m - binomial(m, 1.0 - p);
  u64 successes = 0;
  u64 remaining = m;
  while (true) {
    const u64 gap = geometric_failures_log(log_q);
    if (gap == kGeometricInfinity || gap >= remaining) return successes;
    remaining -= gap + 1;
    ++successes;
  }
}

std::pair<u64, u64> Rng::ordered_pair(u64 n) {
  PP_DCHECK(n >= 2);
  const u64 a = below(n);
  u64 b = below(n - 1);
  if (b >= a) ++b;
  return {a, b};
}

std::vector<u64> Rng::sample_distinct(u64 n, u64 k) {
  std::vector<u64> out;
  sample_distinct(n, k, out);
  return out;
}

void Rng::sample_distinct(u64 n, u64 k, std::vector<u64>& out) {
  PP_ASSERT(k <= n);
  out.clear();
  if (k == 0) return;
  if (k * 4 <= n) {
    // Floyd's algorithm: expected O(k) with a sorted membership vector
    // (k is small here, so linear membership checks are fine).
    out.reserve(k);
    for (u64 j = n - k; j < n; ++j) {
      const u64 t = below(j + 1);
      if (std::find(out.begin(), out.end(), t) == out.end()) {
        out.push_back(t);
      } else {
        out.push_back(j);
      }
    }
  } else {
    out.resize(n);
    for (u64 i = 0; i < n; ++i) out[i] = i;
    // Partial Fisher-Yates: the first k positions become the sample.
    for (u64 i = 0; i < k; ++i) {
      const u64 j = i + below(n - i);
      std::swap(out[i], out[j]);
    }
    out.resize(k);
  }
  shuffle(out);
}

Rng Rng::split() {
  Rng child = *this;
  child.gen_.long_jump();
  // Also perturb the parent so repeated split() calls yield distinct
  // children even without intervening draws.
  (void)gen_();
  return child;
}

}  // namespace pp
