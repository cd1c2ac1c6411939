#include "schedulers/pair_sampler.hpp"

#include <algorithm>
#include <limits>

#include "common/assert.hpp"
#include "obs/counters.hpp"

namespace pp {

void PairSampler::reset(u64 universe) {
  weight_.reset(universe);
  productive_.reset(universe);
  flag_.assign(universe, 0);
}

void PairSampler::reset(std::vector<u64> weights, std::vector<u8> flags) {
  PP_ASSERT_MSG(weights.size() == flags.size(),
                "pair sampler needs one productivity flag per weight");
  std::vector<u64> masked(weights.size());
  for (u64 i = 0; i < weights.size(); ++i) {
    masked[i] = flags[i] ? weights[i] : 0;
  }
  weight_.assign(std::move(weights));
  productive_.assign(std::move(masked));
  flag_ = std::move(flags);
}

void PairSampler::set_weight(u64 id, u64 w) {
  weight_.set(id, w);
  if (flag_[id]) productive_.set(id, w);
}

void PairSampler::set_productive(u64 id, bool productive) {
  const u8 now = productive ? 1 : 0;
  if (flag_[id] == now) return;
  flag_[id] = now;
  productive_.set(id, now ? weight_.get(id) : 0);
}

DirectedEdgeSampler::DirectedEdgeSampler(const InteractionGraph& g,
                                         const Protocol& p,
                                         std::vector<StateId> states)
    : g_(&g), p_(&p), state_(std::move(states)) {
  PP_ASSERT_MSG(state_.size() == g.num_vertices(),
                "interaction graph size != population size");
  const u64 universe = 2 * g.num_edges();
  std::vector<u8> flags(universe);
  for (u64 d = 0; d < universe; ++d) {
    flags[d] = is_productive(d) ? 1 : 0;
  }
  pairs_.reset(std::vector<u64>(universe, 1), std::move(flags));
}

void DirectedEdgeSampler::fire(Protocol& p, u64 directed) {
  // The flags are computed against the Protocol bound at construction;
  // applying δ through a different instance would silently desync them.
  PP_DCHECK(&p == p_);
  const auto [u, v] = endpoints(directed);
  const auto [su, sv] = p.apply_pair(state_[u], state_[v]);
  PP_DCHECK(su != state_[u] || sv != state_[v]);
  state_[u] = su;
  state_[v] = sv;
  for (const u32 e : g_->incident_edges(u)) {
    refresh(2 * static_cast<u64>(e));
    refresh(2 * static_cast<u64>(e) + 1);
  }
  for (const u32 e : g_->incident_edges(v)) {
    refresh(2 * static_cast<u64>(e));
    refresh(2 * static_cast<u64>(e) + 1);
  }
}

// ---- DistanceKernel -------------------------------------------------------

namespace {

// Running u64 accumulation with a 128-bit shadow, capped at the Fenwick
// tree's own bound (i64 max, not u64 max: point updates travel as signed
// deltas) — the productive tree must be able to hold any partial sum of
// kernel weights.  Checking here names the kernel in the failure.
class CheckedSum {
 public:
  void add(u64 v) {
    sum_ += v;
    PP_ASSERT_MSG(
        sum_ <= Fenwick::kMaxTotal,
        "kernel weight total overflows the sampler's 63-bit range — "
        "reduce n or the kernel power");
  }
  u64 value() const { return static_cast<u64>(sum_); }

 private:
  unsigned __int128 sum_ = 0;
};

}  // namespace

DistanceKernel::DistanceKernel(Geometry g, u64 n, std::vector<u64> decay)
    : geom_(g), n_(n) {
  PP_ASSERT_MSG(n >= 2, "distance kernel needs n >= 2");
  const u64 expected = g == Geometry::kRing ? n / 2 : n - 1;
  PP_ASSERT_MSG(decay.size() == expected,
                "decay profile length must match the geometry "
                "(floor(n/2) on the ring, n-1 on the line)");
  prefix_.resize(decay.size() + 1);
  prefix_[0] = 0;
  CheckedSum prefix_sum;
  for (u64 d = 0; d < decay.size(); ++d) {
    PP_ASSERT_MSG(decay[d] > 0,
                  "kernel weights must be positive at every distance "
                  "(a zero would sever pairs)");
    prefix_sum.add(decay[d]);
    prefix_[d + 1] = prefix_sum.value();
  }
  CheckedSum total;
  if (geom_ == Geometry::kRing) {
    // Every row sees the clockwise arm of floor(n/2) distances plus the
    // counter-clockwise arm of the remaining n-1-floor(n/2); for even n
    // the antipodal partner appears only in the first arm.
    const u64 a = n_ / 2;
    const u64 b = n_ - 1 - a;
    CheckedSum row;
    row.add(prefix_[a]);
    row.add(prefix_[b]);
    ring_row_ = row.value();
    for (u64 i = 0; i < n_; ++i) total.add(ring_row_);
  } else {
    row_prefix_.resize(n_ + 1);
    row_prefix_[0] = 0;
    for (u64 i = 0; i < n_; ++i) {
      total.add(prefix_[i]);
      total.add(prefix_[n_ - 1 - i]);
      row_prefix_[i + 1] = total.value();
    }
  }
  total_ = total.value();
}

u64 DistanceKernel::weight(u64 i, u64 j) const {
  PP_DCHECK(i != j && i < n_ && j < n_);
  const u64 gap = i > j ? i - j : j - i;
  const u64 d = geom_ == Geometry::kRing ? std::min(gap, n_ - gap) : gap;
  return prefix_[d] - prefix_[d - 1];
}

u64 DistanceKernel::row_total(u64 i) const {
  PP_DCHECK(i < n_);
  if (geom_ == Geometry::kRing) return ring_row_;
  return prefix_[i] + prefix_[n_ - 1 - i];
}

u64 DistanceKernel::find_distance(u64 target) const {
  // Smallest d >= 1 with prefix_[d] > target; the profile is strictly
  // increasing so upper_bound lands exactly.
  const auto it = std::upper_bound(prefix_.begin(), prefix_.end(), target);
  PP_DCHECK(it != prefix_.end());
  return static_cast<u64>(it - prefix_.begin());
}

u64 DistanceKernel::partner_at(u64 i, u64 target) const {
  PP_DCHECK(i < n_ && target < row_total(i));
  if (geom_ == Geometry::kRing) {
    const u64 a = n_ / 2;
    if (target < prefix_[a]) return (i + find_distance(target)) % n_;
    return (i + n_ - find_distance(target - prefix_[a])) % n_;
  }
  if (target < prefix_[i]) return i - find_distance(target);
  return i + find_distance(target - prefix_[i]);
}

u64 DistanceKernel::sample_partner(Rng& rng, u64 i) const {
  return partner_at(i, rng.below(row_total(i)));
}

std::pair<u64, u64> DistanceKernel::sample_pair(Rng& rng) const {
  u64 i;
  if (geom_ == Geometry::kRing) {
    i = rng.below(n_);  // all ring rows carry the same marginal
  } else {
    const u64 target = rng.below(total_);
    const auto it = std::upper_bound(row_prefix_.begin(), row_prefix_.end(),
                                     target);
    i = static_cast<u64>(it - row_prefix_.begin()) - 1;
  }
  return {i, sample_partner(rng, i)};
}

// ---- GroupedKernelSampler -------------------------------------------------

bool GroupedKernelSampler::supports(const Protocol& p) {
  if (p.num_extra_states() == 0) return true;
  const Protocol::ExtraPairClasses c = p.extra_pair_classes();
  // The row-total collapse needs each productive pair involving an extra
  // agent to be counted by exactly one designated extra endpoint: both
  // cross orientations productive would double-count (extra, rank) pairs,
  // and a lone cross orientation without (extra, extra) pairs (or vice
  // versa) is not a sum of full kernel rows.
  if (c.extra_rank && c.rank_extra) return false;
  return c.extra_extra == (c.extra_rank || c.rank_extra);
}

void GroupedKernelSampler::verify_classes() const {
  // Bounded capability cross-check over a capped probe set of states: a
  // wrong ExtraPairClasses declaration (or a backbone violation) fails
  // fast here instead of skewing the sampled pair distribution.
  const Protocol& p = *p_;
  const u64 num_extra = p.num_extra_states();
  const u64 rank_probe = std::min<u64>(num_ranks_, 64);
  const u64 extra_probe = std::min<u64>(num_extra, 16);
  for (u64 s = 0; s < rank_probe; ++s) {
    const StateId rs = static_cast<StateId>(s);
    PP_ASSERT_MSG(pair_is_productive(p, rs, rs),
                  "grouped sampler backbone violated: a same-state rank "
                  "pair is null");
    const StateId rt = static_cast<StateId>((s + 1) % num_ranks_);
    PP_ASSERT_MSG(rs == rt || !pair_is_productive(p, rs, rt),
                  "grouped sampler backbone violated: a distinct-rank "
                  "pair is productive");
  }
  for (u64 a = 0; a < extra_probe; ++a) {
    const StateId ea = static_cast<StateId>(num_ranks_ + a);
    for (u64 b = 0; b < extra_probe; ++b) {
      const StateId eb = static_cast<StateId>(num_ranks_ + b);
      PP_ASSERT_MSG(pair_is_productive(p, ea, eb) == classes_.extra_extra,
                    "declared ExtraPairClasses.extra_extra contradicts "
                    "transition()");
    }
    for (u64 s = 0; s < rank_probe; ++s) {
      const StateId rs = static_cast<StateId>(s);
      PP_ASSERT_MSG(pair_is_productive(p, ea, rs) == classes_.extra_rank,
                    "declared ExtraPairClasses.extra_rank contradicts "
                    "transition()");
      PP_ASSERT_MSG(pair_is_productive(p, rs, ea) == classes_.rank_extra,
                    "declared ExtraPairClasses.rank_extra contradicts "
                    "transition()");
    }
  }
}

GroupedKernelSampler::GroupedKernelSampler(const DistanceKernel& kernel,
                                           const Protocol& p,
                                           std::vector<StateId> placement)
    : kernel_(&kernel),
      p_(&p),
      classes_(p.extra_pair_classes()),
      num_ranks_(p.num_ranks()),
      state_(std::move(placement)) {
  const u64 n = state_.size();
  PP_ASSERT_MSG(n == kernel.n(), "kernel size != population size");
  PP_ASSERT_MSG(supports(p),
                "the grouped kernel sampler needs an extra-state-free "
                "protocol or a declared ExtraPairClasses pattern whose "
                "extra mass is a sum of full kernel rows; run other "
                "patterns on the weighted dense reference path");
  has_extra_window_ = p.num_extra_states() > 0 &&
                      (classes_.extra_extra || classes_.extra_rank ||
                       classes_.rank_extra);
  verify_classes();
  group_.resize(p.num_states());
  slot_.resize(n);
  for (u64 a = 0; a < n; ++a) {
    std::vector<u32>& g = group_[state_[a]];
    slot_[a] = static_cast<u32>(g.size());
    g.push_back(static_cast<u32>(a));
  }
  // Bulk-build the per-rank-state within-group masses: every same-state
  // rank rule changes the configuration, so a rank state's productive
  // mass IS its ordered within-group kernel mass.  Extra-state pairs are
  // carried by the per-position row-total window instead (and inert
  // extras carry no mass at all).
  std::vector<u64> mass(p.num_states(), 0);
  after_.assign(n, 0);
  for (u64 s = 0; s < num_ranks_; ++s) {
    const std::vector<u32>& g = group_[s];
    u64 m = 0;
    for (u64 x = 0; x < g.size(); ++x) {
      u64 row = 0;
      for (u64 y = x + 1; y < g.size(); ++y) {
        row += 2 * kernel_->weight(g[x], g[y]);
      }
      after_[g[x]] = row;
      m += row;
    }
    mass[s] = m;
  }
  productive_.assign(std::move(mass));
  if (has_extra_window_) {
    std::vector<u64> rows(n, 0);
    for (u64 a = 0; a < n; ++a) {
      if (state_[a] >= num_ranks_) rows[a] = kernel_->row_total(a);
    }
    extra_mass_.assign(std::move(rows));
  }
}

std::pair<u64, u64> GroupedKernelSampler::sample_productive(Rng& rng) const {
  const u64 rank_mass = productive_.total();
  PP_DCHECK(rank_mass + extra_total() > 0);
  // One combined draw over both halves; when no extra window is active
  // this consumes exactly the rank-only draw, so extra-state-free
  // trajectories (and their pinned literals) are unchanged.
  const u64 pick = rng.below(rank_mass + extra_total());
  if (pick >= rank_mass) {
    // Extra-class window: locate the extra-state agent owning the slot,
    // then invert its kernel row in place — any partner forms a
    // productive pair, oriented by the declared classes (rank_extra:
    // the partner initiates into the extra responder; otherwise the
    // extra agent initiates).  No second draw is needed: the slot
    // offset within the row is already row-CDF-uniform.
    const u64 u = pick - rank_mass;
    const u64 b = extra_mass_.find(u);
    const u64 partner = kernel_->partner_at(b, u - extra_mass_.prefix(b));
    return classes_.rank_extra ? std::make_pair(partner, b)
                               : std::make_pair(b, partner);
  }
  const StateId s = static_cast<StateId>(productive_.find(pick));
  const std::vector<u32>& g = group_[s];
  PP_OBS_ADD(kGroupTouches, g.size());
  PP_OBS_SKETCH(kGroupSize, g.size());
  u64 target = rng.below(productive_.get(s));
  // Resolve the pair inside the group: the stored mass is exactly
  // Σ_{x<y} 2 w(x, y), laid out x-major with each unordered pair covering
  // its two orientations contiguously (forward first).  after_ holds each
  // x's share of that order, so x is found without touching the kernel
  // and only x's own row is scanned for y.
  u64 x = 0;
  while (x < g.size() && target >= after_[g[x]]) target -= after_[g[x++]];
  PP_ASSERT_MSG(x < g.size(),
                "grouped sampler mass out of sync with its group");
  for (u64 y = x + 1; y < g.size(); ++y) {
    const u64 w = kernel_->weight(g[x], g[y]);
    if (target < 2 * w) {
      return target < w ? std::make_pair<u64, u64>(g[x], g[y])
                        : std::make_pair<u64, u64>(g[y], g[x]);
    }
    target -= 2 * w;
  }
  PP_ASSERT_MSG(false, "grouped sampler row out of sync with its after_");
  return {0, 0};
}

void GroupedKernelSampler::move_agent(u64 a, StateId from, StateId to) {
  std::vector<u32>& f = group_[from];
  const u32 idx = slot_[a];
  const u32 moved = f.back();
  if (from < num_ranks_) {
    // Swap-remove a: the back member `moved` takes slot idx.  Members
    // before idx lose their pair with a; members between idx and the back
    // lose their pair with `moved`, which now precedes them, and those
    // pairs become moved's after_.  a's mass is its own after_ plus its
    // pairs with the members before it.
    PP_OBS_ADD(kGroupTouches, f.size() - 1);
    u64 lost = after_[a];
    for (u64 i = 0; i < idx; ++i) {
      const u64 w2 = 2 * kernel_->weight(f[i], a);
      after_[f[i]] -= w2;
      lost += w2;
    }
    u64 moved_after = 0;
    for (u64 i = idx + 1; i + 1 < f.size(); ++i) {
      const u64 w2 = 2 * kernel_->weight(f[i], moved);
      after_[f[i]] -= w2;
      moved_after += w2;
    }
    after_[moved] = moved_after;
    productive_.set(from, productive_.get(from) - lost);
  }
  f[idx] = moved;
  slot_[moved] = idx;
  f.pop_back();
  std::vector<u32>& t = group_[to];
  if (to < num_ranks_) {
    // Append a: every member gains its pair with a, and a (last) has none
    // after it.
    PP_OBS_ADD(kGroupTouches, t.size());
    u64 gained = 0;
    for (const u32 x : t) {
      const u64 w2 = 2 * kernel_->weight(x, a);
      after_[x] += w2;
      gained += w2;
    }
    after_[a] = 0;
    productive_.set(to, productive_.get(to) + gained);
  }
  slot_[a] = static_cast<u32>(t.size());
  t.push_back(static_cast<u32>(a));
  state_[a] = to;
  const bool was_extra = from >= num_ranks_;
  const bool is_extra = to >= num_ranks_;
  if (has_extra_window_ && was_extra != is_extra) {
    extra_mass_.set(a, is_extra ? kernel_->row_total(a) : 0);
  }
}

void GroupedKernelSampler::fire(Protocol& p, u64 i, u64 j) {
  PP_DCHECK(&p == p_);
  const StateId si = state_[i];
  const StateId sj = state_[j];
  const auto [ni, nj] = p.apply_pair(si, sj);
  PP_DCHECK(ni != si || nj != sj);
  if (ni != si) move_agent(i, si, ni);
  if (nj != sj) move_agent(j, sj, nj);
}

// ---- TrapKernelSampler ----------------------------------------------------

TrapKernelSampler::TrapKernelSampler(const Protocol& p, u64 power)
    : p_(&p),
      classes_(p.extra_pair_classes()),
      num_ranks_(p.num_ranks()),
      n_(p.num_agents()),
      layout_(p.num_states()) {
  PP_ASSERT_MSG(supports(p),
                "the trap kernel sampler rides the same ExtraPairClasses "
                "patterns as the grouped sampler");
  PP_ASSERT_MSG(power >= 1 && power <= 3,
                "trap-decay kernel power must be in 1..3");
  const u64 traps = layout_.num_traps();
  kval_.resize(traps / 2 + 1);
  for (u64 d = 0; d < kval_.size(); ++d) {
    const u64 base = traps / std::max<u64>(d, 1);
    u64 v = 1;
    for (u64 i = 0; i < power; ++i) v *= base;
    kval_[d] = v;
  }
  k1_ = kval_[0];
  // Every aggregate below is bounded by n² κ_max = n² κ(0); check once at
  // construction that it fits the sampler's 63-bit range — the principled
  // replacement for a blanket population cap.
  PP_ASSERT_MSG(
      static_cast<unsigned __int128>(n_) * n_ * k1_ <=
          static_cast<unsigned __int128>(std::numeric_limits<i64>::max()),
      "trap kernel weight total overflows the sampler's 63-bit range — "
      "reduce n or the kernel power");
  counts_ = p.counts();
  trap_count_.assign(traps, 0);
  trap_extra_.assign(traps, 0);
  for (u64 s = 0; s < counts_.size(); ++s) {
    trap_count_[layout_.trap_of(static_cast<StateId>(s))] += counts_[s];
    if (s >= num_ranks_) {
      trap_extra_[layout_.trap_of(static_cast<StateId>(s))] += counts_[s];
      x_extra_ += counts_[s];
    }
  }
  row_.assign(traps, 0);
  extra_row_.assign(traps, 0);
  for (u64 a = 0; a < traps; ++a) {
    u64 r = 0;
    u64 re = 0;
    for (u64 b = 0; b < traps; ++b) {
      r += trap_count_[b] * kval(a, b);
      re += trap_extra_[b] * kval(a, b);
    }
    row_[a] = r;
    extra_row_[a] = re;
  }
  for (u64 a = 0; a < traps; ++a) {
    q_ += trap_count_[a] * row_[a];
    ser_ += trap_extra_[a] * row_[a];
  }
  std::vector<u64> diag(num_ranks_, 0);
  for (u64 s = 0; s < num_ranks_; ++s) {
    const u64 c = counts_[s];
    diag[s] = c < 2 ? 0 : c * (c - 1);
  }
  rank_diag_.assign(std::move(diag));
}

u64 TrapKernelSampler::weight_total() const {
  // Q counts every ordered (agent, agent) pair including the n self
  // pairs, each of which weighs exactly κ at distance 0.
  return q_ - n_ * k1_;
}

u64 TrapKernelSampler::productive_total() const {
  u64 t = k1_ * rank_diag_.total();
  if (classes_.extra_extra || classes_.extra_rank || classes_.rank_extra) {
    // Designated-endpoint collapse (same as the grouped sampler): each
    // productive extra pair is counted once via its extra endpoint's row,
    // minus the self pair every extra agent's row includes.
    t += ser_ - k1_ * x_extra_;
  }
  return t;
}

u64 TrapKernelSampler::kappa(StateId s, StateId t) const {
  return kval(layout_.trap_of(s), layout_.trap_of(t));
}

void TrapKernelSampler::TrapDeltas::add(u64 trap_id, i64 da, i64 de) {
  u64 i = 0;
  while (i < size && trap[i] != trap_id) ++i;
  if (i == size) {
    PP_DCHECK(size < 4);
    trap[i] = trap_id;
    agents[i] = 0;
    extras[i] = 0;
    ++size;
  }
  agents[i] += da;
  extras[i] += de;
}

void TrapKernelSampler::count_change(StateId s, i64 delta, TrapDeltas& d) {
  PP_DCHECK(delta == 1 || delta == -1);
  counts_[s] += static_cast<Count>(delta);  // ±1, modulo 2^32
  if (s < num_ranks_) {
    const u64 c = counts_[s];
    rank_diag_.set(s, c < 2 ? 0 : c * (c - 1));
    d.add(layout_.trap_of(s), delta, 0);
    return;
  }
  x_extra_ += static_cast<u64>(delta);
  d.add(layout_.trap_of(s), delta, delta);
}

void TrapKernelSampler::apply_trap_deltas(const TrapDeltas& d) {
  // Split each trap's net change into its positive and negative parts, so
  // every aggregate below adds its gains before it subtracts its losses:
  // the new value is nonnegative, so no u64 ever passes through a wrapped
  // intermediate.  Traps whose changes cancelled (a same-trap move) drop
  // out here.
  const auto up_part = [](i64 v) { return v > 0 ? static_cast<u64>(v) : 0; };
  u64 trap[4], n_up[4], n_down[4], e_up[4], e_down[4], r_old[4];
  u64 k = 0;
  bool extras_moved = false;
  for (u64 i = 0; i < d.size; ++i) {
    if (d.agents[i] == 0 && d.extras[i] == 0) continue;
    trap[k] = d.trap[i];
    n_up[k] = up_part(d.agents[i]);
    n_down[k] = up_part(-d.agents[i]);
    e_up[k] = up_part(d.extras[i]);
    e_down[k] = up_part(-d.extras[i]);
    r_old[k] = row_[trap[k]];
    extras_moved = extras_moved || d.extras[i] != 0;
    ++k;
  }
  if (k == 0) return;
  PP_OBS_INC(kTrapRowPasses);
  // One fused pass: R[B] += Σ_A δn_A κ(B, A), and likewise RE[B] with δE.
  for (u64 b = 0; b < layout_.num_traps(); ++b) {
    u64 up = 0, down = 0, eup = 0, edown = 0;
    for (u64 i = 0; i < k; ++i) {
      const u64 kv = kval(b, trap[i]);
      up += n_up[i] * kv;
      down += n_down[i] * kv;
      eup += e_up[i] * kv;
      edown += e_down[i] * kv;
    }
    row_[b] = row_[b] + up - down;
    if (extras_moved) extra_row_[b] = extra_row_[b] + eup - edown;
  }
  // With n' = n + δn and κ symmetric:
  //   ΔQ   = Σ_A δn_A (R_old[A] + R_new[A]),
  //   ΔSER = Σ_A δE_A R_old[A] + Σ_A δn_A RE_new[A].
  u64 q_up = 0, q_down = 0, s_up = 0, s_down = 0;
  for (u64 i = 0; i < k; ++i) {
    const u64 a = trap[i];
    trap_count_[a] = trap_count_[a] + n_up[i] - n_down[i];
    trap_extra_[a] = trap_extra_[a] + e_up[i] - e_down[i];
    const u64 r_sum = r_old[i] + row_[a];
    q_up += n_up[i] * r_sum;
    q_down += n_down[i] * r_sum;
    s_up += e_up[i] * r_old[i] + n_up[i] * extra_row_[a];
    s_down += e_down[i] * r_old[i] + n_down[i] * extra_row_[a];
  }
  q_ = q_ + q_up - q_down;
  ser_ = ser_ + s_up - s_down;
}

void TrapKernelSampler::fire(Protocol& p, Rng& rng) {
  PP_DCHECK(&p == p_);
  const u64 rank_mass = k1_ * rank_diag_.total();
  const u64 total = productive_total();
  PP_DCHECK(total > 0);
  const u64 pick = rng.below(total);
  StateId si;
  StateId sr;
  if (pick < rank_mass) {
    // Every same-state rank pair weighs exactly κ(0), so the diagonal
    // Fenwick of ordered pair counts c(c-1) resolves the draw directly.
    si = sr = static_cast<StateId>(rank_diag_.find(pick / k1_));
  } else {
    // Extra window.  First the extra *state* holding the designated
    // endpoint: each of its c_s agents carries mass R[trap(s)] - κ(0)
    // (its full row minus the self pair).
    u64 u = pick - rank_mass;
    StateId b = kNoState;
    for (u64 s = num_ranks_; s < counts_.size(); ++s) {
      const u64 mass =
          counts_[s] * (row_[layout_.trap_of(static_cast<StateId>(s))] - k1_);
      if (u < mass) {
        b = static_cast<StateId>(s);
        break;
      }
      u -= mass;
    }
    PP_ASSERT_MSG(b != kNoState,
                  "trap sampler extra mass out of sync with its counts");
    const u64 trap_b = layout_.trap_of(b);
    // Agents in state b are interchangeable; the row offset alone picks
    // the partner.  Scan traps (κ is constant within a trap), then the
    // trap's contiguous states, excluding the endpoint agent itself.
    u64 rem = u % (row_[trap_b] - k1_);
    StateId partner = kNoState;
    for (u64 a = 0; a < layout_.num_traps(); ++a) {
      const u64 kv = kval(trap_b, a);
      const u64 agents = trap_count_[a] - (a == trap_b ? u64{1} : u64{0});
      const u64 mass = kv * agents;
      if (rem >= mass) {
        rem -= mass;
        continue;
      }
      u64 idx = rem / kv;
      for (u64 v = layout_.trap_offset(a);; ++v) {
        const u64 c =
            counts_[v] - (static_cast<StateId>(v) == b ? u64{1} : u64{0});
        if (idx < c) {
          partner = static_cast<StateId>(v);
          break;
        }
        idx -= c;
      }
      break;
    }
    PP_ASSERT_MSG(partner != kNoState,
                  "trap sampler row mass out of sync with its traps");
    if (classes_.rank_extra) {
      si = partner;
      sr = b;
    } else {
      si = b;
      sr = partner;
    }
  }
  const auto [a1, a2] = p.apply_pair(si, sr);
  PP_DCHECK(a1 != si || a2 != sr);
  TrapDeltas d;
  if (a1 != si) {
    count_change(si, -1, d);
    count_change(a1, +1, d);
  }
  if (a2 != sr) {
    count_change(sr, -1, d);
    count_change(a2, +1, d);
  }
  apply_trap_deltas(d);
}

// ---- DirectedPairRoster ---------------------------------------------------

DirectedPairRoster::DirectedPairRoster(u64 initial_capacity) {
  capacity_ = std::max<u64>(initial_capacity, 4);
  productive_.reset(2 * capacity_);
  flag_.assign(2 * capacity_, 0);
}

void DirectedPairRoster::grow(u64 new_capacity) {
  PP_OBS_INC(kRosterGrows);
  capacity_ = new_capacity;
  flag_.resize(2 * capacity_, 0);
  productive_.assign(std::vector<u64>(flag_.begin(), flag_.end()));
}

u64 DirectedPairRoster::add(bool fwd_productive, bool rev_productive) {
  if (size_ == capacity_) grow(2 * capacity_);
  const u64 e = size_++;
  set_slot(2 * e, fwd_productive ? 1 : 0);
  set_slot(2 * e + 1, rev_productive ? 1 : 0);
  return e;
}

u64 DirectedPairRoster::remove(u64 e) {
  PP_DCHECK(e < size_);
  const u64 back = size_ - 1;
  if (e != back) {
    // Swap-fill the hole with the back entry's flags.
    set_slot(2 * e, flag_[2 * back]);
    set_slot(2 * e + 1, flag_[2 * back + 1]);
  }
  set_slot(2 * back, 0);
  set_slot(2 * back + 1, 0);
  size_ = back;
  return e != back ? back : kNoEntry;
}

}  // namespace pp
