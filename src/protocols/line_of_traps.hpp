// The one-extra-state (x = 1) ranking protocol (paper §4).
//
// The n rank states form m^2 *lines* of 3m traps of size m+1 each
// (canonically n = 3 m^3 (m+1), even m; see LineLayout for general n).
// Rules, with (l, a, b) = line l, trap a, local state b (b = 0 the gate):
//
//   inner:     (l,a,b) + (l,a,b) -> (l,a,b) + (l,a,b-1)        for b > 0
//   gate a>0:  (l,a,0) + (l,a,0) -> (l,a,m) + (l,a-1,0)
//   exit gate: (l,0,0) + (l,0,0) -> (l,0,m) + X
//   X routing: X + X              -> X + entrance_gate(line 0)
//              (l,a,b) + X        -> (l,a,b) + entrance_gate(l_i),
//                    where i = a / m in {0,1,2} and l_i is the i-th
//                    neighbour of l in the cubic routing graph G.
//
// Agents released by exit gates accumulate in the single extra state X and
// are scattered across entrance gates by random interactions, using the
// diameter-4log(m) graph G as a routing table.  Theorem 2: silent
// self-stabilising ranking (hence leader election) in O(n^{7/4} log^2 n) =
// o(n^2) parallel time whp from every initial configuration.
//
// This header also provides:
//   * SingleLineProtocol — one isolated line with an absorbing X, used by
//     the Lemma 5 property tests (the number of agents a line releases is a
//     schedule-independent function of its initial configuration), and
//   * predict_line_outcome — the Lemma 5 recurrence computing the final
//     allocation/gate/excess vectors (alpha, delta, rho), the surplus
//     s(C_l) and the deficit d(C_l) of a line configuration.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/protocol.hpp"
#include "structures/line_layout.hpp"

namespace pp {

class LineOfTrapsProtocol final : public Protocol {
 public:
  explicit LineOfTrapsProtocol(u64 n);

  std::string_view name() const override { return "line-of-traps"; }
  ProtocolPtr sibling() const override;
  std::pair<StateId, StateId> transition(StateId initiator,
                                         StateId responder) const override;
  std::string describe_state(StateId s) const override;

  const LineLayout& layout() const { return shape_->layout; }

  /// The extra state X.
  StateId x_state() const { return static_cast<StateId>(num_ranks()); }

  /// Total excess r(C) = |C_X| + sum_l r(C_l): the paper's global token
  /// count, non-increasing except when agents enter lines (Lemmas 11-18).
  u64 global_excess() const;

  /// Global surplus s(C) = |C_X| + sum_l s(C_l); Lemma 10 proves
  /// s(C) = d(C) (global deficit) — asserted by tests.
  u64 global_surplus() const;
  u64 global_deficit() const;

  /// X routing fires on X + X and on (l,a,b) + X — every ordered pair
  /// whose *responder* is the extra state X is productive, and (X, rank)
  /// pairs are null.  The grouped sampler cross-checks this against
  /// transition() at construction.
  ExtraPairClasses extra_pair_classes() const override {
    return {.extra_extra = true, .extra_rank = false, .rank_extra = true};
  }

 protected:
  u64 extra_weight() const override;
  void step_extra(u64 target, Rng& rng) override;
  bool apply_cross(StateId initiator, StateId responder) override;

 private:
  /// The immutable part siblings share: the layout (with its routing
  /// graph) and its rules.
  struct Shape {
    LineLayout layout;
    RuleTable rules;
  };
  static std::shared_ptr<const Shape> build_shape(u64 n);
  explicit LineOfTrapsProtocol(std::shared_ptr<const Shape> shape);

  std::shared_ptr<const Shape> shape_;
};

/// Outcome of running one line to silence with no arriving agents
/// (Lemma 5 / §4.1 definitions).
struct LineOutcome {
  std::vector<u64> alpha;  ///< final inner-state agents per trap (<= m)
  std::vector<u64> delta;  ///< final gate occupancy per trap (0 or 1)
  std::vector<u64> rho;    ///< excess ("tokens") per trap
  u64 released = 0;        ///< s(C_l): agents released to X before silence
  u64 deficit = 0;         ///< d(C_l): unoccupied states in the final config
  u64 excess = 0;          ///< r(C_l) = sum(rho); s(C_l) <= r(C_l)
};

/// Applies the Lemma 5 recurrence to a line given per-trap inner/gate agent
/// counts (beta, gamma), descending from the entrance trap (highest index)
/// to the exit trap (index 0).  `inner_capacity[a]` is the number of inner
/// states of trap a.
LineOutcome predict_line_outcome(std::span<const u64> beta,
                                 std::span<const u64> gamma,
                                 std::span<const u64> inner_capacity);

/// One isolated line of `traps` traps with `inner` inner states per trap
/// and an absorbing extra state X; num_agents is free.  Used to validate
/// Lemma 5 (schedule-independence of the released-agent count).
class SingleLineProtocol final : public Protocol {
 public:
  SingleLineProtocol(u64 num_agents, u64 traps, u64 inner);

  std::string_view name() const override { return "single-line"; }
  ProtocolPtr sibling() const override;
  std::pair<StateId, StateId> transition(StateId initiator,
                                         StateId responder) const override;

  u64 traps() const { return traps_; }
  u64 inner() const { return inner_; }
  StateId x_state() const { return static_cast<StateId>(num_ranks()); }
  StateId gate(u64 a) const { return static_cast<StateId>(a * (inner_ + 1)); }
  StateId top(u64 a) const {
    return static_cast<StateId>(a * (inner_ + 1) + inner_);
  }

  /// Number of agents absorbed in X so far.
  u64 released() const { return count(x_state()); }

  /// Per-trap inner/gate vectors of the current configuration.
  std::vector<u64> beta() const;
  std::vector<u64> gamma() const;

 protected:
  bool apply_cross(StateId, StateId) override { return false; }  // X inert

 private:
  SingleLineProtocol(u64 num_agents, u64 traps, u64 inner,
                     std::shared_ptr<const RuleTable> rules);

  u64 traps_;
  u64 inner_;
};

}  // namespace pp
