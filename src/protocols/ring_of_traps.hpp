// The state-optimal ring-of-traps ranking protocol (paper §3).
//
// The n rank states are partitioned into ~√n traps whose gate states form a
// directed cycle (the (m, m+1)-ring-of-traps for n = m(m+1)).  Rules:
//
//   inner states:  (a,b) + (a,b) -> (a,b) + (a,b-1)          for b > 0
//   gate states:   (a,0) + (a,0) -> (a,m) + ((a+1) mod m, 0)
//
// Inner states entrap agents permanently (Fact 1: a filled gap never
// reopens); gates eject every other arriving agent to the next trap on the
// ring.  Theorem 1: from any k-distant configuration the protocol
// stabilises silently in O(min(k n^{3/2}, n^2 log^2 n)) parallel time whp —
// state-optimal (zero extra states) and o(n^2) whenever k = o(√n).
//
// The protocol object exposes the ring geometry and the Lemma 3 weight
// function K = k1 + 2 k2 for the invariant property tests.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "core/protocol.hpp"
#include "structures/ring_layout.hpp"

namespace pp {

class RingOfTrapsProtocol final : public Protocol {
 public:
  explicit RingOfTrapsProtocol(u64 n);

  /// Ablation constructor: force the number of traps (the canonical layout
  /// uses ~√n traps of size ~√n; see bench_ablations).
  RingOfTrapsProtocol(u64 n, u64 traps);

  std::string_view name() const override { return "ring-of-traps"; }
  ProtocolPtr sibling() const override;
  std::pair<StateId, StateId> transition(StateId initiator,
                                         StateId responder) const override;
  std::string describe_state(StateId s) const override;

  const RingLayout& layout() const { return shape_->layout; }

  /// Lemma 3 weight of the current configuration (non-increasing along
  /// every trajectory; checked by tests).
  u64 lemma3_weight() const { return layout().lemma3_weight(counts()); }

 private:
  /// The immutable part siblings share: the layout and its rules.
  struct Shape {
    RingLayout layout;
    RuleTable rules;
  };
  static std::shared_ptr<const Shape> build_shape(RingLayout layout);
  explicit RingOfTrapsProtocol(std::shared_ptr<const Shape> shape);

  std::shared_ptr<const Shape> shape_;
};

}  // namespace pp
