// A pathological Protocol shared by the engine and sibling tests.  Two
// rank states with rules (0,0) -> (0,1) and (1,1) -> (1,2), and one extra
// state X = 2 whose (X,X) pairs fire (X -> 0) as one class of productive
// weight 1.  With billions of agents all in X, the productive-weight /
// pairs ratio is astronomically small (~1.1e-19 at the largest accepted
// n, Protocol::kMaxAgents).
#pragma once

#include <memory>
#include <string_view>
#include <utility>

#include "core/protocol.hpp"

namespace pp {

class SparseWeightProtocol final : public Protocol {
 public:
  explicit SparseWeightProtocol(u64 n)
      : SparseWeightProtocol(
            n, std::make_shared<const RuleTable>(RuleTable{{0, 1}, {1, 2}})) {}
  SparseWeightProtocol(u64 n, std::shared_ptr<const RuleTable> rules)
      : Protocol(n, /*num_ranks=*/2, /*num_extra=*/1, std::move(rules)) {}

  std::string_view name() const override { return "sparse-weight"; }
  ProtocolPtr sibling() const override {
    return std::make_unique<SparseWeightProtocol>(num_agents(), rule_table());
  }
  std::pair<StateId, StateId> transition(StateId i, StateId r) const override {
    if (i == 2 && r == 2) return {2, 0};  // the one productive pair class
    return {i, r};
  }

 protected:
  u64 extra_weight() const override { return count(2) >= 2 ? 1 : 0; }
  void step_extra(u64 /*target*/, Rng& /*rng*/) override {
    mutate(2, -1);
    mutate(0, +1);
  }
  bool apply_cross(StateId i, StateId r) override {
    if (i != 2 || r != 2) return false;
    mutate(2, -1);
    mutate(0, +1);
    return true;
  }
};

}  // namespace pp
