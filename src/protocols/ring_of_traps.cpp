#include "protocols/ring_of_traps.hpp"

#include <utility>

namespace pp {

RingOfTrapsProtocol::RingOfTrapsProtocol(u64 n)
    : RingOfTrapsProtocol(build_shape(RingLayout(check_agents(n)))) {}

RingOfTrapsProtocol::RingOfTrapsProtocol(u64 n, u64 traps)
    : RingOfTrapsProtocol(build_shape(RingLayout(check_agents(n), traps))) {}

RingOfTrapsProtocol::RingOfTrapsProtocol(std::shared_ptr<const Shape> shape)
    : Protocol(shape->layout.num_states(), shape->layout.num_states(),
               /*num_extra=*/0,
               std::shared_ptr<const RuleTable>(shape, &shape->rules)),
      shape_(std::move(shape)) {}

ProtocolPtr RingOfTrapsProtocol::sibling() const {
  return ProtocolPtr(new RingOfTrapsProtocol(shape_));
}

std::shared_ptr<const RingOfTrapsProtocol::Shape>
RingOfTrapsProtocol::build_shape(RingLayout layout) {
  const u64 n = layout.num_states();
  auto shape = std::make_shared<Shape>(Shape{std::move(layout), RuleTable(n)});
  const RingLayout& l = shape->layout;
  RuleTable& rules = shape->rules;
  for (u64 a = 0; a < l.num_traps(); ++a) {
    const StateId gate = l.gate(a);
    // Gate: one agent re-enters at the top inner state, the other moves on
    // to the next trap's gate.  (For a degenerate single-state trap the top
    // state *is* the gate, so the rule reduces to forwarding one agent.)
    rules[gate] = Rule{l.top(a), l.next_gate(a)};
    // Inner states: the responder descends one step.
    for (u64 b = 1; b < l.trap_size(a); ++b) {
      const StateId s = static_cast<StateId>(gate + b);
      rules[s] = Rule{s, static_cast<StateId>(s - 1)};
    }
  }
  return shape;
}

std::pair<StateId, StateId> RingOfTrapsProtocol::transition(
    StateId initiator, StateId responder) const {
  if (initiator != responder) return {initiator, responder};
  const StateId s = initiator;
  const RingLayout& ring = layout();
  if (ring.local_of(s) > 0) {
    // Inner rule R_i: (a,b) + (a,b) -> (a,b) + (a,b-1).
    return {s, static_cast<StateId>(s - 1)};
  }
  // Gate rule R_g: (a,0) + (a,0) -> (a,m) + ((a+1) mod m, 0).
  const u64 a = ring.trap_of(s);
  return {ring.top(a), ring.next_gate(a)};
}

std::string RingOfTrapsProtocol::describe_state(StateId s) const {
  const u64 a = layout().trap_of(s);
  const u64 b = layout().local_of(s);
  return "(a=" + std::to_string(a) + ",b=" + std::to_string(b) +
         (b == 0 ? "|gate)" : ")");
}

}  // namespace pp
