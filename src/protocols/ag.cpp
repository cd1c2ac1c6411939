#include "protocols/ag.hpp"

#include <utility>

namespace pp {

namespace {

std::shared_ptr<const Protocol::RuleTable> ag_rules(u64 n) {
  auto rules = std::make_shared<Protocol::RuleTable>(n);
  for (StateId i = 0; i < n; ++i) {
    (*rules)[i] = {i, static_cast<StateId>((i + 1) % n)};
  }
  return rules;
}

}  // namespace

AgProtocol::AgProtocol(u64 n)
    : AgProtocol(n, ag_rules(check_agents(n))) {}

AgProtocol::AgProtocol(u64 n, std::shared_ptr<const RuleTable> rules)
    : Protocol(n, n, /*num_extra=*/0, std::move(rules)) {}

ProtocolPtr AgProtocol::sibling() const {
  return ProtocolPtr(new AgProtocol(num_agents(), rule_table()));
}

std::pair<StateId, StateId> AgProtocol::transition(StateId initiator,
                                                   StateId responder) const {
  // The single rule family: i + i -> i + (i + 1 mod n).
  if (initiator == responder) {
    return {initiator,
            static_cast<StateId>((initiator + 1) % num_ranks())};
  }
  return {initiator, responder};
}

}  // namespace pp
