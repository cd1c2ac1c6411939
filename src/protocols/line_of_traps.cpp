#include "protocols/line_of_traps.hpp"

#include <utility>

#include "common/assert.hpp"

namespace pp {

LineOfTrapsProtocol::LineOfTrapsProtocol(u64 n)
    : LineOfTrapsProtocol(build_shape(n)) {}

LineOfTrapsProtocol::LineOfTrapsProtocol(std::shared_ptr<const Shape> shape)
    : Protocol(shape->layout.num_states(), shape->layout.num_states(),
               /*num_extra=*/1,
               std::shared_ptr<const RuleTable>(shape, &shape->rules)),
      shape_(std::move(shape)) {}

ProtocolPtr LineOfTrapsProtocol::sibling() const {
  return ProtocolPtr(new LineOfTrapsProtocol(shape_));
}

std::shared_ptr<const LineOfTrapsProtocol::Shape>
LineOfTrapsProtocol::build_shape(u64 n) {
  check_agents(n);
  auto shape = std::make_shared<Shape>(Shape{LineLayout(n), RuleTable(n)});
  const LineLayout& layout = shape->layout;
  RuleTable& rules = shape->rules;
  const StateId x = static_cast<StateId>(n);  // the extra state X
  const u64 traps = layout.traps_per_line();
  for (u64 l = 0; l < layout.num_lines(); ++l) {
    for (u64 a = 0; a < traps; ++a) {
      const StateId gate = layout.gate(l, a);
      const StateId forward = (a == 0) ? x : layout.gate(l, a - 1);
      rules[gate] = Rule{layout.top(l, a), forward};
      for (u64 b = 1; b < layout.trap_size(l, a); ++b) {
        const StateId s = static_cast<StateId>(gate + b);
        rules[s] = Rule{s, static_cast<StateId>(s - 1)};
      }
    }
  }
  return shape;
}

u64 LineOfTrapsProtocol::extra_weight() const {
  const u64 cx = count(x_state());
  // Ordered pairs (X, X) plus ordered pairs (rank agent, X).
  return cx * (cx - (cx > 0 ? 1 : 0)) + (num_agents() - cx) * cx;
}

void LineOfTrapsProtocol::step_extra(u64 target, Rng& /*rng*/) {
  const u64 cx = count(x_state());
  PP_DCHECK(cx > 0);
  const u64 w_xx = cx * (cx - 1);
  StateId destination;
  if (target < w_xx) {
    // X + X -> X + entrance gate of line 0.
    destination = layout().entrance_gate(0);
  } else {
    // (l,a,b) + X: initiator sampled proportionally to rank-state counts.
    const u64 q = (target - w_xx) / cx;
    const StateId s = sample_rank_by_count(q);
    destination = layout().route_target(s);
  }
  mutate(x_state(), -1);
  mutate(destination, +1);
}

bool LineOfTrapsProtocol::apply_cross(StateId initiator, StateId responder) {
  if (responder != x_state()) return false;  // (X, rank) pairs are null
  StateId destination;
  if (initiator == x_state()) {
    destination = layout().entrance_gate(0);
  } else {
    destination = layout().route_target(initiator);
  }
  mutate(x_state(), -1);
  mutate(destination, +1);
  return true;
}

std::pair<StateId, StateId> LineOfTrapsProtocol::transition(
    StateId initiator, StateId responder) const {
  const StateId x = x_state();
  if (responder == x) {
    // X + X -> X + (line 0's entrance gate);
    // (l,a,b) + X -> (l,a,b) + (l_i's entrance gate) via graph G.
    if (initiator == x) return {x, layout().entrance_gate(0)};
    return {initiator, layout().route_target(initiator)};
  }
  if (initiator != responder || initiator == x) {
    return {initiator, responder};  // includes the null (X, rank) pairs
  }
  const StateId s = initiator;
  if (layout().local_of(s) > 0) {
    return {s, static_cast<StateId>(s - 1)};  // inner descent
  }
  const u64 l = layout().line_of(s);
  const u64 a = layout().trap_of(s);
  if (a == 0) return {layout().top(l, 0), x};  // exit gate releases to X
  return {layout().top(l, a), layout().gate(l, a - 1)};
}

namespace {

LineOutcome line_outcome_of_counts(const LineLayout& layout,
                                   std::span<const Count> counts, u64 l) {
  const u64 traps = layout.traps_per_line();
  std::vector<u64> beta(traps, 0);
  std::vector<u64> gamma(traps, 0);
  std::vector<u64> cap(traps, 0);
  for (u64 a = 0; a < traps; ++a) {
    const auto slice = layout.trap_counts(counts, l, a);
    cap[a] = slice.size() - 1;
    gamma[a] = slice[0];
    for (u64 b = 1; b < slice.size(); ++b) beta[a] += slice[b];
  }
  return predict_line_outcome(beta, gamma, cap);
}

}  // namespace

u64 LineOfTrapsProtocol::global_excess() const {
  u64 r = count(x_state());
  for (u64 l = 0; l < layout().num_lines(); ++l) {
    r += line_outcome_of_counts(layout(), counts(), l).excess;
  }
  return r;
}

u64 LineOfTrapsProtocol::global_surplus() const {
  u64 s = count(x_state());
  for (u64 l = 0; l < layout().num_lines(); ++l) {
    s += line_outcome_of_counts(layout(), counts(), l).released;
  }
  return s;
}

u64 LineOfTrapsProtocol::global_deficit() const {
  u64 d = 0;
  for (u64 l = 0; l < layout().num_lines(); ++l) {
    d += line_outcome_of_counts(layout(), counts(), l).deficit;
  }
  return d;
}

std::string LineOfTrapsProtocol::describe_state(StateId s) const {
  if (s == x_state()) return "X";
  const u64 l = layout().line_of(s);
  const u64 a = layout().trap_of(s);
  const u64 b = layout().local_of(s);
  std::string out = "(l=" + std::to_string(l) + ",a=" + std::to_string(a) +
                    ",b=" + std::to_string(b);
  if (b == 0) out += a == 0 ? "|exit-gate" : "|gate";
  return out + ")";
}

LineOutcome predict_line_outcome(std::span<const u64> beta,
                                 std::span<const u64> gamma,
                                 std::span<const u64> inner_capacity) {
  const u64 traps = beta.size();
  PP_ASSERT(gamma.size() == traps && inner_capacity.size() == traps);
  LineOutcome out;
  out.alpha.assign(traps, 0);
  out.delta.assign(traps, 0);
  out.rho.assign(traps, 0);
  u64 x = 0;  // flow arriving from the trap above (x_{3m} = 0)
  for (u64 idx = traps; idx-- > 0;) {
    const u64 cap = inner_capacity[idx];
    const u64 y = x + gamma[idx];
    const u64 half = y / 2;
    if (beta[idx] + half <= cap) {
      out.alpha[idx] = beta[idx] + half;
      out.delta[idx] = y % 2;
      x = half;
    } else {
      out.alpha[idx] = cap;
      out.delta[idx] = 1;
      x = beta[idx] + y - cap - 1;
    }
    // Excess rho considers the trap's own gate load only (§4.1).
    const u64 own_half = gamma[idx] / 2;
    out.rho[idx] = (beta[idx] + own_half <= cap)
                       ? own_half
                       : beta[idx] + gamma[idx] - cap - 1;
    out.excess += out.rho[idx];
    out.deficit += (cap + 1) - out.alpha[idx] - out.delta[idx];
  }
  out.released = x;
  return out;
}

namespace {

std::shared_ptr<const Protocol::RuleTable> single_line_rules(u64 traps,
                                                             u64 inner) {
  PP_ASSERT(traps >= 1 && inner >= 1);
  const u64 size = inner + 1;  // trap a holds gate a*size .. top a*size+inner
  const StateId x = static_cast<StateId>(traps * size);
  auto rules = std::make_shared<Protocol::RuleTable>(traps * size);
  for (u64 a = 0; a < traps; ++a) {
    const StateId g = static_cast<StateId>(a * size);
    const StateId forward =
        (a == 0) ? x : static_cast<StateId>((a - 1) * size);
    (*rules)[g] = {static_cast<StateId>(g + inner), forward};
    for (u64 b = 1; b <= inner; ++b) {
      const StateId s = static_cast<StateId>(g + b);
      (*rules)[s] = {s, static_cast<StateId>(s - 1)};
    }
  }
  return rules;
}

}  // namespace

SingleLineProtocol::SingleLineProtocol(u64 num_agents, u64 traps, u64 inner)
    : SingleLineProtocol(num_agents, traps, inner,
                         single_line_rules(traps, inner)) {}

SingleLineProtocol::SingleLineProtocol(u64 num_agents, u64 traps, u64 inner,
                                       std::shared_ptr<const RuleTable> rules)
    : Protocol(num_agents, traps * (inner + 1), /*num_extra=*/1,
               std::move(rules)),
      traps_(traps),
      inner_(inner) {}

ProtocolPtr SingleLineProtocol::sibling() const {
  return ProtocolPtr(
      new SingleLineProtocol(num_agents(), traps_, inner_, rule_table()));
}

std::pair<StateId, StateId> SingleLineProtocol::transition(
    StateId initiator, StateId responder) const {
  if (initiator != responder || initiator >= num_ranks()) {
    return {initiator, responder};  // X is absorbing; cross pairs are null
  }
  const StateId s = initiator;
  const u64 a = s / (inner_ + 1);
  const u64 b = s % (inner_ + 1);
  if (b > 0) return {s, static_cast<StateId>(s - 1)};
  if (a == 0) return {top(0), x_state()};
  return {top(a), gate(a - 1)};
}

std::vector<u64> SingleLineProtocol::beta() const {
  std::vector<u64> out(traps_, 0);
  for (u64 a = 0; a < traps_; ++a) {
    for (u64 b = 1; b <= inner_; ++b) {
      out[a] += count(static_cast<StateId>(gate(a) + b));
    }
  }
  return out;
}

std::vector<u64> SingleLineProtocol::gamma() const {
  std::vector<u64> out(traps_, 0);
  for (u64 a = 0; a < traps_; ++a) out[a] = count(gate(a));
  return out;
}

}  // namespace pp
