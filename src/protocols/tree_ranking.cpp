#include "protocols/tree_ranking.hpp"

#include <bit>
#include <utility>

#include "common/assert.hpp"

namespace pp {
namespace {

u64 default_k(u64 n) {
  const u64 log2n = std::bit_width(n - 1);  // ceil(log2 n) for n >= 2
  const u64 k = 2 * log2n;
  return k < 2 ? 2 : k;
}

}  // namespace

TreeRankingProtocol::TreeRankingProtocol(u64 n, u64 k, ResetMode mode)
    : TreeRankingProtocol(build_shape(n), k == 0 ? default_k(n) : k, mode) {}

TreeRankingProtocol::TreeRankingProtocol(std::shared_ptr<const Shape> shape,
                                         u64 k, ResetMode mode)
    : Protocol(shape->tree.size(), shape->tree.size(), /*num_extra=*/2 * k,
               std::shared_ptr<const RuleTable>(shape, &shape->rules)),
      shape_(std::move(shape)),
      k_(k),
      mode_(mode) {
  PP_ASSERT_MSG(k_ >= 1, "buffer line needs at least X_1, X_2");
}

ProtocolPtr TreeRankingProtocol::sibling() const {
  return ProtocolPtr(new TreeRankingProtocol(shape_, k_, mode_));
}

std::shared_ptr<const TreeRankingProtocol::Shape>
TreeRankingProtocol::build_shape(u64 n) {
  check_agents(n);
  auto shape = std::make_shared<Shape>(Shape{BalancedTree(n), RuleTable(n)});
  const BalancedTree& tree = shape->tree;
  RuleTable& rules = shape->rules;
  const StateId x1 = static_cast<StateId>(n);  // X_1, the first extra state
  for (StateId p = 0; p < n; ++p) {
    if (tree.is_leaf(p)) {
      rules[p] = Rule{x1, x1};  // R2: reset signal
    } else if (tree.is_branching(p)) {
      rules[p] = Rule{tree.left_child(p), tree.right_child(p)};  // R1
    } else {
      rules[p] = Rule{p, tree.left_child(p)};  // R1, lone child = p+1
    }
  }
  return shape;
}

u64 TreeRankingProtocol::extra_weight() const {
  const u64 ce = buffer_agents();
  // Every ordered pair of buffered agents is productive (R3/R5), and every
  // ordered (buffered, rank) pair is productive (R4).
  return ce * (ce - (ce > 0 ? 1 : 0)) + ce * (num_agents() - ce);
}

StateId TreeRankingProtocol::select_extra(u64 target) const {
  for (u64 i = 1; i <= 2 * k_; ++i) {
    const StateId s = x_state(i);
    const u64 c = count(s);
    if (target < c) return s;
    target -= c;
  }
  PP_ASSERT_MSG(false, "select_extra target out of range");
  return kNoState;
}

void TreeRankingProtocol::apply_buffer_pair(StateId first, StateId second) {
  const u64 i = x_index(first);
  const u64 j = x_index(second);
  const u64 lo = i < j ? i : j;
  if (lo == 2 * k_) {
    // R5: X_2k + X_2k -> 0 + 0.
    mutate(first, -2);
    mutate(0, +2);
    return;
  }
  // R3: both agents adopt X_{lo+1}.
  mutate(first, -1);
  mutate(second, -1);
  mutate(x_state(lo + 1), +2);
}

void TreeRankingProtocol::apply_buffer_rank(StateId x, StateId rank) {
  const u64 i = x_index(x);
  if (is_red(i)) {
    // R4 red: unload the tree agent and propagate the reset signal.
    mutate(x, -1);
    mutate(rank, -1);
    mutate(x_state(1), +2);
  } else {
    // R4 green: the buffered agent re-enters the tree at the root.
    mutate(x, -1);
    mutate(0, +1);
  }
}

void TreeRankingProtocol::step_extra(u64 target, Rng& /*rng*/) {
  const u64 ce = buffer_agents();
  PP_DCHECK(ce > 0);
  const u64 w_pairs = ce * (ce - 1);
  if (target < w_pairs) {
    // Ordered pair of distinct buffered agents: initiator by count prefix,
    // responder by count prefix with the initiator removed.
    const u64 q1 = target / (ce - 1);
    const u64 q2 = target % (ce - 1);
    const StateId first = select_extra(q1);
    u64 adj = q2;
    // Skip the initiator when selecting the responder.
    StateId second = kNoState;
    for (u64 i = 1; i <= 2 * k_; ++i) {
      const StateId s = x_state(i);
      const u64 c = count(s) - (s == first ? 1 : 0);
      if (adj < c) {
        second = s;
        break;
      }
      adj -= c;
    }
    PP_ASSERT(second != kNoState);
    apply_buffer_pair(first, second);
    return;
  }
  // Ordered (buffered, rank) pair.
  const u64 q = target - w_pairs;
  const u64 rank_total = num_agents() - ce;
  PP_DCHECK(rank_total > 0);
  const StateId x = select_extra(q / rank_total);
  const StateId rank = sample_rank_by_count(q % rank_total);
  apply_buffer_rank(x, rank);
}

bool TreeRankingProtocol::apply_cross(StateId initiator, StateId responder) {
  const bool init_extra = initiator >= num_ranks();
  const bool resp_extra = responder >= num_ranks();
  if (init_extra && resp_extra) {
    apply_buffer_pair(initiator, responder);
    return true;
  }
  if (init_extra) {
    apply_buffer_rank(initiator, responder);
    return true;
  }
  return false;  // (rank, extra) ordered pairs are null
}

std::pair<StateId, StateId> TreeRankingProtocol::transition(
    StateId initiator, StateId responder) const {
  const u64 ranks = num_ranks();
  const bool init_extra = initiator >= ranks;
  const bool resp_extra = responder >= ranks;
  if (!init_extra && !resp_extra) {
    if (initiator != responder) return {initiator, responder};
    const StateId p = initiator;
    const BalancedTree& t = tree();
    if (t.is_leaf(p)) return {x_state(1), x_state(1)};          // R2
    if (t.is_branching(p)) {
      return {t.left_child(p), t.right_child(p)};               // R1
    }
    return {p, t.left_child(p)};                                // R1
  }
  if (init_extra && resp_extra) {
    const u64 i = x_index(initiator);
    const u64 j = x_index(responder);
    const u64 lo = i < j ? i : j;
    if (lo == 2 * k_) return {0, 0};                            // R5
    return {x_state(lo + 1), x_state(lo + 1)};                  // R3
  }
  if (init_extra) {
    const u64 i = x_index(initiator);
    if (is_red(i)) return {x_state(1), x_state(1)};             // R4 red
    return {0, responder};                                      // R4 green
  }
  return {initiator, responder};  // (rank, extra) pairs are null
}

std::string TreeRankingProtocol::describe_state(StateId s) const {
  if (s >= num_ranks()) {
    const u64 i = x_index(s);
    return "X_" + std::to_string(i) + (is_red(i) ? "(red)" : "(green)");
  }
  std::string out = "node " + std::to_string(s);
  if (tree().is_leaf(s)) return out + " (leaf)";
  return out + (tree().is_branching(s) ? " (branching)" : " (chain)");
}

}  // namespace pp
