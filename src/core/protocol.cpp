#include "core/protocol.hpp"

#include <utility>

#include "common/assert.hpp"

namespace pp {

Protocol::Protocol(u64 num_agents, u64 num_ranks, u64 num_extra)
    : n_agents_(num_agents),
      n_ranks_(num_ranks),
      n_states_(num_ranks + num_extra) {
  PP_ASSERT_MSG(n_agents_ >= 2, "need at least two agents to interact");
  PP_ASSERT_MSG(n_ranks_ >= 1, "need at least one rank state");
  counts_.assign(n_states_, 0);
}

void Protocol::reset(const Configuration& c) {
  PP_ASSERT_MSG(c.num_states() == n_states_,
                "configuration has wrong number of states");
  PP_ASSERT_MSG(c.agents() == n_agents_,
                "configuration has wrong number of agents");
  PP_ASSERT_MSG(rules_.size() == n_ranks_,
                "derived protocol did not install its rule table");
  counts_ = c.counts;
  std::vector<u64> weights(n_ranks_);
  u64 rank_total = 0;
  for (StateId s = 0; s < n_ranks_; ++s) {
    const u64 cs = counts_[s];
    weights[s] = cs * (cs - (cs > 0 ? 1 : 0));
    rank_total += cs;
  }
  rank_weight_.assign(std::move(weights));
  extra_agents_ = 0;
  for (u64 s = n_ranks_; s < n_states_; ++s) extra_agents_ += counts_[s];
  PP_DCHECK(extra_agents_ + rank_total == n_agents_);
  count_live_ = false;
  on_reset();
}

Fenwick& Protocol::count_tree() {
  if (!count_live_) {
    count_all_.assign(counts_);
    count_live_ = true;
    PP_DCHECK(count_all_.total() == n_agents_);
  }
  return count_all_;
}

void Protocol::mutate(StateId s, i64 delta) {
  PP_DCHECK(s < n_states_);
  if (delta == 0) return;
  if (delta < 0) {
    PP_ASSERT_MSG(counts_[s] >= static_cast<u64>(-delta),
                  "mutate would drive a state count negative");
  }
  counts_[s] = static_cast<u64>(static_cast<i64>(counts_[s]) + delta);
  if (count_live_) count_all_.add(s, delta);
  if (s < n_ranks_) {
    const u64 c = counts_[s];
    rank_weight_.set(s, c * (c - (c > 0 ? 1 : 0)));
  } else {
    extra_agents_ = static_cast<u64>(static_cast<i64>(extra_agents_) + delta);
  }
}

void Protocol::apply_rank_rule(StateId s) {
  PP_DCHECK(s < n_ranks_);
  PP_DCHECK(counts_[s] >= 2);
  const Rule r = rules_[s];
  move_pair(s, s, r.out1, r.out2);
}

void Protocol::move_pair(StateId from1, StateId from2, StateId to1,
                         StateId to2) {
  // An agent landing where the other one (or itself) started cancels
  // that state's -1 against its +1: one move remains, e.g.
  // (s,s) -> (s,t) is -1 on s and +1 on t.
  if (to1 == from1) return move_agent(from2, to2);
  if (to2 == from2) return move_agent(from1, to1);
  if (to1 == from2) return move_agent(from1, to2);
  if (to2 == from1) return move_agent(from2, to1);
  // The sources and the targets are now disjoint; two agents leaving or
  // entering one state are a single -2/+2.
  if (from1 == from2) {
    mutate(from1, -2);
  } else {
    mutate(from1, -1);
    mutate(from2, -1);
  }
  if (to1 == to2) {
    mutate(to1, +2);
  } else {
    mutate(to1, +1);
    mutate(to2, +1);
  }
}

void Protocol::step_productive(Rng& rng) {
  const u64 w_rank = rank_weight_.total();
  const u64 w_extra = extra_weight();
  PP_ASSERT_MSG(w_rank + w_extra > 0, "step_productive on a silent protocol");
  const u64 target = rng.below(w_rank + w_extra);
  if (target < w_rank) {
    apply_rank_rule(static_cast<StateId>(rank_weight_.find(target)));
  } else {
    step_extra(target - w_rank, rng);
  }
}

bool Protocol::step_uniform(Rng& rng) {
  // Initiator uniform among agents; responder uniform among the rest.
  Fenwick& counts = count_tree();
  const StateId si = static_cast<StateId>(counts.find(rng.below(n_agents_)));
  counts.add(si, -1);
  const StateId sr =
      static_cast<StateId>(counts.find(rng.below(n_agents_ - 1)));
  counts.add(si, +1);

  if (si < n_ranks_ && sr < n_ranks_) {
    if (si != sr) return false;  // state-optimal rules are (s,s) only
    apply_rank_rule(si);
    return true;
  }
  return apply_cross(si, sr);
}

std::pair<StateId, StateId> Protocol::apply_pair(StateId initiator,
                                                 StateId responder) {
  PP_DCHECK(initiator < n_states_ && responder < n_states_);
  PP_DCHECK(counts_[initiator] >= 1);
  PP_DCHECK(counts_[responder] >=
            (initiator == responder ? static_cast<u64>(2) : 1));
  const auto [i2, r2] = transition(initiator, responder);
  if (i2 == initiator && r2 == responder) return {initiator, responder};
  move_pair(initiator, responder, i2, r2);
  return {i2, r2};
}

void Protocol::step_extra(u64 /*target*/, Rng& /*rng*/) {
  PP_ASSERT_MSG(false, "protocol reported extra_weight() but does not "
                       "implement step_extra()");
}

bool Protocol::apply_cross(StateId /*initiator*/, StateId /*responder*/) {
  PP_ASSERT_MSG(false, "protocol has extra states but does not implement "
                       "apply_cross()");
  return false;
}

bool Protocol::is_valid_ranking() const {
  return n_agents_ == n_ranks_ && rank_weight_.total() == 0 &&
         rank_agents() == n_agents_;
}

std::string Protocol::describe_state(StateId s) const {
  if (s < n_ranks_) return "rank " + std::to_string(s);
  return "extra " + std::to_string(s - n_ranks_);
}

}  // namespace pp
