#include "analysis/experiment.hpp"

#include "core/initial.hpp"

namespace pp {

Configuration UniformRandomGen::operator()(const Protocol& p,
                                           Rng& rng) const {
  return initial::uniform_random(p, rng);
}

ConfigGenerator gen_uniform_random() { return UniformRandomGen{}; }

ConfigGenerator gen_uniform_random_ranks() {
  return [](const Protocol& p, Rng& rng) {
    return initial::uniform_random_ranks(p, rng);
  };
}

ConfigGenerator gen_k_distant(u64 k) {
  return [k](const Protocol& p, Rng& rng) {
    return initial::k_distant(p, k, rng);
  };
}

ConfigGenerator gen_all_in_state(StateId s) {
  return [s](const Protocol& p, Rng&) { return initial::all_in_state(p, s); };
}

ConfigGenerator gen_all_in_last_state() {
  return [](const Protocol& p, Rng&) {
    return initial::all_in_state(p, static_cast<StateId>(p.num_states() - 1));
  };
}

}  // namespace pp
