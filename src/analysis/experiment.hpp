// Building blocks of a measurement point: the protocol factory and the
// initial-configuration generator a TrialSpec (runner/runner.hpp) carries.
//
// run_trials() calls the factory once per trial set and runs each trial on
// a fresh Protocol::sibling() of the result; it hands the generator that
// trial's Rng, seeded with derive_seed(master seed, label, trial), to draw
// the starting configuration.  The gen_* helpers wrap core/initial.hpp.
#pragma once

#include <functional>

#include "core/protocol.hpp"
#include "rng/random.hpp"

namespace pp {

using ProtocolFactory = std::function<ProtocolPtr()>;
using ConfigGenerator = std::function<Configuration(const Protocol&, Rng&)>;

/// The generator behind gen_uniform_random(), as a *named* functor: the
/// provenance layer (obs/provenance.hpp) recognises it through
/// std::function::target to mark the spec replayable — behaviourally it
/// is exactly the runner's default when TrialSpec::init is unset.
struct UniformRandomGen {
  Configuration operator()(const Protocol& p, Rng& rng) const;
};

/// Convenience generators matching core/initial.hpp.
ConfigGenerator gen_uniform_random();
ConfigGenerator gen_uniform_random_ranks();
ConfigGenerator gen_k_distant(u64 k);
ConfigGenerator gen_all_in_state(StateId s);
ConfigGenerator gen_all_in_last_state();

}  // namespace pp
