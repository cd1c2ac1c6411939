#include "schedulers/uniform.hpp"

namespace pp {

RunResult UniformScheduler::run(Protocol& p, Rng& rng,
                                const RunOptions& opt) const {
  return run_uniform(p, rng, opt);
}

RunResult AcceleratedUniformScheduler::run(Protocol& p, Rng& rng,
                                           const RunOptions& opt) const {
  return run_accelerated(p, rng, opt);
}

}  // namespace pp
