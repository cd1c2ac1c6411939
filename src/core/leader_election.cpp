#include "core/leader_election.hpp"

#include "common/assert.hpp"

namespace pp {

LeaderElection::LeaderElection(ProtocolPtr ranking)
    : ranking_(std::move(ranking)) {
  PP_ASSERT(ranking_ != nullptr);
}

RunResult LeaderElection::stabilise(Rng& rng, const RunOptions& opt) {
  return run_accelerated(*ranking_, rng, opt);
}

void LeaderElection::inject_faults(u64 faults, Rng& rng) {
  ranking_->reset(
      initial::perturbed(ranking_->configuration(), faults, rng));
}

}  // namespace pp
