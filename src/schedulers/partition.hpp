// Partition: temporary network splits as an interaction model.
//
// The population is split into `blocks` non-interacting blocks (a uniformly
// random, balanced assignment drawn at run start).  The run alternates
//
//   split phase  (`split` interactions): each step draws a uniformly
//                random ordered pair of distinct agents, exactly like the
//                uniform scheduler, but a pair straddling two blocks is
//                dropped — the meeting is a null interaction, as if the
//                network link between the blocks were down;
//   heal phase   (`heal` interactions): all pairs interact again;
//
// for `cycles` rounds, then leaves the population healed.  Phase ends are
// run_exact horizons; past the last one the sampler is run_accelerated's
// (UniformPairs), so the run ends clean to silence.  Phase lengths of 0
// resolve to 20 n at run time.
//
// This extends the self-stabilisation story beyond pair choice: every block
// converges towards a *locally* consistent (and globally wrong) state while
// split — duplicate ranks live in different blocks and cannot meet — so
// healing must restart the global repair.  Accounting: parallel_time =
// interactions / n, blocked cross-partition meetings included as nulls.
#pragma once

#include <string>
#include <string_view>

#include "schedulers/scheduler.hpp"

namespace pp {

class PartitionScheduler final : public Scheduler {
 public:
  /// blocks >= 2 (clamped to n at run time); split/heal are phase lengths
  /// in interactions (0 = 20 n); cycles is the number of split+heal rounds
  /// before the population is left healed for good.
  PartitionScheduler(u64 blocks, u64 split, u64 heal, u64 cycles);

  std::string_view name() const override { return name_; }

  RunResult run(Protocol& p, Rng& rng,
                const RunOptions& opt = {}) const override;

 private:
  SchedulerSpec spec_;  // kPartition: the knobs, and the name built from them
  std::string name_;    // "partition[<blocks>-blocks]"
};

}  // namespace pp
