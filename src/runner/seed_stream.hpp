// Per-trial RNG derivation for the parallel runner.
//
// Every trial owns an independent random stream derived from
// (master seed, label, trial index) via the library-wide derive_seed()
// (FNV-1a + SplitMix64, rng/seed_sequence.hpp).  Because a trial's stream
// depends only on those three values — never on which thread ran it or in
// what order — the runner's results are bit-identical for any thread count.
#pragma once

#include <string>
#include <string_view>

#include "common/types.hpp"
#include "rng/random.hpp"
#include "rng/seed_sequence.hpp"

namespace pp {

class SeedStream {
 public:
  SeedStream(u64 master, std::string_view label)
      : master_(master), label_(label) {}

  /// The 64-bit seed of trial `trial`.
  u64 trial_seed(u64 trial) const {
    return derive_seed(master_, label_, trial);
  }

  /// A fresh generator positioned at the start of trial `trial`'s stream.
  Rng trial_rng(u64 trial) const { return Rng(trial_seed(trial)); }

  /// A named sub-seed inside one trial, for components that must not share
  /// a stream (e.g. the initial-configuration generator vs. a fault
  /// injector).  Distinct components of the same trial, and the same
  /// component of distinct trials, get independent streams.
  u64 sub_seed(u64 trial, std::string_view component) const;
  Rng sub_rng(u64 trial, std::string_view component) const {
    return Rng(sub_seed(trial, component));
  }

  u64 master() const { return master_; }
  const std::string& label() const { return label_; }

 private:
  u64 master_;
  std::string label_;
};

}  // namespace pp
