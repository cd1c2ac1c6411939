// State-space geometry of the ring-of-traps protocol (paper §3.1).
//
// For n = m(m+1) the paper deploys m traps of size m+1 whose gate states
// form a directed cycle.  For other n the paper notes that "one can reduce
// some traps to less than m+1 states"; we implement that concretely: we use
// m = the largest integer with m(m+1) <= n traps and distribute the n rank
// states over them as evenly as possible (sizes differ by at most one, each
// size in {floor(n/m), ceil(n/m)}), preserving the Θ(√n)-traps ×
// Θ(√n)-states-per-trap shape that the analysis needs.
//
// Rank states are laid out contiguously, trap by trap; within trap a the
// local index b = 0 is the gate and b = size_a - 1 the top inner state.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"

namespace pp {

class RingLayout {
 public:
  /// Lays out `n` rank states (n >= 2) over the canonical ~√n traps.
  explicit RingLayout(u64 n);

  /// Lays out `n` rank states over exactly `traps` traps (1 <= traps <= n).
  /// Used by the trap-size ablation bench; the paper's analysis assumes the
  /// canonical √n shape.
  RingLayout(u64 n, u64 traps);

  u64 num_states() const { return n_; }
  u64 num_traps() const { return offsets_.size(); }

  /// Largest trap size (the "m+1" of the canonical layout).
  u64 max_trap_size() const { return max_size_; }

  u64 trap_offset(u64 a) const { return offsets_[a]; }
  u64 trap_size(u64 a) const {
    return (a + 1 < offsets_.size() ? offsets_[a + 1] : n_) - offsets_[a];
  }

  /// Trap index containing state s.
  u64 trap_of(StateId s) const { return trap_of_[s]; }

  /// Local index of s within its trap (0 = gate).
  u64 local_of(StateId s) const { return s - offsets_[trap_of_[s]]; }

  StateId gate(u64 a) const { return static_cast<StateId>(offsets_[a]); }
  StateId top(u64 a) const {
    return static_cast<StateId>(offsets_[a] + trap_size(a) - 1);
  }
  StateId next_gate(u64 a) const { return gate((a + 1) % num_traps()); }

  /// Per-trap slice of a full per-state count vector.
  std::span<const Count> trap_counts(std::span<const Count> counts,
                                     u64 a) const {
    return counts.subspan(trap_offset(a), trap_size(a));
  }

  /// Lemma 3's weight K = k1 + 2*k2 of a configuration, where k1 counts
  /// flat traps with unoccupied gates and k2 counts gaps across all traps.
  /// The paper proves K is non-increasing along every trajectory; the
  /// property tests check exactly that.
  u64 lemma3_weight(std::span<const Count> counts) const;

 private:
  u64 n_;
  u64 max_size_ = 0;
  std::vector<u64> offsets_;   // offsets_[a] = first state id of trap a
  std::vector<u32> trap_of_;   // state id -> trap index
};

}  // namespace pp
