// The O(log n)-extra-states ranking protocol (paper §5).
//
// The n rank states are spanned by a *perfectly balanced binary tree* in
// pre-order (BalancedTree, Figure 2).  Extra states form a "buffer line"
// X_1 .. X_2k split into a red group (X_1..X_k) and a green group
// (X_{k+1}..X_2k), with 2k = O(log n).  Rules:
//
//   R1 (dispersion): p + p -> p + (p+1)               p non-branching
//                    p + p -> (p+1) + (p+l+1)         p branching
//   R2 (reset):      l + l -> X_1 + X_1               l a leaf
//   R3 (buffer):     X_i + X_j -> X_{i+1} + X_{i+1}   i = min(i,j) < 2k
//   R4 (unload/seed) X_i + p  -> X_1 + X_1            i <= k   (red)
//                    X_i + p  -> 0   + p              i >  k   (green)
//   R5 (re-enter):   X_2k + X_2k -> 0 + 0
//
// Intuition: R1 pours colliding agents down the tree; a perfect pour from
// the root ranks everyone (Lemma 19).  If the initial configuration is
// unbalanced, some leaf overloads within O(n log n) time (Lemma 20), R2
// raises the reset signal, red agents epidemically unload the whole tree
// into the buffer line (R4 first case, Lemma 21), the line marches
// everyone into green and back to the root (R3, R5, R4 second case), and
// the now-balanced pour completes.  Theorem 3: silent self-stabilising
// ranking in O(n log n) parallel time whp — the best known with
// O(log n) extra states.
//
// Rule-orientation note: the paper writes R3 for unordered {X_i, X_j},
// i <= j.  We apply it to every ordered pair of extra-state agents using
// i = min of the two indices, and R4/R5 exactly as written (initiator
// extra, responder rank); (rank, extra) ordered pairs are null.  This
// choice at most halves/doubles constant factors and preserves every
// asymptotic claim.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "core/protocol.hpp"
#include "structures/balanced_tree.hpp"

namespace pp {

class TreeRankingProtocol final : public Protocol {
 public:
  /// kStandard is the paper's protocol.  kModified is the *modified
  /// protocol* from the proof of Theorem 3 (§5.2): every buffer state is
  /// treated as green, i.e. R4 always performs X_i + j -> 0 + j and the
  /// reset epidemic never fires.  The paper uses it as an analysis device;
  /// here it doubles as an ablation of the red/reset mechanism
  /// (bench_ablations A4).
  enum class ResetMode { kStandard, kModified };

  /// `k` = half the buffer-line length (the paper's k, x = 2k extra
  /// states); k = 0 selects the default 2 * ceil(log2 n), large enough for
  /// the Lemma 21 epidemic argument at any practical n.
  explicit TreeRankingProtocol(u64 n, u64 k = 0,
                               ResetMode mode = ResetMode::kStandard);

  std::string_view name() const override {
    return mode_ == ResetMode::kStandard ? "tree-ranking"
                                         : "tree-ranking-modified";
  }
  ProtocolPtr sibling() const override;
  std::pair<StateId, StateId> transition(StateId initiator,
                                         StateId responder) const override;
  std::string describe_state(StateId s) const override;

  const BalancedTree& tree() const { return shape_->tree; }
  u64 k() const { return k_; }

  /// Buffer-line state X_i (1-based, i in [1, 2k]).
  StateId x_state(u64 i) const {
    return static_cast<StateId>(num_ranks() + i - 1);
  }
  /// In the modified protocol no state is red (R4 always re-seeds the
  /// root).
  bool is_red(u64 i) const {
    return mode_ == ResetMode::kStandard && i <= k_;
  }
  ResetMode mode() const { return mode_; }

  /// Agents currently on the buffer line (any X_i).
  u64 buffer_agents() const { return num_agents() - rank_agents(); }

  /// R3/R5 fire on every ordered buffer pair (min(i, j) < 2k advances the
  /// line, i = j = 2k re-enters the root) and R4 on every (X_i, rank)
  /// pair — in both reset modes — while (rank, extra) ordered pairs are
  /// null by the rule-orientation note above.  The grouped sampler
  /// cross-checks this against transition() at construction.
  ExtraPairClasses extra_pair_classes() const override {
    return {.extra_extra = true, .extra_rank = true, .rank_extra = false};
  }

 protected:
  u64 extra_weight() const override;
  void step_extra(u64 target, Rng& rng) override;
  bool apply_cross(StateId initiator, StateId responder) override;

 private:
  /// The immutable part siblings share: the tree and its rules.
  struct Shape {
    BalancedTree tree;
    RuleTable rules;
  };
  static std::shared_ptr<const Shape> build_shape(u64 n);
  TreeRankingProtocol(std::shared_ptr<const Shape> shape, u64 k,
                      ResetMode mode);

  /// 1-based buffer index of extra state s.
  u64 x_index(StateId s) const { return s - num_ranks() + 1; }
  /// Selects the extra state holding the `target`-th buffered agent
  /// (prefix walk over the 2k buffer states).
  StateId select_extra(u64 target) const;
  void apply_buffer_pair(StateId first, StateId second);  // R3 / R5
  void apply_buffer_rank(StateId x, StateId rank);        // R4

  std::shared_ptr<const Shape> shape_;
  u64 k_;
  ResetMode mode_;
};

}  // namespace pp
