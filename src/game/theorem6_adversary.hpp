// The strong adversary of Theorem 6, and its best-effort variant against
// write strongly-linearizable registers (Theorem 7's experiment).
//
// Against `LinearizableModel` registers the adversary replays the paper's
// Figure 1/2 schedule exactly: it keeps p1's write of [1, j] pending
// while p0's write completes and the coin is flipped, then *after seeing
// the coin* linearizes the two writes in whichever order makes every
// player read [c, j] then [1-c, j] — so every process survives every
// round, forever (rounds are driven up to the configured cap).
//
// Against `WslModel` registers the same schedule hits the wall the paper
// proves: when p0's write responds, the adversary must irrevocably commit
// the relative order of the concurrent write [1, j] BEFORE the coin is
// flipped.  The best-effort strategy picks an order (by policy); with
// probability 1/2 the coin mismatches, the players' line-27 check fails,
// and the whole game terminates within that round.  Measured over many
// seeds this yields the geometric(1/2) termination-round distribution
// that Lemma 19 guarantees as a bound.
#pragma once

#include <optional>

#include "game/game.hpp"
#include "sim/generator.hpp"
#include "util/rng.hpp"

namespace rlt::game {

/// How the adversary commits the order of the two concurrent R1 writes
/// when forced (WSL registers).  Irrelevant for linearizable registers,
/// where no early commitment is ever forced.
enum class CommitStrategy {
  kHostZeroFirst,  ///< Always commit [0, j] before [1, j].
  kHostOneFirst,   ///< Always commit [1, j] before [0, j].
  kRandomOrder,    ///< Flip the adversary's own coin each round.
  kAlternate,      ///< Alternate between the two orders round by round.
};

[[nodiscard]] const char* to_string(CommitStrategy s) noexcept;

/// Scripted strong adversary driving Algorithm 1 (see file comment).
class GameScriptAdversary final : public sim::Adversary {
 public:
  struct Stats {
    int doomed_round = 0;  ///< Round in which the game died (0: never).
  };

  /// `seed` feeds the kRandomOrder strategy only.
  GameScriptAdversary(const GameConfig& cfg, CommitStrategy strategy,
                      std::uint64_t seed = 0)
      : cfg_(cfg), strategy_(strategy), rng_(seed) {}

  std::optional<sim::Action> choose(sim::Scheduler& sched) override;

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  sim::Generator<sim::Action> script(sim::Scheduler& sched);

  GameConfig cfg_;
  CommitStrategy strategy_;
  util::Rng rng_;
  sim::Scheduler* bound_ = nullptr;
  std::optional<sim::Generator<sim::Action>> script_;
  Stats stats_;
};

}  // namespace rlt::game
