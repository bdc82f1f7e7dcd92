// Corollary 9: from any randomized algorithm A solving a task T (here:
// randomized binary consensus) that terminates with probability 1
// against a strong adversary, derive A' = (Algorithm 1 ; A): every
// process first plays the game, and runs A only after returning from it.
//
//   * If the game's three registers are only linearizable, the Theorem 6
//     adversary keeps every process in the game forever — A' never
//     terminates (and consensus never even starts).
//   * If they are write strongly-linearizable (or atomic), the game
//     terminates with probability 1 and A' then solves T.
//
// The consensus registers themselves stay atomic throughout — Corollary 9
// only swaps the semantics of the game's register set R.
#pragma once

#include "consensus/rand_consensus.hpp"
#include "game/game_runner.hpp"

namespace rlt::consensus {

/// Full end state of one A' execution: per-process game and consensus
/// status plus scheduler counters.  Under a stalling adversary "all
/// decided" is the wrong question and "every live process decided" the
/// right one, so the per-process vectors are kept alongside the totals.
struct ComposedStats {
  sim::RunOutcome outcome = sim::RunOutcome::kStopped;
  std::vector<bool> game_returned;  ///< Per process: returned from the game.
  bool game_terminated = false;     ///< Every process returned from the game.
  int game_rounds = 0;              ///< Highest game round entered.
  bool game_capped = false;         ///< Some process hit the game round cap.
  bool consensus_started = false;   ///< Some process began A.
  std::vector<int> decisions;       ///< Per process; -1 = undecided.
  std::vector<int> decided_round;   ///< Per process; 0 = none.
  bool consensus_capped = false;    ///< Some process hit the consensus cap.
  bool all_decided = false;         ///< Every process decided.
  bool agreement = true;            ///< Over decided processes.
  bool validity = true;             ///< Over decided processes.
  std::uint64_t actions = 0;        ///< Scheduler actions consumed.
  std::uint64_t coin_flips = 0;     ///< Scheduler coin flips (game + A).
};

/// A''s action budget: the game's (game::action_budget) plus the
/// consensus rounds at the same kind of schedule's rate.
[[nodiscard]] std::uint64_t composed_budget(
    const game::GameConfig& game_cfg, const ConsensusConfig& consensus_cfg,
    bool scripted);

/// Runs A' under a caller-supplied adversary with an explicit action
/// budget.  Consensus inputs are seeded_inputs(n, seed); the consensus
/// registers are atomic whatever `game_semantics` is.
[[nodiscard]] ComposedStats run_composed_adversary(
    const game::GameConfig& game_cfg, const ConsensusConfig& consensus_cfg,
    sim::Semantics game_semantics, sim::Adversary& adversary,
    std::uint64_t max_actions, std::uint64_t seed);

/// Runs A' with the game registers under `game_semantics`, driven by the
/// scripted strong adversary (kLinearizable or kWriteStrong), with the
/// consensus phase (atomic registers) scheduled deterministically after
/// the game dies.
[[nodiscard]] ComposedStats run_composed_scripted(
    const game::GameConfig& game_cfg, const ConsensusConfig& consensus_cfg,
    sim::Semantics game_semantics, game::CommitStrategy strategy,
    std::uint64_t seed);

/// Runs A' end-to-end under the uniformly random strong adversary (any
/// semantics for the game registers, including atomic).
[[nodiscard]] ComposedStats run_composed_random(
    const game::GameConfig& game_cfg, const ConsensusConfig& consensus_cfg,
    sim::Semantics game_semantics, std::uint64_t seed);

}  // namespace rlt::consensus
