#include "game/game_runner.hpp"

#include <algorithm>

#include "sim/adversary.hpp"
#include "util/assert.hpp"

namespace rlt::game {

namespace {

GameRunResult collect(const GameState& state, const sim::Scheduler& sched,
                      sim::RunOutcome outcome) {
  GameRunResult r;
  r.outcome = outcome;
  r.terminated = state.all_returned();
  r.capped = state.any_capped();
  r.rounds_reached = state.rounds_reached();
  r.actions = sched.actions_applied();
  r.coin_flips = sched.coin_log().size();
  r.coins = state.coin_by_round;
  if (r.terminated) {
    int died = 0;
    for (const ProcStatus& p : state.procs) {
      died = std::max(died, p.exit_round);
    }
    r.termination_round = died;
  }
  return r;
}

}  // namespace

std::uint64_t action_budget(const GameConfig& cfg, bool scripted) {
  return static_cast<std::uint64_t>(cfg.max_rounds + 2) *
         (static_cast<std::uint64_t>(cfg.n) * (scripted ? 24 : 400) +
          (scripted ? 64 : 4000));
}

GameRunResult run_game_adversary(GameState& state, sim::Semantics semantics,
                                 sim::Adversary& adversary,
                                 std::uint64_t budget, std::uint64_t seed) {
  sim::Scheduler sched(seed);
  setup_game(sched, semantics, state);
  const sim::RunOutcome outcome = sched.run(adversary, budget);
  return collect(state, sched, outcome);
}

GameRunResult run_scripted_game(const GameConfig& cfg,
                                sim::Semantics semantics,
                                CommitStrategy strategy, std::uint64_t seed) {
  RLT_CHECK_MSG(semantics != sim::Semantics::kAtomic,
                "the scripted adversary needs interval semantics; use "
                "run_random_game for atomic registers");
  GameState state(cfg);
  GameScriptAdversary adversary(cfg, strategy, seed ^ 0x5DEECE66DULL);
  GameRunResult r = run_game_adversary(
      state, semantics, adversary, action_budget(cfg, /*scripted=*/true),
      seed);
  if (adversary.stats().doomed_round != 0) {
    RLT_CHECK_MSG(r.terminated,
                  "script doomed the game but processes did not return");
    r.termination_round = adversary.stats().doomed_round;
  }
  return r;
}

GameRunResult run_random_game(const GameConfig& cfg, sim::Semantics semantics,
                              std::uint64_t seed) {
  GameState state(cfg);
  sim::RandomAdversary adversary(seed ^ 0x9E3779B97F4A7C15ULL);
  return run_game_adversary(state, semantics, adversary,
                            action_budget(cfg, /*scripted=*/false), seed);
}

TerminationDistribution measure_termination_rounds(const GameConfig& cfg,
                                                   sim::Semantics semantics,
                                                   CommitStrategy strategy,
                                                   std::uint64_t base_seed,
                                                   int runs) {
  TerminationDistribution dist;
  double sum = 0.0;
  int terminated = 0;
  int max_round = 0;
  for (int i = 0; i < runs; ++i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    const GameRunResult r =
        semantics == sim::Semantics::kAtomic
            ? run_random_game(cfg, semantics, seed)
            : run_scripted_game(cfg, semantics, strategy, seed);
    if (r.terminated && r.termination_round > 0) {
      dist.rounds.push_back(r.termination_round);
      sum += r.termination_round;
      ++terminated;
      max_round = std::max(max_round, r.termination_round);
    } else {
      dist.rounds.push_back(0);
      ++dist.capped_runs;
    }
  }
  dist.mean_round = terminated > 0 ? sum / terminated : 0.0;
  dist.survival.assign(static_cast<std::size_t>(max_round) + 1, 0.0);
  for (int k = 0; k <= max_round; ++k) {
    int over = 0;
    for (const int r : dist.rounds) {
      if (r == 0 || r > k) ++over;  // capped runs count as "> k"
    }
    dist.survival[static_cast<std::size_t>(k)] =
        static_cast<double>(over) / static_cast<double>(dist.rounds.size());
  }
  return dist;
}

}  // namespace rlt::game
