#include "consensus/composed.hpp"

#include "sim/adversary.hpp"
#include "util/assert.hpp"

namespace rlt::consensus {

namespace {

/// A' for one process: play the game; on a true return (not a round-cap
/// bailout), run consensus.
sim::Task composed_body(sim::Proc& self, game::GameState& gs,
                        ConsensusState& cs, int i, bool* started_flag) {
  if (i < 2) {
    co_await game::host_body(self, gs, i);
  } else {
    co_await game::player_body(self, gs, i);
  }
  if (!gs.procs[static_cast<std::size_t>(i)].returned) co_return;
  *started_flag = true;
  (void)co_await consensus_body(self, cs, i);
}

}  // namespace

std::uint64_t composed_budget(const game::GameConfig& game_cfg,
                              const ConsensusConfig& consensus_cfg,
                              bool scripted) {
  return game::action_budget(game_cfg, scripted) +
         static_cast<std::uint64_t>(consensus_cfg.max_rounds + 2) *
             (static_cast<std::uint64_t>(game_cfg.n) * (scripted ? 600 : 2000) +
              (scripted ? 2000 : 8000));
}

ComposedStats run_composed_adversary(const game::GameConfig& game_cfg,
                                     const ConsensusConfig& consensus_cfg,
                                     sim::Semantics game_semantics,
                                     sim::Adversary& adversary,
                                     std::uint64_t max_actions,
                                     std::uint64_t seed) {
  RLT_CHECK_MSG(consensus_cfg.n == game_cfg.n,
                "game and consensus must share the process set");
  RLT_CHECK_MSG(game_cfg.n >= 3, "the game needs n >= 3 processes");
  ConsensusConfig cc = consensus_cfg;
  cc.first_reg = 3;  // game occupies registers 0..2
  sim::Scheduler sched(seed);
  game::GameState game_state(game_cfg);
  ConsensusState consensus_state(cc, seeded_inputs(game_cfg.n, seed));
  bool consensus_started = false;
  // Registers only: the composed bodies below ARE the game processes.
  // Calling setup_game here would add a second, competing set of game
  // processes on the same GameState — two "host 0"s would write
  // different coins into C and break Lemma 18 (a bug this runner
  // actually had; Corollary9Regression.ComposedRunsUseExactlyNProcesses
  // pins the schedules that exposed it).
  game::setup_game_registers(sched, game_semantics);
  setup_consensus(sched, cc, sim::Semantics::kAtomic);
  for (int i = 0; i < game_cfg.n; ++i) {
    sched.add_process("composed-p" + std::to_string(i),
                      [&game_state, &consensus_state, &consensus_started,
                       i](sim::Proc& p) {
                        return composed_body(p, game_state, consensus_state,
                                             i, &consensus_started);
                      });
  }
  ComposedStats st;
  st.outcome = sched.run(adversary, max_actions);
  for (const game::ProcStatus& p : game_state.procs) {
    st.game_returned.push_back(p.returned);
  }
  st.game_terminated = game_state.all_returned();
  st.game_rounds = game_state.rounds_reached();
  st.game_capped = game_state.any_capped();
  st.consensus_started = consensus_started;
  st.decisions = consensus_state.decisions;
  st.decided_round = consensus_state.decided_round;
  st.consensus_capped = consensus_state.hit_round_cap;
  st.all_decided = consensus_state.all_decided();
  st.agreement = consensus_state.agreement();
  st.validity = consensus_state.validity();
  st.actions = sched.actions_applied();
  st.coin_flips = sched.coin_log().size();
  return st;
}

ComposedStats run_composed_scripted(const game::GameConfig& game_cfg,
                                    const ConsensusConfig& consensus_cfg,
                                    sim::Semantics game_semantics,
                                    game::CommitStrategy strategy,
                                    std::uint64_t seed) {
  RLT_CHECK_MSG(game_semantics != sim::Semantics::kAtomic,
                "the scripted adversary needs interval semantics");
  game::GameScriptAdversary adversary(game_cfg, strategy,
                                      seed ^ 0x5DEECE66DULL);
  return run_composed_adversary(
      game_cfg, consensus_cfg, game_semantics, adversary,
      composed_budget(game_cfg, consensus_cfg, /*scripted=*/true), seed);
}

ComposedStats run_composed_random(const game::GameConfig& game_cfg,
                                  const ConsensusConfig& consensus_cfg,
                                  sim::Semantics game_semantics,
                                  std::uint64_t seed) {
  sim::RandomAdversary adversary(seed ^ 0x9E3779B97F4A7C15ULL);
  return run_composed_adversary(
      game_cfg, consensus_cfg, game_semantics, adversary,
      composed_budget(game_cfg, consensus_cfg, /*scripted=*/false), seed);
}

}  // namespace rlt::consensus
