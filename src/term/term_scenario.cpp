#include "term/term_scenario.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <utility>
#include <vector>

#include "consensus/composed.hpp"
#include "consensus/rand_consensus.hpp"
#include "consensus/shared_coin.hpp"
#include "game/game_runner.hpp"
#include "sim/adversary.hpp"
#include "sweep/fnv.hpp"
#include "sweep/store.hpp"
#include "util/assert.hpp"

namespace rlt::term {
namespace {

using sweep::fnv_mix_u64;
using sweep::kFnvOffset;

/// Derives the adversary's seed stream from the scenario, decorrelated
/// from the scheduler's coin stream (which uses the raw scenario seed).
std::uint64_t adversary_seed(const TermScenario& s) {
  std::uint64_t mix = kFnvOffset;
  fnv_mix_u64(mix, s.seed);
  fnv_mix_u64(mix, static_cast<std::uint64_t>(s.family));
  fnv_mix_u64(mix, static_cast<std::uint64_t>(s.adversary));
  return mix;
}

/// Victims of the stalling adversary: a seeded strict minority, a pure
/// function of (processes, seed) via the picker shared with the safety
/// sweep's stall axis.  Empty unless the adversary is kStalling.
std::vector<sim::ProcessId> stall_victims(const TermScenario& s) {
  if (s.adversary != TermAdversary::kStalling) return {};
  std::uint64_t mix = kFnvOffset;
  fnv_mix_u64(mix, s.seed);
  fnv_mix_u64(mix, 0x57A11ULL);  // domain-separate from adversary_seed
  return sim::pick_strict_minority(s.processes, mix);
}

/// Accumulates the outcome fingerprint.
struct Hash {
  std::uint64_t h = kFnvOffset;
  void mix(std::uint64_t x) { fnv_mix_u64(h, x); }
  void mix_i(int x) { fnv_mix_u64(h, static_cast<std::uint64_t>(x)); }
};

/// Folds the record's own digest-relevant fields into its fingerprint
/// (the family run mixed its per-process outcome before this).
void seal_record(TermRecord& r, Hash& hash) {
  hash.mix(r.terminated ? 1 : 0);
  hash.mix(r.capped ? 1 : 0);
  hash.mix(r.safety_ok ? 1 : 0);
  hash.mix(r.error ? 1 : 0);
  hash.mix_i(r.rounds);
  hash.mix_i(r.stalled);
  hash.mix(r.coin_flips);
  hash.mix(r.steps);
  r.outcome_hash = hash.h;
}

// ---- coroutine bodies (free functions, per CP.51) -----------------------

sim::Task consensus_proc(sim::Proc& p, consensus::ConsensusState& st, int i) {
  (void)co_await consensus_body(p, st, i);
}

sim::Task coin_proc(sim::Proc& p, consensus::SharedCoinConfig cfg, int i,
                    std::vector<int>* outs) {
  (*outs)[static_cast<std::size_t>(i)] =
      co_await consensus::shared_coin_flip(p, cfg, i);
}

// ---- one run per family -------------------------------------------------
//
// Each family builds its system, runs it under the caller's adversary,
// and reads its end state out once.  run_term_scenario folds that end
// state into a TermRecord, run_term_probe into a TermProbe.

/// What a family run takes besides its adversary.
struct FamilySetup {
  int n = 0;
  int max_rounds = 0;
  std::uint64_t seed = 0;         ///< Scheduler seed: the coin stream.
  std::uint64_t max_actions = 0;  ///< Caps the family's own action budget.
  /// Take the game families' budget for the Theorem 6 script rather
  /// than the one for other schedules.
  bool scripted = false;
  /// The game registers' semantics (game, composed); consensus and the
  /// coin run on atomic registers regardless, per the paper.
  sim::Semantics game_semantics = sim::Semantics::kLinearizable;
  /// Fingerprint the consensus inputs too (the record does, the probe
  /// does not).
  bool mix_inputs = false;
};

/// A family run's end state.  The per-process outcome words went into
/// the caller's fingerprint as they were read out.
struct FamilyEnd {
  sim::RunOutcome outcome = sim::RunOutcome::kStopped;
  std::vector<bool> done;  ///< Per process: completed its protocol.
  /// Per process: decision round (consensus, composed), game exit round,
  /// or personal walk length (coin).
  std::vector<int> round;
  /// Highest round entered; the coin, which has no rounds, reports its
  /// longest walk.
  int rounds_reached = 0;
  bool round_capped = false;  ///< A process hit the structural round cap.
  bool agreement = true;      ///< Consensus agreement and validity held.
  std::uint64_t steps = 0;
  std::uint64_t coin_flips = 0;

  /// Whether every process outside `stalled` completed its protocol, and
  /// the highest round among them.
  [[nodiscard]] std::pair<bool, int> live(
      const std::vector<sim::ProcessId>& stalled) const {
    bool all_done = true;
    int highest = 0;
    for (std::size_t i = 0; i < done.size(); ++i) {
      const auto id = static_cast<sim::ProcessId>(i);
      if (std::find(stalled.begin(), stalled.end(), id) != stalled.end()) {
        continue;
      }
      all_done = all_done && done[i];
      highest = std::max(highest, round[i]);
    }
    return {all_done, highest};
  }
};

FamilyEnd run_consensus(const FamilySetup& u, sim::Adversary& adversary,
                        Hash& hash) {
  consensus::ConsensusConfig cfg;
  cfg.n = u.n;
  cfg.max_rounds = u.max_rounds;
  sim::Scheduler sched(u.seed);
  consensus::ConsensusState st(cfg, consensus::seeded_inputs(u.n, u.seed));
  setup_consensus(sched, cfg, sim::Semantics::kAtomic);
  for (int i = 0; i < cfg.n; ++i) {
    sched.add_process("c" + std::to_string(i), [&st, i](sim::Proc& p) {
      return consensus_proc(p, st, i);
    });
  }
  FamilyEnd end;
  end.outcome = sched.run(adversary, u.max_actions);
  for (int i = 0; i < cfg.n; ++i) {
    const std::size_t ui = static_cast<std::size_t>(i);
    if (u.mix_inputs) hash.mix_i(st.inputs[ui]);
    hash.mix_i(st.decisions[ui]);
    hash.mix_i(st.decided_round[ui]);
    end.done.push_back(st.decisions[ui] >= 0);
    end.round.push_back(st.decided_round[ui]);
  }
  end.rounds_reached = st.max_round_entered;
  end.round_capped = st.hit_round_cap;
  end.agreement = st.agreement() && st.validity();
  end.steps = sched.actions_applied();
  end.coin_flips = sched.coin_log().size();
  return end;
}

FamilyEnd run_coin(const FamilySetup& u, sim::Adversary& adversary,
                   Hash& hash) {
  consensus::SharedCoinConfig cfg;
  cfg.n = u.n;
  cfg.first_reg = 0;
  cfg.threshold_per_proc = 2;
  sim::Scheduler sched(u.seed);
  setup_shared_coin(sched, cfg, sim::Semantics::kAtomic);
  std::vector<int> outs(static_cast<std::size_t>(cfg.n), -1);
  for (int i = 0; i < cfg.n; ++i) {
    sched.add_process("coin" + std::to_string(i),
                      [cfg, i, &outs](sim::Proc& p) {
                        return coin_proc(p, cfg, i, &outs);
                      });
  }
  // The coin has no round structure of its own, so the round budget caps
  // the random walk through the action budget: roughly max_rounds flip
  // iterations per process (each iteration is a flip, a counter write,
  // and n counter reads).  Tight budgets genuinely cap long walks —
  // the axis is live for this family too, not just a key suffix.
  const std::uint64_t budget =
      static_cast<std::uint64_t>(u.max_rounds + 2) *
      static_cast<std::uint64_t>(u.n) * static_cast<std::uint64_t>(u.n + 6);
  FamilyEnd end;
  end.outcome = sched.run(adversary, std::min(u.max_actions, budget));
  // Personal walk length per process: its own coin flips.
  end.round.assign(static_cast<std::size_t>(cfg.n), 0);
  for (const sim::CoinRecord& c : sched.coin_log()) {
    ++end.round[static_cast<std::size_t>(c.process)];
  }
  for (int i = 0; i < cfg.n; ++i) {
    const std::size_t ui = static_cast<std::size_t>(i);
    hash.mix_i(outs[ui]);
    hash.mix_i(end.round[ui]);
    end.done.push_back(outs[ui] >= 0);
  }
  end.rounds_reached = *std::max_element(end.round.begin(), end.round.end());
  end.steps = sched.actions_applied();
  end.coin_flips = sched.coin_log().size();
  return end;
}

FamilyEnd run_game(const FamilySetup& u, sim::Adversary& adversary,
                   Hash& hash) {
  game::GameConfig cfg;
  cfg.n = u.n;
  cfg.max_rounds = u.max_rounds;
  game::GameState state(cfg);
  const game::GameRunResult gr = game::run_game_adversary(
      state, u.game_semantics, adversary,
      std::min(u.max_actions, game::action_budget(cfg, u.scripted)), u.seed);
  FamilyEnd end;
  end.outcome = gr.outcome;
  for (const game::ProcStatus& p : state.procs) {
    hash.mix_i(p.returned ? 1 : 0);
    hash.mix_i(p.exit_round);
    hash.mix_i(static_cast<int>(p.exit_line));
    end.done.push_back(p.returned);
    end.round.push_back(p.exit_round);
  }
  end.rounds_reached = gr.rounds_reached;
  end.round_capped = gr.capped;
  end.steps = gr.actions;
  end.coin_flips = gr.coin_flips;
  return end;
}

FamilyEnd run_composed(const FamilySetup& u, sim::Adversary& adversary,
                       Hash& hash) {
  game::GameConfig gc;
  gc.n = u.n;
  gc.max_rounds = u.max_rounds;
  consensus::ConsensusConfig cc;
  cc.n = u.n;
  cc.max_rounds = u.max_rounds;
  const consensus::ComposedStats st = consensus::run_composed_adversary(
      gc, cc, u.game_semantics, adversary,
      std::min(u.max_actions, consensus::composed_budget(gc, cc, u.scripted)),
      u.seed);
  FamilyEnd end;
  end.outcome = st.outcome;
  for (int i = 0; i < u.n; ++i) {
    const std::size_t ui = static_cast<std::size_t>(i);
    hash.mix_i(st.game_returned[ui] ? 1 : 0);
    hash.mix_i(st.decisions[ui]);
    hash.mix_i(st.decided_round[ui]);
    end.done.push_back(st.game_returned[ui] && st.decisions[ui] >= 0);
    end.round.push_back(st.decided_round[ui]);
  }
  hash.mix_i(st.game_rounds);
  end.rounds_reached = st.game_rounds;
  end.round_capped = st.game_capped || st.consensus_capped;
  end.agreement = st.agreement && st.validity;
  end.steps = st.actions;
  end.coin_flips = st.coin_flips;
  return end;
}

FamilyEnd run_family(Family f, const FamilySetup& u,
                     sim::Adversary& adversary, Hash& hash) {
  switch (f) {
    case Family::kConsensus: return run_consensus(u, adversary, hash);
    case Family::kComposed: return run_composed(u, adversary, hash);
    case Family::kSharedCoin: return run_coin(u, adversary, hash);
    case Family::kGame: return run_game(u, adversary, hash);
  }
  RLT_CHECK_MSG(false, "unknown family");
  return {};
}

/// The checks every family run makes of its shape.
void check_shape(Family f, int processes, int max_rounds) {
  RLT_CHECK_MSG(processes >= 1 && processes <= 64,
                "processes out of range");
  RLT_CHECK_MSG(processes >= min_processes(f),
                "the game families need >= 3 processes");
  RLT_CHECK_MSG(max_rounds >= 1, "round budget must be positive");
}

/// The scenario's adversary, built from its axis in one place: the
/// Theorem 6 script, or uniform choice among the live processes' actions
/// (every process's, when none is stalled).
std::unique_ptr<sim::Adversary> make_adversary(
    const TermScenario& s, const std::vector<sim::ProcessId>& victims) {
  if (s.adversary == TermAdversary::kScripted) {
    game::GameConfig cfg;
    cfg.n = s.processes;
    cfg.max_rounds = s.max_rounds;
    return std::make_unique<game::GameScriptAdversary>(
        cfg, game::CommitStrategy::kRandomOrder, adversary_seed(s));
  }
  return std::make_unique<sim::RandomAdversary>(adversary_seed(s), victims);
}

}  // namespace

const char* to_string(Family f) noexcept {
  switch (f) {
    case Family::kConsensus: return "consensus";
    case Family::kComposed: return "composed";
    case Family::kSharedCoin: return "coin";
    case Family::kGame: return "game";
  }
  return "?";
}

const char* to_string(TermAdversary a) noexcept {
  switch (a) {
    case TermAdversary::kScripted: return "scripted";
    case TermAdversary::kRandom: return "rand";
    case TermAdversary::kStalling: return "stall";
  }
  return "?";
}

bool combination_valid(Family f, TermAdversary a) noexcept {
  if (a != TermAdversary::kScripted) return true;
  return f == Family::kComposed || f == Family::kGame;
}

std::string TermScenario::key() const {
  std::string k = "term/";
  k.append(to_string(family)).append("/").append(to_string(adversary));
  sweep::append_decimal(k.append("/p"), processes);
  sweep::append_decimal(k.append("/r"), max_rounds);
  sweep::append_decimal(k.append("/seed"), seed);
  return k;
}

TermProbe run_term_probe(const TermProbeSpec& spec,
                         sim::Adversary& adversary) {
  check_shape(spec.family, spec.processes, spec.max_rounds);
  FamilySetup u;
  u.n = spec.processes;
  u.max_rounds = spec.max_rounds;
  u.seed = spec.seed;
  u.max_actions = spec.max_actions;
  TermProbe out;
  Hash hash;
  hash.mix(static_cast<std::uint64_t>(spec.family));
  const FamilyEnd end = run_family(spec.family, u, adversary, hash);
  const auto [decided, highest] = end.live({});
  out.decided = decided;
  out.capped = end.round_capped || end.outcome == sim::RunOutcome::kActionCap;
  out.rounds_reached = end.rounds_reached;
  // max_rounds + 1 scores survival to the structural round cap.  The
  // game also scores a run that ran out of actions that way; the coin
  // has no cap, so its score is always its longest walk.
  const bool at_cap =
      end.round_capped || (spec.family == Family::kGame && out.capped);
  out.rounds_score =
      out.decided ? static_cast<std::uint64_t>(highest)
      : at_cap    ? static_cast<std::uint64_t>(spec.max_rounds) + 1
                  : static_cast<std::uint64_t>(out.rounds_reached);
  out.steps = end.steps;
  out.coin_flips = end.coin_flips;
  hash.mix(out.decided ? 1 : 0);
  hash.mix(out.capped ? 1 : 0);
  hash.mix_i(out.rounds_reached);
  hash.mix(out.rounds_score);
  hash.mix(out.coin_flips);
  hash.mix(out.steps);
  out.outcome_hash = hash.h;
  return out;
}

TermRecord run_term_scenario(const TermScenario& s) {
  TermRecord out;
  Hash hash;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    RLT_CHECK_MSG(combination_valid(s.family, s.adversary),
                  "the scripted adversary only drives the game-register "
                  "families (composed, game)");
    check_shape(s.family, s.processes, s.max_rounds);
    const std::vector<sim::ProcessId> victims = stall_victims(s);
    out.stalled = static_cast<int>(victims.size());
    const std::unique_ptr<sim::Adversary> adversary =
        make_adversary(s, victims);
    FamilySetup u;
    u.n = s.processes;
    u.max_rounds = s.max_rounds;
    u.seed = s.seed;
    u.max_actions = s.max_actions;
    u.scripted = s.adversary == TermAdversary::kScripted;
    // The script meets merely linearizable game registers in the game
    // (Theorem 6) and write strongly-linearizable ones in A' (the
    // positive side of Corollary 9); other schedules meet atomic ones.
    u.game_semantics = !u.scripted ? sim::Semantics::kAtomic
                       : s.family == Family::kComposed
                           ? sim::Semantics::kWriteStrong
                           : sim::Semantics::kLinearizable;
    u.mix_inputs = true;
    const FamilyEnd end = run_family(s.family, u, *adversary, hash);
    const auto [terminated, highest] = end.live(victims);
    out.terminated = terminated;
    if (out.terminated) out.rounds = highest;
    // The scripted game dies in the round the script doomed it; in A'
    // the rounds are consensus's decision rounds.
    const auto* script =
        dynamic_cast<const game::GameScriptAdversary*>(adversary.get());
    if (s.family == Family::kGame && script != nullptr && out.terminated &&
        script->stats().doomed_round != 0) {
      out.rounds = script->stats().doomed_round;
    }
    // A game that did not terminate is always budget-bound: either a
    // process saw the structural round cap itself, the action budget ran
    // out, or the script stopped scheduling after driving its last
    // budgeted round (kStopped before any process re-entered the loop to
    // notice the cap — the Theorem 6 steady state).
    out.capped = end.round_capped ||
                 end.outcome == sim::RunOutcome::kActionCap ||
                 (s.family == Family::kGame && !out.terminated &&
                  end.outcome == sim::RunOutcome::kStopped);
    out.safety_ok = end.agreement;
    if (!out.safety_ok) {
      out.detail = std::string(to_string(s.family)) +
                   " agreement/validity violated";
    }
    out.coin_flips = end.coin_flips;
    out.steps = end.steps;
  } catch (const std::exception& e) {
    out = TermRecord{};
    out.error = true;
    out.detail = std::string("error: ") + e.what();
    hash = Hash{};
  } catch (...) {
    out = TermRecord{};
    out.error = true;
    out.detail = "error: unknown exception";
    hash = Hash{};
  }
  seal_record(out, hash);
  out.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  return out;
}

}  // namespace rlt::term
