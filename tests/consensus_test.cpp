// Tests for randomized consensus (task T), the drift shared coin, and
// the Corollary 9 composition A' = (Algorithm 1 ; A).
#include <gtest/gtest.h>

#include "consensus/composed.hpp"
#include "consensus/rand_consensus.hpp"
#include "sim/adversary.hpp"

namespace rlt::consensus {
namespace {

sim::Task run_consensus_proc(sim::Proc& p, ConsensusState& st, int i) {
  (void)co_await consensus_body(p, st, i);
}

sim::Task run_coin_proc(sim::Proc& p, SharedCoinConfig cfg, int i,
                        std::vector<int>* outs) {
  (*outs)[static_cast<std::size_t>(i)] = co_await shared_coin_flip(p, cfg, i);
}

ConsensusState run_consensus(const std::vector<int>& inputs,
                             std::uint64_t seed,
                             CoinKind coin = CoinKind::kLocal) {
  ConsensusConfig cfg;
  cfg.n = static_cast<int>(inputs.size());
  cfg.max_rounds = 64;
  cfg.coin = coin;
  sim::Scheduler sched(seed);
  ConsensusState state(cfg, inputs);
  setup_consensus(sched, cfg, sim::Semantics::kAtomic);
  for (int i = 0; i < cfg.n; ++i) {
    sched.add_process("c" + std::to_string(i), [&state, i](sim::Proc& p) {
      return run_consensus_proc(p, state, i);
    });
  }
  sim::RandomAdversary adv(seed * 31 + 7);
  sched.run(adv, 5'000'000);
  return state;
}

TEST(Consensus, UnanimousInputsDecideImmediately) {
  for (const int v : {0, 1}) {
    const ConsensusState st =
        run_consensus(std::vector<int>(4, v), 17 + static_cast<unsigned>(v));
    ASSERT_TRUE(st.all_decided());
    for (const int d : st.decisions) EXPECT_EQ(d, v);
    EXPECT_TRUE(st.validity());
  }
}

class ConsensusSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConsensusSweep, AgreementAndValidityAlwaysHold) {
  const std::uint64_t seed = GetParam();
  util::Rng rng(seed);
  std::vector<int> inputs(4);
  for (int& b : inputs) b = rng.flip();
  const ConsensusState st = run_consensus(inputs, seed);
  EXPECT_TRUE(st.agreement()) << "seed " << seed;
  EXPECT_TRUE(st.validity()) << "seed " << seed;
  EXPECT_TRUE(st.all_decided()) << "seed " << seed << " (cap="
                                << st.hit_round_cap << ")";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConsensusSweep,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST(Consensus, SharedCoinVariantAlsoDecides) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    util::Rng rng(seed);
    std::vector<int> inputs(3);
    for (int& b : inputs) b = rng.flip();
    const ConsensusState st = run_consensus(inputs, seed, CoinKind::kShared);
    EXPECT_TRUE(st.agreement()) << "seed " << seed;
    EXPECT_TRUE(st.validity()) << "seed " << seed;
    EXPECT_TRUE(st.all_decided()) << "seed " << seed;
  }
}

TEST(Consensus, DecisionRoundsAreModest) {
  // With random scheduling the race usually closes within a few rounds.
  int total_rounds = 0;
  const int runs = 20;
  for (std::uint64_t seed = 100; seed < 100 + runs; ++seed) {
    const ConsensusState st = run_consensus({0, 1, 0, 1}, seed);
    EXPECT_TRUE(st.all_decided());
    total_rounds += st.max_round_entered;
  }
  EXPECT_LT(total_rounds / runs, 20);
}

// ---------- shared coin ----------

TEST(SharedCoin, AllProcessesTerminateAndOftenAgree) {
  int agreements = 0;
  const int runs = 30;
  for (std::uint64_t seed = 1; seed <= runs; ++seed) {
    SharedCoinConfig cfg;
    cfg.n = 3;
    cfg.first_reg = 0;
    cfg.threshold_per_proc = 2;
    sim::Scheduler sched(seed);
    setup_shared_coin(sched, cfg, sim::Semantics::kAtomic);
    std::vector<int> outs(3, -1);
    for (int i = 0; i < 3; ++i) {
      sched.add_process("coin" + std::to_string(i),
                        [cfg, i, &outs](sim::Proc& p) {
                          return run_coin_proc(p, cfg, i, &outs);
                        });
    }
    sim::RandomAdversary adv(seed * 13);
    ASSERT_EQ(sched.run(adv, 2'000'000), sim::RunOutcome::kAllDone);
    for (const int o : outs) ASSERT_NE(o, -1);
    if (outs[0] == outs[1] && outs[1] == outs[2]) ++agreements;
  }
  // Weak shared coin: constant agreement probability.  Empirically the
  // drift coin agrees in the large majority of random runs.
  EXPECT_GE(agreements, runs / 2);
}

// ---------- Corollary 9 ----------

TEST(Corollary9, LinearizableGameRegistersBlockAPrime) {
  game::GameConfig gc;
  gc.n = 4;
  gc.max_rounds = 30;
  ConsensusConfig cc;
  cc.n = 4;
  const ComposedStats r = run_composed_scripted(
      gc, cc, sim::Semantics::kLinearizable,
      game::CommitStrategy::kRandomOrder, 5);
  EXPECT_FALSE(r.game_terminated);
  EXPECT_FALSE(r.consensus_started);
  EXPECT_FALSE(r.all_decided);
  EXPECT_EQ(r.game_rounds, 30);
}

TEST(Corollary9, WslGameRegistersLetAPrimeDecide) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    game::GameConfig gc;
    gc.n = 4;
    gc.max_rounds = 300;
    ConsensusConfig cc;
    cc.n = 4;
    const ComposedStats r = run_composed_scripted(
        gc, cc, sim::Semantics::kWriteStrong,
        game::CommitStrategy::kRandomOrder, seed);
    ASSERT_TRUE(r.game_terminated) << "seed " << seed;
    ASSERT_TRUE(r.consensus_started) << "seed " << seed;
    EXPECT_TRUE(r.all_decided) << "seed " << seed;
    EXPECT_TRUE(r.agreement) << "seed " << seed;
    EXPECT_TRUE(r.validity) << "seed " << seed;
  }
}

TEST(ConsensusRegression, TieDefector) {
  // Seed 29 of the composed-random sweep used to violate agreement: a
  // process whose own team already led the race compared the other team
  // against its own stale round, saw a spurious tie, coin-defected to the
  // trailing value and drove it two rounds ahead of the (frozen) winning
  // team.  The catch-up rule in consensus_body fixes this; this test
  // pins the exact failing execution plus a broad sweep around it.
  for (std::uint64_t seed = 25; seed <= 35; ++seed) {
    game::GameConfig gc;
    gc.n = 4;
    gc.max_rounds = 1000;
    ConsensusConfig cc;
    cc.n = 4;
    const ComposedStats r =
        run_composed_random(gc, cc, sim::Semantics::kAtomic, seed);
    ASSERT_TRUE(r.agreement) << "seed " << seed;
    ASSERT_TRUE(r.validity) << "seed " << seed;
  }
}

TEST(Corollary9Regression, ComposedRunsUseExactlyNProcesses) {
  // ComposedRun used to call setup_game — which adds its own n game
  // processes — AND add the n composed bodies, so A' ran with 2n
  // processes, two of each role.  The duplicate "host 0"s flipped
  // independent coins into C, and on schedules where the copies' coins
  // differed a player's line-23 read tripped the Lemma 18 runtime check
  // (~1.5% of random seeds at this config; 50/68/192 reproduced it).
  // With setup_game_registers the composed bodies are the only game
  // processes and every one of these runs must be clean.
  for (const std::uint64_t seed : {50u, 68u, 192u}) {
    game::GameConfig gc;
    gc.n = 4;
    gc.max_rounds = 64;
    ConsensusConfig cc;
    cc.n = 4;
    const ComposedStats r =
        run_composed_random(gc, cc, sim::Semantics::kAtomic, seed);
    EXPECT_TRUE(r.game_terminated) << "seed " << seed;
    EXPECT_TRUE(r.agreement && r.validity) << "seed " << seed;
  }
}

class ComposedRandomSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ComposedRandomSweep, SafetyNeverViolated) {
  game::GameConfig gc;
  gc.n = 4;
  gc.max_rounds = 1000;
  ConsensusConfig cc;
  cc.n = 4;
  const ComposedStats r = run_composed_random(
      gc, cc, sim::Semantics::kAtomic, GetParam());
  EXPECT_TRUE(r.agreement);
  EXPECT_TRUE(r.validity);
  EXPECT_TRUE(r.all_decided);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ComposedRandomSweep,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST(Corollary9, AtomicGameRegistersWorkUnderRandomSchedules) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    game::GameConfig gc;
    gc.n = 4;
    gc.max_rounds = 500;
    ConsensusConfig cc;
    cc.n = 4;
    const ComposedStats r = run_composed_random(
        gc, cc, sim::Semantics::kAtomic, seed);
    ASSERT_TRUE(r.game_terminated) << "seed " << seed;
    EXPECT_TRUE(r.all_decided) << "seed " << seed;
    EXPECT_TRUE(r.agreement && r.validity) << "seed " << seed;
  }
}

}  // namespace
}  // namespace rlt::consensus
