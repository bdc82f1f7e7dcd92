// Ablation studies: removing the design ingredients the paper calls out
// must break the corresponding guarantee, with a concrete certificate.
//
//  * Algorithm 2 line 9 / ∞-initialization of new_ts: "as we will see,
//    this is important for the write strong-linearization".  With unset
//    entries read as 0, a barely-started write looks lexicographically
//    tiny and Algorithm 3 linearizes it too early — ordering it before a
//    write whose value a later read proves came first.
//  * ABD's read write-back phase: without it, reads stop being
//    linearizable across readers (the classic new/old inversion between
//    two sequential reads by different processes).
//
// Plus failure injection: wait-freedom of the register constructions
// (stalled processes never block others) and crash tolerance boundaries.
#include <gtest/gtest.h>

#include <algorithm>

#include "checker/lin_checker.hpp"
#include "game/game.hpp"
#include "mp/abd.hpp"
#include "obs/metrics.hpp"
#include "registers/alg2_register.hpp"
#include "registers/alg3_linearizer.hpp"
#include "sim/adversary.hpp"
#include "sweep/scenario.hpp"
#include "util/rng.hpp"

namespace rlt {
namespace {

// ---------- Algorithm 2 / Algorithm 3: the ∞-initialization ----------

sim::Task alg2_one_write(sim::Proc& p, registers::SimAlg2Register& r,
                         int slot, history::Value v) {
  co_await r.write(p, slot, v);
}

sim::Task alg2_one_read(sim::Proc& p, registers::SimAlg2Register& r) {
  (void)co_await r.read(p);
}

/// The breaking schedule: w_a (slot 2) samples Val[0] early, then stalls;
/// w_b (slot 1) publishes (v_b, [0,1,0]); w_a resumes, samples Val[1]
/// AFTER w_b's publication, and publishes (v_a, [0,1,1]) — a LARGER
/// timestamp.  A late read returns v_a.  With ∞-initialization, w_a's
/// partial timestamp at w_b's publication is [0,∞,∞] > [0,1,0], so
/// Algorithm 3 correctly leaves w_a for later.  With the 0-ablation it
/// reads [0,0,0] <= [0,1,0], w_a is linearized BEFORE w_b, and the late
/// read's placement violates real time.
struct ZeroInitFixture {
  sim::Scheduler sched{1};
  registers::SimAlg2Register reg{sched, 3, 100, 0};

  history::History run() {
    sched.add_process("wa", [this](sim::Proc& p) {
      return alg2_one_write(p, reg, 2, 222);
    });
    sched.add_process("wb", [this](sim::Proc& p) {
      return alg2_one_write(p, reg, 1, 111);
    });
    sched.add_process("r", [this](sim::Proc& p) {
      return alg2_one_read(p, reg);
    });
    sim::FixedStepAdversary adv({
        0,              // w_a: begin, sample Val[0] (entry0 = 0)
        1, 1, 1, 1, 1,  // w_b: full write, publishes [0,1,0]
        0, 0, 0, 0,     // w_a: sample Val[1]=1, Val[2], publish [0,1,1]
        2, 2, 2, 2,     // read: returns w_a's value (max timestamp)
    });
    sched.run(adv, 100);
    return reg.hl_history();
  }
};

TEST(Alg2Ablation, InfiniteInitHandlesTheAdversarialSchedule) {
  ZeroInitFixture fx;
  const history::History h = fx.run();
  const auto ver = registers::verify_alg3_wsl(fx.reg.trace(), h);
  EXPECT_TRUE(ver.ok) << ver.error;
}

TEST(Alg2Ablation, ZeroInitBreaksAlgorithm3) {
  ZeroInitFixture fx;
  const history::History h = fx.run();
  registers::Alg2Trace ablated = fx.reg.trace();
  ablated.infinite_init = false;
  const auto ver = registers::verify_alg3_wsl(ablated, h);
  ASSERT_FALSE(ver.ok)
      << "the 0-initialization ablation should break Algorithm 3";
  EXPECT_NE(ver.error.find("not a linearization"), std::string::npos)
      << ver.error;
}

TEST(Alg2Ablation, OnePassCheckAgreesWithTheVerifierOnTheFixture) {
  ZeroInitFixture fx;
  const history::History h = fx.run();
  EXPECT_TRUE(registers::check_alg3_wsl(fx.reg.trace(), h).ok);
  registers::Alg2Trace ablated = fx.reg.trace();
  ablated.infinite_init = false;
  const checker::SequentialCheck one = registers::check_alg3_wsl(ablated, h);
  ASSERT_FALSE(one.ok);
  EXPECT_NE(one.error.find("not a linearization"), std::string::npos)
      << one.error;
}

TEST(Alg2Ablation, AblatedWitnessCountsOneMissAndTheSearchesClassifyOk) {
  // The history is correct; only the ablated witness cannot certify it.
  // A miss hands the run to the searches, which accept it.
  ZeroInitFixture fx;
  const history::History h = fx.run();
  registers::Alg2Trace ablated = fx.reg.trace();
  ablated.infinite_init = false;
  ASSERT_FALSE(registers::check_alg3_wsl(ablated, h).ok);
  constexpr auto kMisses =
      static_cast<std::size_t>(obs::Counter::kCheckerWitnessMisses);
  ASSERT_EQ(obs::counter_name(obs::Counter::kCheckerWitnessMisses),
            "checker.witness_misses");
  obs::set_enabled(true);
  const obs::CounterDelta before = obs::thread_counters();
  sweep::ScenarioResult out;
  sweep::classify_run(h, sweep::RunEnd::kCompleted, "", out,
                      /*online=*/false, sweep::Witness::kMissed);
  obs::CounterDelta misses = obs::thread_counters();
  obs::set_enabled(false);
  misses -= before;
  EXPECT_EQ(misses.v[kMisses], 1u);
  EXPECT_EQ(out.verdict, sweep::Verdict::kOk) << out.detail;
  EXPECT_TRUE(out.detail.empty());
}

sim::Task alg2_two_reads(sim::Proc& p, registers::SimAlg2Register& r) {
  (void)co_await r.read(p);
  (void)co_await r.read(p);
}

TEST(Alg2Ablation, ZeroInitFailsSomewhereInRandomSweeps) {
  // The ablation's unsoundness is not exotic: with 4 concurrent writers,
  // random schedules hit it at a rate of roughly 1 in 12 (measured:
  // 26/300); the ∞-initialization must stay clean on every one of them.
  int failures = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    sim::Scheduler sched(seed);
    registers::SimAlg2Register reg(sched, 4, 100, 0);
    for (int w = 0; w < 4; ++w) {
      sched.add_process("w", [&reg, w](sim::Proc& p) {
        return alg2_one_write(p, reg, w, 100 * (w + 1));
      });
    }
    sched.add_process("r",
                      [&reg](sim::Proc& p) { return alg2_two_reads(p, reg); });
    sim::RandomAdversary adv(seed * 11 + 3);
    sched.run(adv, 100000);
    const auto clean = registers::verify_alg3_wsl(reg.trace(),
                                                  reg.hl_history());
    ASSERT_TRUE(clean.ok) << "seed " << seed << ": " << clean.error;
    registers::Alg2Trace ablated = reg.trace();
    ablated.infinite_init = false;
    if (!registers::verify_alg3_wsl(ablated, reg.hl_history()).ok) {
      ++failures;
    }
  }
  EXPECT_GT(failures, 5) << "expected the ablation to fail on some schedules";
}

// ---------- ABD: the read write-back phase ----------

/// Drives two sequential reads by different readers that straddle a write
/// which has reached only one server.  Without write-back, reader A can
/// see the new value from that one server while the later reader B
/// queries a quorum that missed it — a new/old inversion.
TEST(AbdAblation, NoWriteBackAllowsNewOldInversion) {
  int violations = 0;
  for (std::uint64_t seed = 1; seed <= 80 && violations == 0; ++seed) {
    mp::Network net;
    mp::AbdRegister reg(net, 3, 0, 0, /*read_write_back=*/false);
    util::Rng rng(seed);
    // Start a write but deliver only SOME of its messages.
    const int w = reg.begin_write(7);
    // Reader A reads (may catch the fresh value), then reader B.
    const int ra = reg.begin_read(1);
    for (int i = 0; i < 6; ++i) net.deliver_random(rng);
    if (!reg.done(ra)) continue;
    const int rb = reg.begin_read(2);
    for (int i = 0; i < 2000 && !reg.done(rb); ++i) net.deliver_random(rng);
    if (!reg.done(rb)) continue;
    while (!reg.done(w)) net.deliver_random(rng);
    const auto lin = checker::check_linearizable(reg.hl_history());
    if (!lin.ok) ++violations;
  }
  EXPECT_GT(violations, 0)
      << "without write-back some schedule must violate linearizability";
}

TEST(AbdAblation, WithWriteBackTheSameSchedulesStayLinearizable) {
  for (std::uint64_t seed = 1; seed <= 80; ++seed) {
    mp::Network net;
    mp::AbdRegister reg(net, 3, 0, 0, /*read_write_back=*/true);
    util::Rng rng(seed);
    const int w = reg.begin_write(7);
    const int ra = reg.begin_read(1);
    for (int i = 0; i < 6; ++i) net.deliver_random(rng);
    (void)ra;
    const int rb = reg.begin_read(2);
    for (int i = 0; i < 4000 && !(reg.done(rb) && reg.done(w)); ++i) {
      net.deliver_random(rng);
    }
    const auto lin = checker::check_linearizable(reg.hl_history());
    ASSERT_TRUE(lin.ok) << "seed " << seed << ": " << lin.error;
  }
}

// ---------- Failure injection: wait-freedom ----------
//
// The stalling adversary is sim::RandomAdversary with a stalled set (it
// also backs the sweep engine's --faults stall axis and the termination
// lab); these tests keep probing wait-freedom through it.

TEST(WaitFreedom, Alg2OpsCompleteDespiteStalledWriters) {
  // Writers 1 and 2 stall after their first step; writer 0 and the
  // reader must still finish (Algorithm 2 is wait-free: no helping or
  // locking).
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    sim::Scheduler sched(seed);
    registers::SimAlg2Register reg(sched, 3, 100, 0);
    for (int w = 0; w < 3; ++w) {
      sched.add_process("w", [&reg, w](sim::Proc& p) {
        return alg2_one_write(p, reg, w, 100 * (w + 1));
      });
    }
    sched.add_process("r",
                      [&reg](sim::Proc& p) { return alg2_one_read(p, reg); });
    // Let the doomed writers take one step each so their ops are live.
    sched.apply(sim::Action::step(1));
    sched.apply(sim::Action::step(2));
    sim::RandomAdversary adv(seed * 5, {1, 2});
    sched.run(adv, 100000);
    EXPECT_TRUE(sched.process_done(0)) << "seed " << seed;
    EXPECT_TRUE(sched.process_done(3)) << "seed " << seed;
    // The stalled writes are pending in the history; still linearizable.
    const auto lin = checker::check_linearizable(reg.hl_history());
    EXPECT_TRUE(lin.ok) << lin.error;
  }
}

TEST(WaitFreedom, GamePlayersStallingOnlyStallsTheGameRound) {
  // Stalling all players mid-round leaves hosts unable to pass the R2
  // check — but host OPERATIONS never block (their reads return).  This
  // checks the substrate: no deadlock, history stays valid.
  game::GameConfig cfg;
  cfg.n = 4;
  cfg.max_rounds = 3;
  sim::Scheduler sched(3);
  game::GameState state(cfg);
  game::setup_game(sched, sim::Semantics::kAtomic, state);
  sim::RandomAdversary adv(17, {2, 3});
  sched.run(adv, 20000);
  // Hosts exit (players never incremented R2), players still in round 1.
  EXPECT_TRUE(state.procs[0].returned);
  EXPECT_TRUE(state.procs[1].returned);
  EXPECT_FALSE(state.procs[2].returned);
}

}  // namespace
}  // namespace rlt
