// Tests for the three history checkers: linearizability (Definition 2),
// write strong-linearizability over history trees (Definition 4), and
// strong linearizability (Definition 3) — including the strictness of
// the containment  strong  ⊊  write-strong  ⊊  linearizable.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "checker/lin_checker.hpp"
#include "checker/strong_checker.hpp"
#include "checker/tree_common.hpp"
#include "checker/wsl_checker.hpp"
#include "sim/adversary.hpp"
#include "sim/scheduler.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace rlt::checker {
namespace {

using history::History;
using history::kNoTime;
using history::OpRecord;

sim::Task write_twice_then_read(sim::Proc& p, Value first) {
  co_await p.write(0, first);
  co_await p.write(0, first + 1);
  (void)co_await p.read(0);
}

int add(History& h, int process, OpKind kind, Value v, Time invoke,
        Time response, int reg = 0) {
  OpRecord op;
  op.process = process;
  op.reg = reg;
  op.kind = kind;
  op.value = v;
  op.invoke = invoke;
  op.response = response;
  return h.add(op);
}

// ---------- linearizability ----------

TEST(LinChecker, MultiRegisterComposition) {
  History h;
  add(h, 0, OpKind::kWrite, 1, 1, 4, /*reg=*/0);
  add(h, 1, OpKind::kWrite, 2, 2, 5, /*reg=*/1);
  add(h, 0, OpKind::kRead, 2, 6, 8, /*reg=*/1);
  add(h, 1, OpKind::kRead, 1, 7, 9, /*reg=*/0);
  const LinCheckResult r = check_linearizable(h);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.order.size(), 4u);
}

TEST(LinChecker, DetectsPerRegisterViolation) {
  History h;
  add(h, 0, OpKind::kWrite, 1, 1, 2, /*reg=*/0);
  add(h, 1, OpKind::kRead, 99, 3, 4, /*reg=*/0);  // impossible value
  const LinCheckResult r = check_linearizable(h);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("R0"), std::string::npos);
}

TEST(LinChecker, MergedWitnessRespectsCrossRegisterRealTime) {
  History h;
  add(h, 0, OpKind::kWrite, 1, 1, 2, /*reg=*/0);
  add(h, 1, OpKind::kWrite, 2, 5, 6, /*reg=*/1);
  const LinCheckResult r = check_linearizable(h);
  ASSERT_TRUE(r.ok);
  // op0 precedes op1 in real time, so it must come first globally.
  EXPECT_EQ(r.order, (std::vector<int>{0, 1}));
}

TEST(LinChecker, PrefixClosedness) {
  History h;
  add(h, 0, OpKind::kWrite, 1, 1, 6);
  add(h, 1, OpKind::kRead, 1, 2, 4);
  add(h, 2, OpKind::kRead, 1, 7, 9);
  EXPECT_TRUE(check_all_prefixes_linearizable(h).ok);
}

TEST(LinChecker, HistoriesStartingAtTimeZeroAreHandled) {
  // External (streamed) histories may start their clock at 0 — a time no
  // inclusive unsigned cutoff can exclude.  Every checker must accept a
  // clean t=0 history and reject a violating one; the tree search, which
  // cuts each prefix at its last event's time, must never build a wrong
  // one-event "empty" view.
  History good;
  add(good, 0, OpKind::kWrite, 1, 0, 2);  // invoked at t=0
  add(good, 1, OpKind::kRead, 1, 3, 4);
  EXPECT_TRUE(check_linearizable(good).ok);
  EXPECT_TRUE(check_all_prefixes_linearizable(good).ok);
  EXPECT_TRUE(check_write_strong_linearizable(good).ok);
  EXPECT_TRUE(check_strong_linearizable(good).ok);

  History bad;
  add(bad, 0, OpKind::kWrite, 1, 0, 2);
  add(bad, 1, OpKind::kRead, 99, 3, 4);
  EXPECT_FALSE(check_linearizable(bad).ok);
  EXPECT_FALSE(check_write_strong_linearizable(bad).ok);
}

// ---------- the shared tree search ----------

TEST(TreeSearch, BothCheckersEnforceTheSolverOpLimit) {
  // kMaxSolverOps concurrent writes are the most either checker takes.
  // One more would hand the strong checker's ordered-selection enumerator
  // more candidates than its 64-bit mask has bits; the shared input
  // checks reject the run first.
  const auto concurrent_writes = [](int n) {
    History h;
    for (int i = 0; i < n; ++i) {
      add(h, i, OpKind::kWrite, i + 1, static_cast<Time>(i + 1),
          static_cast<Time>(n + i + 1));
    }
    return h;
  };
  const History over = concurrent_writes(static_cast<int>(kMaxSolverOps) + 1);
  EXPECT_THROW((void)check_write_strong_linearizable(over),
               util::InvariantViolation);
  EXPECT_THROW((void)check_strong_linearizable(over),
               util::InvariantViolation);

  // At the limit, a sequential run is checked normally.
  History at_limit;
  for (int i = 0; i < static_cast<int>(kMaxSolverOps); ++i) {
    add(at_limit, 0, OpKind::kWrite, i + 1, static_cast<Time>(2 * i + 1),
        static_cast<Time>(2 * i + 2));
  }
  EXPECT_TRUE(check_write_strong_linearizable(at_limit).ok);
  EXPECT_TRUE(check_strong_linearizable(at_limit).ok);
}

TEST(TreeSearch, EnumeratorRejectsMoreCandidatesThanMaskBits) {
  const auto take_first = [](const std::vector<int>&) { return true; };
  EXPECT_TRUE(detail::for_each_ordered_selection(
      std::vector<int>(kMaxSolverOps, 0), take_first));
  EXPECT_THROW((void)detail::for_each_ordered_selection(
                   std::vector<int>(kMaxSolverOps + 1, 0), take_first),
               util::InvariantViolation);
}

// ---------- write strong-linearizability ----------

TEST(WslChecker, SequentialHistoryIsWsl) {
  History h;
  add(h, 0, OpKind::kWrite, 1, 1, 2);
  add(h, 1, OpKind::kRead, 1, 3, 4);
  const WslCheckResult r = check_write_strong_linearizable(h);
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(r.write_orders.size(), 1u);
  EXPECT_EQ(r.write_orders[0], (std::vector<int>{0}));
}

TEST(WslChecker, ConcurrentWritesSingleRunIsWsl) {
  History h;
  add(h, 0, OpKind::kWrite, 1, 1, 10);
  add(h, 1, OpKind::kWrite, 2, 2, 12);
  add(h, 2, OpKind::kRead, 1, 13, 15);
  EXPECT_TRUE(check_write_strong_linearizable(h).ok);
}

/// The paper's core counterexample shape (Theorem 13 / Figure 4): two
/// extensions of a common prefix G that force opposite orders of two
/// writes that were concurrent in G, where one of them completed in G.
TEST(WslChecker, Theorem13BranchingTreeIsNotWsl) {
  // G: w1 by p0 pending [1..), w2 by p1 completes [2..5].
  // H1: w1 completes at 8; read by p2 [10..12] -> w2's value
  //     (forces w1 before w2: the read starts after w1 completed).
  // H2: w1 completes at 8; read by p2 [10..12] -> w1's value
  //     (forces w2 before w1: the read starts after w2 completed).
  const auto build = [](Value read_value) {
    History h;
    add(h, 0, OpKind::kWrite, 1, 1, 8);
    add(h, 1, OpKind::kWrite, 2, 2, 5);
    add(h, 2, OpKind::kRead, read_value, 10, 12);
    return h;
  };
  const History h1 = build(2);
  const History h2 = build(1);
  EXPECT_TRUE(check_linearizable(h1).ok);
  EXPECT_TRUE(check_linearizable(h2).ok);
  EXPECT_TRUE(check_write_strong_linearizable(h1).ok);
  EXPECT_TRUE(check_write_strong_linearizable(h2).ok);
  const WslCheckResult r =
      check_write_strong_linearizable(std::vector<History>{h1, h2});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.explanation.find("no write strong-linearization"),
            std::string::npos);
}

TEST(WslChecker, CompatibleBranchesAreWsl) {
  // Both extensions force the SAME write order: fine.
  const auto build = [](Time read_start) {
    History h;
    add(h, 0, OpKind::kWrite, 1, 1, 8);
    add(h, 1, OpKind::kWrite, 2, 2, 5);
    add(h, 2, OpKind::kRead, 2, read_start, read_start + 2);
    return h;
  };
  const WslCheckResult r = check_write_strong_linearizable(
      std::vector<History>{build(10), build(20)});
  EXPECT_TRUE(r.ok);
}

TEST(WslChecker, PendingWriteReadForcesCommitment) {
  // A read returns a pending write's value; the write order must commit
  // the pending write at the read's response — and the later branch must
  // agree with it.
  History h;
  add(h, 0, OpKind::kWrite, 7, 1, kNoTime);
  add(h, 1, OpKind::kRead, 7, 2, 4);
  add(h, 2, OpKind::kRead, 7, 5, 6);
  const WslCheckResult r = check_write_strong_linearizable(h);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.write_orders[0], (std::vector<int>{0}));
}

TEST(WslChecker, SwmrHistoriesAreAlwaysWsl) {
  // Theorem 14 shape: single-writer histories (writes never concurrent).
  History h;
  add(h, 0, OpKind::kWrite, 1, 1, 4);
  add(h, 1, OpKind::kRead, 1, 2, 6);
  add(h, 0, OpKind::kWrite, 2, 7, 12);
  add(h, 2, OpKind::kRead, 1, 8, 10);  // old value, overlapping write
  add(h, 1, OpKind::kRead, 2, 13, 14);
  EXPECT_TRUE(check_write_strong_linearizable(h).ok);
}

TEST(WslChecker, WslImpliesLinearizable) {
  // A non-linearizable run must be rejected by the WSL checker too.
  History h;
  add(h, 0, OpKind::kWrite, 1, 1, 2);
  add(h, 1, OpKind::kRead, 99, 3, 4);
  EXPECT_FALSE(check_linearizable(h).ok);
  EXPECT_FALSE(check_write_strong_linearizable(h).ok);
}

/// A random single-register history of at most `max_ops` ops over up to
/// four sequential processes, with pending ops.  With `repeat`, values
/// come from {0, 1, 2}, so writes repeat each other and the initial
/// value; otherwise each write is distinct and a read returns the initial
/// value, an invoked write's, or (rarely) one nobody wrote.
History random_one_run(util::Rng& rng, int max_ops, bool repeat) {
  History h;
  h.set_initial(0, 0);
  const int processes = 1 + static_cast<int>(rng.uniform(4));
  const int target = 1 + static_cast<int>(
                             rng.uniform(static_cast<std::uint64_t>(max_ops)));
  std::vector<int> open(static_cast<std::size_t>(processes), -1);
  std::vector<Value> invoked_writes;
  int started = 0;
  Time now = 0;
  while (true) {
    std::vector<int> can_invoke;
    std::vector<int> can_respond;
    for (int p = 0; p < processes; ++p) {
      if (open[static_cast<std::size_t>(p)] >= 0) {
        can_respond.push_back(p);
      } else if (started < target) {
        can_invoke.push_back(p);
      }
    }
    if (can_invoke.empty() && can_respond.empty()) break;
    if (can_invoke.empty() && rng.chance(1, 4)) break;  // pending tails
    ++now;
    if (!can_invoke.empty() && (can_respond.empty() || rng.chance(1, 2))) {
      const int p = can_invoke[rng.uniform(can_invoke.size())];
      OpRecord op;
      op.process = p;
      op.reg = 0;
      op.kind = rng.chance(1, 2) ? OpKind::kWrite : OpKind::kRead;
      op.value = repeat ? static_cast<Value>(rng.uniform(3)) : started + 1;
      op.invoke = now;
      op.response = kNoTime;
      if (op.kind == OpKind::kWrite) invoked_writes.push_back(op.value);
      open[static_cast<std::size_t>(p)] = h.add(op);
      ++started;
    } else {
      const int p = can_respond[rng.uniform(can_respond.size())];
      const int id = open[static_cast<std::size_t>(p)];
      Value result = static_cast<Value>(rng.uniform(3));
      if (!repeat) {
        const std::uint64_t pick = rng.uniform(invoked_writes.size() + 2);
        result = pick == 0   ? 0
                 : pick == 1 ? 99
                             : invoked_writes[pick - 2];
      }
      h.complete_op(id, result, now);
      open[static_cast<std::size_t>(p)] = -1;
    }
  }
  return h;
}

/// A modeled-lin run: each of `p` processes writes twice, then reads;
/// `stall` freezes a strict minority after one step, and `max_actions`
/// may cut the run short.
History modeled_lin_run(int p, bool stall, std::uint64_t max_actions,
                        std::uint64_t seed) {
  sim::Scheduler sched(seed);
  sched.add_register(0, sim::Semantics::kLinearizable, 0);
  for (int i = 0; i < p; ++i) {
    sched.add_process("p" + std::to_string(i), [i](sim::Proc& pr) {
      return write_twice_then_read(pr, 100 * (i + 1));
    });
  }
  const std::vector<sim::ProcessId> stalled =
      stall ? sim::pick_strict_minority(p, seed * 31 + 7)
            : std::vector<sim::ProcessId>{};
  for (const sim::ProcessId v : stalled) sched.apply(sim::Action::step(v));
  sim::RandomAdversary adv(seed * 7 + 1, stalled);
  (void)sched.run(adv, max_actions);
  return sched.global_history();
}

/// One run is write strongly-linearizable iff it is linearizable
/// (sweep/scenario.hpp states the proof), so the tree search on a single
/// history must agree with `check_linearizable`.  Definition 4 bites
/// only on sets of runs: Theorem13BranchingTreeIsNotWsl is the set-level
/// counterpart.
TEST(WslChecker, OneRunIsWslIffLinearizable) {
  util::Rng rng(20261020);
  int linearizable = 0;
  int pending = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const bool repeat = trial % 2 == 0;
    const History h = random_one_run(rng, /*max_ops=*/8, repeat);
    ASSERT_LE(h.size(), 8u);
    const bool lin = check_linearizable(h).ok;
    const WslCheckResult wsl = check_write_strong_linearizable(h);
    ASSERT_EQ(wsl.ok, lin) << "trial " << trial << ":\n"
                           << h.to_string() << wsl.explanation;
    linearizable += lin ? 1 : 0;
    pending += h.completed_count() < h.size() ? 1 : 0;
  }
  EXPECT_GT(linearizable, 4000);
  EXPECT_LT(linearizable, 16000);
  EXPECT_GT(pending, 4000);

  // The merely-linearizable model, which Theorem 6 defeats as a set of
  // runs, passes run by run: complete, stalled and budget-cut.
  int runs = 0;
  for (int p = 3; p <= 5; ++p) {
    for (const bool stall : {false, true}) {
      for (const std::uint64_t max_actions : {12u, 25u, 1000u}) {
        for (std::uint64_t seed = 0; seed < 6; ++seed) {
          const History h = modeled_lin_run(p, stall, max_actions, seed);
          ASSERT_TRUE(check_linearizable(h).ok);
          EXPECT_TRUE(check_write_strong_linearizable(h).ok)
              << "p" << p << (stall ? " stall" : "") << " max_actions "
              << max_actions << " seed " << seed << ":\n"
              << h.to_string();
          ++runs;
        }
      }
    }
  }
  EXPECT_EQ(runs, 108);
}

// ---------- strong linearizability ----------

TEST(StrongChecker, SequentialHistoryIsStrong) {
  History h;
  add(h, 0, OpKind::kWrite, 1, 1, 2);
  add(h, 1, OpKind::kRead, 1, 3, 4);
  EXPECT_TRUE(check_strong_linearizable(h).ok);
}

TEST(StrongChecker, Theorem13TreeIsNotStrong) {
  // Strong linearizability implies WSL, so Theorem 13's tree must fail
  // the strong checker as well.
  const auto build = [](Value read_value) {
    History h;
    add(h, 0, OpKind::kWrite, 1, 1, 8);
    add(h, 1, OpKind::kWrite, 2, 2, 5);
    add(h, 2, OpKind::kRead, read_value, 10, 12);
    return h;
  };
  const StrongCheckResult r = check_strong_linearizable(
      std::vector<History>{build(2), build(1)});
  EXPECT_FALSE(r.ok);
}

/// A single history where strong linearizability survives only by
/// committing a still-pending read EARLY with an invented response
/// (Definition 2 allows adding matching responses): when w2 responds,
/// the overlapping read must be frozen before w2 — guessing it will
/// return w1's value.  In a single run the guess can be made to match.
TEST(StrongChecker, PendingReadCanBeCommittedEarlyWithInventedResponse) {
  History h;
  h.set_initial(0, 0);
  add(h, 0, OpKind::kWrite, 1, 1, 4);    // w1 completes early
  add(h, 1, OpKind::kWrite, 2, 5, 12);   // w2 completes before r responds
  add(h, 2, OpKind::kRead, 1, 6, 20);    // r -> OLD value, overlaps w2
  ASSERT_TRUE(check_linearizable(h).ok);
  EXPECT_TRUE(check_write_strong_linearizable(h).ok);
  EXPECT_TRUE(check_strong_linearizable(h).ok);
}

/// Separation witness (the content of Corollary 11): a two-branch tree
/// that is write strongly-linearizable but NOT strongly linearizable.
/// Common prefix G: w1 completed, w2 completed, read r still pending and
/// overlapping w2.  Branch A: r returns the old value (r must sit BEFORE
/// w2).  Branch B: r returns the new value (r must sit AFTER w2).  A
/// strong linearization function must fix r's position relative to w2 at
/// w2's response — inside G, before the branches diverge — so one branch
/// always contradicts it.  Write strong-linearizability only fixes the
/// write order [w1, w2], which both branches share.
TEST(StrongChecker, BranchingReadsSeparateStrongFromWsl) {
  const auto build = [](Value read_value) {
    History h;
    h.set_initial(0, 0);
    add(h, 0, OpKind::kWrite, 1, 1, 4);
    add(h, 1, OpKind::kWrite, 2, 5, 12);
    add(h, 2, OpKind::kRead, read_value, 6, 20);
    return h;
  };
  const History ha = build(1);  // old value
  const History hb = build(2);  // new value
  ASSERT_TRUE(check_linearizable(ha).ok);
  ASSERT_TRUE(check_linearizable(hb).ok);
  const auto wsl = check_write_strong_linearizable(
      std::vector<History>{ha, hb});
  EXPECT_TRUE(wsl.ok) << wsl.explanation;
  const auto strong =
      check_strong_linearizable(std::vector<History>{ha, hb});
  EXPECT_FALSE(strong.ok);
}

TEST(StrongChecker, PendingOpsMayBeLinearizedWithInventedResponses) {
  // A pending read may enter f(G) with the value its position implies.
  History h;
  add(h, 0, OpKind::kWrite, 1, 1, 4);
  add(h, 1, OpKind::kRead, 0, 2, kNoTime);  // pending forever
  EXPECT_TRUE(check_strong_linearizable(h).ok);
}

TEST(StrongChecker, StrongImpliesWslOnRandomShapes) {
  // Hand-picked small shapes: whenever strong succeeds, WSL must too.
  std::vector<History> shapes;
  {
    History h;
    add(h, 0, OpKind::kWrite, 1, 1, 6);
    add(h, 1, OpKind::kRead, 1, 2, 8);
    shapes.push_back(h);
  }
  {
    History h;
    add(h, 0, OpKind::kWrite, 1, 1, 10);
    add(h, 1, OpKind::kWrite, 2, 12, 14);
    add(h, 2, OpKind::kRead, 2, 15, 16);
    shapes.push_back(h);
  }
  for (const History& h : shapes) {
    if (check_strong_linearizable(h).ok) {
      EXPECT_TRUE(check_write_strong_linearizable(h).ok);
    }
  }
}

}  // namespace
}  // namespace rlt::checker
