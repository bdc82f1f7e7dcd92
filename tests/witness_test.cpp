// Witness-first checking (sweep/scenario.hpp): each family's own
// linearization witness — Algorithm 3 for Algorithm 2, tag order for
// Algorithm 4 and ABD, op-id order for the atomic model, the commit log
// for the WSL model — held against the searches it stands in for.  A
// witness may only accept where the searches accept, and on the paper's
// constructions it must accept.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "checker/lin_checker.hpp"
#include "checker/spec.hpp"
#include "checker/wsl_checker.hpp"
#include "mp/abd.hpp"
#include "obs/metrics.hpp"
#include "registers/alg2_register.hpp"
#include "registers/alg3_linearizer.hpp"
#include "registers/alg4_register.hpp"
#include "sim/adversary.hpp"
#include "sim/regmodel.hpp"
#include "sim/scheduler.hpp"
#include "sweep/scenario.hpp"
#include "util/rng.hpp"

namespace rlt {
namespace {

using history::History;
using history::kNoTime;
using history::OpKind;
using history::OpRecord;
using history::Time;
using history::Value;

// ---------- random runs of the implemented registers ----------

template <class Reg>
sim::Task write_then_read(sim::Proc& p, Reg& r, int slot, int writes) {
  for (int i = 0; i < writes; ++i) {
    co_await r.write(p, slot, 100 * (slot + 1) + i);
  }
  (void)co_await r.read(p);
}

/// One seeded random run of `reg`: each of `p` processes writes `writes`
/// times, then reads.  With `stall`, a seeded strict minority takes one
/// step and is never scheduled again, as on the sweep's stall axis.
template <class Reg>
void run_random(sim::Scheduler& sched, Reg& reg, int p, int writes,
                bool stall, std::uint64_t seed) {
  for (int i = 0; i < p; ++i) {
    sched.add_process("p" + std::to_string(i),
                      [&reg, i, writes](sim::Proc& pr) {
                        return write_then_read(pr, reg, i, writes);
                      });
  }
  const std::vector<sim::ProcessId> stalled =
      stall ? sim::pick_strict_minority(p, seed * 31 + 7)
            : std::vector<sim::ProcessId>{};
  for (const sim::ProcessId v : stalled) sched.apply(sim::Action::step(v));
  sim::RandomAdversary adv(seed * 7 + 1, stalled);
  (void)sched.run(adv, 100000);
}

TEST(Alg3OnePass, AgreesWithTheVerifierOnRandomRunsAndTheirAblations) {
  int runs = 0;
  int ablated_misses = 0;
  for (int p = 2; p <= 5; ++p) {
    for (int writes = 1; writes <= 3; ++writes) {
      for (const bool stall : {false, true}) {
        for (std::uint64_t seed = 0; seed < 22; ++seed) {
          sim::Scheduler sched(seed);
          registers::SimAlg2Register reg(sched, p, 100, 0);
          run_random(sched, reg, p, writes, stall, seed);
          const History& h = reg.hl_history();
          const std::string where = "p" + std::to_string(p) + " w" +
                                    std::to_string(writes) +
                                    (stall ? " stall" : "") + " seed " +
                                    std::to_string(seed);
          const registers::Alg3Verification oracle =
              registers::verify_alg3_wsl(reg.trace(), h);
          const checker::SequentialCheck one =
              registers::check_alg3_wsl(reg.trace(), h);
          ASSERT_TRUE(oracle.ok) << where << ": " << oracle.error;
          ASSERT_EQ(one.ok, oracle.ok) << where << ": " << one.error;

          registers::Alg2Trace ablated = reg.trace();
          ablated.infinite_init = false;
          const bool ablated_one = registers::check_alg3_wsl(ablated, h).ok;
          ASSERT_EQ(ablated_one, registers::verify_alg3_wsl(ablated, h).ok)
              << where << " (ablated)";
          if (!ablated_one) ++ablated_misses;
          ++runs;
        }
      }
    }
  }
  EXPECT_GE(runs, 500);
  EXPECT_GT(ablated_misses, 0) << "the ablation should miss somewhere";
}

TEST(Witness, Alg2AndAlg4WitnessesAcceptAndTheSearchesAgree) {
  for (int p = 2; p <= 5; ++p) {
    for (int writes = 1; writes <= 2; ++writes) {
      for (const bool stall : {false, true}) {
        for (std::uint64_t seed = 0; seed < 8; ++seed) {
          const std::string where = "p" + std::to_string(p) + " w" +
                                    std::to_string(writes) +
                                    (stall ? " stall" : "") + " seed " +
                                    std::to_string(seed);
          {
            sim::Scheduler sched(seed);
            registers::SimAlg2Register reg(sched, p, 100, 0);
            run_random(sched, reg, p, writes, stall, seed);
            const History& h = reg.hl_history();
            const checker::SequentialCheck w =
                registers::check_alg3_wsl(reg.trace(), h);
            EXPECT_TRUE(w.ok) << "alg2 " << where << ": " << w.error;
            EXPECT_TRUE(checker::check_linearizable(h).ok) << where;
            EXPECT_TRUE(checker::check_write_strong_linearizable(h).ok)
                << where;
          }
          {
            sim::Scheduler sched(seed);
            registers::SimAlg4Register reg(sched, p, 100, 0);
            run_random(sched, reg, p, writes, stall, seed);
            const History& h = reg.hl_history();
            const checker::SequentialCheck w =
                checker::check_tag_order(h, reg.tags());
            EXPECT_TRUE(w.ok) << "alg4 " << where << ": " << w.error;
            EXPECT_TRUE(checker::check_linearizable(h).ok) << where;
          }
        }
      }
    }
  }
}

// ---------- ABD under faults ----------

enum class AbdFault { kNone, kMinority, kLossy, kRecovery };

struct AbdRun {
  History h;
  std::vector<std::uint64_t> tags;
};

/// One seeded random ABD run: node 0 writes `writes` values, every node
/// reads twice, and op starts and deliveries are drawn at random.  The
/// fault crashes one node for good (kMinority) or until a later moment
/// (kRecovery: its op in flight is abandoned), or drops a fifth of all
/// messages (kLossy); the last two arm retransmission.
AbdRun random_abd(int n, int writes, AbdFault fault, bool write_back,
                  std::uint64_t seed) {
  mp::Network net;
  mp::AbdRegister reg(net, n, /*writer=*/0, /*initial=*/0, write_back);
  util::Rng rng(seed);
  if (fault == AbdFault::kLossy) net.make_unreliable(200, 0, rng.next_u64());
  if (fault == AbdFault::kLossy || fault == AbdFault::kRecovery) {
    reg.enable_fault_tolerance(rng.next_u64());
  }
  const bool crashes =
      n >= 3 && (fault == AbdFault::kMinority || fault == AbdFault::kRecovery);
  const auto victim =
      static_cast<mp::NodeId>(rng.uniform(static_cast<std::uint64_t>(n)));
  const std::uint64_t crash_at = rng.uniform(40);
  const std::uint64_t recover_at = crash_at + 1 + rng.uniform(40);
  bool crashed = false;
  bool recovered = fault != AbdFault::kRecovery;
  std::vector<int> writes_left(static_cast<std::size_t>(n), 0);
  std::vector<int> reads_left(static_cast<std::size_t>(n), 2);
  std::vector<int> token(static_cast<std::size_t>(n), -1);
  writes_left[0] = writes;
  for (std::uint64_t it = 0; it < 100000; ++it) {
    const auto vi = static_cast<std::size_t>(victim);
    if (crashes && !crashed && it >= crash_at) {
      crashed = true;
      net.crash(victim);
      if (fault == AbdFault::kRecovery) {
        reg.abandon_ops_on(victim);
        if (token[vi] >= 0 && !reg.done(token[vi])) {
          writes_left[vi] = 0;  // an abandoned op retires its program
          reads_left[vi] = 0;
        }
        token[vi] = -1;
      }
    }
    if (crashed && !recovered && it >= recover_at) {
      recovered = true;
      net.recover(victim);
      reg.on_recover(victim);
    }
    reg.tick_retransmit(it);
    std::vector<int> startable;
    for (int i = 0; i < n; ++i) {
      const auto ii = static_cast<std::size_t>(i);
      if (token[ii] >= 0 && reg.done(token[ii])) token[ii] = -1;
      if (!net.crashed(i) && token[ii] < 0 &&
          writes_left[ii] + reads_left[ii] > 0) {
        startable.push_back(i);
      }
    }
    const bool flying = net.in_flight() > 0;
    if (startable.empty() && !flying) {
      if (const auto due = reg.next_retransmit_due()) {
        it = std::max(it, *due - 1);
        continue;
      }
      if (crashed && !recovered) {
        it = std::max(it, recover_at - 1);
        continue;
      }
      break;
    }
    if (!startable.empty() && (!flying || rng.chance(1, 3))) {
      const int i = startable[rng.uniform(startable.size())];
      const auto ii = static_cast<std::size_t>(i);
      if (writes_left[ii] > 0) {
        token[ii] = reg.begin_write(1000 + writes_left[ii]--);
      } else {
        token[ii] = reg.begin_read(i);
        --reads_left[ii];
      }
    } else {
      net.deliver_random(rng);
    }
  }
  return AbdRun{reg.hl_history(), reg.tags()};
}

TEST(Witness, AbdTagOrderAcceptsUnderFaultsAndTheSearchesAgree) {
  int pending_ops = 0;
  for (const AbdFault fault : {AbdFault::kNone, AbdFault::kMinority,
                               AbdFault::kLossy, AbdFault::kRecovery}) {
    for (int n = 3; n <= 5; ++n) {
      for (int writes = 1; writes <= 3; ++writes) {
        for (std::uint64_t seed = 0; seed < 10; ++seed) {
          const AbdRun run = random_abd(n, writes, fault, true, seed);
          const std::string where =
              "fault " + std::to_string(static_cast<int>(fault)) + " n" +
              std::to_string(n) + " w" + std::to_string(writes) + " seed " +
              std::to_string(seed);
          const checker::SequentialCheck w =
              checker::check_tag_order(run.h, run.tags);
          EXPECT_TRUE(w.ok) << where << ": " << w.error;
          EXPECT_TRUE(checker::check_linearizable(run.h).ok) << where;
          EXPECT_TRUE(checker::check_write_strong_linearizable(run.h).ok)
              << where;
          pending_ops += static_cast<int>(run.h.size() -
                                          run.h.completed_count());
        }
      }
    }
  }
  EXPECT_GT(pending_ops, 0) << "the crash faults should strand some ops";
}

TEST(Witness, TagOrderNeverAcceptsANoWriteBackViolation) {
  // Without write-back ABD is not linearizable across readers; the
  // witness must miss on every history the searches reject.
  int violations = 0;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    const AbdRun run = random_abd(5, 3, AbdFault::kNone, false, seed);
    const bool lin = checker::check_linearizable(run.h).ok;
    if (!lin) ++violations;
    if (checker::check_tag_order(run.h, run.tags).ok) {
      EXPECT_TRUE(lin) << "seed " << seed;
    }
  }
  EXPECT_GT(violations, 0) << "random schedules should plant a violation";
}

// ---------- check_tag_order on hand-built histories ----------

int add(History& h, int process, OpKind kind, Value v, Time invoke,
        Time response) {
  OpRecord op;
  op.process = process;
  op.reg = 0;
  op.kind = kind;
  op.value = v;
  op.invoke = invoke;
  op.response = response;
  return h.add(op);
}

TEST(TagOrder, APendingWriteJoinsOnlyIfAReadReturnedItsTag) {
  History h;
  add(h, 0, OpKind::kWrite, 1, 1, 2);        // tag 1
  add(h, 0, OpKind::kWrite, 2, 3, kNoTime);  // tag 2, pending
  add(h, 1, OpKind::kRead, 1, 4, 5);         // returned tag 1
  EXPECT_TRUE(checker::check_tag_order(h, {1, 2, 1}).ok);
  add(h, 2, OpKind::kRead, 2, 6, 7);  // returned the pending write's tag
  EXPECT_TRUE(checker::check_tag_order(h, {1, 2, 1, 2}).ok);
  // Reads of the initial value go first, whatever their op ids.
  add(h, 3, OpKind::kRead, 0, 8, 9);
  EXPECT_FALSE(checker::check_tag_order(h, {1, 2, 1, 2, 0}).ok)
      << "a read after a completed write cannot return the initial value";
}

TEST(TagOrder, ReadsOfTheInitialValueComeFirst) {
  History h;
  add(h, 0, OpKind::kWrite, 7, 2, 5);  // tag 3
  add(h, 1, OpKind::kRead, 0, 1, 3);   // initial value, overlaps the write
  add(h, 2, OpKind::kRead, 7, 4, 6);
  const checker::SequentialCheck chk =
      checker::check_tag_order(h, {3, checker::kInitialTag, 3});
  EXPECT_TRUE(chk.ok) << chk.error;
}

TEST(TagOrder, RejectsTagsItCannotPlace) {
  History h;
  add(h, 0, OpKind::kWrite, 1, 1, 2);
  add(h, 1, OpKind::kWrite, 2, 3, 4);
  add(h, 2, OpKind::kRead, 2, 5, 6);
  EXPECT_TRUE(checker::check_tag_order(h, {1, 2, 2}).ok);
  const checker::SequentialCheck unknown =
      checker::check_tag_order(h, {1, 2, 9});
  EXPECT_FALSE(unknown.ok);
  EXPECT_NE(unknown.error.find("no write has"), std::string::npos)
      << unknown.error;
  EXPECT_FALSE(checker::check_tag_order(h, {2, 2, 2}).ok) << "shared tag";
  EXPECT_FALSE(checker::check_tag_order(h, {1, checker::kNoTag, 2}).ok)
      << "a completed write needs a tag";
  EXPECT_FALSE(checker::check_tag_order(h, {1, 2, checker::kNoTag}).ok)
      << "a completed read needs a tag";
  EXPECT_FALSE(checker::check_tag_order(h, {1, 2}).ok) << "one tag per op";
}

TEST(TagOrder, RejectsAStaleRead) {
  // The read starts after the second write responded but returns the
  // first: tag order puts it between them, which real time forbids.
  History h;
  add(h, 0, OpKind::kWrite, 1, 1, 2);
  add(h, 0, OpKind::kWrite, 2, 3, 4);
  add(h, 1, OpKind::kRead, 1, 5, 6);
  const checker::SequentialCheck chk = checker::check_tag_order(h, {1, 2, 1});
  EXPECT_FALSE(chk.ok);
  EXPECT_NE(chk.error.find("real-time"), std::string::npos) << chk.error;
}

// ---------- check_commit_order: the WSL model's commit log ----------

sim::Task modeled_writes_then_read(sim::Proc& p, int slot, int writes) {
  for (int i = 0; i < writes; ++i) {
    co_await p.write(0, 100 * (slot + 1) + i);
  }
  (void)co_await p.read(0);
}

/// One modeled-wsl run under the random (`rr` false) or round-robin
/// adversary, with the model's commit log.
struct WslRun {
  History h;
  std::vector<checker::Commit> log;
};

WslRun modeled_wsl_run(int p, int writes, bool rr, bool stall,
                       std::uint64_t max_actions, std::uint64_t seed) {
  sim::Scheduler sched(seed);
  sched.add_register(0, sim::Semantics::kWriteStrong, 0);
  for (int i = 0; i < p; ++i) {
    sched.add_process("p" + std::to_string(i), [i, writes](sim::Proc& pr) {
      return modeled_writes_then_read(pr, i, writes);
    });
  }
  const std::vector<sim::ProcessId> stalled =
      stall ? sim::pick_strict_minority(p, seed * 31 + 7)
            : std::vector<sim::ProcessId>{};
  for (const sim::ProcessId v : stalled) sched.apply(sim::Action::step(v));
  if (rr) {
    sim::RoundRobinAdversary adv(stalled);
    (void)sched.run(adv, max_actions);
  } else {
    sim::RandomAdversary adv(seed * 7 + 1, stalled);
    (void)sched.run(adv, max_actions);
  }
  const auto& model = static_cast<const sim::WslModel&>(sched.model(0));
  return WslRun{sched.global_history(),
                {model.commits().begin(), model.commits().end()}};
}

TEST(CommitOrder, AcceptsEveryModeledWslRunAndTheTreeAgrees) {
  int runs = 0;
  int cut = 0;
  for (int p = 2; p <= 6; ++p) {
    for (const int writes : {1, 2, 3, 64}) {
      for (const bool rr : {false, true}) {
        for (const bool stall : {false, true}) {
          for (std::uint64_t seed = 0; seed < 3; ++seed) {
            // Complete runs, and runs cut at 8..30 actions.
            for (const std::uint64_t max_actions :
                 {std::uint64_t{100000}, 8 + (seed * 11 + p) % 23}) {
              const WslRun run =
                  modeled_wsl_run(p, writes, rr, stall, max_actions, seed);
              const std::string where =
                  "p" + std::to_string(p) + " w" + std::to_string(writes) +
                  (rr ? " rr" : " rand") + (stall ? " stall" : "") +
                  " max_actions " + std::to_string(max_actions) + " seed " +
                  std::to_string(seed);
              const checker::SequentialCheck w =
                  checker::check_commit_order(run.h, run.log);
              EXPECT_TRUE(w.ok) << where << ": " << w.error;
              if (run.h.size() <= checker::kMaxSolverOps) {
                EXPECT_TRUE(checker::check_write_strong_linearizable(run.h).ok)
                    << where;
              }
              cut += run.h.completed_count() < run.h.size() ? 1 : 0;
              ++runs;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(runs, 480);
  EXPECT_GT(cut, 100) << "budget cuts and stalls should leave ops pending";
}

TEST(CommitOrder, AcceptsAHandBuiltLog) {
  // w1 and w2 overlap; w2 responds first and commits itself, then the
  // read of w1's value commits w1 after it.
  History h;
  add(h, 0, OpKind::kWrite, 1, 1, 9);         // op0
  add(h, 1, OpKind::kWrite, 2, 2, 4);         // op1
  add(h, 2, OpKind::kRead, 1, 5, 6);          // op2 commits op0
  add(h, 3, OpKind::kRead, 0, 3, kNoTime);    // pending read
  const checker::SequentialCheck chk =
      checker::check_commit_order(h, std::vector<checker::Commit>{{1, 1},
                                                                  {0, 2}});
  EXPECT_TRUE(chk.ok) << chk.error;
}

TEST(CommitOrder, RejectsAWriteCommittedAfterItsOwnResponse) {
  History h;
  add(h, 0, OpKind::kWrite, 1, 1, 2);
  add(h, 1, OpKind::kRead, 1, 3, 5);
  const checker::SequentialCheck chk = checker::check_commit_order(
      h, std::vector<checker::Commit>{{0, 1}});
  EXPECT_FALSE(chk.ok);
  EXPECT_NE(chk.error.find("after its own response"), std::string::npos)
      << chk.error;
}

TEST(CommitOrder, RejectsAReadThatRespondsBeforeItsWritesCommit) {
  History h;
  add(h, 0, OpKind::kWrite, 1, 1, 6);
  add(h, 1, OpKind::kRead, 1, 2, 3);  // returned w's value, commit at 6
  const checker::SequentialCheck chk = checker::check_commit_order(
      h, std::vector<checker::Commit>{{0, 0}});
  EXPECT_FALSE(chk.ok);
  EXPECT_NE(chk.error.find("before its commit"), std::string::npos)
      << chk.error;
}

TEST(CommitOrder, RejectsAnOutOfOrderLog) {
  // w2 committed at its response (4), before w1 did at its own (5); a
  // log listing w1 first orders the writes as no prefix did.
  History h;
  add(h, 0, OpKind::kWrite, 1, 1, 5);
  add(h, 1, OpKind::kWrite, 2, 2, 4);
  EXPECT_TRUE(checker::check_commit_order(
                  h, std::vector<checker::Commit>{{1, 1}, {0, 0}})
                  .ok);
  const checker::SequentialCheck chk = checker::check_commit_order(
      h, std::vector<checker::Commit>{{0, 0}, {1, 1}});
  EXPECT_FALSE(chk.ok);
  EXPECT_NE(chk.error.find("out of response order"), std::string::npos)
      << chk.error;
}

TEST(CommitOrder, RejectsAWriteCommittedBeforeItsInvocation) {
  History h;
  add(h, 0, OpKind::kWrite, 1, 1, 2);
  add(h, 1, OpKind::kWrite, 2, 3, 4);
  const checker::SequentialCheck chk = checker::check_commit_order(
      h, std::vector<checker::Commit>{{0, 0}, {1, 0}});
  EXPECT_FALSE(chk.ok);
  EXPECT_NE(chk.error.find("before its invocation"), std::string::npos)
      << chk.error;
}

TEST(CommitOrder, RejectsALogThatContradictsARead) {
  // Both writes responded before the read, which returned w1: w1's
  // response must commit w2 first.
  History h;
  add(h, 0, OpKind::kWrite, 1, 1, 3);
  add(h, 1, OpKind::kWrite, 2, 2, 4);
  add(h, 2, OpKind::kRead, 1, 5, 6);
  EXPECT_TRUE(checker::check_commit_order(
                  h, std::vector<checker::Commit>{{1, 0}, {0, 0}})
                  .ok);
  const checker::SequentialCheck chk = checker::check_commit_order(
      h, std::vector<checker::Commit>{{0, 0}, {1, 1}});
  EXPECT_FALSE(chk.ok);
  EXPECT_NE(chk.error.find("real-time"), std::string::npos) << chk.error;
}

TEST(CommitOrder, DeclinesRepeatedCommittedValues) {
  History h;
  add(h, 0, OpKind::kWrite, 7, 1, 2);
  add(h, 1, OpKind::kWrite, 7, 3, 4);
  add(h, 2, OpKind::kRead, 7, 5, 6);
  const checker::SequentialCheck chk = checker::check_commit_order(
      h, std::vector<checker::Commit>{{0, 0}, {1, 1}});
  EXPECT_FALSE(chk.ok);
  EXPECT_NE(chk.error.find("declined"), std::string::npos) << chk.error;
  EXPECT_TRUE(checker::check_write_strong_linearizable(h).ok)
      << "declining is not rejecting: the searches accept this run";
}

// ---------- the sweep's hook ----------

/// A sequential single-writer history of `ops` alternating writes and
/// reads, each read returning the write before it.
History long_sequential_history(int ops) {
  History h;
  Time t = 0;
  for (int i = 0; i < ops; ++i) {
    const bool write = i % 2 == 0;
    add(h, write ? 0 : 1, write ? OpKind::kWrite : OpKind::kRead, i / 2 + 1,
        t + 1, t + 2);
    t += 2;
  }
  return h;
}

TEST(Witness, AnAcceptedWitnessLiftsTheSolverCap) {
  const History h = long_sequential_history(100);
  ASSERT_GT(h.size(), checker::kMaxSolverOps);
  const std::string cap = "history exceeds the solver's " +
                          std::to_string(checker::kMaxSolverOps) +
                          "-op/register limit";
  sweep::ScenarioResult accepted;
  sweep::classify_run(h, sweep::RunEnd::kCompleted, "", accepted,
                      /*online=*/false, sweep::Witness::kAccepted);
  EXPECT_EQ(accepted.verdict, sweep::Verdict::kOk);
  EXPECT_TRUE(accepted.detail.empty()) << accepted.detail;
  // The streaming cross-check has no cap either: its configuration sets
  // hold the open ops only.
  sweep::ScenarioResult streamed;
  sweep::classify_run(h, sweep::RunEnd::kCompleted, "", streamed,
                      /*online=*/true, sweep::Witness::kAccepted);
  EXPECT_EQ(streamed.verdict, sweep::Verdict::kOk);
  EXPECT_TRUE(streamed.detail.empty()) << streamed.detail;
  // The searches keep their cap: a miss or no witness, with or without
  // the cross-check, ends unvalidated with today's text.
  for (const sweep::Witness witness :
       {sweep::Witness::kMissed, sweep::Witness::kNone}) {
    for (const bool online : {false, true}) {
      sweep::ScenarioResult out;
      sweep::classify_run(h, sweep::RunEnd::kCompleted, "", out,
                          online, witness);
      EXPECT_EQ(out.verdict, sweep::Verdict::kError);
      EXPECT_EQ(out.detail, cap);
    }
  }
}

TEST(Witness, AMissLeavesTheVerdictToTheSearches) {
  // A stale read, which no witness can certify: after a miss the
  // searches report exactly what they report for a family without one.
  History h;
  add(h, 0, OpKind::kWrite, 1, 1, 2);
  add(h, 0, OpKind::kWrite, 2, 3, 4);
  add(h, 1, OpKind::kRead, 1, 5, 6);
  sweep::ScenarioResult none;
  sweep::classify_run(h, sweep::RunEnd::kCompleted, "", none);
  sweep::ScenarioResult missed;
  sweep::classify_run(h, sweep::RunEnd::kCompleted, "", missed,
                      /*online=*/false, sweep::Witness::kMissed);
  EXPECT_EQ(none.verdict, sweep::Verdict::kViolation);
  EXPECT_EQ(missed.verdict, none.verdict);
  EXPECT_EQ(missed.detail, none.detail);
}

TEST(Witness, Alg2RunsCutByTheBudgetKeepTheirWitness) {
  // alg2/rand/p3/w2/seed142 cut at 25 actions: op3 has published [2,1,1]
  // and read op5 returned it, but op3's process never stepped again.  Its
  // trace must still place the line-8 write, so Algorithm 3 certifies the
  // prefix and no search runs.
  constexpr auto kMisses =
      static_cast<std::size_t>(obs::Counter::kCheckerWitnessMisses);
  sweep::Scenario s;
  s.algorithm = sweep::Algorithm::kAlg2;
  s.adversary = sweep::AdversaryKind::kRandom;
  s.processes = 3;
  s.writes_per_process = 2;
  s.seed = 142;
  s.max_actions = 25;
  ASSERT_EQ(s.key(), "alg2/rand/p3/w2/seed142");
  obs::set_enabled(true);
  const obs::CounterDelta before = obs::thread_counters();
  const sweep::ScenarioResult r = sweep::run_scenario(s);
  obs::CounterDelta misses = obs::thread_counters();
  obs::set_enabled(false);
  misses -= before;
  EXPECT_EQ(r.verdict, sweep::Verdict::kError);
  EXPECT_NE(r.detail.find("completed prefix checked clean"), std::string::npos)
      << r.detail;
  EXPECT_EQ(misses.v[kMisses], 0u);
}

TEST(Witness, SweepFamiliesNeverMissTheirWitness) {
  // Every family with a witness (the modeled register under atomic and
  // WSL semantics), at every fault kind it pairs with: the witness
  // certifies each run (no miss), and long runs past the solver's cap
  // classify like short ones.
  constexpr auto kMisses =
      static_cast<std::size_t>(obs::Counter::kCheckerWitnessMisses);
  obs::set_enabled(true);
  const obs::CounterDelta before = obs::thread_counters();
  int runs = 0;
  for (const sweep::Algorithm alg :
       {sweep::Algorithm::kModeled, sweep::Algorithm::kAlg2,
        sweep::Algorithm::kAlg4, sweep::Algorithm::kAbd}) {
    for (const sweep::FaultKind fault :
         {sweep::FaultKind::kNone, sweep::FaultKind::kMinorityCrash,
          sweep::FaultKind::kStall, sweep::FaultKind::kLossy,
          sweep::FaultKind::kDuplicate, sweep::FaultKind::kPartition,
          sweep::FaultKind::kMajorityCrash,
          sweep::FaultKind::kCrashRecovery}) {
      if (!sweep::fault_applies(fault, alg)) continue;
      for (const sim::Semantics semantics :
           {sim::Semantics::kAtomic, sim::Semantics::kWriteStrong}) {
        if (alg != sweep::Algorithm::kModeled &&
            semantics != sim::Semantics::kAtomic) {
          continue;
        }
        for (const int writes : {2, 64}) {
          for (std::uint64_t seed = 0; seed < 4; ++seed) {
            sweep::Scenario s;
            s.algorithm = alg;
            s.semantics = semantics;
            s.processes = writes > 2 ? 3 : 5;
            s.writes_per_process = writes;
            s.seed = seed;
            s.faults.kind = fault;
            s.faults.seed = seed;
            s.faults.param = fault == sweep::FaultKind::kLossy ? 300 : 0;
            const sweep::ScenarioResult r = sweep::run_scenario(s);
            EXPECT_TRUE(r.verdict == sweep::Verdict::kOk ||
                        r.verdict == sweep::Verdict::kBlocked)
                << s.key() << ": " << r.detail;
            ++runs;
          }
        }
      }
    }
  }
  obs::CounterDelta misses = obs::thread_counters();
  obs::set_enabled(false);
  misses -= before;
  EXPECT_EQ(misses.v[kMisses], 0u);
  EXPECT_GT(runs, 100);
}

}  // namespace
}  // namespace rlt
