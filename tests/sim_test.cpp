// Tests for the simulator: coroutine scheduling, the three register
// semantic models, adversary choice mechanics, and determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "checker/lin_checker.hpp"
#include "checker/lin_solver.hpp"
#include "checker/wsl_checker.hpp"
#include "sim/adversary.hpp"
#include "sim/scheduler.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace rlt::sim {
namespace {

Task write_two(Proc& self, RegId reg, Value a, Value b) {
  co_await self.write(reg, a);
  co_await self.write(reg, b);
}

Task read_two(Proc& self, RegId reg, Value* out1, Value* out2) {
  *out1 = co_await self.read(reg);
  *out2 = co_await self.read(reg);
}

Task flip_some(Proc& self, int count, int* ones) {
  for (int i = 0; i < count; ++i) {
    *ones += co_await self.flip_coin();
    co_await self.yield();
  }
}

TEST(Scheduler, AtomicRegisterBasicSemantics) {
  Scheduler sched(1);
  sched.add_register(0, Semantics::kAtomic, 5);
  Value v1 = -1;
  Value v2 = -1;
  sched.add_process("w", [](Proc& p) { return write_two(p, 0, 10, 20); });
  sched.add_process("r",
                    [&](Proc& p) { return read_two(p, 0, &v1, &v2); });
  RoundRobinAdversary adv;
  EXPECT_EQ(sched.run(adv), RunOutcome::kAllDone);
  // Round-robin: w writes 10, r reads 10, w writes 20, r reads 20.
  EXPECT_EQ(v1, 10);
  EXPECT_EQ(v2, 20);
  sched.global_history().validate();
}

TEST(Scheduler, DeterministicUnderSameSeed) {
  const auto run = [](std::uint64_t seed) {
    Scheduler sched(seed);
    sched.add_register(0, Semantics::kLinearizable, 0);
    Value v1 = 0;
    Value v2 = 0;
    sched.add_process("w", [](Proc& p) { return write_two(p, 0, 1, 2); });
    sched.add_process("r",
                      [&](Proc& p) { return read_two(p, 0, &v1, &v2); });
    RandomAdversary adv(seed);
    sched.run(adv);
    return sched.global_history().to_string();
  };
  EXPECT_EQ(run(42), run(42));
  // (Different seeds usually differ, but that is not guaranteed.)
}

TEST(Scheduler, CoinFlipsAreLoggedForTheAdversary) {
  Scheduler sched(7);
  int ones = 0;
  sched.add_process("f", [&](Proc& p) { return flip_some(p, 20, &ones); });
  RoundRobinAdversary adv;
  EXPECT_EQ(sched.run(adv), RunOutcome::kAllDone);
  EXPECT_EQ(sched.coin_log().size(), 20u);
  int logged_ones = 0;
  for (const CoinRecord& c : sched.coin_log()) logged_ones += c.outcome;
  EXPECT_EQ(logged_ones, ones);
}

TEST(Scheduler, ActionCapStopsRun) {
  Scheduler sched(1);
  sched.add_register(0, Semantics::kAtomic, 0);
  Value a = 0;
  Value b = 0;
  sched.add_process("r", [&](Proc& p) { return read_two(p, 0, &a, &b); });
  RoundRobinAdversary adv;
  EXPECT_EQ(sched.run(adv, 1), RunOutcome::kActionCap);
}

TEST(LinearizableModel, OperationsOverlapAndBlock) {
  Scheduler sched(1);
  sched.add_register(0, Semantics::kLinearizable, 0);
  Value v1 = -1;
  Value v2 = -1;
  sched.add_process("w", [](Proc& p) { return write_two(p, 0, 10, 20); });
  sched.add_process("r", [&](Proc& p) { return read_two(p, 0, &v1, &v2); });
  // Step both processes once: both ops invoked, both processes blocked.
  sched.apply(Action::step(0));
  sched.apply(Action::step(1));
  EXPECT_TRUE(sched.process_blocked(0));
  EXPECT_TRUE(sched.process_blocked(1));
  EXPECT_EQ(sched.pending_ops().size(), 2u);
}

TEST(LinearizableModel, ReadChoicesEnumerateFeasibleValues) {
  Scheduler sched(1);
  sched.add_register(0, Semantics::kLinearizable, 0);
  Value v1 = -1;
  Value v2 = -1;
  sched.add_process("w", [](Proc& p) { return write_two(p, 0, 10, 20); });
  sched.add_process("r", [&](Proc& p) { return read_two(p, 0, &v1, &v2); });
  sched.apply(Action::step(0));  // write(10) pending
  sched.apply(Action::step(1));  // read pending
  const auto pending = sched.pending_ops();
  const int read_op = pending[1].op_id;
  auto choices = sched.choices_for(read_op);
  ASSERT_EQ(choices.size(), 2u);  // initial 0 or concurrent 10
  std::set<Value> values;
  for (const auto& c : choices) values.insert(c.value);
  EXPECT_EQ(values, (std::set<Value>{0, 10}));
}

TEST(LinearizableModel, OffLineFreedomSurvivesWriteCompletion) {
  // The crux of Theorem 6: after BOTH concurrent writes complete, a read
  // that overlapped them can still be told either value.
  Scheduler sched(1);
  sched.add_register(0, Semantics::kLinearizable, 0);
  Value v1 = -1;
  Value v2 = -1;
  sched.add_process("w1", [](Proc& p) { return write_two(p, 0, 10, 11); });
  sched.add_process("w2", [](Proc& p) { return write_two(p, 0, 20, 21); });
  sched.add_process("r", [&](Proc& p) { return read_two(p, 0, &v1, &v2); });
  sched.apply(Action::step(0));  // w1: write(10) pending
  sched.apply(Action::step(1));  // w2: write(20) pending
  sched.apply(Action::step(2));  // read pending (overlaps both)
  // Complete both writes.
  auto respond_write = [&](ProcessId p) {
    for (const auto& info : sched.pending_ops()) {
      if (info.process == p) {
        auto choices = sched.choices_for(info.op_id);
        ASSERT_EQ(choices.size(), 1u);
        sched.apply(Action::respond(p, info.op_id, choices[0]));
        return;
      }
    }
    FAIL() << "no pending op for p" << p;
  };
  respond_write(0);
  respond_write(1);
  // The read may return the initial value (it was invoked before either
  // write completed) or either write's value — the adversary decides the
  // order of the two concurrent writes off-line, AFTER their completion.
  const int read_op = sched.pending_ops()[0].op_id;
  std::set<Value> values;
  for (const auto& c : sched.choices_for(read_op)) values.insert(c.value);
  EXPECT_EQ(values, (std::set<Value>{0, 10, 20}));
}

// ---- Forced menus: one-op windows answer without the solver ----

struct ScriptOp {
  RegId reg = 0;
  OpKind kind = OpKind::kRead;
  Value value = 0;  ///< Writes only.
};

Task run_ops(Proc& self, std::vector<ScriptOp> ops) {
  for (const ScriptOp& op : ops) {
    if (op.kind == OpKind::kWrite) {
      co_await self.write(op.reg, op.value);
    } else {
      (void)co_await self.read(op.reg);
    }
  }
}

std::vector<Value> menu_values(const std::vector<ResponseChoice>& menu) {
  std::vector<Value> out;
  for (const ResponseChoice& c : menu) {
    EXPECT_TRUE(c.commit_extension.empty());
    out.push_back(c.value);
  }
  return out;
}

/// The read menu the solver gives over register `reg`'s whole history so
/// far, with pending read `op_id` completed at the next tick: one
/// `feasible` per candidate value, on a copy with the read completed.
/// Sets `alone` when every earlier op of the register responded before
/// the read was invoked, and none was invoked since.
std::vector<Value> whole_history_menu(const Scheduler& sched, RegId reg,
                                      int op_id, bool* alone) {
  std::vector<int> ids;
  const history::History h =
      sched.global_history().restrict_to_register(reg, &ids);
  EXPECT_LE(h.size(), checker::kMaxSolverOps);
  const int k = static_cast<int>(
      std::find(ids.begin(), ids.end(), op_id) - ids.begin());
  *alone = k + 1 == static_cast<int>(h.size());
  for (int j = 0; j < k; ++j) {
    if (!h.op(j).precedes(h.op(k))) *alone = false;
  }
  std::set<Value> candidates{h.initial(reg)};
  for (const history::OpRecord& op : h.ops()) {
    if (op.is_write()) candidates.insert(op.value);
  }
  std::vector<Value> menu;
  for (const Value v : candidates) {
    history::History copy = h;
    copy.complete_op(k, v, sched.now() + 1);
    checker::LinProblem probe;
    probe.history = &copy;
    if (checker::feasible(probe)) menu.push_back(v);
  }
  return menu;
}

TEST(LinearizableModel, ReadMenusEqualTheSolverOverTheWholeHistory) {
  // Random short schedules over two registers.  At every decision, each
  // pending read's menu must be the solver's over its register's whole
  // history, in the same ascending order, whether the read overlaps other
  // ops or runs alone after a past that left several values possible.
  int alone = 0;
  int alone_with_choice = 0;  // lone reads with 2+ values
  int overlapping = 0;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    util::Rng rng(seed);
    Scheduler sched(seed);
    sched.add_register(0, Semantics::kLinearizable, 0);
    sched.add_register(1, Semantics::kLinearizable, 5);
    const int processes = 2 + static_cast<int>(rng.uniform(3));
    for (int p = 0; p < processes; ++p) {
      std::vector<ScriptOp> ops(1 + rng.uniform(6));
      for (ScriptOp& op : ops) {
        op.reg = static_cast<RegId>(rng.uniform(2));
        op.kind = rng.flip() != 0 ? OpKind::kWrite : OpKind::kRead;
        op.value = 1 + static_cast<Value>(rng.uniform(4));
      }
      sched.add_process("p", [ops](Proc& self) { return run_ops(self, ops); });
    }
    while (!sched.all_done()) {
      for (const PendingOpInfo& info : sched.pending_ops()) {
        if (info.kind != OpKind::kRead) continue;
        bool lone = false;
        const std::vector<Value> expected =
            whole_history_menu(sched, info.reg, info.op_id, &lone);
        ASSERT_EQ(menu_values(sched.choices_for(info.op_id)), expected)
            << "seed " << seed << ", op " << info.op_id
            << (lone ? " alone" : " among overlapping ops");
        ++(lone ? alone : overlapping);
        if (lone && expected.size() >= 2) ++alone_with_choice;
      }
      const std::vector<Action>& actions = sched.enabled_actions();
      ASSERT_FALSE(actions.empty());
      sched.apply(actions[rng.uniform(actions.size())]);
    }
  }
  EXPECT_GT(alone, 0);
  EXPECT_GT(alone_with_choice, 0);
  EXPECT_GT(overlapping, 0);
}

TEST(LinearizableModel, LoneReadOffersEveryValueTheCollapseKept) {
  // k concurrent writes respond and the register goes quiescent with k
  // configurations, one per value the writes may have left.  A read
  // invoked alone then offers exactly those, as the solver does over the
  // whole history.
  for (const int k : {2, 3}) {
    Scheduler sched(1);
    sched.add_register(0, Semantics::kLinearizable, 0);
    std::vector<Value> written;
    for (int w = 0; w < k; ++w) {
      written.push_back(10 * (w + 1));
      const std::vector<ScriptOp> ops{{0, OpKind::kWrite, written.back()}};
      sched.add_process("w", [ops](Proc& self) { return run_ops(self, ops); });
      sched.apply(Action::step(w));
    }
    const std::vector<ScriptOp> read{{0, OpKind::kRead, 0}};
    sched.add_process("r", [read](Proc& self) { return run_ops(self, read); });
    while (!sched.pending_ops().empty()) {
      const PendingOpInfo op = sched.pending_ops().back();
      sched.apply(
          Action::respond(op.process, op.op_id, sched.choices_for(op.op_id)[0]));
    }
    sched.apply(Action::step(k));
    const int op_id = sched.pending_ops()[0].op_id;
    bool lone = false;
    EXPECT_EQ(whole_history_menu(sched, 0, op_id, &lone), written);
    EXPECT_TRUE(lone);
    EXPECT_EQ(menu_values(sched.choices_for(op_id)), written) << "k=" << k;
  }
}

TEST(WslModel, OpsAloneInTheirWindowHaveOneForcedResponse) {
  // A lone read returns the last committed value and commits nothing; a
  // lone write commits itself.
  Scheduler sched(1);
  sched.add_register(0, Semantics::kWriteStrong, 5);
  Value v1 = -1;
  Value v2 = -1;
  sched.add_process("w", [](Proc& p) { return write_two(p, 0, 7, 8); });
  sched.add_process("r", [&](Proc& p) { return read_two(p, 0, &v1, &v2); });
  int op_id = -1;
  const auto only_choice = [&sched, &op_id](ProcessId p) {
    sched.apply(Action::step(p));
    op_id = sched.pending_ops()[0].op_id;
    const std::vector<ResponseChoice> menu = sched.choices_for(op_id);
    EXPECT_EQ(menu.size(), 1u);
    sched.apply(Action::respond(p, op_id, menu.at(0)));
    return menu.at(0);
  };
  const ResponseChoice read_five = only_choice(1);
  EXPECT_EQ(read_five.value, 5);
  EXPECT_TRUE(read_five.commit_extension.empty());
  const ResponseChoice write_seven = only_choice(0);
  EXPECT_EQ(write_seven.value, 7);
  EXPECT_EQ(write_seven.commit_extension, std::vector<int>{op_id});
  const ResponseChoice read_seven = only_choice(1);
  EXPECT_EQ(read_seven.value, 7);
  EXPECT_TRUE(read_seven.commit_extension.empty());
  const auto result =
      checker::check_write_strong_linearizable(sched.global_history());
  EXPECT_TRUE(result.ok) << result.explanation;
}

TEST(WslModel, WriteResponseFreezesOrder) {
  // Same setup, WSL semantics: completing w1 with commitment [w1] means
  // any read now (after both writes complete) can only see w1 last if
  // the adversary also committed w2 first — the choice set shrinks.
  Scheduler sched(1);
  sched.add_register(0, Semantics::kWriteStrong, 0);
  Value v1 = -1;
  Value v2 = -1;
  sched.add_process("w1", [](Proc& p) { return write_two(p, 0, 10, 11); });
  sched.add_process("w2", [](Proc& p) { return write_two(p, 0, 20, 21); });
  sched.add_process("r", [&](Proc& p) { return read_two(p, 0, &v1, &v2); });
  sched.apply(Action::step(0));
  sched.apply(Action::step(1));
  sched.apply(Action::step(2));
  // Respond w1's write committing only [w1] (w2 left uncommitted, hence
  // ordered after w1 forever).
  const auto pending = sched.pending_ops();
  const int w1_op = pending[0].op_id;
  const int w2_op = pending[1].op_id;
  const int r_op = pending[2].op_id;
  std::optional<ResponseChoice> w1_only;
  for (auto& c : sched.choices_for(w1_op)) {
    if (c.commit_extension == std::vector<int>{w1_op}) w1_only = c;
  }
  ASSERT_TRUE(w1_only.has_value());
  sched.apply(Action::respond(0, w1_op, *w1_only));
  // Respond w2 (it must append after w1).
  auto w2_choices = sched.choices_for(w2_op);
  ASSERT_FALSE(w2_choices.empty());
  sched.apply(Action::respond(1, w2_op, w2_choices[0]));
  // The read overlapped everything, but w1-before-w2 is now frozen:
  // it can return 0 (before both), 10 (between), or 20 (after) — BUT a
  // second read after it could never see 10 then 20 reversed.  Check the
  // first read's choice values contain 20 and 10 but a follow-up
  // constraint holds: respond with 20, then the next read can only be 20.
  std::optional<ResponseChoice> twenty;
  for (auto& c : sched.choices_for(r_op)) {
    if (c.value == 20) twenty = c;
  }
  ASSERT_TRUE(twenty.has_value());
  sched.apply(Action::respond(2, r_op, *twenty));
  sched.apply(Action::step(2));  // invoke second read
  const int r2_op = sched.pending_ops()[0].op_id;
  std::set<Value> values;
  for (auto& c : sched.choices_for(r2_op)) values.insert(c.value);
  EXPECT_EQ(values, (std::set<Value>{20}));
}

TEST(WslModel, CommittedOrderSurvivesCollapse) {
  // Run a full write-write-read cycle to quiescence; the next read must
  // see the committed final value.
  Scheduler sched(3);
  sched.add_register(0, Semantics::kWriteStrong, 0);
  Value v1 = -1;
  Value v2 = -1;
  sched.add_process("w", [](Proc& p) { return write_two(p, 0, 10, 20); });
  sched.add_process("r", [&](Proc& p) { return read_two(p, 0, &v1, &v2); });
  RandomAdversary adv(99);
  EXPECT_EQ(sched.run(adv), RunOutcome::kAllDone);
  // Reads are monotone: v1=10 implies v2 in {10, 20}; v1=20 implies v2=20.
  if (v1 == 20) {
    EXPECT_EQ(v2, 20);
  }
  sched.global_history().validate();
}

TEST(Models, RandomRunsProduceLinearizableHistories) {
  for (const Semantics sem :
       {Semantics::kAtomic, Semantics::kLinearizable,
        Semantics::kWriteStrong}) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      Scheduler sched(seed);
      sched.add_register(0, sem, 0);
      Value v1 = 0;
      Value v2 = 0;
      Value v3 = 0;
      Value v4 = 0;
      sched.add_process("w1",
                        [](Proc& p) { return write_two(p, 0, 10, 11); });
      sched.add_process("w2",
                        [](Proc& p) { return write_two(p, 0, 20, 21); });
      sched.add_process("r1",
                        [&](Proc& p) { return read_two(p, 0, &v1, &v2); });
      sched.add_process("r2",
                        [&](Proc& p) { return read_two(p, 0, &v3, &v4); });
      RandomAdversary adv(seed * 31);
      ASSERT_EQ(sched.run(adv), RunOutcome::kAllDone);
      const auto result = checker::check_linearizable(sched.global_history());
      ASSERT_TRUE(result.ok)
          << to_string(sem) << " seed " << seed << ": " << result.error;
    }
  }
}

TEST(Models, WslRunsProduceWslHistories) {
  // The WSL model's histories must pass the off-line Definition 4 check.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Scheduler sched(seed);
    sched.add_register(0, Semantics::kWriteStrong, 0);
    Value v1 = 0;
    Value v2 = 0;
    sched.add_process("w1", [](Proc& p) { return write_two(p, 0, 10, 11); });
    sched.add_process("w2", [](Proc& p) { return write_two(p, 0, 20, 21); });
    sched.add_process("r",
                      [&](Proc& p) { return read_two(p, 0, &v1, &v2); });
    RandomAdversary adv(seed * 17);
    ASSERT_EQ(sched.run(adv), RunOutcome::kAllDone);
    const auto result =
        checker::check_write_strong_linearizable(sched.global_history());
    ASSERT_TRUE(result.ok) << "seed " << seed << ": " << result.explanation;
  }
}

TEST(Scheduler, ExceptionsInProcessesPropagate) {
  Scheduler sched(1);
  sched.add_register(0, Semantics::kAtomic, 0);
  sched.add_process("bad", [](Proc& p) -> Task {
    co_await p.yield();
    RLT_CHECK_MSG(false, "deliberate failure");
  });
  RoundRobinAdversary adv;
  EXPECT_THROW(sched.run(adv), util::InvariantViolation);
}

TEST(Scheduler, RejectsDuplicateRegisters) {
  Scheduler sched(1);
  sched.add_register(0, Semantics::kAtomic, 0);
  EXPECT_THROW(sched.add_register(0, Semantics::kAtomic, 0),
               util::InvariantViolation);
}

TEST(FixedStepAdversary, ReplaysExactSchedule) {
  Scheduler sched(1);
  sched.add_register(0, Semantics::kAtomic, 0);
  Value v1 = -1;
  Value v2 = -1;
  sched.add_process("w", [](Proc& p) { return write_two(p, 0, 10, 20); });
  sched.add_process("r", [&](Proc& p) { return read_two(p, 0, &v1, &v2); });
  FixedStepAdversary adv({0, 0, 1, 1, 1});  // both writes, then reads
  EXPECT_EQ(sched.run(adv), RunOutcome::kStopped);
  EXPECT_EQ(v1, 20);
}

// ---- The scheduler's pending list and menu cache (stores depend on
// both: every adversary reads menus in this order) ----

Task read_once(Proc& self, RegId reg) { (void)co_await self.read(reg); }

TEST(Scheduler, PendingOpsListEveryRegisterInOpIdOrder) {
  Scheduler sched(1);
  sched.add_register(0, Semantics::kLinearizable, 0);
  sched.add_register(1, Semantics::kWriteStrong, 0);
  sched.add_process("r1", [](Proc& p) { return read_once(p, 1); });
  sched.add_process("w0", [](Proc& p) { return write_two(p, 0, 10, 11); });
  sched.add_process("w1", [](Proc& p) { return write_two(p, 1, 20, 21); });
  sched.apply(Action::step(0));  // read(R1)
  sched.apply(Action::step(1));  // write(R0, 10)
  sched.apply(Action::step(2));  // write(R1, 20)

  const std::vector<PendingOpInfo> pending = sched.pending_ops();
  ASSERT_EQ(pending.size(), 3u);
  const std::vector<ProcessId> processes{0, 1, 2};
  const std::vector<RegId> regs{1, 0, 1};
  const std::vector<OpKind> kinds{OpKind::kRead, OpKind::kWrite,
                                  OpKind::kWrite};
  const std::vector<Value> values{0, 10, 20};
  for (std::size_t i = 0; i < pending.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(pending[i].process, processes[i]);
    EXPECT_EQ(pending[i].reg, regs[i]);
    EXPECT_EQ(pending[i].kind, kinds[i]);
    EXPECT_EQ(pending[i].value, values[i]);
    if (i > 0) {
      EXPECT_LT(pending[i - 1].op_id, pending[i].op_id);
      EXPECT_LT(pending[i - 1].invoked, pending[i].invoked);
    }
  }

  // Responding the R0 write drops it and keeps the others in order.
  sched.apply(Action::respond(1, pending[1].op_id,
                              sched.choices_for(pending[1].op_id).front()));
  ASSERT_EQ(sched.pending_ops().size(), 2u);
  EXPECT_EQ(sched.pending_ops()[0].op_id, pending[0].op_id);
  EXPECT_EQ(sched.pending_ops()[1].op_id, pending[2].op_id);
  EXPECT_THROW((void)sched.choices_for(pending[1].op_id),
               util::InvariantViolation);

  // The next invocation appends after every op still pending.
  sched.apply(Action::step(1));  // write(R0, 11)
  ASSERT_EQ(sched.pending_ops().size(), 3u);
  EXPECT_EQ(sched.pending_ops()[2].process, 1);
  EXPECT_EQ(sched.pending_ops()[2].reg, 0);
  EXPECT_EQ(sched.pending_ops()[2].value, 11);
  EXPECT_GT(sched.pending_ops()[2].op_id, pending[2].op_id);
}

/// A linearizable register that counts its menu computations.
class CountingModel final : public RegisterModel {
 public:
  explicit CountingModel(int* calls)
      : inner_(make_linearizable_model(0)), calls_(calls) {}

  std::optional<Value> on_invoke(int op_id, OpKind kind,
                                 Value value) override {
    return inner_->on_invoke(op_id, kind, value);
  }
  std::vector<ResponseChoice> response_choices(int op_id) override {
    ++*calls_;
    return inner_->response_choices(op_id);
  }
  Value on_respond(int op_id, const ResponseChoice& choice) override {
    return inner_->on_respond(op_id, choice);
  }

 private:
  std::unique_ptr<RegisterModel> inner_;
  int* calls_;
};

TEST(Scheduler, MenusAreComputedOncePerRegisterState) {
  int calls = 0;
  Scheduler sched(1);
  sched.add_register(0, std::make_unique<CountingModel>(&calls), 0);
  sched.add_register(1, Semantics::kLinearizable, 0);
  sched.add_process("r", [](Proc& p) { return read_once(p, 0); });
  sched.add_process("w0", [](Proc& p) { return write_two(p, 0, 10, 11); });
  sched.add_process("w1", [](Proc& p) { return write_two(p, 1, 20, 21); });
  sched.apply(Action::step(0));  // read(R0) pending
  const int read_op = sched.pending_ops()[0].op_id;

  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(sched.choices_for(read_op).size(), 1u);
  }
  (void)sched.enabled_actions();
  EXPECT_EQ(calls, 1);

  // Actions on another register leave R0's menu cached.
  sched.apply(Action::step(2));  // write(R1, 20) invoked
  const int other_op = sched.pending_ops()[1].op_id;
  sched.apply(Action::respond(2, other_op,
                              sched.choices_for(other_op).front()));
  (void)sched.enabled_actions();
  EXPECT_EQ(sched.choices_for(read_op).size(), 1u);
  EXPECT_EQ(calls, 1);

  // An invocation on R0 recomputes its menu once.
  sched.apply(Action::step(1));  // write(R0, 10) invoked
  EXPECT_EQ(sched.choices_for(read_op).size(), 2u);  // 0 or 10
  EXPECT_EQ(sched.choices_for(read_op).size(), 2u);
  EXPECT_EQ(calls, 2);

  // So does a response on R0 (the write's own menu is a third call).
  const int write_op = sched.pending_ops()[1].op_id;
  sched.apply(Action::respond(1, write_op,
                              sched.choices_for(write_op).front()));
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(sched.choices_for(read_op).size(), 2u);
  (void)sched.enabled_actions();
  EXPECT_EQ(calls, 4);
}

/// The reference draw for RandomAdversary: copy the menu, erase the
/// stalled processes' actions, index by one uniform draw.
class ReferenceRandomAdversary final : public Adversary {
 public:
  ReferenceRandomAdversary(std::uint64_t seed, std::vector<ProcessId> stalled)
      : stalled_(std::move(stalled)), rng_(seed) {}

  std::optional<Action> choose(Scheduler& sched) override {
    std::vector<Action> actions = sched.enabled_actions();
    std::erase_if(actions, [this](const Action& a) {
      return is_stalled(stalled_, a.process);
    });
    if (actions.empty()) return std::nullopt;
    return actions[rng_.uniform(actions.size())];
  }

 private:
  std::vector<ProcessId> stalled_;
  util::Rng rng_;
};

/// Logs every action another adversary chooses.
class LoggingAdversary final : public Adversary {
 public:
  explicit LoggingAdversary(Adversary& inner) : inner_(&inner) {}

  std::optional<Action> choose(Scheduler& sched) override {
    std::optional<Action> a = inner_->choose(sched);
    if (a.has_value()) {
      std::ostringstream os;
      os << (a->kind == Action::Kind::kStep ? "step p" : "respond p")
         << a->process << " op" << a->op_id << " v" << a->choice.value;
      log.push_back(os.str());
    }
    return a;
  }

  std::vector<std::string> log;

 private:
  Adversary* inner_;
};

TEST(RandomAdversary, StalledDrawsMatchTheCopyEraseIndexReference) {
  const auto run = [](Semantics sem, std::uint64_t seed,
                      const std::vector<ProcessId>& stalled, bool reference) {
    Scheduler sched(seed);
    sched.add_register(0, sem, 0);
    Value v1 = 0;
    Value v2 = 0;
    sched.add_process("w1", [](Proc& p) { return write_two(p, 0, 10, 11); });
    sched.add_process("w2", [](Proc& p) { return write_two(p, 0, 20, 21); });
    sched.add_process("r", [&](Proc& p) { return read_two(p, 0, &v1, &v2); });
    // w2 invokes before the adversary starts, so on interval registers
    // its response choices sit mid-menu when it is stalled.
    sched.apply(Action::step(1));
    RandomAdversary random(seed * 7919, stalled);
    ReferenceRandomAdversary ref(seed * 7919, stalled);
    LoggingAdversary logged(reference ? static_cast<Adversary&>(ref)
                                      : static_cast<Adversary&>(random));
    const RunOutcome outcome = sched.run(logged);
    logged.log.push_back(to_string(outcome));
    logged.log.push_back(sched.global_history().to_string());
    return logged.log;
  };
  for (const Semantics sem : {Semantics::kAtomic, Semantics::kLinearizable}) {
    for (const std::vector<ProcessId>& stalled :
         {std::vector<ProcessId>{}, std::vector<ProcessId>{1},
          std::vector<ProcessId>{0, 2}}) {
      for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE(::testing::Message()
                     << to_string(sem) << " seed " << seed << " stalled "
                     << stalled.size());
        const std::vector<std::string> got = run(sem, seed, stalled, false);
        EXPECT_GT(got.size(), 2u);
        EXPECT_EQ(got, run(sem, seed, stalled, true));
      }
    }
  }
}

}  // namespace
}  // namespace rlt::sim
