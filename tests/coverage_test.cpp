// Coverage of the smaller public surfaces: the coroutine generator, game
// value encodings, model introspection/describe output, consensus state
// helpers, and miscellaneous utility paths that the larger suites
// exercise only implicitly.
#include <gtest/gtest.h>

#include "checker/spec.hpp"
#include "consensus/rand_consensus.hpp"
#include "game/encoding.hpp"
#include "sim/adversary.hpp"
#include "sim/generator.hpp"
#include "sim/regmodel.hpp"
#include "sim/scheduler.hpp"
#include "util/assert.hpp"

namespace rlt {
namespace {

// ---------- generator ----------

sim::Generator<int> count_to(int n) {
  for (int i = 1; i <= n; ++i) co_yield i;
}

TEST(Generator, YieldsAllValuesThenExhausts) {
  auto gen = count_to(4);
  std::vector<int> seen;
  while (gen.advance()) seen.push_back(gen.value());
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_FALSE(gen.advance());  // stays exhausted
}

TEST(Generator, EmptyGeneratorIsSafe) {
  auto gen = count_to(0);
  EXPECT_FALSE(gen.advance());
}

sim::Generator<int> throwing_gen() {
  co_yield 1;
  throw std::runtime_error("boom");
}

TEST(Generator, ExceptionsPropagateOnAdvance) {
  auto gen = throwing_gen();
  ASSERT_TRUE(gen.advance());
  EXPECT_EQ(gen.value(), 1);
  EXPECT_THROW(gen.advance(), std::runtime_error);
}

TEST(Generator, MoveTransfersOwnership) {
  auto gen = count_to(2);
  ASSERT_TRUE(gen.advance());
  sim::Generator<int> other = std::move(gen);
  ASSERT_TRUE(other.advance());
  EXPECT_EQ(other.value(), 2);
}

// ---------- game encodings ----------

TEST(GameEncoding, TupleRoundTrip) {
  for (int i : {0, 1}) {
    for (int j : {1, 2, 57, 100000}) {
      const auto v = game::encode_r1(i, j);
      EXPECT_EQ(game::r1_host(v), i);
      EXPECT_EQ(game::r1_round(v), j);
      EXPECT_NE(v, game::kBot);
    }
  }
}

TEST(GameEncoding, BoundedVariantDropsTheRound) {
  EXPECT_EQ(game::host_r1_value(0, 7, /*bounded=*/true), 0);
  EXPECT_EQ(game::host_r1_value(1, 7, /*bounded=*/true), 1);
  EXPECT_EQ(game::host_r1_value(1, 7, /*bounded=*/false),
            game::encode_r1(1, 7));
}

TEST(GameEncoding, DistinctAcrossRoundsAndHosts) {
  std::set<game::Value> seen;
  for (int j = 1; j <= 50; ++j) {
    for (int i : {0, 1}) {
      EXPECT_TRUE(seen.insert(game::encode_r1(i, j)).second);
    }
  }
}

// ---------- models ----------

TEST(Models, SemanticsNamesAreStable) {
  EXPECT_STREQ(to_string(sim::Semantics::kAtomic), "atomic");
  EXPECT_STREQ(to_string(sim::Semantics::kLinearizable), "linearizable");
  EXPECT_STREQ(to_string(sim::Semantics::kWriteStrong),
               "write-strongly-linearizable");
}

TEST(Models, AtomicModelRejectsRespondCalls) {
  const auto atomic = sim::make_model(sim::Semantics::kAtomic, 0);
  EXPECT_THROW(atomic->on_respond(0, sim::ResponseChoice{}),
               util::InvariantViolation);
}

TEST(RunOutcome, NamesAreStable) {
  EXPECT_STREQ(to_string(sim::RunOutcome::kAllDone), "all-done");
  EXPECT_STREQ(to_string(sim::RunOutcome::kStopped), "adversary-stopped");
  EXPECT_STREQ(to_string(sim::RunOutcome::kActionCap), "action-cap");
  EXPECT_STREQ(to_string(sim::RunOutcome::kDeadlock), "deadlock");
}

// ---------- spec helpers ----------

TEST(SpecHelpers, PrefixOf) {
  EXPECT_TRUE(checker::is_prefix_of({}, {1, 2}));
  EXPECT_TRUE(checker::is_prefix_of({1}, {1, 2}));
  EXPECT_TRUE(checker::is_prefix_of({1, 2}, {1, 2}));
  EXPECT_FALSE(checker::is_prefix_of({2}, {1, 2}));
  EXPECT_FALSE(checker::is_prefix_of({1, 2, 3}, {1, 2}));
}

TEST(SpecHelpers, WritesOfFiltersByKind) {
  history::History h;
  history::OpRecord op;
  op.reg = 0;
  op.process = 0;
  op.kind = history::OpKind::kWrite;
  op.value = 1;
  op.invoke = 1;
  op.response = 2;
  h.add(op);
  op.kind = history::OpKind::kRead;
  op.invoke = 3;
  op.response = 4;
  h.add(op);
  EXPECT_EQ(checker::writes_of(h, {0, 1}), (std::vector<int>{0}));
  EXPECT_EQ(checker::writes_of(h, {1}), (std::vector<int>{}));
}

TEST(SpecHelpers, SingleRegisterOfRejectsMixtures) {
  history::History h;
  history::OpRecord op;
  op.process = 0;
  op.kind = history::OpKind::kWrite;
  op.value = 1;
  op.reg = 0;
  op.invoke = 1;
  op.response = 2;
  h.add(op);
  op.reg = 1;
  op.invoke = 3;
  op.response = 4;
  h.add(op);
  EXPECT_THROW((void)checker::single_register_of(h),
               util::InvariantViolation);
}

// ---------- consensus state helpers ----------

TEST(ConsensusState, AgreementAndValiditySemantics) {
  consensus::ConsensusConfig cfg;
  cfg.n = 3;
  consensus::ConsensusState st(cfg, {0, 1, 0});
  EXPECT_FALSE(st.all_decided());
  EXPECT_TRUE(st.agreement());  // vacuous
  EXPECT_TRUE(st.validity());
  st.decisions = {1, 1, -1};
  EXPECT_TRUE(st.agreement());
  EXPECT_TRUE(st.validity());
  st.decisions = {1, 0, -1};
  EXPECT_FALSE(st.agreement());
  st.decisions = {7, 7, 7};  // not an input value
  EXPECT_FALSE(st.validity());
}

TEST(ConsensusConfig, RegisterLayoutIsDisjoint) {
  consensus::ConsensusConfig cfg;
  cfg.n = 4;
  cfg.max_rounds = 8;
  cfg.first_reg = 3;
  cfg.coin = consensus::CoinKind::kShared;
  std::set<sim::RegId> ids;
  for (int v = 0; v < 2; ++v) {
    for (int r = 0; r <= cfg.max_rounds + 1; ++r) {
      EXPECT_TRUE(ids.insert(cfg.marker_reg(v, r)).second)
          << "marker collision at v=" << v << " r=" << r;
    }
  }
  for (int r = 0; r <= cfg.max_rounds + 1; ++r) {
    for (int i = 0; i < cfg.n; ++i) {
      EXPECT_TRUE(ids.insert(cfg.coin_reg_base(r) + i).second)
          << "coin collision at r=" << r << " i=" << i;
    }
  }
}

// ---------- scheduler odds and ends ----------

sim::Task yield_thrice(sim::Proc& p, int* count) {
  for (int i = 0; i < 3; ++i) {
    co_await p.yield();
    ++*count;
  }
}

TEST(Scheduler, YieldIsAPureSchedulingPoint) {
  sim::Scheduler sched(1);
  int count = 0;
  sched.add_process("y", [&count](sim::Proc& p) {
    return yield_thrice(p, &count);
  });
  sim::RoundRobinAdversary adv;
  EXPECT_EQ(sched.run(adv), sim::RunOutcome::kAllDone);
  EXPECT_EQ(count, 3);
  EXPECT_TRUE(sched.global_history().empty());  // yields record nothing
}

TEST(Scheduler, ProcessNamesAreKept) {
  sim::Scheduler sched(1);
  int count = 0;
  const auto id = sched.add_process("my-proc", [&count](sim::Proc& p) {
    return yield_thrice(p, &count);
  });
  EXPECT_EQ(sched.process_name(id), "my-proc");
}

}  // namespace
}  // namespace rlt
