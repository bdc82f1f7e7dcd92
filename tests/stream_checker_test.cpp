// Tests for the streaming online checker (checker/stream_checker.hpp):
// unit behaviour of the incremental frontier, the bounded-memory
// guarantee, prefix-exact verdicts against a batch bisection oracle, and
// the differential suite that replays every sweep-family history through
// both checkers and demands verdict agreement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "checker/lin_checker.hpp"
#include "checker/stream_checker.hpp"
#include "explore/explore.hpp"
#include "history/history.hpp"
#include "obs/metrics.hpp"
#include "sweep/scenario.hpp"
#include "sweep/sweep.hpp"
#include "util/rng.hpp"

namespace rlt::checker {
namespace {

using history::History;
using history::kNoTime;
using history::OpRecord;
using history::Time;

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

/// Same generator family as the solver oracle tests: short histories
/// with random interleavings and random read RESULTS, so a healthy
/// fraction of them are genuinely non-linearizable.
History random_history(util::Rng& rng, int max_ops) {
  History h;
  h.set_initial(0, 0);
  const int processes = 1 + static_cast<int>(rng.uniform(3));
  const int target_ops =
      1 + static_cast<int>(rng.uniform(static_cast<std::uint64_t>(max_ops)));
  std::vector<int> open_op(static_cast<std::size_t>(processes), -1);
  Time now = 0;
  int started = 0;
  while (true) {
    std::vector<int> can_invoke;
    std::vector<int> can_respond;
    for (int p = 0; p < processes; ++p) {
      if (open_op[static_cast<std::size_t>(p)] >= 0) can_respond.push_back(p);
      else if (started < target_ops) can_invoke.push_back(p);
    }
    if (can_invoke.empty() && can_respond.empty()) break;
    if (can_invoke.empty() && rng.chance(1, 4)) break;  // pending tail
    const bool invoke =
        !can_invoke.empty() && (can_respond.empty() || rng.chance(1, 2));
    ++now;
    if (invoke) {
      const int p = can_invoke[rng.uniform(can_invoke.size())];
      OpRecord op;
      op.process = p;
      op.reg = 0;
      op.kind = rng.chance(1, 2) ? OpKind::kWrite : OpKind::kRead;
      op.value = static_cast<Value>(rng.uniform(3));
      op.invoke = now;
      op.response = kNoTime;
      open_op[static_cast<std::size_t>(p)] = h.add(op);
      ++started;
    } else {
      const int p = can_respond[rng.uniform(can_respond.size())];
      h.complete_op(open_op[static_cast<std::size_t>(p)],
                    static_cast<Value>(rng.uniform(3)), now);
      open_op[static_cast<std::size_t>(p)] = -1;
    }
  }
  return h;
}

// ---------- unit behaviour ----------

TEST(StreamChecker, EmptyStreamIsOk) {
  StreamingChecker c;
  EXPECT_TRUE(c.ok());
  EXPECT_EQ(c.first_violation_event(), -1);
  EXPECT_EQ(c.events_processed(), 0u);
  EXPECT_EQ(c.live_ops(), 0u);
}

TEST(StreamChecker, SequentialWriteReadIsOk) {
  StreamingChecker c;
  const int w = c.on_invoke(0, OpKind::kWrite, 7, 1);
  c.on_response(w, 7, 2);
  const int r = c.on_invoke(0, OpKind::kRead, 0, 3);
  c.on_response(r, 7, 4);
  EXPECT_TRUE(c.ok());
  EXPECT_EQ(c.events_processed(), 4u);
  EXPECT_EQ(c.live_ops(), 0u);  // nothing open
  EXPECT_EQ(c.peak_live_ops(), 1u);
  EXPECT_EQ(c.peak_configs(), 1u);
}

TEST(StreamChecker, StaleReadRejectsAtTheExactEvent) {
  StreamingChecker c;
  const int w = c.on_invoke(0, OpKind::kWrite, 7, 1);
  c.on_response(w, 7, 2);
  const int r = c.on_invoke(0, OpKind::kRead, 0, 3);
  c.on_response(r, 9, 4);  // 9 was never written and is not the initial
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(c.error().empty());        // a verdict, not a limit
  EXPECT_EQ(c.first_violation_event(), 3);  // 0-based: the read's response
}

TEST(StreamChecker, LatchesAfterAViolation) {
  StreamingChecker c;
  const int r = c.on_invoke(0, OpKind::kRead, 0, 1);
  c.on_response(r, 5, 2);  // violation: reads initial 0
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.first_violation_event(), 1);
  // Later (even clean) events keep counting but cannot move the verdict.
  const int w = c.on_invoke(0, OpKind::kWrite, 5, 3);
  c.on_response(w, 5, 4);
  EXPECT_EQ(c.first_violation_event(), 1);
  EXPECT_EQ(c.events_processed(), 4u);
  EXPECT_FALSE(c.ok());
}

TEST(StreamChecker, InitialValuesAreRespected) {
  StreamingChecker good;
  good.set_initial(0, 9);
  const int r1 = good.on_invoke(0, OpKind::kRead, 0, 1);
  good.on_response(r1, 9, 2);
  EXPECT_TRUE(good.ok());

  StreamingChecker bad;
  bad.set_initial(0, 9);
  const int r2 = bad.on_invoke(0, OpKind::kRead, 0, 1);
  bad.on_response(r2, 0, 2);  // initial is 9 here, not the default 0
  EXPECT_FALSE(bad.ok());
}

TEST(StreamChecker, RegistersAreCheckedIndependently) {
  // Locality: a violation on register 1 must not depend on (or disturb)
  // the clean traffic interleaved on register 0.
  StreamingChecker c;
  const int w0 = c.on_invoke(0, OpKind::kWrite, 3, 1);
  const int r1 = c.on_invoke(1, OpKind::kRead, 0, 2);
  c.on_response(w0, 3, 3);
  c.on_response(r1, 8, 4);  // register 1 never held 8
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.first_violation_event(), 3);
}

TEST(StreamChecker, PendingWriteIsPossiblyEffective) {
  // A read may return the value of a write that never responds (the
  // crash/stall truncation shape from PR 3): the pending write must
  // reach the solver as possibly-effective on the streaming path too.
  StreamingChecker c;
  (void)c.on_invoke(0, OpKind::kWrite, 5, 1);  // never responds
  const int r = c.on_invoke(0, OpKind::kRead, 0, 2);
  c.on_response(r, 5, 3);
  EXPECT_TRUE(c.ok());
  EXPECT_EQ(c.live_ops(), 1u);  // the pending write stays open

  StreamingChecker d;
  const int r2 = d.on_invoke(0, OpKind::kRead, 0, 2);
  d.on_response(r2, 5, 3);  // no such write, pending or otherwise
  EXPECT_FALSE(d.ok());
}

TEST(StreamChecker, FirstEventAtTimeZeroIsAccepted) {
  // External streams may start their clock at 0; only *subsequent*
  // events must strictly increase.
  StreamingChecker c;
  const int w = c.on_invoke(0, OpKind::kWrite, 1, 0);
  c.on_response(w, 1, 1);
  EXPECT_TRUE(c.ok());
  EXPECT_TRUE(c.error().empty());
}

TEST(StreamChecker, CollapseRetiresWindowsAtQuiescence) {
  // Sequential ops never hold more than one op open or one configuration:
  // what a quiescent point once retired is simply never kept.
  StreamingChecker c;
  for (int i = 0; i < 10; ++i) {
    const Time t = static_cast<Time>(2 * i);
    const int w = c.on_invoke(0, OpKind::kWrite, i, t);
    c.on_response(w, static_cast<Value>(i), t + 1);
  }
  EXPECT_TRUE(c.ok());
  EXPECT_EQ(c.peak_live_ops(), 1u);
  EXPECT_EQ(c.live_ops(), 0u);
  EXPECT_EQ(c.peak_configs(), 1u);
}

TEST(StreamChecker, OneOpWindowsReachNoSolver) {
  // Every event updates the configuration set and none calls the solver,
  // which is the batch checker's alone; overlapping ops included.
  constexpr auto kCalls =
      static_cast<std::size_t>(obs::Counter::kCheckerSolverCalls);
  ASSERT_EQ(obs::counter_name(obs::Counter::kCheckerSolverCalls),
            "checker.solver_calls");
  obs::set_enabled(true);
  const obs::CounterDelta before = obs::thread_counters();
  StreamingChecker c;
  Time t = 0;
  for (int i = 0; i < 10; ++i) {
    const int w = c.on_invoke(0, OpKind::kWrite, i, ++t);
    const int r = c.on_invoke(0, OpKind::kRead, 0, ++t);
    c.on_response(w, static_cast<Value>(i), ++t);
    c.on_response(r, static_cast<Value>(i), ++t);
  }
  obs::CounterDelta calls = obs::thread_counters();
  obs::set_enabled(false);
  calls -= before;
  EXPECT_TRUE(c.ok());
  EXPECT_EQ(c.peak_live_ops(), 2u);
  EXPECT_EQ(c.live_ops(), 0u);
  EXPECT_EQ(calls.v[kCalls], 0u);
}

TEST(StreamChecker, LoneReadsSeeEveryValueACollapseKept) {
  // Two overlapping writes leave 1 or 2 behind.  A lone read may return
  // either, and its response keeps only the configurations holding the
  // value it returned; any other value is rejected at exactly the read's
  // response.
  const auto run = [](Value first, Value second) {
    StreamingChecker c;
    const int w1 = c.on_invoke(0, OpKind::kWrite, 1, 1);
    const int w2 = c.on_invoke(0, OpKind::kWrite, 2, 2);
    c.on_response(w1, 1, 3);
    c.on_response(w2, 2, 4);
    const int r1 = c.on_invoke(0, OpKind::kRead, 0, 5);
    c.on_response(r1, first, 6);
    const int r2 = c.on_invoke(0, OpKind::kRead, 0, 7);
    c.on_response(r2, second, 8);
    return c.first_violation_event();
  };
  for (const Value v : {1, 2}) {
    EXPECT_EQ(run(v, v), -1) << v;
    EXPECT_EQ(run(v, 3 - v), 7) << v;
  }
  for (const Value v : {0, 3}) EXPECT_EQ(run(v, 1), 5) << v;
}

// ---------- limits are errors, not verdicts ----------

TEST(StreamChecker, OutOfOrderTimesLatchAnError) {
  StreamingChecker c;
  const int w = c.on_invoke(0, OpKind::kWrite, 1, 5);
  c.on_response(w, 1, 5);  // not strictly after the invocation
  EXPECT_FALSE(c.ok());
  EXPECT_FALSE(c.error().empty());
  EXPECT_EQ(c.first_violation_event(), -1);  // unvalidated, not wrong
}

TEST(StreamChecker, UnknownOpIdLatchesAnError) {
  StreamingChecker c;
  c.on_response(42, 0, 1);
  EXPECT_FALSE(c.ok());
  EXPECT_FALSE(c.error().empty());
  EXPECT_EQ(c.first_violation_event(), -1);
}

TEST(StreamChecker, WindowOverflowLatchesAnError) {
  // A register holds at most 64 ops open at once (one bit each).  The
  // 65th concurrent op leaves the stream unvalidated, not wrong.
  StreamingChecker c;
  for (int i = 0; i < 64; ++i) {
    (void)c.on_invoke(0, OpKind::kWrite, i, static_cast<Time>(i + 1));
  }
  EXPECT_TRUE(c.ok());
  EXPECT_EQ(c.live_ops(), 64u);
  (void)c.on_invoke(0, OpKind::kWrite, 64, 65);  // 65th concurrent op
  EXPECT_FALSE(c.ok());
  EXPECT_NE(c.error().find("more than 64 open ops"), std::string::npos);
  EXPECT_EQ(c.first_violation_event(), -1);
}

TEST(StreamChecker, TooManyConfigurationsLatchAnError) {
  // Overlapping writes respond one by one, each after a new read opens:
  // every response may put its write just before the last one or after
  // it, and the open reads tell the choices apart, so the set doubles
  // with each response.  Past the cap (here 1,024 configurations) the
  // stream is unvalidated, not wrong.
  StreamingChecker c(1024);
  Time t = 0;
  std::vector<int> writes;
  for (int i = 0; i < 24; ++i) {
    writes.push_back(c.on_invoke(0, OpKind::kWrite, i + 1, ++t));
  }
  for (const int w : writes) {
    (void)c.on_invoke(0, OpKind::kRead, 0, ++t);
    c.on_response(w, 0, ++t);
    if (!c.ok()) break;
  }
  EXPECT_FALSE(c.ok());
  EXPECT_NE(c.error().find("more than 1024 configurations"), std::string::npos)
      << c.error();
  EXPECT_EQ(c.first_violation_event(), -1);
  EXPECT_EQ(c.peak_configs(), 1024u);
}

// ---------- bounded memory ----------

TEST(StreamChecker, MillionEventStreamRunsInBoundedMemory) {
  // 10^6 events of genuinely overlapping traffic.  Live state stays at
  // the overlap degree (2 open ops) and one configuration (the write is
  // linearized by its response, the read returns its value), never the
  // stream length.
  StreamingChecker c;
  constexpr std::uint64_t kIterations = 250'000;  // 4 events each
  Time t = 0;
  for (std::uint64_t i = 0; i < kIterations; ++i) {
    const Value v = static_cast<Value>(i % 3);
    const int w = c.on_invoke(0, OpKind::kWrite, v, ++t);
    const int r = c.on_invoke(0, OpKind::kRead, 0, ++t);  // overlaps w
    c.on_response(w, v, ++t);
    c.on_response(r, v, ++t);  // reads the overlapping write's value
    ASSERT_TRUE(c.ok()) << "iteration " << i;
  }
  EXPECT_EQ(c.events_processed(), 4 * kIterations);
  EXPECT_EQ(c.live_ops(), 0u);
  EXPECT_EQ(c.peak_live_ops(), 2u);
  EXPECT_EQ(c.peak_configs(), 1u);
}

// ---------- differential: streaming vs batch ----------

TEST(StreamChecker, AgreesWithBatchOnRandomHistories) {
  util::Rng rng(0xC0FFEE);
  int violations = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const History h = random_history(rng, 10);
    const StreamingChecker sc = check_stream(h);
    ASSERT_TRUE(sc.error().empty()) << sc.error() << "\n" << h.to_string();
    const bool batch = check_linearizable(h).ok;
    EXPECT_EQ(sc.ok(), batch) << h.to_string();
    if (!batch) ++violations;
  }
  // The generator must actually exercise the rejecting path.
  EXPECT_GT(violations, 100);
}

TEST(StreamChecker, FirstRejectionMatchesBatchMinimalFailingPrefix) {
  // Prefix-monotonicity oracle: the streaming checker's first rejection
  // index must equal the index found by bisecting the batch checker over
  // event prefixes (here: a linear scan, which also proves minimality).
  util::Rng rng(0xBADC0DE);
  int checked = 0;
  for (int trial = 0; trial < 800; ++trial) {
    const History h = random_history(rng, 10);
    const StreamingChecker sc = check_stream(h);
    ASSERT_TRUE(sc.error().empty());
    if (sc.ok()) continue;
    const std::vector<history::Event> events = h.events();
    std::optional<std::int64_t> batch_first;
    for (std::size_t j = 0; j < events.size() && !batch_first; ++j) {
      if (!check_linearizable(h.prefix_at(events[j].time)).ok) {
        batch_first = static_cast<std::int64_t>(j);
      }
    }
    ASSERT_TRUE(batch_first.has_value()) << h.to_string();
    EXPECT_EQ(sc.first_violation_event(), *batch_first) << h.to_string();
    ++checked;
  }
  EXPECT_GT(checked, 50);
}

// ---------- differential: every sweep family ----------

TEST(StreamChecker, OnlineSweepAgreesAcrossEveryFamily) {
  // The --online cross-check runs inside classify_run: any batch/online
  // split reports kError with a loud detail.  Sweep the full family
  // cross-product — modeled (three semantics), alg2, alg4, ABD — under
  // fault-free, minority-crash, and stall regimes, and require every
  // record to be byte-identical to its offline twin (which also proves
  // no kError was introduced).
  sweep::SweepOptions o;
  o.faults = {sweep::FaultKind::kNone, sweep::FaultKind::kMinorityCrash,
              sweep::FaultKind::kStall};
  o.crash_seeds = {0, 1};
  o.seed_begin = 0;
  o.seed_end = 3;
  for (sweep::Scenario s : sweep::enumerate_scenarios(o)) {
    const sweep::ScenarioResult off = sweep::run_scenario(s);
    s.online_check = true;
    const sweep::ScenarioResult on = sweep::run_scenario(s);
    ASSERT_EQ(off.verdict, on.verdict)
        << s.key() << ": offline [" << to_string(off.verdict) << "] "
        << off.detail << " vs online [" << to_string(on.verdict) << "] "
        << on.detail;
    EXPECT_EQ(off.detail, on.detail) << s.key();
    EXPECT_EQ(off.history_hash, on.history_hash) << s.key();
    EXPECT_EQ(off.steps, on.steps) << s.key();
  }
}

TEST(StreamChecker, OnlineAgreesOnPlantedAblationViolations) {
  // Genuine violations (ABD without read write-back, the PR 3 recipe):
  // the streaming checker must agree the history is bad, so the online
  // run still classifies kViolation — identically — rather than kError.
  sweep::Scenario base;
  base.algorithm = sweep::Algorithm::kAbd;
  base.adversary = sweep::AdversaryKind::kRandom;
  base.processes = 5;
  base.abd_read_write_back = false;
  int found = 0;
  for (std::uint64_t seed = 0; seed < 300 && found < 3; ++seed) {
    base.seed = seed;
    base.online_check = false;
    const sweep::ScenarioResult off = sweep::run_scenario(base);
    if (off.verdict != sweep::Verdict::kViolation) continue;
    ++found;
    base.online_check = true;
    const sweep::ScenarioResult on = sweep::run_scenario(base);
    EXPECT_EQ(on.verdict, sweep::Verdict::kViolation) << on.detail;
    EXPECT_EQ(on.detail, off.detail);
    EXPECT_EQ(on.history_hash, off.history_hash);
  }
  ASSERT_GT(found, 0) << "no ablation violation found — widen the seed scan";
}

TEST(StreamChecker, OnlineAgreesOnBudgetTruncatedViolations) {
  // PR 3's verdict-masking regression, extended to the streaming entry
  // point: a budget-truncated prefix containing the planted violation
  // classifies kViolation both offline and online, byte-identically.
  sweep::Scenario base;
  base.algorithm = sweep::Algorithm::kAbd;
  base.adversary = sweep::AdversaryKind::kRandom;
  base.processes = 5;
  base.abd_read_write_back = false;
  std::optional<std::uint64_t> violating_seed;
  for (std::uint64_t seed = 0; seed < 300 && !violating_seed; ++seed) {
    base.seed = seed;
    if (sweep::run_scenario(base).verdict == sweep::Verdict::kViolation) {
      violating_seed = seed;
    }
  }
  ASSERT_TRUE(violating_seed.has_value());
  base.seed = *violating_seed;
  bool truncated_case_hit = false;
  for (std::uint64_t budget = 1; budget <= 600; ++budget) {
    base.max_actions = budget;
    base.online_check = false;
    const sweep::ScenarioResult off = sweep::run_scenario(base);
    base.online_check = true;
    const sweep::ScenarioResult on = sweep::run_scenario(base);
    ASSERT_EQ(off.verdict, on.verdict)
        << "budget " << budget << ": " << off.detail << " vs " << on.detail;
    ASSERT_EQ(off.detail, on.detail) << "budget " << budget;
    if (off.verdict == sweep::Verdict::kViolation &&
        off.detail.find("action budget") != std::string::npos) {
      truncated_case_hit = true;
    }
  }
  EXPECT_TRUE(truncated_case_hit);
}

TEST(StreamChecker, OnlineExploreFindsTheSamePlantedViolation) {
  // Explore witnesses: the schedule search with the --online cross-check
  // active must find the planted violation and produce the identical
  // deterministic summary (digest covers every instance outcome).
  explore::ExploreOptions o;
  o.objective = explore::Objective::kViolation;
  o.algorithms = {sweep::Algorithm::kAbd};
  o.abd_read_write_back = false;
  o.process_counts = {5};
  o.seed_begin = 0;
  o.seed_end = 2;
  o.search_budget = 16;
  o.shrink_budget = 512;
  const explore::ExploreSummary off = run_explore(o);
  o.online = true;
  const explore::ExploreSummary on = run_explore(o);
  EXPECT_EQ(off.stable_text(), on.stable_text());
  EXPECT_GT(on.violations_found, 0u);
  EXPECT_EQ(on.errors, 0u);
}

TEST(StreamChecker, OnlineSweepAgreesOnDegradedFaultFabricHistories) {
  // The unreliable-network fabric (PR 7): histories recorded under
  // message loss, duplication, healed partitions, majority loss, and
  // crash-recovery — including abandoned ops pending forever — must
  // stream to the same verdict as the batch checker, byte-identically.
  // Duplicated deliveries never reach the history (receiver-side dedup),
  // but retransmission reshapes op windows, and blocked runs hand the
  // checkers truncated, pending-heavy shapes.
  sweep::SweepOptions o;
  o.algorithms = {sweep::Algorithm::kAbd};
  o.faults = {sweep::FaultKind::kLossy, sweep::FaultKind::kDuplicate,
              sweep::FaultKind::kPartition, sweep::FaultKind::kMajorityCrash,
              sweep::FaultKind::kCrashRecovery};
  o.drop_permille = 300;
  o.crash_seeds = {0, 1};
  o.seed_begin = 0;
  o.seed_end = 4;
  int blocked = 0;
  for (sweep::Scenario s : sweep::enumerate_scenarios(o)) {
    const sweep::ScenarioResult off = sweep::run_scenario(s);
    s.online_check = true;
    const sweep::ScenarioResult on = sweep::run_scenario(s);
    ASSERT_EQ(off.verdict, on.verdict)
        << s.key() << ": offline [" << to_string(off.verdict) << "] "
        << off.detail << " vs online [" << to_string(on.verdict) << "] "
        << on.detail;
    EXPECT_EQ(off.detail, on.detail) << s.key();
    EXPECT_EQ(off.history_hash, on.history_hash) << s.key();
    EXPECT_EQ(off.steps, on.steps) << s.key();
    ASSERT_NE(off.verdict, sweep::Verdict::kError) << s.key() << off.detail;
    if (off.verdict == sweep::Verdict::kBlocked) ++blocked;
  }
  // The majority-loss slice alone guarantees degraded histories flowed
  // through both checkers.
  EXPECT_GT(blocked, 0);
}

// ---------- check_stream on hand-built blocked histories ----------

TEST(StreamChecker, BlockedCrashHistoriesStreamClean) {
  // The hand-built blocked-by-crash shape (PR 3): a stranded pending read
  // reaches the streaming checker as an op that simply never responds.
  History h;
  add(h, 0, OpKind::kWrite, 4, 1, 2);
  OpRecord stranded;
  stranded.process = 1;
  stranded.reg = 0;
  stranded.kind = OpKind::kRead;
  stranded.value = 0;
  stranded.invoke = 3;
  stranded.response = kNoTime;
  h.add(stranded);
  const StreamingChecker sc = check_stream(h);
  EXPECT_TRUE(sc.ok());
  EXPECT_TRUE(sc.error().empty());
  EXPECT_EQ(sc.live_ops(), 1u);  // only the stranded read is still live
  EXPECT_EQ(check_linearizable(h).ok, sc.ok());
}

}  // namespace
}  // namespace rlt::checker
