// Tests for the backtracking linearization solver — the single source of
// truth for register feasibility used by checkers and simulator models.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "checker/lin_solver.hpp"
#include "checker/stream_checker.hpp"
#include "history/view.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace rlt::checker {
namespace {

using history::History;
using history::kNoTime;
using history::OpRecord;

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

LinSolution solve_free(const History& h) {
  LinProblem p;
  p.history = &h;
  return solve(p);
}

TEST(LinSolver, EmptyHistoryIsFeasible) {
  History h;
  const LinSolution s = solve_free(h);
  EXPECT_TRUE(s.ok);
  EXPECT_TRUE(s.order.empty());
}

TEST(LinSolver, SequentialWriteRead) {
  History h;
  add(h, 0, OpKind::kWrite, 7, 1, 2);
  add(h, 1, OpKind::kRead, 7, 3, 4);
  const LinSolution s = solve_free(h);
  ASSERT_TRUE(s.ok);
  EXPECT_EQ(s.order, (std::vector<int>{0, 1}));
}

TEST(LinSolver, ReadOfInitialValue) {
  History h;
  h.set_initial(0, 9);
  add(h, 0, OpKind::kRead, 9, 1, 2);
  EXPECT_TRUE(solve_free(h).ok);
}

TEST(LinSolver, StaleReadAfterWriteIsInfeasible) {
  History h;
  h.set_initial(0, 0);
  add(h, 0, OpKind::kWrite, 7, 1, 2);
  add(h, 1, OpKind::kRead, 0, 3, 4);  // must see 7, claims 0
  EXPECT_FALSE(solve_free(h).ok);
}

TEST(LinSolver, ConcurrentWriteAllowsEitherReadValue) {
  for (const Value claimed : {0, 7}) {
    History h;
    h.set_initial(0, 0);
    add(h, 0, OpKind::kWrite, 7, 1, 10);  // overlaps the read
    add(h, 1, OpKind::kRead, claimed, 2, 5);
    EXPECT_TRUE(solve_free(h).ok) << "claimed " << claimed;
  }
}

TEST(LinSolver, NewOldInversionWithinOneReaderIsInfeasible) {
  // Reader sees the new value and then, in a later read, the old one.
  History h;
  h.set_initial(0, 0);
  add(h, 0, OpKind::kWrite, 7, 1, 20);
  add(h, 1, OpKind::kRead, 7, 2, 5);
  add(h, 1, OpKind::kRead, 0, 6, 9);
  EXPECT_FALSE(solve_free(h).ok);
}

TEST(LinSolver, NewOldInversionAcrossOverlappingReadersIsFeasible) {
  // r' responds after r but overlaps the write: may linearize before it.
  History h;
  h.set_initial(0, 0);
  add(h, 0, OpKind::kWrite, 7, 5, 20);
  add(h, 1, OpKind::kRead, 7, 6, 10);   // r   -> new
  add(h, 2, OpKind::kRead, 0, 4, 15);   // r'  -> old, overlaps write
  EXPECT_TRUE(solve_free(h).ok);
}

TEST(LinSolver, PendingWriteMayBeReadOrIgnored) {
  // Pending write: a read may return it (linearize the write first)...
  {
    History h;
    add(h, 0, OpKind::kWrite, 7, 1, kNoTime);
    add(h, 1, OpKind::kRead, 7, 2, 5);
    EXPECT_TRUE(solve_free(h).ok);
  }
  // ...or never observe it.
  {
    History h;
    h.set_initial(0, 0);
    add(h, 0, OpKind::kWrite, 7, 1, kNoTime);
    add(h, 1, OpKind::kRead, 0, 2, 5);
    EXPECT_TRUE(solve_free(h).ok);
  }
}

TEST(LinSolver, RealTimeOrderOfWritesIsRespected) {
  History h;
  h.set_initial(0, 0);
  add(h, 0, OpKind::kWrite, 1, 1, 2);
  add(h, 1, OpKind::kWrite, 2, 3, 4);
  add(h, 2, OpKind::kRead, 1, 5, 6);  // stale: w1 precedes w2 precedes read
  EXPECT_FALSE(solve_free(h).ok);
}

TEST(LinSolver, ExactOrderMatchingHistoryIsFeasible) {
  History h;
  add(h, 0, OpKind::kWrite, 1, 1, 2);
  add(h, 1, OpKind::kWrite, 2, 3, 4);
  LinProblem p;
  p.history = &h;
  p.mode = WriteOrderMode::kExact;
  p.exact_write_order = {0, 1};
  EXPECT_TRUE(solve(p).ok);
  p.exact_write_order = {1, 0};  // contradicts real time
  EXPECT_FALSE(solve(p).ok);
}

TEST(LinSolver, ExactOrderMustCoverCompletedWrites) {
  History h;
  add(h, 0, OpKind::kWrite, 1, 1, 2);
  LinProblem p;
  p.history = &h;
  p.mode = WriteOrderMode::kExact;
  p.exact_write_order = {};  // omits a completed write
  EXPECT_FALSE(solve(p).ok);
}

TEST(LinSolver, ExactOrderIncludesListedPendingWrites) {
  History h;
  h.set_initial(0, 0);
  add(h, 0, OpKind::kWrite, 7, 1, kNoTime);  // pending
  add(h, 1, OpKind::kRead, 7, 2, 5);
  LinProblem p;
  p.history = &h;
  p.mode = WriteOrderMode::kExact;
  p.exact_write_order = {0};
  const LinSolution s = solve(p);
  ASSERT_TRUE(s.ok);
  EXPECT_EQ(s.order.size(), 2u);

  // Excluding the pending write makes the read's value impossible.
  p.exact_write_order = {};
  EXPECT_FALSE(solve(p).ok);
}

TEST(LinSolver, ExactOrderConcurrentWritesBothDirections) {
  History h;
  add(h, 0, OpKind::kWrite, 1, 1, 10);
  add(h, 1, OpKind::kWrite, 2, 2, 12);  // concurrent
  for (const auto& order :
       {std::vector<int>{0, 1}, std::vector<int>{1, 0}}) {
    LinProblem p;
    p.history = &h;
    p.mode = WriteOrderMode::kExact;
    p.exact_write_order = order;
    EXPECT_TRUE(solve(p).ok);
  }
}

TEST(LinSolver, RejectsOversizedHistories) {
  History h;
  for (int i = 0; i < 65; ++i) {
    add(h, 0, OpKind::kWrite, i, 2 * i + 1, 2 * i + 2);
  }
  LinProblem p;
  p.history = &h;
  EXPECT_THROW((void)solve(p), util::InvariantViolation);
}

TEST(LinSolver, DuplicateValuesAreHandled) {
  // Two writes of the same value; read can be served by either.
  History h;
  add(h, 0, OpKind::kWrite, 5, 1, 10);
  add(h, 1, OpKind::kWrite, 5, 2, 12);
  add(h, 2, OpKind::kRead, 5, 3, 9);
  EXPECT_TRUE(solve_free(h).ok);
}

// ---------- brute-force cross-check (property test) ----------
//
// On random small single-register histories, `solve` must agree with an
// exhaustive oracle that tries every candidate linearization directly
// against the sequential spec: every subset of pending writes (pending
// reads are never linearizable; completed ops are mandatory) in every
// permutation, validated by `is_legal_sequential` — the definitional
// checker, shared with no part of the backtracking search.

bool oracle_linearizable(const History& h) {
  std::vector<int> mandatory;
  std::vector<int> pending_writes;
  for (const OpRecord& op : h.ops()) {
    if (!op.pending()) {
      mandatory.push_back(op.id);
    } else if (op.is_write()) {
      pending_writes.push_back(op.id);
    }
  }
  const std::size_t subsets = std::size_t{1} << pending_writes.size();
  for (std::size_t mask = 0; mask < subsets; ++mask) {
    std::vector<int> candidate = mandatory;
    for (std::size_t b = 0; b < pending_writes.size(); ++b) {
      if (mask & (std::size_t{1} << b)) candidate.push_back(pending_writes[b]);
    }
    std::sort(candidate.begin(), candidate.end());
    do {
      if (is_legal_sequential(h, candidate).ok) return true;
    } while (std::next_permutation(candidate.begin(), candidate.end()));
  }
  return false;
}

/// A random well-formed single-register history: up to 3 processes, each
/// with sequential operations, at most `max_ops` operations, values drawn
/// from a small domain so duplicate-value corner cases occur often.
History random_history(util::Rng& rng, int max_ops) {
  History h;
  h.set_initial(0, 0);
  const int processes = 1 + static_cast<int>(rng.uniform(3));
  const int target_ops = 1 + static_cast<int>(rng.uniform(
                                 static_cast<std::uint64_t>(max_ops)));
  std::vector<int> open_op(static_cast<std::size_t>(processes), -1);
  Time now = 0;
  int started = 0;
  // Interleave invocations and responses event by event; whatever is
  // still open when we stop remains pending.
  while (true) {
    std::vector<int> can_invoke;
    std::vector<int> can_respond;
    for (int p = 0; p < processes; ++p) {
      if (open_op[static_cast<std::size_t>(p)] >= 0) {
        can_respond.push_back(p);
      } else if (started < target_ops) {
        can_invoke.push_back(p);
      }
    }
    if (can_invoke.empty() && can_respond.empty()) break;
    // Stop early sometimes so pending tails are common.
    if (can_invoke.empty() && rng.chance(1, 4)) break;
    const bool invoke =
        !can_invoke.empty() && (can_respond.empty() || rng.chance(1, 2));
    ++now;
    if (invoke) {
      const int p = can_invoke[rng.uniform(can_invoke.size())];
      OpRecord op;
      op.process = p;
      op.reg = 0;
      op.kind = rng.chance(1, 2) ? OpKind::kWrite : OpKind::kRead;
      // Values in {0,1,2}: collisions with other writes and the initial
      // value are frequent, which is the solver's hard regime.
      op.value = static_cast<Value>(rng.uniform(3));
      op.invoke = now;
      op.response = kNoTime;
      open_op[static_cast<std::size_t>(p)] = h.add(op);
      ++started;
    } else {
      const int p = can_respond[rng.uniform(can_respond.size())];
      const int id = open_op[static_cast<std::size_t>(p)];
      // Completed reads claim a random value — roughly half the
      // histories are infeasible, exercising both oracle verdicts.
      h.complete_op(id, static_cast<Value>(rng.uniform(3)), now);
      open_op[static_cast<std::size_t>(p)] = -1;
    }
  }
  return h;
}

TEST(LinSolverOracle, SolverAgreesWithBruteForceOnRandomHistories) {
  util::Rng rng(20260730);
  int feasible = 0;
  int infeasible = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const History h = random_history(rng, /*max_ops=*/7);
    ASSERT_LE(h.size(), 7u);
    const bool expected = oracle_linearizable(h);
    const LinSolution got = solve_free(h);
    ASSERT_EQ(got.ok, expected)
        << "solver disagrees with brute-force oracle on trial " << trial
        << ":\n" << h.to_string();
    if (expected) {
      ++feasible;
      // The witness must itself satisfy the sequential spec.
      EXPECT_TRUE(is_legal_sequential(h, got.order).ok)
          << "illegal witness on trial " << trial << ":\n" << h.to_string();
    } else {
      ++infeasible;
    }
  }
  // The generator must exercise both verdicts substantially.
  EXPECT_GE(feasible, 50);
  EXPECT_GE(infeasible, 50);
}

TEST(LinSolver, WitnessIsAlwaysLegal) {
  // The returned order must itself pass the sequential validator.
  History h;
  h.set_initial(0, 0);
  add(h, 0, OpKind::kWrite, 1, 1, 8);
  add(h, 1, OpKind::kWrite, 2, 2, 9);
  add(h, 2, OpKind::kRead, 1, 3, 7);
  add(h, 2, OpKind::kRead, 2, 10, 12);
  const LinSolution s = solve_free(h);
  ASSERT_TRUE(s.ok);
  EXPECT_TRUE(is_legal_sequential(h, s.order).ok);
}

// ---------- brute-force oracles for the optimized fast path ----------
//
// The oracles below enumerate candidate linearizations explicitly and
// validate each with `is_legal_sequential` / `writes_of` — definitional
// code, independent of the solver's bitmask machinery.  Enumeration is
// factorial, so oracle comparisons are skipped (and counted) when a
// trial's candidate set is too large to enumerate; the tests assert that
// enough trials were actually compared.

constexpr std::size_t kMaxOraclePermutationBase = 8;  // 8! = 40320

/// Oracle verdict for kExact mode: some permutation of (completed ops +
/// the listed pending writes) is legal AND has exactly `exact` as its
/// write subsequence.  Returns nullopt when too large to enumerate.
std::optional<bool> oracle_exact(const History& h,
                                 const std::vector<int>& exact) {
  std::vector<int> candidate;
  std::vector<bool> listed(h.size(), false);
  for (const int id : exact) listed[static_cast<std::size_t>(id)] = true;
  for (const OpRecord& op : h.ops()) {
    if (!op.pending()) {
      // A completed write outside the list can never be covered.
      if (op.is_write() && !listed[static_cast<std::size_t>(op.id)]) {
        return false;
      }
      candidate.push_back(op.id);
    } else if (op.is_write() && listed[static_cast<std::size_t>(op.id)]) {
      candidate.push_back(op.id);
    }
  }
  if (candidate.size() > kMaxOraclePermutationBase) return std::nullopt;
  std::sort(candidate.begin(), candidate.end());
  do {
    if (writes_of(h, candidate) == exact &&
        is_legal_sequential(h, candidate).ok) {
      return true;
    }
  } while (std::next_permutation(candidate.begin(), candidate.end()));
  return false;
}

/// Random permutation of a random subset of `h`'s writes — an exact-order
/// constraint that is sometimes satisfiable, sometimes not.
std::vector<int> random_exact_order(util::Rng& rng, const History& h) {
  std::vector<int> writes;
  for (const OpRecord& op : h.ops()) {
    if (op.is_write()) writes.push_back(op.id);
  }
  // Shuffle, then keep a random-length prefix.
  for (std::size_t i = writes.size(); i > 1; --i) {
    std::swap(writes[i - 1], writes[rng.uniform(i)]);
  }
  writes.resize(rng.uniform(writes.size() + 1));
  return writes;
}

TEST(LinSolverOracle, ExactModeAgreesWithBruteForce) {
  util::Rng rng(424242);
  int feasible_count = 0, infeasible_count = 0, skipped = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const History h = random_history(rng, /*max_ops=*/12);
    LinProblem p;
    p.history = &h;
    p.mode = WriteOrderMode::kExact;
    p.exact_write_order = random_exact_order(rng, h);
    const std::optional<bool> expected = oracle_exact(h, p.exact_write_order);
    if (!expected.has_value()) {
      ++skipped;
      continue;
    }
    const LinSolution got = solve(p);
    ASSERT_EQ(got.ok, *expected)
        << "kExact disagreement on trial " << trial << ":\n" << h.to_string();
    EXPECT_EQ(feasible(p), *expected) << "feasible() out of sync with solve()";
    if (*expected) {
      ++feasible_count;
      EXPECT_TRUE(is_legal_sequential(h, got.order).ok);
      EXPECT_EQ(writes_of(h, got.order), p.exact_write_order)
          << "witness write subsequence differs from the exact order";
    } else {
      ++infeasible_count;
    }
  }
  EXPECT_GE(feasible_count, 40);
  EXPECT_GE(infeasible_count, 40);
  EXPECT_LT(skipped, 200);
}

// ---------- zero-copy prefix views ----------

TEST(LinSolverView, CutoffMatchesMaterializedPrefix) {
  // Solving with a cutoff must agree with solving the copied prefix, for
  // every event time of random histories.  (The copied prefix re-densifies
  // ids, so only verdicts are comparable, which is exactly what the fast
  // path must preserve.)
  util::Rng rng(5150);
  int prefixes = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const History h = random_history(rng, /*max_ops=*/12);
    for (const history::Event& ev : h.events()) {
      const History copied = h.prefix_at(ev.time);
      LinProblem view_p;
      view_p.history = &h;
      view_p.cutoff = ev.time;
      LinProblem copy_p;
      copy_p.history = &copied;
      ASSERT_EQ(feasible(view_p), feasible(copy_p))
          << "view/copy verdict mismatch at t=" << ev.time << ":\n"
          << h.to_string();
      ASSERT_EQ(solve(view_p).ok, solve(copy_p).ok)
          << "view/copy solve mismatch at t=" << ev.time << ":\n"
          << h.to_string();
      ++prefixes;
    }
  }
  EXPECT_GE(prefixes, 300);
}

TEST(LinSolverView, HistoryViewMatchesPrefixSemantics) {
  util::Rng rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    const History h = random_history(rng, /*max_ops=*/12);
    for (const history::Event& ev : h.events()) {
      const history::HistoryView view(h, ev.time);
      const History copied = h.prefix_at(ev.time);
      EXPECT_EQ(view.included_count(), copied.size());
      EXPECT_EQ(view.completed_count(), copied.completed_count());
      EXPECT_EQ(view.materialize(), copied);
    }
    // A cutoff-less view is the whole history.
    const history::HistoryView whole(h);
    EXPECT_EQ(whole.included_count(), h.size());
    EXPECT_EQ(whole.completed_count(), h.completed_count());
  }
}

// ---------- dominance pruning ----------
//
// The pruning rules (lin_solver.hpp file comment) are verdict-preserving
// by construction; these tests pin that claim empirically (prune on/off
// A/B of `feasible` and `solve` over the oracle generator, both modes)
// and pin the capability the pruning buys: adversarial many-writer
// windows that the unpruned search cannot finish.

TEST(LinSolverPrune, OnOffAgreeOnRandomHistoriesFreeMode) {
  util::Rng rng(0x5EED);
  for (int trial = 0; trial < 400; ++trial) {
    const History h = random_history(rng, /*max_ops=*/10);
    LinProblem on;
    on.history = &h;
    LinProblem off = on;
    off.prune = false;
    ASSERT_EQ(feasible(on), feasible(off)) << h.to_string();
    const LinSolution s = solve(on);
    ASSERT_EQ(s.ok, solve(off).ok) << h.to_string();
    ASSERT_EQ(s.ok, feasible(on)) << h.to_string();
    if (s.ok) {
      // The pruned witness (eager-read + accept-shortcut paths included)
      // must itself be a legal linearization.
      EXPECT_TRUE(is_legal_sequential(h, s.order).ok) << h.to_string();
    }
  }
}

TEST(LinSolverPrune, OnOffAgreeOnRandomHistoriesExactMode) {
  util::Rng rng(0xD00D);
  for (int trial = 0; trial < 400; ++trial) {
    const History h = random_history(rng, /*max_ops=*/10);
    LinProblem on;
    on.history = &h;
    on.mode = WriteOrderMode::kExact;
    on.exact_write_order = random_exact_order(rng, h);
    LinProblem off = on;
    off.prune = false;
    ASSERT_EQ(feasible(on), feasible(off)) << h.to_string();
    const LinSolution s = solve(on);
    ASSERT_EQ(s.ok, solve(off).ok) << h.to_string();
    ASSERT_EQ(s.ok, feasible(on)) << h.to_string();
    if (s.ok) {
      EXPECT_TRUE(is_legal_sequential(h, s.order).ok) << h.to_string();
    }
  }
}

TEST(LinSolverPrune, AllIntegerCutoffsMatchMaterializedPrefixes) {
  // Permanent version of the cutoff fuzz: solving under EVERY integer
  // cutoff — including cutoffs strictly between an invocation and its
  // response, which no event-time loop probes — must agree with solving
  // the materialized prefix, with pruning on and off.
  util::Rng rng(20260808);
  int probes = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const History h = random_history(rng, /*max_ops=*/10);
    Time max_time = 0;
    for (const OpRecord& op : h.ops()) {
      max_time = std::max(max_time, op.invoke);
      if (!op.pending()) max_time = std::max(max_time, op.response);
    }
    for (Time t = 0; t <= max_time + 1; ++t) {
      const History copied = h.prefix_at(t);
      for (const bool prune : {true, false}) {
        LinProblem view_p;
        view_p.history = &h;
        view_p.cutoff = t;
        view_p.prune = prune;
        LinProblem copy_p;
        copy_p.history = &copied;
        copy_p.prune = prune;
        ASSERT_EQ(feasible(view_p), feasible(copy_p))
            << "cutoff t=" << t << " prune=" << prune << ":\n"
            << h.to_string();
        ASSERT_EQ(solve(view_p).ok, solve(copy_p).ok)
            << "cutoff t=" << t << " prune=" << prune << ":\n"
            << h.to_string();
        ++probes;
      }
    }
  }
  EXPECT_GE(probes, 800);
}

/// The adversarial many-writer window: `writers` fully concurrent writes
/// of distinct values, `reads_per_value` completed concurrent reads of
/// each written value, and optionally one read of a value nobody writes.
/// Every op overlaps every other, so the unpruned DFS faces the full
/// writers! × interleavings explosion.
History many_writer_window(int writers, int reads_per_value, bool add_bad_read) {
  History h;
  h.set_initial(0, 0);
  Time t = 0;
  std::vector<int> ids;
  for (int w = 0; w < writers; ++w) {
    ids.push_back(add(h, w, OpKind::kWrite, 10 + w, ++t, kNoTime));
  }
  for (int w = 0; w < writers; ++w) {
    for (int r = 0; r < reads_per_value; ++r) {
      ids.push_back(
          add(h, writers + w, OpKind::kRead, 10 + w, ++t, kNoTime));
    }
  }
  if (add_bad_read) {
    ids.push_back(add(h, 2 * writers, OpKind::kRead, 99, ++t, kNoTime));
  }
  // Respond everyone long after every invocation: total overlap.
  Time r = 1000;
  for (const int id : ids) h.complete_op(id, h.op(id).value, ++r);
  return h;
}

TEST(LinSolverPrune, ManyWriterInfeasibleWindowsSolveFast) {
  // 8..10 writers/register — past the seed's practical ~6-writer ceiling.
  // The doomed-state rule rejects the unobtainable read near the root;
  // without pruning this family is a multi-minute search.
  for (const int writers : {8, 9, 10}) {
    const History h = many_writer_window(writers, /*reads_per_value=*/3,
                                         /*add_bad_read=*/true);
    LinProblem p;
    p.history = &h;
    EXPECT_FALSE(feasible(p)) << writers << " writers";
  }
}

TEST(LinSolverPrune, ManyWriterFeasibleWindowsSolveFast) {
  for (const int writers : {8, 9, 10}) {
    const History h = many_writer_window(writers, /*reads_per_value=*/3,
                                         /*add_bad_read=*/false);
    LinProblem p;
    p.history = &h;
    const LinSolution s = solve(p);
    ASSERT_TRUE(s.ok) << writers << " writers";
    EXPECT_TRUE(is_legal_sequential(h, s.order).ok);
  }
}

TEST(LinSolverPrune, ManyWriterFamilyAgreesWithUnprunedAtSmallSizes) {
  // The same family, small enough for the unpruned search: `feasible`
  // and `solve` must match, feasible and infeasible alike.
  for (const int writers : {2, 3, 4}) {
    for (const bool bad_read : {false, true}) {
      const History h =
          many_writer_window(writers, /*reads_per_value=*/2, bad_read);
      LinProblem on;
      on.history = &h;
      LinProblem off = on;
      off.prune = false;
      ASSERT_EQ(feasible(on), feasible(off))
          << writers << " writers, bad_read=" << bad_read;
      ASSERT_EQ(solve(on).ok, solve(off).ok)
          << writers << " writers, bad_read=" << bad_read;
      EXPECT_EQ(feasible(on), !bad_read);
    }
  }
}

TEST(LinSolverPrune, StreamingCheckerClearsManyWriterWindows) {
  // The on-line path checks >= 7 concurrent writers per register too: the
  // configuration set holds every write order still open, and rejects at
  // the exact event.
  for (const int writers : {7, 8, 9, 10}) {
    const History good = many_writer_window(writers, 3, false);
    StreamingChecker ok_checker = check_stream(good);
    EXPECT_TRUE(ok_checker.ok()) << writers << " writers";
    EXPECT_TRUE(ok_checker.error().empty());

    const History bad = many_writer_window(writers, 3, true);
    StreamingChecker bad_checker = check_stream(bad);
    EXPECT_FALSE(bad_checker.ok()) << writers << " writers";
    EXPECT_TRUE(bad_checker.error().empty());
    // Rejection lands exactly at the unobtainable read's response: the
    // last event of the stream (prefix-exactness at scale).
    EXPECT_EQ(bad_checker.first_violation_event(),
              static_cast<std::int64_t>(bad_checker.events_processed()) - 1);
  }
}

}  // namespace
}  // namespace rlt::checker
