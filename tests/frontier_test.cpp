// Oracles for the configuration sets (checker/frontier.hpp): their read
// menus, WSL commitment menus and verdicts against brute force on short
// histories and against the solver on histories of up to 64 ops, and its
// state bounded by open ops rather than history length.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "checker/frontier.hpp"
#include "checker/lin_checker.hpp"
#include "checker/lin_solver.hpp"
#include "checker/stream_checker.hpp"
#include "checker/tree_common.hpp"
#include "history/history.hpp"
#include "util/rng.hpp"

namespace rlt::checker {
namespace {

using history::History;
using history::kNoTime;
using history::OpRecord;

/// Some legal linearization of `h` exists: every order of its completed
/// ops plus a subset of its pending writes, checked by the sequential
/// spec alone.
bool brute_force_linearizable(const History& h) {
  std::vector<int> mandatory;
  std::vector<int> pending_writes;
  for (const OpRecord& op : h.ops()) {
    if (!op.pending()) {
      mandatory.push_back(op.id);
    } else if (op.is_write()) {
      pending_writes.push_back(op.id);
    }
  }
  for (std::size_t mask = 0; mask < (std::size_t{1} << pending_writes.size());
       ++mask) {
    std::vector<int> candidate = mandatory;
    for (std::size_t b = 0; b < pending_writes.size(); ++b) {
      if ((mask & (std::size_t{1} << b)) != 0) {
        candidate.push_back(pending_writes[b]);
      }
    }
    std::sort(candidate.begin(), candidate.end());
    do {
      if (is_legal_sequential(h, candidate).ok) return true;
    } while (std::next_permutation(candidate.begin(), candidate.end()));
  }
  return false;
}

bool solver_feasible(const History& h, const std::vector<int>* exact = nullptr) {
  LinProblem p;
  p.history = &h;
  if (exact != nullptr) {
    p.mode = WriteOrderMode::kExact;
    p.exact_write_order = *exact;
  }
  return feasible(p);
}

/// Every value a read of `h` could return: the initial and the written
/// values.
std::set<Value> candidates(const History& h) {
  std::set<Value> out{h.initial(0)};
  for (const OpRecord& op : h.ops()) {
    if (op.is_write()) out.insert(op.value);
  }
  return out;
}

/// A random single-register run built event by event.  Up to
/// `max_processes` processes run between `min_ops` and `max_ops` ops in
/// all; values come from {0..3} with initial 0, so duplicate values are
/// common.  The test decides each read's result.
struct RandomRun {
  util::Rng rng;
  int processes;
  int ops;
  History h;
  Time now = 0;
  int started = 0;
  std::vector<int> open;  ///< per process: open op id or -1

  RandomRun(std::uint64_t seed, int max_processes, int min_ops, int max_ops)
      : rng(seed),
        processes(1 + static_cast<int>(rng.uniform(
                          static_cast<std::uint64_t>(max_processes)))),
        ops(min_ops + static_cast<int>(rng.uniform(
                          static_cast<std::uint64_t>(max_ops - min_ops + 1)))),
        open(static_cast<std::size_t>(processes), -1) {
    h.set_initial(0, 0);
  }

  /// The next event: an invocation (returns its op id, responding false)
  /// or the process whose op responds next; nullopt when the run ends.
  struct Next {
    bool invoke = false;
    int op = -1;
  };
  std::optional<Next> next() {
    std::vector<int> can_invoke;
    std::vector<int> can_respond;
    for (int p = 0; p < processes; ++p) {
      if (open[static_cast<std::size_t>(p)] >= 0) {
        can_respond.push_back(p);
      } else if (started < ops) {
        can_invoke.push_back(p);
      }
    }
    if (can_invoke.empty() && can_respond.empty()) return std::nullopt;
    if (started == ops && rng.chance(1, 8)) return std::nullopt;  // pending tail
    ++now;
    if (!can_invoke.empty() && (can_respond.empty() || rng.chance(1, 2))) {
      const int p = can_invoke[rng.uniform(can_invoke.size())];
      OpRecord op;
      op.process = p;
      op.reg = 0;
      op.kind = rng.chance(1, 2) ? OpKind::kWrite : OpKind::kRead;
      op.value = op.kind == OpKind::kWrite
                     ? static_cast<Value>(rng.uniform(4))
                     : Value{0};
      op.invoke = now;
      op.response = kNoTime;
      const int id = h.add(op);
      open[static_cast<std::size_t>(p)] = id;
      ++started;
      return Next{true, id};
    }
    const int p = can_respond[rng.uniform(can_respond.size())];
    const int id = open[static_cast<std::size_t>(p)];
    open[static_cast<std::size_t>(p)] = -1;
    return Next{false, id};
  }

  /// `h` with open op `id` completed now (reads: returning `v`).
  [[nodiscard]] History completed(int id, Value v) const {
    History copy = h;
    copy.complete_op(id, v, now);
    return copy;
  }
};

TEST(FrontierOracle, ReadMenusAndVerdictsAgreeWithBruteForce) {
  // Up to 8 ops.  Before every response, each open read's menu must be
  // exactly the values brute force accepts for it responding next; after
  // every event, the set's verdict must be brute force's on the prefix.
  int menus = 0, multi = 0, rejected = 0;
  for (std::uint64_t seed = 0; seed < 600; ++seed) {
    RandomRun run(seed, 3, 1, 8);
    Frontier f(0);
    while (const auto next = run.next()) {
      const OpRecord& op = run.h.op(next->op);
      if (next->invoke) {
        ASSERT_TRUE(f.invoke(op.id, op.kind, op.value));
        continue;
      }
      for (const OpRecord& o : run.h.ops()) {
        if (!o.pending() || !o.is_read()) continue;
        std::vector<Value> expected;
        for (const Value v : candidates(run.h)) {
          if (brute_force_linearizable(run.completed(o.id, v))) {
            expected.push_back(v);
          }
        }
        const std::span<const Value> got = f.read_values(o.id);
        ASSERT_EQ(std::vector<Value>(got.begin(), got.end()), expected)
            << "seed " << seed << " read op" << o.id << "\n"
            << run.h.to_string();
        ++menus;
        if (expected.size() >= 2) ++multi;
      }
      // Reads return a random candidate: menu values and violations both.
      const std::set<Value> values = candidates(run.h);
      Value result = op.value;
      if (op.is_read()) {
        result = *std::next(values.begin(),
                            static_cast<std::ptrdiff_t>(
                                run.rng.uniform(values.size())));
      }
      run.h.complete_op(op.id, result, run.now);
      f.respond(op.id, result);
      ASSERT_EQ(f.feasible(), brute_force_linearizable(run.h))
          << "seed " << seed << "\n" << run.h.to_string();
      if (!f.feasible()) {
        ++rejected;
        break;
      }
    }
  }
  EXPECT_GE(menus, 1000);
  EXPECT_GE(multi, 200);
  EXPECT_GE(rejected, 100);
}

TEST(FrontierOracle, ReadMenusAgreeWithTheSolverUpTo64Ops) {
  // Long runs whose reads return menu values, so the history stays
  // linearizable: each read menu must equal one `feasible` per candidate
  // value on a copy with the read completed.
  int menus = 0, multi = 0, longest = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    RandomRun run(seed, 4, 48, 64);
    Frontier f(0);
    while (const auto next = run.next()) {
      const OpRecord& op = run.h.op(next->op);
      if (next->invoke) {
        ASSERT_TRUE(f.invoke(op.id, op.kind, op.value));
        continue;
      }
      Value result = op.value;
      if (op.is_read()) {
        std::vector<Value> expected;
        for (const Value v : candidates(run.h)) {
          if (solver_feasible(run.completed(op.id, v))) expected.push_back(v);
        }
        const std::span<const Value> got = f.read_values(op.id);
        ASSERT_EQ(std::vector<Value>(got.begin(), got.end()), expected)
            << "seed " << seed << " read op" << op.id << "\n"
            << run.h.to_string();
        ++menus;
        if (expected.size() >= 2) ++multi;
        result = got[run.rng.uniform(got.size())];
      }
      run.h.complete_op(op.id, result, run.now);
      f.respond(op.id, result);
      ASSERT_TRUE(f.feasible());
    }
    longest = std::max(longest, static_cast<int>(run.h.size()));
  }
  EXPECT_GE(menus, 2000);
  EXPECT_GE(multi, 500);
  EXPECT_EQ(longest, 64);
}

/// Menus and batches checked, and the longest run, over `seeds` random
/// runs of up to `processes` processes and `min_ops`..`max_ops` ops.
struct CommitmentCounts {
  int menus = 0;
  int batches = 0;
  int longest = 0;
};

/// The WSL model's menus, in order: for each batch (the empty one first
/// for a read, then every ordered selection of the uncommitted writes by
/// op id), the values whose completed copy is feasible with exactly the
/// committed writes plus the batch.  Responses pick a random menu entry,
/// so the committed sequence grows the way the model's does.  Values come
/// from {0..3}, so most runs repeat them: that is where the response
/// filter's soundness rests on this test (frontier.hpp).
CommitmentCounts check_commitment_menus(std::uint64_t seeds, int processes,
                                        int min_ops, int max_ops) {
  CommitmentCounts n;
  for (std::uint64_t seed = 0; seed < seeds; ++seed) {
    RandomRun run(seed, processes, min_ops, max_ops);
    WslFrontier f(0);
    std::vector<int> committed;
    while (const auto next = run.next()) {
      const OpRecord& op = run.h.op(next->op);
      if (next->invoke) {
        EXPECT_TRUE(f.invoke(op.id, op.kind, op.value));
        continue;
      }
      std::vector<std::pair<Value, std::vector<int>>> expected;
      const auto committed_plus = [&committed](const std::vector<int>& s) {
        std::vector<int> order = committed;
        order.insert(order.end(), s.begin(), s.end());
        return order;
      };
      std::vector<int> uncommitted;
      for (const OpRecord& o : run.h.ops()) {
        if (o.is_write() && o.pending() && o.id != op.id &&
            std::find(committed.begin(), committed.end(), o.id) ==
                committed.end()) {
          uncommitted.push_back(o.id);
        }
      }
      const bool op_committed =
          std::find(committed.begin(), committed.end(), op.id) !=
          committed.end();
      if (op.is_write() && !op_committed) {
        uncommitted.push_back(op.id);
        std::sort(uncommitted.begin(), uncommitted.end());
      }
      if (op.is_write() && op_committed) {
        const std::vector<int> order = committed_plus({});
        EXPECT_TRUE(solver_feasible(run.completed(op.id, op.value), &order));
        expected.emplace_back(op.value, std::vector<int>{});
      } else if (op.is_write()) {
        const History copy = run.completed(op.id, op.value);
        detail::for_each_ordered_selection(
            uncommitted, [&](const std::vector<int>& s) {
              const std::vector<int> order = committed_plus(s);
              if (std::find(s.begin(), s.end(), op.id) != s.end() &&
                  solver_feasible(copy, &order)) {
                expected.emplace_back(op.value, s);
              }
              return false;
            });
      } else {
        const auto batch = [&](const std::vector<int>& s) {
          const std::vector<int> order = committed_plus(s);
          for (const Value v : candidates(run.h)) {
            if (solver_feasible(run.completed(op.id, v), &order)) {
              expected.emplace_back(v, s);
            }
          }
          return false;
        };
        batch({});
        detail::for_each_ordered_selection(uncommitted, batch);
      }
      std::vector<std::pair<Value, std::vector<int>>> got;
      for (const WslFrontier::Commitment& c : f.commitments(op.id)) {
        const std::span<const int> s = f.batch(c);
        got.emplace_back(c.value, std::vector<int>(s.begin(), s.end()));
      }
      EXPECT_EQ(got, expected) << "seed " << seed << " op" << op.id << "\n"
                               << run.h.to_string();
      if (got != expected || got.empty()) return n;
      ++n.menus;
      n.batches += static_cast<int>(got.size());
      const auto& [value, batch] = got[run.rng.uniform(got.size())];
      run.h.complete_op(op.id, value, run.now);
      f.respond(op.id, value, batch);
      committed.insert(committed.end(), batch.begin(), batch.end());
      EXPECT_TRUE(f.feasible());
    }
    n.longest = std::max(n.longest, static_cast<int>(run.h.size()));
  }
  return n;
}

TEST(FrontierOracle, CommitmentMenusAgreeWithExactOrderSolves) {
  const CommitmentCounts n = check_commitment_menus(200, 3, 48, 64);
  EXPECT_GE(n.menus, 4000);
  EXPECT_GE(n.batches, 10000);
  EXPECT_EQ(n.longest, 64);
}

TEST(FrontierOracle, CommitmentMenusAgreeWithExactOrderSolvesAt4And5Processes) {
  // More open writes at once: longer gone sequences and more batches.
  for (const int processes : {4, 5}) {
    const CommitmentCounts n = check_commitment_menus(1000, processes, 48, 64);
    EXPECT_GE(n.menus, 40000) << processes << " processes";
    EXPECT_GE(n.batches, 80000) << processes << " processes";
    EXPECT_EQ(n.longest, 64) << processes << " processes";
  }
}

TEST(FrontierOracle, FirstRejectionMatchesBatchMinimalFailingPrefixUpTo64Ops) {
  // Reads mostly return a menu value and sometimes any candidate, so
  // violations land anywhere in runs of up to 64 ops.  The streaming
  // checker must reject at exactly the first event whose prefix the batch
  // checker rejects.
  int rejected = 0, late = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    RandomRun run(seed, 4, 48, 64);
    std::optional<Frontier> f(std::in_place, 0);  // until the first violation
    while (const auto next = run.next()) {
      const OpRecord& op = run.h.op(next->op);
      if (next->invoke) {
        if (f) {
          ASSERT_TRUE(f->invoke(op.id, op.kind, op.value));
        }
        continue;
      }
      Value result = op.value;
      if (op.is_read()) {
        result = static_cast<Value>(run.rng.uniform(4));
        if (f && !run.rng.chance(1, 40)) {
          const std::span<const Value> menu = f->read_values(op.id);
          result = menu[run.rng.uniform(menu.size())];
        }
      }
      run.h.complete_op(op.id, result, run.now);
      if (f) {
        f->respond(op.id, result);
        if (!f->feasible()) f.reset();
      }
    }
    const StreamingChecker sc = check_stream(run.h);
    ASSERT_TRUE(sc.error().empty()) << sc.error();
    ASSERT_EQ(sc.ok(), check_linearizable(run.h).ok) << run.h.to_string();
    if (sc.ok()) continue;
    const std::vector<history::Event> events = run.h.events();
    std::optional<std::int64_t> batch_first;
    for (std::size_t j = 0; j < events.size() && !batch_first; ++j) {
      if (!check_linearizable(run.h.prefix_at(events[j].time)).ok) {
        batch_first = static_cast<std::int64_t>(j);
      }
    }
    ASSERT_TRUE(batch_first.has_value());
    EXPECT_EQ(sc.first_violation_event(), *batch_first) << run.h.to_string();
    ++rejected;
    if (*batch_first >= 40) ++late;
  }
  EXPECT_GE(rejected, 50);
  EXPECT_GE(late, 20);
}

/// `writers` processes write `writes` values each, in rounds: every round
/// invokes one write per writer and one read, then responds them in a
/// rotating order, the read last and returning the last value.  Rounds
/// overlap fully, so the set holds every write order still open.
StreamingChecker rounds_of_overlapping_writes(int writers, int writes) {
  StreamingChecker c;
  Time t = 0;
  for (int round = 0; round < writes; ++round) {
    std::vector<std::pair<int, Value>> ids;
    for (int w = 0; w < writers; ++w) {
      const Value v = 10 + w;
      ids.emplace_back(c.on_invoke(0, OpKind::kWrite, v, ++t), v);
    }
    const int r = c.on_invoke(0, OpKind::kRead, 0, ++t);
    Value last = 0;
    for (int k = 0; k < writers; ++k) {
      const auto& [id, v] = ids[static_cast<std::size_t>((k + round) % writers)];
      c.on_response(id, v, ++t);
      last = v;
    }
    c.on_response(r, last, ++t);
  }
  return c;
}

TEST(FrontierBound, PeakConfigurationsDoNotGrowWithWrites) {
  // The state is bounded by the open ops: 8, 16 and 64 writes per
  // process reach the same peak.
  for (const int writers : {2, 3, 4}) {
    const std::size_t peak = rounds_of_overlapping_writes(writers, 8).peak_configs();
    EXPECT_GT(peak, 1u) << writers << " writers";
    for (const int writes : {16, 64}) {
      const StreamingChecker c = rounds_of_overlapping_writes(writers, writes);
      EXPECT_TRUE(c.ok());
      EXPECT_EQ(c.peak_configs(), peak) << writers << " writers, " << writes;
    }
  }
}

TEST(Frontier, OpensAtMost64Ops) {
  Frontier f(7);
  for (int i = 0; i < Frontier::kMaxOpen; ++i) {
    ASSERT_TRUE(f.invoke(i, OpKind::kRead, 0));
  }
  EXPECT_FALSE(f.invoke(64, OpKind::kWrite, 1));
  EXPECT_EQ(f.open(), 64);
  f.respond(3, 7);
  EXPECT_TRUE(f.invoke(64, OpKind::kWrite, 1));
  EXPECT_EQ(f.open(), 64);
  const std::span<const Value> menu = f.read_values(0);
  EXPECT_EQ(std::vector<Value>(menu.begin(), menu.end()),
            (std::vector<Value>{1, 7}));
}

}  // namespace
}  // namespace rlt::checker
