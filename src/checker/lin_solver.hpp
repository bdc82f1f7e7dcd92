// Backtracking linearization solver for single-register histories: the
// off-line search behind "does a legal linearization exist?", shared by
// the batch linearizability checker and the message-passing F* check
// (free write order, violation text included) and by the strong and write
// strong-linearizability tree checkers (exact write order).  The on-line
// clients keep a configuration set per register instead (frontier.hpp).
//
// Search space: orders of the history's operations.  A completed read
// must return the value of the last write placed before it (or the
// register's initial value).  Pending reads are never included; pending
// writes may be (Definition 2, property 1), subject to `WriteOrderMode`.
// An operation `o` may be placed next iff no completed, unplaced `q` has
// q.response < o.invoke.  Worst case exponential (register
// linearizability with duplicate values is NP-hard), tamed by memoizing
// failed (placed-set, register-value) states; at most `kMaxSolverOps` (64)
// operations per call.  The context build precomputes per-op predecessor
// bitmasks (availability is one AND) and groups placeable reads by value
// (candidate generation is a lookup).
//
// Dominance pruning (`LinProblem::prune`, on by default) cuts between
// DFS extension orders without changing any verdict:
//  * eager read — when a completed read of the current register value is
//    available, only the lowest-id such read is branched on: reads do not
//    change the register, so it can go first in any completion;
//  * doomed state — fail when some unplaced completed read returns a value
//    that is neither the current value nor any still-placeable write's;
//  * accept shortcut — once every completed read is placed, only writes
//    remain: free order always completes (completed writes in response
//    order), and exact order reduces to walking the committed suffix.
// With them many concurrent writers stay tractable (10+ per register,
// against ~6 without).
#pragma once

#include <cstddef>
#include <vector>

#include "checker/spec.hpp"
#include "history/view.hpp"

namespace rlt::checker {

/// The solver's per-call operation limit: it tracks sets of operations as
/// 64-bit masks, one bit per op.  Every caller that hands the solver a
/// history (or the tree search a run) is bounded by this one name.
inline constexpr std::size_t kMaxSolverOps = 64;

/// How the solver treats the order of write operations.
enum class WriteOrderMode {
  /// Writes may appear in any order consistent with real time; any subset
  /// of pending writes may be included.  (Plain linearizability.)
  kFree,
  /// The linearization's write subsequence must be *exactly* the supplied
  /// list, in that order.  Completed writes outside the list make the
  /// instance infeasible; pending writes in the list must be included.
  /// (Write strong-linearizability: the list is the committed sequence.)
  kExact,
};

/// A single-register linearization problem.
struct LinProblem {
  /// Single-register history to linearize.
  const History* history = nullptr;

  /// Event-prefix cutoff: the problem is over `history`'s prefix at this
  /// time (ops invoked later are absent; ops responding later count as
  /// pending).  The default — `kNoTime` — means the whole history.  This
  /// is the zero-copy replacement for solving on `history->prefix_at(t)`:
  /// op ids keep their base-history meaning (`exact_write_order`, the
  /// witness order, ...), and nothing is copied.
  Time cutoff = history::kNoTime;

  WriteOrderMode mode = WriteOrderMode::kFree;

  /// Used iff mode == kExact: op ids of all writes, in required order.
  std::vector<int> exact_write_order;

  /// Dominance pruning between DFS extension orders (see file comment).
  /// Verdict-preserving; off only for A/B comparisons and the
  /// pruning-equivalence tests.
  bool prune = true;
};

/// Outcome of a solve.
struct LinSolution {
  bool ok = false;
  /// Included op ids in linearization order (witness); empty if !ok.
  std::vector<int> order;
};

/// Searches for a legal linearization.  Throws util::InvariantViolation if
/// the history has more than kMaxSolverOps operations or mentions several
/// registers.
[[nodiscard]] LinSolution solve(const LinProblem& problem);

/// solve(problem).ok without witness bookkeeping — the fast entry point
/// for feasibility probes (the tree checkers) that never look at the
/// order.
[[nodiscard]] bool feasible(const LinProblem& problem);

}  // namespace rlt::checker
