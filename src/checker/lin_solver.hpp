// Backtracking linearization solver for single-register histories.
//
// This is the single source of truth for "does a legal linearization
// exist?", shared by:
//  * the off-line linearizability checker (free write order) and the
//    message-passing F* check,
//  * the write strong-linearizability tree checker (exact write order),
//  * `Frontier` (frontier.hpp), one register's live window, which
//    answers the free-order questions of the streaming checker and the
//    simulator's `LinearizableModel`: is the window feasible
//    (`feasible`), which values may a pending read return
//    (`feasible_read_values`, one search per menu) and which values may
//    it leave behind (`feasible_final_values`).  It calls the solver only
//    for windows of two or more ops: a one-op window's answer is forced,
//  * the simulator's `WslModel`, which decides on-line which write
//    commitments still admit a legal linearization and which values a
//    read may return, in exact write order.
//
// Search space: orders of the history's operations.  A completed read
// must return the value of the last write placed before it (or an allowed
// initial value).  Pending reads are never included (they have no
// response value; including them cannot enable anything).  Pending writes
// may be included (Definition 2, property 1) subject to `WriteOrderMode`.
//
// Availability rule: an operation `o` may be placed next iff no completed,
// not-yet-placed operation `q` satisfies q.response < o.invoke (otherwise
// q must come first).  Excluded pending writes never block anything.
//
// Complexity: worst-case exponential (register linearizability with
// duplicate values is NP-hard in general), tamed by memoizing failed
// (placed-set, register-value) states.  The solver supports at most
// `kMaxSolverOps` (64) operations per call; on-line callers keep windows
// small by collapsing them at quiescence (frontier.hpp).
//
// Fast path: the context build precomputes per-op predecessor bitmasks,
// so the availability rule above costs one AND per candidate per DFS
// node, and groups placeable reads by returned value, so candidate
// generation is a table lookup instead of an O(n) scan.  Every entry
// point shares one DFS core over (placed-set, register-value) states.
//
// Dominance pruning (`LinProblem::prune`, on by default) cuts between
// DFS extension orders without changing any verdict or final-value set:
//  * eager read — when a completed read of the current register value is
//    available, only the lowest-id such read is branched on.  Any
//    completion can be reordered to place that read first (reads do not
//    change the register, so every other op stays legal and available);
//  * doomed state — fail immediately when some unplaced completed read
//    returns a value that is neither the current register value nor the
//    value of any still-placeable write: no completion can ever serve it;
//  * accept shortcut (find-one searches only) — once every completed
//    read is placed, the remaining obligations are writes with no value
//    constraints: free-order instances always complete (place completed
//    writes in response order), and exact-order instances reduce to a
//    deterministic availability walk of the remaining committed suffix.
// These collapse the exponential blowup of many concurrent writers: the
// practical ceiling moves from ~6 writers per register to 10+.
//
// Read menus (`feasible_read_values`) leave one pending read's value open:
// the read is a wildcard that returns whatever the register holds where
// it is placed.  One DFS visits each state with the wildcard unplaced once
// and, where the wildcard is available and the current value is new,
// runs one find-one search from the state with the wildcard placed.  The
// value set is exact:
//  * a read changes no value, so a linearization that includes the
//    wildcard is one of the other ops with the wildcard inserted where its
//    predecessors are placed (ops it precedes in real time wait for it),
//    and it returns the value held there.  The DFS visits every such
//    point, and the find-one search decides whether the rest completes;
//  * the eager-read and doomed prunes stay exact while the wildcard is
//    unplaced.  Doomed is unchanged: an unservable read dooms every
//    completion, with or without the wildcard.  Eager read: moving another
//    available read of the current value to the front keeps every
//    insertion point, because the wildcard still sees the same value at
//    each one;
//  * the wildcard itself is never placed eagerly: it is not a candidate of
//    the DFS, only inserted.
#pragma once

#include <cstddef>
#include <optional>
#include <set>
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

  /// Values the register may hold before any write of this history.
  /// Defaults to { history->initial(reg) }.  The simulator passes several
  /// values here after collapsing a quiescent past whose final value the
  /// adversary has not yet been forced to reveal.
  std::optional<std::vector<Value>> initial_values;

  /// Zero-copy what-if: treat this currently-pending op of the history as
  /// completed at `response` (reads: returning `value`).  The on-line
  /// models probe every write commitment and every read menu through it
  /// instead of copying the window and completing the op.
  /// `feasible_read_values` ignores `value`.
  struct Completion {
    int op_id = -1;
    Value value = 0;
    Time response = history::kNoTime;
  };
  std::optional<Completion> completion;

  /// Dominance pruning between DFS extension orders (see file comment).
  /// Verdict- and final-value-preserving; off only for A/B comparisons
  /// and the pruning-equivalence tests.
  bool prune = true;
};

/// Outcome of a solve.
struct LinSolution {
  bool ok = false;
  /// Included op ids in linearization order (witness); empty if !ok.
  std::vector<int> order;
  /// The initial value the witness used (one of initial_values).
  Value initial_used = 0;
  /// Value of the register after the witness's last write (== initial_used
  /// if the witness contains no write).
  Value final_value = 0;
};

/// Searches for a legal linearization.  Throws util::InvariantViolation if
/// the history has more than kMaxSolverOps operations or mentions several
/// registers.
[[nodiscard]] LinSolution solve(const LinProblem& problem);

/// solve(problem).ok without witness bookkeeping — the fast entry point
/// for feasibility probes (tree checkers, on-line models) that never look
/// at the order.
[[nodiscard]] bool feasible(const LinProblem& problem);

/// All values `v` such that some legal linearization (same constraints)
/// ends with the register holding `v`.  Used by the simulator to collapse
/// history at quiescent points: the returned set becomes the next window's
/// `initial_values`.
[[nodiscard]] std::set<Value> feasible_final_values(const LinProblem& problem);

/// All values `v` such that the problem with the pending read named by
/// `problem.completion` completed as {op_id, v, response} is feasible: the
/// simulator's read menu, from one search (see the file comment).  The
/// completion's `value` is ignored.  Throws util::InvariantViolation if
/// there is no completion or it names a write.
[[nodiscard]] std::set<Value> feasible_read_values(const LinProblem& problem);

}  // namespace rlt::checker
