// One register's checking frontier: the live window of operations not yet
// retired, plus the set of values the register may hold before it.
//
// Two clients keep one frontier per register.  The simulator's interval
// register models (sim/regmodel.hpp) ask it for response menus; the
// streaming checker (stream_checker.hpp) asks it at read responses.  The
// free-order questions (plain linearizability) are methods here:
// `read_values`, `feasible` and `final_values`.  A caller with other
// constraints, such as the WSL model's committed write order, starts its
// own solver probe from `problem()`.
//
// The collapse, and why it is sound.  When the register has no open
// operation, every operation in the window real-time-precedes every
// operation invoked on the register later.  Any linearization of the
// whole history is then a linearization of the window followed by one of
// the later operations, and any such pair composes: nothing later can be
// ordered before a window op.  The only state the two parts share is the
// register value at the seam.  So the window can be replaced by the set
// of values it may leave behind, and no later verdict or response menu
// changes: `collapse(values)` retires the window and makes `values` the
// next window's pre-window values.  Live state is then bounded by the
// ops between two quiescent points, not by the length of the run.  This
// is what keeps Theorem 6's infinite run checkable.
//
// Which values to collapse to is the caller's decision.  Linearizable
// registers and the streaming checker keep every possibility open with
// `final_values()`: the write order inside the window may still be
// undecided.  A write strongly-linearizable register has committed its
// whole write order by quiescence, so its last committed value is the
// only one it may leave behind.
//
// Forced windows.  Every quiescent point collapses, so a window of one op
// is the common case, and there each question has a forced answer: a lone
// read may return exactly the pre-window values, a lone op is feasible
// unless it is a read that returned some other value, and it leaves its
// own value behind.  The frontier answers these by lookup, so only
// windows of two or more ops, which always overlap, reach the solver.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "checker/lin_solver.hpp"

namespace rlt::checker {

class Frontier {
 public:
  /// The solver's per-call limit.  A window at this size cannot take
  /// another op and still be solved.
  static constexpr std::size_t kMaxOps = kMaxSolverOps;

  /// An empty window whose pre-window value is `initial`.
  explicit Frontier(Value initial = 0) : initial_values_{initial} {}

  /// Adds an invocation and returns its window id.  `caller_id` is the
  /// caller's own id for the op; `value` is the written value for writes
  /// and ignored for reads.
  int invoke(int caller_id, history::ProcessId process, OpKind kind,
             Value value, Time now);

  /// Completes open window op `window_id` at `now` (reads: returning
  /// `result`).
  void respond(int window_id, Value result, Time now);

  [[nodiscard]] const History& window() const noexcept { return window_; }
  [[nodiscard]] int window_id_of(int caller_id) const;
  [[nodiscard]] int caller_id_of(int window_id) const;

  /// Window ops invoked but not yet responded.
  [[nodiscard]] int open() const noexcept { return open_; }

  /// The values the register may hold before the window (one value until
  /// a collapse keeps several open).
  [[nodiscard]] const std::vector<Value>& initial_values() const noexcept {
    return initial_values_;
  }

  /// A free-order problem over the window from the pre-window values.
  [[nodiscard]] LinProblem problem() const;

  /// The values pending read `window_id` may return if it responds at
  /// `now`, ascending and unique.  The view is valid until the frontier
  /// changes or is asked again.
  [[nodiscard]] std::span<const Value> read_values(int window_id, Time now);

  /// Whether the window has a linearization from the pre-window values.
  [[nodiscard]] bool feasible() const;

  /// The values the window may leave behind, ascending and unique (empty
  /// if it is infeasible); requires no open op.
  [[nodiscard]] std::vector<Value> final_values() const;

  /// Retires the window (see the file comment); requires no open op.
  /// `values` must be ascending, unique and not empty.
  void collapse(std::vector<Value> values);

 private:
  /// The op of a one-op window, or nullptr.
  [[nodiscard]] const OpRecord* lone_op() const;

  History window_;
  std::vector<int> caller_ids_;  ///< window id -> caller id
  std::vector<Value> initial_values_;
  std::vector<Value> read_values_;  ///< `read_values`' solver answer
  int open_ = 0;
};

}  // namespace rlt::checker
