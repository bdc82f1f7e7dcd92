// Register semantic models: the three register behaviours the paper
// compares, as pluggable simulator objects.
//
//  * `AtomicModel` — operations take effect instantaneously at invocation
//    (Section 2.1).  No pending operations ever exist.
//  * `LinearizableModel` — operations span intervals; the adversary picks
//    any response for which a legal linearization of the register's
//    history still exists ("off-line" freedom: the relative order of
//    concurrent writes can stay undecided until a read forces it).  This
//    is the weakest behaviour consistent with Definition 2 and therefore
//    the strongest adversary, matching Theorem 6's quantification.
//  * `WslModel` — like LinearizableModel, but the register maintains an
//    append-only *committed write sequence*: a write must be committed no
//    later than its response, and every response choice must admit a
//    linearization whose write subsequence is exactly the committed
//    sequence (Definition 4 made operational; wsl_model.cpp has the
//    details).
//
// Complexity note: the WSL model's response-choice menu for a write
// enumerates every ordered commitment batch over the currently
// *uncommitted* writes — factorial in their count, by design (the
// adversary is entitled to the full choice space).  Schedules that keep
// many same-register writes pending and uncommitted simultaneously
// explode; adversaries should respond writes promptly (the paper's
// schedules all do), and tests keep concurrent-writer counts small.
//
// A model sees invocations and responses only.  Which operations are
// pending, and the cached menus of their responses, belong to the
// scheduler (sim/scheduler.hpp), which keeps one list for all registers.
//
// The interval models keep one `checker::Frontier` each: a window of
// recent operations plus the values the register may hold before it.
// When the register becomes quiescent (no pending ops) the window
// collapses, which keeps solver calls small even in unbounded executions
// (Theorem 6's infinite run).  checker/frontier.hpp states why the
// collapse is sound, and answers a linearizable register's questions,
// by lookup where a one-op window forces them.  A WSL window of one op
// is forced too: a write commits itself, and a read returns the one
// pre-window value.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "checker/frontier.hpp"
#include "sim/types.hpp"

namespace rlt::sim {

/// Interface of a register semantic model (one instance per register),
/// constructed with the register's initial value (Definition 2,
/// property 3).
class RegisterModel {
 public:
  virtual ~RegisterModel() = default;

  /// Notifies the model of an invocation.  Returns the result immediately
  /// if the model completes operations instantaneously (atomic model);
  /// std::nullopt if the operation is now pending.
  virtual std::optional<Value> on_invoke(int op_id, ProcessId p, OpKind kind,
                                         Value value, Time now) = 0;

  /// All ways the model is willing to complete pending op `op_id` at time
  /// `now`.  Never empty for a write.  May be empty for a read only if
  /// the model is mid-constrained (does not happen for these models:
  /// a read can always return *some* feasible value).
  virtual std::vector<ResponseChoice> response_choices(int op_id,
                                                       Time now) = 0;

  /// Applies one of the choices returned by `response_choices`; returns
  /// the operation's result value (reads) or the written value (writes).
  virtual Value on_respond(int op_id, const ResponseChoice& choice,
                           Time now) = 0;
};

/// Common machinery for interval-based models (linearizable and WSL):
/// the register's frontier, keyed by global op id.
class WindowedModel : public RegisterModel {
 public:
  explicit WindowedModel(Value initial) : frontier_(initial) {}

  std::optional<Value> on_invoke(int op_id, ProcessId p, OpKind kind,
                                 Value value, Time now) override;
  /// Collapses the window once the register is quiescent.
  Value on_respond(int op_id, const ResponseChoice& choice,
                   Time now) override;

 protected:
  /// Subclass hook: commitment bookkeeping etc. `window_id` is the op's
  /// id inside the frontier's window.
  virtual void apply_choice(int window_id, const ResponseChoice& choice) = 0;

  /// Subclass hook at quiescence: the values the window collapses to.
  /// Called once per collapse, just before the window is retired.
  virtual std::vector<Value> collapse_values() = 0;

  checker::Frontier frontier_;  ///< caller ids are global op ids
};

std::unique_ptr<RegisterModel> make_linearizable_model(Value initial);
std::unique_ptr<RegisterModel> make_wsl_model(Value initial);

/// The three semantics, for parameterized tests and benches.
enum class Semantics { kAtomic, kLinearizable, kWriteStrong };
[[nodiscard]] const char* to_string(Semantics s) noexcept;
std::unique_ptr<RegisterModel> make_model(Semantics s, Value initial);

}  // namespace rlt::sim
