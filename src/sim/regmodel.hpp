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
//  * `WslModel` — like LinearizableModel, but every response choice must
//    admit a linearization whose writes are exactly an append-only
//    committed sequence (Definition 4 made operational).
//    A write's menu enumerates every ordered batch of the uncommitted
//    writes: factorial in their count, by design, so adversaries should
//    respond writes promptly (the paper's schedules all do).
//
// A model sees invocations and responses only.  Which operations are
// pending, and the cached menus of their responses, belong to the
// scheduler (sim/scheduler.hpp), which keeps one list for all registers.
//
// The interval models keep one frontier each (`checker::Frontier`,
// `checker::WslFrontier`): the set of configurations the register's
// history so far can be in, bounded by its open ops even in Theorem 6's
// unbounded runs.  A menu is a projection of the set ("a read may return
// any value some linearization still allows"), and no model calls the
// solver.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "sim/types.hpp"

namespace rlt::sim {

/// Interface of a register semantic model (one instance per register),
/// constructed with the register's initial value (Definition 2,
/// property 3).  A model sees events in order and never reads a clock.
class RegisterModel {
 public:
  virtual ~RegisterModel() = default;

  /// Notifies the model of an invocation.  Returns the result immediately
  /// if the model completes operations instantaneously (atomic model);
  /// std::nullopt if the operation is now pending.
  virtual std::optional<Value> on_invoke(int op_id, OpKind kind,
                                         Value value) = 0;

  /// All ways the model is willing to complete pending op `op_id` if it
  /// responds next.  Never empty.
  virtual std::vector<ResponseChoice> response_choices(int op_id) = 0;

  /// Applies one of the choices returned by `response_choices`; returns
  /// the operation's result value (reads) or the written value (writes).
  virtual Value on_respond(int op_id, const ResponseChoice& choice) = 0;
};

std::unique_ptr<RegisterModel> make_linearizable_model(Value initial);
std::unique_ptr<RegisterModel> make_wsl_model(Value initial);

/// The three semantics, for parameterized tests and benches.
enum class Semantics { kAtomic, kLinearizable, kWriteStrong };
[[nodiscard]] const char* to_string(Semantics s) noexcept;
std::unique_ptr<RegisterModel> make_model(Semantics s, Value initial);

}  // namespace rlt::sim
