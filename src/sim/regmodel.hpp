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
#include <span>
#include <vector>

#include "checker/frontier.hpp"
#include "sim/types.hpp"
#include "util/assert.hpp"

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

namespace detail {

/// The interval models' common half: the register's frontier `F`
/// (caller ids are global op ids), and the checks every event passes.
template <class F>
class IntervalModel : public RegisterModel {
 public:
  explicit IntervalModel(Value initial) : frontier_(initial) {}

  std::optional<Value> on_invoke(int op_id, OpKind kind,
                                 Value value) override {
    const bool opened = frontier_.invoke(op_id, kind, value);
    RLT_CHECK_MSG(opened, "more than " << F::kMaxOpen
                                       << " open ops on one register");
    return std::nullopt;
  }

  Value on_respond(int op_id, const ResponseChoice& choice) override {
    const Value result =
        frontier_.is_write(op_id) ? frontier_.written(op_id) : choice.value;
    respond(op_id, choice);
    RLT_CHECK_MSG(!frontier_.overflowed(),
                  "register needs more than " << F::kMaxConfigs
                                              << " configurations");
    RLT_CHECK_MSG(frontier_.feasible(),
                  "response " << choice.value << " of op " << op_id
                              << " leaves no linearization — bug");
    return result;
  }

 protected:
  /// Applies `choice` to the frontier.
  virtual void respond(int op_id, const ResponseChoice& choice) = 0;

  F frontier_;
};

}  // namespace detail

/// Write strong-linearizability, Definition 4 made operational: an
/// append-only committed write sequence.  A write's choices are the
/// ordered batches of uncommitted writes, holding it, that a linearization
/// with EXACTLY that write order allows; a read may return an uncommitted
/// write's value, but then commits it.  The crux of Lemma 19 becomes
/// mechanical: when p0's write of [0,j] responds BEFORE the coin flip, the
/// adversary must order the concurrent write [1,j] now, not after seeing
/// the coin.
class WslModel final : public detail::IntervalModel<checker::WslFrontier> {
 public:
  using IntervalModel::IntervalModel;

  std::vector<ResponseChoice> response_choices(int op_id) override;

  /// The commit log: every committed write in committed order (Definition
  /// 4's write order), each with the op whose response committed it, for
  /// `checker::check_commit_order`.  One entry per committed write.
  [[nodiscard]] std::span<const checker::Commit> commits() const noexcept {
    return commits_;
  }

 private:
  void respond(int op_id, const ResponseChoice& choice) override;

  std::vector<checker::Commit> commits_;
};

std::unique_ptr<RegisterModel> make_linearizable_model(Value initial);
std::unique_ptr<RegisterModel> make_wsl_model(Value initial);

/// The three semantics, for parameterized tests and benches.
enum class Semantics { kAtomic, kLinearizable, kWriteStrong };
[[nodiscard]] const char* to_string(Semantics s) noexcept;
std::unique_ptr<RegisterModel> make_model(Semantics s, Value initial);

}  // namespace rlt::sim
