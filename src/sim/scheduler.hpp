// The simulation scheduler: asynchronous processes + modeled registers +
// a strong adversary choosing every step.
//
// Model (Section 2 of the paper): processes take steps asynchronously; a
// *strong adversary* observes everything that has happened — process
// states, register contents, and the outcomes of past coin flips — and
// decides which enabled action happens next.  Enabled actions are:
//
//   * kStep(p): resume process p's coroutine to its next suspension point
//     (invoking a register operation, flipping a coin, or yielding);
//   * kRespond(op, choice): complete a pending register operation with
//     one of the response choices its register model offers.
//
// With `AtomicModel` registers, operations complete within the invoking
// step, so no kRespond actions exist — operations are instantaneous.
// With `LinearizableModel` / `WslModel` registers, invocation and
// response are separate actions, so operations overlap and the adversary
// controls (within each model's rules) how they linearize.
//
// The scheduler owns the one list of pending operations, for all
// registers, in op-id order, and next to each entry its cached response
// menu.  Queries hand these out by reference, so an adversary's decision
// copies only the action it returns:
//
//   * references from `pending_ops()` and `choices_for()` stay valid until
//     the next `apply()`;
//   * the reference from `enabled_actions()` stays valid until the next
//     `enabled_actions()` or `apply()`.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "history/recorder.hpp"
#include "sim/regmodel.hpp"
#include "sim/task.hpp"
#include "sim/types.hpp"
#include "util/rng.hpp"

namespace rlt::sim {

class Scheduler;

namespace detail {
struct OpAwait;
struct CoinAwait;
struct YieldAwait;
}  // namespace detail

/// Per-process facade handed to coroutine bodies; provides awaitables for
/// the primitive steps.
class Proc {
 public:
  [[nodiscard]] ProcessId id() const noexcept { return id_; }
  [[nodiscard]] Scheduler& scheduler() const noexcept { return *sched_; }

  /// A register op is invoked in the step that requests it, at the
  /// scheduler's next tick (`now() + 1`); the co_await resumes at the
  /// process's next step, which can be much later.
  ///
  /// Awaitable register write.  The value co_awaited is the written value.
  [[nodiscard]] auto write(RegId reg, Value v);
  /// Awaitable register read; co_await yields the value read.
  [[nodiscard]] auto read(RegId reg);
  /// Awaitable fair coin flip (0 or 1), drawn from the scheduler's RNG.
  /// The adversary observes the outcome after the step (strong adversary).
  [[nodiscard]] auto flip_coin();
  /// Awaitable pure local step (scheduling point with no effect).
  [[nodiscard]] auto yield();

 private:
  friend class Scheduler;
  friend struct detail::OpAwait;
  friend struct detail::CoinAwait;
  friend struct detail::YieldAwait;

  enum class RequestKind { kNone, kOp, kCoin, kYield };
  struct Request {
    RequestKind kind = RequestKind::kNone;
    RegId reg = -1;
    OpKind op_kind = OpKind::kRead;
    Value value = 0;
  };

  Scheduler* sched_ = nullptr;
  ProcessId id_ = -1;
  std::string name_;
  Task task_;
  std::coroutine_handle<> leaf_;  ///< Innermost suspended coroutine.
  Request request_;
  Value result_ = 0;
  bool blocked = false;
  bool done = false;
};

/// Strategy interface: the adversary.  `choose` returns the next action
/// or std::nullopt to stop the run.  Implementations may use
/// `Scheduler::enabled_actions()` (exhaustive) or compose actions
/// directly from `Scheduler` introspection plus `choices_for()`.
class Adversary {
 public:
  virtual ~Adversary() = default;
  virtual std::optional<Action> choose(Scheduler& sched) = 0;
};

/// Why a run ended.
enum class RunOutcome {
  kAllDone,     ///< Every process's coroutine returned.
  kStopped,     ///< The adversary chose to stop.
  kActionCap,   ///< The action budget was exhausted.
  kDeadlock,    ///< No enabled actions (cannot happen with these models).
};

[[nodiscard]] const char* to_string(RunOutcome o) noexcept;

/// The simulation engine.
class Scheduler {
 public:
  explicit Scheduler(std::uint64_t seed = 0) : rng_(seed) {}

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Registers a register with the given semantics and initial value.
  void add_register(RegId reg, Semantics semantics, Value initial);

  /// Registers a register with a custom model (tests).
  void add_register(RegId reg, std::unique_ptr<RegisterModel> model,
                    Value initial);

  /// Spawns a process.  `body` is invoked immediately to create the
  /// coroutine (which suspends before executing any user code).
  ///
  /// IMPORTANT (CppCoreGuidelines CP.51): `body` must NOT itself be a
  /// capturing-lambda coroutine — lambda captures live in the lambda
  /// object, which dies after this call, leaving the suspended coroutine
  /// with dangling captures.  Pass a plain lambda that *calls* a free (or
  /// static member) coroutine function, whose parameters are safely
  /// copied into the coroutine frame:
  ///     sched.add_process("w", [&reg](Proc& p) { return writer(p, reg); });
  ProcessId add_process(std::string name,
                        const std::function<Task(Proc&)>& body);

  /// --- Introspection (for adversaries, tests, benches) ---
  [[nodiscard]] int process_count() const noexcept {
    return static_cast<int>(procs_.size());
  }
  [[nodiscard]] bool process_done(ProcessId p) const;
  [[nodiscard]] bool process_blocked(ProcessId p) const;
  [[nodiscard]] const std::string& process_name(ProcessId p) const;
  [[nodiscard]] bool all_done() const;
  [[nodiscard]] Time now() const noexcept { return clock_; }
  [[nodiscard]] const history::History& global_history() const noexcept {
    return recorder_.history();
  }
  [[nodiscard]] const std::vector<CoinRecord>& coin_log() const noexcept {
    return coins_;
  }
  [[nodiscard]] RegisterModel& model(RegId reg);

  /// Pending operations of every register, in op-id order (invocation
  /// order), each with its `reg` set.  Valid until the next `apply()`.
  [[nodiscard]] const std::vector<PendingOpInfo>& pending_ops() const noexcept {
    return pending_;
  }

  /// Response choices for a pending op (targeted query for scripted
  /// adversaries; cheaper than enumerating everything).  Valid until the
  /// next `apply()`.
  ///
  /// Menus are cached between register-state changes: a model's choice
  /// menu is a function of the register's events so far (its
  /// configurations and commitments).  The cache is invalidated whenever
  /// the register's model sees an event (invoke, respond).
  [[nodiscard]] const std::vector<ResponseChoice>& choices_for(int op_id);

  /// All enabled actions (steps of runnable processes + every response
  /// choice of every pending op), in a buffer the scheduler reuses.
  /// Valid until the next `enabled_actions()` or `apply()`.
  [[nodiscard]] const std::vector<Action>& enabled_actions();

  /// Applies one action.  Must be an action the current state enables;
  /// response choices must come from `choices_for`/`enabled_actions`.
  void apply(const Action& action);

  /// Runs until all processes finish, the adversary stops, or the action
  /// budget is exhausted.
  RunOutcome run(Adversary& adversary, std::uint64_t max_actions = 1'000'000);

  /// The scheduler's RNG (coin flips; adversaries may fork it).
  [[nodiscard]] util::Rng& rng() noexcept { return rng_; }

  /// Advances the logical clock and returns the new time.  Used by
  /// implemented-register wrappers (Algorithms 2 and 4, ABD) to timestamp
  /// high-level invocations/responses distinctly from base-object events.
  Time advance_clock() noexcept { return tick(); }

  /// Total actions applied so far.
  [[nodiscard]] std::uint64_t actions_applied() const noexcept {
    return actions_;
  }

 private:
  friend class Proc;

  Time tick() noexcept { return ++clock_; }
  void step_process(ProcessId p);
  void respond_op(int op_id, const ResponseChoice& choice);
  /// Index of pending op `op_id` in `pending_`; fails loudly if unknown.
  [[nodiscard]] std::size_t pending_index(int op_id) const;
  /// Drops cached choice menus of every pending op on `reg`.
  void invalidate_choices(RegId reg);

  /// A pending op's cached response menu (see choices_for).
  struct Menu {
    std::vector<ResponseChoice> choices;
    bool valid = false;
  };

  util::Rng rng_;
  Time clock_ = 0;
  std::uint64_t actions_ = 0;
  std::vector<std::unique_ptr<Proc>> procs_;
  std::map<RegId, std::unique_ptr<RegisterModel>> models_;
  std::vector<PendingOpInfo> pending_;  ///< op-id order
  std::vector<Menu> menus_;             ///< menus_[i] is pending_[i]'s
  std::vector<Action> enabled_;         ///< enabled_actions()'s buffer
  history::Recorder recorder_;
  std::vector<CoinRecord> coins_;
};

// ---- Awaitable implementations (must see Scheduler's definition) ----

namespace detail {

struct OpAwait {
  Proc* proc;
  RegId reg;
  OpKind kind;
  Value value;
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    proc->leaf_ = h;
    proc->request_ = {Proc::RequestKind::kOp, reg, kind, value};
  }
  [[nodiscard]] Value await_resume() const noexcept { return proc->result_; }
};

struct CoinAwait {
  Proc* proc;
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    proc->leaf_ = h;
    proc->request_ = {Proc::RequestKind::kCoin, -1, OpKind::kRead, 0};
  }
  [[nodiscard]] int await_resume() const noexcept {
    return static_cast<int>(proc->result_);
  }
};

struct YieldAwait {
  Proc* proc;
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    proc->leaf_ = h;
    proc->request_ = {Proc::RequestKind::kYield, -1, OpKind::kRead, 0};
  }
  void await_resume() const noexcept {}
};

}  // namespace detail

inline auto Proc::write(RegId reg, Value v) {
  return detail::OpAwait{this, reg, OpKind::kWrite, v};
}
inline auto Proc::read(RegId reg) {
  return detail::OpAwait{this, reg, OpKind::kRead, 0};
}
inline auto Proc::flip_coin() { return detail::CoinAwait{this}; }
inline auto Proc::yield() { return detail::YieldAwait{this}; }

}  // namespace rlt::sim
