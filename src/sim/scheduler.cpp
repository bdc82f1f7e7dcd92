#include "sim/scheduler.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace rlt::sim {

const char* to_string(RunOutcome o) noexcept {
  switch (o) {
    case RunOutcome::kAllDone:
      return "all-done";
    case RunOutcome::kStopped:
      return "adversary-stopped";
    case RunOutcome::kActionCap:
      return "action-cap";
    case RunOutcome::kDeadlock:
      return "deadlock";
  }
  return "?";
}

void Scheduler::add_register(RegId reg, Semantics semantics, Value initial) {
  add_register(reg, make_model(semantics, initial), initial);
}

void Scheduler::add_register(RegId reg, std::unique_ptr<RegisterModel> model,
                             Value initial) {
  RLT_CHECK_MSG(models_.find(reg) == models_.end(),
                "register R" << reg << " added twice");
  recorder_.set_initial(reg, initial);
  models_[reg] = std::move(model);
}

ProcessId Scheduler::add_process(std::string name,
                                 const std::function<Task(Proc&)>& body) {
  auto proc = std::make_unique<Proc>();
  proc->sched_ = this;
  proc->id_ = static_cast<ProcessId>(procs_.size());
  proc->name_ = std::move(name);
  Proc& ref = *proc;
  procs_.push_back(std::move(proc));
  ref.task_ = body(ref);
  ref.leaf_ = ref.task_.handle();
  return ref.id_;
}

bool Scheduler::process_done(ProcessId p) const {
  return procs_.at(static_cast<std::size_t>(p))->done;
}

bool Scheduler::process_blocked(ProcessId p) const {
  return procs_.at(static_cast<std::size_t>(p))->blocked;
}

const std::string& Scheduler::process_name(ProcessId p) const {
  return procs_.at(static_cast<std::size_t>(p))->name_;
}

bool Scheduler::all_done() const {
  return std::all_of(procs_.begin(), procs_.end(),
                     [](const auto& p) { return p->done; });
}

RegisterModel& Scheduler::model(RegId reg) {
  const auto it = models_.find(reg);
  RLT_CHECK_MSG(it != models_.end(), "unknown register R" << reg);
  return *it->second;
}

std::size_t Scheduler::pending_index(int op_id) const {
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    if (pending_[i].op_id == op_id) return i;
  }
  RLT_CHECK_MSG(false, "op " << op_id << " is not pending");
  return 0;
}

const std::vector<ResponseChoice>& Scheduler::choices_for(int op_id) {
  const std::size_t i = pending_index(op_id);
  Menu& menu = menus_[i];
  if (!menu.valid) {
    menu.choices = model(pending_[i].reg).response_choices(op_id);
    menu.valid = true;
  }
  return menu.choices;
}

void Scheduler::invalidate_choices(RegId reg) {
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    if (pending_[i].reg == reg) menus_[i].valid = false;
  }
}

const std::vector<Action>& Scheduler::enabled_actions() {
  enabled_.clear();
  for (const auto& proc : procs_) {
    if (!proc->done && !proc->blocked) {
      enabled_.push_back(Action::step(proc->id_));
    }
  }
  for (const PendingOpInfo& info : pending_) {
    for (const ResponseChoice& choice : choices_for(info.op_id)) {
      enabled_.push_back(Action::respond(info.process, info.op_id, choice));
    }
  }
  return enabled_;
}

void Scheduler::step_process(ProcessId p) {
  Proc& proc = *procs_.at(static_cast<std::size_t>(p));
  RLT_CHECK_MSG(!proc.done, "stepping finished process p" << p);
  RLT_CHECK_MSG(!proc.blocked, "stepping blocked process p" << p);

  proc.request_ = Proc::Request{};
  // Resume the innermost suspended coroutine; subtask boundaries are not
  // scheduling points, so one resume may unwind/enter several frames.
  proc.leaf_.resume();
  proc.task_.check_exception();
  if (proc.task_.done()) {
    proc.done = true;
    return;
  }

  switch (proc.request_.kind) {
    case Proc::RequestKind::kNone:
      RLT_CHECK_MSG(false, "process p" << p
                                       << " suspended without a request — "
                                          "co_await a Proc awaitable");
      break;
    case Proc::RequestKind::kYield:
      break;
    case Proc::RequestKind::kCoin: {
      const int outcome = rng_.flip();
      proc.result_ = outcome;
      coins_.push_back(CoinRecord{p, outcome, tick()});
      break;
    }
    case Proc::RequestKind::kOp: {
      const RegId reg = proc.request_.reg;
      RegisterModel& m = model(reg);
      const Time t = tick();
      const history::OpHandle h = recorder_.begin_op(
          p, reg, proc.request_.op_kind, proc.request_.value, t);
      const std::optional<Value> immediate =
          m.on_invoke(h.op_id, proc.request_.op_kind, proc.request_.value);
      if (immediate.has_value()) {
        recorder_.end_op(h, *immediate, tick());
        proc.result_ = *immediate;
      } else {
        // Op ids grow with invocation, so appending keeps op-id order.
        RLT_CHECK(pending_.empty() || pending_.back().op_id < h.op_id);
        pending_.push_back(PendingOpInfo{h.op_id, p, reg,
                                         proc.request_.op_kind,
                                         proc.request_.value, t});
        menus_.emplace_back();
        proc.blocked = true;
      }
      // The model's state changed; cached menus for this register are
      // stale.
      invalidate_choices(reg);
      break;
    }
  }
}

void Scheduler::respond_op(int op_id, const ResponseChoice& choice) {
  const std::size_t i = pending_index(op_id);
  const RegId reg = pending_[i].reg;
  const ProcessId p = pending_[i].process;

  const Time t = tick();
  const Value result = model(reg).on_respond(op_id, choice);
  recorder_.end_op(history::OpHandle{op_id}, result, t);
  const auto at = static_cast<std::ptrdiff_t>(i);
  pending_.erase(pending_.begin() + at);
  menus_.erase(menus_.begin() + at);
  invalidate_choices(reg);

  Proc& proc = *procs_.at(static_cast<std::size_t>(p));
  RLT_CHECK_MSG(proc.blocked, "responding to op of non-blocked process");
  proc.result_ = result;
  proc.blocked = false;
}

void Scheduler::apply(const Action& action) {
  ++actions_;
  if (action.kind == Action::Kind::kStep) {
    step_process(action.process);
  } else {
    respond_op(action.op_id, action.choice);
  }
}

RunOutcome Scheduler::run(Adversary& adversary, std::uint64_t max_actions) {
  for (std::uint64_t i = 0; i < max_actions; ++i) {
    if (all_done()) return RunOutcome::kAllDone;
    const std::optional<Action> action = adversary.choose(*this);
    if (!action.has_value()) return RunOutcome::kStopped;
    apply(*action);
  }
  return all_done() ? RunOutcome::kAllDone : RunOutcome::kActionCap;
}

}  // namespace rlt::sim
