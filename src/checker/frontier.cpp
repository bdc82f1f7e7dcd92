#include "checker/frontier.hpp"

#include <algorithm>
#include <functional>
#include <set>
#include <utility>

#include "util/assert.hpp"

namespace rlt::checker {

int Frontier::invoke(int caller_id, history::ProcessId process, OpKind kind,
                     Value value, Time now) {
  OpRecord op;
  op.process = process;
  op.reg = 0;  // a window holds one register by construction
  op.kind = kind;
  op.value = kind == OpKind::kWrite ? value : Value{0};
  op.invoke = now;
  const int wid = window_.add(op);
  caller_ids_.push_back(caller_id);
  ++open_;
  return wid;
}

void Frontier::respond(int window_id, Value result, Time now) {
  window_.complete_op(window_id, result, now);
  --open_;
}

int Frontier::window_id_of(int caller_id) const {
  for (std::size_t i = 0; i < caller_ids_.size(); ++i) {
    if (caller_ids_[i] == caller_id) return static_cast<int>(i);
  }
  RLT_CHECK_MSG(false, "op " << caller_id << " not in window");
  return -1;
}

int Frontier::caller_id_of(int window_id) const {
  RLT_CHECK(window_id >= 0 &&
            window_id < static_cast<int>(caller_ids_.size()));
  return caller_ids_[static_cast<std::size_t>(window_id)];
}

LinProblem Frontier::problem() const {
  LinProblem p;
  p.history = &window_;
  p.initial_values = initial_values_;
  return p;
}

const OpRecord* Frontier::lone_op() const {
  return window_.size() == 1 ? &window_.op(0) : nullptr;
}

std::span<const Value> Frontier::read_values(int window_id, Time now) {
  // A lone read linearizes alone, after a past that may leave any
  // pre-window value behind.
  if (lone_op() != nullptr) return initial_values_;
  // Among overlapping ops: one solver search with the read completed now
  // and its value left open.
  LinProblem probe = problem();
  probe.completion =
      LinProblem::Completion{.op_id = window_id, .response = now};
  const std::set<Value> values = feasible_read_values(probe);
  read_values_.assign(values.begin(), values.end());
  return read_values_;
}

bool Frontier::feasible() const {
  if (const OpRecord* op = lone_op()) {
    return op->is_write() || op->pending() ||
           std::ranges::binary_search(initial_values_, op->value);
  }
  return checker::feasible(problem());
}

std::vector<Value> Frontier::final_values() const {
  RLT_CHECK_MSG(open_ == 0, "final values of a window with open ops");
  if (const OpRecord* op = lone_op()) {
    // The value written, or the pre-window value the read returned.
    if (!feasible()) return {};
    return {op->value};
  }
  const std::set<Value> finals = feasible_final_values(problem());
  return {finals.begin(), finals.end()};
}

void Frontier::collapse(std::vector<Value> values) {
  RLT_CHECK_MSG(open_ == 0, "collapsing a window with open ops");
  RLT_CHECK_MSG(!values.empty(), "collapsing to no pre-window value");
  RLT_CHECK_MSG(std::ranges::adjacent_find(values, std::greater_equal<>{}) ==
                    values.end(),
                "pre-window values must be ascending and unique");
  window_.clear();  // keeps the window's capacity for the next one
  caller_ids_.clear();
  initial_values_ = std::move(values);
}

}  // namespace rlt::checker
