#include "checker/frontier.hpp"

#include <algorithm>
#include <functional>
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
