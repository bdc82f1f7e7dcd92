#include "sim/regmodel.hpp"

#include <sstream>

#include "util/assert.hpp"

namespace rlt::sim {

void WindowedModel::set_initial(Value v) {
  RLT_CHECK_MSG(frontier_.window().empty(),
                "set_initial after operations began");
  frontier_ = checker::Frontier(v);
}

std::optional<Value> WindowedModel::on_invoke(int op_id, ProcessId p,
                                              OpKind kind, Value value,
                                              Time now) {
  frontier_.invoke(op_id, p, kind, value, now);
  return std::nullopt;
}

Value WindowedModel::on_respond(int op_id, const ResponseChoice& choice,
                                Time now) {
  const int wid = frontier_.window_id_of(op_id);
  const history::OpRecord op = frontier_.window().op(wid);
  apply_choice(wid, choice);
  frontier_.respond(wid, choice.value, now);
  return op.is_write() ? op.value : choice.value;
}

void WindowedModel::maybe_collapse() {
  if (frontier_.open() != 0 || frontier_.window().empty()) return;
  frontier_.collapse(collapse_values());
}

std::optional<Value> AtomicModel::on_invoke(int /*op_id*/, ProcessId /*p*/,
                                            OpKind kind, Value value,
                                            Time /*now*/) {
  if (kind == OpKind::kWrite) {
    value_ = value;
    return value;
  }
  return value_;
}

Value AtomicModel::on_respond(int, const ResponseChoice&, Time) {
  RLT_CHECK_MSG(false, "atomic registers have no pending operations");
  return 0;
}

std::string AtomicModel::describe() const {
  std::ostringstream os;
  os << "atomic{value=" << value_ << '}';
  return os.str();
}

const char* to_string(Semantics s) noexcept {
  switch (s) {
    case Semantics::kAtomic:
      return "atomic";
    case Semantics::kLinearizable:
      return "linearizable";
    case Semantics::kWriteStrong:
      return "write-strongly-linearizable";
  }
  return "?";
}

std::unique_ptr<RegisterModel> make_atomic_model(Value initial) {
  auto model = std::make_unique<AtomicModel>();
  model->set_initial(initial);
  return model;
}

std::unique_ptr<RegisterModel> make_model(Semantics s, Value initial) {
  switch (s) {
    case Semantics::kAtomic:
      return make_atomic_model(initial);
    case Semantics::kLinearizable:
      return make_linearizable_model(initial);
    case Semantics::kWriteStrong:
      return make_wsl_model(initial);
  }
  RLT_CHECK_MSG(false, "unknown semantics");
  return nullptr;
}

}  // namespace rlt::sim
