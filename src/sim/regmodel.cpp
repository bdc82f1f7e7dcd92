#include "sim/regmodel.hpp"

#include "util/assert.hpp"

namespace rlt::sim {

std::optional<Value> WindowedModel::on_invoke(int op_id, ProcessId p,
                                              OpKind kind, Value value,
                                              Time now) {
  frontier_.invoke(op_id, p, kind, value, now);
  return std::nullopt;
}

Value WindowedModel::on_respond(int op_id, const ResponseChoice& choice,
                                Time now) {
  const int wid = frontier_.window_id_of(op_id);
  const history::OpRecord& op = frontier_.window().op(wid);
  const Value result = op.is_write() ? op.value : choice.value;
  apply_choice(wid, choice);
  frontier_.respond(wid, choice.value, now);
  if (frontier_.open() == 0) frontier_.collapse(collapse_values());
  return result;
}

namespace {

/// Atomic registers: reads/writes are instantaneous (Section 2.1).
class AtomicModel final : public RegisterModel {
 public:
  explicit AtomicModel(Value initial) : value_(initial) {}

  std::optional<Value> on_invoke(int /*op_id*/, ProcessId /*p*/, OpKind kind,
                                 Value value, Time /*now*/) override {
    if (kind == OpKind::kWrite) value_ = value;
    return value_;
  }
  std::vector<ResponseChoice> response_choices(int, Time) override {
    return {};
  }
  Value on_respond(int, const ResponseChoice&, Time) override {
    RLT_CHECK_MSG(false, "atomic registers have no pending operations");
    return 0;
  }

 private:
  Value value_;
};

}  // namespace

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

std::unique_ptr<RegisterModel> make_model(Semantics s, Value initial) {
  switch (s) {
    case Semantics::kAtomic:
      return std::make_unique<AtomicModel>(initial);
    case Semantics::kLinearizable:
      return make_linearizable_model(initial);
    case Semantics::kWriteStrong:
      return make_wsl_model(initial);
  }
  RLT_CHECK_MSG(false, "unknown semantics");
  return nullptr;
}

}  // namespace rlt::sim
