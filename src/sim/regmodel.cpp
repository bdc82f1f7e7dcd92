#include "sim/regmodel.hpp"

#include "checker/frontier.hpp"
#include "util/assert.hpp"

namespace rlt::sim {

namespace {

/// Atomic registers: reads/writes are instantaneous (Section 2.1).
class AtomicModel final : public RegisterModel {
 public:
  explicit AtomicModel(Value initial) : value_(initial) {}

  std::optional<Value> on_invoke(int /*op_id*/, OpKind kind,
                                 Value value) override {
    if (kind == OpKind::kWrite) value_ = value;
    return value_;
  }
  std::vector<ResponseChoice> response_choices(int) override { return {}; }
  Value on_respond(int, const ResponseChoice&) override {
    RLT_CHECK_MSG(false, "atomic registers have no pending operations");
    return 0;
  }

 private:
  Value value_;
};

/// "Only linearizable": a read may return ANY value for which a legal
/// linearization of the register's history still exists, so the order of
/// concurrent writes stays undecided until some read forces it: the
/// "off-line" freedom Theorem 6's adversary exploits after the coin flip.
class LinearizableModel final
    : public detail::IntervalModel<checker::Frontier> {
 public:
  using IntervalModel::IntervalModel;

  std::vector<ResponseChoice> response_choices(int op_id) override {
    // Completing a write never constrains the past: one choice.  A read
    // may return any value of its menu, in ascending order.
    std::vector<ResponseChoice> choices;
    if (frontier_.is_write(op_id)) {
      choices.push_back(ResponseChoice{frontier_.written(op_id), {}});
      return choices;
    }
    for (const Value v : frontier_.read_values(op_id)) {
      choices.push_back(ResponseChoice{v, {}});
    }
    RLT_CHECK_MSG(!choices.empty(),
                  "linearizable model: read has no feasible value — bug");
    return choices;
  }

  void respond(int op_id, const ResponseChoice& choice) override {
    frontier_.respond(op_id, choice.value);
  }
};

}  // namespace

std::vector<ResponseChoice> WslModel::response_choices(int op_id) {
  std::vector<ResponseChoice> choices;
  for (const auto& c : frontier_.commitments(op_id)) {
    const std::span<const int> batch = frontier_.batch(c);
    choices.push_back(
        ResponseChoice{c.value, std::vector<int>(batch.begin(), batch.end())});
  }
  RLT_CHECK_MSG(!frontier_.overflowed(),
                "WSL model: register needs more than "
                    << checker::WslFrontier::kMaxConfigs << " configurations");
  RLT_CHECK_MSG(!choices.empty(),
                "WSL model: op " << op_id << " has no feasible response — bug");
  return choices;
}

void WslModel::respond(int op_id, const ResponseChoice& choice) {
  frontier_.respond(op_id, choice.value, choice.commit_extension);
  for (const int write : choice.commit_extension) {
    commits_.push_back(checker::Commit{write, op_id});
  }
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

std::unique_ptr<RegisterModel> make_linearizable_model(Value initial) {
  return std::make_unique<LinearizableModel>(initial);
}

std::unique_ptr<RegisterModel> make_wsl_model(Value initial) {
  return std::make_unique<WslModel>(initial);
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
