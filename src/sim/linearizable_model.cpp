// "Only linearizable" register semantics (see regmodel.hpp).
//
// The adversary's freedom: a pending operation responds when the
// adversary says so, and a read may return ANY value for which a legal
// linearization of the register's (windowed) history still exists.  In
// particular the relative order of concurrent writes stays undecided
// until some read forces it — the "off-line" linearization freedom that
// Theorem 6's adversary exploits after seeing the coin flip.
#include "sim/regmodel.hpp"
#include "util/assert.hpp"

namespace rlt::sim {

namespace {

class LinearizableModel final : public WindowedModel {
 public:
  using WindowedModel::WindowedModel;

  std::vector<ResponseChoice> response_choices(int op_id, Time now) override {
    const int wid = frontier_.window_id_of(op_id);
    const history::OpRecord& op = frontier_.window().op(wid);
    std::vector<ResponseChoice> choices;
    if (op.is_write()) {
      // Completing a write never constrains the past: every linearization
      // of the current window remains legal when the write's interval
      // closes now (the new response time only affects operations invoked
      // later).  One choice, no decision content.
      choices.push_back(ResponseChoice{op.value, {}});
      return choices;
    }
    // A read may return any value with a feasible linearization, in the
    // frontier's ascending order.
    for (const Value v : frontier_.read_values(wid, now)) {
      choices.push_back(ResponseChoice{v, {}});
    }
    RLT_CHECK_MSG(!choices.empty(),
                  "linearizable model: read has no feasible value — bug");
    return choices;
  }

 protected:
  void apply_choice(int /*window_id*/,
                    const ResponseChoice& choice) override {
    RLT_CHECK_MSG(choice.commit_extension.empty(),
                  "linearizable registers have no committed write order");
  }

  std::vector<Value> collapse_values() override {
    std::vector<Value> finals = frontier_.final_values();
    RLT_CHECK_MSG(!finals.empty(),
                  "quiescent window has no feasible final value — bug");
    return finals;
  }
};

}  // namespace

std::unique_ptr<RegisterModel> make_linearizable_model(Value initial) {
  return std::make_unique<LinearizableModel>(initial);
}

}  // namespace rlt::sim
