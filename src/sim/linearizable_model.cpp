// "Only linearizable" register semantics (see regmodel.hpp).
//
// The adversary's freedom: a pending operation responds when the
// adversary says so, and a read may return ANY value for which a legal
// linearization of the register's (windowed) history still exists.  In
// particular the relative order of concurrent writes stays undecided
// until some read forces it — the "off-line" linearization freedom that
// Theorem 6's adversary exploits after seeing the coin flip.
#include <algorithm>
#include <set>
#include <sstream>

#include "sim/regmodel.hpp"
#include "util/assert.hpp"

namespace rlt::sim {

namespace {

class LinearizableModel final : public WindowedModel {
 public:
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
    if (frontier_.window().size() == 1) {
      // A read alone in its window may return exactly the pre-window
      // values: it linearizes alone, after a past that may leave any of
      // them behind (checker/frontier.hpp).  They are ascending and
      // unique, the solver's order.
      for (const Value v : frontier_.initial_values()) {
        choices.push_back(ResponseChoice{v, {}});
      }
      return choices;
    }
    // Reads among overlapping ops: any value with a feasible
    // linearization, from one solver search with the read completed now
    // and its value left open.
    checker::LinProblem probe = frontier_.problem();
    probe.completion = checker::LinProblem::Completion{wid, op.value, now};
    for (const Value v : checker::feasible_read_values(probe)) {
      choices.push_back(ResponseChoice{v, {}});
    }
    RLT_CHECK_MSG(!choices.empty(),
                  "linearizable model: read has no feasible value — bug");
    return choices;
  }

  [[nodiscard]] std::string describe() const override {
    std::ostringstream os;
    const std::vector<Value>& pre = frontier_.initial_values();
    os << "linearizable{window=" << frontier_.window().size()
       << " ops, pre-window in {";
    for (std::size_t i = 0; i < pre.size(); ++i) {
      os << (i == 0 ? "" : ",") << pre[i];
    }
    os << "}}";
    return os.str();
  }

 protected:
  void apply_choice(int /*window_id*/,
                    const ResponseChoice& choice) override {
    RLT_CHECK_MSG(choice.commit_extension.empty(),
                  "linearizable registers have no committed write order");
  }

  std::vector<Value> collapse_values() override {
    const history::History& window = frontier_.window();
    if (window.size() == 1) {
      // One op leaves its own value behind: the value written, or the
      // pre-window value the read returned.
      const history::OpRecord& op = window.op(0);
      const std::vector<Value>& pre = frontier_.initial_values();
      RLT_CHECK_MSG(op.is_write() || std::ranges::binary_search(pre, op.value),
                    "quiescent window has no feasible final value — bug");
      return {op.value};
    }
    const std::set<Value> finals =
        checker::feasible_final_values(frontier_.problem());
    RLT_CHECK_MSG(!finals.empty(),
                  "quiescent window has no feasible final value — bug");
    return {finals.begin(), finals.end()};
  }
};

}  // namespace

std::unique_ptr<RegisterModel> make_linearizable_model(Value initial) {
  auto model = std::make_unique<LinearizableModel>();
  model->set_initial(initial);
  return model;
}

}  // namespace rlt::sim
