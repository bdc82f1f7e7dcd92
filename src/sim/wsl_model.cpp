// Write strongly-linearizable register semantics (see regmodel.hpp).
//
// Operational form of Definition 4: the register maintains an append-only
// *committed write sequence*.  Whenever a write responds it must already
// be committed — so the response choices for a write enumerate the
// ordered selections of uncommitted writes (containing the responding
// one) that can be appended while a legal linearization with EXACTLY that
// write order still exists.  A read may return the value of an
// uncommitted pending write, but doing so forces that write (and any
// predecessors the adversary chooses) to be committed at the read's
// response.
//
// The crux of Lemma 19 becomes mechanical here: when p0's write of [0,j]
// responds BEFORE the coin flip, the adversary must choose the relative
// order of the concurrent write [1,j] now; it cannot retroactively pick
// the order after seeing the coin.
#include <algorithm>

#include "checker/tree_common.hpp"
#include "sim/regmodel.hpp"
#include "util/assert.hpp"

namespace rlt::sim {

namespace {

using checker::detail::for_each_ordered_selection;

class WslModel final : public WindowedModel {
 public:
  using WindowedModel::WindowedModel;

  std::vector<ResponseChoice> response_choices(int op_id, Time now) override {
    const int wid = frontier_.window_id_of(op_id);
    const history::OpRecord& op = frontier_.window().op(wid);
    std::vector<ResponseChoice> choices;
    if (frontier_.window().size() == 1) {
      // An op alone in its window has one forced response.  A write
      // commits itself.  A read returns the pre-window value, the only
      // one a WSL collapse leaves, and commits nothing.
      choices.push_back(
          op.is_write()
              ? ResponseChoice{op.value, {op_id}}
              : ResponseChoice{frontier_.initial_values().front(), {}});
      return choices;
    }
    // Every probe: `op` hypothetically completed now, and the exact write
    // order committed_ + s for a candidate commitment batch s.
    checker::LinProblem probe = frontier_.problem();
    probe.mode = checker::WriteOrderMode::kExact;
    probe.completion = checker::LinProblem::Completion{wid, op.value, now};
    const auto committing = [&](const std::vector<int>& s)
        -> const checker::LinProblem& {
      probe.exact_write_order = committed_;
      probe.exact_write_order.insert(probe.exact_write_order.end(), s.begin(),
                                     s.end());
      return probe;
    };

    if (op.is_write()) {
      if (std::find(committed_.begin(), committed_.end(), wid) !=
          committed_.end()) {
        // Already committed (a read returned this write's value earlier
        // and forced the commitment).  Responding decides nothing more.
        RLT_CHECK_MSG(checker::feasible(committing({})),
                      "WSL model: committed write response infeasible — bug");
        choices.push_back(ResponseChoice{op.value, {}});
        return choices;
      }
      // Enumerate ordered selections of uncommitted writes containing the
      // responding write; each selection is a candidate commitment batch.
      for_each_ordered_selection(
          uncommitted_writes(), [&](const std::vector<int>& s) {
            if (std::find(s.begin(), s.end(), wid) == s.end()) return false;
            if (!checker::feasible(committing(s))) return false;
            choices.push_back(ResponseChoice{op.value, to_global(s)});
            return false;
          });
      RLT_CHECK_MSG(!choices.empty(),
                    "WSL model: write has no feasible commitment — bug");
      return choices;
    }

    // Reads: (value, commitment extension) pairs, one solver search per
    // extension.  The empty extension is considered too (value determined
    // by already-committed writes).
    const auto try_selection = [&](const std::vector<int>& s) {
      for (const Value v : checker::feasible_read_values(committing(s))) {
        choices.push_back(ResponseChoice{v, to_global(s)});
      }
      return false;
    };
    try_selection({});
    for_each_ordered_selection(uncommitted_writes(), try_selection);
    RLT_CHECK_MSG(!choices.empty(),
                  "WSL model: read has no feasible response — bug");
    return choices;
  }

 protected:
  void apply_choice(int /*window_id*/, const ResponseChoice& choice) override {
    for (const int global : choice.commit_extension) {
      const int wid = frontier_.window_id_of(global);
      const history::OpRecord& op = frontier_.window().op(wid);
      RLT_CHECK_MSG(op.is_write(), "cannot commit a read");
      RLT_CHECK_MSG(std::find(committed_.begin(), committed_.end(), wid) ==
                        committed_.end(),
                    "write committed twice");
      committed_.push_back(wid);
    }
  }

  std::vector<Value> collapse_values() override {
    // At quiescence every write has responded, hence is committed.
    std::size_t write_count = 0;
    for (const history::OpRecord& op : frontier_.window().ops()) {
      if (op.is_write()) ++write_count;
    }
    RLT_CHECK_MSG(write_count == committed_.size(),
                  "quiescent WSL register with uncommitted writes — bug");
    RLT_CHECK_MSG(frontier_.initial_values().size() == 1,
                  "WSL pre-window value must be determined");
    Value final_value = frontier_.initial_values().front();
    if (!committed_.empty()) {
      final_value = frontier_.window().op(committed_.back()).value;
    }
    committed_.clear();
    return {final_value};
  }

 private:
  [[nodiscard]] std::vector<int> uncommitted_writes() const {
    std::vector<int> out;
    for (const history::OpRecord& op : frontier_.window().ops()) {
      if (op.is_write() && std::find(committed_.begin(), committed_.end(),
                                     op.id) == committed_.end()) {
        out.push_back(op.id);
      }
    }
    return out;
  }

  [[nodiscard]] std::vector<int> to_global(const std::vector<int>& wids) const {
    std::vector<int> out;
    out.reserve(wids.size());
    for (const int wid : wids) out.push_back(frontier_.caller_id_of(wid));
    return out;
  }

  std::vector<int> committed_;  ///< window ids, committed order
};

}  // namespace

std::unique_ptr<RegisterModel> make_wsl_model(Value initial) {
  return std::make_unique<WslModel>(initial);
}

}  // namespace rlt::sim
