#include "registers/alg4_register.hpp"

#include <algorithm>

#include "checker/spec.hpp"
#include "util/assert.hpp"

namespace rlt::registers {

SimAlg4Register::SimAlg4Register(sim::Scheduler& sched, int n,
                                 sim::RegId first_base,
                                 history::Value initial)
    : sched_(sched), n_(n), first_base_(first_base) {
  RLT_CHECK_MSG(n >= 1, "need at least one writer slot");
  recorder_.set_initial(0, initial);
  writer_busy_.assign(static_cast<std::size_t>(n), false);
  for (int i = 0; i < n; ++i) {
    // Val[i] initialized to (0, <0, i>) — here: (initial, <0, i>).
    tuples_.emplace_back(initial, LamportTs{0, i});
    sched_.add_register(base(i), sim::Semantics::kAtomic,
                        static_cast<history::Value>(i));
  }
}

sim::ValueTask<void> SimAlg4Register::write(sim::Proc& self, int k,
                                            history::Value v) {
  RLT_CHECK_MSG(k >= 0 && k < n_, "writer slot out of range");
  RLT_CHECK_MSG(!writer_busy_[static_cast<std::size_t>(k)],
                "Val[" << k << "] is single-writer");
  writer_busy_[static_cast<std::size_t>(k)] = true;

  const history::Time start = sched_.advance_clock();
  const history::OpHandle h =
      recorder_.begin_op(self.id(), 0, history::OpKind::kWrite, v, start);
  op_tuple_.push_back(-1);

  // Lines 1-3: read every Val[i].
  std::int64_t max_sq = 0;
  for (int i = 0; i < n_; ++i) {
    const history::Value handle = co_await self.read(base(i));
    const LamportTs& ts = tuples_[static_cast<std::size_t>(handle)].second;
    max_sq = std::max(max_sq, ts.sq);
  }
  // Lines 4-5: new_ts = <max sq + 1, k>.
  const LamportTs new_ts{max_sq + 1, k};
  // Line 6: publish.
  tuples_.emplace_back(v, new_ts);
  op_tuple_[static_cast<std::size_t>(h.op_id)] =
      static_cast<int>(tuples_.size() - 1);
  co_await self.write(base(k),
                      static_cast<history::Value>(tuples_.size() - 1));

  recorder_.end_op(h, 0, sched_.advance_clock());
  writer_busy_[static_cast<std::size_t>(k)] = false;
  co_return;  // line 7
}

sim::ValueTask<history::Value> SimAlg4Register::read(sim::Proc& self) {
  const history::Time start = sched_.advance_clock();
  const history::OpHandle h =
      recorder_.begin_op(self.id(), 0, history::OpKind::kRead, 0, start);
  op_tuple_.push_back(-1);

  // Lines 8-10: read every Val[i]; lines 11-12: return the
  // lexicographically greatest ⟨sq, pid⟩'s value.
  int best = -1;
  for (int i = 0; i < n_; ++i) {
    const history::Value handle = co_await self.read(base(i));
    if (best < 0 || tuples_[static_cast<std::size_t>(handle)].second >
                        tuples_[static_cast<std::size_t>(best)].second) {
      best = static_cast<int>(handle);
    }
  }
  const history::Value value = tuples_[static_cast<std::size_t>(best)].first;
  recorder_.end_op(h, value, sched_.advance_clock());
  op_tuple_[static_cast<std::size_t>(h.op_id)] = best;
  co_return value;
}

std::vector<std::uint64_t> SimAlg4Register::tags() const {
  std::vector<std::uint64_t> out;
  out.reserve(op_tuple_.size());
  for (const int t : op_tuple_) {
    if (t < 0) {
      out.push_back(checker::kNoTag);
      continue;
    }
    const LamportTs& ts = tuples_[static_cast<std::size_t>(t)].second;
    out.push_back(ts.sq == 0 ? checker::kInitialTag
                             : static_cast<std::uint64_t>(ts.sq) *
                                       static_cast<std::uint64_t>(n_) +
                                   static_cast<std::uint64_t>(ts.pid));
  }
  return out;
}

}  // namespace rlt::registers
