#include "registers/alg2_register.hpp"

#include "util/assert.hpp"

namespace rlt::registers {

VectorTs Alg2WriteTrace::partial_ts_at(Time t, bool infinite_init) const {
  const int n = static_cast<int>(entry_set_time.size());
  VectorTs ts = infinite_init ? VectorTs::infinite(n) : VectorTs::zeros(n);
  for (std::size_t i = 0; i < entry_set_time.size(); ++i) {
    if (entry_set_time[i] != 0 && entry_set_time[i] <= t) {
      ts.set(static_cast<int>(i), entry_value[i]);
    }
  }
  return ts;
}

Alg2Trace Alg2Trace::prefix_at(Time t) const {
  Alg2Trace out;
  out.n = n;
  out.initial = initial;
  out.infinite_init = infinite_init;
  for (const Alg2WriteTrace& w : writes) {
    if (w.start > t) continue;
    Alg2WriteTrace copy = w;
    if (copy.end != history::kNoTime && copy.end > t) {
      copy.end = history::kNoTime;
    }
    if (copy.val_write_time > t) copy.val_write_time = 0;
    for (Time& et : copy.entry_set_time) {
      if (et > t) et = 0;
    }
    out.writes.push_back(std::move(copy));
  }
  for (const Alg2ReadTrace& r : reads) {
    // Reads enter the trace only on completion; keep completed ones.
    if (r.end != history::kNoTime && r.end <= t) out.reads.push_back(r);
  }
  return out;
}

SimAlg2Register::SimAlg2Register(sim::Scheduler& sched, int n,
                                 sim::RegId first_base, Value initial)
    : sched_(sched), n_(n), first_base_(first_base) {
  RLT_CHECK_MSG(n >= 1, "need at least one writer slot");
  trace_.n = n;
  trace_.initial = initial;
  recorder_.set_initial(0, initial);
  writer_busy_.assign(static_cast<std::size_t>(n), false);
  // Tuple 0: the initial value with timestamp [0 … 0], in every Val[i].
  tuples_.emplace_back(initial, VectorTs::zeros(n));
  published_.assign(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    sched_.add_register(base(i), sim::Semantics::kAtomic, 0);
  }
}

int SimAlg2Register::add_tuple(Value v, VectorTs ts) {
  tuples_.emplace_back(v, std::move(ts));
  return static_cast<int>(tuples_.size()) - 1;
}

sim::ValueTask<void> SimAlg2Register::write(sim::Proc& self, int k, Value v) {
  RLT_CHECK_MSG(k >= 0 && k < n_, "writer slot out of range");
  RLT_CHECK_MSG(!writer_busy_[static_cast<std::size_t>(k)],
                "Val[" << k << "] is single-writer: concurrent writes on "
                          "the same slot are illegal");
  writer_busy_[static_cast<std::size_t>(k)] = true;

  const Time start = sched_.advance_clock();
  const history::OpHandle h = recorder_.begin_op(
      self.id(), 0, history::OpKind::kWrite, v, start);
  const std::size_t trace_idx = trace_.writes.size();
  {
    Alg2WriteTrace wt;
    wt.hl_op_id = h.op_id;
    wt.writer = k;
    wt.value = v;
    wt.start = start;
    wt.entry_set_time.assign(static_cast<std::size_t>(n_), 0);
    wt.entry_value.assign(static_cast<std::size_t>(n_), 0);
    trace_.writes.push_back(std::move(wt));
  }

  // Lines 1-7: form new_ts one entry at a time by reading Val[0..n-1].
  VectorTs new_ts = VectorTs::infinite(n_);
  for (int i = 0; i < n_; ++i) {
    // The read of Val[i] takes effect at the next tick and returns the
    // tuple Val[i] holds now.  In the paper's step model, reading Val[i]
    // and assigning new_ts[i] are ONE atomic step (a shared-memory step
    // plus local computation), and the proofs of Lemmas 37/38 rely on
    // this: the entry is set at the base read's linearization point, not
    // when this coroutine happens to be rescheduled.
    const int handle = published_[static_cast<std::size_t>(i)];
    const VectorTs& ts_i = tuples_[static_cast<std::size_t>(handle)].second;
    if (i != k) {
      new_ts.set(i, ts_i[i]);  // line 3
    } else {
      new_ts.set(i, ts_i[i] + 1);  // line 5
    }
    trace_.writes[trace_idx].entry_set_time[static_cast<std::size_t>(i)] =
        sched_.now() + 1;
    trace_.writes[trace_idx].entry_value[static_cast<std::size_t>(i)] =
        new_ts[i];
    const Value read = co_await self.read(base(i));
    RLT_CHECK_MSG(read == handle, "Val[" << i << "] changed within a step");
  }

  // Line 8: publish (v, new_ts) in Val[k], effective at the next tick.
  trace_.writes[trace_idx].final_ts = new_ts;
  const int handle = add_tuple(v, new_ts);
  trace_.writes[trace_idx].val_write_time = sched_.now() + 1;
  published_[static_cast<std::size_t>(k)] = handle;
  co_await self.write(base(k), handle);

  // Line 9: new_ts is reset to [∞ … ∞] — our per-operation new_ts goes
  // out of scope, which is the same thing: between operations the
  // process's timestamp-in-progress reads as all-∞ (partial_ts_at).

  const Time end = sched_.advance_clock();
  recorder_.end_op(h, 0, end);
  trace_.writes[trace_idx].end = end;
  writer_busy_[static_cast<std::size_t>(k)] = false;
  co_return;  // line 10
}

sim::ValueTask<Value> SimAlg2Register::read(sim::Proc& self) {
  const Time start = sched_.advance_clock();
  const history::OpHandle h =
      recorder_.begin_op(self.id(), 0, history::OpKind::kRead, 0, start);

  // Lines 11-13: read every Val[i].
  int best_handle = -1;
  for (int i = 0; i < n_; ++i) {
    const Value handle = co_await self.read(base(i));
    if (best_handle < 0 ||
        tuples_[static_cast<std::size_t>(handle)].second >
            tuples_[static_cast<std::size_t>(best_handle)].second) {
      best_handle = static_cast<int>(handle);  // lines 14-15: lex max
    }
  }
  const auto& [value, ts] = tuples_[static_cast<std::size_t>(best_handle)];

  const Time end = sched_.advance_clock();
  recorder_.end_op(h, value, end);
  {
    Alg2ReadTrace rt;
    rt.hl_op_id = h.op_id;
    rt.start = start;
    rt.end = end;
    rt.value = value;
    rt.ts = ts;
    trace_.reads.push_back(std::move(rt));
  }
  co_return value;
}

}  // namespace rlt::registers
