#include "checker/stream_checker.hpp"

#include <sstream>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace rlt::checker {

using history::Event;
using history::OpRecord;
using history::ProcessId;
using history::RegisterId;

void StreamingChecker::set_initial(RegisterId reg, Value v) {
  const bool fresh = frontiers_.emplace(reg, Frontier(v)).second;
  RLT_CHECK_MSG(fresh, "set_initial twice or after events on register "
                           << reg);
}

void StreamingChecker::fail_limit(const std::string& what) {
  if (error_.empty()) error_ = what;
}

int StreamingChecker::on_invoke(ProcessId process, RegisterId reg, OpKind kind,
                                Value value, Time now) {
  const int id = next_id_++;
  ++events_;
  if (frozen()) return id;
  if (saw_event_ && now <= last_time_) {
    std::ostringstream os;
    os << "event times not strictly increasing (t=" << now << " after t="
       << last_time_ << ")";
    fail_limit(os.str());
    return id;
  }
  last_time_ = now;
  saw_event_ = true;

  Frontier& f = frontiers_[reg];  // initial value 0 unless set_initial
  if (f.window().size() >= Frontier::kMaxOps) {
    std::ostringstream os;
    os << "register " << reg << " live window would exceed "
       << Frontier::kMaxOps << " ops (no quiescent point to retire at)";
    fail_limit(os.str());
    return id;
  }
  f.invoke(id, process, kind, value, now);
  open_ops_[id] = reg;
  ++live_ops_;
  if (live_ops_ > peak_live_ops_) peak_live_ops_ = live_ops_;
  // Invocations never flip feasibility: a pending read is never placed,
  // a pending write merely becomes an optional candidate.  No solve.
  return id;
}

void StreamingChecker::on_response(int id, Value result, Time now) {
  ++events_;
  if (frozen()) return;
  const auto ref_it = open_ops_.find(id);
  if (ref_it == open_ops_.end()) {
    std::ostringstream os;
    os << "response for unknown or already-responded op id " << id;
    fail_limit(os.str());
    return;
  }
  if (saw_event_ && now <= last_time_) {
    std::ostringstream os;
    os << "event times not strictly increasing (t=" << now << " after t="
       << last_time_ << ")";
    fail_limit(os.str());
    return;
  }
  last_time_ = now;

  Frontier& f = frontiers_.at(ref_it->second);
  open_ops_.erase(ref_it);
  const int wid = f.window_id_of(id);
  f.respond(wid, result, now);

  // Only a read response can make a feasible window infeasible: the
  // response is the latest event in the window, so a newly completed
  // write appends to any existing witness unchanged.
  if (f.window().op(wid).is_read() && !f.feasible()) {
    violation_event_ = static_cast<std::int64_t>(events_) - 1;
    return;
  }
  if (f.open() != 0) return;
  // Quiescent point: retire the window behind the frontier.
  std::vector<Value> finals = f.final_values();
  // The per-event invariant (reads checked at response, invocations and
  // write responses cannot flip feasibility) makes an empty set
  // impossible here; treat it as the violation it would denote anyway
  // rather than poisoning the next window with an empty initial set.
  if (finals.empty()) {
    violation_event_ = static_cast<std::int64_t>(events_) - 1;
    return;
  }
  ++collapses_;
  retired_ops_ += f.window().size();
  live_ops_ -= f.window().size();
  f.collapse(std::move(finals));
}

StreamingChecker check_stream(const History& h) {
  StreamingChecker checker;
  for (const RegisterId reg : h.registers()) {
    checker.set_initial(reg, h.initial(reg));
  }
  // Stream ids are handed out in invocation order; history op ids are
  // dense but not time-ordered, so map between the two.
  std::vector<int> stream_id(h.size(), -1);
  for (const Event& ev : h.events()) {
    const OpRecord& op = h.op(ev.op_id);
    if (ev.kind == Event::Kind::kInvoke) {
      stream_id[static_cast<std::size_t>(ev.op_id)] =
          checker.on_invoke(op.process, op.reg, op.kind, op.value, ev.time);
    } else {
      checker.on_response(stream_id[static_cast<std::size_t>(ev.op_id)],
                          op.value, ev.time);
    }
  }
  return checker;
}

}  // namespace rlt::checker
