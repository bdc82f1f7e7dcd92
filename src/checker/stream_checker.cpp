#include "checker/stream_checker.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "util/assert.hpp"

namespace rlt::checker {

using history::Event;
using history::OpRecord;
using history::RegisterId;

void StreamingChecker::set_initial(RegisterId reg, Value v) {
  const bool fresh = frontiers_.try_emplace(reg, v, max_configs_).second;
  RLT_CHECK_MSG(fresh, "set_initial twice or after events on register "
                           << reg);
}

void StreamingChecker::fail_limit(const std::string& what) {
  if (error_.empty()) error_ = what;
}

std::size_t StreamingChecker::peak_configs() const {
  std::size_t peak = 0;
  for (const auto& [reg, f] : frontiers_) {
    peak = std::max(peak, f.peak_configs());
  }
  return peak;
}

bool StreamingChecker::in_order(Time now) {
  if (saw_event_ && now <= last_time_) {
    std::ostringstream os;
    os << "event times not strictly increasing (t=" << now << " after t="
       << last_time_ << ")";
    fail_limit(os.str());
    return false;
  }
  last_time_ = now;
  saw_event_ = true;
  return true;
}

int StreamingChecker::on_invoke(RegisterId reg, OpKind kind, Value value,
                                Time now) {
  const int id = next_id_++;
  ++events_;
  if (frozen() || !in_order(now)) return id;
  // Initial value 0 unless set_initial.
  Frontier& f = frontiers_.try_emplace(reg, 0, max_configs_).first->second;
  if (!f.invoke(id, kind, value)) {
    std::ostringstream os;
    os << "register " << reg << " would hold more than "
       << Frontier::kMaxOpen << " open ops";
    fail_limit(os.str());
    return id;
  }
  open_ops_[id] = reg;
  peak_live_ops_ = std::max(peak_live_ops_, open_ops_.size());
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
  if (!in_order(now)) return;
  const RegisterId reg = ref_it->second;
  Frontier& f = frontiers_.at(reg);
  open_ops_.erase(ref_it);
  f.respond(id, result);
  if (f.overflowed()) {
    std::ostringstream os;
    os << "register " << reg << " would hold more than " << max_configs_
       << " configurations";
    fail_limit(os.str());
    return;
  }
  if (!f.feasible()) violation_event_ = static_cast<std::int64_t>(events_) - 1;
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
          checker.on_invoke(op.reg, op.kind, op.value, ev.time);
    } else {
      checker.on_response(stream_id[static_cast<std::size_t>(ev.op_id)],
                          op.value, ev.time);
    }
  }
  return checker;
}

}  // namespace rlt::checker
