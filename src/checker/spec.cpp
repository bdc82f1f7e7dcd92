#include "checker/spec.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <utility>

#include "util/assert.hpp"

namespace rlt::checker {

SequentialCheck is_legal_sequential(const History& h,
                                    const std::vector<int>& order) {
  const auto fail = [](const std::string& why) {
    return SequentialCheck{false, why};
  };

  std::set<int> seen;
  for (const int id : order) {
    if (id < 0 || id >= static_cast<int>(h.size())) {
      return fail("order mentions unknown op id " + std::to_string(id));
    }
    if (!seen.insert(id).second) {
      return fail("order mentions op" + std::to_string(id) + " twice");
    }
    const OpRecord& op = h.op(id);
    if (op.is_read() && op.pending()) {
      return fail("order includes pending read op" + std::to_string(id));
    }
  }
  for (const OpRecord& op : h.ops()) {
    if (!op.pending() && seen.count(op.id) == 0) {
      return fail("order omits completed op" + std::to_string(op.id));
    }
  }

  // Real-time precedence among included ops.
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (std::size_t j = i + 1; j < order.size(); ++j) {
      const OpRecord& later = h.op(order[j]);
      const OpRecord& earlier = h.op(order[i]);
      if (later.precedes(earlier)) {
        std::ostringstream os;
        os << "real-time violation: op" << later.id << " precedes op"
           << earlier.id << " but is ordered after it";
        return fail(os.str());
      }
    }
  }

  // Register semantics.
  const auto regs = h.registers();
  std::map<history::RegisterId, Value> current;
  for (const auto reg : regs) current[reg] = h.initial(reg);
  for (const int id : order) {
    const OpRecord& op = h.op(id);
    if (op.is_write()) {
      current[op.reg] = op.value;
    } else if (op.value != current[op.reg]) {
      std::ostringstream os;
      os << "read op" << op.id << " returned " << op.value
         << " but register R" << op.reg << " holds " << current[op.reg];
      return fail(os.str());
    }
  }
  return SequentialCheck{true, {}};
}

SequentialCheck check_tag_order(const History& h,
                                const std::vector<std::uint64_t>& tags) {
  const auto fail = [](const std::string& why) {
    return SequentialCheck{false, why};
  };
  if (tags.size() != h.size()) return fail("one tag per op expected");
  std::vector<std::pair<std::uint64_t, int>> writes;
  std::vector<std::pair<std::uint64_t, int>> reads;
  for (const OpRecord& op : h.ops()) {
    const std::uint64_t tag = tags[static_cast<std::size_t>(op.id)];
    if (op.is_write()) {
      if (tag == kInitialTag || (tag == kNoTag && !op.pending())) {
        return fail("write op" + std::to_string(op.id) + " has no tag");
      }
      if (tag != kNoTag) writes.emplace_back(tag, op.id);
    } else if (!op.pending()) {
      if (tag == kNoTag) {
        return fail("read op" + std::to_string(op.id) + " has no tag");
      }
      reads.emplace_back(tag, op.id);
    }
  }
  std::sort(writes.begin(), writes.end());
  std::sort(reads.begin(), reads.end());
  std::vector<int> order;
  order.reserve(writes.size() + reads.size());
  auto r = reads.begin();
  for (; r != reads.end() && r->first == kInitialTag; ++r) {
    order.push_back(r->second);
  }
  for (std::size_t w = 0; w < writes.size(); ++w) {
    const auto [tag, id] = writes[w];
    if (w > 0 && writes[w - 1].first == tag) {
      return fail("writes op" + std::to_string(writes[w - 1].second) +
                  " and op" + std::to_string(id) + " share a tag");
    }
    if (r != reads.end() && r->first < tag) break;  // a tag no write has
    const auto first = r;
    while (r != reads.end() && r->first == tag) ++r;
    if (first == r && h.op(id).pending()) continue;
    order.push_back(id);
    for (auto it = first; it != r; ++it) order.push_back(it->second);
  }
  if (r != reads.end()) {
    return fail("read op" + std::to_string(r->second) +
                " returned a tag no write has");
  }
  return is_legal_sequential(h, order);
}

SequentialCheck check_commit_order(const History& h,
                                   std::span<const Commit> log) {
  const auto fail = [](const std::string& why) {
    return SequentialCheck{false, why};
  };
  const auto name = [](const char* what, int id) {
    return std::string(what) + " op" + std::to_string(id);
  };
  const int n = static_cast<int>(h.size());
  std::vector<std::uint64_t> tags(h.size(), kNoTag);
  std::vector<Time> commit_time(h.size(), history::kNoTime);
  std::vector<std::pair<Value, int>> values;  // committed writes' values
  values.reserve(log.size());
  Time last = 0;
  for (std::size_t i = 0; i < log.size(); ++i) {
    const Commit c = log[i];
    if (c.write < 0 || c.write >= n || c.by < 0 || c.by >= n) {
      return fail("commit log entry " + std::to_string(i) +
                  " names an unknown op");
    }
    const OpRecord& w = h.op(c.write);
    const OpRecord& by = h.op(c.by);
    if (!w.is_write() || by.pending()) {
      return fail("commit log entry " + std::to_string(i) +
                  " is not a write committed at a response");
    }
    // (a)
    if (by.response < last) {
      return fail("commit log out of response order at " +
                  name("write", w.id));
    }
    if (w.invoke > by.response) {
      return fail(name("write", w.id) +
                  " committed before its invocation");
    }
    // (b), for the committed writes
    if (!w.pending() && by.response > w.response) {
      return fail(name("write", w.id) +
                  " committed after its own response");
    }
    last = by.response;
    const auto wi = static_cast<std::size_t>(c.write);
    tags[wi] = i + 1;
    commit_time[wi] = by.response;
    values.emplace_back(w.value, w.id);
  }
  // (d); a write committed twice repeats its own value
  std::sort(values.begin(), values.end());
  const Value initial = h.initial(single_register_of(h));
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i].first == initial ||
        (i > 0 && values[i - 1].first == values[i].first)) {
      return fail("declined: committed value " +
                  std::to_string(values[i].first) +
                  (values[i].first == initial ? " is the initial value"
                                              : " repeats"));
    }
  }
  for (const OpRecord& op : h.ops()) {
    // (b) for a completed write the log lacks: it has no tag, which (e)
    // rejects.
    if (op.pending() || op.is_write()) continue;
    const auto id = static_cast<std::size_t>(op.id);
    if (op.value == initial) {
      tags[id] = kInitialTag;
      continue;
    }
    const auto it = std::lower_bound(values.begin(), values.end(),
                                     std::pair<Value, int>{op.value, -1});
    if (it == values.end() || it->first != op.value) continue;  // (e) fails
    const auto wi = static_cast<std::size_t>(it->second);
    // (c)
    if (op.response < commit_time[wi]) {
      return fail(name("read", op.id) + " returned " +
                  name("write", it->second) + "'s value before its commit");
    }
    tags[id] = tags[wi];
  }
  // (e)
  return check_tag_order(h, tags);
}

std::vector<int> writes_of(const History& h, const std::vector<int>& order) {
  std::vector<int> out;
  for (const int id : order) {
    if (h.op(id).is_write()) out.push_back(id);
  }
  return out;
}

bool is_prefix_of(const std::vector<int>& prefix,
                  const std::vector<int>& seq) {
  if (prefix.size() > seq.size()) return false;
  return std::equal(prefix.begin(), prefix.end(), seq.begin());
}

history::RegisterId single_register_of(const History& h) {
  // Allocation-free (this runs once per solver call): scan instead of
  // materializing the register set.
  bool seen = false;
  history::RegisterId reg = 0;
  for (const OpRecord& op : h.ops()) {
    if (!seen) {
      reg = op.reg;
      seen = true;
    } else {
      RLT_CHECK_MSG(op.reg == reg,
                    "expected a single-register history, found several");
    }
  }
  return reg;
}

}  // namespace rlt::checker
