#include "obs/forensics.hpp"

#include <fstream>
#include <map>

#include "checker/lin_checker.hpp"
#include "sweep/store.hpp"
#include "util/assert.hpp"

namespace rlt::obs {

namespace {

using history::History;
using history::OpRecord;

// ---- canonical nested-JSON writer ---------------------------------------
// sweep::Record is flat by design; forensics artifacts nest, so this
// tiny writer produces the same canonical form (insertion order, RFC
// 8259 escapes via sweep::json_escape, no whitespace) for trees.
class Json {
 public:
  Json& begin_obj() { open('{'); return *this; }
  Json& end_obj() { close('}'); return *this; }
  Json& begin_arr() { open('['); return *this; }
  Json& end_arr() { close(']'); return *this; }
  Json& key(const char* k) {
    comma();
    out_ += sweep::json_escape(k);
    out_ += ':';
    pending_value_ = true;
    return *this;
  }
  Json& str(const std::string& v) { return raw(sweep::json_escape(v)); }
  Json& u64(std::uint64_t v) { return raw(std::to_string(v)); }
  Json& i64(std::int64_t v) { return raw(std::to_string(v)); }
  Json& boolean(bool v) { return raw(v ? "true" : "false"); }
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  void open(char c) {
    comma();
    out_ += c;
    first_.push_back(true);
  }
  void close(char c) {
    RLT_CHECK(!first_.empty());
    first_.pop_back();
    out_ += c;
  }
  void comma() {
    if (pending_value_) {
      pending_value_ = false;
      return;  // value follows a key: no comma
    }
    if (!first_.empty()) {
      if (!first_.back()) out_ += ',';
      first_.back() = false;
    }
  }
  Json& raw(const std::string& v) {
    comma();
    out_ += v;
    return *this;
  }

  std::string out_;
  std::vector<bool> first_;
  bool pending_value_ = false;
};

// ---- certificate minimization -------------------------------------------

/// Sub-history of the kept ops (ids re-densified in ascending original
/// order; `orig` maps new id -> original id).  Register initial values
/// carry over.
History sub_history(const History& h, const std::vector<char>& keep,
                    std::vector<int>* orig) {
  History sub;
  for (const auto reg : h.registers()) sub.set_initial(reg, h.initial(reg));
  if (orig != nullptr) orig->clear();
  for (const OpRecord& op : h.ops()) {
    if (keep[static_cast<std::size_t>(op.id)] == 0) continue;
    OpRecord copy = op;
    copy.id = -1;  // add() re-assigns densely
    sub.add(copy);
    if (orig != nullptr) orig->push_back(op.id);
  }
  return sub;
}

}  // namespace

Certificate make_certificate(const History& h) {
  Certificate c;
  std::vector<char> keep(h.size(), 1);
  ++c.probes;
  if (checker::check_linearizable(h).ok) {
    // Defensive: the caller claimed a violation the checker cannot
    // reproduce; emit an honest, non-reverified certificate.
    c.constraint = "checker did not reproduce the reported failure";
    return c;
  }
  // Greedy fixpoint: drop any op whose removal keeps the checker
  // failing; repeat until no single removal survives (1-minimality).
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < h.size(); ++i) {
      if (keep[i] == 0) continue;
      keep[i] = 0;
      const History sub = sub_history(h, keep, nullptr);
      ++c.probes;
      if (!checker::check_linearizable(sub).ok) {
        changed = true;
      } else {
        keep[i] = 1;
      }
    }
  }
  const History minimal = sub_history(h, keep, &c.ops);
  // Re-verification: replaying exactly the certificate's op set through
  // the checker must reproduce the failure.
  ++c.probes;
  const auto r = checker::check_linearizable(minimal);
  c.reverified = !r.ok;
  c.constraint = r.error;
  return c;
}

std::string build_artifact(const std::string& key, const std::string& verdict,
                           const std::string& detail, const History& h,
                           const ForensicsCapture& cap) {
  Json j;
  j.begin_obj();
  j.key("forensics").u64(1);
  j.key("key").str(key);
  j.key("verdict").str(verdict);
  j.key("detail").str(detail);

  // Register initial values (Definition 2 property 3 — the certificate
  // replay needs them to mean the same thing).
  j.key("initial").begin_obj();
  for (const auto reg : h.registers()) {
    j.key(("R" + std::to_string(reg)).c_str()).i64(h.initial(reg));
  }
  j.end_obj();

  // The full recorded history, op spans in id order.
  j.key("ops").begin_arr();
  for (const OpRecord& op : h.ops()) {
    j.begin_obj();
    j.key("id").i64(op.id);
    j.key("process").i64(op.process);
    j.key("reg").i64(op.reg);
    j.key("kind").str(history::to_string(op.kind));
    j.key("value").i64(op.value);
    j.key("invoke").u64(op.invoke);
    if (!op.pending()) j.key("response").u64(op.response);
    j.key("pending").boolean(op.pending());
    j.end_obj();
  }
  j.end_arr();

  // Failure certificate (violations only).
  if (verdict == "VIOLATION") {
    const Certificate c = make_certificate(h);
    j.key("certificate").begin_obj();
    j.key("checker").str(c.checker);
    j.key("ops").begin_arr();
    for (const int id : c.ops) j.i64(id);
    j.end_arr();
    j.key("constraint").str(c.constraint);
    j.key("reverified").boolean(c.reverified);
    j.key("probes").u64(c.probes);
    j.end_obj();
  }

  // Quorum ledger (blocked ABD runs).
  if (!cap.ledger.empty()) {
    j.key("ledger").begin_arr();
    for (const LedgerEntry& e : cap.ledger) {
      j.begin_obj();
      j.key("token").i64(e.token);
      j.key("op_id").i64(e.op_id);
      j.key("node").i64(e.node);
      j.key("phase").str(e.phase);
      j.key("acks").begin_arr();
      for (const int a : e.acks) j.i64(a);
      j.end_arr();
      j.key("quorum").i64(e.quorum);
      j.key("n").i64(e.n);
      j.key("abandoned").boolean(e.abandoned);
      j.key("cause").str(e.cause);
      j.key("cut_by").str(e.cut_by);
      j.end_obj();
    }
    j.end_arr();
  }

  // Event timeline + happens-before edges (send -> delivery by seq;
  // program order and invoke->response are implicit in the op spans).
  if (cap.timeline != nullptr) {
    const auto& events = cap.timeline->events();
    j.key("timeline").begin_obj();
    j.key("elided").u64(cap.timeline->elided());
    j.key("events").begin_arr();
    for (const TimelineEvent& e : events) {
      j.begin_obj();
      j.key("e").str(to_string(e.kind));
      switch (e.kind) {
        case TimelineEvent::Kind::kSend:
        case TimelineEvent::Kind::kDeliver:
        case TimelineEvent::Kind::kDrop:
        case TimelineEvent::Kind::kDuplicate:
          j.key("from").i64(e.from);
          j.key("to").i64(e.to);
          j.key("type").i64(e.type);
          j.key("seq").u64(e.seq);
          if (!e.detail.empty()) j.key("detail").str(e.detail);
          break;
        case TimelineEvent::Kind::kCrash:
        case TimelineEvent::Kind::kRecover:
          j.key("node").i64(e.to);
          j.key("detail").str(e.detail);
          break;
        case TimelineEvent::Kind::kFault:
          j.key("detail").str(e.detail);
          break;
      }
      j.end_obj();
    }
    j.end_arr();
    // Happens-before: each delivery's matching send, by seq (duplicate
    // copies share the seq, so dup deliveries point at the original).
    std::map<std::uint64_t, std::size_t> send_at;
    j.key("edges").begin_arr();
    for (std::size_t i = 0; i < events.size(); ++i) {
      const TimelineEvent& e = events[i];
      if (e.kind == TimelineEvent::Kind::kSend) {
        send_at.emplace(e.seq, i);
      } else if (e.kind == TimelineEvent::Kind::kDeliver) {
        const auto it = send_at.find(e.seq);
        if (it != send_at.end()) {
          j.begin_obj();
          j.key("from").u64(it->second);
          j.key("to").u64(i);
          j.end_obj();
        }
      }
    }
    j.end_arr();
    j.end_obj();
  }

  j.end_obj();
  return j.take() + "\n";
}

void write_artifact(const std::string& dir, const std::string& name,
                    const std::string& body) {
  const std::string path = dir + "/" + name;
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  RLT_CHECK_MSG(f.is_open(), "cannot open forensics artifact " << path);
  f << body;
  f.flush();
  RLT_CHECK_MSG(f.good(), "write to forensics artifact failed: " << path);
}

}  // namespace rlt::obs
