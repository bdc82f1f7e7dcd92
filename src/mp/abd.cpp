#include "mp/abd.hpp"

#include <algorithm>
#include <bit>
#include <unordered_set>

#include "checker/spec.hpp"
#include "util/assert.hpp"

namespace rlt::mp {

namespace {

// Message grammar.
constexpr std::int64_t kMsgWrite = 1;      // [token, ts, value]  (to server)
constexpr std::int64_t kMsgWriteAck = 2;   // [token]             (to client)
constexpr std::int64_t kMsgRead = 3;       // [token]             (to server)
constexpr std::int64_t kMsgReadReply = 4;  // [token, ts, value]  (to client)

}  // namespace

/// The per-node server: stores the highest-timestamped pair seen and
/// forwards client-addressed responses to the register's op machines.
class AbdRegister::Server final : public Node {
 public:
  Server(AbdRegister& owner, Value initial) : owner_(owner), value_(initial) {}

  void on_message(const Message& m) override {
    // Seq-keyed dedup (fault-tolerant mode only): fabric duplicates
    // carry the seq of their original and are consumed once;
    // retransmissions carry fresh seqs and are answered again.
    if (owner_.fault_tolerant_ && !seen_.insert(m.seq).second) return;
    switch (m.type) {
      case kMsgWrite: {
        const std::int64_t ts = m.payload[1];
        if (ts > ts_) {
          ts_ = ts;
          value_ = m.payload[2];
        }
        owner_.net_.send(id_, m.from, kMsgWriteAck, {m.payload[0]});
        break;
      }
      case kMsgRead:
        owner_.net_.send(id_, m.from, kMsgReadReply,
                         {m.payload[0], ts_, value_});
        break;
      case kMsgWriteAck:
      case kMsgReadReply:
        owner_.on_server_message(id_, m);
        break;
      default:
        RLT_CHECK_MSG(false, "unknown ABD message type " << m.type);
    }
  }

  void set_id(NodeId id) noexcept { id_ = id; }

  /// Crash-recovery: the dedup cache is volatile and does not survive a
  /// crash; (ts_, value_) model durable storage and are kept.
  void reset_volatile() { seen_.clear(); }

 private:
  AbdRegister& owner_;
  NodeId id_ = -1;
  std::int64_t ts_ = 0;
  Value value_;
  std::unordered_set<std::uint64_t> seen_;
};

AbdRegister::~AbdRegister() = default;

AbdRegister::AbdRegister(Network& net, int n, NodeId writer, Value initial,
                         bool read_write_back)
    : net_(net), n_(n), writer_(writer), read_write_back_(read_write_back) {
  RLT_CHECK_MSG(n >= 1, "need at least one server");
  RLT_CHECK_MSG(n <= 64, "quorum bookkeeping uses 64-bit server masks");
  RLT_CHECK_MSG(writer >= 0 && writer < n, "writer must be one of the nodes");
  recorder_.set_initial(0, initial);
  for (int i = 0; i < n; ++i) {
    servers_.push_back(std::make_unique<Server>(*this, initial));
    const NodeId id = net_.add_node(*servers_.back());
    RLT_CHECK_MSG(id == i, "ABD servers must be the first nodes added");
    servers_.back()->set_id(id);
  }
}

int AbdRegister::begin_write(Value v) {
  RLT_CHECK_MSG(!write_pending_,
                "ABD registers are single-writer: a write is already "
                "pending (Observation 65)");
  write_pending_ = true;
  const int token = next_token_++;
  ClientOp op;
  op.kind = ClientOp::Kind::kWrite;
  op.home = writer_;
  op.hl = recorder_.begin_op(writer_, 0, history::OpKind::kWrite, v, tick());
  ++writer_ts_;
  op.write_ts = writer_ts_;
  op.write_value = v;
  ops_[token] = op;
  ++round_trips_;
  net_.broadcast(writer_, kMsgWrite, {token, writer_ts_, v});
  return token;
}

int AbdRegister::begin_read(NodeId reader) {
  RLT_CHECK(reader >= 0 && reader < n_);
  for (const auto& [t, op] : ops_) {
    RLT_CHECK_MSG(op.completed || op.abandoned || op.home != reader,
                  "node " << reader << " already has an operation pending");
  }
  const int token = next_token_++;
  ClientOp op;
  op.kind = ClientOp::Kind::kReadQuery;
  op.home = reader;
  op.hl = recorder_.begin_op(reader, 0, history::OpKind::kRead, 0, tick());
  ops_[token] = op;
  ++round_trips_;
  net_.broadcast(reader, kMsgRead, {token});
  return token;
}

void AbdRegister::on_server_message(NodeId at, const Message& m) {
  const int token = static_cast<int>(m.payload[0]);
  const auto it = ops_.find(token);
  RLT_CHECK_MSG(it != ops_.end(), "response for unknown op token " << token);
  ClientOp& op = it->second;
  if (op.completed) return;  // stale ack/reply after quorum
  if (op.abandoned) return;  // stale reply to an op killed by a crash
  RLT_CHECK_MSG(op.home == at, "response routed to the wrong node");
  const std::uint64_t server_bit = 1ULL
                                   << static_cast<std::uint64_t>(m.from);

  switch (op.kind) {
    case ClientOp::Kind::kWrite:
      RLT_CHECK(m.type == kMsgWriteAck);
      op.heard |= server_bit;
      if (heard_count(op) >= quorum()) {
        op.completed = true;
        write_pending_ = false;
        recorder_.end_op(op.hl, 0, tick());
      }
      break;
    case ClientOp::Kind::kReadQuery: {
      RLT_CHECK(m.type == kMsgReadReply);
      if (m.payload[1] > op.best_ts) {
        op.best_ts = m.payload[1];
        op.best_value = m.payload[2];
      }
      op.heard |= server_bit;
      if (heard_count(op) >= quorum()) {
        if (!read_write_back_) {
          // Ablation: return immediately after the query phase.  Fast,
          // but no longer linearizable across readers.
          op.completed = true;
          op.result = op.best_value;
          recorder_.end_op(op.hl, op.result, tick());
          break;
        }
        // Phase 2: write back the chosen pair before returning.
        op.kind = ClientOp::Kind::kReadWriteBack;
        op.heard = 0;
        op.next_retry = 0;  // re-arm the retransmission timer afresh
        ++round_trips_;
        net_.broadcast(op.home, kMsgWrite, {token, op.best_ts, op.best_value});
      }
      break;
    }
    case ClientOp::Kind::kReadWriteBack:
      // Stale phase-1 replies may still arrive after the quorum was
      // reached and the op moved to its write-back phase; ignore them.
      if (m.type == kMsgReadReply) return;
      RLT_CHECK(m.type == kMsgWriteAck);
      op.heard |= server_bit;
      if (heard_count(op) >= quorum()) {
        op.completed = true;
        op.result = op.best_value;
        recorder_.end_op(op.hl, op.result, tick());
      }
      break;
  }
}

int AbdRegister::heard_count(const ClientOp& op) const {
  return std::popcount(op.heard);
}

void AbdRegister::enable_fault_tolerance(std::uint64_t seed,
                                         std::uint64_t retry_base) {
  RLT_CHECK(retry_base > 0);
  fault_tolerant_ = true;
  retry_base_ = retry_base;
  retry_rng_ = util::Rng(seed);
}

bool AbdRegister::retransmit_eligible(const ClientOp& op) const {
  return fault_tolerant_ && !op.completed && !op.abandoned &&
         !net_.crashed(op.home) && net_.live_count() >= quorum();
}

void AbdRegister::rebroadcast_phase(int token, const ClientOp& op) {
  ++round_trips_;
  switch (op.kind) {
    case ClientOp::Kind::kWrite:
      net_.broadcast(op.home, kMsgWrite, {token, op.write_ts, op.write_value});
      break;
    case ClientOp::Kind::kReadQuery:
      net_.broadcast(op.home, kMsgRead, {token});
      break;
    case ClientOp::Kind::kReadWriteBack:
      net_.broadcast(op.home, kMsgWrite, {token, op.best_ts, op.best_value});
      break;
  }
}

void AbdRegister::tick_retransmit(std::uint64_t now) {
  if (!fault_tolerant_) return;
  for (auto& [token, op] : ops_) {
    if (!retransmit_eligible(op)) continue;
    if (op.next_retry == 0) {
      // Arm with a seeded jittered base interval; the jitter keeps
      // concurrent ops from thundering in lockstep.
      op.retry_interval = retry_base_ + retry_rng_.uniform(retry_base_);
      op.next_retry = now + op.retry_interval;
      continue;
    }
    if (now < op.next_retry) continue;
    rebroadcast_phase(token, op);
    ++retransmits_;
    op.retry_interval = std::min<std::uint64_t>(op.retry_interval * 2,
                                                std::uint64_t{1} << 16);
    op.next_retry = now + op.retry_interval;
  }
}

std::optional<std::uint64_t> AbdRegister::next_retransmit_due() const {
  std::optional<std::uint64_t> due;
  if (!fault_tolerant_) return due;
  for (const auto& [token, op] : ops_) {
    if (!retransmit_eligible(op) || op.next_retry == 0) continue;
    if (!due || op.next_retry < *due) due = op.next_retry;
  }
  return due;
}

void AbdRegister::abandon_ops_on(NodeId node) {
  for (auto& [token, op] : ops_) {
    if (op.completed || op.abandoned || op.home != node) continue;
    op.abandoned = true;
    // The invocation stays pending in the recorded history — the
    // checkers must treat the half-replicated op as possibly-effective.
    if (op.kind == ClientOp::Kind::kWrite) write_pending_ = false;
  }
}

int AbdRegister::abandoned_ops() const {
  int count = 0;
  for (const auto& [token, op] : ops_) count += op.abandoned ? 1 : 0;
  return count;
}

void AbdRegister::on_recover(NodeId node) {
  RLT_CHECK(node >= 0 && node < n_);
  servers_[static_cast<std::size_t>(node)]->reset_volatile();
}

bool AbdRegister::done(int token) const {
  const auto it = ops_.find(token);
  RLT_CHECK(it != ops_.end());
  return it->second.completed;
}

Value AbdRegister::result(int token) const {
  const auto it = ops_.find(token);
  RLT_CHECK(it != ops_.end() && it->second.completed);
  return it->second.result;
}

int AbdRegister::pending_ops() const {
  int pending = 0;
  for (const auto& [t, op] : ops_) pending += op.completed ? 0 : 1;
  return pending;
}

NodeId AbdRegister::op_node(int token) const {
  const auto it = ops_.find(token);
  RLT_CHECK(it != ops_.end());
  return it->second.home;
}

std::vector<std::uint64_t> AbdRegister::tags() const {
  std::vector<std::uint64_t> out(recorder_.history().size(), checker::kNoTag);
  for (const auto& [token, op] : ops_) {
    const auto id = static_cast<std::size_t>(op.hl.op_id);
    if (op.kind == ClientOp::Kind::kWrite) {
      out[id] = static_cast<std::uint64_t>(op.write_ts);
    } else if (op.completed) {
      out[id] = static_cast<std::uint64_t>(op.best_ts);
    }
  }
  return out;
}

bool AbdRegister::op_can_complete(int token) const {
  const auto it = ops_.find(token);
  RLT_CHECK(it != ops_.end());
  if (it->second.completed) return true;
  if (it->second.abandoned) return false;
  return !net_.crashed(it->second.home) && net_.live_count() >= quorum();
}

}  // namespace rlt::mp
