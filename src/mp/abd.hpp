// The ABD algorithm [Attiya, Bar-Noy, Dolev 1995]: a linearizable SWMR
// register in an asynchronous message-passing system with a minority of
// crash faults.
//
// Every node runs a *server* storing the highest-timestamped (ts, value)
// pair it has seen.  The (single) writer increments its timestamp, sends
// WRITE(ts, v) to all nodes, and returns once a majority acknowledged.
// A reader queries all nodes, takes the highest-timestamped pair from a
// majority of replies, *writes it back* to a majority (the write-back
// phase is what makes reads by multiple readers linearizable), and then
// returns the value.
//
// Theorem 14 of the paper: this — like every linearizable SWMR register
// implementation — is write strongly-linearizable, even though it is not
// strongly linearizable.  bench/theorem14_abd and the mp tests check the
// recorded histories with the generic checkers and the f* construction.
//
// Client operations are little state machines driven by message
// deliveries; the driver (tests/benches) interleaves deliveries
// adversarially or at random and may crash a minority of nodes.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "history/recorder.hpp"
#include "mp/network.hpp"
#include "util/rng.hpp"

namespace rlt::mp {

using history::Value;

/// One ABD-replicated SWMR register plus its client operations.
class AbdRegister {
 public:
  /// Servers are nodes 0..n-1 of `net` (created here).  The writer
  /// client lives at node `writer`; readers may be any node.
  ///
  /// `read_write_back` enables the second read phase (writing the chosen
  /// pair back to a majority before returning).  Disabling it is an
  /// ABLATION: the register stops being linearizable for multiple
  /// readers — two sequential reads can observe new-then-old values
  /// (tests/mp_abd_test.cpp hunts down a violating schedule, and
  /// bench/theorem14_abd reports the ablation).  Keep it on.
  AbdRegister(Network& net, int n, NodeId writer, Value initial,
              bool read_write_back = true);

  AbdRegister(const AbdRegister&) = delete;
  AbdRegister& operator=(const AbdRegister&) = delete;
  ~AbdRegister();  // defined out of line: Server is incomplete here

  /// Arms the fault-tolerance layer for unreliable networks: client ops
  /// retransmit their current phase after a seeded timeout with jittered
  /// exponential backoff (retransmissions carry FRESH seqs, so servers
  /// answer them again), and servers dedup incoming messages by seq (so
  /// fabric-duplicated copies — same seq — are consumed once).  Off by
  /// default: the reliable-network message flow is byte-identical to the
  /// classic algorithm.
  void enable_fault_tolerance(std::uint64_t seed,
                              std::uint64_t retry_base = 8);
  [[nodiscard]] bool fault_tolerant() const noexcept {
    return fault_tolerant_;
  }

  /// Drives the retransmission timers at driver-logical time `now`
  /// (call once per driver iteration).  Ops whose timer expired
  /// rebroadcast their current phase and back off; ops that can no
  /// longer complete (abandoned, crashed home, no live quorum) never
  /// retransmit — permanent majority loss quiesces into kBlocked
  /// instead of spinning the budget into kError.
  void tick_retransmit(std::uint64_t now);

  /// Earliest armed retransmission deadline among ops still eligible to
  /// complete; nullopt when no retransmission will ever fire.  Drivers
  /// use this to fast-forward quiescent time instead of misclassifying
  /// a lull as blocked.
  [[nodiscard]] std::optional<std::uint64_t> next_retransmit_due() const;

  /// Crash-recovery semantics: ops in flight at `node` when it crashed
  /// are ABANDONED — their invocations stay pending in the history (the
  /// checkers treat them as possibly-effective), they never complete,
  /// never retransmit, and no longer block the node from starting fresh
  /// ops after recovery.  An abandoned write releases the single-writer
  /// slot (writer_ts_ is durable, so the next write's timestamp still
  /// supersedes it).
  void abandon_ops_on(NodeId node);
  [[nodiscard]] int abandoned_ops() const;

  /// Restores a recovered node's server: durable state (ts, value) is
  /// kept — it survived the crash on stable storage — while volatile
  /// state (the seq-dedup cache) is reset.  Call alongside
  /// Network::recover.
  void on_recover(NodeId node);

  /// Total phase rebroadcasts performed by the retransmission layer.
  [[nodiscard]] std::uint64_t retransmits() const noexcept {
    return retransmits_;
  }

  /// Message-complexity accounting: total client-side round trips —
  /// every phase broadcast counts one (a write's single phase, a read's
  /// query and write-back phases, and each retransmission rebroadcast).
  /// A fault-free classic-ABD write is 1, a fault-free read is 2.
  [[nodiscard]] std::uint64_t round_trips() const noexcept {
    return round_trips_;
  }

  /// Starts a write (only the writer node; ABD is single-writer — calls
  /// while another write is pending are illegal and throw).
  /// Returns an operation token.
  int begin_write(Value v);

  /// Starts a read from node `reader`.  A node may run one op at a time.
  int begin_read(NodeId reader);

  /// True once the operation has committed (majority acks collected).
  [[nodiscard]] bool done(int token) const;

  /// The value a completed read returned.
  [[nodiscard]] Value result(int token) const;

  /// Number of operations still in flight.
  [[nodiscard]] int pending_ops() const;

  /// The node an operation runs on (the writer for writes, the reader
  /// for reads).
  [[nodiscard]] NodeId op_node(int token) const;

  /// Liveness of one operation under the network's current crash set:
  /// true iff the op is completed, or can still be driven to completion
  /// by some delivery schedule (its home node is alive and a majority of
  /// servers is alive — crashed servers never reply, so a pending op
  /// whose live-server count is below the quorum is stranded forever).
  /// Sweep drivers use this to classify quiescent runs as blocked.
  [[nodiscard]] bool op_can_complete(int token) const;

  // ---- forensics accessors (quorum ledger) ------------------------------
  // Read-only views of a client op's progress, used by the blocked-verdict
  // forensics artifact.  Never digest material.

  /// Servers that acked the op's CURRENT phase, as a bitmask (bit i =
  /// node i; retransmitted and duplicated acks count once).
  [[nodiscard]] std::uint64_t op_heard_mask(int token) const {
    return op_at(token).heard;
  }
  /// The phase the op is stuck in: "write", "read-query", or
  /// "read-write-back".
  [[nodiscard]] const char* op_phase_name(int token) const {
    switch (op_at(token).kind) {
      case ClientOp::Kind::kWrite: return "write";
      case ClientOp::Kind::kReadQuery: return "read-query";
      case ClientOp::Kind::kReadWriteBack: return "read-write-back";
    }
    return "?";
  }
  /// True when the op was abandoned by a crash of its home node.
  [[nodiscard]] bool op_abandoned(int token) const {
    return op_at(token).abandoned;
  }

  /// The recorded high-level history (register id 0; times are the
  /// driver's logical clock: one tick per delivery or op begin).
  [[nodiscard]] const history::History& hl_history() const {
    return recorder_.history();
  }

  [[nodiscard]] int n() const noexcept { return n_; }

  /// Each op's timestamp by hl op id, as checker::check_tag_order reads
  /// it (Theorem 14): a write's own, the one a completed read returned
  /// (0, checker::kInitialTag, for the initial value), and
  /// checker::kNoTag for a pending read.
  [[nodiscard]] std::vector<std::uint64_t> tags() const;

  /// Majority threshold (quorum size).
  [[nodiscard]] int quorum() const noexcept { return n_ / 2 + 1; }

 private:
  class Server;

  struct ClientOp {
    enum class Kind { kWrite, kReadQuery, kReadWriteBack };
    Kind kind = Kind::kWrite;
    NodeId home = -1;
    history::OpHandle hl;
    // Servers heard from in the current phase, as a bitmask: duplicated
    // or re-acked replies from the same server count once toward the
    // quorum (n <= 64 enforced at construction).
    std::uint64_t heard = 0;
    // Read state: best (ts, value) seen in the query phase.
    std::int64_t best_ts = -1;
    Value best_value = 0;
    // Write state, kept so retransmissions can replay the phase.
    std::int64_t write_ts = 0;
    Value write_value = 0;
    bool completed = false;
    bool abandoned = false;
    Value result = 0;
    // Retransmission timer: 0 = not yet armed (armed at the next tick);
    // interval doubles on every fire, resets on phase progress.
    std::uint64_t next_retry = 0;
    std::uint64_t retry_interval = 0;
  };

  [[nodiscard]] const ClientOp& op_at(int token) const {
    const auto it = ops_.find(token);
    RLT_CHECK(it != ops_.end());
    return it->second;
  }

  void on_server_message(NodeId at, const Message& m);
  void rebroadcast_phase(int token, const ClientOp& op);
  [[nodiscard]] bool retransmit_eligible(const ClientOp& op) const;
  [[nodiscard]] int heard_count(const ClientOp& op) const;
  history::Time tick() { return ++clock_; }

  Network& net_;
  int n_;
  NodeId writer_;
  std::vector<std::unique_ptr<Server>> servers_;
  history::Recorder recorder_;
  history::Time clock_ = 0;
  std::map<int, ClientOp> ops_;  ///< token -> op
  int next_token_ = 0;
  std::int64_t writer_ts_ = 0;
  bool write_pending_ = false;
  bool read_write_back_ = true;
  bool fault_tolerant_ = false;
  std::uint64_t retry_base_ = 8;
  std::uint64_t retransmits_ = 0;
  std::uint64_t round_trips_ = 0;
  util::Rng retry_rng_{0};
};

}  // namespace rlt::mp
