// On-line (streaming) linearizability checking with bounded memory.
//
// The paper's properties are properties of unbounded executions, so
// besides the batch checker (`check_linearizable`) there is a checker that
// keeps up with a *stream* of events.  `StreamingChecker` accepts
// invocation/response events one at a time (strictly increasing times)
// and keeps one `Frontier` (frontier.hpp) per register, as the
// simulator's register models do; by the locality theorem, checking each
// register independently checks the whole history.  No event calls the
// solver, and state is bounded by the open ops, not the stream length.
//
// A response keeps the configurations that linearized its op, so the set
// empties at the first event whose prefix is not linearizable: verdicts
// are *prefix-exact* (the batch checker's minimal failing prefix), and
// `ok()` after the last event equals the batch verdict on the whole
// stream, pending (crashed / stalled) ops included.  After a violation the
// checker latches: counters keep counting, state stops evolving.  A
// register past `Frontier::kMaxOpen` open ops or its cap on
// configurations (`Frontier::kMaxConfigs` unless given) latches `error()`
// instead: *unvalidated*, not wrong.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "checker/frontier.hpp"

namespace rlt::checker {

class StreamingChecker {
 public:
  /// Each register holds at most `max_configs` configurations.
  explicit StreamingChecker(std::size_t max_configs = Frontier::kMaxConfigs)
      : max_configs_(max_configs) {}

  /// Register initial value (Definition 2, property 3); defaults to 0.
  /// At most once per register, before the register's first event.
  void set_initial(history::RegisterId reg, Value v);

  /// Feeds an invocation event; returns the operation's stream id (pass
  /// it to `on_response`).  `value` is the written value for writes and
  /// ignored for reads.  Event times must be strictly increasing.
  int on_invoke(history::RegisterId reg, OpKind kind, Value value, Time now);

  /// Feeds the response of operation `id` (reads: returning `result`).
  void on_response(int id, Value result, Time now);

  /// True while every fed prefix is linearizable and no limit was hit.
  [[nodiscard]] bool ok() const noexcept {
    return violation_event_ < 0 && error_.empty();
  }

  /// 0-based global index of the first event whose prefix is not
  /// linearizable; -1 if every prefix so far is.
  [[nodiscard]] std::int64_t first_violation_event() const noexcept {
    return violation_event_;
  }

  /// Non-verdict failure (too many open ops or configurations on a
  /// register, out-of-order events, bad op id); empty when the stream is
  /// fully validated.
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

  /// Ops open now, and the most ever open at once, over all registers
  /// (bounded whatever the stream's length).
  [[nodiscard]] std::size_t live_ops() const noexcept {
    return open_ops_.size();
  }
  [[nodiscard]] std::size_t peak_live_ops() const noexcept {
    return peak_live_ops_;
  }
  /// The most configurations one register has held after an event.
  [[nodiscard]] std::size_t peak_configs() const;
  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return events_;
  }

 private:
  [[nodiscard]] bool frozen() const noexcept { return !ok(); }
  void fail_limit(const std::string& what);
  /// Whether `now` follows the last event (else the error latches).
  bool in_order(Time now);

  /// Per register; caller ids are stream ids.
  std::map<history::RegisterId, Frontier> frontiers_;
  std::map<int, history::RegisterId> open_ops_;  ///< Stream id -> register.
  std::size_t max_configs_;
  int next_id_ = 0;
  Time last_time_ = 0;
  bool saw_event_ = false;
  std::uint64_t events_ = 0;
  std::int64_t violation_event_ = -1;
  std::string error_;
  std::size_t peak_live_ops_ = 0;
};

/// Replays a recorded history through a StreamingChecker in event-time
/// order (the stream the recorder would have produced) and returns the
/// checker for inspection.  The differential bridge between the batch
/// and streaming worlds: `check_stream(h).ok()` must agree with
/// `check_linearizable(h).ok` whenever no limit error occurred.
[[nodiscard]] StreamingChecker check_stream(const History& h);

}  // namespace rlt::checker
