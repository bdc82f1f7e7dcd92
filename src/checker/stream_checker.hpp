// On-line (streaming) linearizability checking with bounded memory.
//
// The batch checker (`check_linearizable`) validates a complete recorded
// history post-hoc; the paper's properties, though, are properties of
// unbounded executions, and the ROADMAP's line-rate goal needs a checker
// that keeps up with a *stream* of events.  `StreamingChecker` accepts
// invocation/response events one at a time (strictly increasing times)
// and keeps one `Frontier` (frontier.hpp) per register: a live window of
// operations not yet retired, plus the values the register may hold
// before it.
//
// At each per-register quiescent point the window collapses to the
// values it may leave behind (`Frontier::final_values`); frontier.hpp
// states why that is sound.  Live state stays bounded by the ops between two
// quiescent points, independent of stream length.  The simulator's
// interval register models keep the same frontier; here it runs over
// arbitrary recorded streams and several registers, which is correct for
// the whole history by the locality theorem (each register is checked
// independently).
//
// Feasibility is asked only at *read responses*.  Invocations add an op
// the solver may ignore (pending reads are never placed; pending writes
// are optional), and a write response is always the latest event in its
// window, so the newly completed write can simply be appended to any
// existing witness — neither can flip feasibility.  The frontier answers
// a one-op window by lookup, so the solver runs only on windows of
// overlapping ops.  This, plus the dominance pruning the solver applies,
// is what sustains line-rate checking.
//
// Verdicts are *prefix-exact*: the checker rejects at precisely the
// first event whose prefix is not linearizable (the batch checker's
// minimal failing prefix), and `ok()` after the last event equals the
// batch verdict on the whole stream — including streams that end with
// pending (crashed / stalled) operations.  After a violation the checker
// latches: counters keep counting, state stops evolving.
//
// Limits are reported through `error()`, separate from verdicts: a
// window outgrows the solver's 64-op ceiling (`Frontier::kMaxOps`) only
// when a register never quiesces, in which case the stream is
// *unvalidated*, not wrong.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "checker/frontier.hpp"

namespace rlt::checker {

class StreamingChecker {
 public:
  /// Register initial value (Definition 2, property 3); defaults to 0.
  /// At most once per register, before the register's first event.
  void set_initial(history::RegisterId reg, Value v);

  /// Feeds an invocation event; returns the operation's stream id (pass
  /// it to `on_response`).  `value` is the written value for writes and
  /// ignored for reads.  Event times must be strictly increasing.
  int on_invoke(history::ProcessId process, history::RegisterId reg,
                OpKind kind, Value value, Time now);

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

  /// Non-verdict failure (window overflow, out-of-order events, bad op
  /// id); empty when the stream is fully validated.
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

  // Frontier instrumentation: live state must stay bounded regardless of
  // stream length — the bounded-memory regression test pins these.
  [[nodiscard]] std::size_t live_ops() const noexcept { return live_ops_; }
  [[nodiscard]] std::size_t peak_live_ops() const noexcept {
    return peak_live_ops_;
  }
  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return events_;
  }
  [[nodiscard]] std::uint64_t retired_ops() const noexcept {
    return retired_ops_;
  }
  [[nodiscard]] std::uint64_t collapses() const noexcept { return collapses_; }

 private:
  [[nodiscard]] bool frozen() const noexcept { return !ok(); }
  void fail_limit(const std::string& what);

  /// Per register; caller ids are stream ids.
  std::map<history::RegisterId, Frontier> frontiers_;
  std::map<int, history::RegisterId> open_ops_;  ///< Stream id -> register.
  int next_id_ = 0;
  Time last_time_ = 0;
  bool saw_event_ = false;
  std::uint64_t events_ = 0;
  std::int64_t violation_event_ = -1;
  std::string error_;
  std::size_t live_ops_ = 0;
  std::size_t peak_live_ops_ = 0;
  std::uint64_t retired_ops_ = 0;
  std::uint64_t collapses_ = 0;
};

/// Replays a recorded history through a StreamingChecker in event-time
/// order (the stream the recorder would have produced) and returns the
/// checker for inspection.  The differential bridge between the batch
/// and streaming worlds: `check_stream(h).ok()` must agree with
/// `check_linearizable(h).ok` whenever no limit error occurred.
[[nodiscard]] StreamingChecker check_stream(const History& h);

}  // namespace rlt::checker
