// Algorithm 2: a write strongly-linearizable MWMR register built from n
// atomic SWMR registers, simulator build.
//
// Shared state: SWMR registers Val[0..n-1]; Val[k] holds the latest
// (value, vector-timestamp) tuple written by writer k.  To write, process
// k forms a fresh vector timestamp one entry at a time by reading every
// Val[i] (new_ts[i] = Val[i].ts[i], plus one for its own entry), then
// writes (v, new_ts) to Val[k].  To read, a process reads all Val[i] and
// returns the value with the lexicographically greatest timestamp.
//
// In the simulator, base registers hold int64 handles into a tuple table
// (the base objects are *atomic*, exactly as the paper assumes); every
// base-register access is one adversary-schedulable step.  A base access
// takes effect at the scheduler's next tick in the step that requests it,
// while the coroutine resumes only at the process's next step, so the
// wrapper stamps the trace in the requesting step: a run cut before the
// process resumes still records what it published.  The wrapper
// records the implemented register's high-level history (checked by the
// generic linearizability / WSL checkers) and an instrumentation trace
// (operation intervals, the time each new_ts entry was assigned, the time
// of the line-8 write) that Algorithm 3 consumes.
#pragma once

#include <vector>

#include "history/recorder.hpp"
#include "registers/vector_ts.hpp"
#include "sim/scheduler.hpp"

namespace rlt::registers {

using history::Time;
using history::Value;

/// Instrumentation of one Algorithm 2 write operation.
struct Alg2WriteTrace {
  int hl_op_id = -1;  ///< Op id in the implemented register's history.
  int writer = -1;    ///< Writer slot k.
  Value value = 0;
  Time start = 0;
  Time end = history::kNoTime;       ///< High-level response (kNoTime: pending).
  Time val_write_time = 0;           ///< Line-8 write time (0: not reached).
  std::vector<Time> entry_set_time;  ///< new_ts[i] assignment time (0: unset).
  std::vector<std::uint64_t> entry_value;  ///< new_ts[i] assigned value.
  VectorTs final_ts;                 ///< Valid iff val_write_time != 0.

  /// The value of this write's new_ts at time `t` (Algorithm 3, line 8
  /// of the linearization function): entries assigned at or before `t`,
  /// ∞ elsewhere.
  ///
  /// `infinite_init=false` is an ABLATION of the paper's line 9 / local
  /// initialization: unset entries read as 0 instead of ∞.  The paper
  /// notes the ∞ initialization "is important for the write strong-
  /// linearization" — with 0-filled partial timestamps, a write that has
  /// barely started looks *smaller* than everything and gets linearized
  /// too early, breaking Algorithm 3 (tests demonstrate a concrete
  /// schedule; see Alg2Ablation.ZeroInitBreaksAlgorithm3).
  [[nodiscard]] VectorTs partial_ts_at(Time t,
                                       bool infinite_init = true) const;
};

/// Instrumentation of one completed Algorithm 2 read operation.
struct Alg2ReadTrace {
  int hl_op_id = -1;
  Time start = 0;
  Time end = history::kNoTime;
  Value value = 0;
  VectorTs ts;  ///< The timestamp attached to the returned value.
};

/// Full instrumentation of an Algorithm 2 execution.
struct Alg2Trace {
  int n = 0;
  Value initial = 0;
  /// Partial timestamps treat unset entries as ∞ (the paper's scheme).
  /// Flip to false to study the ablation (see partial_ts_at).
  bool infinite_init = true;
  std::vector<Alg2WriteTrace> writes;
  std::vector<Alg2ReadTrace> reads;

  /// Truncates the trace to events at or before time `t` (used to verify
  /// the prefix property of Algorithm 3's output).
  [[nodiscard]] Alg2Trace prefix_at(Time t) const;
};

/// The simulator build of Algorithm 2.
class SimAlg2Register {
 public:
  /// Adds `n` atomic base registers with ids first_base..first_base+n-1
  /// to `sched`.  `initial` is the implemented register's initial value.
  SimAlg2Register(sim::Scheduler& sched, int n, sim::RegId first_base,
                  Value initial);

  /// Algorithm 2's write, executed by `self` as writer slot `k`
  /// (0 <= k < n; each slot must be used by at most one process at a
  /// time — SWMR discipline of Val[k], asserted).
  sim::ValueTask<void> write(sim::Proc& self, int k, Value v);

  /// Algorithm 2's read.
  sim::ValueTask<Value> read(sim::Proc& self);

  /// The implemented register's high-level history (register id 0).
  [[nodiscard]] const history::History& hl_history() const {
    return recorder_.history();
  }

  /// The Algorithm 3 instrumentation trace.
  [[nodiscard]] const Alg2Trace& trace() const noexcept { return trace_; }

  [[nodiscard]] int n() const noexcept { return n_; }

 private:
  [[nodiscard]] sim::RegId base(int i) const noexcept {
    return first_base_ + i;
  }
  int add_tuple(Value v, VectorTs ts);

  sim::Scheduler& sched_;
  int n_;
  sim::RegId first_base_;
  history::Recorder recorder_;
  Alg2Trace trace_;
  /// Tuple table: base registers hold indices into this vector.
  std::vector<std::pair<Value, VectorTs>> tuples_;
  /// The tuple each Val[i] holds; only this wrapper writes them.
  std::vector<int> published_;
  std::vector<bool> writer_busy_;  ///< SWMR discipline check.
};

}  // namespace rlt::registers
