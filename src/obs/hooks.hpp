// The observability configuration the CLI threads into the sweep
// engines (`run_sweep` / `run_term_sweep` / `run_explore`).  All fields
// default to "off"; a null Hooks pointer means no observability at all.
#pragma once

#include <cstdint>
#include <string>

namespace rlt::sweep {
class RecordSink;
}  // namespace rlt::sweep

namespace rlt::obs {

struct Hooks {
  /// Per-scenario trace spans, appended like store records: enumeration
  /// order, exactly once, one call at a time, possibly while later
  /// scenarios are still running.  Like the store, the trace's bytes are
  /// a pure function of the sweep options (asserted across `--threads`
  /// by tests).  Setting this enables the metrics registry for the run
  /// (spans carry per-scenario stable-counter deltas).
  sweep::RecordSink* trace = nullptr;

  /// Adds wall-clock fields (`wall_ns`, `check_ns`, and a closing fold
  /// span) to the trace.  Documented to break byte-identity: timings
  /// are measurements, not digest material.
  bool trace_times = false;

  /// fd for the machine-readable progress stream (obs/progress.hpp);
  /// -1 disables it.
  int progress_fd = -1;

  /// stderr heartbeat period in milliseconds; 0 disables it.
  std::uint64_t heartbeat_ms = 0;

  /// Directory for per-scenario forensics artifacts (obs/forensics.hpp);
  /// empty disables them, and capture with them.  One canonical-JSON file
  /// per non-ok scenario, written by the worker that ran it and named by
  /// global index, so the directory contents are byte-identical across
  /// --threads and shards of the same sweep tile the unsharded directory.
  std::string forensics_dir;

  [[nodiscard]] bool progress_on() const noexcept {
    return progress_fd >= 0 || heartbeat_ms > 0;
  }
  [[nodiscard]] bool forensics_on() const noexcept {
    return !forensics_dir.empty();
  }
};

}  // namespace rlt::obs
