// One benchmark pass: run one workload once, in this process, on
// min(4, available CPUs) pool threads, through the engine entry point
// sweep_main uses, and describe what happened as one JSON object.
// run.py starts a fresh process per pass, so peak RSS and set-up time
// are the pass's own.
//
// An untraced pass times only the engine call.  A traced pass also
// records one span per public call the harness makes into a layer
// (enumeration, the engine, each store append, the explore search and
// replay calls), consumes the per-scenario spans the engine emits under
// obs::Hooks::trace_times, and derives the per-layer metrics from them.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace perfbench {

struct PassOptions {
  std::string workload;
  std::uint64_t seed = 0;  ///< Offsets the workload's seed range.
  bool trace = false;
  /// Stop just before the engine call (set-up time probes).
  bool setup_only = false;
  /// Where a traced pass writes its spans (JSONL); empty: nowhere.
  std::string trace_out;
};

/// Runs one pass; `process_start` is the earliest instant main() saw.
/// Throws std::invalid_argument for an unknown workload or a seed too
/// large to offset the workload's range.
[[nodiscard]] std::string run_pass(
    const PassOptions& o, std::chrono::steady_clock::time_point process_start);

}  // namespace perfbench
