// Live sweep progress: `--progress N` count lines and a stderr heartbeat
// for humans, and a machine-readable JSONL stream on a caller-supplied fd
// for coordinators (`tools/sweep_shard.py` consumes it to report per-shard
// progress and flag stragglers).
//
// The engine's in-order fold drives one meter on the calling thread: it
// calls `add(cls)` as it folds each scenario, `poll()` when a timed wait
// for the head runs out, and `finish()` once the sweep has completed.  So
// every line counts folded scenarios — the ones the store already holds —
// and lines come whole and in order.  Progress is pure observability: it
// writes only to stderr / the given fd, never to stdout or the store, so
// every digest and store byte is untouched (asserted by tests).
//
// The fd protocol is one JSON object per line, integers only:
//
//   {"obs":"progress","mode":"safety","state":"run","done":D,"total":T,
//    "elapsed_ms":E,"eta_ms":X,"rate":R,"ok":a,"viol":b,"blocked":c,
//    "err":d}
//
// The four class keys are mode-specific labels supplied by the engine
// (safety: ok/viol/blocked/err; term: term/capped/other/err; explore:
// clean/found/other/err — not "done", which is the count's own key).
// Only a completed sweep writes the final line, which carries
// "state":"done" and the exact final counts (done == total); a consumer
// that only reads the last line gets the truth, and a sweep that threw
// never claims to be done.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string_view>

namespace rlt::obs {

struct ProgressOptions {
  std::uint64_t total = 0;            ///< scenarios this process will run
  std::string_view mode = "safety";   ///< "safety" / "term" / "explore"
  std::array<std::string_view, 4> classes{"ok", "viol", "blocked", "err"};
  int fd = -1;                        ///< JSONL stream fd; -1 = off
  std::uint64_t heartbeat_ms = 0;     ///< stderr heartbeat period; 0 = off
  std::uint64_t every = 0;            ///< count-line period; 0 = off
};

class ProgressMeter {
 public:
  using Clock = std::chrono::steady_clock;

  explicit ProgressMeter(const ProgressOptions& o);

  ProgressMeter(const ProgressMeter&) = delete;
  ProgressMeter& operator=(const ProgressMeter&) = delete;

  /// One scenario folded with outcome class `cls` (0..3): prints the
  /// `[mode] N scenarios done` line every `every` scenarios, then polls.
  void add(int cls);

  /// Emits the periodic fd / heartbeat lines once their period has
  /// passed since the last ones.
  void poll();

  /// When poll() emits next; Clock::time_point::max() while neither the
  /// fd stream nor the heartbeat is on.
  [[nodiscard]] Clock::time_point due() const noexcept { return due_; }

  /// Emits the final "state":"done" line / heartbeat.  Idempotent.
  void finish();

 private:
  void emit(bool final);

  ProgressOptions opts_;
  std::uint64_t done_ = 0;
  std::array<std::uint64_t, 4> class_counts_{};
  Clock::time_point start_;
  Clock::duration period_;
  Clock::time_point due_;
  bool finished_ = false;
};

}  // namespace rlt::obs
