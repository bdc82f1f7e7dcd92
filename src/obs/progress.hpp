// Live sweep progress: a stderr heartbeat for humans and a
// machine-readable JSONL stream on a caller-supplied fd for
// coordinators (`tools/sweep_shard.py` consumes it to report per-shard
// progress and flag stragglers).
//
// Workers call `tick(cls)` — one relaxed atomic increment — as each
// scenario completes; a monitor thread wakes on a period and emits.
// Progress is pure observability: it writes only to stderr / the given
// fd, never to stdout or the store, so every digest and store byte is
// untouched (asserted by tests).
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
// The final line carries "state":"done" and the exact final counts; a
// consumer that only reads the last line gets the truth.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

namespace rlt::obs {

struct ProgressOptions {
  std::uint64_t total = 0;            ///< scenarios this process will run
  std::string_view mode = "safety";   ///< "safety" / "term" / "explore"
  std::array<std::string_view, 4> classes{"ok", "viol", "blocked", "err"};
  int fd = -1;                        ///< JSONL stream fd; -1 = off
  std::uint64_t heartbeat_ms = 0;     ///< stderr heartbeat period; 0 = off
};

class ProgressMeter {
 public:
  explicit ProgressMeter(const ProgressOptions& o);
  ~ProgressMeter();  ///< calls finish()

  ProgressMeter(const ProgressMeter&) = delete;
  ProgressMeter& operator=(const ProgressMeter&) = delete;

  /// One scenario finished with outcome class `cls` (0..3).  Lock-free.
  void tick(int cls) noexcept;

  /// Emits the final "state":"done" line / heartbeat and joins the
  /// monitor thread.  Idempotent.
  void finish();

 private:
  void emit(bool final);
  void monitor_loop();

  ProgressOptions opts_;
  std::atomic<std::uint64_t> done_{0};
  std::array<std::atomic<std::uint64_t>, 4> class_counts_{};
  std::chrono::steady_clock::time_point start_;
  std::thread monitor_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool finished_ = false;
};

}  // namespace rlt::obs
