#include "obs/progress.hpp"

#include <unistd.h>

#include <cinttypes>
#include <cstdio>

#include "sweep/store.hpp"

namespace rlt::obs {

namespace {

constexpr std::uint64_t kDefaultPeriodMs = 500;

}  // namespace

ProgressMeter::ProgressMeter(const ProgressOptions& o)
    : opts_(o),
      start_(Clock::now()),
      period_(std::chrono::milliseconds(
          o.heartbeat_ms > 0 ? o.heartbeat_ms : kDefaultPeriodMs)),
      due_(o.fd >= 0 || o.heartbeat_ms > 0 ? start_ + period_
                                           : Clock::time_point::max()) {}

void ProgressMeter::add(int cls) {
  if (cls >= 0 && cls < 4) ++class_counts_[static_cast<std::size_t>(cls)];
  ++done_;
  if (opts_.every > 0 && done_ % opts_.every == 0) {
    std::fprintf(stderr, "[%.*s] %" PRIu64 " scenarios done\n",
                 static_cast<int>(opts_.mode.size()), opts_.mode.data(),
                 done_);
  }
  poll();
}

void ProgressMeter::poll() {
  if (due_ == Clock::time_point::max()) return;
  const Clock::time_point now = Clock::now();
  if (now < due_) return;
  due_ = now + period_;
  emit(/*final=*/false);
}

void ProgressMeter::finish() {
  if (finished_) return;
  finished_ = true;
  if (opts_.fd >= 0 || opts_.heartbeat_ms > 0) emit(/*final=*/true);
}

void ProgressMeter::emit(bool final) {
  const std::uint64_t done = done_;
  const std::array<std::uint64_t, 4>& cls = class_counts_;
  const auto elapsed = Clock::now() - start_;
  const auto elapsed_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count());
  // Integer rate (scenarios/sec) and ETA — no floating point anywhere,
  // so consumers never see locale- or formatting-dependent bytes.
  const std::uint64_t rate =
      elapsed_ms > 0 ? done * 1000 / elapsed_ms : 0;
  const std::uint64_t remaining = opts_.total > done ? opts_.total - done : 0;
  const std::uint64_t eta_ms = done > 0 ? remaining * elapsed_ms / done : 0;

  if (opts_.fd >= 0) {
    sweep::Record r;
    r.str("obs", "progress")
        .str("mode", opts_.mode)
        .str("state", final ? "done" : "run")
        .u64("done", done)
        .u64("total", opts_.total)
        .u64("elapsed_ms", elapsed_ms)
        .u64("eta_ms", eta_ms)
        .u64("rate", rate);
    for (std::size_t i = 0; i < 4; ++i) r.u64(opts_.classes[i], cls[i]);
    const std::string line = r.json() + "\n";
    // One write per line: lines up to PIPE_BUF are atomic on pipes, so
    // a coordinator multiplexing several shards never sees torn lines.
    [[maybe_unused]] const auto n =
        ::write(opts_.fd, line.data(), line.size());
  }
  if (opts_.heartbeat_ms > 0) {
    const std::uint64_t pct = opts_.total > 0 ? done * 100 / opts_.total : 0;
    std::fprintf(stderr,
                 "[%.*s] %" PRIu64 "/%" PRIu64 " (%" PRIu64 "%%) %" PRIu64
                 "/s eta %" PRIu64 "s %.*s=%" PRIu64 " %.*s=%" PRIu64
                 " %.*s=%" PRIu64 " %.*s=%" PRIu64 "%s\n",
                 static_cast<int>(opts_.mode.size()), opts_.mode.data(), done,
                 opts_.total, pct, rate, (eta_ms + 999) / 1000,
                 static_cast<int>(opts_.classes[0].size()),
                 opts_.classes[0].data(), cls[0],
                 static_cast<int>(opts_.classes[1].size()),
                 opts_.classes[1].data(), cls[1],
                 static_cast<int>(opts_.classes[2].size()),
                 opts_.classes[2].data(), cls[2],
                 static_cast<int>(opts_.classes[3].size()),
                 opts_.classes[3].data(), cls[3], final ? " [done]" : "");
  }
}

}  // namespace rlt::obs
