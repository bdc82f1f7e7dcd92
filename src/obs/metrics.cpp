#include "obs/metrics.hpp"

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sweep/store.hpp"
#include "util/assert.hpp"

namespace rlt::obs {

namespace {

struct MetricInfo {
  std::string_view name;
  bool stable;
};

constexpr std::array<MetricInfo, kNumCounters> kCounterInfo{{
    {"checker.solver_calls", true},
    {"checker.dfs_nodes", true},
    {"checker.memo_hits", true},
    {"checker.prune_doomed", true},
    {"checker.prune_eager_read", true},
    {"checker.prune_accept", true},
    {"wsl.solver_calls", true},
    {"wsl.cache_hits", true},
    {"wsl.cache_misses", true},
    {"stream.events", true},
    {"net.msgs_sent", true},
    {"net.bytes_sent", true},
    {"net.delivered", true},
    {"net.dropped", true},
    {"net.duplicated", true},
    {"net.retransmits", true},
    {"abd.round_trips", true},
    {"sweep.scenarios", true},
    {"term.coin_flips", true},
    {"term.capped", true},
    {"explore.runs", true},
    {"explore.shrink_probes", true},
    {"explore.steps", true},
    {"explore.shrink_repeats", true},
    {"checker.witness_misses", true},
    {"pool.tasks", false},
    {"sweep.stamped", false},
}};

constexpr std::array<MetricInfo, kNumGauges> kGaugeInfo{{
    {"stream.peak_live_ops", true},
    {"stream.peak_configs", true},
    {"pool.threads", false},
}};

constexpr std::array<MetricInfo, kNumHists> kHistInfo{{
    {"sweep.scenario_ops", true},
    {"stream.peak_live", true},
    {"pool.task_ns", false},
}};

}  // namespace

std::string_view counter_name(Counter c) noexcept {
  return kCounterInfo[static_cast<std::size_t>(c)].name;
}
bool counter_stable(Counter c) noexcept {
  return kCounterInfo[static_cast<std::size_t>(c)].stable;
}
std::string_view gauge_name(Gauge g) noexcept {
  return kGaugeInfo[static_cast<std::size_t>(g)].name;
}
bool gauge_stable(Gauge g) noexcept {
  return kGaugeInfo[static_cast<std::size_t>(g)].stable;
}
std::string_view hist_name(Hist h) noexcept {
  return kHistInfo[static_cast<std::size_t>(h)].name;
}
bool hist_stable(Hist h) noexcept {
  return kHistInfo[static_cast<std::size_t>(h)].stable;
}

#ifndef RLT_OBS_OFF

namespace detail {

std::atomic<bool> g_enabled{false};
thread_local Shard* t_shard = nullptr;

namespace {
// The registry owns the shards so their data survives thread exit (the
// engine's workers die when a sweep returns; dumps read their shards after).
std::mutex g_mutex;
std::vector<std::unique_ptr<Shard>>& shard_list() {
  static std::vector<std::unique_ptr<Shard>> shards;
  return shards;
}
}  // namespace

Shard& acquire_shard() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  shard_list().push_back(std::make_unique<Shard>());
  t_shard = shard_list().back().get();
  return *t_shard;
}

}  // namespace detail

void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void reset() noexcept {
  const std::lock_guard<std::mutex> lock(detail::g_mutex);
  for (auto& shard : detail::shard_list()) *shard = Shard{};
}

CounterDelta thread_counters() noexcept {
  CounterDelta out;
  out.v = detail::local_shard().counters;
  return out;
}

WorkDelta thread_work() noexcept {
  const Shard& shard = detail::local_shard();
  WorkDelta out;
  out.counters.v = shard.counters;
  out.hists = shard.hists;
  return out;
}

void add_work(const WorkDelta& d) noexcept {
  if (!enabled()) return;
  Shard& shard = detail::local_shard();
  for (int i = 0; i < kNumCounters; ++i) {
    if (!counter_stable(static_cast<Counter>(i))) continue;
    shard.counters[static_cast<std::size_t>(i)] +=
        d.counters.v[static_cast<std::size_t>(i)];
  }
  for (int i = 0; i < kNumHists; ++i) {
    if (!hist_stable(static_cast<Hist>(i))) continue;
    for (int b = 0; b < kHistBuckets; ++b) {
      shard.hists[static_cast<std::size_t>(i)][static_cast<std::size_t>(b)] +=
          d.hists[static_cast<std::size_t>(i)][static_cast<std::size_t>(b)];
    }
  }
}

Snapshot snapshot_all() {
  Snapshot out;
  const std::lock_guard<std::mutex> lock(detail::g_mutex);
  for (const auto& shard : detail::shard_list()) {
    for (int i = 0; i < kNumCounters; ++i) {
      out.data.counters[static_cast<std::size_t>(i)] +=
          shard->counters[static_cast<std::size_t>(i)];
    }
    for (int i = 0; i < kNumGauges; ++i) {
      const std::uint64_t v = shard->gauges[static_cast<std::size_t>(i)];
      std::uint64_t& cur = out.data.gauges[static_cast<std::size_t>(i)];
      if (v > cur) cur = v;
    }
    for (int i = 0; i < kNumHists; ++i) {
      for (int b = 0; b < kHistBuckets; ++b) {
        out.data.hists[static_cast<std::size_t>(i)][static_cast<std::size_t>(
            b)] += shard->hists[static_cast<std::size_t>(i)]
                             [static_cast<std::size_t>(b)];
      }
    }
  }
  return out;
}

#endif  // RLT_OBS_OFF

void dump(const Snapshot& snap, sweep::RecordSink& sink,
          std::string_view mode, std::string_view config) {
  {
    sweep::Record meta;
    meta.str("obs", "meta").u64("version", 1).str("mode", mode);
    if (!config.empty()) meta.str("config", config);
    sink.append(meta);
  }
  for (int i = 0; i < kNumCounters; ++i) {
    const auto c = static_cast<Counter>(i);
    sweep::Record r;
    r.str("obs", "counter")
        .str("name", counter_name(c))
        .u64("value", snap.data.counters[static_cast<std::size_t>(i)])
        .boolean("stable", counter_stable(c));
    sink.append(r);
  }
  for (int i = 0; i < kNumGauges; ++i) {
    const auto g = static_cast<Gauge>(i);
    sweep::Record r;
    r.str("obs", "gauge")
        .str("name", gauge_name(g))
        .u64("value", snap.data.gauges[static_cast<std::size_t>(i)])
        .boolean("stable", gauge_stable(g));
    sink.append(r);
  }
  for (int i = 0; i < kNumHists; ++i) {
    const auto h = static_cast<Hist>(i);
    sweep::Record r;
    r.str("obs", "hist")
        .str("name", hist_name(h))
        .boolean("stable", hist_stable(h));
    for (int b = 0; b < kHistBuckets; ++b) {
      const std::uint64_t n =
          snap.data.hists[static_cast<std::size_t>(i)][static_cast<std::size_t>(
              b)];
      if (n != 0) r.u64("b" + std::to_string(b), n);
    }
    sink.append(r);
  }
}

void append_stable_deltas(const CounterDelta& d, sweep::Record& rec) {
  for (int i = 0; i < kNumCounters; ++i) {
    const auto c = static_cast<Counter>(i);
    if (!counter_stable(c)) continue;
    const std::uint64_t v = d.v[static_cast<std::size_t>(i)];
    if (v != 0) rec.u64(counter_name(c), v);
  }
}

}  // namespace rlt::obs
