// Experiment P7 — observability fabric overhead.
//
// The fabric's zero-cost-when-off contract, measured per site: an
// off-gate instrumentation site must cost one relaxed load and an
// untaken branch, an on-gate counter a thread-local array increment.
// The whole-sweep figure is tools/obs_gate.py's (instrumented within 5%
// of plain, in CI) and perfbench's obs.trace_overhead_share.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "obs/metrics.hpp"

namespace {

using namespace rlt;

/// The hot-path cost with the gate off — the price every layer pays on
/// every already-shipped code path when nobody asked for metrics.
void BM_CounterGateOff(benchmark::State& state) {
  obs::set_enabled(false);
  for (auto _ : state) {
    obs::count(obs::Counter::kCheckerDfsNodes);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterGateOff);

/// The same site with the gate on: relaxed load + thread-local shard
/// increment, still lock-free and allocation-free.
void BM_CounterGateOn(benchmark::State& state) {
  obs::set_enabled(true);
  obs::reset();
  for (auto _ : state) {
    obs::count(obs::Counter::kCheckerDfsNodes);
  }
  obs::set_enabled(false);
  obs::reset();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterGateOn);

/// Histogram insert (bit_width bucketing) with the gate on.
void BM_HistGateOn(benchmark::State& state) {
  obs::set_enabled(true);
  obs::reset();
  std::uint64_t v = 1;
  for (auto _ : state) {
    obs::hist(obs::Hist::kScenarioOps, v);
    v = v * 2862933555777941757ULL + 3037000493ULL;  // cheap LCG spread
  }
  obs::set_enabled(false);
  obs::reset();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistGateOn);

}  // namespace

BENCHMARK_MAIN();
