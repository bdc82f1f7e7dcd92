// The unified metrics registry: typed counters / gauges / histograms
// shared by every layer (checker, mp, sweep, term, explore).
//
// Design contract, mirroring the sweep's digest discipline:
//
//  * **Zero cost when off.**  Every hot-path site is one relaxed atomic
//    load and a predictable branch (`if (enabled())`).  Building with
//    -DRLT_OBS_OFF compiles the sites out entirely.
//  * **Thread-local shards, commutative folds.**  `count`/`gauge_max`/
//    `hist` touch only the calling thread's shard (a plain array
//    increment — no hashing, no locks).  `snapshot_all()` folds the
//    shards with sum (counters, histogram buckets) and max (gauges) —
//    all commutative and associative, so the folded totals of the
//    *stable* metrics are a pure function of the work done, independent
//    of `--threads` and scheduling, exactly like
//    `SweepFold`'s digest.
//  * **Stable vs runtime split.**  Metrics that count deterministic
//    per-scenario work (solver calls, prune hits, messages, …) are
//    flagged `stable`; metrics that measure the execution itself (claim
//    counts, claim latency, stamping) are not.  Thread-invariance tests and
//    `tools/metrics_report.py` diffs key on the stable section.
//  * **Observability, not digest material.**  Nothing here ever feeds a
//    digest or a store record's digested fields (the PR 7 precedent).
//
// Metric identifiers are closed enums: registration is a compile-time
// table, the hot path indexes an array, and dumps/spans render names in
// enum order — byte-stable output for free.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string_view>

namespace rlt::sweep {
class Record;
class RecordSink;
}  // namespace rlt::sweep

namespace rlt::obs {

enum class Counter : int {
  // Linearization solver (src/checker/lin_solver.cpp) internals.
  kCheckerSolverCalls,    // solver entries (solve, feasible)
  kCheckerDfsNodes,       // DFS states visited
  kCheckerMemoHits,       // seen-set hits (failed states)
  kCheckerPruneDoomed,    // doomed-state prune fired
  kCheckerPruneEagerRead, // eager-read dominance restriction applied
  kCheckerPruneAccept,    // accept-shortcut discharged a subtree
  // WSL tree checker (absorbed from WslCheckResult).
  kWslSolverCalls,
  kWslCacheHits,
  kWslCacheMisses,
  // Streaming online checker (absorbed from StreamingChecker accessors).
  kStreamEvents,
  // Message-passing fabric (mp/network, mp/abd) + per-op accounting.
  kNetMsgsSent,
  kNetBytesSent,
  kNetDelivered,
  kNetDropped,
  kNetDuplicated,
  kNetRetransmits,
  kAbdRoundTrips,  // phase broadcasts: initial phases + retransmissions
  // Engines.
  kSweepScenarios,
  kTermCoinFlips,
  kTermCapped,
  kExploreRuns,
  kExploreShrinkProbes,   // shrink candidates tested (replays + repeats)
  kExploreSteps,
  kExploreShrinkRepeats,  // shrink candidates answered without a replay
  kCheckerWitnessMisses,  // runs whose family witness did not certify
                          // them, so the searches ran (sweep/scenario.hpp)
  // Runtime (execution-dependent; excluded from stability assertions).
  kPoolTasks,     // claims the engine's workers ran
  kSweepStamped,  // scenarios stamped from their config's template
  kCount_,
};

enum class Gauge : int {
  // Max over all scenarios — commutative, hence thread-invariant.
  kStreamPeakLiveOps,
  kStreamPeakConfigs,  // most configurations one register held (online runs)
  // Runtime.
  kPoolThreads,
  kCount_,
};

enum class Hist : int {
  kScenarioOps,        // ops recorded per scenario
  kStreamPeakLive,     // per-scenario peak live ops (online runs)
  // Runtime.
  kPoolTaskNs,         // wall time per claim a worker ran
  kCount_,
};

inline constexpr int kNumCounters = static_cast<int>(Counter::kCount_);
inline constexpr int kNumGauges = static_cast<int>(Gauge::kCount_);
inline constexpr int kNumHists = static_cast<int>(Hist::kCount_);
/// Histogram buckets are power-of-two: value v lands in bucket
/// bit_width(v), i.e. bucket k counts values in [2^(k-1), 2^k).
inline constexpr int kHistBuckets = 65;

[[nodiscard]] std::string_view counter_name(Counter c) noexcept;
[[nodiscard]] bool counter_stable(Counter c) noexcept;
[[nodiscard]] std::string_view gauge_name(Gauge g) noexcept;
[[nodiscard]] bool gauge_stable(Gauge g) noexcept;
[[nodiscard]] std::string_view hist_name(Hist h) noexcept;
[[nodiscard]] bool hist_stable(Hist h) noexcept;

/// One thread's slice of the registry.  Owned by the global registry
/// (shards outlive their threads); written only by the owning thread.
struct Shard {
  std::array<std::uint64_t, kNumCounters> counters{};
  std::array<std::uint64_t, kNumGauges> gauges{};
  std::array<std::array<std::uint64_t, kHistBuckets>, kNumHists> hists{};
};

/// Just the counter slice — the cheap snapshot the trace path takes
/// around every scenario to compute per-scenario metric deltas.
struct CounterDelta {
  std::array<std::uint64_t, kNumCounters> v{};

  CounterDelta& operator-=(const CounterDelta& rhs) noexcept {
    for (int i = 0; i < kNumCounters; ++i) v[static_cast<std::size_t>(i)] -=
        rhs.v[static_cast<std::size_t>(i)];
    return *this;
  }
};

/// The counter and histogram slices of one thread's shard, taken before
/// and after a run to capture the run's work.  `add_work` adds the
/// stable part again for a run that is not re-run but copied (the
/// safety sweep's stamped scenarios), so the folded stable metrics are
/// the same as if it had run.  Gauges are maxima: a copy of a run moves
/// none of them, so they are not captured.
struct WorkDelta {
  CounterDelta counters;
  std::array<std::array<std::uint64_t, kHistBuckets>, kNumHists> hists{};

  WorkDelta& operator-=(const WorkDelta& rhs) noexcept {
    counters -= rhs.counters;
    for (std::size_t h = 0; h < hists.size(); ++h) {
      for (std::size_t b = 0; b < hists[h].size(); ++b) {
        hists[h][b] -= rhs.hists[h][b];
      }
    }
    return *this;
  }
};

/// A folded view of every shard (or a copy of one shard).
struct Snapshot {
  Shard data;
};

#ifdef RLT_OBS_OFF

inline constexpr bool kCompiledIn = false;
inline bool enabled() noexcept { return false; }
inline void set_enabled(bool) noexcept {}
inline void reset() noexcept {}
inline void count(Counter, std::uint64_t = 1) noexcept {}
inline void gauge_max(Gauge, std::uint64_t) noexcept {}
inline void hist(Hist, std::uint64_t) noexcept {}
inline CounterDelta thread_counters() noexcept { return {}; }
inline WorkDelta thread_work() noexcept { return {}; }
inline void add_work(const WorkDelta&) noexcept {}
inline Snapshot snapshot_all() { return {}; }

#else  // RLT_OBS_OFF

inline constexpr bool kCompiledIn = true;

namespace detail {
extern std::atomic<bool> g_enabled;
extern thread_local Shard* t_shard;
/// Registers (and returns) this thread's shard; out-of-line slow path.
Shard& acquire_shard();
inline Shard& local_shard() {
  Shard* s = t_shard;
  return s != nullptr ? *s : acquire_shard();
}
}  // namespace detail

/// The global gate.  Off (the default) keeps every instrumentation site
/// to a relaxed load + untaken branch.
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on) noexcept;

/// Zeroes every shard.  Call between runs whose metrics must not mix
/// (tests); `sweep_main` runs one sweep per process and never resets.
void reset() noexcept;

inline void count(Counter c, std::uint64_t n = 1) noexcept {
  if (!enabled()) return;
  detail::local_shard().counters[static_cast<std::size_t>(c)] += n;
}

inline void gauge_max(Gauge g, std::uint64_t v) noexcept {
  if (!enabled()) return;
  std::uint64_t& cur = detail::local_shard().gauges[static_cast<std::size_t>(g)];
  if (v > cur) cur = v;
}

inline void hist(Hist h, std::uint64_t v) noexcept {
  if (!enabled()) return;
  detail::local_shard()
      .hists[static_cast<std::size_t>(h)][static_cast<std::size_t>(
          std::bit_width(v))] += 1;
}

/// Copy of the calling thread's counter slice (for before/after deltas
/// around one scenario — scenarios run wholly on one worker thread).
[[nodiscard]] CounterDelta thread_counters() noexcept;

/// Copy of the calling thread's counter and histogram slices (for
/// before/after deltas like thread_counters).
[[nodiscard]] WorkDelta thread_work() noexcept;

/// Adds the stable counters and histogram buckets of `d` to the calling
/// thread's shard; runtime metrics in `d` are skipped.  No-op while the
/// registry is off.
void add_work(const WorkDelta& d) noexcept;

/// Folds every shard: counters and histogram buckets sum, gauges max.
[[nodiscard]] Snapshot snapshot_all();

#endif  // RLT_OBS_OFF

/// Dumps a snapshot as canonical JSONL records (one metric per line):
///   {"obs":"meta","version":1,"mode":"safety","config":"…"}
///   {"obs":"counter","name":"checker.solver_calls","value":N,"stable":true}
///   {"obs":"gauge","name":"stream.peak_live_ops","value":N,"stable":true}
///   {"obs":"hist","name":"sweep.scenario_ops","stable":true,"b3":N,…}
/// Counters and gauges are emitted exhaustively (zeros included) in enum
/// order so two dumps of the same workload are byte-comparable;
/// histogram lines carry only non-zero buckets.  The stable section of a
/// dump is thread-invariant; `"stable":false` lines are not.
void dump(const Snapshot& snap, sweep::RecordSink& sink,
          std::string_view mode, std::string_view config);

/// Appends every non-zero *stable* counter of `d` to `rec` as
/// "name":value fields in enum order — the per-scenario metric payload
/// of a trace span.  Runtime counters are skipped (their deltas depend
/// on scheduling), so span bytes stay thread-invariant.
void append_stable_deltas(const CounterDelta& d, sweep::Record& rec);

}  // namespace rlt::obs
