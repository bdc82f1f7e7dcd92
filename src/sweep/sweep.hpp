// The scenario-sweep engine: grind the cross-product
//
//   register semantics × algorithm × adversary × process count ×
//   crash-fault plan × seed
//
// through `run_scenario` on the shared streaming engine (engine.hpp),
// validate every recorded history, and fold the results into a *stable
// digest*: a 64-bit fingerprint that is a pure function of the sweep
// options — independent of thread count, scheduling, and machine —
// because every per-scenario fingerprint is deterministic and the fold
// happens in scenario-index order.  Two runs with the same options must
// print the same digest; a digest change means behaviour changed
// somewhere in the simulator, a register algorithm, or a checker.
//
// This is the repo's scenario-diversity workhorse: later PRs point it at
// bigger cross-products (sharded across machines) and diff digests
// across commits.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sweep/engine.hpp"
#include "sweep/scenario.hpp"
#include "sweep/shard.hpp"
#include "sweep/store.hpp"

namespace rlt::sweep {

/// The cross-product to sweep plus execution knobs.
struct SweepOptions {
  std::vector<Algorithm> algorithms = {Algorithm::kModeled, Algorithm::kAlg2,
                                       Algorithm::kAlg4, Algorithm::kAbd};
  /// Semantics axis; applies to Algorithm::kModeled scenarios only
  /// (implemented registers fix their own base semantics).
  std::vector<sim::Semantics> semantics = {sim::Semantics::kAtomic,
                                           sim::Semantics::kLinearizable,
                                           sim::Semantics::kWriteStrong};
  std::vector<AdversaryKind> adversaries = {AdversaryKind::kRandom,
                                            AdversaryKind::kRoundRobin};
  /// Fault axis.  Each kind multiplies only the families it applies to
  /// (kStall: the simulator families; every other faulty kind: ABD —
  /// see fault_applies); a family with no applicable faulty kind in
  /// this list is emitted once, fault-free, whatever the list says.
  std::vector<FaultKind> faults = {FaultKind::kNone};
  /// Fault-schedule seeds swept per faulty scenario (ignored for kNone,
  /// which needs no schedule).
  std::vector<std::uint64_t> crash_seeds = {0};
  /// Per-message drop probability for kLossy plans, in permille
  /// (1..999; part of every lossy scenario key).  CLI: --drop-prob.
  std::uint32_t drop_permille = 100;
  std::vector<int> process_counts = {3};
  std::uint64_t seed_begin = 0;  ///< Inclusive.
  std::uint64_t seed_end = 10;   ///< Exclusive.
  int writes_per_process = 2;
  std::uint64_t max_actions_per_scenario = 1'000'000;
  int threads = 1;
  /// Streaming cross-check: every checkable history is also replayed
  /// through the online checker, and any batch/online split reports as
  /// an ERROR.  Excluded from scenario keys — an agreeing --online sweep
  /// produces records byte-identical to an offline one.
  bool online = false;
  /// Which slice of the cross-product this process runs (see shard.hpp).
  /// The default (1/1) is the classic unsharded sweep.  An execution
  /// knob, not config: every shard of one logical sweep shares the same
  /// config_key, and `shards + merge ≡ unsharded` byte-for-byte.
  ShardSpec shard;
};

/// The canonical config identity of a sweep: every axis that determines
/// what the sweep computes (algorithms, semantics, adversaries, faults,
/// seeds, workload shape), NONE of the knobs that only determine how it
/// executes (threads, shard, online).  Every shard-store header
/// pins it, and the merge refuses shards whose configs differ.
[[nodiscard]] std::string config_key(const SweepOptions& o);

/// What enumeration yields under a shard: the owned scenarios plus the
/// bookkeeping the store and the merge need.  `global_indices[i]` is the
/// position scenarios[i] holds in the FULL cross-product — a pure
/// function of the options, independent of shard count, which is what
/// lets the merge reconstitute enumeration order mechanically.
struct Enumeration {
  std::uint64_t total = 0;  ///< Full cross-product size (all shards).
  std::vector<std::uint64_t> global_indices;
  std::vector<Scenario> scenarios;
};

/// Materializes this shard's slice of the cross-product by draining the
/// cursor run_sweep streams (seeds outermost, so consecutive scenarios
/// cover different configs and round-robin sharding spreads every config
/// across all shards).  Order is deterministic; the digest folds in this
/// order.  Memory scales with the owned share, so materialization is
/// capped per shard; run_sweep itself streams and has no cap.
[[nodiscard]] Enumeration enumerate_shard(const SweepOptions& o);

/// The owned scenarios alone (enumerate_shard without the bookkeeping);
/// the full cross-product under the default shard.
[[nodiscard]] std::vector<Scenario> enumerate_scenarios(const SweepOptions& o);

/// Aggregated outcome of a sweep.
struct SweepSummary {
  std::uint64_t scenarios = 0;
  std::uint64_t ok = 0;
  std::uint64_t violations = 0;
  /// Runs that went quiescent with pending ops stranded by crashes —
  /// the expected outcome class of the crash axis, counted separately
  /// so it is never conflated with violations or errors.
  std::uint64_t blocked = 0;
  std::uint64_t errors = 0;
  std::uint64_t total_steps = 0;  ///< Sum of adversary actions/deliveries.
  std::uint64_t total_ops = 0;    ///< Sum of completed high-level ops.
  /// Stable digest over (key, verdict, steps, ops, history_hash) of every
  /// scenario in enumeration order.  Excludes all wall-clock fields.
  std::uint64_t digest = 0;
  EngineStats engine;  ///< Measured, NOT digest material.
  /// key + detail for the first few non-ok scenarios, enumeration order.
  std::vector<std::string> failures;
  /// Non-ok scenarios beyond the reporting cap.  stable_text() renders
  /// this as a deterministic "... and N more" marker so truncation is
  /// never silent (blocked/violating counts stay honest).
  std::uint64_t failures_truncated = 0;

  /// The deterministic part, one line per field, byte-identical across
  /// runs with equal options.  (Timing fields are deliberately absent.)
  [[nodiscard]] std::string stable_text() const;

  /// The exit rule: a sweep fails on violations or errors.  Blocked runs
  /// are the fault axes doing their job (their histories were still
  /// checked clean up to the block).
  [[nodiscard]] bool failed() const { return violations != 0 || errors != 0; }
};

/// The deterministic half of the sweep aggregate as a composable fold:
/// feed it every scenario's result in global enumeration order — live
/// from the pool, or read back from the store records the sweep wrote —
/// and it produces the same counters, digest, failure list, and
/// truncation marker either way.  run_sweep and merge_shard_stores
/// share this object, which is what makes `shards + merge ≡ unsharded`
/// an identity instead of a convention.
class SweepFold {
 public:
  /// Failure lines kept verbatim; the rest fold into failures_truncated.
  /// The cap applies to the GLOBAL fold — each shard reports its own
  /// partial list, and the merge re-truncates in global order.
  static constexpr std::size_t kMaxReportedFailures = 16;

  SweepFold();

  void add(const std::string& key, const ScenarioResult& r);

  /// Reads back one scenario record as run_sweep wrote it and adds it.
  /// False, adding nothing, unless it renders back to its bytes.
  [[nodiscard]] bool add_record(const std::string& line);

  /// The folded summary; its `engine` stats are zero (the engine fills
  /// them in).  A safety store ends with its last scenario record, so
  /// nothing is appended to `sink`.
  [[nodiscard]] SweepSummary finish(RecordSink* sink);

 private:
  SweepSummary sum_;
};

/// Runs the sweep on `o.threads` worker threads.  `progress_every` > 0
/// prints a line to stderr every that-many folded scenarios.  When
/// `sink` is non-null, one canonical record per scenario is appended in
/// enumeration order, exactly once, one call at a time — possibly while
/// later scenarios are still running — so the store's bytes, like the
/// digest, are independent of thread count.  Memory is bounded by the
/// engine's reorder window, not by the scenario count.
///
/// `hooks` (obs/hooks.hpp) attaches the observability fabric: a trace
/// sink receiving one span record per scenario (enumeration order,
/// byte-stable across threads unless `trace_times` opts into wall-clock
/// fields), a live ProgressMeter (stderr heartbeat + progress fd),
/// and/or a forensics directory, which turns on capture
/// (Scenario::forensics) and receives one artifact per non-ok scenario.
/// All of it is observability, never digest material: the summary,
/// digest, and store bytes are identical with or without hooks.
[[nodiscard]] SweepSummary run_sweep(const SweepOptions& o,
                                     std::uint64_t progress_every = 0,
                                     RecordSink* sink = nullptr,
                                     const obs::Hooks* hooks = nullptr);

}  // namespace rlt::sweep
