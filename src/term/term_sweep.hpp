// The termination-statistics sweep: grind the cross-product
//
//   algorithm family × adversary × process count × round budget × seed
//
// through `run_term_scenario` on the streaming engine the safety sweep
// uses (sweep/engine.hpp), and fold the per-scenario TermRecords into a
// *stable aggregate*: termination rate, round statistics, a survival tail
// P(round > k), and a 64-bit digest that — like the safety digest — is a
// pure function of the sweep options, independent of thread count and
// machine.  Optionally streams one canonical record per
// scenario into a result store (src/sweep/store.hpp) for cross-commit
// diffing with tools/sweep_diff.py.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sweep/engine.hpp"
#include "sweep/shard.hpp"
#include "sweep/store.hpp"
#include "term/term_scenario.hpp"

namespace rlt::term {

/// The cross-product to sweep plus execution knobs.
struct TermSweepOptions {
  std::vector<Family> families = {Family::kConsensus, Family::kComposed,
                                  Family::kSharedCoin, Family::kGame};
  /// Invalid (family, adversary) pairs — scripted × consensus/coin — are
  /// skipped by enumeration, not errored.
  std::vector<TermAdversary> adversaries = {TermAdversary::kScripted,
                                            TermAdversary::kRandom,
                                            TermAdversary::kStalling};
  std::vector<int> process_counts = {4};
  std::vector<int> round_budgets = {64};
  std::uint64_t seed_begin = 0;  ///< Inclusive.
  std::uint64_t seed_end = 10;   ///< Exclusive.
  std::uint64_t max_actions_per_scenario = 2'000'000;
  int threads = 1;
  /// Which slice of the cross-product this process runs (see
  /// sweep/shard.hpp); an execution knob, not config.
  sweep::ShardSpec shard;
};

/// The canonical config identity of a termination sweep (axes only, no
/// execution knobs) — pinned in shard-store headers and checked by the
/// merge.
[[nodiscard]] std::string config_key(const TermSweepOptions& o);

/// This shard's slice plus the bookkeeping the store and merge need
/// (see sweep::Enumeration for the contract).
struct TermEnumeration {
  std::uint64_t total = 0;
  std::vector<std::uint64_t> global_indices;
  std::vector<TermScenario> scenarios;
};

/// Materializes this shard's slice of the cross-product by draining the
/// cursor run_term_sweep streams (seeds outermost; round robin spreads
/// every config across shards).  Deterministic order; the digest and the
/// result store fold in this order.  Capped per shard.
[[nodiscard]] TermEnumeration enumerate_term_shard(const TermSweepOptions& o);

/// The owned scenarios alone; the full cross-product under the default
/// shard.
[[nodiscard]] std::vector<TermScenario> enumerate_term_scenarios(
    const TermSweepOptions& o);

/// One survival-tail point: how many runs outlasted `k` rounds (capped
/// runs count — they outlast every budgeted k, which is exactly the
/// Theorem 6 signature).
struct TailPoint {
  int k = 0;
  std::uint64_t over = 0;
};

/// Per-family decision-round histogram: `buckets[r]` counts terminated
/// scenarios of `family` whose decision round was r (index 0 exists for
/// the coin family, whose stalled runs can decide at walk length 0);
/// capped runs have no decision round and are counted separately.
/// Folded in enumeration order, so — like everything in the summary —
/// byte-stable across thread counts.
struct FamilyRoundHist {
  Family family = Family::kConsensus;
  std::vector<std::uint64_t> buckets;
  std::uint64_t terminated = 0;  ///< Sum of buckets.
  std::uint64_t capped = 0;      ///< Runs with no decision round.
};

/// Aggregated outcome of a termination sweep.
struct TermSummary {
  std::uint64_t scenarios = 0;
  std::uint64_t terminated = 0;  ///< Every live process completed.
  std::uint64_t capped = 0;      ///< Round/action budget exhausted.
  std::uint64_t safety_violations = 0;  ///< Agreement/validity broke.
  std::uint64_t errors = 0;
  std::uint64_t total_steps = 0;
  std::uint64_t total_coin_flips = 0;
  std::uint64_t rounds_sum = 0;  ///< Over terminated runs.
  int round_max = 0;             ///< Largest termination round observed.
  /// Survival tail at k = 1, 2, 4, 8, … (≤ round_max, at least k=1 when
  /// any run terminated or capped).
  std::vector<TailPoint> tail;
  /// Decision-round histograms, one per family present in the sweep
  /// (Family enum order).  Also emitted into the result store as one
  /// "term-hist/<family>" record per family, after the scenario records.
  std::vector<FamilyRoundHist> hists;
  /// Stable digest over every record in enumeration order.
  std::uint64_t digest = 0;
  sweep::EngineStats engine;  ///< Measured, NOT digest material.
  /// key + detail of the first few error / safety-violation scenarios
  /// (capped runs are an expected outcome class and are not listed).
  std::vector<std::string> failures;
  std::uint64_t failures_truncated = 0;

  /// The deterministic section, one line per field, byte-identical
  /// across runs with equal options (timing fields absent).  Rates are
  /// rendered with integer arithmetic so the bytes never depend on
  /// floating-point formatting.
  [[nodiscard]] std::string stable_text() const;

  /// The exit rule: a termination sweep fails on broken safety or
  /// errors.  Capped runs are Theorem 6 doing its job.
  [[nodiscard]] bool failed() const {
    return safety_violations != 0 || errors != 0;
  }
};

/// The deterministic half of the termination aggregate as a composable
/// fold (the sweep::SweepFold counterpart): feed it every scenario's
/// TermRecord in global enumeration order — live from the pool, or read
/// back from the store records the sweep wrote — and it reproduces the
/// counters, histograms, survival tail, digest, and truncation marker of
/// an unsharded run.  Wall-clock fields on the incoming TermRecord are
/// ignored.
class TermFold {
 public:
  static constexpr std::size_t kMaxReportedFailures = 16;

  TermFold();

  void add(const std::string& key, Family family, const TermRecord& r);

  /// Reads back one scenario record as run_term_sweep wrote it (the
  /// family is the key's second segment) and adds it.  False, adding
  /// nothing, unless it renders back to its bytes.
  [[nodiscard]] bool add_record(const std::string& line);

  /// The folded summary (`engine` stats zero).  Materializes the
  /// per-family histograms in Family enum order and computes the
  /// survival tail from them; when `sink` is non-null, also appends one
  /// canonical "term-hist/<family>" record per family present.  In a
  /// sharded store these are the shard's PARTIAL histograms (useful for
  /// eyeballing a slice); the merge recomputes the global ones from the
  /// scenario records and drops these.
  [[nodiscard]] TermSummary finish(sweep::RecordSink* sink);

 private:
  TermSummary sum_;
  std::uint64_t never_terminated_ = 0;  ///< Capped-without-terminating.
  std::vector<FamilyRoundHist> hist_by_family_;
  std::vector<bool> family_present_;
};

/// Runs the sweep on `o.threads` worker threads.  `progress_every` > 0
/// prints a line to stderr every that-many folded scenarios.  When
/// `sink` is non-null, one canonical record per scenario is appended in
/// enumeration order, exactly once, one call at a time — possibly while
/// later scenarios are still running (byte-stable across thread
/// counts).  `hooks` (obs/hooks.hpp) attaches the observability fabric —
/// trace spans and/or live progress; never digest material (see
/// sweep::run_sweep for the contract).
[[nodiscard]] TermSummary run_term_sweep(const TermSweepOptions& o,
                                         std::uint64_t progress_every = 0,
                                         sweep::RecordSink* sink = nullptr,
                                         const obs::Hooks* hooks = nullptr);

}  // namespace rlt::term
