// One sweep scenario: a fully determined point in the cross-product
//
//   register semantics × algorithm × process count × adversary × fault
//   plan × seed
//
// explored by the sweep engine (src/sweep/sweep.hpp).  Each scenario is
// an independent deterministic simulation: build the system, drive it
// with a seeded adversary, record the high-level history, and validate
// it with the checker the scenario's semantics call for.  Re-running a
// scenario with the same config yields the identical history and
// therefore the identical `ScenarioResult` fingerprint — the property
// the sweep digest rests on.
//
// Scenario families (the `Algorithm` axis):
//
//  * kModeled — processes operate directly on one *modeled* register
//    (sim/regmodel.hpp); the `semantics` axis selects atomic /
//    linearizable / write strongly-linearizable behaviour.  An atomic op
//    completes within its invoking step, so op-id order is the atomic
//    model's witness; the WSL model's commit log, checked by
//    `checker::check_commit_order`, is the WSL model's.  The
//    linearizable model has none.
//  * kAlg2 — the paper's Algorithm 2 (vector-timestamp WSL MWMR register
//    from atomic SWMR bases): write strongly-linearizable (Theorem 10),
//    with Algorithm 3 as the witness (registers::check_alg3_wsl).
//  * kAlg4 — Algorithm 4 (Lamport-clock register): linearizable
//    (Theorem 12) but not WSL as a set of runs (Theorem 13); the
//    ⟨sq, pid⟩ tag order is the witness (checker::check_tag_order).
//  * kAbd — the ABD message-passing register driven by a seeded delivery
//    schedule: write strongly-linearizable by Theorem 14.  The writer's
//    timestamps order the writes (tag order again), and the writer is
//    sequential, so the witness's write subsequence on every prefix is a
//    prefix of the whole run's: the restriction argument of
//    registers/alg3_linearizer.hpp gives WSL.  The no-write-back
//    ablation has no witness: it exists to plant violations, which the
//    search explains.
//
// One run is write strongly-linearizable iff it is linearizable, so each
// run is checked linearizable whatever its semantics promise; Definition
// 4 bites only on sets of runs (Theorem 13, checker/wsl_checker.hpp).
// Let L be a linearization of H; it may include pending writes and never
// includes pending reads.  For each event-prefix G of H let f(G) be the
// shortest prefix of L that holds every op completed in G, minus the
// reads still pending in G.  Then f is a write strong-linearization of
// H's prefixes:
//  * every op of f(G) was invoked in G: it sits at or before some op
//    completed in G, and L respects real-time order;
//  * dropping reads keeps f(G) legal, and f(G) holds every op completed
//    in G;
//  * prefixes of L nest, so the writes of f(G) are a prefix of the
//    writes of f(G') for every longer prefix G'.
// What a family's witness adds is a per-run check of the register's own
// linearization function, not the mere existence of one, so it can miss
// where the search passes (`checker.witness_misses` counts that):
// Algorithm 3 without its infinite initial entries misses on some alg2
// runs the search accepts.
//
// Witness first: each family above with a witness checks it first, and
// `check_linearizable` runs only when it misses (classify_run).  A
// witness can only accept, by building an order that
// `checker::is_legal_sequential` validates, so every verdict and detail
// string is what the search alone would give.
//
// The fault axis (`FaultPlan`).  kMinorityCrash applies to kAbd: the
// paper's termination results live in the regime where a minority of
// nodes may crash, so the sweep can seed minority-crash schedules and
// classify runs that can no longer finish as Verdict::kBlocked —
// distinct from both kViolation (a checker rejected the history) and
// kError (the run machinery itself failed).  kStall applies to the
// simulator families (kModeled/kAlg2/kAlg4): a seeded strict minority
// of processes takes one step and is then never scheduled again — the
// wait-freedom probe promoted from the ablation tests.  Live processes
// must still finish (the registers are wait-free); the run then
// classifies kBlocked with the history — stranded pending ops included
// — checked clean.
//
// The unreliable-network kinds (all ABD-only) arm the Network fault
// fabric and ABD's retransmission/dedup layer (mp/abd.hpp):
//
//  * kLossy — each would-be delivery is dropped with probability
//    `param`/1000 (seeded).  Retransmission with jittered exponential
//    backoff recovers every loss while a live quorum exists, so these
//    sweeps classify 100% kOk.
//  * kDuplicate — deliveries are duplicated (same seq); server-side
//    seq dedup and per-server quorum masks neutralize the copies: kOk.
//  * kPartition — a seeded two-sided cut drops cross-side traffic from
//    a seeded cut time until a seeded heal time; retransmission
//    completes every op after the heal: kOk.
//  * kMajorityCrash — between a majority and all nodes crash at seeded
//    send-attempt thresholds (a threshold can land inside one
//    broadcast, so only a prefix of replicas hears it).  No live quorum
//    remains, so blocking is certain: every run classifies kBlocked,
//    never kError.
//  * kCrashRecovery — a seeded strict minority crashes at send-attempt
//    thresholds and recovers after seeded delays: durable server state
//    (ts, value) survives, volatile state resets, and the ops in
//    flight on a crashed node are abandoned (pending forever in the
//    history — honest kBlocked when they are the only work left; runs
//    whose crashes miss every op classify kOk).
#pragma once

#include <cstdint>
#include <string>

#include "history/history.hpp"
#include "sim/regmodel.hpp"

namespace rlt::sim {
class SchedulePolicy;
}  // namespace rlt::sim

namespace rlt::sweep {

/// Which register construction the scenario exercises.
enum class Algorithm : std::uint8_t { kModeled, kAlg2, kAlg4, kAbd };

[[nodiscard]] const char* to_string(Algorithm a) noexcept;

/// How the scenario's run is scheduled.  For simulator scenarios these
/// map to sim::RandomAdversary / sim::RoundRobinAdversary; for ABD,
/// kRandom delivers uniformly random in-flight messages and starts
/// client operations at random moments, while kRoundRobin drains the
/// network oldest-message-first and rotates operation starts.
enum class AdversaryKind : std::uint8_t { kRandom, kRoundRobin };

[[nodiscard]] const char* to_string(AdversaryKind a) noexcept;

/// Which fault regime a scenario runs under.
enum class FaultKind : std::uint8_t {
  kNone,           ///< Fault-free (the classic sweep).
  kMinorityCrash,  ///< A seeded strict minority of nodes crashes (ABD).
  kStall,          ///< A seeded strict minority of processes stalls
                   ///< forever after one step (simulator families).
  kLossy,          ///< Seeded per-message loss, param/1000 drop rate (ABD).
  kDuplicate,      ///< Seeded per-message duplication (ABD).
  kPartition,      ///< Seeded transient two-sided cut that heals (ABD).
  kMajorityCrash,  ///< A seeded majority-or-more crashes mid-broadcast;
                   ///< blocking is certain (ABD).
  kCrashRecovery,  ///< A seeded strict minority crashes mid-broadcast
                   ///< and recovers; in-flight ops are abandoned (ABD).
};

[[nodiscard]] const char* to_string(FaultKind f) noexcept;

/// True iff fault kind `f` is implemented for algorithm family `a`
/// (kMinorityCrash and the unreliable-network kinds pair with kAbd,
/// kStall with the simulator families).  run_scenario reports kError on
/// any other pairing; the CLI rejects it up front.
[[nodiscard]] bool fault_applies(FaultKind f, Algorithm a) noexcept;

/// A seeded fault schedule.  `seed` is an independent axis from the
/// scenario seed: the same schedule can be swept under many fault
/// timings.  Victims, victim count (1..⌊(n-1)/2⌋ for the
/// minority-leaving kinds, quorum..n for kMajorityCrash), crash/cut/
/// heal times and loss coins are all deterministic functions of
/// (scenario seed, fault seed).  See fault_applies for the kind×family
/// pairing rules.
struct FaultPlan {
  FaultKind kind = FaultKind::kNone;
  std::uint64_t seed = 0;  ///< Fault-schedule seed; unused for kNone.
  /// Kind-specific intensity: drop probability in permille for kLossy
  /// (1..999); unused otherwise.  Part of the scenario key.
  std::uint32_t param = 0;

  [[nodiscard]] bool active() const noexcept {
    return kind != FaultKind::kNone;
  }
  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

/// A fully determined scenario configuration.
struct Scenario {
  Algorithm algorithm = Algorithm::kModeled;
  /// Register semantics; meaningful for kModeled only (implemented
  /// registers fix their own base-object semantics: atomic).
  sim::Semantics semantics = sim::Semantics::kAtomic;
  AdversaryKind adversary = AdversaryKind::kRandom;
  int processes = 3;
  std::uint64_t seed = 0;
  /// Writes performed by each writer role (reads are derived: every
  /// process finishes with one read; see scenario.cpp).
  int writes_per_process = 2;
  /// Safety cap on simulator actions / network deliveries.
  std::uint64_t max_actions = 1'000'000;
  /// Fault axis (see FaultPlan for which kinds pair with which family).
  FaultPlan faults;
  /// ABLATION/testing knob, not reachable from the CLI: disables ABD's
  /// read write-back phase, which breaks linearizability across readers
  /// (see mp/abd.hpp).  Tests use it to plant genuine violations inside
  /// sweeps; key() marks it ("/nowb") so fingerprints stay honest.
  bool abd_read_write_back = true;
  /// Cross-check every checkable history with the streaming online
  /// checker (checker/stream_checker.hpp) and report any batch/online
  /// disagreement as kError.  Deliberately EXCLUDED from key(): when the
  /// checkers agree (the only non-error outcome) the records are
  /// byte-identical to a plain run, so an --online sweep diffs clean
  /// against a blessed store produced without it.
  bool online_check = false;
  /// Exploration knob (ABD + run_scenario_policy only): extends the
  /// policy's schedule menu with fault-injection choices — drop or
  /// duplicate a chosen in-flight message, crash a node (strict
  /// minority budget, ops abandoned, crash-recovery semantics), recover
  /// a crashed node — so the explore lab can hunt worst-case fault
  /// schedules.  Arms ABD's retransmission layer so adversarial drops
  /// cannot trivially block the run.  key() marks it ("/fmenu").
  bool explore_faults = false;
  /// Capture forensics for non-ok verdicts: the event timeline
  /// (mp::NetObserver for ABD), the quorum ledger on kBlocked, and a
  /// re-verified failure certificate on kViolation, rendered into
  /// ScenarioResult::forensics as one canonical-JSON document
  /// (obs/forensics.hpp).  Deliberately EXCLUDED from key(), like
  /// online_check: the artifact is observability, never digest
  /// material, and a --forensics sweep's store stays byte-identical to
  /// a plain run's.
  bool forensics = false;

  /// Stable human-readable key, e.g. "alg2/rr/p3/w2/seed42",
  /// "abd/rand/p5/w2/fminority-c7/seed42", or
  /// "alg2/rand/p5/w2/fstall-c3/seed42".  Fault-free scenarios keep
  /// their historical keys (no fault segment), so pre-fault-axis digests
  /// remain comparable.  Used in reports and mixed into the sweep digest.
  [[nodiscard]] std::string key() const;
};

/// Outcome classification of one scenario run.
///
/// Enumerator values are digest material (the sweep mixes the raw value);
/// kOk and kViolation keep their pre-crash-axis values so crash-free
/// sweep digests stay byte-stable across this taxonomy change.
enum class Verdict : std::uint8_t {
  kOk = 0,         ///< Ran to completion; every applicable check passed.
  kViolation = 1,  ///< A checker rejected the recorded history.
  kBlocked = 2,    ///< Quiescent with work that can never finish (crashed
                   ///< homes / no live quorum / stalled processes);
                   ///< history checked clean up to the block.
  kError = 3,      ///< The run machinery failed (budget exhausted with a
                   ///< clean prefix, bad config, exception).
};

[[nodiscard]] const char* to_string(Verdict v) noexcept;

/// How a scenario's driver stopped producing events.  Inputs to the
/// verdict classification below; public so tests can exercise the
/// classifier on hand-built histories.
enum class RunEnd : std::uint8_t {
  kCompleted,  ///< Every program ran to completion.
  kBlocked,    ///< Quiescent with pending ops that can never complete.
  kBudget,     ///< The action budget ran out first.
};

/// What one scenario produced.  All fields except `wall_ns` and
/// `check_ns` are pure functions of the Scenario; those two are measured
/// and therefore excluded from digests.
struct ScenarioResult {
  Verdict verdict = Verdict::kError;
  std::uint64_t steps = 0;        ///< Adversary actions / deliveries.
  std::uint64_t ops = 0;          ///< Completed high-level operations.
  std::uint64_t history_hash = 0; ///< FNV-1a over the recorded history.
  /// Measured; NOT part of any digest.  A scenario the engine stamped
  /// from its config's template (sweep/engine.hpp) carries the copy's
  /// own time, and check_ns 0.
  std::uint64_t wall_ns = 0;
  std::uint64_t check_ns = 0;     ///< Checker share of wall_ns; measured.
  // Message accounting (ABD family; zero for the simulator families).
  // Deterministic, recorded in stores, but NOT digest material — the
  // digest predates the split counters.
  std::uint64_t net_delivered = 0;   ///< Handed to a live receiver.
  std::uint64_t net_dropped = 0;     ///< Crashed/cut/lossy consumes.
  std::uint64_t net_duplicated = 0;  ///< Fabric-duplicated copies.
  // Message-complexity accounting (the ROADMAP's messages/bits-per-op
  // axis; same deterministic-but-not-digest-material contract).
  std::uint64_t net_msgs = 0;        ///< Envelopes sent (dups included).
  std::uint64_t net_bytes = 0;       ///< Wire bytes sent (8 B/word).
  std::uint64_t net_round_trips = 0; ///< ABD phase broadcasts incl. rexmits.
  std::string detail;             ///< Failure explanation (empty if kOk).
  /// Canonical-JSON forensics artifact (obs/forensics.hpp): non-empty
  /// only when Scenario::forensics was set and the verdict is not kOk.
  /// A pure function of the Scenario — byte-identical across threads and
  /// shards — and never digest or store material.
  std::string forensics;
};

/// Runs one scenario to completion.  Deterministic: identical `s` gives
/// identical results (modulo wall_ns).  Never throws; exceptions become
/// Verdict::kError.
[[nodiscard]] ScenarioResult run_scenario(const Scenario& s);

/// Exploration hook: like run_scenario, but with every scheduling
/// decision — simulator actions for the sim families, operation starts
/// and message deliveries for ABD — made by `schedule` through indexed
/// menus (sim/schedule_policy.hpp) instead of the scenario's seeded
/// adversary axis.  The scenario's own seed still feeds the scheduler's
/// coin stream, so a run is a pure function of (scenario, policy
/// decisions): record the decisions and the run replays byte-identically.
/// Fault plans do not combine with external schedules (kError); to give
/// the policy fault power instead, set Scenario::explore_faults, which
/// appends fault-injection choices to the menu.
[[nodiscard]] ScenarioResult run_scenario_policy(const Scenario& s,
                                                 sim::SchedulePolicy& schedule);

/// What a family's own linearization witness said about a run.
enum class Witness : std::uint8_t {
  kNone,      ///< The family has no witness; the search decides.
  kAccepted,  ///< Certified the run linearizable (and, for the WSL
              ///< families, by the register's own WSL function).
  kMissed,    ///< Did not certify the run; the search decides.
};

/// Folds the checker verdicts on the recorded history together with how
/// the run ended into `out.verdict`/`out.detail`.  The checkers run on
/// EVERY exit path — a violation recorded before the run stalled or ran
/// out of budget always wins over the stall classification (the verdict-
/// masking bug class); pending ops stay in the history and reach the
/// solver as possibly-effective pending writes.  `end_detail` describes
/// the early exit (empty for kCompleted).  With `online`, the streaming
/// checker replays the history event-by-event and any disagreement with
/// the batch verdict classifies kError; on agreement the result is
/// byte-identical to an offline classification.  `witness` is the
/// runner's witness verdict: kAccepted stands in for the batch search
/// (and lifts its kMaxSolverOps cap), and kMissed counts one
/// `checker.witness_misses` before the search runs.
void classify_run(const history::History& h, RunEnd end,
                  const std::string& end_detail, ScenarioResult& out,
                  bool online = false, Witness witness = Witness::kNone);

/// Deterministic 64-bit fingerprint of a history (op tuples in id order).
/// Covers invocation-only (pending) ops too — their invocation time and
/// payload mix in with a kNoTime response — so blocked crash runs
/// fingerprint the ops the crash stranded, deterministically.
[[nodiscard]] std::uint64_t hash_history(const history::History& h);

}  // namespace rlt::sweep
