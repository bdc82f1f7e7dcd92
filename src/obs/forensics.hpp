// Failure forensics: machine-checkable explanations for non-ok verdicts.
//
// Three layers, all deterministic pure functions of the finished run —
// so every artifact is byte-identical across --threads and across
// shard+merge vs unsharded sweeps, and none of it ever feeds a digest:
//
//  * a **failure certificate** for kViolation: the minimal sub-history
//    that still fails the checker (greedy 1-minimal op removal), the
//    checker's own constraint text on that minimal set, and a
//    re-verification bit proving the certificate independently
//    reproduces the failure through check_linearizable (one run is
//    write strongly-linearizable iff it is linearizable,
//    sweep/scenario.hpp, so no other checker can fail a run);
//  * a **quorum ledger** for kBlocked ABD runs: per pending op, which
//    servers acked its current phase, the quorum it needed, and the
//    named fault event (crash / partition / abandonment) that cut it
//    off;
//  * the **event timeline** recorded by obs::TimelineRecorder, with
//    happens-before edges (send -> delivery, matched by seq).
//
// build_artifact renders all of it as one canonical-JSON document
// (fixed field order, RFC 8259 escapes, newline-terminated) — the file
// `sweep_main --forensics DIR` writes per non-ok scenario.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "history/history.hpp"
#include "obs/timeline.hpp"

namespace rlt::obs {

/// A minimal failing sub-history plus the constraint it violates.
struct Certificate {
  /// The checker the certificate replays.
  std::string checker = "linearizability";
  /// Op ids (in the ORIGINAL history) of the minimal conflicting set.
  std::vector<int> ops;
  /// The checker's explanation on the minimal set.  Op ids inside it
  /// are certificate-local (dense over `ops`, same order).
  std::string constraint;
  /// True iff replaying exactly this op set through the checker
  /// reproduces the failure — the certificate's proof obligation.
  bool reverified = false;
  /// Checker calls spent minimizing (observability, not digest).
  std::uint64_t probes = 0;
};

/// Quorum-ledger entry for one op still pending when a run blocked.
struct LedgerEntry {
  int token = -1;        ///< AbdRegister client-op token
  int op_id = -1;        ///< history op id (-1 if not recorded)
  int node = -1;         ///< home node
  std::string phase;     ///< "write" / "read-query" / "read-write-back"
  std::vector<int> acks; ///< servers that acked the current phase
  int quorum = 0;
  int n = 0;
  bool abandoned = false;
  std::string cause;     ///< e.g. "home-node-crashed", "no-live-quorum"
  std::string cut_by;    ///< named fault event that cut the op off
};

/// Everything a runner captured for a non-ok scenario.  The timeline is
/// null for sim drivers (no message-passing substrate); the ledger is
/// empty unless an ABD run blocked.
struct ForensicsCapture {
  const TimelineRecorder* timeline = nullptr;
  std::vector<LedgerEntry> ledger;
};

/// Greedy 1-minimal certificate extraction: repeatedly drop ops whose
/// removal keeps check_linearizable failing, then re-verify the survivor
/// set.
[[nodiscard]] Certificate make_certificate(const history::History& h);

/// Renders the canonical forensics artifact for one non-ok scenario.
/// `verdict` uses the store spelling ("VIOLATION", "blocked", ...).
/// A certificate is computed iff `verdict` is "VIOLATION".  Pure function
/// of its inputs.
[[nodiscard]] std::string build_artifact(const std::string& key,
                                         const std::string& verdict,
                                         const std::string& detail,
                                         const history::History& h,
                                         const ForensicsCapture& cap);

/// Writes one artifact as `dir/name`, overwriting any stale file — the
/// directory contents must stay a pure function of the sweep options.
/// Throws (util::InvariantViolation) when the file cannot be written.
void write_artifact(const std::string& dir, const std::string& name,
                    const std::string& body);

}  // namespace rlt::obs
