// Algorithm 3: the write strong-linearization function f for Algorithm 2
// histories, as executable code.
//
// Algorithm 3 scans the history by increasing time and maintains the
// sequence WS of writes linearized so far.  At the time ti of the i-th
// write to some Val[-] (line 8 of Algorithm 2), if the writing operation
// wi is not yet in WS, it collects the set Ci of write operations active
// at ti and not in WS, evaluates their (possibly *incomplete*) vector
// timestamps at ti (unset entries read as ∞), keeps those with timestamp
// <= wi's (Bi), and appends Bi to WS in increasing timestamp order.
// Reads returning (v, ts) are then placed right after the write that
// published (v, ts), ordered among themselves by start time (reads of the
// initial value go first).
//
// Because WS only ever grows by appending — using information available
// at time ti only — the resulting linearization function satisfies the
// prefix property (P) of Definition 4; `verify_alg3_wsl` re-runs the
// construction on every trace prefix and checks this mechanically, plus
// properties 1-3 of Definition 2 via the sequential-spec validator.
//
// `check_alg3_wsl` reaches the same verdict in one pass, which is what
// lets the sweep certify every Algorithm 2 run without a search.  It
// walks the line-8 writes once in time order.  At each ti whose wi is
// not yet in WS it runs lines 7-10 from what is known at ti: the writes
// active at ti, the new_ts entries assigned at or before ti, and the
// trace's `infinite_init`.  It appends B_i and records, per write, the
// time it joined WS.  Since WS only appends, the WS of the prefix at t
// is the writes that joined by t: a prefix of WS, so (P) holds by
// construction.  Then each completed read joins its write's group by
// timestamp (Observation 24, checked on the timestamps themselves), and
// one `is_legal_sequential` checks the whole sequence f(H).
//
// Why that covers every prefix G (the events up to some time t).  The
// walk also checks two facts, for every t at once by comparing times:
// every write that responded by t is in WS(t), and every read that
// responded by t found its write in WS(t).  Take f(G) to be f(H)
// restricted to WS(t) plus the reads completed by t; given the two
// facts, that is what Algorithm 3 outputs on G.  Then f(G):
//  * holds every op completed in G and no pending read;
//  * respects G's real-time order, because an op that precedes another
//    in G precedes it in H, where f(H) respects it;
//  * is legal, because each read sits right after its own write (or
//    before every write, for the initial value) with only reads of that
//    write in between, in f(G) as in f(H).
// So f(H) legal in H gives f(G) legal in G, and the one pass agrees with
// `verify_alg3_wsl`, which stays as its test oracle.
#pragma once

#include <string>
#include <vector>

#include "checker/spec.hpp"
#include "registers/alg2_register.hpp"

namespace rlt::registers {

/// Output of one run of Algorithm 3.
struct Alg3Result {
  /// hl op ids in linearization order (writes that reached line 8, plus
  /// all completed reads).
  std::vector<int> sequence;
  /// The write subsequence of `sequence` (hl op ids) — "WS".
  std::vector<int> write_sequence;
};

/// Runs Algorithm 3 on an instrumentation trace.
[[nodiscard]] Alg3Result run_alg3(const Alg2Trace& trace);

/// Verdict of the full Theorem 10 verification.
struct Alg3Verification {
  bool ok = false;
  std::string error;
  std::size_t prefixes_checked = 0;
};

/// Verifies that Algorithm 3 defines a write strong-linearization
/// function for this execution:
///  (L) its output is a legal linearization of the high-level history
///      (Definition 2, via checker::is_legal_sequential), and
///  (P) for every event-prefix of the trace, the write sequence produced
///      on the prefix is a prefix of the write sequence produced on the
///      full trace (Lemma 49 / Claim 49.1).
[[nodiscard]] Alg3Verification verify_alg3_wsl(const Alg2Trace& trace,
                                               const history::History& hl);

/// The same verdict as `verify_alg3_wsl` in one pass (see the header
/// comment for why the pass covers every prefix), copying no trace or
/// history.  `error` names the first check that failed.
[[nodiscard]] checker::SequentialCheck check_alg3_wsl(
    const Alg2Trace& trace, const history::History& hl);

}  // namespace rlt::registers
