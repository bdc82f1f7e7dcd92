// Write strong-linearizability checking (Definition 4 of the paper).
//
// A function f is a *write strong-linearization* function for a set of
// histories H iff it is a linearization function and, whenever G is a
// prefix of H, the write subsequence of f(G) is a prefix of the write
// subsequence of f(H).  It is a property of a *prefix-closed set* of
// histories — not of one history in isolation — which is why Theorem 13's
// counterexample needs two different extensions of a common prefix.
//
// This checker therefore takes a SET of (single-register) histories that
// may share event-prefixes and runs the lazy-commitment tree search it
// shares with the strong checker (checker/tree_common.hpp, which also
// states why the search is complete).  Here the committed sequence holds
// writes, and it passes at an event-prefix G iff G has a legal
// linearization whose write subsequence is exactly that sequence (the
// exact-order mode of the backtracking solver).
#pragma once

#include <string>
#include <vector>

#include "checker/lin_solver.hpp"

namespace rlt::checker {

/// Tuning knobs for the WSL tree search.
struct WslCheckOptions {
  /// Memoize feasibility verdicts and failed decision subtrees across the
  /// tree search, keyed on (prefix-tree node, committed write sequence).
  /// Sibling commitment branches re-reach identical (prefix, committed)
  /// states constantly; the cache answers those without re-running the
  /// solver.  Disable only to cross-check (the verdict and write orders
  /// must not depend on this flag).
  bool memoize = true;
};

/// Result of a write strong-linearizability check.
struct WslCheckResult {
  bool ok = false;
  /// On success: for each input history, the final committed write order
  /// (op ids within that history).
  std::vector<std::vector<int>> write_orders;
  /// On failure: human-readable certificate — the decision point where
  /// every commitment choice fails, with per-choice reasons.
  std::string explanation;
  /// Number of solver feasibility calls made (for perf benches).  With
  /// memoization on, this counts actual solver runs (== cache_misses).
  std::size_t solver_calls = 0;
  /// Feasibility probes answered from the memo cache.
  std::size_t cache_hits = 0;
  /// Feasibility probes that had to run the solver.
  std::size_t cache_misses = 0;
};

/// Checks whether the prefix-closed set generated by `runs` (all prefixes
/// of every run) admits a write strong-linearization function.
///
/// Requirements: every run is a single-register history on the same
/// register with the same initial value; every process's operations are
/// sequential within a run; each run has at most kMaxSolverOps (64)
/// operations.  Runs that extend one another are allowed; branching runs
/// must agree exactly (event times and payloads) on their common prefix.
/// Throws util::InvariantViolation otherwise.
[[nodiscard]] WslCheckResult check_write_strong_linearizable(
    const std::vector<History>& runs, const WslCheckOptions& options = {});

/// Convenience overload for a single run (checks all its prefixes).  On
/// one run this accepts exactly when `check_linearizable` does: let L be
/// a linearization of the run (pending writes allowed, pending reads
/// never), and for each event-prefix G let f(G) be the shortest prefix of
/// L holding every op completed in G, minus the reads still pending in G.
/// Every op of f(G) was invoked in G (it sits at or before an op
/// completed in G, and L respects real-time order), dropping reads keeps
/// f(G) legal, and prefixes of L nest, so f is a write
/// strong-linearization.  The sweep therefore checks each run
/// linearizable (sweep/scenario.hpp); this overload serves tests, benches
/// and examples, and `WslChecker.OneRunIsWslIffLinearizable` holds the
/// two checks together.
[[nodiscard]] WslCheckResult check_write_strong_linearizable(
    const History& run, const WslCheckOptions& options = {});

}  // namespace rlt::checker
