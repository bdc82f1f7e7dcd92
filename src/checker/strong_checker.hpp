// Strong linearizability checking (Definition 3; Golab, Higham & Woelfel).
//
// A function f is a *strong linearization* function for a set of histories
// H iff it is a linearization function and f(G) is a prefix of f(H)
// whenever G is a prefix of H — for ALL operations, not just writes.
//
// The checker runs the lazy-commitment tree search it shares with the
// write strong-linearizability checker (checker/tree_common.hpp, which
// also states why the search is complete).  Here the committed sequence
// holds every linearized operation.  Because a read's return value in a
// sequential history is determined by its position (the last write
// before it), committing a still-pending read assigns it an "invented"
// response, which Definition 2 permits; if the read later responds with a
// different value the branch fails.
//
// Intended for small histories (the separation examples): its search is
// exponential in pending-op counts.
#pragma once

#include <string>
#include <vector>

#include "checker/spec.hpp"

namespace rlt::checker {

/// Result of a strong linearizability check.
struct StrongCheckResult {
  bool ok = false;
  /// On success: for each input run, the final committed order (op ids).
  std::vector<std::vector<int>> orders;
  /// On failure: certificate of the deepest failing decision point.
  std::string explanation;
};

/// Checks whether the prefix-closed set generated by `runs` admits a
/// strong linearization function.  Same input requirements as
/// `check_write_strong_linearizable`, at most kMaxSolverOps (64) ops per
/// run included; throws util::InvariantViolation otherwise.
[[nodiscard]] StrongCheckResult check_strong_linearizable(
    const std::vector<History>& runs);

[[nodiscard]] StrongCheckResult check_strong_linearizable(const History& run);

}  // namespace rlt::checker
