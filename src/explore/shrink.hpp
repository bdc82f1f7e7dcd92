// Counterexample shrinking: ddmin over schedule traces.
//
// Given a trace whose replay exhibits a property (a checker violation, a
// blocked run, a round-cap survival) and a predicate that replays a
// candidate and reports whether the property still holds, `shrink`
// reduces the trace with classic delta debugging [Zeller & Hildebrandt]:
//
//  1. chunk removal at geometrically refined granularity (ddmin), which
//     also truncates tails — a counterexample usually manifests early
//     and drags a long irrelevant suffix behind it;
//  2. a choice-lowering pass that rewrites surviving entries to 0 (the
//     canonical smallest menu index).
//
// The result is *locally minimal* when both passes complete: removing
// any single remaining choice, or lowering any remaining entry to 0,
// loses the property.  Replay totality (indices mod menu size, seeded
// fallback after exhaustion — see trace.hpp) guarantees every candidate
// is a valid schedule, so the predicate never has to reject for shape.
//
// Every predicate call replays a full run, so the pass is budgeted in
// candidates tested; a repeat is not replayed.  ddmin's refinement re-cuts
// chunks it already tried: a candidate already rejected against the
// current trace is answered without calling the predicate, yet still
// counts against the budget, so the result does not depend on the skip.
// Exhausting the budget returns the best trace found so far with
// `locally_minimal = false`.
#pragma once

#include <cstdint>
#include <functional>

#include "explore/trace.hpp"

namespace rlt::explore {

/// Replays a candidate; true iff the property of interest still holds.
using KeepPredicate = std::function<bool(const ScheduleTrace&)>;

struct ShrinkResult {
  ScheduleTrace trace;       ///< Reduced trace (still satisfies `keep`).
  std::uint64_t probes = 0;  ///< Predicate calls spent.
  /// Candidates answered without a predicate call: already rejected
  /// against the same trace.  `probes + repeats` is the number of
  /// candidates tested, which the budget bounds.
  std::uint64_t repeats = 0;
  bool locally_minimal = false;  ///< Both passes ran to completion.
};

/// Reduces `t` (which must satisfy `keep`) testing at most `budget`
/// candidates; a repeat is not replayed.  Deterministic: same inputs,
/// same result.
[[nodiscard]] ShrinkResult shrink(ScheduleTrace t, const KeepPredicate& keep,
                                  std::uint64_t budget);

}  // namespace rlt::explore
