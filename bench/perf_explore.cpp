// Experiment P6 — exploration-lab throughput.
//
// The schedule-search lab stacks many deterministic runs per search
// instance, so its unit economics matter: one greedy probe of the
// Theorem 6 game (the rounds objective's inner loop), one rounds-objective
// instance whose round-cap survival is shrunk (search + shrink replays of
// the game under linearizable registers), one full counterexample hunt
// against the planted ABD ablation (search + ddmin shrink), the
// random-restart baseline, and the replay of a shrunk witness (the
// verification path CI and --replay exercise).  Outcome
// fingerprints are asserted stable across iterations — a search bench
// that silently changed behaviour would be worse than useless.
#include <benchmark/benchmark.h>

#include "explore/explore.hpp"
#include "explore/policy.hpp"
#include "sim/schedule_policy.hpp"
#include "term/term_scenario.hpp"
#include "util/assert.hpp"

namespace {

using namespace rlt;

explore::ExploreInstance ablation_instance() {
  explore::ExploreInstance e;
  e.objective = explore::Objective::kViolation;
  e.strategy = explore::Strategy::kGreedy;
  e.algorithm = sweep::Algorithm::kAbd;
  e.processes = 5;
  e.seed = 0;
  e.search_budget = 8;
  e.shrink_budget = 1024;
  e.abd_read_write_back = false;
  return e;
}

/// One greedy probe of the game under linearizable registers: the
/// adaptive adversary drives all 16 rounds to the cap every time.
void BM_ExploreGreedyGameProbe(benchmark::State& state) {
  term::TermProbeSpec spec;
  spec.family = term::Family::kGame;
  spec.processes = 4;
  spec.max_rounds = 16;
  spec.seed = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t iter = 0;
  for (auto _ : state) {
    explore::GreedyRoundsPolicy policy(/*game_aware=*/true, /*seed=*/0,
                                       /*jitter_den=*/0);
    sim::PolicyAdversary adv(policy);
    const term::TermProbe p = run_term_probe(spec, adv);
    benchmark::DoNotOptimize(p.outcome_hash);
    RLT_CHECK_MSG(p.rounds_score == 17, "greedy no longer reaches the cap");
    RLT_CHECK_MSG(fingerprint == 0 || fingerprint == p.outcome_hash,
                  "outcome hash changed between reruns — nondeterminism");
    fingerprint = p.outcome_hash;
    ++iter;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(iter));
}
BENCHMARK(BM_ExploreGreedyGameProbe)->Unit(benchmark::kMicrosecond);

/// One rounds-objective instance (game, greedy, p4, r16): the search
/// reaches the round cap and the shrinker spends its 1024-candidate budget
/// replaying the survival, so this measures the read menus of the
/// linearizable game registers and the shrink loop.
void BM_ExploreRoundsShrink(benchmark::State& state) {
  explore::ExploreInstance e;
  e.objective = explore::Objective::kRounds;
  e.strategy = explore::Strategy::kGreedy;
  e.family = term::Family::kGame;
  e.processes = 4;
  e.max_rounds = 16;
  e.seed = 0;
  e.shrink_budget = 1024;
  std::uint64_t fingerprint = 0;
  std::uint64_t probes = 0;
  std::uint64_t iter = 0;
  for (auto _ : state) {
    const explore::ExploreOutcome o = explore::run_explore_instance(e);
    benchmark::DoNotOptimize(o.trace_fnv);
    RLT_CHECK_MSG(o.shrunk, "the round-cap survival is no longer shrunk");
    RLT_CHECK_MSG(iter == 0 || (fingerprint == o.fingerprint &&
                                probes == o.shrink_probes),
                  "fingerprint or shrink probes changed between reruns — "
                  "nondeterminism");
    fingerprint = o.fingerprint;
    probes = o.shrink_probes;
    ++iter;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(iter));
}
BENCHMARK(BM_ExploreRoundsShrink)->Unit(benchmark::kMillisecond);

/// Full counterexample pipeline: greedy search finds the planted
/// no-write-back violation and ddmin shrinks it to local minimality.
void BM_ExploreAblationHuntAndShrink(benchmark::State& state) {
  std::uint64_t fingerprint = 0;
  std::uint64_t iter = 0;
  for (auto _ : state) {
    const explore::ExploreOutcome o =
        explore::run_explore_instance(ablation_instance());
    benchmark::DoNotOptimize(o.trace_fnv);
    RLT_CHECK_MSG(o.found_rank == 3, "the planted violation went unfound");
    RLT_CHECK_MSG(o.locally_minimal, "shrink no longer reaches minimality");
    RLT_CHECK_MSG(fingerprint == 0 || fingerprint == o.fingerprint,
                  "fingerprint changed between reruns — nondeterminism");
    fingerprint = o.fingerprint;
    ++iter;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(iter));
}
BENCHMARK(BM_ExploreAblationHuntAndShrink)->Unit(benchmark::kMicrosecond);

/// The budgeted-random baseline on the same workload (same budget, no
/// shrink): what sampling costs where searching succeeds.
void BM_ExploreRandomRestartBaseline(benchmark::State& state) {
  explore::ExploreInstance e = ablation_instance();
  e.strategy = explore::Strategy::kRandom;
  e.shrink_budget = 0;
  std::uint64_t iter = 0;
  for (auto _ : state) {
    const explore::ExploreOutcome o = explore::run_explore_instance(e);
    benchmark::DoNotOptimize(o.best_score);
    ++iter;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(iter));
}
BENCHMARK(BM_ExploreRandomRestartBaseline)->Unit(benchmark::kMicrosecond);

/// Replaying the shrunk witness — the verification path.
void BM_ExploreReplayShrunkWitness(benchmark::State& state) {
  const explore::ExploreInstance e = ablation_instance();
  const explore::ExploreOutcome o = explore::run_explore_instance(e);
  RLT_CHECK_MSG(o.found_rank == 3, "no witness to replay");
  std::uint64_t iter = 0;
  for (auto _ : state) {
    const explore::ReplayReport rep =
        explore::replay_trace(e, o.best_trace, o.fallback_seed);
    benchmark::DoNotOptimize(rep.fingerprint);
    RLT_CHECK_MSG(rep.fingerprint == o.fingerprint,
                  "replay diverged from the recorded witness");
    ++iter;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(iter));
}
BENCHMARK(BM_ExploreReplayShrunkWitness)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
