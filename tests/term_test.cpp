// Tests for the termination lab (src/term/): per-scenario determinism,
// the golden termination distributions the paper promises (Theorem 6
// scripted schedules never terminate; the composed A' always decides),
// the termination sweep's digest guarantees, and the persisted result
// store (canonical JSONL records, byte-stable across thread counts).
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/adversary.hpp"
#include "sweep/store.hpp"
#include "sweep/sweep.hpp"
#include "term/term_scenario.hpp"
#include "term/term_sweep.hpp"

namespace rlt::term {
namespace {

TermScenario make(Family f, TermAdversary a, std::uint64_t seed,
                  int processes = 4, int rounds = 64) {
  TermScenario s;
  s.family = f;
  s.adversary = a;
  s.processes = processes;
  s.seed = seed;
  s.max_rounds = rounds;
  return s;
}

// ---------- scenario basics ----------

TEST(TermScenario, KeySpellingIsStable) {
  EXPECT_EQ(make(Family::kGame, TermAdversary::kScripted, 42, 5, 40).key(),
            "term/game/scripted/p5/r40/seed42");
  EXPECT_EQ(make(Family::kConsensus, TermAdversary::kStalling, 7).key(),
            "term/consensus/stall/p4/r64/seed7");
  EXPECT_EQ(make(Family::kSharedCoin, TermAdversary::kRandom, 0).key(),
            "term/coin/rand/p4/r64/seed0");
  EXPECT_EQ(make(Family::kComposed, TermAdversary::kScripted, 1).key(),
            "term/composed/scripted/p4/r64/seed1");
  EXPECT_EQ(make(Family::kGame, TermAdversary::kRandom, UINT64_MAX, 3, 2).key(),
            "term/game/rand/p3/r2/seed18446744073709551615");
}

TEST(TermScenario, RerunIsBitIdentical) {
  for (const Family f : {Family::kConsensus, Family::kComposed,
                         Family::kSharedCoin, Family::kGame}) {
    for (const TermAdversary adv :
         {TermAdversary::kScripted, TermAdversary::kRandom,
          TermAdversary::kStalling}) {
      if (!combination_valid(f, adv)) continue;
      const TermScenario s = make(f, adv, 12345);
      const TermRecord a = run_term_scenario(s);
      const TermRecord b = run_term_scenario(s);
      EXPECT_FALSE(a.error) << s.key() << ": " << a.detail;
      EXPECT_EQ(a.terminated, b.terminated) << s.key();
      EXPECT_EQ(a.capped, b.capped) << s.key();
      EXPECT_EQ(a.rounds, b.rounds) << s.key();
      EXPECT_EQ(a.stalled, b.stalled) << s.key();
      EXPECT_EQ(a.coin_flips, b.coin_flips) << s.key();
      EXPECT_EQ(a.steps, b.steps) << s.key();
      EXPECT_EQ(a.outcome_hash, b.outcome_hash) << s.key();
      EXPECT_EQ(a.detail, b.detail) << s.key();
    }
  }
}

TEST(TermScenario, InvalidCombinationIsAnErrorNotACrash) {
  for (const Family f : {Family::kConsensus, Family::kSharedCoin}) {
    const TermRecord r =
        run_term_scenario(make(f, TermAdversary::kScripted, 0));
    EXPECT_TRUE(r.error) << to_string(f);
    EXPECT_FALSE(r.terminated) << to_string(f);
    EXPECT_NE(r.detail.find("scripted"), std::string::npos) << r.detail;
  }
}

TEST(TermScenario, GameFamiliesNeedThreeProcesses) {
  for (const Family f : {Family::kGame, Family::kComposed}) {
    const TermRecord r =
        run_term_scenario(make(f, TermAdversary::kRandom, 0, /*processes=*/2));
    EXPECT_TRUE(r.error) << to_string(f);
  }
  // The consensus/coin families are fine with 2.
  const TermRecord ok = run_term_scenario(
      make(Family::kConsensus, TermAdversary::kRandom, 0, /*processes=*/2));
  EXPECT_FALSE(ok.error) << ok.detail;
  EXPECT_TRUE(ok.terminated) << ok.detail;
}

// ---------- golden distributions ----------

TEST(TermGolden, Theorem6ScriptedGameNeverTerminatesWithinBudget) {
  // The paper's headline: against merely linearizable registers the
  // scripted strong adversary keeps every process in the game forever.
  // Every seed, every swept size: capped at the round budget, never
  // terminated, zero errors.
  for (const int n : {4, 5}) {
    for (std::uint64_t seed = 0; seed < 15; ++seed) {
      const TermRecord r = run_term_scenario(
          make(Family::kGame, TermAdversary::kScripted, seed, n,
               /*rounds=*/20));
      ASSERT_FALSE(r.error) << r.detail;
      EXPECT_FALSE(r.terminated) << "n=" << n << " seed=" << seed;
      EXPECT_TRUE(r.capped) << "n=" << n << " seed=" << seed;
      EXPECT_EQ(r.rounds, 0);
      EXPECT_GT(r.steps, 0u);
    }
  }
}

TEST(TermGolden, ComposedDecidesOnEverySeedUnderEveryAdversary) {
  // The positive side of Corollary 9: A' = (game; consensus) terminates —
  // scripted against WSL game registers, random/stalling against atomic
  // ones.  "Terminated" under stalling means every live process decided.
  for (const TermAdversary adv :
       {TermAdversary::kScripted, TermAdversary::kRandom,
        TermAdversary::kStalling}) {
    for (std::uint64_t seed = 0; seed < 15; ++seed) {
      const TermRecord r =
          run_term_scenario(make(Family::kComposed, adv, seed));
      ASSERT_FALSE(r.error) << to_string(adv) << " seed " << seed << ": "
                            << r.detail;
      EXPECT_TRUE(r.terminated) << to_string(adv) << " seed " << seed;
      EXPECT_TRUE(r.safety_ok) << to_string(adv) << " seed " << seed;
      EXPECT_GT(r.rounds, 0) << to_string(adv) << " seed " << seed;
      if (adv == TermAdversary::kStalling) {
        EXPECT_GT(r.stalled, 0) << "seed " << seed;
      }
    }
  }
}

TEST(TermGolden, ConsensusAndCoinTerminateUnderStalls) {
  // Wait-freedom of task T and the drift coin: a stalled strict minority
  // never blocks the live processes.
  for (const Family f : {Family::kConsensus, Family::kSharedCoin}) {
    for (std::uint64_t seed = 0; seed < 15; ++seed) {
      const TermRecord r =
          run_term_scenario(make(f, TermAdversary::kStalling, seed));
      ASSERT_FALSE(r.error) << to_string(f) << " seed " << seed << ": "
                            << r.detail;
      EXPECT_TRUE(r.terminated) << to_string(f) << " seed " << seed;
      EXPECT_TRUE(r.safety_ok) << to_string(f) << " seed " << seed;
      EXPECT_EQ(r.stalled, 1) << "n=4 has exactly one strict-minority "
                              << "victim";
    }
  }
}

// ---------- solver work ----------

TEST(TermSolverWork, ScriptedRunsSolveOnlyOverlappingWindows) {
  // The register models answer every menu from their configuration sets
  // (checker/frontier.hpp), so a scripted run makes no solver call; a
  // window per menu made 3, 192 and 55.  Composed covers the WSL model:
  // A''s scripted game registers are WSL.
  constexpr auto kCalls =
      static_cast<std::size_t>(obs::Counter::kCheckerSolverCalls);
  const auto solver_calls = [](Family f, int rounds) {
    obs::set_enabled(true);
    const obs::CounterDelta before = obs::thread_counters();
    const TermRecord r =
        run_term_scenario(make(f, TermAdversary::kScripted, 0, 4, rounds));
    obs::CounterDelta calls = obs::thread_counters();
    obs::set_enabled(false);
    calls -= before;
    EXPECT_FALSE(r.error) << r.detail;
    return calls.v[kCalls];
  };
  EXPECT_EQ(solver_calls(Family::kGame, 1), 0u);
  EXPECT_EQ(solver_calls(Family::kGame, 64), 0u);
  EXPECT_EQ(solver_calls(Family::kComposed, 64), 0u);
}

// ---------- exploration probes ----------

TEST(TermProbe, RandomSchedulesArePinnedForEveryFamily) {
  // run_term_probe is the exploration lab's rounds objective; the blessed
  // store pins it through searches, this pins one plain run per family.
  // The values were printed by this same loop when the record and the
  // probe still built and ran each family separately, so they hold the
  // probe to its per-family folding rules: the family mixed in first,
  // no consensus inputs, composed's game rounds after the processes.
  struct Pin {
    Family family;
    int processes;
    std::uint64_t seed;
    std::uint64_t outcome_hash;
    std::uint64_t rounds_score;
    std::uint64_t steps;
  };
  const Pin pins[] = {
      {Family::kConsensus, 3, 0, 0x62117704524cd4d8ULL, 2, 25},
      {Family::kConsensus, 3, 1, 0xe8a92fd0d56239beULL, 5, 80},
      {Family::kConsensus, 3, 2, 0x21f7965200262ccaULL, 3, 40},
      {Family::kConsensus, 4, 0, 0x368978cb0b53e936ULL, 3, 54},
      {Family::kConsensus, 4, 1, 0xb58add52268ecf97ULL, 3, 53},
      {Family::kConsensus, 4, 2, 0xb5af1625fedf7137ULL, 3, 54},
      {Family::kSharedCoin, 3, 0, 0x99e60c3899bc7152ULL, 5, 58},
      {Family::kSharedCoin, 3, 1, 0x783cb314632b7feaULL, 17, 233},
      {Family::kSharedCoin, 3, 2, 0xacd939b27e830deaULL, 7, 93},
      {Family::kSharedCoin, 4, 0, 0x4b11b6d7a52aa9f0ULL, 5, 94},
      {Family::kSharedCoin, 4, 1, 0x064119bba190b865ULL, 19, 400},  // capped
      {Family::kSharedCoin, 4, 2, 0x1c77d726f4c21dfdULL, 27, 400},  // capped
      {Family::kGame, 4, 0, 0x0c3ed42b3c729847ULL, 1, 39},
      {Family::kGame, 4, 1, 0x0c3ed42b3c729847ULL, 1, 39},
      {Family::kGame, 4, 2, 0x0c3ed42b3c729847ULL, 1, 39},
      {Family::kComposed, 4, 0, 0x3cebe29f15649ff1ULL, 3, 81},
      {Family::kComposed, 4, 1, 0xd1e3b3caf5ce1fcaULL, 4, 104},
      {Family::kComposed, 4, 2, 0x64b2fa47351cb8b6ULL, 3, 85},
  };
  for (const Pin& pin : pins) {
    TermProbeSpec spec;
    spec.family = pin.family;
    spec.processes = pin.processes;
    spec.max_rounds = 8;
    spec.seed = pin.seed;
    sim::RandomAdversary adversary(pin.seed ^ 0x9E3779B97F4A7C15ULL);
    const TermProbe p = run_term_probe(spec, adversary);
    SCOPED_TRACE(std::string(to_string(pin.family)) + " p" +
                 std::to_string(pin.processes) + " seed" +
                 std::to_string(pin.seed));
    EXPECT_EQ(p.outcome_hash, pin.outcome_hash);
    EXPECT_EQ(p.rounds_score, pin.rounds_score);
    EXPECT_EQ(p.steps, pin.steps);
  }
}

// ---------- enumeration ----------

TEST(TermEnumerate, SkipsInvalidPairsAndKeepsKeysUnique) {
  TermSweepOptions o;
  o.seed_begin = 0;
  o.seed_end = 3;
  o.process_counts = {4, 5};
  o.round_budgets = {32, 64};
  // 4 families × 3 adversaries minus the 2 invalid scripted pairs = 10
  // valid pairs, × 2 process counts × 2 round budgets × 3 seeds.
  const std::vector<TermScenario> all = enumerate_term_scenarios(o);
  EXPECT_EQ(all.size(), 10u * 2u * 2u * 3u);
  std::set<std::string> keys;
  for (const TermScenario& s : all) {
    EXPECT_TRUE(combination_valid(s.family, s.adversary)) << s.key();
    keys.insert(s.key());
  }
  EXPECT_EQ(keys.size(), all.size());
  // Seeds are the outermost axis.
  EXPECT_EQ(all.front().seed, 0u);
  EXPECT_EQ(all.back().seed, 2u);
}

// ---------- sweep digest + aggregate ----------

TermSweepOptions small_sweep(int threads) {
  TermSweepOptions o;
  o.seed_begin = 0;
  o.seed_end = 6;
  o.threads = threads;
  return o;
}

TEST(TermSweep, SmokeCountsAddUp) {
  const TermSummary sum = run_term_sweep(small_sweep(4));
  EXPECT_EQ(sum.scenarios, 10u * 6u);
  EXPECT_EQ(sum.errors, 0u)
      << (sum.failures.empty() ? "" : sum.failures.front());
  EXPECT_EQ(sum.safety_violations, 0u);
  // The game/scripted slice is capped (Theorem 6); everything else
  // terminates on these seeds.
  EXPECT_EQ(sum.capped, 6u);
  EXPECT_EQ(sum.terminated, sum.scenarios - 6u);
  EXPECT_GT(sum.total_steps, 0u);
  EXPECT_GT(sum.total_coin_flips, 0u);
  ASSERT_FALSE(sum.tail.empty());
  // Capped runs outlast every k: the tail never drops below them.
  for (const TailPoint& t : sum.tail) {
    EXPECT_GE(t.over, sum.capped) << "k=" << t.k;
  }
}

TEST(TermSweep, DigestIsIndependentOfThreadsAndBatch) {
  const TermSummary seq = run_term_sweep(small_sweep(1));
  const TermSummary con = run_term_sweep(small_sweep(4));
  EXPECT_EQ(seq.stable_text(), con.stable_text());
  EXPECT_EQ(seq.digest, con.digest);
}

TEST(TermSweep, DigestDependsOnTheAxes) {
  const TermSummary base = run_term_sweep(small_sweep(2));
  TermSweepOptions rounds = small_sweep(2);
  rounds.round_budgets = {32};
  EXPECT_NE(base.digest, run_term_sweep(rounds).digest);
  TermSweepOptions seeds = small_sweep(2);
  seeds.seed_begin = 6;
  seeds.seed_end = 12;
  EXPECT_NE(base.digest, run_term_sweep(seeds).digest);
}

TEST(TermSweep, DecisionRoundHistogramsFoldStably) {
  const TermSummary seq = run_term_sweep(small_sweep(1));
  const TermSummary con = run_term_sweep(small_sweep(4));
  ASSERT_EQ(seq.hists.size(), 4u);  // every family present
  ASSERT_EQ(con.hists.size(), seq.hists.size());
  std::uint64_t terminated = 0;
  std::uint64_t capped = 0;
  for (std::size_t i = 0; i < seq.hists.size(); ++i) {
    EXPECT_EQ(seq.hists[i].family, con.hists[i].family);
    EXPECT_EQ(seq.hists[i].buckets, con.hists[i].buckets);
    EXPECT_EQ(seq.hists[i].capped, con.hists[i].capped);
    std::uint64_t sum = 0;
    for (const std::uint64_t b : seq.hists[i].buckets) sum += b;
    EXPECT_EQ(sum, seq.hists[i].terminated);
    terminated += sum;
    capped += seq.hists[i].capped;
  }
  // Buckets partition the terminated runs; the capped column holds the
  // scripted Theorem 6 slice (6 seeds, never decides).
  EXPECT_EQ(terminated, seq.terminated);
  EXPECT_EQ(capped, 6u);
  EXPECT_NE(seq.stable_text().find("hist game capped 6"), std::string::npos)
      << seq.stable_text();
}

TEST(TermSweep, StableTextUsesIntegerRendering) {
  // 5/8 scenarios terminated must print as 0.6250 (integer math, not
  // locale- or FP-formatting-dependent).
  TermSweepOptions o;
  o.families = {Family::kGame};
  o.adversaries = {TermAdversary::kScripted, TermAdversary::kRandom};
  o.seed_begin = 0;
  o.seed_end = 4;
  const TermSummary sum = run_term_sweep(o);
  ASSERT_EQ(sum.scenarios, 8u);
  ASSERT_EQ(sum.terminated, 4u);  // the random half terminates
  EXPECT_NE(sum.stable_text().find("termination_rate 0.5000"),
            std::string::npos)
      << sum.stable_text();
}

// ---------- result store ----------

TEST(TermStore, RecordsAreCanonicalJsonInEnumerationOrder) {
  TermSweepOptions o = small_sweep(2);
  sweep::StringSink sink;
  (void)run_term_sweep(o, 0, &sink);
  const std::vector<TermScenario> scenarios = enumerate_term_scenarios(o);
  // One line per scenario, each starting with the scenario's key, then
  // one per-family decision-round histogram record per family present.
  std::istringstream is(sink.text());
  std::string line;
  std::size_t i = 0;
  std::size_t hists = 0;
  while (std::getline(is, line)) {
    if (i < scenarios.size()) {
      const std::string prefix = "{\"gi\":" + std::to_string(i) +
                                 ",\"key\":\"" + scenarios[i].key() +
                                 "\",\"mode\":\"term\",";
      EXPECT_EQ(line.compare(0, prefix.size(), prefix), 0)
          << "line " << i << ": " << line;
    } else {
      EXPECT_EQ(line.compare(0, 18, "{\"key\":\"term-hist/"), 0)
          << "trailer " << i << ": " << line;
      EXPECT_NE(line.find("\"mode\":\"term-hist\""), std::string::npos);
      ++hists;
    }
    EXPECT_EQ(line.back(), '}');
    ++i;
  }
  EXPECT_EQ(i - hists, scenarios.size());
  EXPECT_EQ(hists, 4u);  // all four families present in the small sweep
}

TEST(TermStore, BytesAreIndependentOfThreadsAndBatch) {
  sweep::StringSink a;
  (void)run_term_sweep(small_sweep(1), 0, &a);
  sweep::StringSink b;
  (void)run_term_sweep(small_sweep(4), 0, &b);
  EXPECT_EQ(a.text(), b.text());
  EXPECT_FALSE(a.text().empty());
}

TEST(TermStore, SafetySweepStoreIsAlsoByteStable) {
  sweep::SweepOptions o;
  o.seed_begin = 0;
  o.seed_end = 5;
  o.faults = {sweep::FaultKind::kNone, sweep::FaultKind::kMinorityCrash,
              sweep::FaultKind::kStall};
  o.threads = 1;
  sweep::StringSink a;
  (void)sweep::run_sweep(o, 0, &a);
  o.threads = 4;
  sweep::StringSink b;
  (void)sweep::run_sweep(o, 0, &b);
  EXPECT_EQ(a.text(), b.text());
  // Every record carries the safety mode marker and a verdict.
  EXPECT_NE(a.text().find("\"mode\":\"safety\""), std::string::npos);
  EXPECT_NE(a.text().find("\"verdict\":\"blocked\""), std::string::npos);
}

TEST(TermStore, JsonEscapingIsRfc8259) {
  sweep::Record r;
  r.str("key", "a\"b\\c\nd\te\x01" "f");
  EXPECT_EQ(r.json(), "{\"key\":\"a\\\"b\\\\c\\nd\\te\\u0001f\"}");
  sweep::Record r2;
  r2.u64("n", 42).boolean("t", true).boolean("f", false).hex("h", 0xabULL);
  EXPECT_EQ(r2.json(),
            "{\"n\":42,\"t\":true,\"f\":false,"
            "\"h\":\"0x00000000000000ab\"}");
}

}  // namespace
}  // namespace rlt::term
