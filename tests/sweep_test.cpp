// Tests for the parallel scenario-sweep engine (src/sweep/):
// single-scenario determinism, the crash and stall fault axes and their
// verdict taxonomy (blocked vs violation vs error), the sweep-level
// digest guarantees (same options => byte-identical summary, regardless
// of thread count — with or without faults), and stamping (a seed range
// equals its single-seed sweeps).
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "explore/explore.hpp"
#include "mp/abd.hpp"
#include "mp/network.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "sweep/scenario.hpp"
#include "sweep/store.hpp"
#include "sweep/sweep.hpp"
#include "term/term_sweep.hpp"
#include "util/rng.hpp"

namespace rlt::sweep {
namespace {

// ---------- scenario enumeration ----------

TEST(Enumerate, CrossProductSizeAndOrderAreStable) {
  SweepOptions o;
  o.seed_begin = 0;
  o.seed_end = 3;
  o.process_counts = {2, 3};
  // modeled contributes |semantics| configs; alg2/alg4/abd one each:
  // (3 + 3) * |adversaries|=2 * |process_counts|=2 * seeds=3.
  const std::vector<Scenario> all = enumerate_scenarios(o);
  EXPECT_EQ(all.size(), (3u + 3u) * 2u * 2u * 3u);
  // Seeds are the outermost axis (consecutive tasks differ in config).
  EXPECT_EQ(all.front().seed, 0u);
  EXPECT_EQ(all.back().seed, 2u);
  // Keys are unique.
  std::set<std::string> keys;
  for (const Scenario& s : all) keys.insert(s.key());
  EXPECT_EQ(keys.size(), all.size());
}

// ---------- single-scenario determinism ----------

TEST(Scenario, RerunIsBitIdentical) {
  for (const Algorithm alg : {Algorithm::kModeled, Algorithm::kAlg2,
                              Algorithm::kAlg4, Algorithm::kAbd}) {
    Scenario s;
    s.algorithm = alg;
    s.semantics = sim::Semantics::kLinearizable;
    s.adversary = AdversaryKind::kRandom;
    s.processes = 3;
    s.seed = 12345;
    const ScenarioResult a = run_scenario(s);
    const ScenarioResult b = run_scenario(s);
    EXPECT_EQ(a.verdict, Verdict::kOk) << s.key() << ": " << a.detail;
    EXPECT_EQ(a.verdict, b.verdict) << s.key();
    EXPECT_EQ(a.steps, b.steps) << s.key();
    EXPECT_EQ(a.ops, b.ops) << s.key();
    EXPECT_EQ(a.history_hash, b.history_hash) << s.key();
  }
}

TEST(Scenario, DifferentSeedsReachDifferentHistories) {
  // Not guaranteed for every pair, but across 20 seeds the random
  // adversary must produce more than one distinct interleaving.
  std::set<std::uint64_t> hashes;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Scenario s;
    s.algorithm = Algorithm::kModeled;
    s.semantics = sim::Semantics::kLinearizable;
    s.adversary = AdversaryKind::kRandom;
    s.processes = 3;
    s.seed = seed;
    const ScenarioResult r = run_scenario(s);
    ASSERT_EQ(r.verdict, Verdict::kOk) << r.detail;
    hashes.insert(r.history_hash);
  }
  EXPECT_GT(hashes.size(), 1u);
}

TEST(Scenario, InvalidConfigIsAnErrorNotACrash) {
  // run_scenario's contract: never throws, bad configs become kError —
  // including ones only a programmatic caller (not the CLI) can build.
  for (const Algorithm alg : {Algorithm::kModeled, Algorithm::kAlg2,
                              Algorithm::kAlg4, Algorithm::kAbd}) {
    Scenario s;
    s.algorithm = alg;
    s.processes = 0;
    const ScenarioResult r = run_scenario(s);
    EXPECT_EQ(r.verdict, Verdict::kError) << to_string(alg);
    EXPECT_FALSE(r.detail.empty()) << to_string(alg);
  }
}

TEST(Scenario, ExhaustedBudgetIsAnErrorNotACrash) {
  Scenario s;
  s.algorithm = Algorithm::kAlg2;
  s.processes = 3;
  s.seed = 1;
  s.max_actions = 3;  // far too small to finish
  const ScenarioResult r = run_scenario(s);
  EXPECT_EQ(r.verdict, Verdict::kError);
  EXPECT_FALSE(r.detail.empty());
}

// ---------- crash-fault axis ----------

Scenario abd_scenario(std::uint64_t seed) {
  Scenario s;
  s.algorithm = Algorithm::kAbd;
  s.adversary = AdversaryKind::kRandom;
  s.processes = 3;
  s.seed = seed;
  return s;
}

TEST(Scenario, CrashFreeKeysKeepTheirHistoricalSpelling) {
  // The fault axis and the ablation knob must be invisible when
  // defaulted: pinned pre-fault-axis digests fold these exact keys.
  Scenario s = abd_scenario(0);
  EXPECT_EQ(s.key(), "abd/rand/p3/w2/seed0");
  s.faults = FaultPlan{FaultKind::kMinorityCrash, 7};
  EXPECT_EQ(s.key(), "abd/rand/p3/w2/fminority-c7/seed0");
  s.abd_read_write_back = false;
  EXPECT_EQ(s.key(), "abd/rand/p3/w2/nowb/fminority-c7/seed0");
  Scenario st;
  st.algorithm = Algorithm::kAlg2;
  st.processes = 5;
  st.seed = 42;
  st.faults = FaultPlan{FaultKind::kStall, 3};
  EXPECT_EQ(st.key(), "alg2/rand/p5/w2/fstall-c3/seed42");
}

TEST(Scenario, ModeledKeysNameTheirSemanticsAndIntegersPrintInFull) {
  // The modeled family spells its semantics into the key, and every
  // integer prints in plain decimal at its widest: stores and digests
  // fold these exact bytes.
  Scenario s;
  s.algorithm = Algorithm::kModeled;
  s.semantics = sim::Semantics::kWriteStrong;
  s.adversary = AdversaryKind::kRoundRobin;
  s.processes = 5;
  s.writes_per_process = 3;
  s.seed = 9;
  EXPECT_EQ(s.key(), "modeled-write-strongly-linearizable/rr/p5/w3/seed9");
  s.semantics = sim::Semantics::kLinearizable;
  s.faults = FaultPlan{FaultKind::kStall, UINT64_MAX};
  s.seed = UINT64_MAX;
  EXPECT_EQ(s.key(),
            "modeled-linearizable/rr/p5/w3/fstall-c18446744073709551615/"
            "seed18446744073709551615");
  Scenario a = abd_scenario(UINT64_MAX);
  a.faults = FaultPlan{FaultKind::kLossy, 0};
  a.faults.param = UINT32_MAX;
  EXPECT_EQ(a.key(),
            "abd/rand/p3/w2/flossy-d4294967295-c0/seed18446744073709551615");
}

TEST(Scenario, CrashRunsAreDeterministic) {
  // Same scenario (schedule seed × crash seed) => identical fingerprint,
  // verdict, and detail — the property the fault-axis digest rests on.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    for (std::uint64_t crash_seed = 0; crash_seed < 3; ++crash_seed) {
      Scenario s = abd_scenario(seed);
      s.faults = FaultPlan{FaultKind::kMinorityCrash, crash_seed};
      const ScenarioResult a = run_scenario(s);
      const ScenarioResult b = run_scenario(s);
      EXPECT_EQ(a.verdict, b.verdict) << s.key();
      EXPECT_EQ(a.steps, b.steps) << s.key();
      EXPECT_EQ(a.ops, b.ops) << s.key();
      EXPECT_EQ(a.history_hash, b.history_hash) << s.key();
      EXPECT_EQ(a.detail, b.detail) << s.key();
    }
  }
}

TEST(Scenario, MinorityCrashesBlockOrPassButNeverErrorOrViolate) {
  // ABD is correct under minority crashes (Theorem 14's regime): every
  // seeded crash schedule either still completes (kOk) or strands ops on
  // crashed nodes (kBlocked).  kError/kViolation would be a driver or
  // register bug.  The sweep must find at least one genuinely blocked
  // run, and blocked runs must have invocation-only ops fingerprinted.
  int blocked = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    for (const AdversaryKind adv :
         {AdversaryKind::kRandom, AdversaryKind::kRoundRobin}) {
      Scenario s = abd_scenario(seed);
      s.adversary = adv;
      s.faults = FaultPlan{FaultKind::kMinorityCrash, 0};
      const ScenarioResult r = run_scenario(s);
      ASSERT_TRUE(r.verdict == Verdict::kOk || r.verdict == Verdict::kBlocked)
          << s.key() << ": [" << to_string(r.verdict) << "] " << r.detail;
      if (r.verdict == Verdict::kBlocked) {
        ++blocked;
        EXPECT_NE(r.detail.find("checked clean"), std::string::npos);
      }
    }
  }
  EXPECT_GT(blocked, 0);
}

TEST(Scenario, HandBuiltBlockedByCrashScheduleIsBlocked) {
  // Hand-built blocked schedule: a reader starts, its node crashes, the
  // network drains.  The stranded read can never complete; the verdict
  // taxonomy must call this kBlocked — not kError (nothing failed) and
  // not kViolation (the history up to the block is fine).
  mp::Network net;
  mp::AbdRegister reg(net, 3, /*writer=*/0, /*initial=*/0);
  const int r = reg.begin_read(1);
  net.crash(1);
  util::Rng rng(1);
  while (net.deliver_random(rng)) {
  }
  ASSERT_EQ(reg.pending_ops(), 1);
  EXPECT_EQ(reg.op_node(r), 1);
  EXPECT_FALSE(reg.op_can_complete(r));
  ScenarioResult out;
  classify_run(reg.hl_history(), RunEnd::kBlocked,
               "blocked: hand-built crash schedule", out);
  EXPECT_EQ(out.verdict, Verdict::kBlocked);
  EXPECT_NE(out.detail.find("hand-built"), std::string::npos);
}

TEST(Scenario, FaultsOnNonAbdConfigsAreErrors) {
  for (const Algorithm alg :
       {Algorithm::kModeled, Algorithm::kAlg2, Algorithm::kAlg4}) {
    Scenario s;
    s.algorithm = alg;
    s.faults = FaultPlan{FaultKind::kMinorityCrash, 0};
    const ScenarioResult r = run_scenario(s);
    EXPECT_EQ(r.verdict, Verdict::kError) << to_string(alg);
  }
}

// ---------- stall-fault axis ----------

TEST(Scenario, StallFaultsOnAbdAreErrors) {
  // Stalls are a simulator-family fault; ABD has the crash axis instead.
  Scenario s = abd_scenario(0);
  s.faults = FaultPlan{FaultKind::kStall, 0};
  const ScenarioResult r = run_scenario(s);
  EXPECT_EQ(r.verdict, Verdict::kError);
}

TEST(Scenario, StallRunsBlockOrPassButNeverErrorOrViolate) {
  // The registers are wait-free: live processes always finish, so every
  // stall schedule is kOk (nobody was actually stalled: p=2 has no
  // strict minority) or kBlocked (stalled ops stranded, history clean).
  int blocked = 0;
  for (const Algorithm alg :
       {Algorithm::kModeled, Algorithm::kAlg2, Algorithm::kAlg4}) {
    for (const AdversaryKind adv :
         {AdversaryKind::kRandom, AdversaryKind::kRoundRobin}) {
      for (std::uint64_t seed = 0; seed < 10; ++seed) {
        Scenario s;
        s.algorithm = alg;
        s.semantics = sim::Semantics::kLinearizable;
        s.adversary = adv;
        s.processes = 4;
        s.seed = seed;
        s.faults = FaultPlan{FaultKind::kStall, 1};
        const ScenarioResult r = run_scenario(s);
        ASSERT_TRUE(r.verdict == Verdict::kOk ||
                    r.verdict == Verdict::kBlocked)
            << s.key() << ": [" << to_string(r.verdict) << "] " << r.detail;
        if (r.verdict == Verdict::kBlocked) {
          ++blocked;
          EXPECT_NE(r.detail.find("stalled"), std::string::npos) << r.detail;
          EXPECT_NE(r.detail.find("checked clean"), std::string::npos)
              << r.detail;
        }
      }
    }
  }
  EXPECT_GT(blocked, 0);
}

TEST(Scenario, StallRunsAreDeterministic) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    for (std::uint64_t fault_seed = 0; fault_seed < 2; ++fault_seed) {
      Scenario s;
      s.algorithm = Algorithm::kAlg2;
      s.processes = 5;
      s.seed = seed;
      s.faults = FaultPlan{FaultKind::kStall, fault_seed};
      const ScenarioResult a = run_scenario(s);
      const ScenarioResult b = run_scenario(s);
      EXPECT_EQ(a.verdict, b.verdict) << s.key();
      EXPECT_EQ(a.steps, b.steps) << s.key();
      EXPECT_EQ(a.history_hash, b.history_hash) << s.key();
      EXPECT_EQ(a.detail, b.detail) << s.key();
    }
  }
}

TEST(Scenario, TwoProcessStallPlansDegenerateToFaultFreeRuns) {
  // p=2 has no strict minority: the plan freezes nobody and the run
  // completes exactly like its fault-free twin (only the key differs).
  Scenario s;
  s.algorithm = Algorithm::kAlg4;
  s.processes = 2;
  s.seed = 3;
  const ScenarioResult clean = run_scenario(s);
  s.faults = FaultPlan{FaultKind::kStall, 0};
  const ScenarioResult stalled = run_scenario(s);
  EXPECT_EQ(stalled.verdict, Verdict::kOk);
  EXPECT_EQ(clean.history_hash, stalled.history_hash);
  EXPECT_EQ(clean.steps, stalled.steps);
}

TEST(Enumerate, StallAxisMultipliesSimulatorFamiliesOnly) {
  SweepOptions o;
  o.seed_begin = 0;
  o.seed_end = 2;
  o.faults = {FaultKind::kNone, FaultKind::kStall};
  o.crash_seeds = {0, 1, 2};
  const std::vector<Scenario> all = enumerate_scenarios(o);
  // modeled: 3 semantics × (1 none + 3 stall); alg2/alg4: 4 each;
  // abd: 1 (stall does not apply).  × 2 adversaries × 1 procs × 2 seeds.
  EXPECT_EQ(all.size(), (3u * 4u + 4u + 4u + 1u) * 2u * 1u * 2u);
  std::set<std::string> keys;
  for (const Scenario& s : all) {
    keys.insert(s.key());
    if (s.algorithm == Algorithm::kAbd) {
      EXPECT_EQ(s.faults.kind, FaultKind::kNone) << s.key();
    }
  }
  EXPECT_EQ(keys.size(), all.size());
}

TEST(Sweep, StallSweepDigestIsIndependentOfThreadsAndBatch) {
  SweepOptions o;
  o.algorithms = {Algorithm::kModeled, Algorithm::kAlg2, Algorithm::kAlg4};
  o.faults = {FaultKind::kStall};
  o.crash_seeds = {0, 1};
  o.process_counts = {3};
  o.seed_begin = 0;
  o.seed_end = 15;
  o.threads = 1;
  const SweepSummary seq = run_sweep(o);
  o.threads = 4;
  const SweepSummary par = run_sweep(o);
  EXPECT_EQ(seq.stable_text(), par.stable_text());
  EXPECT_GT(seq.blocked, 0u);
  EXPECT_EQ(seq.violations, 0u);
  EXPECT_EQ(seq.errors, 0u);
  EXPECT_EQ(seq.ok + seq.blocked, seq.scenarios);
}

TEST(Scenario, ViolationInBudgetExhaustedScheduleIsNotMasked) {
  // Regression for the verdict-masking bug: run_abd used to return
  // kError on budget exhaustion BEFORE running any checker, so a real
  // linearizability violation in a long schedule reported as an error.
  // Plant genuine violations with the no-write-back ablation, then
  // truncate the budget: the violating prefix must classify kViolation
  // even when the budget ran out.  (5 processes: with 3 servers every
  // two read quorums share the written-to server, so the ablation's
  // new/old inversion needs the wider quorum geometry to show up.)
  Scenario base = abd_scenario(0);
  base.processes = 5;
  base.abd_read_write_back = false;
  std::optional<std::uint64_t> violating_seed;
  for (std::uint64_t seed = 0; seed < 300 && !violating_seed; ++seed) {
    base.seed = seed;
    if (run_scenario(base).verdict == Verdict::kViolation) {
      violating_seed = seed;
    }
  }
  ASSERT_TRUE(violating_seed.has_value())
      << "no ablation violation found — widen the seed scan";
  base.seed = *violating_seed;
  bool masked_case_hit = false;
  for (std::uint64_t budget = 1; budget <= 600 && !masked_case_hit; ++budget) {
    base.max_actions = budget;
    const ScenarioResult r = run_scenario(base);
    // Budget-exhausted prefixes without the violating read yet are
    // honest errors; once the violation is in the recorded prefix it
    // must win over the budget classification.
    if (r.verdict == Verdict::kViolation &&
        r.detail.find("action budget") != std::string::npos) {
      masked_case_hit = true;
    }
  }
  EXPECT_TRUE(masked_case_hit)
      << "no budget-exhausted truncation reported the planted violation";
}

TEST(Scenario, HashHistoryCoversInvocationOnlyOps) {
  history::History a;
  history::History b;
  history::OpRecord w;
  w.process = 0;
  w.reg = 0;
  w.kind = history::OpKind::kWrite;
  w.value = 7;
  w.invoke = 1;
  w.response = history::kNoTime;  // pending: invocation-only
  a.add(w);
  w.value = 8;
  b.add(w);
  // Pending ops are digest material: two histories differing only in a
  // stranded op's payload must fingerprint differently.
  EXPECT_NE(hash_history(a), hash_history(b));
  EXPECT_NE(hash_history(a), hash_history(history::History{}));
}

// ---------- sweep smoke + digest determinism ----------

SweepOptions small_sweep(int threads) {
  SweepOptions o;
  o.seed_begin = 0;
  o.seed_end = 6;
  o.process_counts = {2, 3};
  o.threads = threads;
  return o;
}

TEST(Sweep, SmokeAllScenariosPassOnFourThreads) {
  const SweepSummary sum = run_sweep(small_sweep(4));
  EXPECT_EQ(sum.scenarios, (3u + 3u) * 2u * 2u * 6u);
  EXPECT_EQ(sum.ok, sum.scenarios)
      << (sum.failures.empty() ? "" : sum.failures.front());
  EXPECT_EQ(sum.violations, 0u);
  EXPECT_EQ(sum.errors, 0u);
  EXPECT_GT(sum.total_steps, 0u);
  EXPECT_GT(sum.total_ops, 0u);
}

TEST(Sweep, BackToBackRunsEmitIdenticalDigests) {
  const SweepSummary a = run_sweep(small_sweep(4));
  const SweepSummary b = run_sweep(small_sweep(4));
  EXPECT_EQ(a.digest, b.digest);
  // Byte-identical deterministic summary section, not just the digest.
  EXPECT_EQ(a.stable_text(), b.stable_text());
}

TEST(Sweep, DigestIsIndependentOfThreadCount) {
  const SweepSummary seq = run_sweep(small_sweep(1));
  const SweepSummary par = run_sweep(small_sweep(4));
  EXPECT_EQ(seq.stable_text(), par.stable_text());
}

TEST(Sweep, DigestDependsOnTheSeedRange) {
  SweepOptions a = small_sweep(2);
  SweepOptions b = small_sweep(2);
  b.seed_begin = 6;
  b.seed_end = 12;
  EXPECT_NE(run_sweep(a).digest, run_sweep(b).digest);
}

TEST(Enumerate, FaultAxisMultipliesAbdOnly) {
  SweepOptions o;
  o.seed_begin = 0;
  o.seed_end = 2;
  o.faults = {FaultKind::kNone, FaultKind::kMinorityCrash};
  o.crash_seeds = {0, 1, 2};
  const std::vector<Scenario> all = enumerate_scenarios(o);
  // modeled: 3 semantics; alg2/alg4: 1 each; abd: 1 crash-free + 3
  // minority crash seeds.  × 2 adversaries × 1 process count × 2 seeds.
  EXPECT_EQ(all.size(), (3u + 1u + 1u + 4u) * 2u * 1u * 2u);
  std::set<std::string> keys;
  for (const Scenario& s : all) {
    keys.insert(s.key());
    if (s.algorithm != Algorithm::kAbd) {
      EXPECT_EQ(s.faults.kind, FaultKind::kNone) << s.key();
    }
  }
  EXPECT_EQ(keys.size(), all.size());
}

TEST(Sweep, CrashSweepDigestIsIndependentOfThreadsAndBatch) {
  SweepOptions o;
  o.algorithms = {Algorithm::kAbd};
  o.faults = {FaultKind::kNone, FaultKind::kMinorityCrash};
  o.crash_seeds = {0, 1};
  o.seed_begin = 0;
  o.seed_end = 30;
  o.threads = 1;
  const SweepSummary seq = run_sweep(o);
  o.threads = 4;
  const SweepSummary par = run_sweep(o);
  EXPECT_EQ(seq.stable_text(), par.stable_text());
  // The crash axis must actually exercise the new verdict: blocked runs
  // are counted in their own bucket and are neither violations nor
  // errors.
  EXPECT_GT(seq.blocked, 0u);
  EXPECT_EQ(seq.violations, 0u);
  EXPECT_EQ(seq.errors, 0u);
  EXPECT_EQ(seq.ok + seq.blocked, seq.scenarios);
  EXPECT_NE(seq.stable_text().find("blocked "), std::string::npos);
}

TEST(Sweep, FailureListTruncationIsNeverSilent) {
  // Unit check of the marker rendering...
  SweepSummary sum;
  sum.failures = {"k1: [blocked] x", "k2: [blocked] y"};
  sum.failures_truncated = 5;
  EXPECT_NE(sum.stable_text().find("... and 5 more non-ok"),
            std::string::npos);
  sum.failures_truncated = 0;
  EXPECT_EQ(sum.stable_text().find("... and"), std::string::npos);

  // ...and end-to-end: a crash sweep with far more than
  // kMaxReportedFailures blocked scenarios must say how many the
  // failure list left out (list cap is 16; counters stay complete).
  SweepOptions o;
  o.algorithms = {Algorithm::kAbd};
  o.faults = {FaultKind::kMinorityCrash};
  o.seed_begin = 0;
  o.seed_end = 100;
  o.threads = 4;
  const SweepSummary s = run_sweep(o);
  ASSERT_GT(s.blocked, 16u) << "crash axis produced too few blocked runs";
  EXPECT_EQ(s.failures.size(), 16u);
  EXPECT_EQ(s.failures_truncated, s.blocked - 16u);
  EXPECT_NE(s.stable_text().find("more non-ok"), std::string::npos);
}

// ---------- unreliable-network fault fabric ----------

TEST(Scenario, UnreliableFaultKeysSpellTheirAxes) {
  Scenario s = abd_scenario(0);
  s.faults = FaultPlan{FaultKind::kLossy, 2};
  s.faults.param = 300;
  EXPECT_EQ(s.key(), "abd/rand/p3/w2/flossy-d300-c2/seed0");
  s.faults = FaultPlan{FaultKind::kDuplicate, 1};
  EXPECT_EQ(s.key(), "abd/rand/p3/w2/fdup-c1/seed0");
  s.faults = FaultPlan{FaultKind::kPartition, 0};
  EXPECT_EQ(s.key(), "abd/rand/p3/w2/fpartition-c0/seed0");
  s.faults = FaultPlan{FaultKind::kMajorityCrash, 3};
  EXPECT_EQ(s.key(), "abd/rand/p3/w2/fmajority-c3/seed0");
  s.faults = FaultPlan{FaultKind::kCrashRecovery, 4};
  EXPECT_EQ(s.key(), "abd/rand/p3/w2/frecovery-c4/seed0");
  s.explore_faults = true;
  EXPECT_EQ(s.key(), "abd/rand/p3/w2/frecovery-c4/fmenu/seed0");
}

TEST(Scenario, LossyDupAndHealedPartitionRunsAllCheckOk) {
  // These regimes only delay — loss and healed cuts are repaired by
  // retransmission, duplicates by receiver-side dedup — so every run
  // must complete every op and check clean.  kBlocked here would mean
  // the retransmission layer gave up; kError that it spun the budget.
  for (const FaultKind kind :
       {FaultKind::kLossy, FaultKind::kDuplicate, FaultKind::kPartition}) {
    for (std::uint64_t seed = 0; seed < 15; ++seed) {
      for (std::uint64_t fault_seed = 0; fault_seed < 2; ++fault_seed) {
        for (const AdversaryKind adv :
             {AdversaryKind::kRandom, AdversaryKind::kRoundRobin}) {
          Scenario s = abd_scenario(seed);
          s.adversary = adv;
          s.faults = FaultPlan{kind, fault_seed};
          // The acceptance envelope's worst drop rate (p = 0.3).
          if (kind == FaultKind::kLossy) s.faults.param = 300;
          const ScenarioResult r = run_scenario(s);
          ASSERT_EQ(r.verdict, Verdict::kOk)
              << s.key() << ": [" << to_string(r.verdict) << "] " << r.detail;
          EXPECT_EQ(r.ops, 7u) << s.key();  // 2 writes + 5 reads, all done
        }
      }
    }
  }
}

TEST(Scenario, LossyRunsActuallyDropAndRetransmit) {
  // The lossy axis must not silently degenerate to a reliable run: the
  // recorded network counters prove messages were really lost (and the
  // run completed anyway).
  std::uint64_t dropped = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Scenario s = abd_scenario(seed);
    s.faults = FaultPlan{FaultKind::kLossy, 0};
    s.faults.param = 300;
    const ScenarioResult r = run_scenario(s);
    dropped += r.net_dropped;
    EXPECT_EQ(r.steps, r.net_delivered + r.net_dropped) << s.key();
  }
  EXPECT_GT(dropped, 0u);
}

TEST(Scenario, DuplicateRunsActuallyDuplicate) {
  std::uint64_t duplicated = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Scenario s = abd_scenario(seed);
    s.faults = FaultPlan{FaultKind::kDuplicate, 0};
    const ScenarioResult r = run_scenario(s);
    duplicated += r.net_duplicated;
  }
  EXPECT_GT(duplicated, 0u);
}

TEST(Scenario, MajorityCrashAlwaysBlocksAndChecksClean) {
  // A quorum dies mid-broadcast before any op can complete (the earliest
  // scheduled crash attempt is at most n+1, and no reply can be sent
  // before attempt n+1): every run must be kBlocked — never kError, and
  // never kOk — with its truncated history checked clean.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    for (std::uint64_t fault_seed = 0; fault_seed < 3; ++fault_seed) {
      Scenario s = abd_scenario(seed);
      s.faults = FaultPlan{FaultKind::kMajorityCrash, fault_seed};
      const ScenarioResult r = run_scenario(s);
      ASSERT_EQ(r.verdict, Verdict::kBlocked)
          << s.key() << ": [" << to_string(r.verdict) << "] " << r.detail;
      EXPECT_NE(r.detail.find("checked clean"), std::string::npos) << s.key();
    }
  }
}

TEST(Scenario, CrashRecoveryRunsNeverErrorOrViolate) {
  // Crash-recovery runs split between kOk (the victim was idle when it
  // died and resumed its program after recovery) and kBlocked (an op in
  // flight at crash time is abandoned — pending in the history forever,
  // reported honestly).  Both verdicts check the history clean; kError
  // (e.g. a recovered node overlapping its own abandoned op) and
  // kViolation (durable state lost on recovery) are register/driver bugs.
  int ok = 0;
  int blocked = 0;
  int abandoned_details = 0;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    for (std::uint64_t fault_seed = 0; fault_seed < 3; ++fault_seed) {
      Scenario s = abd_scenario(seed);
      s.faults = FaultPlan{FaultKind::kCrashRecovery, fault_seed};
      const ScenarioResult r = run_scenario(s);
      ASSERT_TRUE(r.verdict == Verdict::kOk || r.verdict == Verdict::kBlocked)
          << s.key() << ": [" << to_string(r.verdict) << "] " << r.detail;
      if (r.verdict == Verdict::kOk) ++ok;
      if (r.verdict == Verdict::kBlocked) {
        ++blocked;
        EXPECT_NE(r.detail.find("checked clean"), std::string::npos);
        if (r.detail.find("abandoned by crash-recovery") !=
            std::string::npos) {
          ++abandoned_details;
        }
      }
    }
  }
  // The axis must exercise both outcomes, and blocked runs must say WHY.
  EXPECT_GT(ok, 0);
  EXPECT_GT(blocked, 0);
  EXPECT_GT(abandoned_details, 0);
}

TEST(Scenario, UnreliableRunsAreDeterministic) {
  for (const FaultKind kind :
       {FaultKind::kLossy, FaultKind::kDuplicate, FaultKind::kPartition,
        FaultKind::kMajorityCrash, FaultKind::kCrashRecovery}) {
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
      Scenario s = abd_scenario(seed);
      s.faults = FaultPlan{kind, seed + 1};
      if (kind == FaultKind::kLossy) s.faults.param = 250;
      const ScenarioResult a = run_scenario(s);
      const ScenarioResult b = run_scenario(s);
      EXPECT_EQ(a.verdict, b.verdict) << s.key();
      EXPECT_EQ(a.steps, b.steps) << s.key();
      EXPECT_EQ(a.history_hash, b.history_hash) << s.key();
      EXPECT_EQ(a.net_delivered, b.net_delivered) << s.key();
      EXPECT_EQ(a.net_dropped, b.net_dropped) << s.key();
      EXPECT_EQ(a.net_duplicated, b.net_duplicated) << s.key();
      EXPECT_EQ(a.detail, b.detail) << s.key();
    }
  }
}

TEST(Scenario, UnreliableFaultsOnNonAbdConfigsAreErrors) {
  for (const FaultKind kind :
       {FaultKind::kLossy, FaultKind::kDuplicate, FaultKind::kPartition,
        FaultKind::kMajorityCrash, FaultKind::kCrashRecovery}) {
    for (const Algorithm alg :
         {Algorithm::kModeled, Algorithm::kAlg2, Algorithm::kAlg4}) {
      Scenario s;
      s.algorithm = alg;
      s.faults = FaultPlan{kind, 0};
      if (kind == FaultKind::kLossy) s.faults.param = 100;
      const ScenarioResult r = run_scenario(s);
      EXPECT_EQ(r.verdict, Verdict::kError)
          << to_string(alg) << " × " << to_string(kind);
    }
  }
}

TEST(Scenario, LossyParamOutOfRangeIsAnErrorNotACrash) {
  Scenario s = abd_scenario(0);
  s.faults = FaultPlan{FaultKind::kLossy, 0};
  s.faults.param = 0;  // certain-loss/no-loss params are config bugs
  EXPECT_EQ(run_scenario(s).verdict, Verdict::kError);
  s.faults.param = 1000;
  EXPECT_EQ(run_scenario(s).verdict, Verdict::kError);
}

TEST(Enumerate, UnreliableKindsMultiplyAbdOnlyAndCarryTheDropParam) {
  SweepOptions o;
  o.seed_begin = 0;
  o.seed_end = 2;
  o.faults = {FaultKind::kNone, FaultKind::kLossy, FaultKind::kPartition,
              FaultKind::kMajorityCrash};
  o.crash_seeds = {0, 1};
  o.drop_permille = 300;
  const std::vector<Scenario> all = enumerate_scenarios(o);
  // modeled: 3 semantics; alg2/alg4: 1 each (kNone only — the unreliable
  // kinds don't apply); abd: 1 fault-free + 3 kinds × 2 fault seeds.
  EXPECT_EQ(all.size(), (3u + 1u + 1u + 7u) * 2u * 1u * 2u);
  bool saw_param = false;
  for (const Scenario& s : all) {
    if (s.algorithm != Algorithm::kAbd) {
      EXPECT_EQ(s.faults.kind, FaultKind::kNone) << s.key();
    }
    if (s.faults.kind == FaultKind::kLossy) {
      EXPECT_EQ(s.faults.param, 300u) << s.key();
      EXPECT_NE(s.key().find("flossy-d300-c"), std::string::npos);
      saw_param = true;
    }
  }
  EXPECT_TRUE(saw_param);
}

TEST(Sweep, UnreliableSweepDigestIsIndependentOfThreadsAndBatch) {
  SweepOptions o;
  o.algorithms = {Algorithm::kAbd};
  o.faults = {FaultKind::kLossy, FaultKind::kDuplicate, FaultKind::kPartition,
              FaultKind::kMajorityCrash, FaultKind::kCrashRecovery};
  o.crash_seeds = {0, 1};
  o.seed_begin = 0;
  o.seed_end = 15;
  o.threads = 1;
  const SweepSummary seq = run_sweep(o);
  o.threads = 4;
  const SweepSummary par = run_sweep(o);
  EXPECT_EQ(seq.stable_text(), par.stable_text());
  EXPECT_EQ(seq.violations, 0u);
  EXPECT_EQ(seq.errors, 0u);
  EXPECT_GT(seq.ok, 0u);       // the repairable kinds all pass
  EXPECT_GT(seq.blocked, 0u);  // majority loss all blocks
}

TEST(Sweep, DropProbIsItsOwnDigestAxis) {
  SweepOptions o;
  o.algorithms = {Algorithm::kAbd};
  o.faults = {FaultKind::kLossy};
  o.seed_begin = 0;
  o.seed_end = 10;
  o.drop_permille = 100;
  const SweepSummary light = run_sweep(o);
  o.drop_permille = 300;
  const SweepSummary heavy = run_sweep(o);
  // Different loss rates are different scenarios (keyed), and both
  // complete everything.
  EXPECT_NE(light.digest, heavy.digest);
  EXPECT_EQ(light.ok, light.scenarios);
  EXPECT_EQ(heavy.ok, heavy.scenarios);
}

TEST(Sweep, DigestMatchesThePr1Baseline) {
  // Pinned regression digest, recorded from the PR 1 checker/engine on
  // this exact configuration (sweep_main --processes 3 --seeds 0:50
  // --threads 4).  A change here means scenario BEHAVIOUR changed — a
  // simulator, register-algorithm, or checker semantic difference — not
  // just a performance difference; bump it only with an explanation.
  SweepOptions o;
  o.seed_begin = 0;
  o.seed_end = 50;
  o.process_counts = {3};
  o.threads = 4;
  const SweepSummary sum = run_sweep(o);
  EXPECT_EQ(sum.scenarios, 600u);
  EXPECT_EQ(sum.ok, 600u);
  EXPECT_EQ(sum.digest, 0x74043e05615bfe8fULL);
}

// ---------- stamping (engine.hpp) ----------

/// Default families and adversaries at p2 and p3 under none, minority,
/// stall and lossy faults with two fault seeds, checked online: 80
/// configs per seed.  At p2 there is no strict minority to crash or
/// stall, so the rr configs of those plans draw nothing either.
SweepOptions stamp_sweep(int threads) {
  SweepOptions o;
  o.process_counts = {2, 3};
  o.faults = {FaultKind::kNone, FaultKind::kMinorityCrash, FaultKind::kStall,
              FaultKind::kLossy};
  o.crash_seeds = {0, 1};
  o.online = true;
  o.seed_begin = 0;
  o.seed_end = 30;
  o.threads = threads;
  return o;
}

/// A store's or trace's lines with everything before each record's key
/// (its gi) dropped.
std::vector<std::string> records_without_gi(const std::string& store) {
  std::vector<std::string> out;
  std::istringstream in(store);
  for (std::string line; std::getline(in, line);) {
    out.push_back("{" + line.substr(line.find("\"key\"")));
  }
  return out;
}

/// Every stable counter, gauge and histogram bucket of the registry.
std::vector<std::uint64_t> stable_metrics() {
  const obs::Snapshot snap = obs::snapshot_all();
  std::vector<std::uint64_t> out;
  for (int i = 0; i < obs::kNumCounters; ++i) {
    if (obs::counter_stable(static_cast<obs::Counter>(i))) {
      out.push_back(snap.data.counters[static_cast<std::size_t>(i)]);
    }
  }
  for (int i = 0; i < obs::kNumGauges; ++i) {
    if (obs::gauge_stable(static_cast<obs::Gauge>(i))) {
      out.push_back(snap.data.gauges[static_cast<std::size_t>(i)]);
    }
  }
  for (int i = 0; i < obs::kNumHists; ++i) {
    if (obs::hist_stable(static_cast<obs::Hist>(i))) {
      const auto& buckets = snap.data.hists[static_cast<std::size_t>(i)];
      out.insert(out.end(), buckets.begin(), buckets.end());
    }
  }
  return out;
}

TEST(Sweep, RangeEqualsItsSingleSeedSweeps) {
  // Each config appears once in a single-seed sweep, so nothing in it is
  // stamped: it is the reference the stamped range run must reproduce,
  // record for record and span for span, in its digest and in its
  // stable metrics.
  const SweepOptions range_opts = stamp_sweep(1);
  obs::set_enabled(true);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    obs::reset();
    std::vector<std::string> singles;
    std::vector<std::string> single_spans;
    SweepFold fold;
    for (std::uint64_t seed = range_opts.seed_begin;
         seed < range_opts.seed_end; ++seed) {
      SweepOptions one = stamp_sweep(threads);
      one.seed_begin = seed;
      one.seed_end = seed + 1;
      StringSink store;
      StringSink trace;
      obs::Hooks hooks;
      hooks.trace = &trace;
      const SweepSummary sum = run_sweep(one, 0, &store, &hooks);
      EXPECT_EQ(sum.engine.stamped, 0u);
      std::istringstream in(store.text());
      for (std::string line; std::getline(in, line);) {
        ASSERT_TRUE(fold.add_record(line)) << line;
      }
      for (std::string& r : records_without_gi(store.text())) {
        singles.push_back(std::move(r));
      }
      for (std::string& r : records_without_gi(trace.text())) {
        single_spans.push_back(std::move(r));
      }
    }
    const std::vector<std::uint64_t> single_metrics = stable_metrics();
    obs::reset();

    StringSink store;
    StringSink trace;
    obs::Hooks hooks;
    hooks.trace = &trace;
    const SweepSummary range =
        run_sweep(stamp_sweep(threads), 0, &store, &hooks);
    EXPECT_EQ(range.scenarios, 2400u);
    EXPECT_EQ(records_without_gi(store.text()), singles);
    EXPECT_EQ(records_without_gi(trace.text()), single_spans);
    EXPECT_EQ(range.stable_text(), fold.finish(nullptr).stable_text());
    EXPECT_EQ(stable_metrics(), single_metrics);
  }
  obs::set_enabled(false);
  obs::reset();
}

TEST(Sweep, StampsEveryLaterSeedOfEachSeedFreeConfig) {
  // On one thread a config's first run decides it before its next seed
  // starts, so the count is exact.  A new Rng draw on a seed-free path
  // would drop it.
  SweepOptions o;
  o.seed_begin = 0;
  o.seed_end = 50;
  // Default axes: the six fault-free rr configs draw nothing.
  EXPECT_EQ(run_sweep(o).engine.stamped, 6u * 49u);
  o.adversaries = {AdversaryKind::kRandom};
  EXPECT_EQ(run_sweep(o).engine.stamped, 0u);
  // 20 simulator rr configs (p3 fault-free, p2 under every plan) and 4
  // ABD ones (p3 fault-free, p2 fault-free and minority).
  EXPECT_EQ(run_sweep(stamp_sweep(1)).engine.stamped, 24u * 29u);
}

TEST(Sweep, OnlyTheSafetySweepStamps) {
  term::TermSweepOptions t;
  t.process_counts = {2};
  t.round_budgets = {4};
  t.seed_end = 5;
  const term::TermSummary term = term::run_term_sweep(t);
  EXPECT_GT(term.scenarios, 0u);
  EXPECT_EQ(term.engine.stamped, 0u);

  explore::ExploreOptions e;
  e.objective = explore::Objective::kViolation;
  e.algorithms = {Algorithm::kModeled};
  e.process_counts = {2};
  e.writes_per_process = 1;
  e.search_budget = 1;
  e.shrink_budget = 0;
  e.seed_end = 5;
  const explore::ExploreSummary explore = explore::run_explore(e);
  EXPECT_EQ(explore.instances, 5u);
  EXPECT_EQ(explore.engine.stamped, 0u);
}

}  // namespace
}  // namespace rlt::sweep
