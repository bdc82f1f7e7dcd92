// sweep_main — CLI driver for the parallel scenario-sweep engine.
//
// Three modes share the streaming engine (src/sweep/engine.hpp), the
// digest discipline, and the result store:
//
//  * Safety (default): the cross-product of register semantics ×
//    algorithm × adversary × process count × fault plan × seed, every
//    recorded history validated with the appropriate checker.
//  * Termination (--term): the termination lab — algorithm family
//    (consensus, composed, coin, game) × adversary (scripted Theorem 6,
//    random, stalling) × process count × round budget × seed, recording
//    per-scenario termination statistics instead of only a verdict.
//  * Exploration (--explore): the exploration lab — instead of sampling
//    schedules it SEARCHES them: per (workload, instance seed) an
//    adaptive adversary (--strategy greedy|hill|random) spends
//    --search-budget runs maximizing rounds-to-decide (--objective
//    rounds, term families) or hunting checker violations (--objective
//    violation, register families).  Best schedules are recorded as
//    replayable traces, shrunk with delta debugging, and persisted via
//    --out; `--replay store.jsonl` re-runs persisted traces and verifies
//    they reproduce byte-identically.
//
// In every mode the aggregate summary's digest is a pure function of the
// flags: back-to-back runs with identical flags emit byte-identical
// digest sections regardless of --threads, and --out writes one
// canonical JSONL record per scenario/instance (also byte-identical
// across thread counts) for cross-commit diffing with
// tools/sweep_diff.py.
//
// Examples:
//   sweep_main --processes 3 --seeds 0:1000 --threads 8
//   sweep_main --algorithms alg2,abd --adversaries rand --seeds 0:50
//   sweep_main --algorithms abd --faults minority --seeds 0:200 --threads 8
//   sweep_main --term --families game --term-adversaries scripted
//       --processes 5 --seeds 0:100 --out term.jsonl
//   sweep_main --explore --objective rounds --families game
//       --strategy greedy --rounds 16 --search-budget 8 --seeds 0:4
//   sweep_main --explore --objective violation --algorithms abd
//       --ablate nowb --search-budget 200 --seeds 0:2 --out cex.jsonl
//   sweep_main --replay cex.jsonl
//
// Exit status: 0 when nothing failed (safety: no VIOLATION/ERROR —
// blocked runs are the fault axes doing their job; termination: no
// safety violation or error — capped runs are Theorem 6 doing its job;
// exploration: no instance errored — FINDING a violation is the
// objective, not a failure; replay: every persisted trace reproduced);
// 1 on failures; 2 on bad usage.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "explore/explore.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "sweep/store.hpp"
#include "sweep/sweep.hpp"
#include "term/term_sweep.hpp"

namespace {

using rlt::explore::ExploreOptions;
using rlt::sweep::AdversaryKind;
using rlt::sweep::Algorithm;
using rlt::sweep::SweepOptions;
using rlt::sweep::SweepSummary;
using rlt::term::TermSweepOptions;

[[noreturn]] void usage(int code) {
  std::cerr <<
      "usage: sweep_main [options]\n"
      "safety mode (default):\n"
      "  --algorithms LIST   comma list of modeled,alg2,alg4,abd "
      "(default: all)\n"
      "  --semantics LIST    comma list of atomic,lin,wsl — the register\n"
      "                      models swept for 'modeled' scenarios "
      "(default: all)\n"
      "  --adversaries LIST  comma list of rand,rr (default: both)\n"
      "  --faults LIST       comma list of none,minority,stall,lossy,dup,\n"
      "                      partition,majority,recovery (default: none).\n"
      "                      'minority' seeds strict-minority crash\n"
      "                      schedules into abd scenarios; 'stall' freezes\n"
      "                      a seeded strict minority of simulator-family\n"
      "                      processes after one step; 'lossy' drops each\n"
      "                      abd message with --drop-prob, 'dup' redelivers\n"
      "                      a seeded fraction, 'partition' cuts a seeded\n"
      "                      minority off and heals the cut (all three ride\n"
      "                      on abd retransmission and must end ok);\n"
      "                      'majority' crashes a quorum mid-broadcast\n"
      "                      (every run blocks), 'recovery' crashes a\n"
      "                      minority and restarts them from durable state.\n"
      "                      Runs stranded by a fault report the 'blocked'\n"
      "                      verdict\n"
      "  --crash-seeds A:B   fault-schedule seed range for faulty\n"
      "                      scenarios, A inclusive, B exclusive "
      "(default: 0:1)\n"
      "  --fault-seeds A:B   alias of --crash-seeds (the range seeds every\n"
      "                      fault kind's schedule, not just crashes)\n"
      "  --drop-prob P       per-message drop probability for 'lossy',\n"
      "                      0 < P <= 0.95 (default: 0.1); requires lossy\n"
      "                      in --faults\n"
      "  --writes N          writes per writer role (default: 2)\n"
      "  --online            replay every checkable history through the\n"
      "                      streaming online checker and report any\n"
      "                      batch/online verdict split as ERROR; when the\n"
      "                      checkers agree the records are byte-identical\n"
      "                      to an offline sweep (also valid with\n"
      "                      --explore --objective violation)\n"
      "termination mode:\n"
      "  --term              run the termination lab instead\n"
      "  --families LIST     comma list of consensus,composed,coin,game\n"
      "                      (default: all)\n"
      "  --term-adversaries LIST\n"
      "                      comma list of scripted,rand,stall (default:\n"
      "                      all; scripted pairs only with composed/game)\n"
      "  --rounds LIST       comma list of round budgets (default: 64)\n"
      "exploration mode:\n"
      "  --explore           run the schedule-search lab instead\n"
      "  --objective NAME    rounds (maximize rounds-to-decide, term\n"
      "                      families; reuses --families/--rounds) or\n"
      "                      violation (hunt checker violations, register\n"
      "                      families; reuses --algorithms/--writes)\n"
      "                      (default: rounds)\n"
      "  --strategy NAME     greedy, hill, or random (default: greedy)\n"
      "  --search-budget N   runs per search instance, >= 1 (default: 32)\n"
      "  --shrink-budget N   candidates the counterexample shrinker may\n"
      "                      test per instance (a repeat is not\n"
      "                      replayed); 0 disables shrinking\n"
      "                      (default: 4096)\n"
      "  --ablate KIND       plant a known bug for the search to find:\n"
      "                      'nowb' disables ABD's read write-back\n"
      "  --fault-menu        offer fault injections (drop, duplicate,\n"
      "                      crash, recover) as schedule-menu choices so\n"
      "                      the search hunts worst-case fault schedules\n"
      "                      (abd targets of --objective violation only)\n"
      "  --replay PATH       replay every explore record in a JSONL store\n"
      "                      and verify each reproduces byte-identically\n"
      "                      (standalone mode; exit 0 iff all match)\n"
      "common:\n"
      "  --processes LIST    comma list of process counts (default: 3;\n"
      "                      4 with --term and --explore --objective\n"
      "                      rounds)\n"
      "  --seeds A:B         seed range, A inclusive, B exclusive, A < B "
      "(default: 0:10)\n"
      "  --threads N         pool worker threads (default: 1)\n"
      "  --batch N           scenarios per pool task (default: 16; the\n"
      "                      digest does not depend on this)\n"
      "  --max-actions N     per-scenario action budget (default: 1000000,\n"
      "                      or 2000000 with --term)\n"
      "  --out PATH          write one canonical JSONL record per scenario\n"
      "                      (byte-identical across --threads; diff stores\n"
      "                      with tools/sweep_diff.py)\n"
      "  --shard I/N         run only shard I of N (0 <= I < N): the slice\n"
      "                      of the cross-product whose global enumeration\n"
      "                      index is congruent to I mod N.  Valid in every\n"
      "                      sweep mode; --out stores gain a shard header/\n"
      "                      trailer and per-record global indices, and\n"
      "                      running all N shards + --merge reproduces the\n"
      "                      unsharded store and digest byte-for-byte\n"
      "                      (tools/sweep_shard.py runs the whole fabric as\n"
      "                      one command)\n"
      "  --progress N        progress line every N scenarios (default: off)\n"
      "observability (valid in every run mode; never digest material —\n"
      "stores, digests, and summaries are byte-identical with or without\n"
      "these flags):\n"
      "  --metrics PATH      write the unified metrics registry (counters,\n"
      "                      gauges, histograms from every layer) as JSONL\n"
      "                      after the run; the \"stable\":true section is\n"
      "                      byte-identical across --threads/--batch\n"
      "                      (render/diff with tools/metrics_report.py)\n"
      "  --trace PATH        write one JSONL span per scenario in\n"
      "                      enumeration order: key, verdict fields, and\n"
      "                      per-scenario stable metric deltas;\n"
      "                      byte-identical across --threads/--batch\n"
      "  --trace-times       add wall-clock fields (wall_ns, check_ns, a\n"
      "                      closing sweep span) to --trace spans — opts\n"
      "                      out of byte-identity; needs --trace\n"
      "  --progress-fd N     stream machine-readable progress lines (one\n"
      "                      JSON object per line, final line has\n"
      "                      \"state\":\"done\") to open file descriptor N;\n"
      "                      tools/sweep_shard.py --progress consumes this\n"
      "  --heartbeat MS      human progress heartbeat to stderr every MS\n"
      "                      milliseconds\n"
      "  --forensics DIR     write one canonical-JSON forensics artifact\n"
      "                      per non-ok scenario into DIR (created if\n"
      "                      missing): scenario-<gi>.json with the full\n"
      "                      history, a re-verified minimal failure\n"
      "                      certificate on VIOLATION, the ABD quorum\n"
      "                      ledger on blocked runs, and the message\n"
      "                      timeline with happens-before edges; --explore\n"
      "                      --objective violation replays each shrunk\n"
      "                      witness into explore-<gi>.json.  Artifacts\n"
      "                      are byte-identical across --threads/--batch\n"
      "                      and across shards (gi filenames are disjoint,\n"
      "                      so all shards may share one DIR); convert\n"
      "                      with tools/trace_view.py for Perfetto\n"
      "  --list              print the scenario keys and exit\n"
      "merge mode:\n"
      "  --merge FILE...     validate and merge the named shard stores\n"
      "                      (written with --shard ... --out) back into the\n"
      "                      exact store + summary of the unsharded run.\n"
      "                      Standalone: only --out (the merged store path)\n"
      "                      may accompany it.  Exits 2 on a missing,\n"
      "                      duplicated, or inconsistent shard, naming the\n"
      "                      offender; otherwise exits like the equivalent\n"
      "                      sweep\n"
      "  --help              this text\n";
  std::exit(code);
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

[[noreturn]] void bad_value(const std::string& flag, const std::string& v) {
  std::cerr << "sweep_main: bad value '" << v << "' for " << flag << "\n";
  usage(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  // Digits only: std::stoull would silently wrap "-1" to 2^64-1.
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos) {
    bad_value(flag, v);
  }
  try {
    std::size_t pos = 0;
    const std::uint64_t x = std::stoull(v, &pos);
    if (pos != v.size()) bad_value(flag, v);
    return x;
  } catch (...) {
    bad_value(flag, v);
  }
}

void parse_algorithms(const std::string& v, SweepOptions& o) {
  o.algorithms.clear();
  for (const std::string& name : split_csv(v)) {
    if (name == "modeled") o.algorithms.push_back(Algorithm::kModeled);
    else if (name == "alg2") o.algorithms.push_back(Algorithm::kAlg2);
    else if (name == "alg4") o.algorithms.push_back(Algorithm::kAlg4);
    else if (name == "abd") o.algorithms.push_back(Algorithm::kAbd);
    else bad_value("--algorithms", name);
  }
  if (o.algorithms.empty()) bad_value("--algorithms", v);
}

void parse_semantics(const std::string& v, SweepOptions& o) {
  o.semantics.clear();
  for (const std::string& name : split_csv(v)) {
    if (name == "atomic") {
      o.semantics.push_back(rlt::sim::Semantics::kAtomic);
    } else if (name == "lin" || name == "linearizable") {
      o.semantics.push_back(rlt::sim::Semantics::kLinearizable);
    } else if (name == "wsl") {
      o.semantics.push_back(rlt::sim::Semantics::kWriteStrong);
    } else {
      bad_value("--semantics", name);
    }
  }
  if (o.semantics.empty()) bad_value("--semantics", v);
}

void parse_adversaries(const std::string& v, SweepOptions& o) {
  o.adversaries.clear();
  for (const std::string& name : split_csv(v)) {
    if (name == "rand" || name == "random") {
      o.adversaries.push_back(AdversaryKind::kRandom);
    } else if (name == "rr" || name == "roundrobin") {
      o.adversaries.push_back(AdversaryKind::kRoundRobin);
    } else {
      bad_value("--adversaries", name);
    }
  }
  if (o.adversaries.empty()) bad_value("--adversaries", v);
}

void parse_faults(const std::string& v, SweepOptions& o) {
  o.faults.clear();
  for (const std::string& name : split_csv(v)) {
    if (name == "none") {
      o.faults.push_back(rlt::sweep::FaultKind::kNone);
    } else if (name == "minority") {
      o.faults.push_back(rlt::sweep::FaultKind::kMinorityCrash);
    } else if (name == "stall") {
      o.faults.push_back(rlt::sweep::FaultKind::kStall);
    } else if (name == "lossy") {
      o.faults.push_back(rlt::sweep::FaultKind::kLossy);
    } else if (name == "dup" || name == "duplicate") {
      o.faults.push_back(rlt::sweep::FaultKind::kDuplicate);
    } else if (name == "partition") {
      o.faults.push_back(rlt::sweep::FaultKind::kPartition);
    } else if (name == "majority") {
      o.faults.push_back(rlt::sweep::FaultKind::kMajorityCrash);
    } else if (name == "recovery") {
      o.faults.push_back(rlt::sweep::FaultKind::kCrashRecovery);
    } else {
      bad_value("--faults", name);
    }
  }
  if (o.faults.empty()) bad_value("--faults", v);
}

void parse_drop_prob(const std::string& v, SweepOptions& o) {
  // A probability, not a permille: "0.1", not "100".  std::stod accepts
  // hex floats, inf, and trailing junk; reject anything but plain
  // digits-and-one-dot before converting.
  if (v.empty() ||
      v.find_first_not_of("0123456789.") != std::string::npos ||
      std::count(v.begin(), v.end(), '.') > 1) {
    bad_value("--drop-prob", v);
  }
  double p = 0.0;
  try {
    std::size_t pos = 0;
    p = std::stod(v, &pos);
    if (pos != v.size()) bad_value("--drop-prob", v);
  } catch (...) {
    bad_value("--drop-prob", v);
  }
  // > 0.95 would strand even retransmission-heavy runs in the action
  // budget more often than it tests anything; cap it like the tests do.
  const auto permille = static_cast<std::uint32_t>(p * 1000.0 + 0.5);
  if (p <= 0.0 || p > 0.95 || permille < 1 || permille > 950) {
    bad_value("--drop-prob", v);
  }
  o.drop_permille = permille;
}

void parse_families(const std::string& v, TermSweepOptions& o) {
  o.families.clear();
  for (const std::string& name : split_csv(v)) {
    if (name == "consensus") {
      o.families.push_back(rlt::term::Family::kConsensus);
    } else if (name == "composed") {
      o.families.push_back(rlt::term::Family::kComposed);
    } else if (name == "coin") {
      o.families.push_back(rlt::term::Family::kSharedCoin);
    } else if (name == "game") {
      o.families.push_back(rlt::term::Family::kGame);
    } else {
      bad_value("--families", name);
    }
  }
  if (o.families.empty()) bad_value("--families", v);
}

void parse_term_adversaries(const std::string& v, TermSweepOptions& o) {
  o.adversaries.clear();
  for (const std::string& name : split_csv(v)) {
    if (name == "scripted") {
      o.adversaries.push_back(rlt::term::TermAdversary::kScripted);
    } else if (name == "rand" || name == "random") {
      o.adversaries.push_back(rlt::term::TermAdversary::kRandom);
    } else if (name == "stall" || name == "stalling") {
      o.adversaries.push_back(rlt::term::TermAdversary::kStalling);
    } else {
      bad_value("--term-adversaries", name);
    }
  }
  if (o.adversaries.empty()) bad_value("--term-adversaries", v);
}

void parse_rounds(const std::string& v, TermSweepOptions& o) {
  o.round_budgets.clear();
  for (const std::string& item : split_csv(v)) {
    const std::uint64_t r = parse_u64("--rounds", item);
    if (r < 1 || r > 1'000'000) bad_value("--rounds", item);
    o.round_budgets.push_back(static_cast<int>(r));
  }
  if (o.round_budgets.empty()) bad_value("--rounds", v);
}

// `flag` is "--crash-seeds" or its alias "--fault-seeds"; errors name
// whichever spelling the caller actually typed.
void parse_crash_seeds(const std::string& flag, const std::string& v,
                       SweepOptions& o) {
  const std::size_t colon = v.find(':');
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  if (colon == std::string::npos) {
    begin = parse_u64(flag, v);
    if (begin == std::numeric_limits<std::uint64_t>::max()) {
      bad_value(flag, v);
    }
    end = begin + 1;
  } else {
    begin = parse_u64(flag, v.substr(0, colon));
    end = parse_u64(flag, v.substr(colon + 1));
    // Like --seeds: an empty or reversed range silently sweeps nothing
    // faulty; reject it as bad usage.
    if (end <= begin) bad_value(flag, v);
  }
  if (end - begin > 1'000'000) bad_value(flag, v);
  o.crash_seeds.clear();
  for (std::uint64_t cs = begin; cs < end; ++cs) o.crash_seeds.push_back(cs);
}

void parse_processes(const std::string& v, SweepOptions& o) {
  o.process_counts.clear();
  for (const std::string& item : split_csv(v)) {
    const std::uint64_t n = parse_u64("--processes", item);
    if (n < 1 || n > 16) bad_value("--processes", item);
    o.process_counts.push_back(static_cast<int>(n));
  }
  if (o.process_counts.empty()) bad_value("--processes", v);
}

void parse_objective(const std::string& v, ExploreOptions& o) {
  if (v == "rounds") o.objective = rlt::explore::Objective::kRounds;
  else if (v == "violation" || v == "viol") {
    o.objective = rlt::explore::Objective::kViolation;
  } else {
    bad_value("--objective", v);
  }
}

void parse_strategy(const std::string& v, ExploreOptions& o) {
  if (v == "greedy") o.strategy = rlt::explore::Strategy::kGreedy;
  else if (v == "hill" || v == "hillclimb") {
    o.strategy = rlt::explore::Strategy::kHillClimb;
  } else if (v == "random" || v == "rand") {
    o.strategy = rlt::explore::Strategy::kRandom;
  } else {
    bad_value("--strategy", v);
  }
}

void parse_ablate(const std::string& v, ExploreOptions& o) {
  // The one supported plant: ABD without the read write-back phase (the
  // ablation the sweep tests use), which breaks linearizability across
  // readers — a ground-truth target for the violation search.
  if (v == "nowb") o.abd_read_write_back = false;
  else bad_value("--ablate", v);
}

/// Replays every explore record in a store written with --out; exit 0
/// iff every persisted trace reproduces its recorded score and
/// fingerprint byte-identically.
int run_replay(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "sweep_main: cannot open " << path << "\n";
    return 2;
  }
  std::string line;
  std::uint64_t replayed = 0;
  std::uint64_t matched = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    // Errored instances persist no meaningful trace; nothing to verify.
    if (line.find("\"found\":\"error\"") != std::string::npos) continue;
    std::string err;
    const auto pt = rlt::explore::parse_explore_record(line, &err);
    if (!pt) continue;  // other record kinds (safety/term) are fine
    ++replayed;
    const rlt::explore::ReplayReport rep =
        rlt::explore::replay_trace(pt->instance, pt->trace,
                                   pt->fallback_seed);
    const bool ok =
        rep.fingerprint == pt->fingerprint && rep.score == pt->best_score;
    if (ok) ++matched;
    std::cout << pt->instance.key() << ": "
              << (ok ? "reproduced" : "MISMATCH") << " (" << rep.verdict
              << ", score " << rep.score << ", fingerprint 0x" << std::hex
              << rep.fingerprint << std::dec << ", " << pt->trace.size()
              << " choices)\n";
  }
  if (replayed == 0) {
    std::cerr << "sweep_main: no explore records in " << path << "\n";
    return 2;
  }
  std::cout << "replayed " << replayed << ", reproduced " << matched << "\n";
  return matched == replayed ? 0 : 1;
}

/// Peak resident set of this process in MiB (VmHWM from
/// /proc/self/status), or -1 where that file is unavailable.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024;
  }
  return -1;
}

void parse_seeds(const std::string& v, SweepOptions& o) {
  const std::size_t colon = v.find(':');
  if (colon == std::string::npos) {
    // Single value N means the one-seed range N:N+1 (reject UINT64_MAX:
    // N+1 would wrap to 0 and trip the reversed-range invariant).
    o.seed_begin = parse_u64("--seeds", v);
    if (o.seed_begin == std::numeric_limits<std::uint64_t>::max()) {
      bad_value("--seeds", v);
    }
    o.seed_end = o.seed_begin + 1;
    return;
  }
  o.seed_begin = parse_u64("--seeds", v.substr(0, colon));
  o.seed_end = parse_u64("--seeds", v.substr(colon + 1));
  // A ≥ B used to slip through when A == B: the sweep ran zero
  // scenarios, printed the digest of nothing, and exited 0 — trivially
  // "green".  An empty range is never what the caller meant; reject it.
  if (o.seed_end <= o.seed_begin) bad_value("--seeds", v);
}

}  // namespace

int main(int argc, char** argv) {
  SweepOptions opts;
  TermSweepOptions topts;
  ExploreOptions eopts;
  bool term_mode = false;
  bool explore_mode = false;
  bool list_only = false;
  bool merge_mode = false;
  std::uint64_t progress_every = 0;
  std::string out_path;
  std::string replay_path;
  std::string metrics_path;
  std::string trace_path;
  std::string forensics_dir;
  bool trace_times = false;
  int progress_fd = -1;
  std::uint64_t heartbeat_ms = 0;
  std::vector<std::string> merge_files;
  // Mode-specific flags are rejected in the other modes; collect what
  // was used, by category, so the check is order-independent.
  std::vector<std::string> safety_flags_used;   ///< safety mode only
  std::vector<std::string> algo_flags_used;     ///< safety or --explore viol
  std::vector<std::string> term_flags_used;     ///< --term only
  std::vector<std::string> family_flags_used;   ///< --term or --explore rounds
  std::vector<std::string> explore_flags_used;  ///< --explore only
  std::vector<std::string> obs_flags_used;      ///< run modes only
  bool processes_set = false;
  bool max_actions_set = false;
  bool batch_set = false;
  bool families_set = false;
  bool rounds_set = false;
  bool algorithms_set = false;
  bool ablate_set = false;
  bool drop_prob_set = false;
  bool fault_menu_set = false;
  bool threads_set = false;
  bool seeds_set = false;
  bool shard_set = false;

  std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) {
        std::cerr << "sweep_main: " << a << " needs a value\n";
        usage(2);
      }
      return args[++i];
    };
    if (a == "--help" || a == "-h") usage(0);
    else if (a == "--list") list_only = true;
    else if (a == "--term") term_mode = true;
    else if (a == "--explore") explore_mode = true;
    else if (a == "--merge") merge_mode = true;
    else if (a == "--replay") replay_path = next();
    else if (a == "--out") out_path = next();
    else if (a == "--shard") {
      shard_set = true;
      const std::string v = next();
      const auto spec = rlt::sweep::parse_shard(v);
      if (!spec) bad_value("--shard", v);
      opts.shard = *spec;
    }
    else if (a == "--algorithms") {
      algo_flags_used.push_back(a);
      algorithms_set = true;
      parse_algorithms(next(), opts);
    } else if (a == "--semantics") {
      safety_flags_used.push_back(a);
      parse_semantics(next(), opts);
    } else if (a == "--adversaries") {
      safety_flags_used.push_back(a);
      parse_adversaries(next(), opts);
    } else if (a == "--faults") {
      safety_flags_used.push_back(a);
      parse_faults(next(), opts);
    } else if (a == "--crash-seeds" || a == "--fault-seeds") {
      safety_flags_used.push_back(a);
      parse_crash_seeds(a, next(), opts);
    } else if (a == "--drop-prob") {
      safety_flags_used.push_back(a);
      drop_prob_set = true;
      parse_drop_prob(next(), opts);
    } else if (a == "--families") {
      family_flags_used.push_back(a);
      families_set = true;
      parse_families(next(), topts);
    } else if (a == "--term-adversaries") {
      term_flags_used.push_back(a);
      parse_term_adversaries(next(), topts);
    } else if (a == "--rounds") {
      family_flags_used.push_back(a);
      rounds_set = true;
      parse_rounds(next(), topts);
    } else if (a == "--objective") {
      explore_flags_used.push_back(a);
      parse_objective(next(), eopts);
    } else if (a == "--strategy") {
      explore_flags_used.push_back(a);
      parse_strategy(next(), eopts);
    } else if (a == "--search-budget") {
      explore_flags_used.push_back(a);
      // Like --seeds: a zero budget would search nothing and report a
      // trivially green summary; reject it as bad usage.
      const std::uint64_t b = parse_u64("--search-budget", next());
      if (b < 1 || b > 1'000'000) bad_value("--search-budget", args[i]);
      eopts.search_budget = static_cast<int>(b);
    } else if (a == "--shrink-budget") {
      explore_flags_used.push_back(a);
      const std::uint64_t b = parse_u64("--shrink-budget", next());
      if (b > 1'000'000'000) bad_value("--shrink-budget", args[i]);
      eopts.shrink_budget = b;
    } else if (a == "--ablate") {
      explore_flags_used.push_back(a);
      ablate_set = true;
      parse_ablate(next(), eopts);
    } else if (a == "--fault-menu") {
      explore_flags_used.push_back(a);
      fault_menu_set = true;
      eopts.fault_menu = true;
    } else if (a == "--processes") {
      processes_set = true;
      parse_processes(next(), opts);
    } else if (a == "--seeds") {
      seeds_set = true;
      parse_seeds(next(), opts);
    } else if (a == "--writes") {
      // <= 99 keeps written_value()'s per-(role, index) encoding free of
      // cross-role collisions (values are 100*(role+1)+i).
      algo_flags_used.push_back(a);
      opts.writes_per_process =
          static_cast<int>(parse_u64("--writes", next()));
      if (opts.writes_per_process < 1 || opts.writes_per_process > 99) {
        bad_value("--writes", args[i]);
      }
    } else if (a == "--online") {
      // Safety sweeps and violation hunts record histories the streaming
      // checker can cross-check; --term and rounds objectives do not.
      algo_flags_used.push_back(a);
      opts.online = true;
      eopts.online = true;
    } else if (a == "--threads") {
      // Upper bound keeps a typo from asking the OS for an absurd number
      // of threads.
      threads_set = true;
      opts.threads = static_cast<int>(parse_u64("--threads", next()));
      if (opts.threads < 1 || opts.threads > 1024) {
        bad_value("--threads", args[i]);
      }
    } else if (a == "--batch") {
      batch_set = true;
      opts.batch_size = static_cast<int>(parse_u64("--batch", next()));
      if (opts.batch_size < 1 || opts.batch_size > 1'000'000) {
        bad_value("--batch", args[i]);
      }
    } else if (a == "--max-actions") {
      max_actions_set = true;
      opts.max_actions_per_scenario = parse_u64("--max-actions", next());
    } else if (a == "--progress") {
      progress_every = parse_u64("--progress", next());
    } else if (a == "--metrics") {
      obs_flags_used.push_back(a);
      metrics_path = next();
    } else if (a == "--trace") {
      obs_flags_used.push_back(a);
      trace_path = next();
    } else if (a == "--forensics") {
      // Forensics needs a recorded history to certify: safety sweeps and
      // violation hunts have one, --term and rounds objectives do not —
      // the algo-flag category enforces exactly that pairing, and the
      // obs category keeps it out of --merge/--replay/--list.
      obs_flags_used.push_back(a);
      algo_flags_used.push_back(a);
      forensics_dir = next();
      if (forensics_dir.empty()) bad_value("--forensics", forensics_dir);
    } else if (a == "--trace-times") {
      obs_flags_used.push_back(a);
      trace_times = true;
    } else if (a == "--progress-fd") {
      obs_flags_used.push_back(a);
      // Must be an fd the parent opened for us; 0-2 are the standard
      // streams and an obvious mistake.
      const std::uint64_t fd = parse_u64("--progress-fd", next());
      if (fd < 3 || fd > 1'048'575) bad_value("--progress-fd", args[i]);
      progress_fd = static_cast<int>(fd);
    } else if (a == "--heartbeat") {
      obs_flags_used.push_back(a);
      heartbeat_ms = parse_u64("--heartbeat", next());
      if (heartbeat_ms < 1 || heartbeat_ms > 3'600'000) {
        bad_value("--heartbeat", args[i]);
      }
    } else if (!a.empty() && a[0] != '-') {
      // Positional arguments are the shard stores of --merge; anywhere
      // else they are a typo.
      merge_files.push_back(a);
    } else {
      std::cerr << "sweep_main: unknown flag " << a << "\n";
      usage(2);
    }
  }

  // --merge and --replay are standalone: they read every config from
  // their input files, so sweep axes, modes, and execution knobs make no
  // sense with them.
  const bool sweep_flags_used =
      term_mode || explore_mode || list_only || shard_set ||
      !safety_flags_used.empty() || !algo_flags_used.empty() ||
      !term_flags_used.empty() || !family_flags_used.empty() ||
      !explore_flags_used.empty() || !obs_flags_used.empty() ||
      processes_set || max_actions_set || batch_set || threads_set ||
      seeds_set || progress_every > 0;
  if (merge_mode) {
    if (sweep_flags_used || !replay_path.empty()) {
      std::cerr << "sweep_main: --merge is standalone (only --out may "
                   "accompany it; every config comes from the shard "
                   "headers)\n";
      usage(2);
    }
    if (merge_files.empty()) {
      std::cerr << "sweep_main: --merge needs at least one shard store\n";
      usage(2);
    }
  } else if (!merge_files.empty()) {
    std::cerr << "sweep_main: unexpected positional argument '"
              << merge_files.front() << "' (shard stores go with --merge)\n";
    usage(2);
  }
  if (!replay_path.empty()) {
    if (sweep_flags_used || !out_path.empty()) {
      std::cerr << "sweep_main: --replay is standalone (it reads every "
                   "config from the store)\n";
      usage(2);
    }
    return run_replay(replay_path);
  }
  if (list_only && !obs_flags_used.empty()) {
    std::cerr << "sweep_main: " << obs_flags_used.front()
              << " has no effect with --list\n";
    usage(2);
  }
  if (trace_times && trace_path.empty()) {
    std::cerr << "sweep_main: --trace-times needs --trace\n";
    usage(2);
  }
  if (term_mode && explore_mode) {
    std::cerr << "sweep_main: --term and --explore are exclusive\n";
    usage(2);
  }
  if (!explore_mode && !explore_flags_used.empty()) {
    std::cerr << "sweep_main: " << explore_flags_used.front()
              << " needs --explore\n";
    usage(2);
  }
  if ((term_mode || explore_mode) && !safety_flags_used.empty()) {
    std::cerr << "sweep_main: " << safety_flags_used.front()
              << " is a safety-mode flag and has no effect with --term/"
                 "--explore\n";
    usage(2);
  }
  if (!term_mode &&
      !(explore_mode &&
        eopts.objective == rlt::explore::Objective::kRounds) &&
      !family_flags_used.empty()) {
    std::cerr << "sweep_main: " << family_flags_used.front()
              << " needs --term or --explore --objective rounds\n";
    usage(2);
  }
  if (!term_mode && !term_flags_used.empty()) {
    std::cerr << "sweep_main: " << term_flags_used.front()
              << " needs --term\n";
    usage(2);
  }
  if ((term_mode ||
       (explore_mode &&
        eopts.objective == rlt::explore::Objective::kRounds)) &&
      !algo_flags_used.empty()) {
    std::cerr << "sweep_main: " << algo_flags_used.front()
              << " applies to the safety sweep or --explore --objective "
                 "violation\n";
    usage(2);
  }
  if (ablate_set &&
      eopts.objective != rlt::explore::Objective::kViolation) {
    std::cerr << "sweep_main: --ablate needs --objective violation\n";
    usage(2);
  }
  if (fault_menu_set &&
      eopts.objective != rlt::explore::Objective::kViolation) {
    std::cerr << "sweep_main: --fault-menu needs --objective violation\n";
    usage(2);
  }
  if (!term_mode && !explore_mode) {
    // Pairing validation: a fault kind that applies to none of the swept
    // algorithms would be dropped silently by enumeration (plans_for);
    // the caller asked for a fault axis that cannot run, so reject it.
    for (const rlt::sweep::FaultKind f : opts.faults) {
      if (f == rlt::sweep::FaultKind::kNone) continue;
      const bool applies = std::any_of(
          opts.algorithms.begin(), opts.algorithms.end(),
          [f](Algorithm alg) { return rlt::sweep::fault_applies(f, alg); });
      if (!applies) {
        std::cerr << "sweep_main: --faults " << rlt::sweep::to_string(f)
                  << " applies to "
                  << (f == rlt::sweep::FaultKind::kStall
                          ? "none of the requested algorithms (stall needs "
                            "a simulator family: modeled, alg2, or alg4)"
                          : "abd only, which --algorithms excludes")
                  << "\n";
        usage(2);
      }
    }
    const bool lossy_swept =
        std::find(opts.faults.begin(), opts.faults.end(),
                  rlt::sweep::FaultKind::kLossy) != opts.faults.end();
    if (drop_prob_set && !lossy_swept) {
      std::cerr << "sweep_main: --drop-prob needs lossy in --faults\n";
      usage(2);
    }
  }
  // Shared flags land in `opts`; mirror them into the mode options.
  if (term_mode) {
    if (processes_set) topts.process_counts = opts.process_counts;
    if (max_actions_set) {
      topts.max_actions_per_scenario = opts.max_actions_per_scenario;
    }
    topts.seed_begin = opts.seed_begin;
    topts.seed_end = opts.seed_end;
    topts.threads = opts.threads;
    topts.batch_size = opts.batch_size;
    topts.shard = opts.shard;
  }
  if (explore_mode) {
    if (families_set) eopts.families = topts.families;
    if (rounds_set) eopts.round_budgets = topts.round_budgets;
    if (algorithms_set) eopts.algorithms = opts.algorithms;
    eopts.writes_per_process = opts.writes_per_process;
    eopts.process_counts =
        processes_set
            ? opts.process_counts
            : std::vector<int>{
                  eopts.objective == rlt::explore::Objective::kRounds ? 4
                                                                      : 3};
    if (max_actions_set) {
      eopts.max_actions_per_run = opts.max_actions_per_scenario;
    }
    eopts.seed_begin = opts.seed_begin;
    eopts.seed_end = opts.seed_end;
    eopts.threads = opts.threads;
    eopts.shard = opts.shard;
    // Search instances are heavy (budget × runs each); default to one
    // instance per pool task unless the caller asked otherwise.
    eopts.batch_size = batch_set ? opts.batch_size : 1;
  }

  try {
    if (merge_mode) {
      std::vector<rlt::sweep::ShardStore> stores;
      stores.reserve(merge_files.size());
      for (const std::string& path : merge_files) {
        std::ifstream in(path, std::ios::binary);
        if (!in) {
          std::cerr << "sweep_main: cannot open " << path << "\n";
          return 2;
        }
        std::ostringstream ss;
        ss << in.rdbuf();
        stores.push_back(rlt::sweep::ShardStore{path, ss.str()});
      }
      // Validation failures (missing/duplicated shard, config mismatch,
      // digest mismatch, …) throw and land in the catch-all → exit 2.
      const rlt::sweep::MergeResult m =
          rlt::sweep::merge_shard_stores(stores);
      if (!out_path.empty()) {
        std::ofstream out(out_path, std::ios::binary);
        out << m.store;
        out.flush();
        if (!out.good()) {
          std::cerr << "sweep_main: cannot write " << out_path << "\n";
          return 2;
        }
      }
      // The reconstituted deterministic section — byte-identical to the
      // unsharded run's — then merge provenance, which is not.
      std::cout << m.stable_text;
      std::cout << "--- merge (not digest material) ---\n"
                << "kind " << m.kind << "\n"
                << "shards " << m.shards << "\n"
                << "records " << m.records << "\n";
      return m.failed ? 1 : 0;
    }
    if (list_only) {
      if (explore_mode) {
        for (const rlt::explore::ExploreInstance& e :
             rlt::explore::enumerate_explore_instances(eopts)) {
          std::cout << e.key() << "\n";
        }
      } else if (term_mode) {
        for (const rlt::term::TermScenario& s :
             rlt::term::enumerate_term_scenarios(topts)) {
          std::cout << s.key() << "\n";
        }
      } else {
        for (const rlt::sweep::Scenario& s :
             rlt::sweep::enumerate_scenarios(opts)) {
          std::cout << s.key() << "\n";
        }
      }
      return 0;
    }
    std::unique_ptr<rlt::sweep::JsonlFileSink> sink;
    if (!out_path.empty()) {
      sink = std::make_unique<rlt::sweep::JsonlFileSink>(out_path);
    }
    // Observability fabric (never digest material): a metrics dump
    // and/or trace spans force the registry on; progress needs no
    // registry at all.
    if (!metrics_path.empty() || !trace_path.empty()) {
      rlt::obs::set_enabled(true);
    }
    std::unique_ptr<rlt::sweep::JsonlFileSink> trace_sink;
    if (!trace_path.empty()) {
      trace_sink = std::make_unique<rlt::sweep::JsonlFileSink>(trace_path);
    }
    rlt::obs::Hooks hooks;
    hooks.trace = trace_sink.get();
    hooks.trace_times = trace_times;
    hooks.progress_fd = progress_fd;
    hooks.heartbeat_ms = heartbeat_ms;
    if (!forensics_dir.empty()) {
      std::filesystem::create_directories(forensics_dir);
      hooks.forensics_dir = forensics_dir;
      opts.forensics = true;   // capture in the runners...
      eopts.forensics = true;  // ...and in explore witness replays
    }
    const rlt::obs::Hooks* hooks_p =
        (hooks.trace || hooks.progress_on() || hooks.forensics_on())
            ? &hooks
            : nullptr;
    std::string stable;
    rlt::sweep::EngineStats engine;
    bool failed = false;
    if (explore_mode) {
      const rlt::explore::ExploreSummary sum =
          rlt::explore::run_explore(eopts, progress_every, sink.get(),
                                    hooks_p);
      stable = sum.stable_text();
      engine = sum.engine;
      // Finding a violation is the search succeeding at its job; only
      // machinery errors fail an exploration.
      failed = sum.errors != 0;
    } else if (term_mode) {
      const rlt::term::TermSummary sum =
          rlt::term::run_term_sweep(topts, progress_every, sink.get(),
                                    hooks_p);
      stable = sum.stable_text();
      engine = sum.engine;
      // Capped runs are Theorem 6 doing its job; only broken safety or
      // machinery failures fail a termination sweep.
      failed = sum.safety_violations != 0 || sum.errors != 0;
    } else {
      const SweepSummary sum =
          rlt::sweep::run_sweep(opts, progress_every, sink.get(), hooks_p);
      stable = sum.stable_text();
      engine = sum.engine;
      // Blocked runs are the fault axes doing their job (their histories
      // were still checked clean up to the block); only violations and
      // errors fail the sweep.
      failed = sum.violations != 0 || sum.errors != 0;
    }
    if (sink) sink->close();
    if (trace_sink) trace_sink->close();
    if (!metrics_path.empty()) {
      rlt::sweep::JsonlFileSink msink(metrics_path);
      const char* mode =
          explore_mode ? "explore" : (term_mode ? "term" : "safety");
      const std::string config = explore_mode
                                     ? rlt::explore::config_key(eopts)
                                     : (term_mode
                                            ? rlt::term::config_key(topts)
                                            : rlt::sweep::config_key(opts));
      rlt::obs::dump(rlt::obs::snapshot_all(), msink, mode, config);
      msink.close();
    }

    // Deterministic section first (byte-identical across runs), then
    // timing, which naturally varies.
    std::cout << stable;
    std::cout << "--- timing (not digest material) ---\n"
              << "elapsed_ms " << engine.elapsed_ns / 1'000'000 << "\n"
              << "scenario_ms_total " << engine.wall_ns_total / 1'000'000
              << "\n"
              << "scenario_ms_max " << engine.wall_ns_max / 1'000'000 << "\n"
              << "threads " << opts.threads << "\n"
              << "steals " << engine.steals << "\n"
              << "peak_rss_mb " << std::fixed << std::setprecision(1)
              << peak_rss_mb() << "\n";
    return failed ? 1 : 0;
  } catch (const std::exception& e) {
    // Oversized cross-products, unwritable stores, and thread-spawn
    // failures land here.
    std::cerr << "sweep_main: " << e.what() << "\n";
    return 2;
  }
}
