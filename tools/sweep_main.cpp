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
#include <fcntl.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "explore/explore.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "sweep/store.hpp"
#include "sweep/sweep.hpp"
#include "term/term_sweep.hpp"

namespace {

using rlt::explore::ExploreOptions;
using rlt::explore::Objective;
using rlt::explore::Strategy;
using rlt::sim::Semantics;
using rlt::sweep::AdversaryKind;
using rlt::sweep::Algorithm;
using rlt::sweep::FaultKind;
using rlt::sweep::SweepOptions;
using rlt::term::Family;
using rlt::term::TermAdversary;
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
      "(default: 0:1);\n"
      "                      requires a faulty kind in --faults\n"
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
      "                      (standalone mode; exit 0 iff all match; a\n"
      "                      malformed explore record is a failure)\n"
      "common:\n"
      "  --processes LIST    comma list of process counts (default: 3;\n"
      "                      4 with --term and --explore --objective\n"
      "                      rounds)\n"
      "  --seeds A:B         seed range, A inclusive, B exclusive, A < B "
      "(default: 0:10)\n"
      "  --threads N         worker threads (default: 1)\n"
      "  --max-actions N     per-scenario action budget (default: 1000000,\n"
      "                      or 2000000 with --term and --explore)\n"
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
      "  --progress N        progress line to stderr every N folded\n"
      "                      scenarios, in order (default: off)\n"
      "  --list              print the scenario keys and exit; takes the\n"
      "                      mode flags, the axes, --processes, --seeds\n"
      "                      and --shard, and exits 2 with --out,\n"
      "                      --threads, --max-actions, --progress or an\n"
      "                      observability flag\n"
      "observability (never digest material — stores, digests, and\n"
      "summaries are byte-identical with or without these flags; valid in\n"
      "every sweep run, but not with --list, --merge or --replay):\n"
      "  --metrics PATH      write the unified metrics registry (counters,\n"
      "                      gauges, histograms from every layer) as JSONL\n"
      "                      after the run; the \"stable\":true section is\n"
      "                      byte-identical across --threads\n"
      "                      (render/diff with tools/metrics_report.py)\n"
      "  --trace PATH        write one JSONL span per scenario in\n"
      "                      enumeration order: key, verdict fields, and\n"
      "                      per-scenario stable metric deltas;\n"
      "                      byte-identical across --threads\n"
      "  --trace-times       add wall-clock fields (wall_ns, check_ns, a\n"
      "                      closing sweep span) to --trace spans — opts\n"
      "                      out of byte-identity; needs --trace\n"
      "  --progress-fd N     stream machine-readable progress lines (one\n"
      "                      JSON object per line; a completed sweep's\n"
      "                      last has \"state\":\"done\") to open file\n"
      "                      descriptor N; tools/sweep_shard.py\n"
      "                      --progress consumes this\n"
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
      "                      witness into explore-<gi>.json (--term and\n"
      "                      --objective rounds record no history, so\n"
      "                      they reject this flag).  Artifacts\n"
      "                      are byte-identical across --threads and\n"
      "                      across shards (gi filenames are disjoint,\n"
      "                      so all shards may share one DIR); convert\n"
      "                      with tools/trace_view.py for Perfetto\n"
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

/// An integer in [lo, hi].
std::uint64_t parse_in(const std::string& flag, const std::string& v,
                       std::uint64_t lo, std::uint64_t hi) {
  const std::uint64_t x = parse_u64(flag, v);
  if (x < lo || x > hi) bad_value(flag, v);
  return x;
}

/// A non-empty comma list, each item parsed by `item`.
template <class Parse>
auto parse_list(const std::string& flag, const std::string& v, Parse item) {
  std::vector<decltype(item(v))> out;
  for (const std::string& s : split_csv(v)) out.push_back(item(s));
  if (out.empty()) bad_value(flag, v);
  return out;
}

/// A non-empty comma list of integers in [lo, hi].
std::vector<int> parse_ints(const std::string& flag, const std::string& v,
                            int lo, int hi) {
  return parse_list(flag, v, [&](const std::string& item) {
    return static_cast<int>(parse_in(flag, item, lo, hi));
  });
}

/// The CLI spellings of a flag's values.
template <class T>
using Names = std::initializer_list<std::pair<std::string_view, T>>;

/// The value `v` spells.
template <class T>
T parse_name(const std::string& flag, const std::string& v, Names<T> names) {
  for (const auto& [name, value] : names) {
    if (v == name) return value;
  }
  bad_value(flag, v);
}

/// A non-empty comma list of spelled values.
template <class T>
std::vector<T> parse_names(const std::string& flag, const std::string& v,
                           Names<T> names) {
  return parse_list(flag, v, [&](const std::string& item) {
    return parse_name(flag, item, names);
  });
}

/// A seed range: "A:B" (A inclusive, B exclusive) or "N" (N:N+1).
std::pair<std::uint64_t, std::uint64_t> parse_range(const std::string& flag,
                                                    const std::string& v) {
  const std::size_t colon = v.find(':');
  if (colon == std::string::npos) {
    // Reject UINT64_MAX: N+1 would wrap to 0 and trip the reversed-range
    // invariant.
    const std::uint64_t n =
        parse_in(flag, v, 0, std::numeric_limits<std::uint64_t>::max() - 1);
    return {n, n + 1};
  }
  const std::uint64_t begin = parse_u64(flag, v.substr(0, colon));
  const std::uint64_t end = parse_u64(flag, v.substr(colon + 1));
  // An empty range would run zero scenarios, print the digest of nothing
  // and exit 0 — trivially "green".  It is never what the caller meant.
  if (end <= begin) bad_value(flag, v);
  return {begin, end};
}

// `flag` is "--crash-seeds" or its alias "--fault-seeds"; errors name
// whichever spelling the caller actually typed.
void parse_crash_seeds(const std::string& flag, const std::string& v,
                       SweepOptions& o) {
  const auto [begin, end] = parse_range(flag, v);
  if (end - begin > 1'000'000) bad_value(flag, v);
  o.crash_seeds.clear();
  for (std::uint64_t cs = begin; cs < end; ++cs) o.crash_seeds.push_back(cs);
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

/// The modes a store line may carry: the three sweeps' records, the
/// term lab's per-family histograms and the shard brackets.
constexpr std::string_view kStoreModes[] = {
    "safety", "term", "explore", "term-hist", "shard", "shard-end"};

/// Replays every explore record in a store written with --out; exit 0
/// iff every persisted trace reproduces its recorded score and
/// fingerprint byte-identically.  Every line's key and mode are read
/// too, and safety and term records through their folds' readers: a
/// line that cannot be read, that names no mode a store holds, or whose
/// fold rejects it fails the replay like a malformed explore record.
int run_replay(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "sweep_main: cannot open " << path << "\n";
    return 2;
  }
  std::string line;
  std::uint64_t line_no = 0;
  std::uint64_t replayed = 0;
  std::uint64_t matched = 0;
  rlt::sweep::SweepFold safety;
  rlt::term::TermFold term;
  while (std::getline(in, line)) {
    ++line_no;
    // A scenario record leads with its gi; every line has a key and mode.
    rlt::sweep::RecordReader head(line);
    if (head.at("gi")) (void)head.u64("gi");
    const std::string key = head.str("key");
    const std::string mode = head.str("mode");
    if (!head.ok() || std::find(std::begin(kStoreModes), std::end(kStoreModes),
                                mode) == std::end(kStoreModes)) {
      ++replayed;
      std::cout << "line " << line_no << ": MALFORMED: "
                << (head.ok() ? "unknown mode \"" + mode + "\""
                              : "cannot read field \"" +
                                    head.failed_field() + "\"")
                << "\n";
      continue;
    }
    if ((mode == "safety" && !safety.add_record(line)) ||
        (mode == "term" && !term.add_record(line))) {
      ++replayed;
      std::cout << key << ": MALFORMED: not a " << mode
                << " record its sweep writes\n";
      continue;
    }
    // The other kinds (term-hist, shard brackets) carry no scenario.
    if (mode != "explore") continue;
    std::string err;
    const auto pt = rlt::explore::parse_explore_record(line, &err);
    if (!pt) {
      // An explore record that cannot be replayed fails the run.
      ++replayed;
      std::cout << key << ": MALFORMED: " << err << "\n";
      continue;
    }
    // Errored instances persist no meaningful trace; nothing to verify.
    if (pt->error) continue;
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

/// The runs a flag may appear in, as bits.  A command is exactly one
/// run: one of the four sweeps, or one of the standalone modes --merge
/// and --replay.
enum RunBit : unsigned {
  kSafety = 1u << 0,
  kTerm = 1u << 1,
  kRounds = 1u << 2,     ///< --explore --objective rounds
  kViolation = 1u << 3,  ///< --explore --objective violation
  /// Still applies when --list narrows a sweep to printing its keys.
  kList = 1u << 4,
  kMerge = 1u << 5,
  kReplay = 1u << 6,
};
constexpr unsigned kExplore = kRounds | kViolation;
constexpr unsigned kSweeps = kSafety | kTerm | kExplore;
/// The runs that record register histories, which --online checks and
/// --forensics certifies.
constexpr unsigned kHistories = kSafety | kViolation;
/// The runs over the termination families.
constexpr unsigned kFamilies = kTerm | kRounds;

const char* run_name(unsigned run) {
  switch (run) {
    case kTerm: return "--term";
    case kRounds: return "--explore --objective rounds";
    case kViolation: return "--explore --objective violation";
    default: return "the safety sweep";
  }
}

/// Everything the flags set.  A flag shared by several runs writes every
/// options struct that reads it, so whichever run the command names
/// finds it set.
struct Cli {
  SweepOptions opts;
  TermSweepOptions topts;
  ExploreOptions eopts;
  bool term = false;
  bool explore = false;
  bool list = false;
  bool merge = false;
  std::string replay_path;
  std::string out_path;
  std::uint64_t progress_every = 0;
  std::string metrics_path;
  std::string trace_path;
  rlt::obs::Hooks hooks;
  std::vector<std::string> merge_files;
};

/// One row of the flag table: the flag, the runs that accept it, and
/// its setter (`value` is empty for flags that take none).
struct Flag {
  const char* name;
  unsigned runs;
  bool takes_value;
  void (*set)(Cli& c, const std::string& value);
};

/// The setters' value parameter.
using V = const std::string&;

constexpr Flag kFlags[] = {
    // Modes.
    {"--term", kTerm | kList, false, [](Cli& c, V) { c.term = true; }},
    {"--explore", kExplore | kList, false,
     [](Cli& c, V) { c.explore = true; }},
    {"--list", kSweeps | kList, false, [](Cli& c, V) { c.list = true; }},
    {"--merge", kMerge, false, [](Cli& c, V) { c.merge = true; }},
    {"--replay", kReplay, true, [](Cli& c, V v) { c.replay_path = v; }},
    // Register workloads: the safety sweep and violation hunts.
    {"--algorithms", kHistories | kList, true,
     [](Cli& c, V v) {
       c.opts.algorithms = c.eopts.algorithms = parse_names<Algorithm>(
           "--algorithms", v,
           {{"modeled", Algorithm::kModeled}, {"alg2", Algorithm::kAlg2},
            {"alg4", Algorithm::kAlg4}, {"abd", Algorithm::kAbd}});
     }},
    {"--writes", kHistories | kList, true,
     [](Cli& c, V v) {
       // <= 99 keeps written_value()'s per-(role, index) encoding free of
       // cross-role collisions (values are 100*(role+1)+i).
       c.opts.writes_per_process = c.eopts.writes_per_process =
           static_cast<int>(parse_in("--writes", v, 1, 99));
     }},
    {"--online", kHistories | kList, false,
     [](Cli& c, V) { c.opts.online = c.eopts.online = true; }},
    {"--semantics", kSafety | kList, true,
     [](Cli& c, V v) {
       c.opts.semantics = parse_names<Semantics>(
           "--semantics", v,
           {{"atomic", Semantics::kAtomic},
            {"lin", Semantics::kLinearizable},
            {"linearizable", Semantics::kLinearizable},
            {"wsl", Semantics::kWriteStrong}});
     }},
    {"--adversaries", kSafety | kList, true,
     [](Cli& c, V v) {
       c.opts.adversaries = parse_names<AdversaryKind>(
           "--adversaries", v,
           {{"rand", AdversaryKind::kRandom},
            {"random", AdversaryKind::kRandom},
            {"rr", AdversaryKind::kRoundRobin},
            {"roundrobin", AdversaryKind::kRoundRobin}});
     }},
    {"--faults", kSafety | kList, true,
     [](Cli& c, V v) {
       c.opts.faults = parse_names<FaultKind>(
           "--faults", v,
           {{"none", FaultKind::kNone},
            {"minority", FaultKind::kMinorityCrash},
            {"stall", FaultKind::kStall},
            {"lossy", FaultKind::kLossy},
            {"dup", FaultKind::kDuplicate},
            {"duplicate", FaultKind::kDuplicate},
            {"partition", FaultKind::kPartition},
            {"majority", FaultKind::kMajorityCrash},
            {"recovery", FaultKind::kCrashRecovery}});
     }},
    {"--crash-seeds", kSafety | kList, true,
     [](Cli& c, V v) { parse_crash_seeds("--crash-seeds", v, c.opts); }},
    {"--fault-seeds", kSafety | kList, true,
     [](Cli& c, V v) { parse_crash_seeds("--fault-seeds", v, c.opts); }},
    {"--drop-prob", kSafety | kList, true,
     [](Cli& c, V v) { parse_drop_prob(v, c.opts); }},
    // Termination families: --term and rounds objectives.
    {"--families", kFamilies | kList, true,
     [](Cli& c, V v) {
       c.topts.families = c.eopts.families = parse_names<Family>(
           "--families", v,
           {{"consensus", Family::kConsensus},
            {"composed", Family::kComposed},
            {"coin", Family::kSharedCoin},
            {"game", Family::kGame}});
     }},
    {"--rounds", kFamilies | kList, true,
     [](Cli& c, V v) {
       c.topts.round_budgets = c.eopts.round_budgets =
           parse_ints("--rounds", v, 1, 1'000'000);
     }},
    {"--term-adversaries", kTerm | kList, true,
     [](Cli& c, V v) {
       c.topts.adversaries = parse_names<TermAdversary>(
           "--term-adversaries", v,
           {{"scripted", TermAdversary::kScripted},
            {"rand", TermAdversary::kRandom},
            {"random", TermAdversary::kRandom},
            {"stall", TermAdversary::kStalling},
            {"stalling", TermAdversary::kStalling}});
     }},
    // Exploration.
    {"--objective", kExplore | kList, true,
     [](Cli& c, V v) {
       c.eopts.objective = parse_name<Objective>(
           "--objective", v,
           {{"rounds", Objective::kRounds},
            {"violation", Objective::kViolation},
            {"viol", Objective::kViolation}});
     }},
    {"--strategy", kExplore | kList, true,
     [](Cli& c, V v) {
       c.eopts.strategy = parse_name<Strategy>(
           "--strategy", v,
           {{"greedy", Strategy::kGreedy},
            {"hill", Strategy::kHillClimb},
            {"hillclimb", Strategy::kHillClimb},
            {"random", Strategy::kRandom},
            {"rand", Strategy::kRandom}});
     }},
    {"--search-budget", kExplore | kList, true,
     [](Cli& c, V v) {
       // Like --seeds: a zero budget would search nothing and report a
       // trivially green summary; reject it as bad usage.
       c.eopts.search_budget =
           static_cast<int>(parse_in("--search-budget", v, 1, 1'000'000));
     }},
    {"--shrink-budget", kExplore | kList, true,
     [](Cli& c, V v) {
       c.eopts.shrink_budget = parse_in("--shrink-budget", v, 0, 1'000'000'000);
     }},
    {"--ablate", kViolation | kList, true,
     [](Cli& c, V v) {
       // The one supported plant: ABD without the read write-back phase
       // (the ablation the sweep tests use), which breaks linearizability
       // across readers — a ground-truth target for the violation search.
       c.eopts.abd_read_write_back =
           parse_name<bool>("--ablate", v, {{"nowb", false}});
     }},
    {"--fault-menu", kViolation | kList, false,
     [](Cli& c, V) { c.eopts.fault_menu = true; }},
    // Every sweep.
    {"--processes", kSweeps | kList, true,
     [](Cli& c, V v) {
       c.opts.process_counts = c.topts.process_counts =
           c.eopts.process_counts = parse_ints("--processes", v, 1, 16);
     }},
    {"--seeds", kSweeps | kList, true,
     [](Cli& c, V v) {
       const auto [begin, end] = parse_range("--seeds", v);
       c.opts.seed_begin = c.topts.seed_begin = c.eopts.seed_begin = begin;
       c.opts.seed_end = c.topts.seed_end = c.eopts.seed_end = end;
     }},
    {"--shard", kSweeps | kList, true,
     [](Cli& c, V v) {
       const auto spec = rlt::sweep::parse_shard(v);
       if (!spec) bad_value("--shard", v);
       c.opts.shard = c.topts.shard = c.eopts.shard = *spec;
     }},
    {"--threads", kSweeps, true,
     [](Cli& c, V v) {
       // Upper bound keeps a typo from asking the OS for an absurd
       // number of threads.
       c.opts.threads = c.topts.threads = c.eopts.threads =
           static_cast<int>(parse_in("--threads", v, 1, 1024));
     }},
    {"--max-actions", kSweeps, true,
     [](Cli& c, V v) {
       c.opts.max_actions_per_scenario = c.topts.max_actions_per_scenario =
           c.eopts.max_actions_per_run = parse_u64("--max-actions", v);
     }},
    {"--progress", kSweeps, true,
     [](Cli& c, V v) { c.progress_every = parse_u64("--progress", v); }},
    {"--out", kSweeps | kMerge, true, [](Cli& c, V v) { c.out_path = v; }},
    // Observability.
    {"--metrics", kSweeps, true, [](Cli& c, V v) { c.metrics_path = v; }},
    {"--trace", kSweeps, true, [](Cli& c, V v) { c.trace_path = v; }},
    {"--trace-times", kSweeps, false,
     [](Cli& c, V) { c.hooks.trace_times = true; }},
    {"--progress-fd", kSweeps, true,
     [](Cli& c, V v) {
       // Must be an fd the parent opened for us, for writing: the meter
       // cannot report a failed write, so every line would be lost.  0-2
       // are the standard streams and an obvious mistake.
       const int fd =
           static_cast<int>(parse_in("--progress-fd", v, 3, 1'048'575));
       const int flags = ::fcntl(fd, F_GETFL);
       if (flags == -1 || (flags & O_ACCMODE) == O_RDONLY) {
         std::cerr << "sweep_main: --progress-fd " << fd
                   << " is not open for writing\n";
         usage(2);
       }
       c.hooks.progress_fd = fd;
     }},
    {"--heartbeat", kSweeps, true,
     [](Cli& c, V v) {
       c.hooks.heartbeat_ms = parse_in("--heartbeat", v, 1, 3'600'000);
     }},
    {"--forensics", kHistories, true,
     [](Cli& c, V v) {
       // The directory turns capture on, in runners and witness replays.
       if (v.empty()) bad_value("--forensics", v);
       c.hooks.forensics_dir = v;
     }},
};

/// Validates and merges the named shard stores back into the unsharded
/// store and summary.
int run_merge(const Cli& c) {
  std::vector<rlt::sweep::ShardStore> stores;
  stores.reserve(c.merge_files.size());
  for (const std::string& path : c.merge_files) {
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
  // digest mismatch, …) throw and land in main's catch-all → exit 2.
  const rlt::sweep::MergeResult m = rlt::sweep::merge_shard_stores(stores);
  if (!c.out_path.empty()) {
    std::ofstream out(c.out_path, std::ios::binary);
    out << m.store;
    out.flush();
    if (!out.good()) {
      std::cerr << "sweep_main: cannot write " << c.out_path << "\n";
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

/// One sweep run, whichever mode: with --list, print the keys of its
/// cross-product; otherwise run it with the observability fabric
/// attached and report its summary — the deterministic section first
/// (byte-identical across runs), then timing, which naturally varies.
/// Exits 1 when the summary failed().
template <class Options, class Enumerate, class Run>
int run_mode(Cli& c, const char* mode, const Options& o, Enumerate enumerate,
             Run run) {
  if (c.list) {
    for (const auto& item : enumerate(o)) std::cout << item.key() << "\n";
    return 0;
  }
  std::unique_ptr<rlt::sweep::JsonlFileSink> sink;
  if (!c.out_path.empty()) {
    sink = std::make_unique<rlt::sweep::JsonlFileSink>(c.out_path);
  }
  // Observability (never digest material): a metrics dump and/or trace
  // spans force the registry on; progress needs no registry at all.
  if (!c.metrics_path.empty() || !c.trace_path.empty()) {
    rlt::obs::set_enabled(true);
  }
  std::unique_ptr<rlt::sweep::JsonlFileSink> trace_sink;
  if (!c.trace_path.empty()) {
    trace_sink = std::make_unique<rlt::sweep::JsonlFileSink>(c.trace_path);
  }
  c.hooks.trace = trace_sink.get();
  if (c.hooks.forensics_on()) {
    std::filesystem::create_directories(c.hooks.forensics_dir);
  }
  const bool hooked = c.hooks.trace != nullptr || c.hooks.progress_on() ||
                      c.hooks.forensics_on();
  const auto sum =
      run(o, c.progress_every, sink.get(), hooked ? &c.hooks : nullptr);
  if (sink) sink->close();
  if (trace_sink) trace_sink->close();
  if (!c.metrics_path.empty()) {
    rlt::sweep::JsonlFileSink msink(c.metrics_path);
    rlt::obs::dump(rlt::obs::snapshot_all(), msink, mode, config_key(o));
    msink.close();
  }
  const rlt::sweep::EngineStats& engine = sum.engine;
  std::cout << sum.stable_text();
  std::cout << "--- timing (not digest material) ---\n"
            << "elapsed_ms " << engine.elapsed_ns / 1'000'000 << "\n"
            << "elapsed_us " << engine.elapsed_ns / 1'000 << "\n"
            << "scenario_ms_total " << engine.wall_ns_total / 1'000'000
            << "\n"
            << "scenario_ms_max " << engine.wall_ns_max / 1'000'000 << "\n"
            << "threads " << o.threads << "\n"
            << "stamped " << engine.stamped << "\n"
            << "peak_rss_mb " << std::fixed << std::setprecision(1)
            << peak_rss_mb() << "\n";
  return sum.failed() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli c;
  // --explore without --seeds runs 0:10, like the other sweeps.
  c.eopts.seed_end = 10;
  std::vector<const Flag*> used;
  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--help" || a == "-h") usage(0);
    if (!a.empty() && a[0] != '-') {
      // Positional arguments are the shard stores of --merge.
      c.merge_files.push_back(a);
      continue;
    }
    const Flag* flag = std::find_if(std::begin(kFlags), std::end(kFlags),
                                    [&](const Flag& f) { return a == f.name; });
    if (flag == std::end(kFlags)) {
      std::cerr << "sweep_main: unknown flag " << a << "\n";
      usage(2);
    }
    std::string value;
    if (flag->takes_value) {
      if (i + 1 >= args.size()) {
        std::cerr << "sweep_main: " << a << " needs a value\n";
        usage(2);
      }
      value = args[++i];
    }
    flag->set(c, value);
    used.push_back(flag);
  }
  const auto flag_used = [&](std::string_view name) {
    return std::any_of(used.begin(), used.end(),
                       [&](const Flag* f) { return name == f->name; });
  };

  // Every flag used must apply to the run the command names.  --merge
  // and --replay read every config from their input files, so nothing
  // that shapes or executes a sweep may accompany them.
  const unsigned run = c.merge                 ? kMerge
                       : flag_used("--replay") ? kReplay
                       : c.term                ? kTerm
                       : !c.explore            ? kSafety
                       : c.eopts.objective == Objective::kRounds ? kRounds
                                                                 : kViolation;
  const unsigned need = run | (c.list ? kList : 0u);
  for (const Flag* f : used) {
    if ((f->runs & need) == need) continue;
    std::cerr << "sweep_main: ";
    if (run == kMerge) {
      std::cerr << "--merge is standalone (only --out may accompany it; "
                   "every config comes from the shard headers)\n";
    } else if (run == kReplay) {
      std::cerr << "--replay is standalone (it reads every config from the "
                   "store)\n";
    } else {
      std::cerr << f->name << " does not apply to "
                << ((f->runs & run) != 0 ? "--list" : run_name(run)) << "\n";
    }
    usage(2);
  }

  // Rules between flags.
  if (run == kMerge && c.merge_files.empty()) {
    std::cerr << "sweep_main: --merge needs at least one shard store\n";
    usage(2);
  }
  if (run != kMerge && !c.merge_files.empty()) {
    std::cerr << "sweep_main: unexpected positional argument '"
              << c.merge_files.front() << "' (shard stores go with --merge)\n";
    usage(2);
  }
  if (c.hooks.trace_times && c.trace_path.empty()) {
    std::cerr << "sweep_main: --trace-times needs --trace\n";
    usage(2);
  }
  if (run == kSafety) {
    // Pairing validation: a fault kind that applies to none of the swept
    // algorithms would be dropped silently by enumeration (plans_for);
    // the caller asked for a fault axis that cannot run, so reject it.
    bool faulty = false;
    bool lossy = false;
    for (const FaultKind f : c.opts.faults) {
      if (f == FaultKind::kNone) continue;
      faulty = true;
      lossy = lossy || f == FaultKind::kLossy;
      const bool applies = std::any_of(
          c.opts.algorithms.begin(), c.opts.algorithms.end(),
          [f](Algorithm alg) { return rlt::sweep::fault_applies(f, alg); });
      if (!applies) {
        std::cerr << "sweep_main: --faults " << rlt::sweep::to_string(f)
                  << " applies to "
                  << (f == FaultKind::kStall
                          ? "none of the requested algorithms (stall needs "
                            "a simulator family: modeled, alg2, or alg4)"
                          : "abd only, which --algorithms excludes")
                  << "\n";
        usage(2);
      }
    }
    // Fault seeds seed only faulty schedules: without a faulty kind they
    // would be dropped silently, like a fault kind no algorithm takes.
    for (const char* seeds : {"--crash-seeds", "--fault-seeds"}) {
      if (flag_used(seeds) && !faulty) {
        std::cerr << "sweep_main: " << seeds
                  << " needs a faulty kind in --faults\n";
        usage(2);
      }
    }
    if (flag_used("--drop-prob") && !lossy) {
      std::cerr << "sweep_main: --drop-prob needs lossy in --faults\n";
      usage(2);
    }
  }
  if (run == kTerm || run == kRounds) {
    // Algorithm 1's game, alone or composed, needs 3 processes: a smaller
    // count would error on every scenario of the family, so reject the
    // pair, default families included.
    const TermSweepOptions& t = c.topts;
    const ExploreOptions& e = c.eopts;
    for (const Family f : run == kTerm ? t.families : e.families) {
      for (const int p : run == kTerm ? t.process_counts : e.process_counts) {
        if (p >= rlt::term::min_processes(f)) continue;
        std::cerr << "sweep_main: --families " << rlt::term::to_string(f)
                  << " needs --processes >= " << rlt::term::min_processes(f)
                  << " (got " << p << ")\n";
        usage(2);
      }
    }
  }
  // Violation hunts default to the safety sweep's 3 processes; the
  // rounds objective keeps the termination lab's 4.
  if (run == kViolation && !flag_used("--processes")) {
    c.eopts.process_counts = {3};
  }

  try {
    switch (run) {
      case kMerge: return run_merge(c);
      case kReplay: return run_replay(c.replay_path);
      case kTerm:
        return run_mode(c, "term", c.topts,
                        rlt::term::enumerate_term_scenarios,
                        rlt::term::run_term_sweep);
      case kSafety:
        return run_mode(c, "safety", c.opts, rlt::sweep::enumerate_scenarios,
                        rlt::sweep::run_sweep);
      default:
        return run_mode(c, "explore", c.eopts,
                        rlt::explore::enumerate_explore_instances,
                        rlt::explore::run_explore);
    }
  } catch (const std::exception& e) {
    // Oversized cross-products, unwritable stores, thread-spawn failures,
    // and failed merge validations land here.
    std::cerr << "sweep_main: " << e.what() << "\n";
    return 2;
  }
}
