#include "explore/explore.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>

#include "explore/policy.hpp"
#include "explore/shrink.hpp"
#include "obs/forensics.hpp"
#include "sim/schedule_policy.hpp"
#include "sweep/fnv.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace rlt::explore {
namespace {

using sweep::fnv_mix_str;
using sweep::fnv_mix_u64;
using sweep::kFnvOffset;

/// Materialization cap of enumerate_explore_shard; per shard, so
/// sharding raises it N-fold.  run_explore streams and needs no cap.
constexpr std::uint64_t kMaxInstances = 1'000'000;
/// Violation ranks (kViolation outranks kBlocked outranks everything);
/// store records persist them as the "found" string.
constexpr int kRankViolation = 3;
constexpr int kRankBlocked = 2;

/// Independent derived seed streams (domain-separated FNV mixes).
std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t h = kFnvOffset;
  fnv_mix_u64(h, a);
  fnv_mix_u64(h, b);
  fnv_mix_u64(h, c);
  return h;
}

[[nodiscard]] bool game_like(term::Family f) {
  return f == term::Family::kGame || f == term::Family::kComposed;
}

/// One run's deterministic outcome, whichever objective produced it.
struct ProbeOutcome {
  std::uint64_t score = 0;
  int rank = 0;  ///< kViolation only.
  std::uint64_t fingerprint = 0;
  std::uint64_t steps = 0;
  std::string verdict;
  std::string forensics;  ///< Artifact (kViolation probes with forensics on).
};

ProbeOutcome probe(const ExploreInstance& e, RecordingPolicy& policy) {
  ProbeOutcome out;
  if (e.objective == Objective::kRounds) {
    term::TermProbeSpec spec;
    spec.family = e.family;
    spec.processes = e.processes;
    spec.max_rounds = e.max_rounds;
    spec.max_actions = e.max_actions;
    spec.seed = e.seed;
    sim::PolicyAdversary adv(policy);
    const term::TermProbe p = term::run_term_probe(spec, adv);
    out.score = p.rounds_score;
    out.fingerprint = p.outcome_hash;
    out.steps = p.steps;
    out.verdict = p.decided ? "decided" : p.capped ? "capped" : "budget";
  } else {
    sweep::Scenario s;
    s.algorithm = e.algorithm;
    s.semantics = sim::Semantics::kLinearizable;
    s.processes = e.processes;
    s.seed = e.seed;
    s.writes_per_process = e.writes_per_process;
    s.max_actions = e.max_actions;
    s.abd_read_write_back = e.abd_read_write_back;
    s.explore_faults = e.fault_menu;
    s.online_check = e.online;
    s.forensics = e.forensics;
    const sweep::ScenarioResult r = sweep::run_scenario_policy(s, policy);
    out.forensics = r.forensics;
    out.rank = r.verdict == sweep::Verdict::kViolation ? kRankViolation
               : r.verdict == sweep::Verdict::kBlocked ? kRankBlocked
                                                       : 0;
    // Lexicographic (rank, peak concurrency): the concurrency observation
    // gives hill climbing a gradient toward overlap-heavy schedules even
    // while no violation has surfaced yet.
    out.score = (static_cast<std::uint64_t>(out.rank) << 32) |
                std::min<std::uint64_t>(policy.peak_pending(), 0xffffffffu);
    out.fingerprint = r.history_hash;
    out.steps = r.steps;
    out.verdict = sweep::to_string(r.verdict);
  }
  return out;
}

/// Seeded trace mutation for the hill-climbing strategy: point rewrites,
/// chunk deletions, insertions, and tail truncations (1-3 of them).
ScheduleTrace mutate(const ScheduleTrace& base, util::Rng& m) {
  ScheduleTrace t = base;
  if (t.choices.empty()) {
    t.choices.push_back(static_cast<std::uint32_t>(m.next_u64()));
    return t;
  }
  const int mutations = 1 + static_cast<int>(m.uniform(3));
  for (int i = 0; i < mutations && !t.choices.empty(); ++i) {
    const std::size_t size = t.choices.size();
    switch (m.uniform(4)) {
      case 0: {  // point rewrite
        const std::size_t pos = static_cast<std::size_t>(m.uniform(size));
        t.choices[pos] = static_cast<std::uint32_t>(m.next_u64());
        break;
      }
      case 1: {  // chunk deletion
        const std::size_t pos = static_cast<std::size_t>(m.uniform(size));
        const std::size_t len = 1 + static_cast<std::size_t>(m.uniform(
                                        std::max<std::uint64_t>(size / 8, 1)));
        const std::size_t end = std::min(pos + len, size);
        t.choices.erase(
            t.choices.begin() + static_cast<std::ptrdiff_t>(pos),
            t.choices.begin() + static_cast<std::ptrdiff_t>(end));
        break;
      }
      case 2: {  // insertion
        const std::size_t pos = static_cast<std::size_t>(m.uniform(size + 1));
        t.choices.insert(t.choices.begin() + static_cast<std::ptrdiff_t>(pos),
                         static_cast<std::uint32_t>(m.next_u64()));
        break;
      }
      default: {  // tail truncation (keeps at least one choice)
        if (size > 1) {
          t.choices.resize(1 + static_cast<std::size_t>(m.uniform(size - 1)));
        }
        break;
      }
    }
  }
  return t;
}

std::unique_ptr<RecordingPolicy> make_policy(const ExploreInstance& e, int k,
                                             const ScheduleTrace& incumbent) {
  switch (e.strategy) {
    case Strategy::kRandom:
      return std::make_unique<RandomPolicy>(mix_seed(e.seed, 0xA11, k));
    case Strategy::kGreedy: {
      // Run 0 is the pure heuristic; later runs jitter ~1/16 of the
      // decisions so the budget explores the heuristic's neighborhood.
      const std::uint32_t jitter = k == 0 ? 0 : 16;
      if (e.objective == Objective::kRounds) {
        return std::make_unique<GreedyRoundsPolicy>(
            game_like(e.family), mix_seed(e.seed, 0x9EE, k), jitter);
      }
      return std::make_unique<GreedyViolationPolicy>(
          mix_seed(e.seed, 0x9EE, k), jitter);
    }
    case Strategy::kHillClimb: {
      if (k == 0) {
        return std::make_unique<RandomPolicy>(mix_seed(e.seed, 0xA11, 0));
      }
      util::Rng m(mix_seed(e.seed, 0xB17, k));
      return std::make_unique<ReplayPolicy>(mutate(incumbent, m),
                                            mix_seed(e.seed, 0xFA11, k));
    }
  }
  RLT_CHECK_MSG(false, "unknown strategy");
  return nullptr;
}

}  // namespace

const char* to_string(Objective o) noexcept {
  switch (o) {
    case Objective::kRounds: return "rounds";
    case Objective::kViolation: return "viol";
  }
  return "?";
}

const char* to_string(Strategy s) noexcept {
  switch (s) {
    case Strategy::kGreedy: return "greedy";
    case Strategy::kHillClimb: return "hill";
    case Strategy::kRandom: return "random";
  }
  return "?";
}

std::string ExploreInstance::key() const {
  std::ostringstream os;
  os << "explore/" << to_string(objective) << '/';
  if (objective == Objective::kRounds) {
    os << term::to_string(family) << '/' << to_string(strategy) << "/p"
       << processes << "/r" << max_rounds;
  } else {
    os << sweep::to_string(algorithm) << '/' << to_string(strategy) << "/p"
       << processes << "/w" << writes_per_process;
  }
  os << "/b" << search_budget;
  if (!abd_read_write_back) os << "/nowb";
  if (fault_menu) os << "/fmenu";
  os << "/seed" << seed;
  return os.str();
}

ReplayReport replay_trace(const ExploreInstance& e, const ScheduleTrace& trace,
                          std::uint64_t fallback_seed) {
  ReplayPolicy policy(trace, fallback_seed);
  const ProbeOutcome p = probe(e, policy);
  ReplayReport r;
  r.score = p.score;
  r.rank = p.rank;
  r.fingerprint = p.fingerprint;
  r.steps = p.steps;
  r.effective = policy.recorded();
  r.verdict = p.verdict;
  r.forensics = p.forensics;
  return r;
}

ExploreOutcome run_explore_instance(const ExploreInstance& e) {
  ExploreOutcome out;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    RLT_CHECK_MSG(e.search_budget >= 1, "search budget must be positive");
    out.fallback_seed = mix_seed(e.seed, 0x5EED, 0);
    ScheduleTrace incumbent;
    bool have_best = false;
    for (int k = 0; k < e.search_budget; ++k) {
      const std::unique_ptr<RecordingPolicy> policy =
          make_policy(e, k, incumbent);
      const ProbeOutcome p = probe(e, *policy);
      ++out.runs;
      out.total_steps += p.steps;
      if (!have_best || p.score > out.best_score) {
        have_best = true;
        out.best_score = p.score;
        out.found_rank = p.rank;
        out.fingerprint = p.fingerprint;
        out.best_trace = policy->recorded();
        incumbent = out.best_trace;
        out.detail = p.verdict;
      }
    }
    // Shrink whatever the search "found": a violation/blocked schedule,
    // or a budget-defeating survival (the non-terminating witness).
    // The probe's verdict string — not a score threshold — decides: the
    // coin family's score (longest personal walk) routinely exceeds any
    // round bound on runs that decided just fine.
    const bool worth_shrinking =
        e.objective == Objective::kViolation
            ? out.found_rank >= kRankBlocked
            : out.detail == "capped";
    out.unshrunk_len = out.best_trace.size();
    if (worth_shrinking && e.shrink_budget > 0) {
      const int target_rank = out.found_rank;
      const std::uint64_t target_score = out.best_score;
      const auto keep = [&](const ScheduleTrace& candidate) {
        const ReplayReport r =
            replay_trace(e, candidate, out.fallback_seed);
        return e.objective == Objective::kViolation
                   ? r.rank >= target_rank
                   : r.score >= target_score;
      };
      ShrinkResult sr =
          shrink(out.best_trace, keep, e.shrink_budget);
      out.shrunk = true;
      out.locally_minimal = sr.locally_minimal;
      out.shrink_probes = sr.probes + sr.repeats;
      out.shrink_repeats = sr.repeats;
      out.best_trace = std::move(sr.trace);
      // The persisted record describes the SHRUNK trace: re-derive its
      // own deterministic replay facts.
      const ReplayReport fin =
          replay_trace(e, out.best_trace, out.fallback_seed);
      out.best_score = fin.score;
      out.found_rank = fin.rank;
      out.fingerprint = fin.fingerprint;
      out.detail = fin.verdict;
    }
    out.trace_fnv = trace_hash(out.best_trace);
  } catch (const std::exception& ex) {
    out = ExploreOutcome{};
    out.error = true;
    out.detail = std::string("error: ") + ex.what();
  } catch (...) {
    out = ExploreOutcome{};
    out.error = true;
    out.detail = "error: unknown exception";
  }
  out.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  return out;
}

std::string config_key(const ExploreOptions& o) {
  std::ostringstream os;
  os << "objective=" << to_string(o.objective)
     << " strategy=" << to_string(o.strategy);
  if (o.objective == Objective::kRounds) {
    os << " families=" << sweep::comma_list(o.families)
       << " rounds=" << sweep::comma_list(o.round_budgets);
  } else {
    os << " algs=" << sweep::comma_list(o.algorithms)
       << " writes=" << o.writes_per_process
       << " wb=" << (o.abd_read_write_back ? 1 : 0)
       << " fmenu=" << (o.fault_menu ? 1 : 0);
  }
  os << " procs=" << sweep::comma_list(o.process_counts)
     << " seeds=" << o.seed_begin << ':' << o.seed_end
     << " budget=" << o.search_budget << " shrink=" << o.shrink_budget
     << " max-actions=" << o.max_actions_per_run;
  return os.str();
}

namespace {

/// This shard's instances in enumeration order: per seed, process count
/// × (family × round budget | algorithm).
sweep::Cursor<ExploreInstance> explore_cursor(const ExploreOptions& o) {
  RLT_CHECK_MSG(o.seed_begin < o.seed_end, "instance-seed range is empty");
  RLT_CHECK_MSG(o.search_budget >= 1, "search budget must be positive");
  RLT_CHECK_MSG(!o.process_counts.empty(), "process-count list is empty");
  if (o.objective == Objective::kRounds) {
    RLT_CHECK_MSG(!o.families.empty(), "family list is empty");
    RLT_CHECK_MSG(!o.round_budgets.empty(), "round-budget list is empty");
  } else {
    RLT_CHECK_MSG(!o.algorithms.empty(), "algorithm list is empty");
  }
  ExploreInstance base;
  base.objective = o.objective;
  base.strategy = o.strategy;
  base.max_actions = o.max_actions_per_run;
  base.search_budget = o.search_budget;
  base.shrink_budget = o.shrink_budget;
  std::vector<ExploreInstance> configs;
  for (const int procs : o.process_counts) {
    base.processes = procs;
    if (o.objective == Objective::kRounds) {
      for (const term::Family f : o.families) {
        for (const int rounds : o.round_budgets) {
          ExploreInstance e = base;
          e.family = f;
          e.max_rounds = rounds;
          configs.push_back(e);
        }
      }
    } else {
      for (const sweep::Algorithm a : o.algorithms) {
        ExploreInstance e = base;
        e.algorithm = a;
        e.writes_per_process = o.writes_per_process;
        e.abd_read_write_back =
            a == sweep::Algorithm::kAbd ? o.abd_read_write_back : true;
        e.fault_menu = a == sweep::Algorithm::kAbd && o.fault_menu;
        e.online = o.online;
        configs.push_back(e);
      }
    }
  }
  return sweep::Cursor<ExploreInstance>(std::move(configs), o.seed_begin,
                                        o.seed_end, o.shard);
}

}  // namespace

ExploreEnumeration enumerate_explore_shard(const ExploreOptions& o) {
  ExploreEnumeration en;
  en.total = sweep::materialize(
      explore_cursor(o), kMaxInstances,
      "exploration cross-product exceeds the per-shard instance limit; "
      "narrow the seed range or axes, or use more shards",
      en.global_indices, en.instances);
  return en;
}

std::vector<ExploreInstance> enumerate_explore_instances(
    const ExploreOptions& o) {
  return enumerate_explore_shard(o).instances;
}

std::string ExploreSummary::stable_text() const {
  std::ostringstream os;
  os << "instances " << instances << '\n'
     << "search_runs " << search_runs << '\n'
     << "violations_found " << violations_found << '\n'
     << "blocked_found " << blocked_found << '\n'
     << "shrunk_traces " << shrunk_traces << '\n'
     << "errors " << errors << '\n'
     << "steps " << total_steps << '\n'
     << "best_score " << best_score << '\n'
     << "best_key " << (best_key.empty() ? "n/a" : best_key) << '\n'
     << "digest " << std::hex << digest << std::dec << '\n';
  for (const std::string& f : failures) os << "failure " << f << '\n';
  if (failures_truncated > 0) {
    os << "failure ... and " << failures_truncated
       << " more failing instance(s) not listed\n";
  }
  return os.str();
}

ExploreFold::ExploreFold() { sum_.digest = kFnvOffset; }

void ExploreFold::add(const std::string& key, const ExploreOutcome& r) {
  ++sum_.instances;
  sum_.search_runs += r.runs;
  if (r.found_rank >= kRankViolation) ++sum_.violations_found;
  if (r.found_rank == kRankBlocked) ++sum_.blocked_found;
  if (r.shrunk) ++sum_.shrunk_traces;
  if (r.error) ++sum_.errors;
  sum_.total_steps += r.total_steps;
  // Ties keep the earlier instance, and an all-zero exploration names
  // its first non-error instance: best_key is "n/a" only when every
  // instance errored.
  if (!r.error && (r.best_score > sum_.best_score || sum_.best_key.empty())) {
    sum_.best_score = r.best_score;
    sum_.best_key = key;
  }
  fnv_mix_str(sum_.digest, key);
  fnv_mix_u64(sum_.digest, r.best_score);
  fnv_mix_u64(sum_.digest, static_cast<std::uint64_t>(r.found_rank));
  fnv_mix_u64(sum_.digest, r.fingerprint);
  fnv_mix_u64(sum_.digest, r.trace_fnv);
  fnv_mix_u64(sum_.digest, r.runs);
  fnv_mix_u64(sum_.digest, r.total_steps);
  fnv_mix_u64(sum_.digest, r.shrunk ? 1 : 0);
  fnv_mix_u64(sum_.digest, r.locally_minimal ? 1 : 0);
  fnv_mix_u64(sum_.digest, r.shrink_probes);
  fnv_mix_u64(sum_.digest, r.error ? 1 : 0);
  if (r.error) {
    if (sum_.failures.size() < kMaxReportedFailures) {
      sum_.failures.push_back(key + ": " + r.detail);
    } else {
      ++sum_.failures_truncated;
    }
  }
}

ExploreSummary ExploreFold::finish(sweep::RecordSink*) {
  return std::move(sum_);
}

namespace {

/// The exploration lab as an engine mode (sweep/engine.hpp documents the
/// trait).
struct ExploreMode {
  using Item = ExploreInstance;
  using Result = ExploreOutcome;
  static constexpr std::string_view kKind = "explore";
  // "clean", not "done": the progress protocol's state counter already
  // uses the "done" key, and every key in a line must be unique.
  static constexpr std::array<std::string_view, 4> kClasses{"clean", "found",
                                                            "other", "err"};

  const ExploreOptions& o;
  ExploreFold folded;

  [[nodiscard]] sweep::Cursor<ExploreInstance> cursor() const {
    return explore_cursor(o);
  }

  static ExploreOutcome run(const ExploreInstance& e) {
    ExploreOutcome r = run_explore_instance(e);
    if (obs::enabled()) {
      obs::count(obs::Counter::kExploreRuns, r.runs);
      obs::count(obs::Counter::kExploreShrinkProbes, r.shrink_probes);
      obs::count(obs::Counter::kExploreSteps, r.total_steps);
      obs::count(obs::Counter::kExploreShrinkRepeats, r.shrink_repeats);
    }
    return r;
  }

  /// clean / found / other / err.  "found" = the search located what it
  /// hunts (a violation/blocked schedule, or a budget-defeating survival
  /// for the rounds objective).
  static int progress_class(const ExploreInstance& e, const ExploreOutcome& r) {
    if (r.error) return 3;
    const bool found = e.objective == Objective::kViolation
                           ? r.found_rank >= kRankBlocked
                           : r.detail == "capped";
    return found ? 1 : 0;
  }

  static void record(const ExploreInstance& e, const ExploreOutcome& r,
                     sweep::Record& rec) {
    const char* found = "none";
    if (e.objective == Objective::kViolation) {
      found = r.found_rank >= kRankViolation ? "violation"
              : r.found_rank == kRankBlocked ? "blocked"
                                             : "none";
    } else {
      // The best run's own verdict ("decided" / "capped" / "budget"),
      // not a score threshold — see the shrink gate in
      // run_explore_instance.
      found = r.detail.c_str();
    }
    rec.str("objective", to_string(e.objective))
        .str("strategy", to_string(e.strategy))
        .str("target", e.objective == Objective::kRounds
                           ? term::to_string(e.family)
                           : sweep::to_string(e.algorithm))
        .u64("processes", static_cast<std::uint64_t>(e.processes))
        .u64("rounds", static_cast<std::uint64_t>(e.max_rounds))
        .u64("writes", static_cast<std::uint64_t>(e.writes_per_process))
        .u64("max_actions", e.max_actions)
        .u64("seed", e.seed)
        .u64("budget", static_cast<std::uint64_t>(e.search_budget))
        .boolean("write_back", e.abd_read_write_back)
        .boolean("fault_menu", e.fault_menu)
        .u64("runs", r.runs)
        .u64("steps", r.total_steps)
        .u64("best_score", r.best_score)
        .str("found", r.error ? "error" : found)
        .hex("fingerprint", r.fingerprint)
        .hex("trace_fnv", r.trace_fnv)
        .u64("trace_len", r.best_trace.size())
        .u64("unshrunk_len", r.unshrunk_len)
        .boolean("shrunk", r.shrunk)
        .boolean("locally_minimal", r.locally_minimal)
        .u64("shrink_probes", r.shrink_probes)
        .u64("fallback_seed", r.fallback_seed)
        .str("trace", encode_trace(r.best_trace))
        .str("detail", r.detail);
  }

  static void span(const ExploreInstance&, const ExploreOutcome& r, bool times,
                   sweep::Record& span) {
    span.u64("runs", r.runs)
        .u64("best_score", r.best_score)
        .u64("shrink_probes", r.shrink_probes)
        .u64("steps", r.total_steps);
    if (times) span.u64("wall_ns", r.wall_ns);
  }

  /// Witness forensics: replay the shrunk best trace of a found violation
  /// or blocked schedule with capture on, so it ships with its
  /// explanation (certificate / quorum ledger / timeline).  The replay is
  /// deterministic, so the artifact is byte-identical across threads and
  /// shards.
  static void artifact(const ExploreInstance& e, ExploreOutcome& r,
                       std::uint64_t gi, const std::string& dir) {
    if (e.objective != Objective::kViolation || r.error ||
        r.found_rank < kRankBlocked) {
      return;
    }
    ExploreInstance fe = e;
    fe.forensics = true;
    const ReplayReport rep = replay_trace(fe, r.best_trace, r.fallback_seed);
    std::string body = rep.forensics;
    if (body.empty()) {
      sweep::Record stub;
      stub.u64("forensics", 1)
          .str("key", e.key())
          .str("verdict", rep.verdict)
          .str("detail", "replay captured no forensics");
      body = stub.json() + "\n";
    }
    obs::write_artifact(dir, "explore-" + std::to_string(gi) + ".json", body);
  }

  void fold(const std::string& key, const ExploreInstance&,
            const ExploreOutcome& r) {
    folded.add(key, r);
  }

  ExploreSummary finish(sweep::RecordSink* sink) {
    return folded.finish(sink);
  }
};

/// The one parse of an explore record, for the merge and --replay: the
/// instance and outcome ExploreMode::record renders back to exactly the
/// line's bytes.  False, with the reason in `*error`, otherwise.
bool read_explore_line(const std::string& line, ExploreInstance& e,
                       ExploreOutcome& r, std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  sweep::RecordReader in(line);
  const std::uint64_t gi = in.u64("gi");
  (void)in.str("key");  // The render checks both: the key is e.key().
  (void)in.str("mode");
  e.objective = sweep::spelled(in.str("objective"),
                               {Objective::kRounds, Objective::kViolation});
  e.strategy = sweep::spelled(
      in.str("strategy"),
      {Strategy::kGreedy, Strategy::kHillClimb, Strategy::kRandom});
  const std::string target = in.str("target");
  if (e.objective == Objective::kRounds) {
    e.family = sweep::spelled(
        target, {term::Family::kConsensus, term::Family::kComposed,
                 term::Family::kSharedCoin, term::Family::kGame});
  } else {
    e.algorithm = sweep::spelled(
        target, {sweep::Algorithm::kModeled, sweep::Algorithm::kAlg2,
                 sweep::Algorithm::kAlg4, sweep::Algorithm::kAbd});
  }
  // A value past an int's range wraps, and then does not render back.
  e.processes = static_cast<int>(in.u64("processes"));
  e.max_rounds = static_cast<int>(in.u64("rounds"));
  e.writes_per_process = static_cast<int>(in.u64("writes"));
  e.max_actions = in.u64("max_actions");
  e.seed = in.u64("seed");
  e.search_budget = static_cast<int>(in.u64("budget"));
  e.abd_read_write_back = in.boolean("write_back");
  e.fault_menu = in.boolean("fault_menu");
  r.runs = static_cast<std::uint32_t>(in.u64("runs"));
  r.total_steps = in.u64("steps");
  r.best_score = in.u64("best_score");
  const std::string found = in.str("found");
  r.error = found == "error";
  r.found_rank = found == "violation" ? kRankViolation
                 : found == "blocked" ? kRankBlocked
                                      : 0;
  r.fingerprint = in.hex("fingerprint");
  r.trace_fnv = in.hex("trace_fnv");
  (void)in.u64("trace_len");  // The render checks it against the trace.
  r.unshrunk_len = in.u64("unshrunk_len");
  r.shrunk = in.boolean("shrunk");
  r.locally_minimal = in.boolean("locally_minimal");
  r.shrink_probes = in.u64("shrink_probes");
  r.fallback_seed = in.u64("fallback_seed");
  const std::optional<ScheduleTrace> trace = decode_trace(in.str("trace"));
  r.detail = in.str("detail");
  if (!in.ok()) return fail("cannot read field \"" + in.failed_field() + "\"");
  if (!trace) return fail("malformed trace field");
  r.best_trace = *trace;
  if (sweep::scenario_record<ExploreMode>(gi, e.key(), e, r).json() != line) {
    return fail("the record's fields do not render back to its bytes");
  }
  return true;
}

}  // namespace

bool ExploreFold::add_record(const std::string& line) {
  ExploreInstance e;
  ExploreOutcome r;
  if (!read_explore_line(line, e, r, nullptr)) return false;
  add(e.key(), r);
  return true;
}

ExploreSummary run_explore(const ExploreOptions& o,
                           std::uint64_t progress_every,
                           sweep::RecordSink* sink, const obs::Hooks* hooks) {
  ExploreMode mode{o, {}};
  return sweep::run_engine(mode, progress_every, sink, hooks);
}

// ---- persisted-record parsing (the --replay path) -----------------------

std::optional<PersistedTrace> parse_explore_record(const std::string& line,
                                                   std::string* error) {
  PersistedTrace out;
  ExploreOutcome r;
  if (!read_explore_line(line, out.instance, r, error)) return std::nullopt;
  out.trace = std::move(r.best_trace);
  out.fallback_seed = r.fallback_seed;
  out.fingerprint = r.fingerprint;
  out.best_score = r.best_score;
  out.error = r.error;
  return out;
}

}  // namespace rlt::explore
