#include "explore/explore.hpp"

#include <algorithm>
#include <chrono>
#include <climits>
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

}  // namespace

bool ExploreFold::add_record(const std::string& line) {
  using sweep::field_bool;
  using sweep::field_hex;
  using sweep::field_u64;
  const auto key = sweep::field_str(line, "key");
  const auto runs = field_u64(line, "runs");
  const auto steps = field_u64(line, "steps");
  const auto best_score = field_u64(line, "best_score");
  const auto found = sweep::field_str(line, "found");
  const auto fingerprint = field_hex(line, "fingerprint");
  const auto trace_fnv = field_hex(line, "trace_fnv");
  const auto shrunk = field_bool(line, "shrunk");
  const auto locally_minimal = field_bool(line, "locally_minimal");
  const auto shrink_probes = field_u64(line, "shrink_probes");
  const auto detail = sweep::field_str(line, "detail");
  if (!key || !runs || *runs > UINT32_MAX || !steps || !best_score ||
      !found || !fingerprint || !trace_fnv || !shrunk || !locally_minimal ||
      !shrink_probes || !detail) {
    return false;
  }
  ExploreOutcome r;
  r.runs = static_cast<std::uint32_t>(*runs);
  r.total_steps = *steps;
  r.best_score = *best_score;
  r.found_rank = *found == "violation" ? kRankViolation
                 : *found == "blocked" ? kRankBlocked
                                       : 0;
  r.error = *found == "error";
  r.fingerprint = *fingerprint;
  r.trace_fnv = *trace_fnv;
  r.shrunk = *shrunk;
  r.locally_minimal = *locally_minimal;
  r.shrink_probes = *shrink_probes;
  r.detail = *detail;
  add(*key, r);
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
  using sweep::field_bool;
  using sweep::field_hex;
  using sweep::field_str;
  using sweep::field_u64;
  const auto fail = [&](const std::string& why) -> std::optional<PersistedTrace> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  if (field_str(line, "mode").value_or("") != "explore") {
    return fail("not an explore record (mode != \"explore\")");
  }
  PersistedTrace out;
  const auto objective = field_str(line, "objective");
  const auto strategy = field_str(line, "strategy");
  const auto target = field_str(line, "target");
  const auto trace = field_str(line, "trace");
  if (!objective || !strategy || !target || !trace) {
    return fail("record is missing objective/strategy/target/trace");
  }
  ExploreInstance& e = out.instance;
  if (*objective == "rounds") {
    e.objective = Objective::kRounds;
  } else if (*objective == "viol") {
    e.objective = Objective::kViolation;
  } else {
    return fail("unknown objective '" + *objective + "'");
  }
  if (*strategy == "greedy") e.strategy = Strategy::kGreedy;
  else if (*strategy == "hill") e.strategy = Strategy::kHillClimb;
  else if (*strategy == "random") e.strategy = Strategy::kRandom;
  else return fail("unknown strategy '" + *strategy + "'");
  if (e.objective == Objective::kRounds) {
    if (*target == "consensus") e.family = term::Family::kConsensus;
    else if (*target == "composed") e.family = term::Family::kComposed;
    else if (*target == "coin") e.family = term::Family::kSharedCoin;
    else if (*target == "game") e.family = term::Family::kGame;
    else return fail("unknown family '" + *target + "'");
  } else {
    if (*target == "modeled") e.algorithm = sweep::Algorithm::kModeled;
    else if (*target == "alg2") e.algorithm = sweep::Algorithm::kAlg2;
    else if (*target == "alg4") e.algorithm = sweep::Algorithm::kAlg4;
    else if (*target == "abd") e.algorithm = sweep::Algorithm::kAbd;
    else return fail("unknown algorithm '" + *target + "'");
  }
  const auto processes = field_u64(line, "processes");
  const auto rounds = field_u64(line, "rounds");
  const auto writes = field_u64(line, "writes");
  const auto max_actions = field_u64(line, "max_actions");
  const auto seed = field_u64(line, "seed");
  const auto budget = field_u64(line, "budget");
  const auto write_back = field_bool(line, "write_back");
  const auto fallback_seed = field_u64(line, "fallback_seed");
  const auto fingerprint = field_hex(line, "fingerprint");
  const auto best_score = field_u64(line, "best_score");
  if (!processes || !rounds || !writes || !max_actions || !seed || !budget ||
      !write_back || !fallback_seed || !fingerprint || !best_score) {
    return fail("record is missing config fields");
  }
  if (*processes > INT_MAX || *rounds > INT_MAX || *writes > INT_MAX ||
      *budget > INT_MAX) {
    return fail("processes/rounds/writes/budget exceeds INT_MAX");
  }
  e.processes = static_cast<int>(*processes);
  e.max_rounds = static_cast<int>(*rounds);
  e.writes_per_process = static_cast<int>(*writes);
  e.max_actions = *max_actions;
  e.seed = *seed;
  e.search_budget = static_cast<int>(*budget);
  e.abd_read_write_back = *write_back;
  // Absent in pre-fault-fabric stores; those traces ran without the menu.
  e.fault_menu = field_bool(line, "fault_menu").value_or(false);
  const std::optional<ScheduleTrace> decoded = decode_trace(*trace);
  if (!decoded) return fail("malformed trace field");
  out.trace = *decoded;
  out.fallback_seed = *fallback_seed;
  out.fingerprint = *fingerprint;
  out.best_score = *best_score;
  return out;
}

}  // namespace rlt::explore
