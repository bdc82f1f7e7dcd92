#include "sweep/sweep.hpp"

#include <sstream>

#include "obs/forensics.hpp"
#include "sweep/fnv.hpp"
#include "util/assert.hpp"

namespace rlt::sweep {
namespace {

/// Materialization cap of enumerate_shard; per shard, so sharding raises
/// it N-fold.  run_sweep streams and needs no cap.
constexpr std::uint64_t kMaxScenarios = 10'000'000;

/// Expands the fault axis for one family: kNone contributes one
/// fault-free plan, each applicable faulty kind one plan per fault seed,
/// inapplicable kinds nothing (fault_applies in scenario.hpp is the
/// single pairing authority).  A family with no applicable plan at all
/// (the list named only faults of other families) still runs once,
/// fault-free — a fault sweep never silently drops a family.
std::vector<FaultPlan> plans_for(const SweepOptions& o, Algorithm alg) {
  std::vector<FaultPlan> plans;
  for (const FaultKind f : o.faults) {
    if (!fault_applies(f, alg)) continue;
    if (f == FaultKind::kNone) {
      plans.push_back(FaultPlan{});
    } else {
      for (const std::uint64_t cs : o.crash_seeds) {
        FaultPlan plan{f, cs};
        if (f == FaultKind::kLossy) plan.param = o.drop_permille;
        plans.push_back(plan);
      }
    }
  }
  if (plans.empty()) plans.push_back(FaultPlan{});
  return plans;
}

/// This shard's scenarios in enumeration order: per seed, algorithm ×
/// semantics × adversary × process count × fault plan; each captures
/// forensics when `forensics` says so.
Cursor<Scenario> scenario_cursor(const SweepOptions& o, bool forensics) {
  RLT_CHECK_MSG(o.seed_begin <= o.seed_end, "seed range is reversed");
  RLT_CHECK_MSG(!o.faults.empty(), "fault-kind list is empty");
  RLT_CHECK_MSG(!o.crash_seeds.empty(), "crash-seed list is empty");
  std::vector<Scenario> configs;
  for (const Algorithm alg : o.algorithms) {
    const std::vector<FaultPlan> plans = plans_for(o, alg);
    // Non-modeled algorithms ignore the semantics axis; emit them once.
    const std::size_t sem_count =
        alg == Algorithm::kModeled ? o.semantics.size() : 1;
    for (std::size_t si = 0; si < sem_count; ++si) {
      for (const AdversaryKind adv : o.adversaries) {
        for (const int procs : o.process_counts) {
          for (const FaultPlan& plan : plans) {
            Scenario s;
            s.algorithm = alg;
            s.semantics = alg == Algorithm::kModeled ? o.semantics[si]
                                                     : sim::Semantics::kAtomic;
            s.adversary = adv;
            s.processes = procs;
            s.writes_per_process = o.writes_per_process;
            s.max_actions = o.max_actions_per_scenario;
            s.faults = plan;
            s.online_check = o.online;
            s.forensics = forensics;
            configs.push_back(s);
          }
        }
      }
    }
  }
  return Cursor<Scenario>(std::move(configs), o.seed_begin, o.seed_end,
                          o.shard);
}

/// The safety sweep as an engine mode (engine.hpp documents the trait).
struct SafetyMode {
  using Item = Scenario;
  using Result = ScenarioResult;
  static constexpr std::string_view kKind = "safety";
  static constexpr std::array<std::string_view, 4> kClasses{"ok", "viol",
                                                            "blocked", "err"};

  const SweepOptions& o;
  bool forensics;  ///< The hooks name a forensics directory.
  SweepFold folded;

  [[nodiscard]] Cursor<Scenario> cursor() const {
    return scenario_cursor(o, forensics);
  }

  static ScenarioResult run(const Scenario& s) { return run_scenario(s); }

  /// An ok run that drew nothing is every seed's run of its config, so
  /// the engine stamps it onto the later seeds.  Non-ok results always
  /// run: their forensics artifacts embed the scenario key.
  static bool stampable(const ScenarioResult& r) {
    return r.verdict == Verdict::kOk;
  }

  /// The verdict's slot in kClasses.
  static int progress_class(const Scenario&, const ScenarioResult& r) {
    switch (r.verdict) {
      case Verdict::kOk: return 0;
      case Verdict::kViolation: return 1;
      case Verdict::kBlocked: return 2;
      case Verdict::kError: return 3;
    }
    return 3;
  }

  /// Canonical per-scenario record: exactly the digest material (plus
  /// the failure detail and message accounting) in a fixed field order,
  /// so the store is byte-identical whenever the digest is — and
  /// mergeable whatever the shard count was.
  static void record(const Scenario&, const ScenarioResult& r, Record& rec) {
    rec.str("verdict", to_string(r.verdict))
        .u64("steps", r.steps)
        .u64("ops", r.ops)
        .hex("history_hash", r.history_hash)
        .u64("delivered", r.net_delivered)
        .u64("dropped", r.net_dropped)
        .u64("duplicated", r.net_duplicated)
        .u64("msgs", r.net_msgs)
        .u64("bytes", r.net_bytes)
        .u64("rts", r.net_round_trips)
        .str("detail", r.detail);
  }

  static void span(const Scenario&, const ScenarioResult& r, bool times,
                   Record& span) {
    span.str("verdict", to_string(r.verdict))
        .u64("steps", r.steps)
        .u64("ops", r.ops);
    if (times) span.u64("wall_ns", r.wall_ns).u64("check_ns", r.check_ns);
  }

  /// One canonical-JSON artifact per non-ok scenario.  Runners that could
  /// not capture forensics (kError unwound before the history existed)
  /// still get an honest stub.
  static void artifact(const Scenario& s, ScenarioResult& r,
                       std::uint64_t gi, const std::string& dir) {
    if (r.verdict == Verdict::kOk) return;
    std::string body = std::move(r.forensics);
    if (body.empty()) {
      Record stub;
      stub.u64("forensics", 1)
          .str("key", s.key())
          .str("verdict", to_string(r.verdict))
          .str("detail", r.detail);
      body = stub.json() + "\n";
    }
    obs::write_artifact(dir, "scenario-" + std::to_string(gi) + ".json",
                        body);
  }

  void fold(const std::string& key, const Scenario&, const ScenarioResult& r) {
    folded.add(key, r);
  }

  SweepSummary finish(RecordSink* sink) { return folded.finish(sink); }
};

}  // namespace

bool SweepFold::add_record(const std::string& line) {
  RecordReader in(line);
  const std::uint64_t gi = in.u64("gi");
  const std::string key = in.str("key");
  (void)in.str("mode");
  ScenarioResult r;
  r.verdict = spelled(in.str("verdict"), {Verdict::kOk, Verdict::kViolation,
                                          Verdict::kBlocked, Verdict::kError});
  r.steps = in.u64("steps");
  r.ops = in.u64("ops");
  r.history_hash = in.hex("history_hash");
  r.net_delivered = in.u64("delivered");
  r.net_dropped = in.u64("dropped");
  r.net_duplicated = in.u64("duplicated");
  r.net_msgs = in.u64("msgs");
  r.net_bytes = in.u64("bytes");
  r.net_round_trips = in.u64("rts");
  r.detail = in.str("detail");
  if (!in.ok() ||
      scenario_record<SafetyMode>(gi, key, Scenario{}, r).json() != line) {
    return false;
  }
  add(key, r);
  return true;
}

std::string config_key(const SweepOptions& o) {
  std::ostringstream os;
  os << "algs=" << comma_list(o.algorithms)
     << " sems=" << comma_list(o.semantics)
     << " advs=" << comma_list(o.adversaries)
     << " faults=" << comma_list(o.faults)
     << " fseeds=" << comma_list(o.crash_seeds)
     << " drop=" << o.drop_permille
     << " procs=" << comma_list(o.process_counts)
     << " seeds=" << o.seed_begin << ':' << o.seed_end
     << " writes=" << o.writes_per_process
     << " max-actions=" << o.max_actions_per_scenario;
  return os.str();
}

Enumeration enumerate_shard(const SweepOptions& o) {
  Enumeration en;
  en.total = materialize(scenario_cursor(o, false), kMaxScenarios,
                         "sweep cross-product exceeds the per-shard scenario "
                         "limit; narrow the seed range or axes, or use more "
                         "shards",
                         en.global_indices, en.scenarios);
  return en;
}

std::vector<Scenario> enumerate_scenarios(const SweepOptions& o) {
  return enumerate_shard(o).scenarios;
}

std::string SweepSummary::stable_text() const {
  std::ostringstream os;
  os << "scenarios " << scenarios << '\n'
     << "ok " << ok << '\n'
     << "violations " << violations << '\n'
     << "blocked " << blocked << '\n'
     << "errors " << errors << '\n'
     << "steps " << total_steps << '\n'
     << "ops " << total_ops << '\n'
     << "digest " << std::hex << digest << std::dec << '\n';
  for (const std::string& f : failures) os << "failure " << f << '\n';
  if (failures_truncated > 0) {
    // Deterministic truncation marker: the counters above are complete,
    // and this line says how many non-ok scenarios the list left out.
    os << "failure ... and " << failures_truncated << " more non-ok "
       << "scenario(s) not listed\n";
  }
  return os.str();
}

SweepFold::SweepFold() { sum_.digest = kFnvOffset; }

void SweepFold::add(const std::string& key, const ScenarioResult& r) {
  ++sum_.scenarios;
  switch (r.verdict) {
    case Verdict::kOk: ++sum_.ok; break;
    case Verdict::kViolation: ++sum_.violations; break;
    case Verdict::kBlocked: ++sum_.blocked; break;
    case Verdict::kError: ++sum_.errors; break;
  }
  sum_.total_steps += r.steps;
  sum_.total_ops += r.ops;
  fnv_mix_str(sum_.digest, key);
  fnv_mix_u64(sum_.digest, static_cast<std::uint64_t>(r.verdict));
  fnv_mix_u64(sum_.digest, r.steps);
  fnv_mix_u64(sum_.digest, r.ops);
  fnv_mix_u64(sum_.digest, r.history_hash);
  if (r.verdict != Verdict::kOk) {
    if (sum_.failures.size() < kMaxReportedFailures) {
      sum_.failures.push_back(key + ": [" + to_string(r.verdict) + "] " +
                              r.detail);
    } else {
      ++sum_.failures_truncated;
    }
  }
}

SweepSummary SweepFold::finish(RecordSink*) { return std::move(sum_); }

SweepSummary run_sweep(const SweepOptions& o, std::uint64_t progress_every,
                       RecordSink* sink, const obs::Hooks* hooks) {
  SafetyMode mode{o, hooks != nullptr && hooks->forensics_on(), {}};
  return run_engine(mode, progress_every, sink, hooks);
}

}  // namespace rlt::sweep
