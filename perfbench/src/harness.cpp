#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "explore/explore.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "stats.hpp"
#include "sweep/fnv.hpp"
#include "sweep/sweep.hpp"
#include "term/term_sweep.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
namespace obs = rlt::obs;
namespace sw = rlt::sweep;
namespace term = rlt::term;
namespace ex = rlt::explore;

constexpr double kMiB = 1024.0 * 1024.0;
/// Most pool threads a pass uses (the CPUs it may run on cap it lower).
constexpr int kMaxThreads = 4;
/// Largest --seed accepted: seed × window must stay far from overflow.
constexpr std::uint64_t kMaxSeed = 1'000'000'000'000ULL;

constexpr std::array<const char*, 6> kSafetyFamilies = {
    "modeled-atomic", "modeled-lin", "modeled-wsl", "alg2", "alg4", "abd"};
constexpr std::array<const char*, 10> kTermPairs = {
    "consensus-rand",  "consensus-stall", "composed-scripted",
    "composed-rand",   "composed-stall",  "coin-rand",
    "coin-stall",      "game-scripted",   "game-rand",
    "game-stall"};

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Peak resident set of this process image in MiB (VmHWM).  Unlike
/// getrusage's ru_maxrss it does not inherit the parent's peak across
/// fork+exec, so a small pass started from a large parent reads true.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) {
      return static_cast<double>(std::stoull(line.substr(6))) / 1024.0;
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

/// min(kMaxThreads, CPUs this process may run on).
int pool_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::clamp(CPU_COUNT(&set), 1, kMaxThreads);
}

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(u.ru_utime) + tv(u.ru_stime);
}

// ------------------------------------------------------------ workloads ---

enum class Kind { kSafety, kTerm, kExplore };

/// A workload bound to its seed: the engine options it runs.
struct Plan {
  Kind kind = Kind::kSafety;
  sw::SweepOptions safety;
  term::TermSweepOptions term;
  ex::ExploreOptions explore;
};

template <typename Options>
void set_window(Options& o, std::uint64_t seed, std::uint64_t width) {
  o.seed_begin = seed * width;
  o.seed_end = o.seed_begin + width;
}

Plan make_plan(const std::string& workload, std::uint64_t seed, int threads) {
  if (seed > kMaxSeed) throw std::invalid_argument("seed too large");
  Plan p;
  if (workload == "safety-wide") {
    // The default cross-product plus the network-fault slice.
    p.safety.faults = {sw::FaultKind::kNone, sw::FaultKind::kLossy,
                       sw::FaultKind::kMinorityCrash};
    set_window(p.safety, seed, 30'000);
  } else if (workload == "wsl-deep") {
    p.safety.algorithms = {sw::Algorithm::kModeled, sw::Algorithm::kAlg2};
    p.safety.semantics = {rlt::sim::Semantics::kWriteStrong};
    p.safety.process_counts = {5};
    set_window(p.safety, seed, 2'500);
  } else if (workload == "term-lin") {
    p.kind = Kind::kTerm;
    set_window(p.term, seed, 8'000);
  } else if (workload == "explore-rounds") {
    p.kind = Kind::kExplore;
    set_window(p.explore, seed, 8);
  } else {
    throw std::invalid_argument("unknown workload: " + workload);
  }
  p.safety.threads = p.term.threads = p.explore.threads = threads;
  return p;
}

// ---------------------------------------------------------------- sinks ---

/// The benchmark's store: serializes every record exactly as a store file
/// would hold it and folds the bytes into an FNV-1a hash, writing nothing
/// to disk.  Also notes the keys of unexpected outcomes and, when timed,
/// the per-layer fields of the records.
class StoreSink final : public sw::RecordSink {
 public:
  explicit StoreSink(bool timed) : timed_(timed) {}

  void append(const sw::Record& r) override {
    Clock::time_point t0;
    if (timed_ || !first_append) t0 = Clock::now();
    if (!first_append) first_append = t0;
    std::string line = r.json();
    inspect(line);
    line += '\n';
    sw::fnv_mix_bytes(fnv, line.data(), line.size());
    bytes += line.size();
    if (timed_) {
      append_s += seconds(t0, Clock::now());
      ++appends;
    }
  }

  std::uint64_t fnv = sw::kFnvOffset;
  std::uint64_t bytes = 0;
  std::uint64_t appends = 0;
  double append_s = 0;
  std::optional<Clock::time_point> first_append;
  /// Keys whose outcome is a violation or an error (any engine).
  std::vector<std::string> unexpected;
  /// Explore records, kept whole for the replay check.
  std::vector<std::string> explore_lines;
  // ABD message accounting (safety records, timed sinks only).
  std::uint64_t abd_ops = 0, abd_msgs = 0, abd_bytes = 0, abd_rts = 0,
                abd_dropped = 0;
  // Explore witnesses.
  std::uint64_t witness_choices = 0, unshrunk_choices = 0, shrunk = 0,
                locally_minimal = 0, shrink_probes = 0, runs = 0;

 private:
  void inspect(std::string_view line) {
    const std::string_view mode = field(line, "mode").value_or("");
    const std::string_view key = field(line, "key").value_or("");
    if (mode == "safety") {
      const std::string_view v = field(line, "verdict").value_or("");
      if (v == "VIOLATION" || v == "ERROR") unexpected.emplace_back(key);
      if (timed_ && key.starts_with("abd/")) {
        abd_ops += field_u64(line, "ops");
        abd_msgs += field_u64(line, "msgs");
        abd_bytes += field_u64(line, "bytes");
        abd_rts += field_u64(line, "rts");
        abd_dropped += field_u64(line, "dropped");
      }
    } else if (mode == "term") {
      if (field(line, "safety_ok") == "false" || field(line, "error") == "true") {
        unexpected.emplace_back(key);
      }
    } else if (mode == "explore") {
      if (field(line, "found") == "error") unexpected.emplace_back(key);
      witness_choices += field_u64(line, "trace_len");
      unshrunk_choices += field_u64(line, "unshrunk_len");
      shrunk += field(line, "shrunk") == "true";
      locally_minimal += field(line, "locally_minimal") == "true";
      shrink_probes += field_u64(line, "shrink_probes");
      runs += field_u64(line, "runs");
      explore_lines.emplace_back(line);
    }
  }

  bool timed_;
};

/// Receives the engine's per-scenario spans (obs::Hooks::trace with
/// trace_times) and keeps each scenario's wall and checker time, grouped
/// by family (safety), family-adversary pair (term), or instance
/// (explore).
class TraceSink final : public sw::RecordSink {
 public:
  struct Sample {
    int group = 0;
    std::uint64_t wall_ns = 0;
    std::uint64_t check_ns = 0;
  };

  void append(const sw::Record& r) override {
    const Clock::time_point t0 = Clock::now();
    const std::string line = r.json();
    if (field(line, "gi")) {
      samples.push_back({group_of(line), field_u64(line, "wall_ns"),
                         field_u64(line, "check_ns")});
    }
    append_s += seconds(t0, Clock::now());
    ++appends;
  }

  std::vector<Sample> samples;
  std::vector<std::string> groups;
  double append_s = 0;
  std::uint64_t appends = 0;

 private:
  int group_index(const std::string& name) {
    const auto [it, added] =
        index_.emplace(name, static_cast<int>(groups.size()));
    if (added) groups.push_back(name);
    return it->second;
  }

  int group_of(std::string_view line) {
    const std::string_view mode = field(line, "mode").value_or("");
    std::string_view key = field(line, "key").value_or("");
    if (mode == "safety") {
      const std::string_view fam = key.substr(0, key.find('/'));
      if (fam == "modeled-linearizable") return group_index("modeled-lin");
      if (fam == "modeled-write-strongly-linearizable") {
        return group_index("modeled-wsl");
      }
      return group_index(std::string(fam));
    }
    if (mode == "term") {  // term/<family>/<adversary>/...
      key.remove_prefix(key.find('/') + 1);
      const std::size_t a = key.find('/');
      const std::string_view adv = key.substr(a + 1, key.find('/', a + 1) - a - 1);
      return group_index(std::string(key.substr(0, a)) + "-" + std::string(adv));
    }
    return group_index("instance");
  }

  std::map<std::string, int, std::less<>> index_;
};

// --------------------------------------------------------------- engine ---

struct EngineRun {
  std::uint64_t scenarios = 0;
  std::uint64_t digest = 0;
  std::uint64_t steps = 0;
  std::uint64_t coin_flips = 0;
  std::uint64_t safety_violations = 0;
  std::vector<std::pair<std::string, std::uint64_t>> counts;
};

EngineRun run_engine(const Plan& p, sw::RecordSink* sink,
                     const obs::Hooks* hooks) {
  EngineRun e;
  switch (p.kind) {
    case Kind::kSafety: {
      const sw::SweepSummary s = sw::run_sweep(p.safety, 0, sink, hooks);
      e.scenarios = s.scenarios;
      e.digest = s.digest;
      e.steps = s.total_steps;
      e.counts = {{"ok", s.ok},
                  {"violations", s.violations},
                  {"blocked", s.blocked},
                  {"errors", s.errors}};
      break;
    }
    case Kind::kTerm: {
      const term::TermSummary s = term::run_term_sweep(p.term, 0, sink, hooks);
      e.scenarios = s.scenarios;
      e.digest = s.digest;
      e.steps = s.total_steps;
      e.coin_flips = s.total_coin_flips;
      e.safety_violations = s.safety_violations;
      e.counts = {{"terminated", s.terminated},
                  {"capped", s.capped},
                  {"safety_violations", s.safety_violations},
                  {"errors", s.errors}};
      break;
    }
    case Kind::kExplore: {
      const ex::ExploreSummary s = ex::run_explore(p.explore, 0, sink, hooks);
      e.scenarios = s.instances;
      e.digest = s.digest;
      e.steps = s.total_steps;
      e.counts = {{"shrunk_traces", s.shrunk_traces},
                  {"violations_found", s.violations_found},
                  {"blocked_found", s.blocked_found},
                  {"errors", s.errors}};
      break;
    }
  }
  return e;
}

/// The harness's own enumeration call (traced passes): the same function
/// the engine calls first, timed from outside.  Explore instances are
/// kept for the search/replay probes.
void enumerate(const Plan& p, std::vector<ex::ExploreInstance>& keep) {
  switch (p.kind) {
    case Kind::kSafety: (void)sw::enumerate_shard(p.safety); break;
    case Kind::kTerm: (void)term::enumerate_term_shard(p.term); break;
    case Kind::kExplore: keep = ex::enumerate_explore_instances(p.explore); break;
  }
}

// ----------------------------------------------------------------- json ---

class Json {
 public:
  Json& num(std::string_view k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(k, buf);
  }
  Json& u64(std::string_view k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  Json& str(std::string_view k, std::string_view v) {
    return raw(k, sw::json_escape(v));
  }
  Json& hex(std::string_view k, std::uint64_t v) {
    std::ostringstream os;
    os << std::hex << v;
    return str(k, os.str());
  }
  Json& raw(std::string_view k, std::string_view v) {
    body_ += body_.empty() ? "{" : ",";
    body_ += sw::json_escape(k);
    body_ += ':';
    body_ += v;
    return *this;
  }
  [[nodiscard]] std::string done() const {
    return body_.empty() ? "{}" : body_ + "}";
  }

 private:
  std::string body_;
};

// ---------------------------------------------------------------- trace ---

/// Where a traced pass's time and work went.
struct Trace {
  std::vector<Span> spans{{"harness", -1, 0, 1}};
  /// Counter deltas of the spans that carry them, by span index.
  std::map<int, obs::CounterDelta> counters;
  std::vector<std::pair<std::string, double>> metrics;

  int add(std::string name, int parent, double secs, std::uint64_t calls = 1) {
    spans.push_back({std::move(name), parent, secs, calls});
    return static_cast<int>(spans.size()) - 1;
  }
  void put(std::string name, double v) { metrics.emplace_back(std::move(name), v); }
};

obs::CounterDelta all_counters() {
  obs::CounterDelta d;
  d.v = obs::snapshot_all().data.counters;
  return d;
}

std::uint64_t counter(const obs::CounterDelta& d, obs::Counter c) {
  return d.v[static_cast<std::size_t>(c)];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Per-group sums of the engine's per-scenario spans.
struct GroupTime {
  std::uint64_t n = 0;
  double wall_s = 0;
  double check_s = 0;
};

/// Adds the explore search and replay probes (explore workloads only):
/// each instance re-run with shrinking off, and each persisted best trace
/// replayed.  A replay that does not reproduce the persisted fingerprint
/// and score is an unexpected outcome.
void explore_probes(const std::vector<ex::ExploreInstance>& instances,
                    StoreSink& store, Trace& t, double& search_s,
                    double& replay_s) {
  obs::CounterDelta c0 = obs::thread_counters();
  Clock::time_point t0 = Clock::now();
  for (ex::ExploreInstance e : instances) {
    e.shrink_budget = 0;
    if (ex::run_explore_instance(e).error) {
      store.unexpected.push_back("search-only:" + e.key());
    }
  }
  search_s = seconds(t0, Clock::now());
  obs::CounterDelta c1 = obs::thread_counters();
  obs::CounterDelta d = c1;
  d -= c0;
  t.counters[t.add("explore.search", 0, search_s, instances.size())] = d;

  t0 = Clock::now();
  for (const std::string& line : store.explore_lines) {
    std::string why;
    const auto rec = ex::parse_explore_record(line, &why);
    if (!rec) {
      store.unexpected.push_back("unparsable explore record: " + why);
      continue;
    }
    const ex::ReplayReport rep =
        ex::replay_trace(rec->instance, rec->trace, rec->fallback_seed);
    if (rep.fingerprint != rec->fingerprint || rep.score != rec->best_score) {
      store.unexpected.push_back("replay-mismatch:" + rec->instance.key());
    }
  }
  replay_s = seconds(t0, Clock::now());
  d = obs::thread_counters();
  d -= c1;
  t.counters[t.add("explore.replay", 0, replay_s, store.explore_lines.size())] = d;
}

/// Builds the engine's sub-spans and every per-layer metric of a traced
/// pass.  Pool work is attributed as summed worker time ÷ threads, so the
/// pool span's own self time is exactly its idle share.  Returns the
/// summed worker time of all scenarios.
double trace_engine(const Plan& p, int threads, double enumerate_s,
                  Clock::time_point entry, Clock::time_point exit,
                  double cpu_s, const EngineRun& run, const StoreSink& store,
                  const TraceSink& ts, const obs::CounterDelta& delta,
                  int engine_span, Trace& t) {
  const double T = std::max(1, threads);
  const Clock::time_point barrier = store.first_append.value_or(exit);
  const double pool_s = std::max(0.0, seconds(entry, barrier) - enumerate_s);
  const double fold_s = seconds(barrier, exit);
  t.add("sweep.enumerate.internal", engine_span, seconds(entry, barrier) - pool_s);
  const int pool = t.add("sweep.pool", engine_span, pool_s);
  const int fold = t.add("sweep.fold", engine_span, fold_s);
  t.add("sweep.store_append", fold, store.append_s, store.appends);
  t.add("obs.trace_append", fold, ts.append_s, ts.appends);

  std::vector<GroupTime> groups(ts.groups.size());
  std::vector<std::uint64_t> walls;
  walls.reserve(ts.samples.size());
  double busy_s = 0;
  for (const TraceSink::Sample& s : ts.samples) {
    GroupTime& g = groups[static_cast<std::size_t>(s.group)];
    ++g.n;
    g.wall_s += static_cast<double>(s.wall_ns) * 1e-9;
    g.check_s += static_cast<double>(s.check_ns) * 1e-9;
    busy_s += static_cast<double>(s.wall_ns) * 1e-9;
    walls.push_back(s.wall_ns);
  }
  const auto group = [&](std::string_view name) {
    for (std::size_t i = 0; i < ts.groups.size(); ++i) {
      if (ts.groups[i] == name) return groups[i];
    }
    return GroupTime{};
  };
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const GroupTime& g = groups[i];
    const std::string& name = ts.groups[i];
    if (p.kind == Kind::kSafety) {
      t.add("sim." + name, pool, (g.wall_s - g.check_s) / T, g.n);
      t.add("checker." + name, pool, g.check_s / T, g.n);
    } else {
      const std::string layer = p.kind == Kind::kTerm ? "term." : "explore.";
      t.add(layer + name, pool, g.wall_s / T, g.n);
    }
  }

  t.put("sweep.enumerate_ms", enumerate_s * 1e3);
  t.put("sweep.pool_s", pool_s);
  t.put("sweep.fold_s", fold_s);
  t.put("sweep.store_append_s", store.append_s);
  t.put("sweep.store_mb", static_cast<double>(store.bytes) / kMiB);
  t.put("sweep.pool_idle_share", pool_s > 0 ? 1 - busy_s / (T * pool_s) : 0);
  t.put("sweep.cpu_s", cpu_s);
  const TailReport tail = tail_report(std::move(walls));
  t.put("sweep.scenario_us_p50", tail.p50 * 1e-3);
  t.put("sweep.scenario_us_tail", tail.tail * 1e-3);
  t.put("sweep.scenario_tail_pct", tail.tail_pct);
  t.put("sweep.scenario_samples", static_cast<double>(tail.n));
  t.put("sweep.scenario_ms_max", tail.max * 1e-6);

  const bool safety = p.kind == Kind::kSafety;
  for (const char* fam : kSafetyFamilies) {
    const GroupTime g = safety ? group(fam) : GroupTime{};
    t.put(std::string("sim.self_us.") + fam,
          ratio((g.wall_s - g.check_s) * 1e6, static_cast<double>(g.n)));
  }
  t.put("sim.steps", static_cast<double>(run.steps));
  for (const char* fam : kSafetyFamilies) {
    const GroupTime g = safety ? group(fam) : GroupTime{};
    t.put(std::string("checker.check_us.") + fam,
          ratio(g.check_s * 1e6, static_cast<double>(g.n)));
  }
  for (const obs::Counter c :
       {obs::Counter::kCheckerSolverCalls, obs::Counter::kCheckerDfsNodes,
        obs::Counter::kCheckerMemoHits, obs::Counter::kCheckerPruneDoomed,
        obs::Counter::kCheckerPruneEagerRead, obs::Counter::kCheckerPruneAccept,
        obs::Counter::kWslSolverCalls, obs::Counter::kWslCacheHits,
        obs::Counter::kWslCacheMisses}) {
    t.put(std::string(obs::counter_name(c)), static_cast<double>(counter(delta, c)));
  }
  const double hits = static_cast<double>(counter(delta, obs::Counter::kWslCacheHits));
  const double misses =
      static_cast<double>(counter(delta, obs::Counter::kWslCacheMisses));
  t.put("wsl.cache_hit_rate", ratio(hits, hits + misses));

  const double ops = static_cast<double>(store.abd_ops);
  t.put("mp.msgs_per_op", ratio(static_cast<double>(store.abd_msgs), ops));
  t.put("mp.bytes_per_op", ratio(static_cast<double>(store.abd_bytes), ops));
  t.put("mp.round_trips_per_op", ratio(static_cast<double>(store.abd_rts), ops));
  t.put("mp.retransmits",
        static_cast<double>(counter(delta, obs::Counter::kNetRetransmits)));
  t.put("mp.dropped", static_cast<double>(store.abd_dropped));

  const bool is_term = p.kind == Kind::kTerm;
  for (const char* pair : kTermPairs) {
    const GroupTime g = is_term ? group(pair) : GroupTime{};
    t.put(std::string("term.us.") + pair,
          ratio(g.wall_s * 1e6, static_cast<double>(g.n)));
  }
  t.put("term.steps", is_term ? static_cast<double>(run.steps) : 0);
  t.put("term.coin_flips", static_cast<double>(run.coin_flips));
  t.put("term.agreement_violations", static_cast<double>(run.safety_violations));
  return busy_s;
}

void write_trace(const std::string& path, const Trace& t, const Attribution& a) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    const Span& s = t.spans[i];
    Json j;
    j.str("span", s.name)
        .str("parent", s.parent < 0 ? "" : t.spans[static_cast<std::size_t>(s.parent)].name)
        .num("seconds", s.seconds)
        .num("self_s", a.self[i])
        .u64("calls", s.calls);
    if (const auto it = t.counters.find(static_cast<int>(i)); it != t.counters.end()) {
      for (int c = 0; c < obs::kNumCounters; ++c) {
        const std::uint64_t v = it->second.v[static_cast<std::size_t>(c)];
        if (v != 0) j.u64(obs::counter_name(static_cast<obs::Counter>(c)), v);
      }
    }
    out << j.done() << '\n';
  }
  Json m;
  for (const auto& [name, v] : t.metrics) m.num(name, v);
  out << Json().raw("layer_metrics", m.done()).done() << '\n';
  if (!out.flush()) throw std::runtime_error("cannot write trace file " + path);
}

}  // namespace

std::string run_pass(const PassOptions& o, Clock::time_point process_start) {
  const int threads = pool_threads();
  const Plan plan = make_plan(o.workload, o.seed, threads);
  Trace t;
  if (o.trace) obs::set_enabled(true);
  t.add("harness.setup", 0, seconds(process_start, Clock::now()));

  double enumerate_s = 0;
  std::vector<ex::ExploreInstance> instances;
  if (o.trace) {
    const Clock::time_point t0 = Clock::now();
    enumerate(plan, instances);
    enumerate_s = seconds(t0, Clock::now());
    t.add("sweep.enumerate", 0, enumerate_s);
  }

  StoreSink store(o.trace);
  TraceSink trace_sink;
  obs::Hooks hooks;
  hooks.trace = &trace_sink;
  hooks.trace_times = true;
  const obs::CounterDelta before = o.trace ? all_counters() : obs::CounterDelta{};
  const double cpu0 = cpu_seconds();
  const Clock::time_point entry = Clock::now();
  const auto entry_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(entry.time_since_epoch())
          .count());
  if (o.setup_only) return Json().u64("engine_entry_ns", entry_ns).done();

  const EngineRun run = run_engine(plan, &store, o.trace ? &hooks : nullptr);
  const Clock::time_point exit = Clock::now();
  const double cpu_s = cpu_seconds() - cpu0;

  Json j;
  j.str("workload", o.workload)
      .u64("seed", o.seed)
      .u64("threads", static_cast<std::uint64_t>(threads))
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .u64("engine_entry_ns", entry_ns)
      .num("engine_s", seconds(entry, exit))
      .num("cpu_s", cpu_s);

  if (o.trace) {
    obs::CounterDelta delta = all_counters();
    delta -= before;
    const int engine = t.add("sweep.engine", 0, seconds(entry, exit));
    t.counters[engine] = delta;
    const double busy_s = trace_engine(plan, threads, enumerate_s, entry,
                                       exit, cpu_s, run, store, trace_sink,
                                       delta, engine, t);
    double search_s = 0;
    double replay_s = 0;
    if (plan.kind == Kind::kExplore) {
      explore_probes(instances, store, t, search_s, replay_s);
    }
    const double n_lines = static_cast<double>(store.explore_lines.size());
    t.put("explore.search_s", search_s);
    t.put("explore.shrink_s",
          plan.kind == Kind::kExplore ? std::max(0.0, busy_s - search_s) : 0);
    t.put("explore.replay_us", ratio(replay_s * 1e6, n_lines));
    t.put("explore.runs", static_cast<double>(store.runs));
    t.put("explore.shrink_probes", static_cast<double>(store.shrink_probes));
    t.put("explore.locally_minimal_share",
          ratio(static_cast<double>(store.locally_minimal),
                static_cast<double>(store.shrunk)));
    t.put("explore.shrink_ratio", ratio(static_cast<double>(store.witness_choices),
                                        static_cast<double>(store.unshrunk_choices)));
    t.put("explore.witness_choices", static_cast<double>(store.witness_choices));

    t.spans[0].seconds = seconds(process_start, Clock::now());
    const Attribution a = attribute(t.spans);
    t.put("obs.residual_share", ratio(a.residual, a.wall));
    if (!o.trace_out.empty()) write_trace(o.trace_out, t, a);
    Json m;
    for (const auto& [name, v] : t.metrics) m.num(name, v);
    Json layers;
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      layers.num(t.spans[i].name, a.self[i]);
    }
    j.raw("layer_metrics", m.done())
        .raw("self_s", layers.done())
        .num("wall_s", a.wall)
        .num("residual_s", a.residual);
  }

  Json counts;
  for (const auto& [name, v] : run.counts) counts.u64(name, v);
  // The first few keys name the problem; the count keeps it honest.
  constexpr std::size_t kMaxListed = 64;
  std::string unexpected = "[";
  for (std::size_t i = 0; i < std::min(store.unexpected.size(), kMaxListed); ++i) {
    unexpected += (i ? "," : "") + sw::json_escape(store.unexpected[i]);
  }
  unexpected += "]";
  j.u64("scenarios", run.scenarios)
      .hex("digest", run.digest)
      .raw("counts", counts.done())
      .hex("store_fnv", store.fnv)
      .u64("store_bytes", store.bytes)
      .raw("unexpected", unexpected)
      .u64("unexpected_count", store.unexpected.size())
      .u64("witness_choices", store.witness_choices)
      .num("peak_rss_mb", peak_rss_mb());
  return j.done();
}

}  // namespace perfbench
