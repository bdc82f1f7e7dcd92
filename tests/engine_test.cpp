// Tests for the streaming engine loop shared by the three sweep modes
// (src/sweep/engine.hpp).  The parameterized tests run once per mode —
// through the public run_sweep / run_term_sweep / run_explore entry
// points — and check one property of the loop itself: records reach the
// sink while later scenarios have not run yet, claims shrink to single
// scenarios as the sweep runs out, a throwing sink surfaces on the
// calling thread with every worker stopped and no "done" progress line,
// and every mode fills the same engine stats.  One more test throws from
// the workers instead of the sink.  The rest drive run_engine with a
// test-local mode whose runs the test controls and count: records reach
// the sink while later scenarios have not run yet, and progress lines
// keep coming while a slow scenario holds the fold.
#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>

#include "explore/explore.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "sweep/engine.hpp"
#include "sweep/store.hpp"
#include "sweep/sweep.hpp"
#include "term/term_sweep.hpp"
#include "util/assert.hpp"

namespace rlt::sweep {
namespace {

enum class Kind { kSafety, kTerm, kExplore };

/// One small, cheap sweep of `kind` with `scenarios` scenarios (one
/// config per seed), run through the mode's public entry point.
struct Outcome {
  std::string stable;
  EngineStats engine;
};

Outcome run_kind(Kind kind, std::uint64_t scenarios, int threads,
                 RecordSink* sink, const obs::Hooks* hooks = nullptr) {
  switch (kind) {
    case Kind::kSafety: {
      SweepOptions o;
      o.algorithms = {Algorithm::kModeled};
      o.semantics = {sim::Semantics::kAtomic};
      o.adversaries = {AdversaryKind::kRoundRobin};
      o.process_counts = {2};
      o.seed_end = scenarios;
      o.threads = threads;
      const SweepSummary s = run_sweep(o, 0, sink, hooks);
      return {s.stable_text(), s.engine};
    }
    case Kind::kTerm: {
      term::TermSweepOptions o;
      o.families = {term::Family::kSharedCoin};
      o.adversaries = {term::TermAdversary::kRandom};
      o.process_counts = {2};
      o.round_budgets = {4};
      o.seed_end = scenarios;
      o.threads = threads;
      const term::TermSummary s = term::run_term_sweep(o, 0, sink, hooks);
      return {s.stable_text(), s.engine};
    }
    case Kind::kExplore: {
      explore::ExploreOptions o;
      o.objective = explore::Objective::kViolation;
      o.algorithms = {Algorithm::kModeled};
      o.process_counts = {2};
      o.writes_per_process = 1;
      o.search_budget = 1;
      o.shrink_budget = 0;
      o.seed_end = scenarios;
      o.threads = threads;
      const explore::ExploreSummary s =
          explore::run_explore(o, 0, sink, hooks);
      return {s.stable_text(), s.engine};
    }
  }
  return {};
}

std::string kind_name(const ::testing::TestParamInfo<Kind>& info) {
  switch (info.param) {
    case Kind::kSafety: return "safety";
    case Kind::kTerm: return "term";
    case Kind::kExplore: return "explore";
  }
  return "unknown";
}

void PrintTo(Kind kind, std::ostream* os) {
  *os << kind_name(::testing::TestParamInfo<Kind>(kind, 0));
}

class Engine : public ::testing::TestWithParam<Kind> {};

INSTANTIATE_TEST_SUITE_P(AllModes, Engine,
                         ::testing::Values(Kind::kSafety, Kind::kTerm,
                                           Kind::kExplore),
                         kind_name);

/// Holds the engine's fold at its first record long enough for the
/// workers to run as far ahead as the window lets them, then throws,
/// which stops the sweep there.
class HaltingSink final : public RecordSink {
 public:
  void append(const Record&) override {
    ++appends_;
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    throw std::runtime_error("halt at the first record");
  }
  [[nodiscard]] std::uint64_t appends() const { return appends_; }

 private:
  std::uint64_t appends_ = 0;
};

TEST_P(Engine, FirstRecordReachesTheSinkBeforeLaterScenariosRun) {
  // Much larger than the reorder window: while the fold is held at the
  // first record, workers may run at most one window of scenarios.  With
  // the registry on, pool.tasks counts the claims they ran, read once
  // every worker has stopped; with far more than 8 × kMaxClaim scenarios
  // left per worker, each claim took kMaxClaim of them.
  constexpr int kThreads = 2;
  constexpr auto kTasks = static_cast<std::size_t>(obs::Counter::kPoolTasks);
  const std::uint64_t window = window_size(kThreads);
  HaltingSink sink;
  obs::reset();
  obs::set_enabled(true);
  EXPECT_THROW((void)run_kind(GetParam(), 3 * window, kThreads, &sink),
               std::runtime_error);
  obs::set_enabled(false);
  const std::uint64_t claims = obs::snapshot_all().data.counters[kTasks];
  obs::reset();
  EXPECT_EQ(sink.appends(), 1u);
  EXPECT_GT(claims, 0u);
  EXPECT_LE(claims * kMaxClaim, window);
}

TEST_P(Engine, ClaimsShrinkToOneScenarioAsTheSweepRunsOut) {
  // With the registry on, pool.tasks counts claims.  A claim's size
  // depends only on how many scenarios are left, so the counts are exact
  // whichever worker makes which claim.
  constexpr auto kTasks = static_cast<std::size_t>(obs::Counter::kPoolTasks);
  const Kind kind = GetParam();
  const auto claims = [kind](std::uint64_t scenarios) {
    obs::reset();
    obs::set_enabled(true);
    (void)run_kind(kind, scenarios, 4, nullptr);
    obs::set_enabled(false);
    const obs::Snapshot snap = obs::snapshot_all();
    obs::reset();
    return snap.data.counters[kTasks];
  };
  // Fewer than 4 scenarios per worker: one scenario per claim.
  EXPECT_EQ(claims(8), 8u);
  // 610 claims of kMaxClaim take the sweep down to 240 scenarios left,
  // and 66 shrinking claims take the rest.
  EXPECT_EQ(claims(10'000), 676u);
}

/// Throws on its `fail_at`-th append (1-based).
class ThrowingSink final : public RecordSink {
 public:
  explicit ThrowingSink(std::uint64_t fail_at) : fail_at_(fail_at) {}
  void append(const Record&) override {
    if (++appends_ == fail_at_) throw std::runtime_error("sink full");
  }
  [[nodiscard]] std::uint64_t appends() const { return appends_; }

 private:
  std::uint64_t fail_at_;
  std::uint64_t appends_ = 0;
};

TEST_P(Engine, ThrowingSinkRethrowsOnTheCallerWithWorkersStopped) {
  ThrowingSink sink(100);
  EXPECT_THROW((void)run_kind(GetParam(), 5'000, 4, &sink),
               std::runtime_error);
  // The fold stopped at the throw: no append after it, and the run
  // returned instead of hanging or terminating.
  EXPECT_EQ(sink.appends(), 100u);
  // Every worker was joined: the engine is reusable at once.
  StringSink ok;
  const Outcome again = run_kind(GetParam(), 200, 4, &ok);
  EXPECT_FALSE(ok.text().empty());
  EXPECT_FALSE(again.stable.empty());
}

/// Everything written to the read end of `fds` once the write end is
/// closed.
std::string drain(int fds[2]) {
  close(fds[1]);
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof buf)) > 0) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  return out;
}

TEST_P(Engine, ThrowingSinkEndsTheProgressStreamWithoutDone) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  obs::Hooks hooks;
  hooks.progress_fd = fds[1];
  ThrowingSink sink(100);
  EXPECT_THROW((void)run_kind(GetParam(), 5'000, 4, &sink, &hooks),
               std::runtime_error);
  // The sweep did not complete, so no line may claim it did.
  const std::string out = drain(fds);
  EXPECT_EQ(out.find("\"state\":\"done\""), std::string::npos) << out;
}

TEST_P(Engine, EveryModeReportsTheSameEngineStats) {
  const Outcome run = run_kind(GetParam(), 64, 2, nullptr);
  EXPECT_GT(run.engine.wall_ns_max, 0u);
  EXPECT_LE(run.engine.wall_ns_max, run.engine.wall_ns_total);
  EXPECT_GT(run.engine.elapsed_ns, 0u);
}

TEST(EngineWorkers, ThrowRethrowsOnTheCallerAndARerunCompletes) {
  // A forensics directory under a regular file cannot be written to, so
  // every blocked scenario's artifact throws on the worker that ran it.
  std::string file =
      (std::filesystem::temp_directory_path() / "engine_test_XXXXXX")
          .string();
  const int fd = mkstemp(file.data());
  ASSERT_GE(fd, 0);
  close(fd);
  SweepOptions o;
  o.faults = {FaultKind::kStall};
  o.seed_end = 20;
  o.threads = 4;
  obs::Hooks hooks;
  hooks.forensics_dir = file + "/forensics";
  StringSink failed;
  EXPECT_THROW((void)run_sweep(o, 0, &failed, &hooks),
               util::InvariantViolation);
  // gi 0 is blocked, so its result never reached the fold.
  EXPECT_TRUE(failed.text().empty());
  // Every worker was joined: the engine runs again at once.
  StringSink ok;
  const SweepSummary again = run_sweep(o, 0, &ok);
  EXPECT_EQ(again.scenarios, 240u);
  EXPECT_EQ(again.blocked, 200u);
  EXPECT_FALSE(ok.text().empty());
  std::filesystem::remove(file);
}

// ---------------------------------------------------- a test-local mode ---

/// One probe scenario per seed; seed 0 may sleep.
struct Probe {
  std::uint64_t seed = 0;
  [[nodiscard]] std::string key() const {
    return "probe/seed" + std::to_string(seed);
  }
};

struct ProbeResult {
  std::uint64_t wall_ns = 0;
};

struct ProbeOptions {
  int threads = 2;
  ShardSpec shard;
  std::uint64_t scenarios = 0;
};

std::string config_key(const ProbeOptions& o) {
  return "probes=" + std::to_string(o.scenarios);
}

struct ProbeSummary {
  std::uint64_t scenarios = 0;
  std::uint64_t digest = 0;
  EngineStats engine;
};

/// The smallest engine mode (engine.hpp documents the trait): its runs
/// do nothing but count themselves, after `first_sleep` for seed 0.
struct ProbeMode {
  using Item = Probe;
  using Result = ProbeResult;
  static constexpr std::string_view kKind = "probe";
  static constexpr std::array<std::string_view, 4> kClasses{"a", "b", "c",
                                                            "d"};

  const ProbeOptions& o;
  std::atomic<std::uint64_t>& runs;
  std::chrono::milliseconds first_sleep{0};
  std::uint64_t folded = 0;

  [[nodiscard]] Cursor<Probe> cursor() const {
    return Cursor<Probe>({Probe{}}, 0, o.scenarios, o.shard);
  }
  [[nodiscard]] ProbeResult run(const Probe& p) const {
    if (p.seed == 0) std::this_thread::sleep_for(first_sleep);
    runs.fetch_add(1);
    return {1};
  }
  static void artifact(const Probe&, ProbeResult&, std::uint64_t,
                       const std::string&) {}
  static int progress_class(const Probe&, const ProbeResult&) { return 0; }
  static void record(const Probe&, const ProbeResult&, Record&) {}
  static void span(const Probe&, const ProbeResult&, bool, Record&) {}
  void fold(const std::string&, const Probe&, const ProbeResult&) {
    ++folded;
  }
  ProbeSummary finish(RecordSink*) { return {folded, 0, {}}; }
};

/// Holds the engine's fold at its first record long enough for the
/// workers to run as far ahead as the window lets them, and keeps how
/// many scenarios had run by then.
class StallingSink final : public RecordSink {
 public:
  explicit StallingSink(const std::atomic<std::uint64_t>& runs)
      : runs_(runs) {}

  void append(const Record&) override {
    if (appends_++ > 0) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    runs_at_first_append_ = runs_.load();
  }

  [[nodiscard]] std::uint64_t runs_at_first_append() const {
    return runs_at_first_append_;
  }

 private:
  const std::atomic<std::uint64_t>& runs_;
  std::uint64_t appends_ = 0;
  std::uint64_t runs_at_first_append_ = 0;
};

TEST(EngineProbe, FirstRecordReachesTheSinkBeforeLaterScenariosRun) {
  // Much larger than the reorder window: while the fold is held at the
  // first record, workers may finish at most one window of scenarios.
  constexpr int kThreads = 2;
  const std::uint64_t window = window_size(kThreads);
  const ProbeOptions o{kThreads, {}, 3 * window};
  std::atomic<std::uint64_t> runs{0};
  ProbeMode mode{o, runs};
  StallingSink sink(runs);
  const ProbeSummary sum = run_engine(mode, 0, &sink, nullptr);
  EXPECT_EQ(sum.scenarios, 3 * window);
  EXPECT_EQ(runs.load(), 3 * window);
  EXPECT_GT(sink.runs_at_first_append(), 0u);
  EXPECT_LE(sink.runs_at_first_append(), window);
}

TEST(EngineProbe, ProgressLinesKeepComingWhileASlowScenarioHoldsTheHead) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  obs::Hooks hooks;
  hooks.progress_fd = fds[1];
  hooks.heartbeat_ms = 100;
  const ProbeOptions o{2, {}, 8};
  std::atomic<std::uint64_t> runs{0};
  ProbeMode mode{o, runs, std::chrono::milliseconds(1500)};
  const ProbeSummary sum = run_engine(mode, 0, nullptr, &hooks);
  EXPECT_EQ(sum.scenarios, 8u);
  const std::string out = drain(fds);
  // While seed 0 slept at the head, nothing had been folded, yet the
  // stream kept reporting; the last line is the completed count.
  EXPECT_NE(out.find("\"state\":\"run\",\"done\":0,"), std::string::npos)
      << out;
  const std::size_t last = out.rfind("{\"obs\":\"progress\"");
  ASSERT_NE(last, std::string::npos) << out;
  EXPECT_NE(out.find("\"state\":\"done\",\"done\":8,\"total\":8,", last),
            std::string::npos)
      << out;
}

TEST(Cursor, YieldsTheShardsScenariosInGlobalIndexOrder) {
  struct Item {
    int config = 0;
    std::uint64_t seed = 0;
  };
  const ShardSpec shard{1, 3};
  Cursor<Item> c({Item{10}, Item{20}}, 5, 9, shard);
  EXPECT_EQ(c.total(), 8u);
  EXPECT_EQ(c.owned(), 3u);
  EXPECT_EQ(c.configs(), 2u);
  std::vector<std::uint64_t> gis;
  for (auto s = c.next(); s.has_value(); s = c.next()) {
    gis.push_back(s->gi);
    EXPECT_EQ(s->item.config, s->gi % 2 == 0 ? 10 : 20);
    EXPECT_EQ(s->item.seed, 5 + s->gi / 2);
  }
  EXPECT_EQ(gis, (std::vector<std::uint64_t>{1, 4, 7}));
}

}  // namespace
}  // namespace rlt::sweep
