// The one engine loop behind run_sweep, run_term_sweep and run_explore.
//
// A sweep is a stream.  A Cursor yields this shard's scenarios in global-
// index (gi) order; `threads` workers claim runs of them from it, run
// them and write their forensics artifacts; and the calling thread — the
// fold — takes the results back in enumeration order through a bounded
// reorder window.  For each scenario the fold renders its key once, then
// its store record and trace span, and drives the one progress meter
// (obs/progress.hpp).  Nothing ever holds every scenario or every result,
// so memory is O(window), not O(scenarios), and the ordered fold and the
// sink appends overlap the workers.
//
// The determinism contract lives here, once: a scenario's outputs are a
// pure function of the scenario, and every sink sees them in enumeration
// order, exactly once, one call at a time — possibly while later
// scenarios are still running.  So stores, digests, stable summaries,
// trace spans and forensics artifacts are byte-identical across
// --threads and shards.
//
// Stamping.  A scenario's seed reaches its run only through util::Rng
// draws (util/rng.hpp), so a run that drew nothing is a pure function of
// its config: every seed of that config replays it.  For a mode that
// declares `stampable`, the engine keeps one slot per config index
// (gi % configs).  The first finished run of a config decides its slot:
// a run that drew nothing and is stampable becomes the config's
// template; any other run marks the config seeded, and its scenarios all
// run.  Every later scenario of a templated config is stamped instead of
// run: it takes the template's result (with its own wall time and no
// checker time) and adds the template's stable obs counters and
// histograms to its thread's shard.  The fold renders it like any other
// scenario — its key, record and span from its own item and the stamped
// result, the span's counters from the template — so its outputs are
// those of a run, and the contract above holds whichever scenario of a
// config finished first; a scenario that starts before its config's
// template exists simply runs.  Stamping is not digest material:
// EngineStats::stamped and the runtime counter `sweep.stamped` depend on
// threads and shards.
//
// A sweep mode plugs in through a small trait (SafetyMode in sweep.cpp is
// the reference shape):
//
//   Item, Result              one scenario and what running it produced
//                             (Item has `seed` and key(); Result has
//                             `wall_ns`)
//   kKind                     "safety" / "term" / "explore": the store and
//                             span "mode", the shard kind, progress mode
//   kClasses                  the four progress outcome-class labels
//   o                         the options: threads, shard, and
//                             config_key(o) (found by argument lookup)
//   cursor()                  the shard's scenarios in gi order
//   run(item)                 runs one scenario; inside the per-scenario
//                             counter bracket, so mode counters belong here
//   artifact(item, r, gi, dir)  writes forensics (may do nothing; a stub
//                             names the scenario by item.key())
//   progress_class(item, r)   outcome class 0..3
//   record(item, r, rec)      static: store fields after gi/key/mode
//   span(item, r, times, sp)  trace-span fields after obs/gi/key/mode
//   fold(key, item, r)        the deterministic aggregate, gi order
//   finish(sink)              the summary (its `engine` stats zero)
//   stampable(r)              optional, static: true when a result of a
//                             run that drew nothing may be stamped onto
//                             the config's later seeds (Result then has
//                             `check_ns`)
//
// run and artifact run on the workers concurrently and must not touch
// mutable mode state; progress_class, record, span, fold and finish run
// on the calling thread only.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <concepts>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "sweep/fnv.hpp"
#include "sweep/shard.hpp"
#include "sweep/store.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace rlt::sweep {

/// What the engine measured about one run — NOT digest material.  Every
/// summary carries one, filled the same way in all three modes.
struct EngineStats {
  std::uint64_t wall_ns_total = 0;  ///< Sum over scenarios (cpu-ish time).
  std::uint64_t wall_ns_max = 0;    ///< Slowest single scenario.
  std::uint64_t elapsed_ns = 0;     ///< End-to-end engine wall clock.
  std::uint64_t stamped = 0;        ///< Scenarios stamped, not run.
};

/// One owned scenario and its position in the full cross-product.
template <class Item>
struct Indexed {
  std::uint64_t gi = 0;
  Item item;
};

/// A shard's scenarios in global-index order, generated on demand.  Every
/// sweep mode enumerates seeds outermost, so gi = (seed - seed_begin) ×
/// |configs| + c, where `configs` lists one seed's scenarios (the product
/// of every other axis, seed unset) in enumeration order.  That makes this
/// the single definition of enumeration order; round-robin sharding then
/// spreads every config across all shards, and memory is O(|configs|)
/// whatever the seed range.
template <class Item>
class Cursor {
 public:
  Cursor(std::vector<Item> configs, std::uint64_t seed_begin,
         std::uint64_t seed_end, const ShardSpec& shard)
      : configs_(std::move(configs)),
        seed_begin_(seed_begin),
        shard_(shard),
        next_gi_(shard.index) {
    RLT_CHECK_MSG(shard.count > 0 && shard.index < shard.count,
                  "shard index/count out of range");
    const std::uint64_t seeds = seed_end - seed_begin;
    RLT_CHECK_MSG(configs_.empty() || seeds <= UINT64_MAX / configs_.size(),
                  "sweep cross-product overflows");
    total_ = configs_.size() * seeds;
  }

  /// Full cross-product size (all shards).
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  /// This shard's share: how many scenarios next() yields.
  [[nodiscard]] std::uint64_t owned() const noexcept {
    return shard_.share(total_);
  }
  /// Scenarios per seed; a scenario's config index is gi % configs().
  [[nodiscard]] std::size_t configs() const noexcept {
    return configs_.size();
  }

  /// The next owned scenario, or nullopt past the end.
  [[nodiscard]] std::optional<Indexed<Item>> next() {
    if (next_gi_ >= total_) return std::nullopt;
    const std::uint64_t gi = next_gi_;
    next_gi_ += shard_.count;
    Indexed<Item> out{gi, configs_[gi % configs_.size()]};
    out.item.seed = seed_begin_ + gi / configs_.size();
    return out;
  }

 private:
  std::vector<Item> configs_;
  std::uint64_t seed_begin_;
  std::uint64_t total_ = 0;
  ShardSpec shard_;
  std::uint64_t next_gi_;
};

/// Drains a cursor into parallel gi / item vectors: the materializing
/// enumerate_* wrappers.  `cap` bounds only this materialization (the
/// engine streams) and applies per shard, so sharding raises it N-fold;
/// returns the full cross-product size.
template <class Item>
std::uint64_t materialize(Cursor<Item> c, std::uint64_t cap,
                          const char* too_big,
                          std::vector<std::uint64_t>& gis,
                          std::vector<Item>& items) {
  RLT_CHECK_MSG(c.owned() <= cap, too_big);
  gis.reserve(c.owned());
  items.reserve(c.owned());
  while (std::optional<Indexed<Item>> s = c.next()) {
    gis.push_back(s->gi);
    items.push_back(std::move(s->item));
  }
  return c.total();
}

/// Reorder-window bounds, in scenarios.  The floor lets the other workers
/// run ahead of a slow scenario at the head: wsl-deep's slowest lasts as
/// long as ~200 of its mean scenarios, ~600 across three other workers.
/// It is no larger because results held in the window cost peak RSS
/// beyond their own size where scenarios are heavy (a 2,048 floor cost
/// wsl-deep ~4 MB).  The cap keeps memory bounded at high thread counts.
inline constexpr std::size_t kWindowFloor = 1024;
inline constexpr std::size_t kWindowCap = 8192;

/// The most scenarios one claim takes.  It is below the window floor, so
/// every claim fits the window.
inline constexpr std::uint64_t kMaxClaim = 16;

/// How far scenario hand-out may run ahead of the oldest unfolded one:
/// four full claims per worker, within the floor and cap.
[[nodiscard]] inline std::size_t window_size(int threads) noexcept {
  const std::size_t want =
      4 * static_cast<std::size_t>(std::max(1, threads)) * kMaxClaim;
  return std::clamp(want, kWindowFloor, kWindowCap);
}

/// A mode opts into stamping by declaring `stampable` (file comment).
template <class Mode>
concept Stampable = requires(const typename Mode::Result& r) {
  { Mode::stampable(r) } -> std::convertible_to<bool>;
};

/// A scenario's store record: gi, key, mode, then the mode's fields.  The
/// fold writes it, and a line reads back only if it renders to the line.
template <class Mode>
[[nodiscard]] Record scenario_record(std::uint64_t gi, std::string_view key,
                                     const typename Mode::Item& item,
                                     const typename Mode::Result& r) {
  Record rec;
  rec.u64("gi", gi).str("key", key).str("mode", Mode::kKind);
  Mode::record(item, r, rec);
  return rec;
}

namespace detail {

inline std::uint64_t ns_since(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// The stamping slots, one per config index (see the file comment); none
/// for a mode that is not Stampable.  A slot is undecided (nullptr),
/// seeded (&seeded_) or holds its config's template, and changes at most
/// once, by compare-and-swap from undecided.  Templates live until the
/// engine returns.
template <class Mode>
class Stamps {
 public:
  using Result = typename Mode::Result;

  /// A config's run that drew nothing, as its stamped scenarios reuse it.
  struct Template {
    Result result;
    obs::WorkDelta work;  ///< Its stable obs work.
  };

  explicit Stamps(std::size_t configs)
      : slots_(Stampable<Mode> ? configs : 0) {}
  Stamps(const Stamps&) = delete;
  Stamps& operator=(const Stamps&) = delete;
  ~Stamps() {
    for (std::atomic<const Template*>& slot : slots_) {
      const Template* t = slot.load(std::memory_order_relaxed);
      if (t != &seeded_) delete t;
    }
  }

  /// Stamps `r` from the template of gi's config: its result, with this
  /// copy's own wall time and no checker time, and its stable obs work
  /// added to this thread's shard.  Returns the template, or nullptr,
  /// doing nothing, while the config has none.
  const Template* stamp(std::uint64_t gi, Result& r) {
    if constexpr (!Stampable<Mode>) {
      return nullptr;
    } else {
      const Template* t = slot(gi).load(std::memory_order_acquire);
      if (t == nullptr || t == &seeded_) return nullptr;
      const auto t0 = std::chrono::steady_clock::now();
      r = t->result;
      r.check_ns = 0;
      obs::add_work(t->work);
      r.wall_ns = ns_since(t0);
      return t;
    }
  }

  /// True while no run of gi's config has finished.
  [[nodiscard]] bool undecided(std::uint64_t gi) {
    return !slots_.empty() &&
           slot(gi).load(std::memory_order_relaxed) == nullptr;
  }

  /// Decides gi's config from one finished run, unless another run of
  /// the config decided it first: a template when the run `drew` nothing
  /// and its result is stampable, seeded otherwise.
  void decide(std::uint64_t gi, bool drew, Template run) {
    if constexpr (Stampable<Mode>) {
      const Template* undecided = nullptr;
      if (drew || !Mode::stampable(run.result)) {
        slot(gi).compare_exchange_strong(undecided, &seeded_,
                                         std::memory_order_relaxed);
        return;
      }
      auto t = std::make_unique<const Template>(std::move(run));
      if (slot(gi).compare_exchange_strong(undecided, t.get(),
                                           std::memory_order_release,
                                           std::memory_order_relaxed)) {
        (void)t.release();
      }
    }
  }

 private:
  std::atomic<const Template*>& slot(std::uint64_t gi) {
    return slots_[gi % slots_.size()];
  }

  std::vector<std::atomic<const Template*>> slots_;
  const Template seeded_{};  ///< Its address marks a seeded slot.
};

/// Everything the in-order fold needs about one finished scenario.
template <class Mode>
struct Slot {
  std::uint64_t gi = 0;
  typename Mode::Item item;
  typename Mode::Result result;
  /// The template it was stamped from; nullptr when it ran.
  const typename Stamps<Mode>::Template* stamp = nullptr;
  /// Its stable counter work, when tracing and it ran.
  obs::CounterDelta delta;
};

}  // namespace detail

/// Runs one sweep mode end to end (see the file comment) and returns its
/// summary with the `engine` stats filled in.  `progress_every` > 0 has
/// the meter print a line to stderr every that-many folded scenarios.
/// Rethrows on the calling thread — after every worker has stopped —
/// anything a worker or a sink threw.
template <class Mode>
auto run_engine(Mode& mode, std::uint64_t progress_every, RecordSink* sink,
                const obs::Hooks* hooks) {
  using Slot = detail::Slot<Mode>;
  using Item = typename Mode::Item;
  const auto t0 = std::chrono::steady_clock::now();
  const auto& o = mode.o;
  Cursor<Item> cursor = mode.cursor();
  const std::uint64_t owned = cursor.owned();

  // Tracing needs the registry live: spans carry counter deltas captured
  // on the worker around each scenario.
  const bool tracing = hooks != nullptr && hooks->trace != nullptr;
  if (tracing) obs::set_enabled(true);
  const bool counting = obs::enabled();
  const bool times = tracing && hooks->trace_times;
  const bool forensics = hooks != nullptr && hooks->forensics_on();
  detail::Stamps<Mode> stamps(cursor.configs());
  obs::ProgressOptions po;
  po.total = owned;
  po.mode = Mode::kKind;
  po.classes = Mode::kClasses;
  po.every = progress_every;
  if (hooks != nullptr) {
    po.fd = hooks->progress_fd;
    po.heartbeat_ms = hooks->heartbeat_ms;
  }
  obs::ProgressMeter meter(po);
  if (sink != nullptr && o.shard.active()) {
    sink->append(shard_header_record(std::string(Mode::kKind), o.shard,
                                     config_key(o), cursor.total(), owned));
  }

  // Worker side: run (or stamp) one scenario and write its artifact.
  const auto run_one = [&](Indexed<Item>& in) {
    Slot s;
    s.gi = in.gi;
    s.item = std::move(in.item);
    // A scenario runs wholly on this thread, so thread-local counts
    // before/after bracket exactly its work.  A stamped one does not run:
    // the fold takes its span counters from its template.
    s.stamp = stamps.stamp(s.gi, s.result);
    if (s.stamp == nullptr && stamps.undecided(s.gi)) {
      // A run that may decide its config: its draws, and all of its
      // stable work, which the config's stamped scenarios add again.
      typename detail::Stamps<Mode>::Template run;
      const obs::WorkDelta before =
          counting ? obs::thread_work() : obs::WorkDelta{};
      const std::uint64_t draws = util::thread_draws();
      s.result = mode.run(s.item);
      const bool drew = util::thread_draws() != draws;
      if (counting) {
        run.work = obs::thread_work();
        run.work -= before;
      }
      if (tracing) s.delta = run.work.counters;
      run.result = s.result;
      stamps.decide(s.gi, drew, std::move(run));
    } else if (s.stamp == nullptr) {
      const obs::CounterDelta before =
          tracing ? obs::thread_counters() : obs::CounterDelta{};
      s.result = mode.run(s.item);
      if (tracing) s.delta = obs::thread_counters();
      s.delta -= before;
    }
    // Artifacts are named by gi, so the directory is byte-identical
    // whichever worker writes which file, and the gi-disjoint shards of
    // one sweep tile the unsharded directory.
    if (forensics) mode.artifact(s.item, s.result, s.gi, hooks->forensics_dir);
    return s;
  };

  // Calling-thread side: the deterministic fold, in enumeration order.
  // It renders each scenario's key, record and span itself, so no
  // rendered string crosses threads.
  EngineStats stats;
  std::uint64_t record_bytes = kFnvOffset;
  const auto consume = [&](const Slot& s) {
    stats.wall_ns_total += s.result.wall_ns;
    stats.wall_ns_max = std::max(stats.wall_ns_max, s.result.wall_ns);
    stats.stamped += s.stamp != nullptr ? 1 : 0;
    const std::string key = s.item.key();
    mode.fold(key, s.item, s.result);
    if (sink != nullptr) {
      const Record record =
          scenario_record<Mode>(s.gi, key, s.item, s.result);
      if (o.shard.active()) fnv_mix_line(record_bytes, record.json());
      sink->append(record);
    }
    if (tracing) {
      // Wall-clock fields only under trace_times (they break
      // byte-identity).
      Record span;
      span.str("obs", "span")
          .u64("gi", s.gi)
          .str("key", key)
          .str("mode", Mode::kKind);
      mode.span(s.item, s.result, times, span);
      obs::append_stable_deltas(
          s.stamp != nullptr ? s.stamp->work.counters : s.delta, span);
      hooks->trace->append(span);
    }
    meter.add(mode.progress_class(s.item, s.result));
  };

  // Shared with the workers, guarded by `mu`: finished scenarios wait in
  // `ring` (position p at p % window) until the fold reaches them.  A
  // worker claims the next run of scenarios from the cursor once it fits
  // the window — never more than `window` positions ahead of the fold —
  // so a slow scenario at the head never stops the others short of a
  // full window.
  const int threads = std::max(1, o.threads);
  const std::uint64_t window = std::min<std::uint64_t>(
      window_size(threads), std::max<std::uint64_t>(owned, 1));
  std::vector<std::optional<Slot>> ring(window);
  std::mutex mu;
  std::condition_variable landed;  // the fold waits for ring[head]
  std::condition_variable room;    // workers wait for the window
  std::exception_ptr failure;
  std::uint64_t head = 0;  // next position to fold
  std::uint64_t next = 0;  // next position to claim
  int waiting = 0;         // workers waiting on `room`
  std::atomic<bool> stop{false};  // set under `mu`, read per scenario
  // A quarter of each worker's share of what is left, within 1..kMaxClaim:
  // no worker holds the last scenarios while the others idle.
  const auto claim = [&] {
    const std::uint64_t left = owned - next;
    const std::uint64_t share = left / static_cast<unsigned>(threads) / 4;
    return std::min(left, std::clamp<std::uint64_t>(share, 1, kMaxClaim));
  };
  const auto fits = [&] { return next + claim() - head <= window; };

  // One worker.  Each pass through `mu` parks its last claim's results
  // in the ring and claims the next run, which it then runs unlocked.
  // A throw anywhere stops the sweep: the first becomes `failure`, which
  // the fold rethrows.
  const auto work = [&] {
    try {
      // Unreserved, so explore's one-instance claims hold one slot each.
      std::vector<Indexed<Item>> claimed;
      std::vector<Slot> done;
      std::uint64_t first = 0;  // the position of claimed[0]
      const auto ready = [&] { return stop || next == owned || fits(); };
      std::unique_lock<std::mutex> lock(mu);
      for (;;) {
        for (std::size_t k = 0; k < done.size(); ++k) {
          ring[(first + k) % window] = std::move(done[k]);
        }
        // The fold waits only ever for the head.
        bool wake = first <= head && head < first + done.size();
        done.clear();
        if (!ready()) {
          if (wake) landed.notify_one();
          wake = false;
          ++waiting;
          room.wait(lock, ready);
          --waiting;
        }
        const std::uint64_t n = stop ? 0 : claim();
        first = next;
        claimed.clear();
        for (std::uint64_t k = 0; k < n; ++k) {
          std::optional<Indexed<Item>> s = cursor.next();
          RLT_CHECK(s.has_value());
          claimed.push_back(std::move(*s));
        }
        next += n;
        lock.unlock();
        if (wake) landed.notify_one();
        if (n == 0) return;
        const bool timing = obs::enabled();
        const auto t_claim = std::chrono::steady_clock::now();
        for (Indexed<Item>& in : claimed) {
          if (stop.load(std::memory_order_relaxed)) break;
          done.push_back(run_one(in));
        }
        if (timing) {
          obs::count(obs::Counter::kPoolTasks);
          obs::hist(obs::Hist::kPoolTaskNs, detail::ns_since(t_claim));
        }
        lock.lock();
      }
    } catch (...) {
      {
        const std::lock_guard<std::mutex> guard(mu);
        if (!failure) failure = std::current_exception();
        stop = true;
      }
      room.notify_all();
      landed.notify_one();
    }
  };

  std::vector<std::thread> workers;
  // Stops the workers, which finish their current scenario at most, and
  // joins them: on every way out of the fold.
  const auto join = [&] {
    {
      const std::lock_guard<std::mutex> guard(mu);
      stop = true;
    }
    room.notify_all();
    for (std::thread& w : workers) w.join();
  };
  try {
    workers.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i) workers.emplace_back(work);
    const auto head_ready = [&] {
      return failure || ring[head % window].has_value();
    };
    while (head < owned) {
      std::unique_lock<std::mutex> lock(mu);
      // Timed, so the meter's periodic lines keep coming while a slow
      // scenario holds the head.
      while (!landed.wait_until(lock, meter.due(), head_ready)) {
        lock.unlock();
        meter.poll();
        lock.lock();
      }
      if (failure) std::rethrow_exception(failure);
      Slot s = std::move(*ring[head % window]);
      ring[head % window].reset();
      ++head;
      // Only a fold makes room.
      const bool wake = waiting > 0 && next < owned && fits();
      lock.unlock();
      if (wake) room.notify_one();
      consume(s);
    }
  } catch (...) {
    join();
    throw;
  }
  join();
  obs::count(obs::Counter::kSweepStamped, stats.stamped);
  obs::gauge_max(obs::Gauge::kPoolThreads,
                 static_cast<std::uint64_t>(threads));
  if (times) {
    // Closing span: end-to-end engine wall clock.  "stable":false marks
    // it as wall-clock material that byte-stable tooling skips.
    Record close;
    close.str("obs", "span")
        .str("span", "sweep")
        .str("mode", Mode::kKind)
        .boolean("stable", false)
        .u64("scenarios", owned)
        .u64("elapsed_ns", detail::ns_since(t0));
    hooks->trace->append(close);
  }
  auto sum = mode.finish(sink);
  if (sink != nullptr && o.shard.active()) {
    sink->append(
        shard_trailer_record(o.shard, owned, sum.digest, record_bytes));
  }
  // Only a sweep that got this far is done.
  meter.finish();
  stats.elapsed_ns = detail::ns_since(t0);
  sum.engine = stats;
  return sum;
}

}  // namespace rlt::sweep
