// Experiment P6 — streaming online checker throughput.
//
// The ROADMAP's line-rate goal: the streaming checker must sustain a
// high checked-ops/sec/core rate on unbounded streams (live state bounded
// by the open ops, no solver call), and adversarial many-writer windows —
// the worst case for both the configuration set and the backtracking
// search behind the batch check — must stay tractable.  items_per_second
// here IS the sustained ops-checked-per-second-per-core figure.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "checker/lin_solver.hpp"
#include "checker/stream_checker.hpp"
#include "history/history.hpp"

namespace {

using namespace rlt;
using history::History;
using history::kNoTime;
using history::OpRecord;
using history::Time;
using history::Value;

/// A long stream of `blocks` overlap groups: one write of a cycling
/// value overlapped by `overlap - 1` reads returning it, then a
/// quiescent point.  The shape the frontier checks at line rate.
History make_stream_history(int blocks, int overlap) {
  History h;
  h.set_initial(0, 0);
  Time t = 0;
  for (int b = 0; b < blocks; ++b) {
    const Value v = static_cast<Value>(b % 3);
    OpRecord w;
    w.process = 0;
    w.reg = 0;
    w.kind = checker::OpKind::kWrite;
    w.value = v;
    w.invoke = ++t;
    w.response = kNoTime;
    const int wid = h.add(w);
    std::vector<int> readers;
    for (int r = 1; r < overlap; ++r) {
      OpRecord rd;
      rd.process = r;
      rd.reg = 0;
      rd.kind = checker::OpKind::kRead;
      rd.value = 0;
      rd.invoke = ++t;
      rd.response = kNoTime;
      readers.push_back(h.add(rd));
    }
    h.complete_op(wid, v, ++t);
    for (const int id : readers) h.complete_op(id, v, ++t);
  }
  return h;
}

/// The adversarial window: `writers` fully concurrent distinct-value
/// writes, `reads_per_value` concurrent reads of each, plus one read of
/// a value nobody writes (infeasible — the deepest search).
History many_writer_window(int writers, int reads_per_value) {
  History h;
  h.set_initial(0, 0);
  Time t = 0;
  std::vector<int> ids;
  for (int w = 0; w < writers; ++w) {
    OpRecord op;
    op.process = w;
    op.reg = 0;
    op.kind = checker::OpKind::kWrite;
    op.value = 10 + w;
    op.invoke = ++t;
    op.response = kNoTime;
    ids.push_back(h.add(op));
  }
  for (int w = 0; w < writers; ++w) {
    for (int r = 0; r < reads_per_value; ++r) {
      OpRecord op;
      op.process = writers + w;
      op.reg = 0;
      op.kind = checker::OpKind::kRead;
      op.value = 10 + w;
      op.invoke = ++t;
      op.response = kNoTime;
      ids.push_back(h.add(op));
    }
  }
  OpRecord bad;
  bad.process = 2 * writers;
  bad.reg = 0;
  bad.kind = checker::OpKind::kRead;
  bad.value = 99;
  bad.invoke = ++t;
  bad.response = kNoTime;
  ids.push_back(h.add(bad));
  Time r = 1000;
  for (const int id : ids) h.complete_op(id, h.op(id).value, ++r);
  return h;
}

/// Sustained streaming throughput at a given overlap degree.  The
/// reported items/sec is operations checked per second on one core.
void BM_StreamSustainedOpsPerSec(benchmark::State& state) {
  const int overlap = static_cast<int>(state.range(0));
  const History h = make_stream_history(/*blocks=*/2048, overlap);
  for (auto _ : state) {
    const checker::StreamingChecker c = checker::check_stream(h);
    benchmark::DoNotOptimize(c.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(h.size()));
  state.SetLabel(std::to_string(h.size()) + " ops, overlap " +
                 std::to_string(overlap));
}
BENCHMARK(BM_StreamSustainedOpsPerSec)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

/// The pruning curve: adversarial windows by writer count, prune on/off
/// (range(1)).  The unpruned search is only run at sizes it can finish;
/// the pruned series extends past the seed's ~6-writer practical
/// ceiling.
void BM_ManyWriterWindow(benchmark::State& state) {
  const int writers = static_cast<int>(state.range(0));
  const bool prune = state.range(1) != 0;
  const History h = many_writer_window(writers, /*reads_per_value=*/2);
  checker::LinProblem p;
  p.history = &h;
  p.prune = prune;
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker::feasible(p));
  }
  state.SetLabel(std::to_string(writers) + " writers, prune " +
                 (prune ? "on" : "off"));
}
BENCHMARK(BM_ManyWriterWindow)
    ->Args({4, 0})
    ->Args({5, 0})
    ->Args({4, 1})
    ->Args({5, 1})
    ->Args({6, 1})
    ->Args({7, 1})
    ->Args({8, 1})
    ->Args({9, 1})
    ->Args({10, 1});

/// The same windows streamed: the configuration set holds every write
/// order the open writes still allow, and rejects at the last event.
void BM_StreamManyWriterWindow(benchmark::State& state) {
  const int writers = static_cast<int>(state.range(0));
  const History h = many_writer_window(writers, /*reads_per_value=*/2);
  for (auto _ : state) {
    const checker::StreamingChecker c = checker::check_stream(h);
    benchmark::DoNotOptimize(c.ok());
  }
  state.SetLabel(std::to_string(writers) + " writers");
}
BENCHMARK(BM_StreamManyWriterWindow)->DenseRange(4, 10);

}  // namespace

BENCHMARK_MAIN();
