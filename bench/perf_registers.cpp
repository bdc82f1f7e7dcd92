// Experiment P1 — the engineering cost of write strong-linearizability.
//
// Section 5 of the paper: achieving WSL is *harder* than achieving plain
// linearizability.  Algorithm 2 pays for that hardness concretely: each
// write maintains an n-entry vector timestamp (n base-register reads plus
// O(n) comparison work per read), while Algorithm 4 carries one scalar
// Lamport clock.  This bench quantifies the gap on real threads (seqlock
// SWMR base registers), against a plain mutex register for calibration.
#include <benchmark/benchmark.h>

#include <thread>

#include "registers/thread_alg2.hpp"
#include "registers/thread_alg4.hpp"

namespace {

using namespace rlt::registers;

void BM_Alg2Write(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ThreadAlg2Register reg(n, 0, /*record=*/false);
  std::int64_t v = 0;
  for (auto _ : state) {
    reg.write(0, ++v);
  }
  state.SetLabel("WSL vector-timestamp write, n=" + std::to_string(n));
}
BENCHMARK(BM_Alg2Write)->Arg(2)->Arg(4)->Arg(8);

void BM_Alg4Write(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ThreadAlg4Register reg(n, 0, /*record=*/false);
  std::int64_t v = 0;
  for (auto _ : state) {
    reg.write(0, ++v);
  }
  state.SetLabel("linearizable Lamport-clock write, n=" + std::to_string(n));
}
BENCHMARK(BM_Alg4Write)->Arg(2)->Arg(4)->Arg(8);

void BM_Alg2Read(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ThreadAlg2Register reg(n, 0, /*record=*/false);
  reg.write(0, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.read(0));
  }
}
BENCHMARK(BM_Alg2Read)->Arg(2)->Arg(4)->Arg(8);

void BM_Alg4Read(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ThreadAlg4Register reg(n, 0, /*record=*/false);
  reg.write(0, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.read(0));
  }
}
BENCHMARK(BM_Alg4Read)->Arg(2)->Arg(4)->Arg(8);

void BM_LockedRegisterWrite(benchmark::State& state) {
  LockedMwmrRegister reg(0);
  std::int64_t v = 0;
  for (auto _ : state) {
    reg.write(++v);
  }
  state.SetLabel("mutex MWMR register write (calibration)");
}
BENCHMARK(BM_LockedRegisterWrite);

/// Contended mixed workload: each thread alternates write and read on its
/// own slot; measures throughput under real concurrency.  Thread 0 creates
/// the register before the loop and deletes it after, so `reg` is read only
/// inside the loop, which every thread enters and leaves together (Google
/// Benchmark's start and stop barriers).
template <class Register>
void contended_loop(benchmark::State& state, Register* const& reg) {
  const int me = static_cast<int>(state.thread_index());
  std::int64_t v = 0;
  for (auto _ : state) {
    reg->write(me, ++v);
    benchmark::DoNotOptimize(reg->read(me));
  }
}

void BM_Alg2Contended(benchmark::State& state) {
  static ThreadAlg2Register* reg = nullptr;
  if (state.thread_index() == 0) {
    reg = new ThreadAlg2Register(static_cast<int>(state.threads()), 0,
                                 /*record=*/false);
  }
  contended_loop(state, reg);
  if (state.thread_index() == 0) {
    delete reg;
    reg = nullptr;
  }
}
BENCHMARK(BM_Alg2Contended)->Threads(2)->Threads(4)->UseRealTime();

void BM_Alg4Contended(benchmark::State& state) {
  static ThreadAlg4Register* reg = nullptr;
  if (state.thread_index() == 0) {
    reg = new ThreadAlg4Register(static_cast<int>(state.threads()), 0,
                                 /*record=*/false);
  }
  contended_loop(state, reg);
  if (state.thread_index() == 0) {
    delete reg;
    reg = nullptr;
  }
}
BENCHMARK(BM_Alg4Contended)->Threads(2)->Threads(4)->UseRealTime();

void BM_SeqlockRead(benchmark::State& state) {
  SeqlockSWMR<Alg2Tuple> reg(Alg2Tuple{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.read());
  }
  state.SetLabel("base SWMR register read (seqlock)");
}
BENCHMARK(BM_SeqlockRead);

void BM_SeqlockWrite(benchmark::State& state) {
  SeqlockSWMR<Alg2Tuple> reg(Alg2Tuple{});
  Alg2Tuple t;
  for (auto _ : state) {
    ++t.value;
    reg.write(t);
  }
  state.SetLabel("base SWMR register write (seqlock)");
}
BENCHMARK(BM_SeqlockWrite);

}  // namespace

BENCHMARK_MAIN();
