// Tests of the harness's pure helpers: the percentile rule, layer
// self-time attribution and the record field reader.  Self-contained (no
// test framework); exits non-zero on the first failed check.
//
//   cmake --build <dir> --target perfbench_stats_test && <dir>/perfbench_stats_test
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <numeric>
#include <vector>

#include "stats.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::cerr << __FILE__ << ":" << __LINE__ << ": " #cond << "\n"; \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

std::vector<std::uint64_t> one_to(std::uint64_t n) {
  std::vector<std::uint64_t> v(n);
  std::iota(v.begin(), v.end(), 1);
  return v;
}

void percentile_rule() {
  // 1..1000: p99 is 990 with exactly ten samples above it; p99.9 would
  // leave one, so the tail stops at p99.
  const auto r = perfbench::tail_report(one_to(1000));
  CHECK(r.n == 1000);
  CHECK(r.p50 == 500);
  CHECK(r.tail_pct == 99);
  CHECK(r.tail == 990);
  CHECK(r.max == 1000);

  // 999 samples: p99 has only nine above it, so p90 is the tail.
  const auto r999 = perfbench::tail_report(one_to(999));
  CHECK(r999.tail_pct == 90);
  CHECK(r999.tail == 900);

  // Order does not matter; 100000 samples reach p99.99 (ten above).
  std::vector<std::uint64_t> big = one_to(100000);
  std::reverse(big.begin(), big.end());
  const auto rb = perfbench::tail_report(big);
  CHECK(rb.tail_pct == 99.99);
  CHECK(rb.tail == 99990);

  // Too few samples for any tail: it falls back to the median.
  const auto small = perfbench::tail_report({5, 1, 3, 2, 4, 6, 8, 7});
  CHECK(small.n == 8);
  CHECK(small.p50 == 4);
  CHECK(small.tail == small.p50);
  CHECK(small.tail_pct == 50);
  CHECK(small.max == 8);

  CHECK(perfbench::tail_report({}).n == 0);
}

void self_times_sum_to_wall() {
  using perfbench::Span;
  const std::vector<Span> spans = {
      {"harness", -1, 10.0, 1},   {"setup", 0, 0.5, 1},
      {"engine", 0, 9.0, 1},      {"pool", 2, 7.0, 1},
      {"sim.abd", 3, 4.0, 100},   {"checker.abd", 3, 2.5, 100},
      {"fold", 2, 1.75, 1},       {"store_append", 6, 1.0, 100}};
  const auto a = perfbench::attribute(spans);
  CHECK(a.wall == 10.0);
  CHECK(std::fabs(a.residual - 0.5) < 1e-12);
  CHECK(std::fabs(a.self[3] - 0.5) < 1e-12);   // pool idle
  CHECK(std::fabs(a.self[2] - 0.25) < 1e-12);  // engine outside pool/fold
  const double total = std::accumulate(a.self.begin() + 1, a.self.end(), 0.0);
  CHECK(std::fabs(total + a.residual - a.wall) < 1e-12);
}

void field_reader() {
  const std::string rec =
      R"({"gi":7,"key":"abd/rand/p3/w2/seed1","verdict":"ok","msgs":42,)"
      R"("detail":"msgs:99"})";
  CHECK(perfbench::field(rec, "key") == "abd/rand/p3/w2/seed1");
  CHECK(perfbench::field(rec, "verdict") == "ok");
  CHECK(perfbench::field_u64(rec, "gi") == 7);
  CHECK(perfbench::field_u64(rec, "msgs") == 42);
  CHECK(perfbench::field_u64(rec, "detail") == 0);
  CHECK(!perfbench::field(rec, "absent"));
}

}  // namespace

int main() {
  percentile_rule();
  self_times_sum_to_wall();
  field_reader();
  if (g_failures != 0) {
    std::cerr << g_failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench_stats_test: all checks passed\n";
  return 0;
}
