// Pure helpers of the benchmark harness: the percentile rule, layer
// self-time attribution, and the flat-JSON field reader the sinks use.
// Kept free of engine calls so tests/stats_test.cpp can pin them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// The reported shape of one timing distribution: the median, the
/// highest percentile of the ladder 50, 90, 99, 99.9, 99.99, 99.999
/// that still has at least ten samples strictly above it (nearest-rank
/// definition), the sample count and the maximum.  With fewer than
/// twenty samples no tail qualifies and the tail falls back to the
/// median (tail_pct = 50).
struct TailReport {
  std::size_t n = 0;
  double p50 = 0;
  double tail = 0;
  double tail_pct = 50;
  double max = 0;
};

[[nodiscard]] TailReport tail_report(std::vector<std::uint64_t> samples);

/// One layer span of a traced run.  `seconds` is wall time, or for work
/// that ran on the pool, the summed worker time divided by the thread
/// count (its share of the pool's wall time).  Span 0 is the root: the
/// whole traced pass.
struct Span {
  std::string name;
  int parent = -1;
  double seconds = 0;
  std::uint64_t calls = 0;
};

/// Self time of every span (its seconds minus its children's).  The
/// self times telescope, so they sum to the root's seconds exactly; the
/// root's own self time is the residual no layer span covers.
struct Attribution {
  std::vector<double> self;
  double wall = 0;
  double residual = 0;
};

[[nodiscard]] Attribution attribute(const std::vector<Span>& spans);

/// The raw value of field `name` in one canonical store/trace record
/// (a flat JSON object): a number's digits, or a string's contents
/// without the quotes.  The first occurrence wins, which is the field
/// itself for every field the record writes before its free-text
/// "detail".
[[nodiscard]] std::optional<std::string_view> field(std::string_view json,
                                                    std::string_view name);
[[nodiscard]] std::uint64_t field_u64(std::string_view json,
                                      std::string_view name);

}  // namespace perfbench
