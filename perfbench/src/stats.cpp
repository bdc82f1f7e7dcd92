#include "stats.hpp"

#include <algorithm>
#include <charconv>

namespace perfbench {

TailReport tail_report(std::vector<std::uint64_t> samples) {
  TailReport r;
  r.n = samples.size();
  if (samples.empty()) return r;
  std::sort(samples.begin(), samples.end());
  // Nearest rank of the fraction num/den: the ceil(n*num/den)-th sample.
  const auto at = [&](std::uint64_t num, std::uint64_t den) {
    const std::uint64_t rank = (r.n * num + den - 1) / den;
    return std::max<std::uint64_t>(rank, 1);
  };
  r.p50 = static_cast<double>(samples[at(1, 2) - 1]);
  r.tail = r.p50;
  r.max = static_cast<double>(samples.back());
  struct Rung {
    std::uint64_t num, den;
    double pct;
  };
  static constexpr Rung kLadder[] = {{9, 10, 90},
                                     {99, 100, 99},
                                     {999, 1000, 99.9},
                                     {9999, 10000, 99.99},
                                     {99999, 100000, 99.999}};
  for (const Rung& g : kLadder) {
    const std::uint64_t rank = at(g.num, g.den);
    if (r.n - rank < 10) break;
    r.tail = static_cast<double>(samples[rank - 1]);
    r.tail_pct = g.pct;
  }
  return r;
}

Attribution attribute(const std::vector<Span>& spans) {
  Attribution a;
  a.self.resize(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) a.self[i] = spans[i].seconds;
  for (std::size_t i = 1; i < spans.size(); ++i) {
    a.self[static_cast<std::size_t>(spans[i].parent)] -= spans[i].seconds;
  }
  if (!spans.empty()) {
    a.wall = spans[0].seconds;
    a.residual = a.self[0];
  }
  return a;
}

std::optional<std::string_view> field(std::string_view json,
                                      std::string_view name) {
  std::string needle;
  needle.reserve(name.size() + 3);
  needle.append("\"").append(name).append("\":");
  const std::size_t at = json.find(needle);
  if (at == std::string_view::npos) return std::nullopt;
  std::string_view v = json.substr(at + needle.size());
  if (!v.empty() && v.front() == '"') {
    v.remove_prefix(1);
    return v.substr(0, v.find('"'));
  }
  return v.substr(0, v.find_first_of(",}"));
}

std::uint64_t field_u64(std::string_view json, std::string_view name) {
  const auto v = field(json, name);
  std::uint64_t x = 0;
  if (v) std::from_chars(v->data(), v->data() + v->size(), x);
  return x;
}

}  // namespace perfbench
