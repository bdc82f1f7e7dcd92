#include "util/rng.hpp"

namespace rlt::util {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

thread_local std::uint64_t t_draws = 0;

}  // namespace

std::uint64_t thread_draws() noexcept { return t_draws; }

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void Rng::reseed(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

std::uint64_t Rng::next_u64() noexcept {
  ++t_draws;
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::uniform(std::uint64_t bound) noexcept {
  // Lemire's nearly-divisionless unbiased bounded generation.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_in(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(uniform(span));
}

bool Rng::chance(std::uint64_t num, std::uint64_t den) noexcept {
  return uniform(den) < num;
}

double Rng::uniform_double() noexcept {
  // 53 top bits -> [0,1) with full double precision.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

Rng Rng::fork() noexcept {
  // Mix the next output through SplitMix64 so parent and child streams
  // do not overlap in practice.
  std::uint64_t sm = next_u64() ^ 0xA5A5A5A5A5A5A5A5ULL;
  return Rng(splitmix64(sm));
}

}  // namespace rlt::util
