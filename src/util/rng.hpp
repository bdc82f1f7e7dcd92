// Deterministic pseudo-random number generation for simulations.
//
// Every source of randomness in this library — coin flips inside
// randomized algorithms, adversary tie-breaking, workload generation —
// flows through an `rlt::util::Rng` seeded from a single experiment seed,
// so that every run is exactly replayable from its printed seed.
//
// The safety sweep relies on that in one more way: a run that made no
// `Rng` draw cannot depend on its scenario seed, so the sweep engine
// runs it once per config and stamps its result onto every later seed
// (sweep/engine.hpp).  Every use of a scenario seed must therefore be an
// `Rng` draw: seeding a generator is free, but mixing the seed into a
// run any other way would make stamped records wrong.
//
// The generator is xoshiro256++ seeded via SplitMix64, which is the
// recommended seeding procedure of the xoshiro authors.  We deliberately
// avoid std::mt19937 because its seeding from a single 64-bit value is
// poor and its state is needlessly large for our purposes.
#pragma once

#include <cstdint>
#include <limits>

namespace rlt::util {

/// SplitMix64 step; used to expand a 64-bit seed into generator state.
/// Public because tests and hash-mixing utilities reuse it.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// How many draws every `Rng` on the calling thread has made so far.
/// Each `next_u64` adds one, and every other drawing member goes through
/// it; construction and `reseed` add nothing.  Equal counts before and
/// after a run mean the run drew nothing.
[[nodiscard]] std::uint64_t thread_draws() noexcept;

/// xoshiro256++ deterministic pseudo-random generator.
///
/// Satisfies the C++ UniformRandomBitGenerator requirements so it can be
/// used with <random> distributions, but the convenience members below
/// (`next_u64`, `uniform`, `flip`) should be preferred in library code:
/// they are guaranteed stable across platforms, unlike std distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Constructs a generator from a single 64-bit seed.
  explicit Rng(std::uint64_t seed = 0) noexcept { reseed(seed); }

  /// Resets the generator state as if freshly constructed with `seed`.
  void reseed(std::uint64_t seed) noexcept;

  /// UniformRandomBitGenerator interface.
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }
  result_type operator()() noexcept { return next_u64(); }

  /// Next raw 64 bits; the one member that draws (see thread_draws).
  std::uint64_t next_u64() noexcept;

  /// Uniform integer in [0, bound). `bound` must be > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  std::uint64_t uniform(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_in(std::int64_t lo, std::int64_t hi) noexcept;

  /// Fair coin flip: returns 0 or 1.
  int flip() noexcept { return static_cast<int>(next_u64() >> 63); }

  /// Bernoulli trial with probability `num/den`. Requires 0<=num<=den, den>0.
  bool chance(std::uint64_t num, std::uint64_t den) noexcept;

  /// Uniform double in [0, 1).
  double uniform_double() noexcept;

  /// Derives an independent child generator (for per-entity streams).
  /// The child stream is a deterministic function of the current state.
  Rng fork() noexcept;

 private:
  std::uint64_t s_[4]{};
};

}  // namespace rlt::util
