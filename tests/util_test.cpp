// Tests for util: deterministic RNG and invariant checking.
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <thread>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace rlt::util {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64()) << "diverged at draw " << i;
  }
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(7);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 16; ++i) first.push_back(a.next_u64());
  a.reseed(7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next_u64(), first[i]);
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(123);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.uniform(bound), bound);
    }
  }
}

TEST(Rng, UniformCoversRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformInInclusive) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const std::int64_t v = rng.uniform_in(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, FlipIsRoughlyFair) {
  Rng rng(77);
  int ones = 0;
  const int trials = 10000;
  for (int i = 0; i < trials; ++i) ones += rng.flip();
  EXPECT_GT(ones, trials / 2 - 300);
  EXPECT_LT(ones, trials / 2 + 300);
}

TEST(Rng, ChanceEdgeCases) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0, 10));
    EXPECT_TRUE(rng.chance(10, 10));
  }
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.uniform_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(21);
  Rng child = parent.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.next_u64() == child.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitMixKnownGoodSequenceIsStable) {
  // Pin the stream so refactors cannot silently change every experiment.
  Rng rng(0);
  const std::uint64_t first = rng.next_u64();
  Rng again(0);
  EXPECT_EQ(first, again.next_u64());
  EXPECT_NE(first, 0u);
}

/// How far thread_draws() rises across `draw`.
std::uint64_t draws_of(const std::function<void()>& draw) {
  const std::uint64_t before = thread_draws();
  draw();
  return thread_draws() - before;
}

TEST(Rng, ThreadDrawsCountsEveryDrawAndNothingElse) {
  Rng rng(5);
  EXPECT_EQ(draws_of([] { Rng fresh(6); }), 0u);
  EXPECT_EQ(draws_of([&] { rng.reseed(7); }), 0u);
  EXPECT_EQ(draws_of([&] { (void)rng.next_u64(); }), 1u);
  EXPECT_EQ(draws_of([&] {
              for (int i = 0; i < 10; ++i) (void)rng.next_u64();
            }),
            10u);
  EXPECT_GE(draws_of([&] { (void)rng.uniform(10); }), 1u);
  EXPECT_GE(draws_of([&] { (void)rng.chance(1, 3); }), 1u);
  EXPECT_GE(draws_of([&] { (void)rng.flip(); }), 1u);
  EXPECT_GE(draws_of([&] { (void)rng.uniform_double(); }), 1u);
  EXPECT_GE(draws_of([&] { (void)rng.fork(); }), 1u);
}

TEST(Rng, ThreadDrawsIgnoresOtherThreads) {
  std::uint64_t there = 0;
  const std::uint64_t here = draws_of([&] {
    std::thread other([&] {
      Rng rng(8);
      for (int i = 0; i < 100; ++i) (void)rng.next_u64();
      there = thread_draws();
    });
    other.join();
  });
  EXPECT_EQ(here, 0u);
  EXPECT_EQ(there, 100u);  // a new thread counts from zero
}

TEST(Check, ThrowsWithMessage) {
  EXPECT_THROW(RLT_CHECK(false), InvariantViolation);
  try {
    RLT_CHECK_MSG(1 == 2, "custom detail " << 42);
    FAIL() << "should have thrown";
  } catch (const InvariantViolation& e) {
    EXPECT_NE(std::string(e.what()).find("custom detail 42"),
              std::string::npos);
  }
}

TEST(Check, PassesSilently) {
  EXPECT_NO_THROW(RLT_CHECK(true));
  EXPECT_NO_THROW(RLT_CHECK_MSG(2 + 2 == 4, "unused"));
}

}  // namespace
}  // namespace rlt::util
