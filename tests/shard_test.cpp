// The distributed-sweep shard fabric (src/sweep/shard.*): the round-robin
// partition of the scenario cross-product, the shard-store bracket, and
// the merge identity
//
//     run(shard 0/N) + … + run(N-1/N) + merge  ≡  run(1/1)
//
// byte-for-byte — store, digest, and stable summary — for all three
// sweep kinds (safety, term, explore).  Also the loud-failure contract:
// a merge over an incomplete, duplicated, mismatched, or corrupted shard
// set must throw with the offending shard named, never produce a
// plausible-looking partial aggregate.  Last, the store-record field
// reader that --merge and --replay parse records with, and the blessed
// store read back through it.

#include <cstdint>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "explore/explore.hpp"
#include "sweep/shard.hpp"
#include "sweep/store.hpp"
#include "sweep/sweep.hpp"
#include "term/term_sweep.hpp"

namespace rlt::sweep {
namespace {

// ------------------------------------------------------------ ShardSpec ---

TEST(ShardSpec, ParseAcceptsCliSpellings) {
  auto s = parse_shard("0/1");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->index, 0u);
  EXPECT_EQ(s->count, 1u);
  EXPECT_FALSE(s->active());

  s = parse_shard("2/4");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->index, 2u);
  EXPECT_EQ(s->count, 4u);
  EXPECT_TRUE(s->active());
  EXPECT_EQ(s->to_string(), "2/4");
}

TEST(ShardSpec, ParseRejectsMalformedSpellings) {
  for (const char* bad :
       {"", "1", "/", "1/", "/2", "4/4", "5/4", "0/0", "banana", "1/2/3",
        "-1/2", "1/-2", " 1/2", "1/2 ", "1/ 2", "0x1/2", "1.0/2",
        "9999999999/2", "1/9999999999"}) {
    EXPECT_FALSE(parse_shard(bad).has_value()) << "accepted: " << bad;
  }
}

TEST(ShardSpec, RoundRobinPartitionIsExact) {
  for (std::uint32_t count : {2u, 3u, 4u, 7u}) {
    const std::uint64_t total = 23;
    std::uint64_t owned = 0;
    std::vector<int> owners(total, 0);
    for (std::uint32_t i = 0; i < count; ++i) {
      ShardSpec s{i, count};
      owned += s.share(total);
      for (std::uint64_t g = 0; g < total; ++g) owners[g] += s.owns(g);
    }
    EXPECT_EQ(owned, total) << "count=" << count;
    for (std::uint64_t g = 0; g < total; ++g)
      EXPECT_EQ(owners[g], 1) << "count=" << count << " g=" << g;
  }
}

// ---------------------------------------------------------- enumeration ---

// Every sweep kind's sharded enumeration must tile the unsharded one:
// each global index appears in exactly one shard, and the scenario at
// that slot is the same scenario (same key) the unsharded enumeration
// puts there.

TEST(ShardEnumeration, SafetyShardsTileTheCrossProduct) {
  SweepOptions o;
  o.seed_begin = 0;
  o.seed_end = 5;
  const auto full = enumerate_shard(o);
  ASSERT_EQ(full.total, full.scenarios.size());

  const std::uint32_t kShards = 3;
  std::vector<int> seen(full.total, 0);
  for (std::uint32_t i = 0; i < kShards; ++i) {
    SweepOptions so = o;
    so.shard = ShardSpec{i, kShards};
    const auto part = enumerate_shard(so);
    EXPECT_EQ(part.total, full.total);
    EXPECT_EQ(part.scenarios.size(), so.shard.share(full.total));
    for (std::size_t j = 0; j < part.scenarios.size(); ++j) {
      const std::uint64_t gi = part.global_indices[j];
      ASSERT_LT(gi, full.total);
      EXPECT_EQ(gi % kShards, i);
      EXPECT_EQ(part.scenarios[j].key(), full.scenarios[gi].key());
      ++seen[gi];
    }
  }
  for (std::uint64_t g = 0; g < full.total; ++g) EXPECT_EQ(seen[g], 1);
}

TEST(ShardEnumeration, TermShardsTileTheCrossProduct) {
  term::TermSweepOptions o;
  o.seed_begin = 0;
  o.seed_end = 4;
  const auto full = term::enumerate_term_shard(o);
  ASSERT_EQ(full.total, full.scenarios.size());

  const std::uint32_t kShards = 4;
  std::vector<int> seen(full.total, 0);
  for (std::uint32_t i = 0; i < kShards; ++i) {
    term::TermSweepOptions so = o;
    so.shard = ShardSpec{i, kShards};
    const auto part = term::enumerate_term_shard(so);
    EXPECT_EQ(part.total, full.total);
    for (std::size_t j = 0; j < part.scenarios.size(); ++j) {
      const std::uint64_t gi = part.global_indices[j];
      ASSERT_LT(gi, full.total);
      EXPECT_EQ(part.scenarios[j].key(), full.scenarios[gi].key());
      ++seen[gi];
    }
  }
  for (std::uint64_t g = 0; g < full.total; ++g) EXPECT_EQ(seen[g], 1);
}

TEST(ShardEnumeration, ExploreShardsTileTheInstanceList) {
  explore::ExploreOptions o;
  o.seed_begin = 0;
  o.seed_end = 6;
  const auto full = explore::enumerate_explore_shard(o);
  ASSERT_EQ(full.total, full.instances.size());

  const std::uint32_t kShards = 4;
  std::vector<int> seen(full.total, 0);
  for (std::uint32_t i = 0; i < kShards; ++i) {
    explore::ExploreOptions so = o;
    so.shard = ShardSpec{i, kShards};
    const auto part = explore::enumerate_explore_shard(so);
    EXPECT_EQ(part.total, full.total);
    for (std::size_t j = 0; j < part.instances.size(); ++j) {
      const std::uint64_t gi = part.global_indices[j];
      ASSERT_LT(gi, full.total);
      EXPECT_EQ(part.instances[j].key(), full.instances[gi].key());
      ++seen[gi];
    }
  }
  for (std::uint64_t g = 0; g < full.total; ++g) EXPECT_EQ(seen[g], 1);
}

// ---------------------------------------------------------- shard store ---

TEST(ShardStoreBytes, IndependentOfThreadsAndBatch) {
  SweepOptions a;
  a.seed_begin = 0;
  a.seed_end = 4;
  a.shard = ShardSpec{1, 3};
  a.threads = 1;
  SweepOptions b = a;
  b.threads = 4;

  StringSink sa, sb;
  (void)run_sweep(a, 0, &sa);
  (void)run_sweep(b, 0, &sb);
  EXPECT_EQ(sa.text(), sb.text());
}

TEST(ShardStoreBytes, DefaultShardWritesNoBracket) {
  SweepOptions o;
  o.seed_begin = 0;
  o.seed_end = 2;
  StringSink s;
  (void)run_sweep(o, 0, &s);
  // Unsharded stores keep their historical shape: scenario records only,
  // each leading with its global index.
  EXPECT_EQ(s.text().rfind("{\"gi\":0,", 0), 0u);
  EXPECT_EQ(s.text().find("\"mode\":\"shard\""), std::string::npos);
}

// ---------------------------------------------------- the merge identity ---

// Shared harness: run the unsharded sweep and N sharded runs of the same
// options, merge the shard stores, and require store bytes, digest, and
// stable summary to be identical to the unsharded run's.

template <typename Options, typename RunFn>
void expect_merge_identity(const Options& base, std::uint32_t shards,
                           const std::string& kind, RunFn run) {
  StringSink full_sink;
  const auto full = run(base, &full_sink);

  std::vector<ShardStore> stores;
  for (std::uint32_t i = 0; i < shards; ++i) {
    Options o = base;
    o.shard = ShardSpec{i, shards};
    StringSink s;
    (void)run(o, &s);
    stores.push_back({"shard_" + std::to_string(i), s.text()});
  }

  const MergeResult m = merge_shard_stores(stores);
  EXPECT_EQ(m.kind, kind);
  EXPECT_EQ(m.shards, shards);
  EXPECT_EQ(m.store, full_sink.text());
  EXPECT_EQ(m.digest, full.digest);
  EXPECT_EQ(m.stable_text, full.stable_text());
}

TEST(ShardMerge, ReconstructsUnshardedSafetyStore) {
  const auto run = [](const SweepOptions& opts, RecordSink* sink) {
    return run_sweep(opts, 0, sink);
  };
  SweepOptions o;
  o.seed_begin = 0;
  o.seed_end = 4;
  o.threads = 2;
  expect_merge_identity(o, 3, "safety", run);
  // Empty shards and idle workers: 3 scenarios in 8 shards, 8 threads.
  SweepOptions tiny;
  tiny.algorithms = {Algorithm::kModeled};
  tiny.semantics = {sim::Semantics::kAtomic};
  tiny.adversaries = {AdversaryKind::kRoundRobin};
  tiny.process_counts = {2};
  tiny.seed_end = 3;
  tiny.threads = 8;
  expect_merge_identity(tiny, 8, "safety", run);
}

TEST(ShardMerge, ReconstructsUnshardedTermStore) {
  // Includes the per-family "term-hist" records: shards persist partial
  // histograms, the merge recomputes the global ones.
  const auto run = [](const term::TermSweepOptions& opts,
                      RecordSink* sink) {
    return run_term_sweep(opts, 0, sink);
  };
  term::TermSweepOptions o;
  o.seed_begin = 0;
  o.seed_end = 4;
  o.threads = 2;
  expect_merge_identity(o, 4, "term", run);
  // Empty shards and idle workers: 3 scenarios in 8 shards, 8 threads.
  term::TermSweepOptions tiny;
  tiny.families = {term::Family::kSharedCoin};
  tiny.adversaries = {term::TermAdversary::kRandom};
  tiny.process_counts = {2};
  tiny.round_budgets = {4};
  tiny.seed_end = 3;
  tiny.threads = 8;
  expect_merge_identity(tiny, 8, "term", run);
}

TEST(ShardMerge, ReconstructsUnshardedExploreStore) {
  const auto run = [](const explore::ExploreOptions& opts,
                      RecordSink* sink) {
    return run_explore(opts, 0, sink);
  };
  explore::ExploreOptions o;
  o.seed_begin = 0;
  o.seed_end = 4;
  o.search_budget = 4;
  o.shrink_budget = 64;
  o.round_budgets = {6};
  o.threads = 2;
  expect_merge_identity(o, 3, "explore", run);
  // Empty shards and idle workers: 3 instances in 8 shards, 8 threads.
  explore::ExploreOptions tiny = o;
  tiny.seed_end = 3;
  tiny.threads = 8;
  expect_merge_identity(tiny, 8, "explore", run);
}

TEST(ShardMerge, ComposesTruncatedFailureMarker) {
  // ABD under a majority crash blocks every scenario: 2 adversaries x
  // 20 seeds = 40 failures, well past SweepFold::kMaxReportedFailures.
  // Each shard reports its own partial list; the merged summary must
  // re-truncate in GLOBAL order and land on the unsharded "... and N
  // more" marker exactly.
  SweepOptions o;
  o.algorithms = {Algorithm::kAbd};
  o.faults = {FaultKind::kMajorityCrash};
  o.seed_begin = 0;
  o.seed_end = 20;
  o.threads = 2;

  StringSink full_sink;
  const auto full = run_sweep(o, 0, &full_sink);
  ASSERT_GT(full.failures_truncated, 0u);
  ASSERT_NE(full.stable_text().find("more"), std::string::npos);

  expect_merge_identity(o, 3, "safety",
                        [](const SweepOptions& opts, RecordSink* sink) {
                          return run_sweep(opts, 0, sink);
                        });
}

// A violation hunt's records say "found":"violation" or "found":"blocked";
// the merge must read those back into the same counters and digest.
const auto run_explore_into = [](const explore::ExploreOptions& opts,
                                 RecordSink* sink) {
  return run_explore(opts, 0, sink);
};

TEST(ShardMerge, ReconstructsViolationHuntStore) {
  explore::ExploreOptions o;
  o.objective = explore::Objective::kViolation;
  o.algorithms = {Algorithm::kAbd};
  o.abd_read_write_back = false;  // The planted no-write-back ablation.
  o.process_counts = {4};
  o.search_budget = 8;
  o.seed_begin = 0;
  o.seed_end = 3;
  o.threads = 2;
  ASSERT_GT(run_explore(o).violations_found, 0u);
  expect_merge_identity(o, 3, "explore", run_explore_into);
}

TEST(ShardMerge, ReconstructsBlockedHuntStore) {
  explore::ExploreOptions o;
  o.objective = explore::Objective::kViolation;
  o.algorithms = {Algorithm::kAbd};
  o.fault_menu = true;
  o.process_counts = {3};
  o.search_budget = 8;
  o.seed_begin = 0;
  o.seed_end = 6;
  o.threads = 2;
  ASSERT_GT(run_explore(o).blocked_found, 0u);
  expect_merge_identity(o, 3, "explore", run_explore_into);
}

// Each kind's merge reads back the digest fields its writer persists: a
// shard record missing one fails the merge, naming the store.
template <typename Options, typename RunFn>
void expect_missing_field_rejected(Options o, const std::string& field,
                                   RunFn run) {
  std::vector<ShardStore> stores;
  for (std::uint32_t i = 0; i < 2; ++i) {
    o.shard = ShardSpec{i, 2};
    StringSink s;
    (void)run(o, &s);
    stores.push_back({"k" + std::to_string(i) + ".jsonl", s.text()});
  }
  // Drop `"<field>":<value>,` from shard 1's first scenario record.
  std::string& text = stores[1].content;
  const std::size_t at = text.find("\"" + field + "\":");
  ASSERT_NE(at, std::string::npos) << field;
  text.erase(at, text.find(',', at) + 1 - at);
  try {
    (void)merge_shard_stores(stores);
    ADD_FAILURE() << "merge accepted a record without " << field;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("k1.jsonl"), std::string::npos)
        << e.what();
  }
}

TEST(ShardMergeRecords, SafetyRecordWithoutDigestFieldIsRejected) {
  SweepOptions o;
  o.seed_begin = 0;
  o.seed_end = 2;
  expect_missing_field_rejected(o, "history_hash",
                                [](const SweepOptions& opts,
                                   RecordSink* sink) {
                                  return run_sweep(opts, 0, sink);
                                });
}

TEST(ShardMergeRecords, TermRecordWithoutDigestFieldIsRejected) {
  term::TermSweepOptions o;
  o.seed_begin = 0;
  o.seed_end = 2;
  expect_missing_field_rejected(o, "outcome_hash",
                                [](const term::TermSweepOptions& opts,
                                   RecordSink* sink) {
                                  return run_term_sweep(opts, 0, sink);
                                });
}

TEST(ShardMergeRecords, TermRecordWithIntFieldPastIntMaxIsRejected) {
  // 2^32 + v wraps to v as an int, so without the bound the edited store
  // would still match its trailer digest and merge like the clean one.
  term::TermSweepOptions o;
  o.families = {term::Family::kSharedCoin};
  o.adversaries = {term::TermAdversary::kRandom};
  o.process_counts = {2};
  o.round_budgets = {4};
  o.seed_end = 20;
  for (const auto& [from, to] :
       {std::pair<std::string, std::string>{"\"rounds\":3,",
                                            "\"rounds\":4294967299,"},
        {"\"stalled\":0,", "\"stalled\":4294967296,"}}) {
    std::vector<ShardStore> stores;
    for (std::uint32_t i = 0; i < 2; ++i) {
      o.shard = ShardSpec{i, 2};
      StringSink s;
      (void)run_term_sweep(o, 0, &s);
      stores.push_back({"k" + std::to_string(i) + ".jsonl", s.text()});
    }
    std::string& text = stores[1].content;
    const std::size_t at = text.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    text.replace(at, from.size(), to);
    try {
      (void)merge_shard_stores(stores);
      ADD_FAILURE() << "merge accepted " << to;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("k1.jsonl"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ShardMergeRecords, ExploreRecordWithoutDigestFieldIsRejected) {
  explore::ExploreOptions o;
  o.seed_begin = 0;
  o.seed_end = 2;
  o.search_budget = 2;
  o.round_budgets = {4};
  expect_missing_field_rejected(o, "trace_fnv", run_explore_into);
}

// ------------------------------------------------------- loud rejection ---

class ShardMergeRejection : public ::testing::Test {
 protected:
  // Three shard stores of one small safety sweep, built once.
  static std::vector<ShardStore> make_stores() {
    std::vector<ShardStore> stores;
    for (std::uint32_t i = 0; i < 3; ++i) {
      SweepOptions o;
      o.seed_begin = 0;
      o.seed_end = 3;
      o.shard = ShardSpec{i, 3};
      StringSink s;
      (void)run_sweep(o, 0, &s);
      stores.push_back({"s" + std::to_string(i) + ".jsonl", s.text()});
    }
    return stores;
  }

  static std::string merge_error(const std::vector<ShardStore>& stores) {
    try {
      (void)merge_shard_stores(stores);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  }
};

TEST_F(ShardMergeRejection, MissingShardNamesTheHole) {
  auto stores = make_stores();
  stores.erase(stores.begin() + 2);
  const std::string err = merge_error(stores);
  EXPECT_NE(err.find("missing shard 2/3"), std::string::npos) << err;
}

TEST_F(ShardMergeRejection, DuplicateShardNamesBothFiles) {
  auto stores = make_stores();
  stores[2] = stores[1];
  const std::string err = merge_error(stores);
  EXPECT_NE(err.find("duplicate shard 1/3"), std::string::npos) << err;
  EXPECT_NE(err.find("s1.jsonl"), std::string::npos) << err;
}

TEST_F(ShardMergeRejection, ConfigMismatchIsRejected) {
  auto stores = make_stores();
  SweepOptions other;
  other.seed_begin = 0;
  other.seed_end = 7;  // Different cross-product: different config key.
  other.shard = ShardSpec{2, 3};
  StringSink s;
  (void)run_sweep(other, 0, &s);
  stores[2] = {"s2.jsonl", s.text()};
  const std::string err = merge_error(stores);
  EXPECT_FALSE(err.empty());
}

TEST_F(ShardMergeRejection, TamperedRecordFailsTheTrailerDigest) {
  auto stores = make_stores();
  // Flip a digit inside the first scenario record's steps count.
  std::string& text = stores[1].content;
  const auto pos = text.find("\"steps\":");
  ASSERT_NE(pos, std::string::npos);
  char& digit = text[pos + 8];
  digit = digit == '9' ? '8' : static_cast<char>(digit + 1);
  const std::string err = merge_error(stores);
  EXPECT_NE(err.find("digest"), std::string::npos) << err;
}

TEST_F(ShardMergeRejection, WellFormedMessageFieldEditFailsTheTrailerBytes) {
  // No digest covers message accounting, so only the trailer's "bytes"
  // sees a well-formed edit of it.
  auto stores = make_stores();
  std::string& text = stores[1].content;
  const auto pos = text.find("\"delivered\":");
  ASSERT_NE(pos, std::string::npos);
  text.insert(pos + 12, "1");
  const std::string err = merge_error(stores);
  EXPECT_NE(err.find("s1.jsonl: trailer bytes digest mismatch"),
            std::string::npos)
      << err;
}

TEST_F(ShardMergeRejection, UnshardedStoreIsNotAShardStore) {
  SweepOptions o;
  o.seed_begin = 0;
  o.seed_end = 2;
  StringSink s;
  (void)run_sweep(o, 0, &s);
  const std::string err = merge_error({{"plain.jsonl", s.text()}});
  EXPECT_NE(err.find("not a shard store"), std::string::npos) << err;
}

TEST_F(ShardMergeRejection, EmptyShardSetIsRejected) {
  const std::string err = merge_error({});
  EXPECT_FALSE(err.empty());
}

// ---------------------------------------------------- store field reader ---

TEST(StoreFieldReader, RoundTripsRecordsAndRejectsOverflow) {
  const std::string detail = std::string("say \"hi\" \\ a\nb") + '\x01' + "!";
  Record r;
  r.str("detail", detail)
      .u64("gi", UINT64_MAX)
      .hex("digest", 0xfedcba9876543210ULL)
      .boolean("ok", true);
  const std::string line = r.json();
  RecordReader in(line);
  EXPECT_EQ(in.str("detail"), detail);
  EXPECT_EQ(in.u64("gi"), UINT64_MAX);
  EXPECT_EQ(in.hex("digest"), 0xfedcba9876543210ULL);
  EXPECT_EQ(in.boolean("ok"), true);
  EXPECT_TRUE(in.ok()) << in.failed_field();
  // Fields are read in the order they were written: one that is not
  // next fails the line, and so does every read after it.
  RecordReader missing(line);
  EXPECT_FALSE(missing.at("missing"));
  EXPECT_EQ(missing.u64("missing"), 0u);
  EXPECT_EQ(missing.str("detail"), "");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.failed_field(), "missing");
  // Store files are outside input: a value that does not fit in 64 bits
  // is rejected, never wrapped (2^64 used to read as 0) or truncated (a
  // 17th hex digit used to drop the top one).
  const std::string wide_gi = R"({"gi":18446744073709551616})";
  RecordReader gi(wide_gi);
  (void)gi.u64("gi");
  EXPECT_FALSE(gi.ok());
  const std::string wide_digest = R"({"digest":"0x1fedcba9876543210"})";
  RecordReader digest(wide_digest);
  (void)digest.hex("digest");
  EXPECT_FALSE(digest.ok());
}

// The blessed store (tools/bless_store.sh) holds every kind of record a
// sweep writes; each scenario record reads back through its own fold.
TEST(BlessedStore, EveryScenarioRecordReadsBack) {
  std::ifstream in(RLT_BLESSED_STORE);
  ASSERT_TRUE(in) << RLT_BLESSED_STORE;
  SweepFold safety;
  term::TermFold term;
  explore::ExploreFold explore;
  std::map<std::string, int> modes;
  for (std::string line; std::getline(in, line);) {
    RecordReader head(line);
    if (head.at("gi")) (void)head.u64("gi");
    (void)head.str("key");
    const std::string mode = head.str("mode");
    ASSERT_TRUE(head.ok()) << line;
    ++modes[mode];
    if (mode == "safety") {
      EXPECT_TRUE(safety.add_record(line)) << line;
    } else if (mode == "term") {
      EXPECT_TRUE(term.add_record(line)) << line;
    } else if (mode == "explore") {
      EXPECT_TRUE(explore.add_record(line)) << line;
      std::string error;
      EXPECT_TRUE(explore::parse_explore_record(line, &error)) << error;
    }
  }
  const std::map<std::string, int> want = {
      {"safety", 560}, {"term", 100}, {"term-hist", 4}, {"explore", 10}};
  EXPECT_EQ(modes, want);
}

}  // namespace
}  // namespace rlt::sweep
