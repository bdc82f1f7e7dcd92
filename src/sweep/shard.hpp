// The distributed-sweep shard fabric.
//
// Any sweep in this repo — the safety cross-product (src/sweep/), the
// termination lab (src/term/), the exploration lab (src/explore/) — can
// be partitioned into N independent slices and run as N separate
// processes (or machines), then merged back into the *exact* store and
// aggregate digest an unsharded run would have produced:
//
//     run(shard 0/N) + run(1/N) + … + run(N-1/N) + merge  ≡  run(1/1)
//
// byte-for-byte.  Three pieces make that an identity rather than an
// approximation:
//
//  1. `ShardSpec` partitions the scenario cross-product by GLOBAL
//     ENUMERATION INDEX (round robin: shard i owns index g iff
//     g % N == i).  The global index of a scenario is a pure function of
//     the sweep options — it does not depend on the shard count — so
//     every store record can carry its index ("gi") and a merge can
//     reconstitute enumeration order mechanically, whatever N was.
//     Seeds are the outermost enumeration axis, so round robin also
//     spreads every config across all shards (balanced slices).
//
//  2. Each sweep's aggregate folds through a composable fold object
//     (SweepFold / TermFold / ExploreFold, declared next to their
//     summaries) that folds its mode's own results and reads back its
//     mode's own records (add_record): every field, accepting a line
//     only if the mode's writer renders it back to exactly its bytes.
//     A shard store therefore *is* the serialized fold partial: the
//     merge re-folds the records in global order and lands on the
//     identical digest, counters, failure list, and "... and N more"
//     truncation marker the unsharded fold computes.
//
//  3. A sharded store brackets its records with a header and a trailer
//     line (written only when N > 1, so unsharded stores keep their
//     historical bytes), read back the same way: the header pins the
//     shard's identity, the sweep kind, a canonical config key, and the
//     cross-product size; the trailer repeats the record count, the
//     shard's partial digest, and "bytes", the FNV-1a of its record
//     lines, which alone sees a well-formed edit of a field no digest
//     covers.  `merge_shard_stores` validates all of it — same config
//     everywhere, every shard 0..N-1 present exactly once, no gaps or
//     overlaps in the global-index coverage, every trailer reproduced
//     from the records — and fails loudly (naming the missing or
//     duplicated shard) on any hole, because a silently incomplete
//     billion-scenario sweep is worse than none.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sweep/store.hpp"

namespace rlt::sweep {

/// Which slice of the cross-product this process runs: shard `index` of
/// `count` owns every scenario whose global enumeration index is
/// congruent to `index` mod `count`.  The default (1 shard) is the
/// classic unsharded sweep.
struct ShardSpec {
  std::uint32_t index = 0;
  std::uint32_t count = 1;

  [[nodiscard]] bool active() const noexcept { return count > 1; }
  [[nodiscard]] bool owns(std::uint64_t global_index) const noexcept {
    return global_index % count == index;
  }
  /// Scenarios this shard owns out of a `total`-scenario cross-product.
  [[nodiscard]] std::uint64_t share(std::uint64_t total) const noexcept {
    return total / count + (total % count > index ? 1 : 0);
  }
  /// "index/count", e.g. "2/4" — the CLI spelling.
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const ShardSpec&, const ShardSpec&) = default;
};

/// Parses the CLI spelling "i/N".  Rejects (nullopt) N == 0, i >= N,
/// and anything that is not two plain decimal integers around one '/'.
[[nodiscard]] std::optional<ShardSpec> parse_shard(const std::string& text);

/// The shard-store header line.  `kind` is "safety", "term", or
/// "explore"; `config` is the sweep's canonical config key (every shard
/// of one logical sweep must agree on it); `total` the full
/// cross-product size; `records` how many scenario records follow.
[[nodiscard]] Record shard_header_record(const std::string& kind,
                                         const ShardSpec& shard,
                                         const std::string& config,
                                         std::uint64_t total,
                                         std::uint64_t records);

/// The shard-store trailer line: record count again (a truncated file
/// cannot pass), the shard's partial digest over its own records, and
/// `bytes`, the FNV-1a of its scenario record lines, newlines included.
[[nodiscard]] Record shard_trailer_record(const ShardSpec& shard,
                                          std::uint64_t records,
                                          std::uint64_t partial_digest,
                                          std::uint64_t bytes);

/// One shard store to merge: `name` labels error messages (the file
/// path at the CLI, a test label in unit tests), `content` is the full
/// store text.
struct ShardStore {
  std::string name;
  std::string content;
};

/// What a merge reconstitutes.  `store` is byte-identical to the --out
/// store of the equivalent unsharded run; `stable_text` and `digest`
/// are byte-identical to that run's deterministic summary section.
struct MergeResult {
  std::string kind;         ///< "safety" | "term" | "explore".
  std::uint32_t shards = 0; ///< Shard count N.
  std::uint64_t records = 0;///< Scenario records merged (= total).
  std::string store;        ///< Merged canonical JSONL.
  std::string stable_text;  ///< Reconstituted aggregate summary.
  std::uint64_t digest = 0; ///< The aggregate digest (== unsharded).
  /// The merged summary's failed(): the unsharded run's exit rule.
  /// Validation problems throw instead.
  bool failed = false;
};

/// Merges a complete set of shard stores back into the unsharded store
/// + summary.  Throws std::runtime_error (with the offending shard
/// named) on: a store without a shard header, a line that does not
/// render back to its own bytes, mismatched kind/config/count/total, a
/// duplicated or missing shard index, global-index gaps or overlaps,
/// record counts disagreeing with header/trailer, or a trailer digest
/// or "bytes" the records do not reproduce.
[[nodiscard]] MergeResult merge_shard_stores(
    const std::vector<ShardStore>& stores);

}  // namespace rlt::sweep
