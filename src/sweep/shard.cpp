#include "sweep/shard.hpp"

#include <stdexcept>

#include "explore/explore.hpp"
#include "sweep/sweep.hpp"
#include "term/term_sweep.hpp"

namespace rlt::sweep {

std::string ShardSpec::to_string() const {
  return std::to_string(index) + "/" + std::to_string(count);
}

std::optional<ShardSpec> parse_shard(const std::string& text) {
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= text.size()) {
    return std::nullopt;
  }
  const auto parse_u32 = [](const std::string& s) -> std::optional<std::uint32_t> {
    if (s.empty() || s.size() > 9) return std::nullopt;
    std::uint32_t v = 0;
    for (const char c : s) {
      if (c < '0' || c > '9') return std::nullopt;
      v = v * 10 + static_cast<std::uint32_t>(c - '0');
    }
    return v;
  };
  const auto index = parse_u32(text.substr(0, slash));
  const auto count = parse_u32(text.substr(slash + 1));
  if (!index || !count) return std::nullopt;
  if (*count == 0 || *index >= *count) return std::nullopt;
  return ShardSpec{*index, *count};
}

Record shard_header_record(const std::string& kind, const ShardSpec& shard,
                           const std::string& config, std::uint64_t total,
                           std::uint64_t records) {
  Record rec;
  rec.str("key", "shard/" + shard.to_string())
      .str("mode", "shard")
      .str("kind", kind)
      .str("config", config)
      .u64("index", shard.index)
      .u64("count", shard.count)
      .u64("total", total)
      .u64("records", records);
  return rec;
}

Record shard_trailer_record(const ShardSpec& shard, std::uint64_t records,
                            std::uint64_t partial_digest) {
  Record rec;
  rec.str("key", "shard-end/" + shard.to_string())
      .str("mode", "shard-end")
      .u64("index", shard.index)
      .u64("count", shard.count)
      .u64("records", records)
      .hex("digest", partial_digest);
  return rec;
}

// ---- merge: parse shard stores, re-fold in global order -----------------
//
// Each sweep's fold reads back its own mode's records (add_record); this
// file parses only the shard bracket.

namespace {

/// One shard store, parsed and validated in isolation.
struct ParsedShard {
  std::string name;
  ShardSpec spec;
  std::string kind;
  std::string config;
  std::uint64_t total = 0;
  std::uint64_t trailer_digest = 0;
  std::vector<std::string> lines;  ///< Scenario records, verbatim.
  std::vector<std::uint64_t> gis;
};

ParsedShard parse_store(const ShardStore& in) {
  ParsedShard p;
  p.name = in.name;
  std::vector<std::string> lines;
  std::size_t begin = 0;
  while (begin < in.content.size()) {
    std::size_t end = in.content.find('\n', begin);
    if (end == std::string::npos) end = in.content.size();
    if (end > begin) lines.push_back(in.content.substr(begin, end - begin));
    begin = end + 1;
  }
  if (lines.size() < 2) {
    throw std::runtime_error(p.name + ": not a shard store (expected a "
                                      "shard header and trailer line)");
  }
  const std::string& header = lines.front();
  if (field_str(header, "mode") != std::optional<std::string>("shard")) {
    throw std::runtime_error(p.name + ": not a shard store (first line is "
                                      "not a shard header; was the sweep "
                                      "run with --shard?)");
  }
  const auto kind = field_str(header, "kind");
  const auto config = field_str(header, "config");
  const auto index = field_u64(header, "index");
  const auto count = field_u64(header, "count");
  const auto total = field_u64(header, "total");
  const auto records = field_u64(header, "records");
  if (!kind || !config || !index || !count || !total || !records) {
    throw std::runtime_error(p.name + ": malformed shard header");
  }
  if (*kind != "safety" && *kind != "term" && *kind != "explore") {
    throw std::runtime_error(p.name + ": unknown sweep kind \"" + *kind +
                             "\"");
  }
  if (*count < 2 || *count > 0xffffffffu || *index >= *count) {
    throw std::runtime_error(p.name + ": shard header index/count out of "
                                      "range");
  }
  p.spec.index = static_cast<std::uint32_t>(*index);
  p.spec.count = static_cast<std::uint32_t>(*count);
  p.kind = *kind;
  p.config = *config;
  p.total = *total;
  const std::string& trailer = lines.back();
  if (field_str(trailer, "mode") != std::optional<std::string>("shard-end")) {
    throw std::runtime_error(p.name + ": shard trailer missing (truncated "
                                      "store?)");
  }
  const auto t_index = field_u64(trailer, "index");
  const auto t_count = field_u64(trailer, "count");
  const auto t_records = field_u64(trailer, "records");
  const auto t_digest = field_hex(trailer, "digest");
  if (!t_index || !t_count || !t_records || !t_digest) {
    throw std::runtime_error(p.name + ": malformed shard trailer");
  }
  if (*t_index != *index || *t_count != *count) {
    throw std::runtime_error(p.name + ": shard trailer identity disagrees "
                                      "with the header");
  }
  p.trailer_digest = *t_digest;
  for (std::size_t i = 1; i + 1 < lines.size(); ++i) {
    const auto mode = field_str(lines[i], "mode");
    if (!mode) {
      throw std::runtime_error(p.name + ": record without a mode field: " +
                               lines[i].substr(0, 96));
    }
    // Per-shard term-hist partials are a convenience for eyeballing one
    // slice; the merge recomputes the global ones from scenario records.
    if (*mode == "term-hist") continue;
    if (*mode == "shard" || *mode == "shard-end") {
      throw std::runtime_error(p.name + ": unexpected nested shard "
                                        "header/trailer");
    }
    const auto gi = field_u64(lines[i], "gi");
    if (!gi) {
      throw std::runtime_error(p.name + ": record without a global index: " +
                               lines[i].substr(0, 96));
    }
    p.lines.push_back(lines[i]);
    p.gis.push_back(*gi);
  }
  if (p.lines.size() != *records || *t_records != *records) {
    throw std::runtime_error(
        p.name + ": record count disagrees with header/trailer (store "
                 "truncated or concatenated?)");
  }
  // Complete per-shard coverage: record j must sit at global index
  // index + j·count — anything else is a gap, overlap, or reordering.
  for (std::size_t j = 0; j < p.gis.size(); ++j) {
    const std::uint64_t expect =
        p.spec.index + static_cast<std::uint64_t>(j) * p.spec.count;
    if (p.gis[j] != expect) {
      throw std::runtime_error(
          p.name + ": global-index coverage broken at record " +
          std::to_string(j) + " (expected gi " + std::to_string(expect) +
          ", found " + std::to_string(p.gis[j]) + ")");
    }
  }
  if (p.lines.size() != p.spec.share(p.total)) {
    throw std::runtime_error(
        p.name + ": record count " + std::to_string(p.lines.size()) +
        " is not shard " + p.spec.to_string() + "'s share of " +
        std::to_string(p.total) + " scenarios");
  }
  return p;
}

/// Folds one shard's record into `fold`, naming the store on a malformed
/// record.
template <class Fold>
void add_line(Fold& fold, const ParsedShard& s, const std::string& line) {
  if (!fold.add_record(line)) {
    throw std::runtime_error(s.name + ": malformed " + s.kind +
                             " record: " + line.substr(0, 96));
  }
}

/// The merge proper, over the kind's fold: every shard's records must
/// reproduce its own trailer digest — a tampered or bit-rotted store
/// fails here, before it can poison the merged aggregate — and then the
/// records re-fold in global enumeration order (gi g lives in shard
/// g mod N) into the store and summary the unsharded run writes, byte
/// for byte.
template <class Fold>
MergeResult refold(const std::vector<ParsedShard>& shards,
                   const std::vector<const ParsedShard*>& by_index) {
  for (const ParsedShard& s : shards) {
    Fold partial;
    for (const std::string& line : s.lines) add_line(partial, s, line);
    if (partial.finish(nullptr).digest != s.trailer_digest) {
      throw std::runtime_error(s.name + ": trailer digest mismatch (the "
                                        "records do not reproduce the "
                                        "digest the shard recorded)");
    }
  }
  const ParsedShard& ref = shards.front();
  const std::uint32_t count = ref.spec.count;
  MergeResult out;
  out.kind = ref.kind;
  out.shards = count;
  out.records = ref.total;
  Fold global;
  std::vector<std::size_t> cursor(count, 0);
  for (std::uint64_t gi = 0; gi < ref.total; ++gi) {
    const ParsedShard& s = *by_index[gi % count];
    const std::string& line = s.lines[cursor[gi % count]++];
    add_line(global, s, line);
    out.store += line;
    out.store += '\n';
  }
  StringSink tail;
  const auto sum = global.finish(&tail);
  out.store += tail.text();
  out.stable_text = sum.stable_text();
  out.digest = sum.digest;
  out.failed = sum.failed();
  return out;
}

}  // namespace

MergeResult merge_shard_stores(const std::vector<ShardStore>& stores) {
  if (stores.empty()) {
    throw std::runtime_error("merge: no shard stores given");
  }
  std::vector<ParsedShard> shards;
  shards.reserve(stores.size());
  for (const ShardStore& s : stores) shards.push_back(parse_store(s));

  const ParsedShard& ref = shards.front();
  for (const ParsedShard& s : shards) {
    if (s.kind != ref.kind) {
      throw std::runtime_error(s.name + ": sweep kind \"" + s.kind +
                               "\" does not match " + ref.name + " (\"" +
                               ref.kind + "\")");
    }
    if (s.spec.count != ref.spec.count) {
      throw std::runtime_error(s.name + ": shard count " +
                               std::to_string(s.spec.count) +
                               " does not match " + ref.name + " (" +
                               std::to_string(ref.spec.count) + ")");
    }
    if (s.config != ref.config) {
      throw std::runtime_error(s.name + ": sweep config\n  " + s.config +
                               "\ndoes not match " + ref.name + "\n  " +
                               ref.config);
    }
    if (s.total != ref.total) {
      throw std::runtime_error(s.name + ": cross-product size " +
                               std::to_string(s.total) +
                               " does not match " + ref.name + " (" +
                               std::to_string(ref.total) + ")");
    }
  }
  const std::uint32_t count = ref.spec.count;
  std::vector<const ParsedShard*> by_index(count, nullptr);
  for (const ParsedShard& s : shards) {
    const ParsedShard*& slot = by_index[s.spec.index];
    if (slot != nullptr) {
      throw std::runtime_error("duplicate shard " + s.spec.to_string() +
                               ": " + slot->name + " and " + s.name);
    }
    slot = &s;
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    if (by_index[i] == nullptr) {
      throw std::runtime_error(
          "missing shard " + std::to_string(i) + "/" +
          std::to_string(count) + ": no store covers global indices " +
          std::to_string(i) + ", " + std::to_string(i + count) + ", " +
          std::to_string(i + 2ull * count) + ", …");
    }
  }

  if (ref.kind == "safety") return refold<SweepFold>(shards, by_index);
  if (ref.kind == "term") return refold<term::TermFold>(shards, by_index);
  return refold<explore::ExploreFold>(shards, by_index);
}

}  // namespace rlt::sweep
