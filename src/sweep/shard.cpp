#include "sweep/shard.hpp"

#include <stdexcept>

#include "explore/explore.hpp"
#include "sweep/fnv.hpp"
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
                            std::uint64_t partial_digest,
                            std::uint64_t bytes) {
  Record rec;
  rec.str("key", "shard-end/" + shard.to_string())
      .str("mode", "shard-end")
      .u64("index", shard.index)
      .u64("count", shard.count)
      .u64("records", records)
      .hex("digest", partial_digest)
      .hex("bytes", bytes);
  return rec;
}

// ---- merge: parse shard stores, re-fold in global order -----------------
//
// Each sweep's fold reads back its own mode's records (add_record); this
// file reads only the shard brackets, the same way.

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
  RecordReader h(header);
  (void)h.str("key");
  if (h.str("mode") != "shard") {
    throw std::runtime_error(p.name + ": not a shard store (first line is "
                                      "not a shard header; was the sweep "
                                      "run with --shard?)");
  }
  p.kind = h.str("kind");
  p.config = h.str("config");
  p.spec.index = static_cast<std::uint32_t>(h.u64("index"));
  p.spec.count = static_cast<std::uint32_t>(h.u64("count"));
  p.total = h.u64("total");
  const std::uint64_t records = h.u64("records");
  if (!h.ok() ||
      shard_header_record(p.kind, p.spec, p.config, p.total, records)
              .json() != header) {
    throw std::runtime_error(p.name + ": malformed shard header");
  }
  if (p.kind != "safety" && p.kind != "term" && p.kind != "explore") {
    throw std::runtime_error(p.name + ": unknown sweep kind \"" + p.kind +
                             "\"");
  }
  if (p.spec.count < 2 || p.spec.index >= p.spec.count) {
    throw std::runtime_error(p.name + ": shard header index/count out of "
                                      "range");
  }
  const std::string& trailer = lines.back();
  RecordReader t(trailer);
  (void)t.str("key");
  if (t.str("mode") != "shard-end") {
    throw std::runtime_error(p.name + ": shard trailer missing (truncated "
                                      "store?)");
  }
  // Its shard and record count are the header's.
  (void)t.u64("index");
  (void)t.u64("count");
  (void)t.u64("records");
  p.trailer_digest = t.hex("digest");
  const std::uint64_t t_bytes = t.hex("bytes");
  if (!t.ok() || shard_trailer_record(p.spec, records, p.trailer_digest,
                                      t_bytes)
                         .json() != trailer) {
    throw std::runtime_error(p.name + ": malformed shard trailer, or not "
                                      "the header's shard and count");
  }
  std::uint64_t bytes = kFnvOffset;
  for (std::size_t i = 1; i + 1 < lines.size(); ++i) {
    RecordReader r(lines[i]);
    if (!r.at("gi")) {
      // Per-shard term-hist partials are for eyeballing one slice; the
      // merge recomputes the global ones.
      (void)r.str("key");
      if (r.str("mode") == "term-hist" && r.ok()) continue;
      throw std::runtime_error(p.name + ": record without a global index: " +
                               lines[i].substr(0, 96));
    }
    p.gis.push_back(r.u64("gi"));
    p.lines.push_back(lines[i]);
    fnv_mix_line(bytes, lines[i]);
  }
  if (p.lines.size() != records) {
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
  if (bytes != t_bytes) {
    throw std::runtime_error(p.name + ": trailer bytes digest mismatch");
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
