// The persisted per-scenario result store.
//
// A sweep (safety, termination or exploration) can stream one flat record
// per scenario into a `RecordSink`.  Records are appended in scenario-
// enumeration order by the deterministic fold, which runs while later
// scenarios are still in flight (sweep/engine.hpp) — so a store's bytes
// are a pure function of the sweep options: byte-identical across runs
// and thread counts.  That property is what makes two stores diffable
// across commits (`tools/sweep_diff.py`): a changed line means scenario
// behaviour changed, not scheduling.
//
// Serialization is canonical JSONL: one JSON object per line, fields in
// the exact order the producer added them, no whitespace, strings
// escaped per RFC 8259 (control characters as \u00XX).  Every record
// carries a unique "key" field — the scenario key — which diff tooling
// uses as the join column.
//
// Stores are read back one way (--merge, --replay): a RecordReader reads
// the fields in order, and a line is valid iff its writer renders the
// values read back to exactly its bytes (sweep/engine.hpp, shard.hpp).
#pragma once

#include <charconv>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace rlt::sweep {

/// One flat record under construction.  Field order is insertion order;
/// the producer is responsible for a stable field set per record kind.
class Record {
 public:
  Record& str(std::string_view field, std::string_view value);
  Record& u64(std::string_view field, std::uint64_t value);
  Record& hex(std::string_view field, std::uint64_t value);  ///< "0x…" string
  Record& boolean(std::string_view field, bool value);

  /// The closed single-line JSON object (no trailing newline).
  [[nodiscard]] std::string json() const;

 private:
  void begin_field(std::string_view field);
  std::string body_;  ///< Accumulated `"a":1,"b":"x"` payload.
};

/// Escapes `s` as a JSON string literal (including the quotes).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Appends integer `v` to `out` in decimal, as `std::ostream` spells it.
template <class Int>
void append_decimal(std::string& out, Int v) {
  char buf[20];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// Spells one list axis of a config key: `items` joined by commas, each
/// in decimal or through the to_string of its own namespace.
template <class T>
[[nodiscard]] std::string comma_list(const std::vector<T>& items) {
  std::string out;
  for (const T& item : items) {
    if (!out.empty()) out += ',';
    if constexpr (std::is_arithmetic_v<T>) {
      out += std::to_string(item);
    } else {
      out += to_string(item);
    }
  }
  return out;
}

/// Reads a record line back field by field, in the order `Record` wrote
/// them.  Each read expects `field` next; the first that is absent,
/// malformed or (a number) wider than 64 bits fails the line: it and
/// every later read return zero values, and ok() turns false.  Whether
/// a line is valid is its writer's call (file comment), so the reader
/// checks no ranges of its own.
class RecordReader {
 public:
  /// Keeps a view of `line`, so a temporary cannot bind.
  explicit RecordReader(const std::string& line) : line_(line) {}
  explicit RecordReader(std::string&&) = delete;

  /// True when `field` is next and no read has failed.
  [[nodiscard]] bool at(std::string_view field) const;
  [[nodiscard]] std::string str(std::string_view field);
  [[nodiscard]] std::uint64_t u64(std::string_view field);
  [[nodiscard]] std::uint64_t hex(std::string_view field);
  [[nodiscard]] bool boolean(std::string_view field);

  [[nodiscard]] bool ok() const noexcept { return pos_ != kFailed; }
  /// The first field that failed ("" while ok()).
  [[nodiscard]] const std::string& failed_field() const { return failed_; }

 private:
  static constexpr std::size_t kFailed = std::string_view::npos;
  /// Where `field`'s value starts if it is next; else kFailed.
  [[nodiscard]] std::size_t value_at(std::string_view field) const;
  void fail(std::string_view field);

  std::string_view line_;
  std::size_t pos_ = 0;  ///< Past the last value read, or kFailed.
  std::string failed_;
};

/// The enumerator among `all` that `to_string` spells `name`, else the
/// first: a line naming none then fails its render-back check.
template <class E>
[[nodiscard]] E spelled(std::string_view name, std::initializer_list<E> all) {
  for (const E e : all) {
    if (name == to_string(e)) return e;
  }
  return *all.begin();
}

/// Where per-scenario records go.  `append` is called in enumeration
/// order, exactly once per scenario, one call at a time — possibly while
/// later scenarios are still running.  An exception from `append` stops
/// the sweep and is rethrown by the run_* call.
class RecordSink {
 public:
  virtual ~RecordSink() = default;
  virtual void append(const Record& r) = 0;
};

/// Collects the store in memory (tests: byte-stability assertions).
class StringSink final : public RecordSink {
 public:
  void append(const Record& r) override { text_ += r.json() += '\n'; }
  [[nodiscard]] const std::string& text() const noexcept { return text_; }

 private:
  std::string text_;
};

/// Writes the store to a file, one record per line.  Throws
/// std::runtime_error if the file cannot be opened; `close()` flushes
/// and throws on write failure (call it before trusting the store).
class JsonlFileSink final : public RecordSink {
 public:
  explicit JsonlFileSink(const std::string& path);
  void append(const Record& r) override;
  void close();

 private:
  std::string path_;
  std::ofstream out_;
};

}  // namespace rlt::sweep
