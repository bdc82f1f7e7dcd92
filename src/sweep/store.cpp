#include "sweep/store.hpp"

#include <cstdio>
#include <stdexcept>

namespace rlt::sweep {

namespace {

/// Appends `s` to `out` as a JSON string literal: runs of characters
/// that need no escape are copied whole.
void escape_into(std::string& out, std::string_view s) {
  out += '"';
  std::size_t copied = 0;  // s[0, copied) is already in `out`
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s, copied, i - copied);
    copied = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
        out += buf;
      }
    }
  }
  out.append(s, copied);
  out += '"';
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  escape_into(out, s);
  return out;
}

namespace {

/// 0–15 for a hex digit (lowercase, or either case if `upper_ok`), else -1.
int hex_digit(char c, bool upper_ok) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (upper_ok && c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::optional<std::string> field_str(const std::string& line,
                                     const std::string& name) {
  const std::string needle = "\"" + name + "\":\"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return std::nullopt;
  std::string out;
  std::size_t i = at + needle.size();
  while (i < line.size()) {
    const char c = line[i];
    if (c == '"') return out;
    if (c != '\\') {
      out += c;
      ++i;
      continue;
    }
    if (i + 1 >= line.size()) return std::nullopt;
    switch (line[i + 1]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        if (i + 5 >= line.size()) return std::nullopt;
        unsigned v = 0;
        for (std::size_t k = i + 2; k < i + 6; ++k) {
          const int d = hex_digit(line[k], /*upper_ok=*/true);
          if (d < 0) return std::nullopt;
          v = (v << 4) | static_cast<unsigned>(d);
        }
        // The writer only \u-escapes control characters; anything wider
        // is not a record this repo produced.
        if (v > 0xFF) return std::nullopt;
        out += static_cast<char>(v);
        i += 4;
        break;
      }
      default: return std::nullopt;
    }
    i += 2;
  }
  return std::nullopt;
}

std::optional<std::uint64_t> field_u64(const std::string& line,
                                       const std::string& name) {
  const std::string needle = "\"" + name + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return std::nullopt;
  std::size_t i = at + needle.size();
  if (i >= line.size() || line[i] < '0' || line[i] > '9') return std::nullopt;
  std::uint64_t v = 0;
  for (; i < line.size() && line[i] >= '0' && line[i] <= '9'; ++i) {
    const auto d = static_cast<std::uint64_t>(line[i] - '0');
    if (v > (UINT64_MAX - d) / 10) return std::nullopt;
    v = v * 10 + d;
  }
  return v;
}

std::optional<bool> field_bool(const std::string& line,
                               const std::string& name) {
  const std::string needle = "\"" + name + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return std::nullopt;
  const std::size_t i = at + needle.size();
  if (line.compare(i, 4, "true") == 0) return true;
  if (line.compare(i, 5, "false") == 0) return false;
  return std::nullopt;
}

std::optional<std::uint64_t> field_hex(const std::string& line,
                                       const std::string& name) {
  const auto s = field_str(line, name);
  if (!s || s->size() < 3 || s->compare(0, 2, "0x") != 0) return std::nullopt;
  std::uint64_t v = 0;
  for (std::size_t i = 2; i < s->size(); ++i) {
    const int d = hex_digit((*s)[i], /*upper_ok=*/false);
    if (d < 0 || (v >> 60) != 0) return std::nullopt;
    v = (v << 4) | static_cast<std::uint64_t>(d);
  }
  return v;
}

void Record::begin_field(std::string_view field) {
  if (!body_.empty()) body_ += ',';
  escape_into(body_, field);
  body_ += ':';
}

Record& Record::str(std::string_view field, std::string_view value) {
  begin_field(field);
  escape_into(body_, value);
  return *this;
}

Record& Record::u64(std::string_view field, std::uint64_t value) {
  begin_field(field);
  append_decimal(body_, value);
  return *this;
}

Record& Record::hex(std::string_view field, std::uint64_t value) {
  char buf[18] = {'0', 'x'};
  for (int i = 0; i < 16; ++i) {
    buf[2 + i] = "0123456789abcdef"[(value >> (60 - 4 * i)) & 0xF];
  }
  return str(field, {buf, sizeof buf});
}

Record& Record::boolean(std::string_view field, bool value) {
  begin_field(field);
  body_ += value ? "true" : "false";
  return *this;
}

std::string Record::json() const {
  std::string out;
  out.reserve(body_.size() + 2);
  out += '{';
  out += body_;
  out += '}';
  return out;
}

JsonlFileSink::JsonlFileSink(const std::string& path)
    : path_(path), out_(path, std::ios::out | std::ios::trunc) {
  if (!out_) {
    throw std::runtime_error("cannot open result store '" + path +
                             "' for writing");
  }
}

void JsonlFileSink::append(const Record& r) { out_ << r.json() << '\n'; }

void JsonlFileSink::close() {
  out_.flush();
  if (!out_) {
    throw std::runtime_error("write to result store '" + path_ + "' failed");
  }
  out_.close();
}

}  // namespace rlt::sweep
