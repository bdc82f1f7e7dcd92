#include "sweep/store.hpp"

#include <cstdio>
#include <stdexcept>
#include <system_error>

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

std::size_t RecordReader::value_at(std::string_view field) const {
  if (!ok() || pos_ >= line_.size()) return kFailed;
  // `{"field":` leads a line, `,"field":` each later field.
  const std::string_view next = line_.substr(pos_ + 1);
  const bool found = line_[pos_] == (pos_ == 0 ? '{' : ',') &&
                     next.starts_with('"') &&
                     next.substr(1).starts_with(field) &&
                     next.substr(1 + field.size()).starts_with("\":");
  return found ? pos_ + field.size() + 4 : kFailed;
}

bool RecordReader::at(std::string_view field) const {
  return value_at(field) != kFailed;
}

void RecordReader::fail(std::string_view field) {
  if (ok()) failed_ = field;
  pos_ = kFailed;
}

std::string RecordReader::str(std::string_view field) {
  const std::size_t at = value_at(field);
  const bool quoted = at != kFailed && line_.substr(at).starts_with('"');
  std::string out;
  // Escapes are read leniently: the render-back check rejects any that
  // escape_into would not have written.
  for (std::size_t i = at + 1; quoted && i < line_.size(); ++i) {
    unsigned v = 0;
    if (line_[i] == '"') {
      pos_ = i + 1;
      return out;
    } else if (line_[i] != '\\') {
      out += line_[i];
    } else if (i + 1 == line_.size()) {
      break;
    } else if (const char e = line_[++i]; e != 'u') {
      out += e == 'n' ? '\n' : e == 'r' ? '\r' : e == 't' ? '\t' : e;
    } else if (const char* d = line_.data() + i + 1;
               i + 4 < line_.size() &&
               std::from_chars(d, d + 4, v, 16).ptr == d + 4) {
      out += static_cast<char>(v);
      i += 4;
    } else {
      break;
    }
  }
  fail(field);
  return {};
}

std::uint64_t RecordReader::u64(std::string_view field) {
  const std::size_t i = value_at(field);
  const char* end = line_.data() + line_.size();
  std::uint64_t v = 0;
  // Plain digits that fit: no sign, and 2^64 fails rather than wraps.
  const auto [ptr, ec] =
      std::from_chars(i == kFailed ? end : line_.data() + i, end, v);
  if (ec != std::errc{}) {
    fail(field);
    return 0;
  }
  pos_ = static_cast<std::size_t>(ptr - line_.data());
  return v;
}

std::uint64_t RecordReader::hex(std::string_view field) {
  const std::string s = str(field);
  const char* end = s.data() + s.size();
  std::uint64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(s.starts_with("0x") ? s.data() + 2 : end, end, v, 16);
  if (ec != std::errc{} || ptr != end) {
    fail(field);
    return 0;
  }
  return v;
}

bool RecordReader::boolean(std::string_view field) {
  const std::size_t i = value_at(field);
  const std::string_view value = i == kFailed ? "" : line_.substr(i);
  if (value.starts_with("true") || value.starts_with("false")) {
    pos_ = i + (value[0] == 't' ? 4 : 5);
    return value[0] == 't';
  }
  fail(field);
  return false;
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
