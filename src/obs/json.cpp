#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"

namespace scalocate::obs {

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

void JsonWriter::comma() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // the key already emitted the separator
  }
  if (!first_.empty()) {
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  out_ += '{';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  detail::require(!first_.empty() && !pending_key_,
                  "JsonWriter: unbalanced end_object");
  first_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma();
  out_ += '[';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  detail::require(!first_.empty() && !pending_key_,
                  "JsonWriter: unbalanced end_array");
  first_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  detail::require(!pending_key_, "JsonWriter: key() after key()");
  if (!first_.empty()) {
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
  out_ += '"';
  out_ += json_escape(name);
  out_ += "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  comma();
  out_ += '"';
  out_ += json_escape(s);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  comma();
  if (!std::isfinite(v)) {
    out_ += "null";  // JSON has no NaN/Inf; null keeps the document valid
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  comma();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  comma();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  comma();
  out_ += v ? "true" : "false";
  return *this;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// JsonValue parser
// ---------------------------------------------------------------------------

namespace {

struct Parser {
  /// Containers may nest at most this deep. Registry snapshots and bench
  /// thresholds nest < 10 levels; the cap exists because parse_value()
  /// recurses per level, so without it a hostile "[[[[..." document drives
  /// the parse into a stack overflow (a crash, not a typed error) — and
  /// bench_check feeds this parser files it did not write.
  static constexpr std::size_t kMaxDepth = 192;

  std::string_view text;
  std::size_t pos = 0;
  std::size_t depth = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw InvalidArgument("json parse error at offset " + std::to_string(pos) +
                          ": " + what);
  }

  void skip_ws() {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t' ||
                                 text[pos] == '\n' || text[pos] == '\r'))
      ++pos;
  }

  char peek() {
    if (pos >= text.size()) fail("unexpected end of input");
    return text[pos];
  }

  void expect(char c) {
    if (pos >= text.size() || text[pos] != c)
      fail(std::string("expected '") + c + "'");
    ++pos;
  }

  bool consume(std::string_view word) {
    if (text.substr(pos, word.size()) != word) return false;
    pos += word.size();
    return true;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos >= text.size()) fail("unterminated string");
      const char c = text[pos++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos >= text.size()) fail("unterminated escape");
        const char e = text[pos++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos + 4 > text.size()) fail("short \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text[pos++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else fail("bad \\u escape digit");
            }
            // The writer only emits \u00XX for control bytes; anything in
            // the BMP is decoded to UTF-8 for completeness.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos;
    if (peek() == '-') ++pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
            text[pos] == '+' || text[pos] == '-'))
      ++pos;
    const std::string_view token = text.substr(start, pos - start);
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    const auto [dptr, derr] =
        std::from_chars(token.data(), token.data() + token.size(), v.number);
    if (derr != std::errc() || dptr != token.data() + token.size())
      fail("bad number token");
    // Plain nonnegative integers also keep their exact u64 value so 64-bit
    // counters survive the round trip without double rounding.
    if (token.find_first_of(".eE-") == std::string_view::npos) {
      const auto [iptr, ierr] =
          std::from_chars(token.data(), token.data() + token.size(), v.integer);
      v.is_integer = ierr == std::errc() && iptr == token.data() + token.size();
    }
    return v;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    JsonValue v;
    if (c == '{') {
      if (++depth > kMaxDepth) fail("nesting too deep");
      ++pos;
      v.type = JsonValue::Type::kObject;
      skip_ws();
      if (peek() == '}') { ++pos; --depth; return v; }
      while (true) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect(':');
        v.object.emplace_back(std::move(key), parse_value());
        skip_ws();
        if (peek() == ',') { ++pos; continue; }
        expect('}');
        --depth;
        return v;
      }
    }
    if (c == '[') {
      if (++depth > kMaxDepth) fail("nesting too deep");
      ++pos;
      v.type = JsonValue::Type::kArray;
      skip_ws();
      if (peek() == ']') { ++pos; --depth; return v; }
      while (true) {
        v.array.push_back(parse_value());
        skip_ws();
        if (peek() == ',') { ++pos; continue; }
        expect(']');
        --depth;
        return v;
      }
    }
    if (c == '"') {
      v.type = JsonValue::Type::kString;
      v.string = parse_string();
      return v;
    }
    if (consume("true")) { v.type = JsonValue::Type::kBool; v.boolean = true; return v; }
    if (consume("false")) { v.type = JsonValue::Type::kBool; v.boolean = false; return v; }
    if (consume("null")) { v.type = JsonValue::Type::kNull; return v; }
    return parse_number();
  }
};

}  // namespace

JsonValue JsonValue::parse(std::string_view text) {
  Parser p{text};
  JsonValue v = p.parse_value();
  p.skip_ws();
  if (p.pos != text.size()) p.fail("trailing garbage after document");
  return v;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

const JsonValue* JsonValue::at_path(std::string_view path) const {
  const JsonValue* node = this;
  while (!path.empty()) {
    if (node->type == Type::kArray) {
      const std::size_t dot = path.find('.');
      const std::string_view step =
          dot == std::string_view::npos ? path : path.substr(0, dot);
      path = dot == std::string_view::npos ? std::string_view{}
                                           : path.substr(dot + 1);
      std::size_t index = 0;
      const auto [p, err] =
          std::from_chars(step.data(), step.data() + step.size(), index);
      if (err != std::errc() || p != step.data() + step.size() ||
          index >= node->array.size())
        return nullptr;
      node = &node->array[index];
    } else if (node->type == Type::kObject) {
      // Registry metric names are themselves dotted ("engine.aes.latency_ns"
      // as one key), so a plain first-segment split could never reach them.
      // Greedy longest-key match: try the longest joined prefix of the
      // remaining segments that names a member, then continue past it.
      const JsonValue* next = nullptr;
      std::string_view rest;
      for (std::size_t end = path.size();;) {
        if ((next = node->find(path.substr(0, end)))) {
          rest = end == path.size() ? std::string_view{}
                                    : path.substr(end + 1);
          break;
        }
        end = path.rfind('.', end - 1);
        if (end == std::string_view::npos || end == 0) return nullptr;
      }
      node = next;
      path = rest;
    } else {
      return nullptr;
    }
  }
  return node;
}

}  // namespace scalocate::obs
