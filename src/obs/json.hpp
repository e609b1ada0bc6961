// Minimal JSON support for telemetry snapshots and the bench harnesses.
//
// JsonWriter is a streaming emitter (automatic comma/nesting management, no
// intermediate DOM) used by obs::Registry::render_json and the BENCH_*.json
// writers. JsonValue is a small recursive-descent parser for the same
// dialect — enough to round-trip every snapshot the writer produces — used
// by bench_check to diff snapshots against thresholds and by the tests to
// prove the round trip. Neither aims to be a general-purpose JSON library:
// no \uXXXX escapes beyond ASCII pass-through, numbers are IEEE doubles.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace scalocate::obs {

/// Streaming JSON emitter. begin/end calls must nest correctly; inside an
/// object every value must be preceded by key(). Produces deterministic
/// output for deterministic call sequences (snapshot determinism relies on
/// this).
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);

  /// Shorthand for key(name) + value(v).
  template <typename T>
  JsonWriter& kv(std::string_view name, T v) {
    key(name);
    return value(v);
  }

  /// The document built so far. Valid once every begin_* is closed.
  const std::string& str() const { return out_; }

 private:
  void comma();

  std::string out_;
  std::vector<bool> first_;  ///< per-nesting-level "no element emitted yet"
  bool pending_key_ = false;
};

/// Escapes `s` for inclusion in a JSON string literal (no quotes added).
std::string json_escape(std::string_view s);

/// Parsed JSON document node. Numbers are stored as double (plus the exact
/// unsigned value when the token was a plain integer, for lossless counter
/// round trips).
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::uint64_t integer = 0;  ///< valid when is_integer
  bool is_integer = false;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  ///< insertion order

  /// Parses a complete document; throws scalocate::InvalidArgument on
  /// malformed input or trailing garbage.
  static JsonValue parse(std::string_view text);

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;

  /// Dotted-path lookup ("workers.0.p99_ms": object keys and array
  /// indices); nullptr when any step is absent. Object steps use greedy
  /// longest-key matching, so dotted registry metric names resolve as
  /// single keys ("metrics.counters.engine.aes.requests" finds the
  /// "engine.aes.requests" member of "counters").
  const JsonValue* at_path(std::string_view path) const;
};

}  // namespace scalocate::obs
