// Minimal JSON document model for campaign artifacts and manifests.
//
// Deliberately not a general-purpose JSON library: it exists so job
// configs, cached results, and manifests serialize *canonically* —
// objects keep insertion order, numbers render via std::to_chars
// (shortest round-trip form), and dump() emits no whitespace — so the
// same value always produces the same bytes and content hashes are
// meaningful. The parser accepts standard JSON (whitespace included)
// for reading artifacts back.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dq::campaign {

class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  JsonValue() = default;  // null
  static JsonValue boolean(bool b);
  static JsonValue number(double v);
  /// Integer-valued number: dumps without a decimal point so counters
  /// round-trip exactly (doubles would lose precision past 2^53).
  static JsonValue integer(std::uint64_t v);
  static JsonValue str(std::string s);
  static JsonValue array();
  static JsonValue object();

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::kNull; }

  bool as_bool() const;
  double as_number() const;
  std::uint64_t as_uint() const;
  const std::string& as_string() const;

  /// Array access.
  void push_back(JsonValue v);
  const std::vector<JsonValue>& items() const;
  std::size_t size() const;

  /// Object access. set() appends (or overwrites in place, keeping the
  /// original position); members() preserves insertion order.
  void set(std::string key, JsonValue v);
  const std::vector<std::pair<std::string, JsonValue>>& members() const;
  /// Member lookup; nullptr when absent (or not an object).
  const JsonValue* find(std::string_view key) const;
  /// Member lookup; throws std::out_of_range when absent.
  const JsonValue& at(std::string_view key) const;

  /// Canonical serialization: no whitespace, insertion-ordered keys,
  /// shortest-round-trip numbers.
  std::string dump() const;

  /// Deepest nesting parse() accepts: the parser recurses per level,
  /// and every reader of untrusted JSON relies on this bound.
  static constexpr std::size_t kMaxDepth = 256;

  /// Parses standard JSON. Throws std::invalid_argument on malformed
  /// input, trailing garbage, or nesting deeper than kMaxDepth.
  static JsonValue parse(std::string_view text);

 private:
  void append_to(std::string& out) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  bool integral_ = false;  ///< render number_ from uint_
  std::uint64_t uint_ = 0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Shortest round-trip decimal rendering of a double ("1", "0.25",
/// "1e30"); the building block of canonical serialization.
std::string format_double(double v);

}  // namespace dq::campaign
