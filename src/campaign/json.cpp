#include "campaign/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace dq::campaign {

std::string format_double(double v) {
  if (!std::isfinite(v))
    throw std::invalid_argument("JSON cannot represent non-finite numbers");
  char buf[32];
  const auto [end, ec] =
      std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc{})
    throw std::invalid_argument("format_double: to_chars failed");
  return std::string(buf, end);
}

JsonValue JsonValue::boolean(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::number(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = d;
  return v;
}

JsonValue JsonValue::integer(std::uint64_t u) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.integral_ = true;
  v.uint_ = u;
  v.number_ = static_cast<double>(u);
  return v;
}

JsonValue JsonValue::str(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) throw std::invalid_argument("JSON: not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::kNumber)
    throw std::invalid_argument("JSON: not a number");
  return number_;
}

std::uint64_t JsonValue::as_uint() const {
  if (kind_ != Kind::kNumber)
    throw std::invalid_argument("JSON: not a number");
  if (integral_) return uint_;
  // 2^64 and above would not fit: casting them is undefined behaviour.
  if (number_ < 0.0 || number_ != std::floor(number_) ||
      number_ >= 18446744073709551616.0)
    throw std::invalid_argument("JSON: not an unsigned integer");
  return static_cast<std::uint64_t>(number_);
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString)
    throw std::invalid_argument("JSON: not a string");
  return string_;
}

void JsonValue::push_back(JsonValue v) {
  if (kind_ != Kind::kArray) throw std::invalid_argument("JSON: not an array");
  items_.push_back(std::move(v));
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (kind_ != Kind::kArray) throw std::invalid_argument("JSON: not an array");
  return items_;
}

std::size_t JsonValue::size() const {
  if (kind_ == Kind::kArray) return items_.size();
  if (kind_ == Kind::kObject) return members_.size();
  throw std::invalid_argument("JSON: size() needs an array or object");
}

void JsonValue::set(std::string key, JsonValue v) {
  if (kind_ != Kind::kObject)
    throw std::invalid_argument("JSON: not an object");
  for (auto& member : members_) {
    if (member.first == key) {
      member.second = std::move(v);
      return;
    }
  }
  members_.emplace_back(std::move(key), std::move(v));
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  if (kind_ != Kind::kObject)
    throw std::invalid_argument("JSON: not an object");
  return members_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& member : members_)
    if (member.first == key) return &member.second;
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (!v)
    throw std::out_of_range("JSON: missing key '" + std::string(key) + "'");
  return *v;
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
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
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

void JsonValue::append_to(std::string& out) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kNumber:
      if (integral_) {
        char buf[24];
        const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), uint_);
        (void)ec;
        out.append(buf, end);
      } else {
        out += format_double(number_);
      }
      break;
    case Kind::kString:
      append_escaped(out, string_);
      break;
    case Kind::kArray: {
      out += '[';
      bool first = true;
      for (const JsonValue& v : items_) {
        if (!first) out += ',';
        first = false;
        v.append_to(out);
      }
      out += ']';
      break;
    }
    case Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, value] : members_) {
        if (!first) out += ',';
        first = false;
        append_escaped(out, key);
        out += ':';
        value.append_to(out);
      }
      out += '}';
      break;
    }
  }
}

std::string JsonValue::dump() const {
  std::string out;
  append_to(out);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size())
      throw std::invalid_argument("JSON: trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::invalid_argument(std::string("JSON parse error: ") + what +
                                " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) fail("unexpected character");
  }

  void expect_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) fail("invalid literal");
    pos_ += word.size();
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case 'n': expect_word("null"); return JsonValue();
      case 't': expect_word("true"); return JsonValue::boolean(true);
      case 'f': expect_word("false"); return JsonValue::boolean(false);
      case '"': return JsonValue::str(parse_string());
      case '[': return parse_array();
      case '{': return parse_object();
      default: return parse_number();
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("invalid \\u escape");
          }
          // We only ever emit \u00xx for control characters; decode the
          // BMP code point as UTF-8 for completeness.
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
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty()) fail("expected a value");

    // Non-negative integers (no '.', no exponent) keep full 64-bit
    // precision; everything else parses as double.
    const bool plain_int =
        token.find_first_of(".eE") == std::string_view::npos &&
        token[0] != '-';
    if (plain_int) {
      std::uint64_t u = 0;
      const auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), u);
      if (ec == std::errc{} && ptr == token.data() + token.size())
        return JsonValue::integer(u);
    }
    double d = 0.0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), d);
    if (ec != std::errc{} || ptr != token.data() + token.size())
      fail("malformed number");
    return JsonValue::number(d);
  }

  JsonValue parse_array() {
    expect('[');
    const DepthGuard guard(*this);
    JsonValue out = JsonValue::array();
    skip_ws();
    if (consume(']')) return out;
    for (;;) {
      out.push_back(parse_value());
      skip_ws();
      if (consume(']')) return out;
      expect(',');
    }
  }

  JsonValue parse_object() {
    expect('{');
    const DepthGuard guard(*this);
    JsonValue out = JsonValue::object();
    skip_ws();
    if (consume('}')) return out;
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      out.set(std::move(key), parse_value());
      skip_ws();
      if (consume('}')) return out;
      expect(',');
    }
  }

  // Counts the arrays and objects open on the recursion stack, so one
  // hostile document cannot overflow it.
  struct DepthGuard {
    explicit DepthGuard(Parser& parser) : depth(parser.depth_) {
      if (depth >= JsonValue::kMaxDepth) parser.fail("nesting too deep");
      ++depth;
    }
    ~DepthGuard() { --depth; }
    std::size_t& depth;
  };

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace dq::campaign
