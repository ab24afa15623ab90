#include "serve/flow.hpp"

#include <charconv>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "campaign/json.hpp"
#include "obs/events.hpp"

namespace dq::serve {

const char* to_string(Action action) noexcept {
  switch (action) {
    case Action::kAllow:
      return "allow";
    case Action::kDrop:
      return "drop";
    case Action::kThrottle:
      return "throttle";
  }
  return "unknown";
}

namespace {

enum class Scan : std::uint8_t { kAccept, kReject, kDecline };

/// Consumes `lit` if the input continues with it.
bool eat(const char*& p, const char* end, std::string_view lit) noexcept {
  if (static_cast<std::size_t>(end - p) < lit.size() ||
      std::memcmp(p, lit.data(), lit.size()) != 0)
    return false;
  p += lit.size();
  return true;
}

/// The DOM parser's number token: an optional '-', then [0-9.eE+-]*,
/// which is the same as [0-9.eE+-]* alone.
std::string_view number_token(const char*& p, const char* end) noexcept {
  const char* start = p;
  while (p != end && ((*p >= '0' && *p <= '9') || *p == '.' || *p == 'e' ||
                      *p == 'E' || *p == '+' || *p == '-'))
    ++p;
  return {start, static_cast<std::size_t>(p - start)};
}

/// A plain unsigned integer, read as the DOM reads one: from_chars
/// consumes the whole token only when it is all digits. Anything else
/// (sign, fraction, exponent, overflow) is left to the DOM.
bool scan_uint(const char*& p, const char* end, std::uint64_t& out) noexcept {
  const std::string_view token = number_token(p, end);
  const char* last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), last, out);
  return ec == std::errc{} && ptr == last;
}

/// A number as the DOM reads one, through the same from_chars calls:
/// a plain unsigned integer via uint64_t then cast, else a double.
bool scan_number(const char*& p, const char* end, double& out) noexcept {
  const std::string_view token = number_token(p, end);
  if (token.empty()) return false;
  const char* last = token.data() + token.size();
  if (token[0] != '-' &&
      token.find_first_of(".eE") == std::string_view::npos) {
    std::uint64_t u = 0;
    const auto [ptr, ec] = std::from_chars(token.data(), last, u);
    if (ec == std::errc{} && ptr == last) {
      out = static_cast<double>(u);
      return true;
    }
  }
  const auto [ptr, ec] = std::from_chars(token.data(), last, out);
  return ec == std::errc{} && ptr == last;
}

bool scan_bool(const char*& p, const char* end, bool& out) noexcept {
  out = eat(p, end, "true");
  return out || eat(p, end, "false");
}

/// Fixed-schema fast path: the schema's key order, no whitespace, no
/// escapes. It declines every other line, so the DOM decides those and
/// an accepted or rejected line means what the DOM would make of it.
Scan scan_flow_line(std::string_view line, std::uint32_t num_hosts,
                    Flow& out) noexcept {
  const char* p = line.data();
  const char* const end = p + line.size();
  Flow flow;
  std::uint64_t host = 0;
  if (!eat(p, end, "{\"t\":") || !scan_number(p, end, flow.time) ||
      !eat(p, end, ",\"host\":") || !scan_uint(p, end, host) ||
      !eat(p, end, ",\"dest\":") || !scan_uint(p, end, flow.dest))
    return Scan::kDecline;
  if (eat(p, end, ",\"failed\":") && !scan_bool(p, end, flow.failed))
    return Scan::kDecline;
  if (eat(p, end, ",\"worm\":") && !scan_bool(p, end, flow.labeled_worm))
    return Scan::kDecline;
  if (!eat(p, end, "}") || p != end) return Scan::kDecline;
  if (!std::isfinite(flow.time) || flow.time < 0.0 || host >= num_hosts)
    return Scan::kReject;
  flow.host = static_cast<std::uint32_t>(host);
  out = flow;
  return Scan::kAccept;
}

}  // namespace

bool parse_flow_line(std::string_view line, std::uint32_t num_hosts,
                     Flow& out) noexcept {
  switch (scan_flow_line(line, num_hosts, out)) {
    case Scan::kAccept:
      return true;
    case Scan::kReject:
      return false;
    case Scan::kDecline:
      break;
  }
  try {
    const campaign::JsonValue v = campaign::JsonValue::parse(line);
    if (v.kind() != campaign::JsonValue::Kind::kObject) return false;
    const campaign::JsonValue* t = v.find("t");
    const campaign::JsonValue* host = v.find("host");
    const campaign::JsonValue* dest = v.find("dest");
    if (t == nullptr || host == nullptr || dest == nullptr) return false;
    const double time = t->as_number();
    if (!std::isfinite(time) || time < 0.0) return false;
    const std::uint64_t host_id = host->as_uint();
    if (host_id >= num_hosts) return false;
    Flow flow;
    flow.time = time;
    flow.host = static_cast<std::uint32_t>(host_id);
    flow.dest = dest->as_uint();
    if (const campaign::JsonValue* failed = v.find("failed"))
      flow.failed = failed->as_bool();
    if (const campaign::JsonValue* worm = v.find("worm"))
      flow.labeled_worm = worm->as_bool();
    out = flow;
    return true;
  } catch (...) {
    return false;
  }
}

namespace {

/// Stack buffer for one decision line. At its widest a line is the
/// fixed text plus two 20-digit uint64_t, a 10-digit uint32_t, a
/// 24-char shortest double ("-2.2250738585072014e-308"), "false" and
/// two names no longer than "quarantined".
constexpr std::size_t kDecisionLineCapacity = 192;
constexpr std::string_view kDecisionSkeleton =
    "{\"seq\":,\"t\":,\"host\":,\"dest\":,\"failed\":,\"action\":\"\","
    "\"state\":\"\"}\n";
static_assert(kDecisionLineCapacity >=
                  kDecisionSkeleton.size() + 2 * 20 + 10 + 24 + 5 + 2 * 11,
              "a decision line at its widest must fit the stack buffer");

/// Writes one decision line into its stack buffer; the static_assert
/// above is what keeps every put in bounds.
class LineWriter {
 public:
  void put(std::string_view s) noexcept {
    std::memcpy(buf_ + len_, s.data(), s.size());
    len_ += s.size();
  }
  template <typename T>
  void put_number(T v) noexcept {
    len_ = static_cast<std::size_t>(
        std::to_chars(buf_ + len_, buf_ + kDecisionLineCapacity, v).ptr -
        buf_);
  }
  std::string_view view() const noexcept { return {buf_, len_}; }

 private:
  char buf_[kDecisionLineCapacity];
  std::size_t len_ = 0;
};

}  // namespace

void append_decision_line(const Decision& d, std::string& out) {
  if (!std::isfinite(d.time))
    throw std::invalid_argument("JSON cannot represent non-finite numbers");
  LineWriter w;
  w.put("{\"seq\":");
  w.put_number(d.seq);
  w.put(",\"t\":");
  w.put_number(d.time);  // shortest round-trip, as campaign::format_double
  w.put(",\"host\":");
  w.put_number(d.host);
  w.put(",\"dest\":");
  w.put_number(d.dest);
  w.put(d.failed ? ",\"failed\":true" : ",\"failed\":false");
  w.put(",\"action\":\"");
  w.put(to_string(static_cast<Action>(d.action)));
  w.put("\",\"state\":\"");
  w.put(obs::to_string(static_cast<obs::QState>(d.state)));
  w.put("\"}\n");
  out += w.view();
}

}  // namespace dq::serve
