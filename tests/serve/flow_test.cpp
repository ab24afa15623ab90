// Flow line parsing and decision formatting against reference
// implementations kept here as oracles: the DOM reading of a flow line
// through campaign::JsonValue, and the decision line built from
// campaign::format_double and std::to_string. parse_flow_line's
// fixed-schema scanner must agree with the DOM on every line, so a
// seeded corpus of canonical lines, edge cases and mutations compares
// the two bit for bit.
#include "serve/flow.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/json.hpp"
#include "obs/events.hpp"

namespace dq::serve {
namespace {

constexpr std::uint32_t kHosts = 1000;

/// The DOM reading of a flow line, the oracle for parse_flow_line.
bool dom_parse(std::string_view line, std::uint32_t num_hosts, Flow& out) {
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
  } catch (const std::exception&) {
    return false;
  }
}

/// A Flow no parse produces, so an untouched output is visible.
Flow sentinel() {
  Flow f;
  f.time = -7.25;
  f.host = 0xDEADBEEF;
  f.dest = 0xFEEDFACECAFEBEEF;
  f.failed = true;
  f.labeled_worm = true;
  f.seq = 99;
  f.ingest_ns = 77;
  return f;
}

/// Same accept/reject answer and bitwise-equal Flow fields.
::testing::AssertionResult agrees_with_dom(std::string_view line) {
  Flow fast = sentinel();
  Flow dom = sentinel();
  const bool fast_ok = parse_flow_line(line, kHosts, fast);
  const bool dom_ok = dom_parse(line, kHosts, dom);
  if (fast_ok != dom_ok)
    return ::testing::AssertionFailure()
           << "accept " << fast_ok << " vs DOM " << dom_ok << " on '"
           << line << "'";
  if (std::bit_cast<std::uint64_t>(fast.time) !=
          std::bit_cast<std::uint64_t>(dom.time) ||
      fast.host != dom.host || fast.dest != dom.dest ||
      fast.failed != dom.failed || fast.labeled_worm != dom.labeled_worm ||
      fast.seq != dom.seq || fast.ingest_ns != dom.ingest_ns)
    return ::testing::AssertionFailure()
           << "fields differ from the DOM on '" << line << "'";
  return ::testing::AssertionSuccess();
}

/// Benchmark-shaped lines in schema order: the fast path's home ground.
std::vector<std::string> canonical_lines(std::mt19937_64& rng,
                                         std::size_t n) {
  std::vector<std::string> lines;
  char buf[160];
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(rng() % 100'000'000) / 1e4;
    // A few hosts past kHosts, so range rejection is exercised too.
    const auto host = static_cast<unsigned>(rng() % (kHosts + kHosts / 20));
    const auto dest = static_cast<unsigned long long>(rng());
    const char* failed = rng() % 2 ? "true" : "false";
    const char* worm = rng() % 2 ? "true" : "false";
    int len = 0;
    switch (rng() % 4) {
      case 0:
        len = std::snprintf(buf, sizeof(buf),
                            "{\"t\":%.4f,\"host\":%u,\"dest\":%llu,"
                            "\"failed\":%s,\"worm\":%s}",
                            t, host, dest, failed, worm);
        break;
      case 1:
        len = std::snprintf(buf, sizeof(buf),
                            "{\"t\":%.17g,\"host\":%u,\"dest\":%llu,"
                            "\"failed\":%s}",
                            t, host, dest, failed);
        break;
      case 2:
        len = std::snprintf(buf, sizeof(buf),
                            "{\"t\":%.0f,\"host\":%u,\"dest\":%llu,"
                            "\"worm\":%s}",
                            t, host, dest, worm);
        break;
      default:
        len = std::snprintf(buf, sizeof(buf),
                            "{\"t\":%.3f,\"host\":%u,\"dest\":%llu}", t,
                            host, dest % 100000);
        break;
    }
    lines.emplace_back(buf, static_cast<std::size_t>(len));
  }
  return lines;
}

/// Hand-picked lines at the edges of the scanner's schema and of the
/// DOM's number rule.
const std::vector<std::string>& edge_lines() {
  static const std::vector<std::string> lines = {
      // From source_test.cpp.
      "{\"t\":1.5,\"host\":3,\"dest\":991,\"failed\":true,\"worm\":true}",
      "{\"t\":2,\"host\":0,\"dest\":12}",
      "not json at all",
      "\x01\x02\xff\xfe binary garbage",
      "{\"t\":2,\"host\":",
      "{\"t\":3,\"dest\":5}",
      "{\"t\":-1,\"host\":1,\"dest\":5}",
      "{\"t\":\"x\",\"host\":1,\"dest\":5}",
      "{\"t\":4,\"host\":99,\"dest\":5}",
      "[1,2,3]",
      "{\"t\":5,\"host\":2,\"dest\":6,\"failed\":false}",
      "{\"t\":6,\"host\":2,\"dest\":7,\"failed\"",
      "",
      // Signs and zeros.
      "{\"t\":-0,\"host\":1,\"dest\":5}",
      "{\"t\":-0.0,\"host\":1,\"dest\":5}",
      "{\"t\":0,\"host\":-0,\"dest\":-0}",
      "{\"t\":-0.5,\"host\":1,\"dest\":5}",
      "{\"t\":-,\"host\":1,\"dest\":5}",
      "{\"t\":+1,\"host\":1,\"dest\":5}",
      "{\"t\":--1,\"host\":1,\"dest\":5}",
      "{\"t\":1-,\"host\":1,\"dest\":5}",
      "{\"t\":1+2,\"host\":1,\"dest\":5}",
      "{\"t\":1,\"host\":+1,\"dest\":5}",
      "{\"t\":1,\"host\":1,\"dest\":-5}",
      // Leading zeros and bare points.
      "{\"t\":007,\"host\":007,\"dest\":0005}",
      "{\"t\":00.5,\"host\":1,\"dest\":5}",
      "{\"t\":.5,\"host\":1,\"dest\":5}",
      "{\"t\":5.,\"host\":1,\"dest\":5}",
      "{\"t\":.,\"host\":1,\"dest\":5}",
      "{\"t\":1..2,\"host\":1,\"dest\":5}",
      "{\"t\":1.2.3,\"host\":1,\"dest\":5}",
      // Precision and range: 2^53+1, 2^64-1, 2^64, huge.
      "{\"t\":9007199254740993,\"host\":1,\"dest\":9007199254740993}",
      "{\"t\":9007199254740993.0,\"host\":1,\"dest\":5}",
      "{\"t\":18446744073709551615,\"host\":1,"
      "\"dest\":18446744073709551615}",
      "{\"t\":18446744073709551616,\"host\":1,\"dest\":5}",
      "{\"t\":3,\"host\":2,\"dest\":18446744073709551616}",
      "{\"t\":3,\"host\":18446744073709551616,\"dest\":1}",
      "{\"t\":3,\"host\":4294967296,\"dest\":1}",
      "{\"t\":3,\"host\":4294967297,\"dest\":1}",
      "{\"t\":3,\"host\":999,\"dest\":1}",
      "{\"t\":3,\"host\":1000,\"dest\":1}",
      "{\"t\":1e400,\"host\":1,\"dest\":5}",
      "{\"t\":1e-400,\"host\":1,\"dest\":5}",
      "{\"t\":1" + std::string(400, '0') + ",\"host\":1,\"dest\":5}",
      "{\"t\":0." + std::string(400, '0') + "1,\"host\":1,\"dest\":5}",
      "{\"t\":2,\"host\":1,\"dest\":1e30}",
      "{\"t\":2,\"host\":1,\"dest\":1.8446744073709552e19}",
      // Exponent-form and fractional integers.
      "{\"t\":1e3,\"host\":3e0,\"dest\":5E2}",
      "{\"t\":1E+2,\"host\":3.0,\"dest\":5.0}",
      "{\"t\":1,\"host\":3.7,\"dest\":5}",
      "{\"t\":1,\"host\":1,\"dest\":5.5}",
      "{\"t\":1,\"host\":30e-1,\"dest\":5}",
      // Booleans.
      "{\"t\":1,\"host\":1,\"dest\":5,\"failed\":true,\"worm\":false}",
      "{\"t\":1,\"host\":1,\"dest\":5,\"worm\":true}",
      "{\"t\":1,\"host\":1,\"dest\":5,\"failed\":1}",
      "{\"t\":1,\"host\":1,\"dest\":5,\"failed\":null}",
      "{\"t\":1,\"host\":1,\"dest\":5,\"failed\":tru}",
      "{\"t\":1,\"host\":1,\"dest\":5,\"failed\":truex}",
      "{\"t\":1,\"host\":1,\"dest\":5,\"worm\":\"true\"}",
      // Key order, duplicates, unknown keys.
      "{\"host\":1,\"t\":1,\"dest\":5}",
      "{\"t\":1,\"host\":1,\"dest\":5,\"worm\":true,\"failed\":true}",
      "{\"t\":1,\"host\":1,\"dest\":5,\"t\":2}",
      "{\"t\":-1,\"host\":1,\"dest\":5,\"t\":2}",
      "{\"t\":1,\"host\":1,\"dest\":5,\"host\":2000}",
      "{\"t\":1,\"host\":1,\"dest\":5,\"failed\":true,\"failed\":false}",
      "{\"t\":1,\"host\":1,\"dest\":5,\"port\":80}",
      "{\"t\":1,\"host\":1,\"dest\":5,\"failedx\":true}",
      "{\"t\":1,\"host\":1,\"dest\":5,\"x\":[[{}]]}",
      // A 't' inside other keys, and escaped keys.
      "{\"tt\":1,\"host\":1,\"dest\":5}",
      "{\"t \":1,\"host\":1,\"dest\":5}",
      "{\"xt\":1,\"t\":2,\"host\":1,\"dest\":5}",
      "{\"\\u0074\":1,\"host\":1,\"dest\":5}",
      "{\"t\":1,\"ho\\u0073t\":1,\"dest\":5}",
      // Whitespace, CRLF and trailing bytes.
      "{ \"t\":1,\"host\":1,\"dest\":5}",
      "{\"t\": 1,\"host\":1,\"dest\":5}",
      "{\"t\":1 ,\"host\":1,\"dest\":5}",
      "{\"t\":1,\"host\":1,\"dest\":5 }",
      "{\"t\":1,\"host\":1,\"dest\":5}\r",
      "{\"t\":1,\"host\":1,\"dest\":5}\r\n",
      "\t{\"t\":1,\"host\":1,\"dest\":5}",
      "{\"t\":1,\"host\":1,\"dest\":5}}",
      "{\"t\":1,\"host\":1,\"dest\":5},",
      "{\"t\":1,\"host\":1,\"dest\":5}x",
      std::string("{\"t\":1,\"host\":1,\"dest\":5}\0", 24),
      "{\"t\":1,\"host\":1,\"dest\":5",
      "{\"t\":1,\"host\":1,\"dest\":}",
      "{\"t\":1,\"host\":1,\"dest\":5,}",
      "{\"t\":nan,\"host\":1,\"dest\":5}",
      "{\"t\":inf,\"host\":1,\"dest\":5}",
      "{\"t\":-inf,\"host\":1,\"dest\":5}",
      "{}",
      "{\"t\":1}",
      // Deep nesting past the parser's cap, inside a flow and bare.
      "{\"t\":1,\"host\":1,\"dest\":5,\"x\":" + std::string(300, '[') +
          std::string(300, ']') + "}",
      std::string(100'000, '['),
  };
  return lines;
}

TEST(FlowScanner, AgreesWithDomOnCanonicalAndEdgeLines) {
  std::mt19937_64 rng(20040628);
  std::size_t accepted = 0;
  for (const std::string& line : canonical_lines(rng, 20'000)) {
    ASSERT_TRUE(agrees_with_dom(line));
    Flow f;
    accepted += parse_flow_line(line, kHosts, f);
  }
  // Most canonical lines are valid flows; the rest name a host past
  // kHosts.
  EXPECT_GT(accepted, 18'000u);
  for (const std::string& line : edge_lines()) EXPECT_TRUE(agrees_with_dom(line));
}

TEST(FlowScanner, AgreesWithDomOnSeededMutations) {
  std::mt19937_64 rng(15);
  std::vector<std::string> seeds = canonical_lines(rng, 500);
  // Every edge line but the last, the 100k-byte nesting bomb.
  seeds.insert(seeds.end(), edge_lines().begin(), edge_lines().end() - 1);
  // Bytes a mutation writes: the schema's own alphabet plus a few
  // outsiders.
  constexpr std::string_view kAlphabet =
      "{}[]\":,.-+eE0123456789 \t\r\\tfalsrunhodw\x01\xff";
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  std::size_t checked = 0;
  for (int i = 0; i < 120'000; ++i) {
    std::string line = seeds[pick(seeds.size())];
    const int edits = 1 + static_cast<int>(pick(3));
    for (int e = 0; e < edits; ++e) {
      switch (pick(4)) {
        case 0:  // byte flip
          if (!line.empty())
            line[pick(line.size())] = kAlphabet[pick(kAlphabet.size())];
          break;
        case 1:  // truncation
          line.resize(pick(line.size() + 1));
          break;
        case 2: {  // splice: a prefix of this line, a suffix of another
          const std::string& other = seeds[pick(seeds.size())];
          line = line.substr(0, pick(line.size() + 1)) +
                 other.substr(pick(other.size() + 1));
          break;
        }
        default:  // inserted whitespace
          line.insert(pick(line.size() + 1), 1, " \t\r\n"[pick(4)]);
          break;
      }
    }
    ASSERT_TRUE(agrees_with_dom(line)) << "mutation " << i;
    ++checked;
  }
  EXPECT_EQ(checked, 120'000u);
}

/// The decision line as it was built before the stack-buffer writer.
std::string reference_decision_line(const Decision& d) {
  return "{\"seq\":" + std::to_string(d.seq) +
         ",\"t\":" + campaign::format_double(d.time) +
         ",\"host\":" + std::to_string(d.host) +
         ",\"dest\":" + std::to_string(d.dest) +
         ",\"failed\":" + (d.failed ? "true" : "false") + ",\"action\":\"" +
         to_string(static_cast<Action>(d.action)) + "\",\"state\":\"" +
         obs::to_string(static_cast<obs::QState>(d.state)) + "\"}\n";
}

TEST(DecisionLine, MatchesReferenceAtEveryExtreme) {
  constexpr std::uint64_t kMax64 = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint32_t kMax32 = std::numeric_limits<std::uint32_t>::max();
  const double times[] = {0.0,
                          -0.0,
                          5e-324,
                          1.7976931348623157e308,
                          -2.2250738585072014e-308,
                          0.1,
                          1e21,
                          12.3456,
                          1e-7};
  std::string out = "prefix|";
  std::string expected = out;
  for (const double t : times) {
    for (std::uint8_t action = 0; action <= 3; ++action) {
      for (std::uint8_t state = 0; state <= 3; ++state) {
        Decision d;
        d.seq = action % 2 ? kMax64 : 1;
        d.time = t;
        d.host = state % 2 ? kMax32 : 0;
        d.dest = state >= 2 ? kMax64 : 991;
        d.action = action;
        d.state = state;
        d.failed = (action + state) % 2 == 1;
        append_decision_line(d, out);
        expected += reference_decision_line(d);
      }
    }
  }
  EXPECT_EQ(out, expected);
}

TEST(DecisionLine, NonFiniteTimeThrowsLikeFormatDouble) {
  Decision d;
  d.time = std::numeric_limits<double>::infinity();
  std::string out;
  EXPECT_THROW(append_decision_line(d, out), std::invalid_argument);
  EXPECT_THROW(campaign::format_double(d.time), std::invalid_argument);
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace dq::serve
