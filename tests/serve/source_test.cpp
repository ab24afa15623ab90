#include "serve/source.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "trace/department.hpp"

namespace dq::serve {
namespace {

std::vector<Flow> drain(FlowSource& source) {
  std::vector<Flow> flows;
  Flow f;
  while (source.next(f)) flows.push_back(f);
  return flows;
}

TEST(NdjsonFlowSource, ParsesWellFormedLines) {
  std::istringstream in(
      "{\"t\":1.5,\"host\":3,\"dest\":991,\"failed\":true,\"worm\":true}\n"
      "{\"t\":2,\"host\":0,\"dest\":12}\n");
  NdjsonFlowSource source(in, 16);
  const std::vector<Flow> flows = drain(source);
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_DOUBLE_EQ(flows[0].time, 1.5);
  EXPECT_EQ(flows[0].host, 3u);
  EXPECT_EQ(flows[0].dest, 991u);
  EXPECT_TRUE(flows[0].failed);
  EXPECT_TRUE(flows[0].labeled_worm);
  EXPECT_FALSE(flows[1].failed);
  EXPECT_FALSE(flows[1].labeled_worm);
  EXPECT_EQ(source.parse_errors(), 0u);
}

TEST(NdjsonFlowSource, EmptyStreamYieldsNothing) {
  std::istringstream in("");
  NdjsonFlowSource source(in, 16);
  EXPECT_TRUE(drain(source).empty());
  EXPECT_EQ(source.parse_errors(), 0u);
}

TEST(NdjsonFlowSource, GarbageIsCountedAndSkippedNeverFatal) {
  std::istringstream in(
      "not json at all\n"
      "\x01\x02\xff\xfe binary garbage\n"
      "{\"t\":1,\"host\":1,\"dest\":5}\n"
      "{\"t\":2,\"host\":\n"                       // truncated mid-object
      "{\"t\":3,\"dest\":5}\n"                     // missing host
      "{\"t\":-1,\"host\":1,\"dest\":5}\n"         // negative time
      "{\"t\":\"x\",\"host\":1,\"dest\":5}\n"      // wrong type
      "{\"t\":4,\"host\":99,\"dest\":5}\n"         // host out of range
      "[1,2,3]\n"                                  // not an object
      "{\"t\":5,\"host\":2,\"dest\":6,\"failed\":false}\n"
      "{\"t\":2,\"host\":1,\"dest\":1e30}\n"     // dest past 2^64
      "{\"t\":3,\"host\":2,\"dest\":18446744073709551616}\n"  // 2^64
      "{\"t\":1,\"host\":3.7,\"dest\":5}\n"       // fractional host
      "{\"t\":6,\"host\":2,\"dest\":7,\"failed\"");  // truncated last line
  NdjsonFlowSource source(in, 16);
  const std::vector<Flow> flows = drain(source);
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_EQ(flows[0].host, 1u);
  EXPECT_EQ(flows[1].host, 2u);
  EXPECT_EQ(source.parse_errors(), 12u);
}

TEST(NdjsonFlowSource, IntegralHostIdsInAnyNumberForm) {
  std::istringstream in(
      "{\"t\":1,\"host\":3.0,\"dest\":5}\n"
      "{\"t\":2,\"host\":3e0,\"dest\":5}\n"
      "{\"t\":3,\"host\":3,\"dest\":5}\n");
  NdjsonFlowSource source(in, 16);
  const std::vector<Flow> flows = drain(source);
  ASSERT_EQ(flows.size(), 3u);
  for (const Flow& f : flows) EXPECT_EQ(f.host, 3u);
  EXPECT_EQ(source.parse_errors(), 0u);
}

TEST(NdjsonFlowSource, DeeplyNestedLineIsOneParseError) {
  std::istringstream in(std::string(200000, '[') +
                        "\n{\"t\":1,\"host\":1,\"dest\":5}\n");
  NdjsonFlowSource source(in, 16);
  const std::vector<Flow> flows = drain(source);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].dest, 5u);
  EXPECT_EQ(source.parse_errors(), 1u);
  ASSERT_EQ(source.parse_error_samples().size(), 1u);
  EXPECT_EQ(source.parse_error_samples()[0],
            std::string(NdjsonFlowSource::kMaxSampleLength, '['));
}

TEST(NdjsonFlowSource, BlankAndCrlfLinesAreTolerated) {
  std::istringstream in(
      "\r\n"
      "\n"
      "{\"t\":1,\"host\":0,\"dest\":5}\r\n");
  NdjsonFlowSource source(in, 4);
  EXPECT_EQ(drain(source).size(), 1u);
  EXPECT_EQ(source.parse_errors(), 0u);
}

TEST(TraceFlowSource, FailureBitsMatchFirstContactOracle) {
  // Host 0: dns answer then outbound to the resolved ip (not failed),
  // outbound to a cold ip (failed), inbound then reply (not failed).
  trace::Trace t;
  t.add({0.0, trace::EventType::kDnsAnswer, 0, 100, 60.0});
  t.add({1.0, trace::EventType::kOutboundContact, 0, 100, 0.0});
  t.add({2.0, trace::EventType::kOutboundContact, 0, 200, 0.0});
  t.add({3.0, trace::EventType::kInboundContact, 0, 300, 0.0});
  t.add({4.0, trace::EventType::kOutboundContact, 0, 300, 0.0});
  // Host 1 (worm category): blind scan.
  t.add({5.0, trace::EventType::kOutboundContact, 1, 400, 0.0});
  t.finalize();
  t.set_host_categories({trace::HostCategory::kNormalClient,
                         trace::HostCategory::kWormBlaster});

  TraceFlowSource source(t);
  EXPECT_LT(source.end_time_hint(), 0.0);  // not exhausted yet
  const std::vector<Flow> flows = drain(source);
  ASSERT_EQ(flows.size(), 4u);  // only outbound contacts become flows
  EXPECT_FALSE(flows[0].failed);
  EXPECT_TRUE(flows[1].failed);
  EXPECT_FALSE(flows[2].failed);
  EXPECT_TRUE(flows[3].failed);
  EXPECT_FALSE(flows[0].labeled_worm);
  EXPECT_TRUE(flows[3].labeled_worm);
  EXPECT_DOUBLE_EQ(source.end_time_hint(), t.duration());
}

TEST(TraceFlowSource, PacingDoesNotChangeContent) {
  trace::DepartmentConfig config;
  config.normal_clients = 10;
  config.servers = 1;
  config.p2p_clients = 1;
  config.blaster_hosts = 1;
  config.welchia_hosts = 1;
  config.duration = 60.0;
  const trace::Trace t = trace::generate_department_trace(config, 7);

  TraceFlowSource fast(t, 0.0);
  TraceFlowSource paced(t, 1e7);  // ~6 microseconds of pacing total
  const std::vector<Flow> a = drain(fast);
  const std::vector<Flow> b = drain(paced);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].host, b[i].host);
    EXPECT_EQ(a[i].dest, b[i].dest);
    EXPECT_EQ(a[i].failed, b[i].failed);
  }
}

TEST(SyntheticFlowSource, DeterministicAndSeedSensitive) {
  SyntheticConfig config;
  config.flows = 1000;
  config.hosts = 64;
  SyntheticFlowSource a(config), b(config);
  const std::vector<Flow> fa = drain(a), fb = drain(b);
  ASSERT_EQ(fa.size(), 1000u);
  ASSERT_EQ(fb.size(), 1000u);
  bool identical = true, any_failed = false, any_worm = false;
  for (std::size_t i = 0; i < fa.size(); ++i) {
    identical = identical && fa[i].host == fb[i].host &&
                fa[i].dest == fb[i].dest && fa[i].failed == fb[i].failed &&
                fa[i].time == fb[i].time;
    any_failed = any_failed || fa[i].failed;
    any_worm = any_worm || fa[i].labeled_worm;
    EXPECT_LT(fa[i].host, config.hosts);
  }
  EXPECT_TRUE(identical);
  EXPECT_TRUE(any_failed);

  config.seed = 43;
  SyntheticFlowSource c(config);
  const std::vector<Flow> fc = drain(c);
  bool differs = false;
  for (std::size_t i = 0; i < fc.size(); ++i)
    differs = differs || fc[i].host != fa[i].host || fc[i].dest != fa[i].dest;
  EXPECT_TRUE(differs);
}

TEST(SyntheticFlowSource, WormHostsScanWideAndFailOften) {
  SyntheticConfig config;
  config.flows = 20000;
  config.hosts = 100;
  config.worm_fraction = 0.1;  // hosts 0..9 are scanners
  SyntheticFlowSource source(config);
  std::uint64_t worm_flows = 0, worm_failed = 0;
  std::uint64_t benign_flows = 0, benign_failed = 0;
  Flow f;
  while (source.next(f)) {
    if (f.labeled_worm) {
      EXPECT_LT(f.host, 10u);
      ++worm_flows;
      worm_failed += f.failed ? 1 : 0;
    } else {
      ++benign_flows;
      benign_failed += f.failed ? 1 : 0;
    }
  }
  ASSERT_GT(worm_flows, 0u);
  ASSERT_GT(benign_flows, 0u);
  EXPECT_GT(static_cast<double>(worm_failed) / worm_flows, 0.8);
  EXPECT_LT(static_cast<double>(benign_failed) / benign_flows, 0.1);
}

}  // namespace
}  // namespace dq::serve
