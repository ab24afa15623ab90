#include "obs/span.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/json.hpp"

namespace dq::obs {
namespace {

TEST(SpanBuffer, RecordsUntilCapacityThenCountsDrops) {
  SpanBuffer buf("t", 3);
  for (int i = 0; i < 5; ++i) buf.record("phase", 10 * i, 1);
  EXPECT_EQ(buf.spans().size(), 3u);
  EXPECT_EQ(buf.dropped(), 2u);
  EXPECT_EQ(buf.capacity(), 3u);
  EXPECT_EQ(buf.track(), "t");
  // The kept spans are the first three, in write order.
  EXPECT_EQ(buf.spans()[2].start_ns, 20u);
}

TEST(Span, NullBufferIsANoOp) {
  // The disabled path must be safe (and is the common case: every
  // instrumentation site runs with a null buffer when profiling is
  // off). Nothing observable to assert beyond "does not crash".
  const Span span(nullptr, "anything");
}

TEST(Span, ScopedTimingLandsInTheBuffer) {
  SpanBuffer buf("t", 8);
  {
    const Span span(&buf, "work");
  }
  ASSERT_EQ(buf.spans().size(), 1u);
  EXPECT_STREQ(buf.spans()[0].name, "work");
}

TEST(Profiler, TrackIsFindOrCreateWithStablePointers) {
  Profiler profiler;
  SpanBuffer* a = profiler.track("alpha");
  SpanBuffer* b = profiler.track("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(profiler.track("alpha"), a);
  EXPECT_EQ(profiler.track("beta"), b);
}

TEST(Profiler, TrackIsThreadSafe) {
  Profiler profiler;
  std::vector<SpanBuffer*> seen(8, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t)
    threads.emplace_back([&profiler, &seen, t] {
      seen[static_cast<std::size_t>(t)] = profiler.track("shared");
    });
  for (std::thread& t : threads) t.join();
  for (SpanBuffer* p : seen) EXPECT_EQ(p, seen[0]);
}

TEST(Profiler, TotalsSumAcrossTracks) {
  Profiler profiler(/*capacity_per_track=*/2);
  SpanBuffer* a = profiler.track("a");
  SpanBuffer* b = profiler.track("b");
  for (int i = 0; i < 3; ++i) a->record("x", 0, 1);  // one dropped
  b->record("y", 0, 1);
  EXPECT_EQ(profiler.total_spans(), 3u);
  EXPECT_EQ(profiler.total_dropped(), 1u);
}

TEST(Profiler, ChromeTraceIsValidJsonWithMetadataAndSpans) {
  Profiler profiler;
  SpanBuffer* track = profiler.track("router");
  track->record("batch", 2'000, 1'500);
  track->record("flush", 5'000, 500);

  std::ostringstream out;
  profiler.write_chrome_trace(out);
  const campaign::JsonValue doc = campaign::JsonValue::parse(out.str());
  const campaign::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->size(), 3u);  // 1 thread_name metadata + 2 spans

  const campaign::JsonValue& meta = events->items()[0];
  EXPECT_EQ(meta.find("ph")->as_string(), "M");
  EXPECT_EQ(meta.find("name")->as_string(), "thread_name");

  // Timestamps are microseconds normalized to the earliest span.
  const campaign::JsonValue& first = events->items()[1];
  EXPECT_EQ(first.find("ph")->as_string(), "X");
  EXPECT_EQ(first.find("name")->as_string(), "batch");
  EXPECT_DOUBLE_EQ(first.find("ts")->as_number(), 0.0);
  EXPECT_DOUBLE_EQ(first.find("dur")->as_number(), 1.5);
  const campaign::JsonValue& second = events->items()[2];
  EXPECT_DOUBLE_EQ(second.find("ts")->as_number(), 3.0);
}

TEST(Profiler, ChromeTraceEscapesQuotesAndBackslashesInNames) {
  Profiler profiler;
  SpanBuffer* track = profiler.track("job \"a\\b\"");
  track->record("say \"hi\" \\ bye", 1'000, 2'000);

  std::ostringstream out;
  profiler.write_chrome_trace(out);
  EXPECT_EQ(out.str(),
            "{\"traceEvents\":["
            "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":0,"
            "\"args\":{\"name\":\"job \\\"a\\\\b\\\"\"}},"
            "{\"ph\":\"X\",\"name\":\"say \\\"hi\\\" \\\\ bye\",\"pid\":1,"
            "\"tid\":0,\"ts\":0.000,\"dur\":2.000}"
            "],\"displayTimeUnit\":\"ms\"}\n");
}

TEST(Profiler, AggregateGroupsByNameSortedByTotalDescending) {
  Profiler profiler;
  SpanBuffer* a = profiler.track("a");
  SpanBuffer* b = profiler.track("b");
  a->record("small", 0, 10);
  a->record("big", 0, 1'000);
  b->record("small", 0, 30);

  const std::vector<PhaseStats> stats = profiler.aggregate();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "big");
  EXPECT_EQ(stats[0].count, 1u);
  EXPECT_EQ(stats[0].total_ns, 1'000u);
  EXPECT_EQ(stats[1].name, "small");
  EXPECT_EQ(stats[1].count, 2u);
  EXPECT_EQ(stats[1].total_ns, 40u);
  EXPECT_EQ(stats[1].min_ns, 10u);
  EXPECT_EQ(stats[1].max_ns, 30u);

  const std::string table = profiler.render_table();
  EXPECT_NE(table.find("big"), std::string::npos);
  EXPECT_NE(table.find("small"), std::string::npos);
}

}  // namespace
}  // namespace dq::obs
