#include "obs/span.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <map>
#include <ostream>

#include "campaign/json.hpp"

namespace dq::obs {

std::uint64_t span_clock_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

SpanBuffer* Profiler::track(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buffer : tracks_)
    if (buffer->track() == name) return buffer.get();
  tracks_.push_back(std::make_unique<SpanBuffer>(name, capacity_));
  return tracks_.back().get();
}

std::uint64_t Profiler::total_spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& buffer : tracks_) n += buffer->spans().size();
  return n;
}

std::uint64_t Profiler::total_dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& buffer : tracks_) n += buffer->dropped();
  return n;
}

void Profiler::write_chrome_trace(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mu_);
  // Normalize timestamps to the earliest span so traces start at ~0 —
  // raw steady_clock epochs confuse the tracing UIs' zoom.
  std::uint64_t epoch = std::numeric_limits<std::uint64_t>::max();
  for (const auto& buffer : tracks_)
    for (const SpanRecord& s : buffer->spans())
      epoch = std::min(epoch, s.start_ns);
  if (epoch == std::numeric_limits<std::uint64_t>::max()) epoch = 0;

  std::string body = "{\"traceEvents\":[";
  bool first = true;
  char buf[160];
  for (std::size_t tid = 0; tid < tracks_.size(); ++tid) {
    if (!first) body += ',';
    first = false;
    body +=
        "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":" +
        std::to_string(tid) + ",\"args\":{\"name\":";
    body += campaign::JsonValue::str(tracks_[tid]->track()).dump();
    body += "}}";
  }
  for (std::size_t tid = 0; tid < tracks_.size(); ++tid) {
    for (const SpanRecord& s : tracks_[tid]->spans()) {
      if (!first) body += ',';
      first = false;
      body += "{\"ph\":\"X\",\"name\":";
      body += campaign::JsonValue::str(s.name).dump();
      std::snprintf(buf, sizeof buf,
                    ",\"pid\":1,\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f}",
                    tid, static_cast<double>(s.start_ns - epoch) * 1e-3,
                    static_cast<double>(s.dur_ns) * 1e-3);
      body += buf;
    }
  }
  body += "],\"displayTimeUnit\":\"ms\"}\n";
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
}

std::vector<PhaseStats> Profiler::aggregate() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, PhaseStats> by_name;
  for (const auto& buffer : tracks_) {
    for (const SpanRecord& s : buffer->spans()) {
      PhaseStats& stats = by_name[s.name];
      if (stats.count == 0) {
        stats.name = s.name;
        stats.min_ns = s.dur_ns;
        stats.max_ns = s.dur_ns;
      }
      ++stats.count;
      stats.total_ns += s.dur_ns;
      stats.min_ns = std::min(stats.min_ns, s.dur_ns);
      stats.max_ns = std::max(stats.max_ns, s.dur_ns);
    }
  }
  std::vector<PhaseStats> out;
  out.reserve(by_name.size());
  for (auto& [name, stats] : by_name) out.push_back(std::move(stats));
  std::sort(out.begin(), out.end(),
            [](const PhaseStats& a, const PhaseStats& b) {
              if (a.total_ns != b.total_ns) return a.total_ns > b.total_ns;
              return a.name < b.name;
            });
  return out;
}

std::string Profiler::render_table() const {
  const std::vector<PhaseStats> stats = aggregate();
  std::string out;
  char line[200];
  std::snprintf(line, sizeof line, "%-24s %10s %12s %12s %12s %12s\n",
                "phase", "count", "total ms", "mean us", "min us", "max us");
  out += line;
  for (const PhaseStats& s : stats) {
    const double mean_us =
        static_cast<double>(s.total_ns) / static_cast<double>(s.count) * 1e-3;
    std::snprintf(line, sizeof line,
                  "%-24s %10llu %12.3f %12.2f %12.2f %12.2f\n",
                  s.name.c_str(), static_cast<unsigned long long>(s.count),
                  static_cast<double>(s.total_ns) * 1e-6, mean_us,
                  static_cast<double>(s.min_ns) * 1e-3,
                  static_cast<double>(s.max_ns) * 1e-3);
    out += line;
  }
  const std::uint64_t dropped = total_dropped();
  if (dropped > 0) {
    std::snprintf(line, sizeof line,
                  "(%llu spans dropped: buffers at capacity)\n",
                  static_cast<unsigned long long>(dropped));
    out += line;
  }
  return out;
}

}  // namespace dq::obs
