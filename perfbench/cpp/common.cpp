#include "common.hpp"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <thread>

namespace perfbench {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds_since(std::uint64_t start_ns) noexcept {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

unsigned nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

void Digest::word(std::uint64_t w) noexcept {
  h_ = (h_ ^ w) * 0x9e3779b97f4a7c15ULL;
  h_ ^= h_ >> 29;
}

void Digest::update(const char* data, std::size_t n) noexcept {
  bytes_ += n;
  while (carry_len_ != 0 && n > 0) {
    carry_[carry_len_++] = static_cast<unsigned char>(*data++);
    --n;
    if (carry_len_ == 8) {
      std::uint64_t w;
      std::memcpy(&w, carry_, 8);
      word(w);
      carry_len_ = 0;
    }
  }
  while (n >= 8) {
    std::uint64_t w;
    std::memcpy(&w, data, 8);
    word(w);
    data += 8;
    n -= 8;
  }
  while (n > 0) {
    carry_[carry_len_++] = static_cast<unsigned char>(*data++);
    --n;
  }
}

std::uint64_t Digest::value() const noexcept {
  std::uint64_t h = h_;
  for (unsigned i = 0; i < carry_len_; ++i)
    h = (h ^ carry_[i]) * 0x100000001b3ULL;
  return mix(h ^ bytes_);
}

int Tracer::begin(const std::string& name, int parent) {
  const std::uint64_t t = now_ns();
  return add(name, parent, t, t, 0, 1);
}

void Tracer::end(int id) {
  Span& s = spans_.at(static_cast<std::size_t>(id));
  s.end_ns = now_ns();
  s.busy_ns = s.end_ns - s.start_ns;
}

int Tracer::add(const std::string& name, int parent, std::uint64_t start_ns,
                std::uint64_t end_ns, std::uint64_t busy_ns,
                std::uint64_t count, const std::string& thread) {
  Span s;
  s.id = static_cast<int>(spans_.size());
  s.parent = parent;
  s.run = run_;
  s.name = name;
  s.thread = thread;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.busy_ns = busy_ns;
  s.count = count;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::uint64_t Tracer::self_ns(int id) const {
  const Span& s = span(id);
  std::uint64_t children = 0;
  for (const Span& c : spans_)
    if (c.parent == id && c.thread == s.thread) children += c.busy_ns;
  return children >= s.busy_ns ? 0 : s.busy_ns - children;
}

bool Tracer::write_ndjson(const std::string& path,
                          const std::string& header) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%s\n", header.c_str());
  std::uint64_t origin = std::numeric_limits<std::uint64_t>::max();
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"run\":%d,\"id\":%d,\"parent\":%d,\"name\":\"%s\","
                 "\"thread\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                 "\"busy_ns\":%llu,\"count\":%llu,\"self_ns\":%llu}\n",
                 s.run, s.id, s.parent, s.name.c_str(), s.thread.c_str(),
                 static_cast<unsigned long long>(s.start_ns - origin),
                 static_cast<unsigned long long>(s.end_ns - origin),
                 static_cast<unsigned long long>(s.busy_ns),
                 static_cast<unsigned long long>(s.count),
                 static_cast<unsigned long long>(self_ns(s.id)));
  }
  return std::fclose(f) == 0;
}

DecisionSink::DecisionSink(std::uint64_t expected_flows, double due_period_ns,
                           std::vector<std::uint32_t>* latencies)
    : expected_(expected_flows),
      due_period_ns_(due_period_ns),
      latencies_(latencies) {}

std::streamsize DecisionSink::xsputn(const char* s, std::streamsize n) {
  const std::uint64_t at = now_ns();
  if (first_write_ns_ == 0) first_write_ns_ = at;
  last_write_ns_ = at;
  ++writes_;
  consume(s, static_cast<std::size_t>(n), at);
  busy_ns_ += now_ns() - at;
  return n;
}

DecisionSink::int_type DecisionSink::overflow(int_type c) {
  if (traits_type::eq_int_type(c, traits_type::eof())) return 0;
  const char ch = traits_type::to_char_type(c);
  xsputn(&ch, 1);
  return c;
}

void DecisionSink::consume(const char* s, std::size_t n, std::uint64_t at) {
  digest_.update(s, n);
  const char* p = s;
  const char* end = s + n;
  while (p < end) {
    const auto left = static_cast<std::size_t>(end - p);
    const char* nl = static_cast<const char*>(std::memchr(p, '\n', left));
    const char* seg_end = nl != nullptr ? nl : end;
    if (head_len_ < sizeof(head_)) {
      const std::size_t take = std::min<std::size_t>(
          sizeof(head_) - head_len_, static_cast<std::size_t>(seg_end - p));
      std::memcpy(head_ + head_len_, p, take);
      head_len_ += static_cast<unsigned>(take);
    }
    if (nl == nullptr) break;
    end_line(at);
    p = nl + 1;
  }
}

void DecisionSink::end_line(std::uint64_t at) {
  const std::uint64_t k = lines_++;
  const std::size_t len = head_len_;
  head_len_ = 0;
  if (k >= expected_) return;  // the summary line
  static constexpr char kPrefix[] = "{\"seq\":";
  constexpr std::size_t kPrefixLen = sizeof(kPrefix) - 1;
  if (len > kPrefixLen && std::memcmp(head_, kPrefix, kPrefixLen) == 0) {
    std::uint64_t seq = 0;
    std::size_t i = kPrefixLen;
    while (i < len && head_[i] >= '0' && head_[i] <= '9')
      seq = seq * 10 + static_cast<std::uint64_t>(head_[i++] - '0');
    if (i < len && head_[i] == ',' && seq == k + 1) ++in_order_;
  }
  if (latencies_ != nullptr) {
    const std::uint64_t due =
        due_base_ns_ +
        static_cast<std::uint64_t>(static_cast<double>(k) * due_period_ns_);
    const std::uint64_t lat = at > due ? at - due : 0;
    latencies_->push_back(static_cast<std::uint32_t>(std::min<std::uint64_t>(
        lat, std::numeric_limits<std::uint32_t>::max())));
  }
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string fmt_list(const std::string& label, const std::vector<double>& v) {
  std::string out = label + ":";
  for (const double x : v) out += " " + fmt(x);
  return out;
}

}  // namespace perfbench
