// Shared pieces of the benchmark: the clock, exact sample statistics,
// peak memory, a streaming digest, the in-memory span tracer, the
// decision sink the serve workloads write into, and the per-run report
// every workload fills.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <streambuf>
#include <string>
#include <vector>

namespace perfbench {

std::uint64_t now_ns() noexcept;
double seconds_since(std::uint64_t start_ns) noexcept;

/// splitmix64 finalizer: the benchmark's own input generators hash
/// with this, so generated inputs never depend on the program's code.
inline std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Nearest-rank quantile (q in [0,1]) of exact samples. Reorders the
/// samples in place, so large sample buffers are not copied.
template <typename T>
double quantile(std::vector<T>& samples, double q) {
  if (samples.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  i = std::min(i, samples.size() - 1);
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(i),
                   samples.end());
  return static_cast<double>(samples[i]);
}
inline double median(std::vector<double> samples) {
  return quantile(samples, 0.5);
}

/// Peak resident set size of this process so far (VmHWM), in MiB.
double peak_rss_mib();
/// Logical CPUs this process may run on (what `nproc` prints).
unsigned nproc();

/// Order-sensitive 64-bit digest of a byte stream, independent of how
/// the stream is split into writes. Hashes 8-byte words, so hashing a
/// decision stream costs a small fraction of producing it.
class Digest {
 public:
  void update(const char* data, std::size_t n) noexcept;
  std::uint64_t value() const noexcept;
  std::uint64_t bytes() const noexcept { return bytes_; }

 private:
  void word(std::uint64_t w) noexcept;
  std::uint64_t h_ = 0x243f6a8885a308d3ULL;
  std::uint64_t bytes_ = 0;
  unsigned char carry_[8] = {};
  unsigned carry_len_ = 0;
};

/// In-memory span tracer. A span has a name, start, end, parent and the
/// id of the traced run it belongs to. An aggregate span stands for
/// `count` disjoint calls on one thread inside [start, end): its busy
/// time is their summed duration, not end - start. Spans are written
/// out as NDJSON when the benchmark ends.
class Tracer {
 public:
  struct Span {
    int id = 0;
    int parent = -1;
    int run = 0;
    std::string name;
    std::string thread;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t busy_ns = 0;
    std::uint64_t count = 1;
  };

  void set_run(int run) noexcept { run_ = run; }
  /// Opens a span on the calling (main) thread; returns its id.
  int begin(const std::string& name, int parent);
  void end(int id);
  /// Records a closed span, or an aggregate of `count` calls.
  int add(const std::string& name, int parent, std::uint64_t start_ns,
          std::uint64_t end_ns, std::uint64_t busy_ns, std::uint64_t count,
          const std::string& thread = "main");

  const std::vector<Span>& spans() const noexcept { return spans_; }
  const Span& span(int id) const { return spans_.at(id); }
  /// Busy time minus the busy time of same-thread children.
  std::uint64_t self_ns(int id) const;
  /// Writes one JSON line per span, after a header line.
  bool write_ndjson(const std::string& path, const std::string& header) const;

 private:
  int run_ = 0;
  std::vector<Span> spans_;
};

/// RAII span on the tracer's main thread; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int parent)
      : tracer_(tracer), id_(tracer ? tracer->begin(name, parent) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  int id() const noexcept { return id_; }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// The benchmark-owned decision sink: an unbuffered streambuf the serve
/// pipeline writes its NDJSON into. It digests the stream and checks
/// that line k carries seq k+1, so "one decision per flow, in order" is
/// verified without storing the stream. With a latency buffer it also
/// records, for each decision line a write completes, the time since
/// that flow was due: base + k * period for the k-th flow (0-based).
///
/// The pipeline writes into it from the router thread, so this work is
/// inside the timed region, as writing to a file would be; `sink.s`
/// measures it.
class DecisionSink : public std::streambuf {
 public:
  /// `expected_flows` decision lines, then the summary line.
  DecisionSink(std::uint64_t expected_flows, double due_period_ns = 0.0,
               std::vector<std::uint32_t>* latencies = nullptr);

  std::uint64_t digest() const noexcept { return digest_.value(); }
  std::uint64_t bytes() const noexcept { return digest_.bytes(); }
  std::uint64_t writes() const noexcept { return writes_; }
  std::uint64_t lines() const noexcept { return lines_; }
  /// Decision lines whose seq matched their position.
  std::uint64_t lines_in_order() const noexcept { return in_order_; }
  std::uint64_t busy_ns() const noexcept { return busy_ns_; }
  std::uint64_t first_write_ns() const noexcept { return first_write_ns_; }
  std::uint64_t last_write_ns() const noexcept { return last_write_ns_; }
  /// Due base for computed due times (paced source sets it when it
  /// hands out its first flow).
  void set_due_base(std::uint64_t base_ns) noexcept { due_base_ns_ = base_ns; }

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override;
  int_type overflow(int_type c) override;

 private:
  void consume(const char* s, std::size_t n, std::uint64_t at_ns);
  void end_line(std::uint64_t at_ns);

  std::uint64_t expected_;
  std::uint64_t due_base_ns_ = 0;
  double due_period_ns_;
  std::vector<std::uint32_t>* latencies_;
  Digest digest_;
  std::uint64_t writes_ = 0;
  std::uint64_t lines_ = 0;
  std::uint64_t in_order_ = 0;
  std::uint64_t busy_ns_ = 0;
  std::uint64_t first_write_ns_ = 0;
  std::uint64_t last_write_ns_ = 0;
  char head_[24] = {};
  unsigned head_len_ = 0;
};

/// What one benchmark process measured. Workloads set metrics by name;
/// main.cpp owns the list of names and units and prints them.
struct Report {
  struct Shown {
    std::string name;
    double value;
    std::string unit;
  };

  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  /// Workload-specific names printed beside the metrics in the human
  /// section (e.g. flows_per_s for work_per_s).
  std::vector<Shown> shown;
  /// Extra human-readable lines (sample counts, settings).
  std::vector<std::string> notes;
  std::vector<std::string> failed_checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      failed_checks.push_back(what);
      ++failed;
    }
  }
  void note(const std::string& line) { notes.push_back(line); }
  void show(const std::string& name, double value, const std::string& unit) {
    shown.push_back({name, value, unit});
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs for the benchmark's own smoke tests.
  bool tiny = false;
  /// Name of one output to corrupt before it is checked (tests only).
  std::string corrupt;
  std::string workdir = ".";
  unsigned nproc = 1;
};

/// Formats a double for human notes.
std::string fmt(double v);
/// "label: v1 v2 ..." for human notes.
std::string fmt_list(const std::string& label, const std::vector<double>& v);

}  // namespace perfbench
