// serve-ndjson: a labeled NDJSON flow file, written during set-up and
// replayed as fast as possible through serve::NdjsonFlowSource into a
// 2-shard serve::ServeServer with the exact estimator and periodic
// checkpoints.
// serve-live: generated flows into a 2-shard server running the
// shared-bitmap estimator over 2^20 hosts. Each iteration offers the
// flows twice: once through a paced FlowSource on the router thread at a
// fixed offered rate (the open loop, for decision latency), then once
// unpaced (for time to result and throughput, which the pipeline sets).
//
// Decisions go to the benchmark's DecisionSink, which checks and
// digests the stream as it arrives and, on the paced runs, timestamps
// every decision line against its flow's due time.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "obs/span.hpp"
#include "quarantine/config.hpp"
#include "quarantine/engine.hpp"
#include "serve/flow.hpp"
#include "serve/server.hpp"
#include "serve/source.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using dq::quarantine::EstimatorBackend;
using dq::serve::Flow;
using dq::serve::FlowSource;

/// The benchmark's flow generator: flow i is a pure function of
/// (seed, i). It follows serve::SyntheticConfig's mix: the first 1% of
/// host ids are worm hosts, which scan random addresses and fail 90% of
/// the time; benign hosts cycle through eight destinations and fail 2%.
/// It departs from SyntheticConfig in one way: a worm host sends about
/// 25 times the flows of a benign host (20% of all flows come from the
/// 1% of worm hosts), where SyntheticConfig picks hosts uniformly.
/// 25x is the low end of the 26-36x per-host ratio in the repository's
/// department trace model (trace::generate_department_trace, the
/// stand-in for the paper's edge-router trace). With uniform hosts, a
/// host out of 2^20 sends under one flow per serve-live run, so no worm
/// host could reach the detector's 10-attempt minimum.
struct FlowGen {
  std::uint64_t seed;
  std::uint32_t hosts;
  double dt;  ///< seconds between consecutive flows

  Flow at(std::uint64_t i) const {
    const std::uint32_t worm_hosts = std::max<std::uint32_t>(1, hosts / 100);
    const std::uint64_t r0 = mix(seed ^ (i * 0x9e3779b97f4a7c15ULL));
    const std::uint64_t r1 = mix(r0);
    const std::uint64_t r2 = mix(r1);
    const bool worm = r0 % 100 < 20;
    Flow f;
    f.time = static_cast<double>(i) * dt;
    f.host = worm ? static_cast<std::uint32_t>(r1 % worm_hosts)
                  : worm_hosts + static_cast<std::uint32_t>(
                                     r1 % (hosts - worm_hosts));
    f.dest = worm ? (r2 & 0xffffffffULL)
                  : static_cast<std::uint64_t>(f.host) * 8 + r2 % 8;
    f.failed = (r2 >> 40) % 1000 < (worm ? 900u : 20u);
    f.labeled_worm = worm;
    return f;
  }
};

/// One NDJSON flow line in the serve input schema, with '\n'.
std::string flow_line(const Flow& f) {
  char buf[160];
  const int n = std::snprintf(
      buf, sizeof(buf),
      "{\"t\":%.4f,\"host\":%u,\"dest\":%llu,\"failed\":%s,\"worm\":%s}\n",
      f.time, f.host, static_cast<unsigned long long>(f.dest),
      f.failed ? "true" : "false", f.labeled_worm ? "true" : "false");
  return std::string(buf, static_cast<std::size_t>(n));
}

/// The dqctl serve detector defaults.
dq::quarantine::QuarantineConfig quarantine_config(EstimatorBackend backend) {
  dq::quarantine::QuarantineConfig c;
  c.enabled = true;
  c.detector.window = 5.0;
  c.detector.contact_rate_threshold = 25.0;
  c.detector.distinct_dest_threshold = 20.0;
  c.detector.failure_ratio_threshold = 0.9;
  c.detector.failure_min_attempts = 10;
  c.policy.strikes_to_quarantine = 1;
  c.policy.base_period = 300.0;
  c.policy.escalation = 4.0;
  c.policy.max_period = 3600.0;
  c.estimator_backend = backend;
  return c;
}

/// The flow file, opened as a NdjsonFlowSource.
class FileSource : public FlowSource {
 public:
  FileSource(const std::string& path, std::uint32_t hosts)
      : in_(path), ndjson_(in_, hosts) {}
  bool next(Flow& out) override { return ndjson_.next(out); }
  std::uint64_t parse_errors() const noexcept override {
    return ndjson_.parse_errors();
  }
  const std::vector<std::string>& parse_error_samples()
      const noexcept override {
    return ndjson_.parse_error_samples();
  }

 private:
  std::ifstream in_;
  dq::serve::NdjsonFlowSource ndjson_;
};

/// Sums the router's time inside the wrapped source's next(). Used on
/// traced runs only.
class TimedSource : public FlowSource {
 public:
  explicit TimedSource(FlowSource& inner) : inner_(inner) {}
  bool next(Flow& out) override {
    const std::uint64_t enter = now_ns();
    const bool ok = inner_.next(out);
    busy_ns += now_ns() - enter;
    ++calls;
    return ok;
  }
  std::uint64_t parse_errors() const noexcept override {
    return inner_.parse_errors();
  }
  const std::vector<std::string>& parse_error_samples()
      const noexcept override {
    return inner_.parse_error_samples();
  }

  std::uint64_t busy_ns = 0, calls = 0;

 private:
  FlowSource& inner_;
};

/// Generated flows, as fast as the router asks for them.
class GenSource : public FlowSource {
 public:
  GenSource(const FlowGen& gen, std::uint64_t total)
      : gen_(gen), total_(total) {}
  bool next(Flow& out) override {
    if (i_ >= total_) return false;
    out = gen_.at(i_++);
    return true;
  }

 private:
  FlowGen gen_;
  std::uint64_t total_;
  std::uint64_t i_ = 0;
};

/// What the paced source records on traced runs.
struct LoadgenStats {
  std::uint64_t idle_ns = 0;
  std::vector<std::uint32_t> late_ns;  ///< handoff minus due, per flow
};

/// The open-loop load generator: flow i is due at base + i * period,
/// where base is the moment the router asks for the first flow. It
/// spins until a flow is due, so a stall in the pipeline makes later
/// flows late instead of lowering the offered rate.
class PacedSource : public FlowSource {
 public:
  PacedSource(const FlowGen& gen, std::uint64_t total, double period_ns,
              DecisionSink& sink, LoadgenStats* stats)
      : gen_(gen), total_(total), period_ns_(period_ns), sink_(sink),
        stats_(stats) {
    if (stats_ != nullptr) stats_->late_ns.reserve(total);
  }

  bool next(Flow& out) override {
    if (i_ >= total_) return false;
    std::uint64_t now = now_ns();
    if (i_ == 0) {
      base_ = now;
      sink_.set_due_base(base_);
    }
    const std::uint64_t due =
        base_ +
        static_cast<std::uint64_t>(static_cast<double>(i_) * period_ns_);
    const std::uint64_t enter = now;
    while (now < due) {
#if defined(__x86_64__)
      _mm_pause();
#endif
      now = now_ns();
    }
    out = gen_.at(i_++);
    if (stats_ != nullptr) {
      stats_->idle_ns += now - enter;
      stats_->late_ns.push_back(static_cast<std::uint32_t>(
          std::min<std::uint64_t>(now_ns() - due, 0xffffffffULL)));
    }
    return true;
  }

 private:
  FlowGen gen_;
  std::uint64_t total_;
  double period_ns_;
  DecisionSink& sink_;
  LoadgenStats* stats_;
  std::uint64_t i_ = 0;
  std::uint64_t base_ = 0;
};

/// What one serve run produced.
struct ServeSample {
  double setup_s = 0, ttr_s = 0, flows_per_s = 0;
  double router_stalls = 0, worker_stalls = 0;
  // traced only
  double read_parse_s = 0, sink_s = 0, sink_writes = 0, sink_bytes = 0;
  double checkpoint_s = 0, checkpoint_count = 0, router_self_s = 0;
  double busy_max = 0, busy_min = 0;
};

/// Records the spans of one traced serve run and fills the traced fields
/// of its sample. `source` is the router's time inside the source,
/// split off as read/parse (or generation).
void trace_serve_run(Tracer& tracer, dq::obs::Profiler& profiler,
                     std::size_t shards, std::uint64_t t0, std::uint64_t t1,
                     std::uint64_t t2, const char* source_name,
                     const TimedSource& source, const DecisionSink& sink,
                     ServeSample& s) {
  const int root = tracer.add("iteration", -1, t0, t2, t2 - t0, 1);
  tracer.add("serve.setup", root, t0, t1, t1 - t0, 1);
  const int run = tracer.add("serve.run", root, t1, t2, t2 - t1, 1);
  tracer.add(source_name, run, t1, t2, source.busy_ns, source.calls);
  tracer.add("sink.write", run, sink.first_write_ns(), sink.last_write_ns(),
             sink.busy_ns(), sink.writes());
  std::uint64_t ck_ns = 0, ck_count = 0;
  for (const dq::obs::SpanRecord& sr :
       profiler.track("serve/router")->spans()) {
    tracer.add(std::string("serve.") + sr.name, run, sr.start_ns,
               sr.start_ns + sr.dur_ns, sr.dur_ns, 1);
    if (std::string(sr.name) == "checkpoint") ck_ns += sr.dur_ns, ++ck_count;
  }
  const double wall = static_cast<double>(t2 - t1);
  double busy_max = 0.0, busy_min = 1.0;
  for (std::size_t sh = 0; sh < shards; ++sh) {
    const std::string track = "serve/shard" + std::to_string(sh);
    std::uint64_t busy = 0, n = 0, first = 0, last = 0;
    for (const dq::obs::SpanRecord& sr : profiler.track(track)->spans()) {
      if (n++ == 0) first = sr.start_ns;
      busy += sr.dur_ns;
      last = sr.start_ns + sr.dur_ns;
    }
    tracer.add("worker.batches", run, first, last, busy, n, track);
    const double frac = wall > 0 ? static_cast<double>(busy) / wall : 0.0;
    busy_max = std::max(busy_max, frac);
    busy_min = std::min(busy_min, frac);
  }
  s.read_parse_s = static_cast<double>(source.busy_ns) * 1e-9;
  s.sink_s = static_cast<double>(sink.busy_ns()) * 1e-9;
  s.sink_writes = static_cast<double>(sink.writes());
  s.sink_bytes = static_cast<double>(sink.bytes());
  s.checkpoint_s = static_cast<double>(ck_ns) * 1e-9;
  s.checkpoint_count = static_cast<double>(ck_count);
  s.router_self_s = static_cast<double>(tracer.self_ns(run)) * 1e-9;
  s.busy_max = busy_max;
  s.busy_min = busy_min;
}

/// One timed serve run: server construction and `open()` (the set-up),
/// then run() into `sink`. With a tracer, the server gets a profiler,
/// the source is timed, and the run's spans are recorded.
template <typename Open>
ServeSample serve_once(const dq::serve::ServeOptions& options,
                       std::uint64_t flows, DecisionSink& sink, Open&& open,
                       Tracer* tracer, const char* source_name,
                       dq::serve::ServeSummary& summary) {
  dq::serve::reset_stop();
  dq::obs::Profiler profiler(flows + 1024);
  dq::serve::ServeOptions opt = options;
  if (tracer != nullptr) opt.profiler = &profiler;
  std::ostream out(&sink);
  ServeSample s;

  const std::uint64_t t0 = now_ns();
  dq::serve::ServeServer server(opt);
  const std::unique_ptr<FlowSource> source = open();
  TimedSource timed(*source);
  const std::uint64_t t1 = now_ns();
  summary = server.run(tracer != nullptr ? static_cast<FlowSource&>(timed)
                                         : *source,
                       &out, nullptr);
  const std::uint64_t t2 = now_ns();

  s.setup_s = static_cast<double>(t1 - t0) * 1e-9;
  s.ttr_s = static_cast<double>(t2 - t0) * 1e-9;
  s.flows_per_s = static_cast<double>(summary.flows_decided) / s.ttr_s;
  s.router_stalls = static_cast<double>(
      counter_value(server.metrics(), "serve.router_stalls"));
  s.worker_stalls = static_cast<double>(
      counter_value(server.metrics(), "serve.worker_stalls"));
  if (tracer != nullptr)
    trace_serve_run(*tracer, profiler, opt.shards, t0, t1, t2, source_name,
                    timed, sink, s);
  return s;
}

/// Outputs compared across runs and against the 1-shard run.
struct StreamResult {
  std::uint64_t digest = 0, lines = 0;
  std::string summary;
  bool operator==(const StreamResult&) const = default;
};

/// The serve output checks. Every run's stream must hold one decision
/// per offered flow, in order, and equal every other run's stream and
/// that of a 1-shard reference run.
struct StreamChecks {
  std::optional<StreamResult> first;
  bool deterministic = true;
  dq::serve::ServeSummary last;

  void add(Report& r, const dq::serve::ServeSummary& summary,
           const DecisionSink& sink, std::uint64_t flows) {
    const std::uint64_t in_order = sink.lines_in_order();
    r.attempted += flows;
    r.failed += summary.parse_errors + summary.shed_flows +
                (flows > in_order ? flows - in_order : 0);
    r.check(in_order == flows && sink.lines() == flows + 1,
            "exactly one decision per offered flow, in order");
    r.check(summary.flows_decided == flows && summary.parse_errors == 0 &&
                summary.shed_flows == 0,
            "summary decided every flow with no parse errors or shedding");
    const StreamResult got{sink.digest(), sink.lines(),
                           summary.to_json().dump()};
    if (!first)
      first = got;
    else
      deterministic &= got == *first;
    last = summary;
  }

  /// Runs the flows `open()` gives through one shard, with no profiler
  /// and no checkpoints, outside the timed region, and compares.
  template <typename Open>
  void reference(Report& r, const Options& o, dq::serve::ServeOptions options,
                 std::uint64_t flows, Open&& open) {
    dq::serve::reset_stop();
    options.shards = 1;
    options.profiler = nullptr;
    options.checkpoint_path.clear();
    options.checkpoint_interval_flows = 0;
    DecisionSink sink(flows);
    std::ostream out(&sink);
    dq::serve::ServeServer server(options);
    const std::unique_ptr<FlowSource> source = open();
    const dq::serve::ServeSummary summary = server.run(*source, &out, nullptr);
    StreamResult ref{sink.digest(), sink.lines(), summary.to_json().dump()};
    if (o.corrupt == "digest") ref.digest ^= 1;
    r.check(first && ref == *first,
            "decision-stream digest and summary equal a 1-shard run");
    r.check(deterministic, "every run writes the same decisions");
  }
};

/// Runs `fn` over `items` repeatedly for about `budget_s` after one
/// warm-up pass; returns nanoseconds per item.
template <typename Fn>
double ns_per_item(std::size_t items, double budget_s, Fn&& fn) {
  fn();  // warm-up
  const std::uint64_t start = now_ns();
  std::size_t passes = 0;
  do {
    fn();
    ++passes;
  } while (seconds_since(start) < budget_s);
  return static_cast<double>(now_ns() - start) /
         static_cast<double>(passes * items);
}

/// QuarantineEngine::observe over `flows` on a fresh engine, in ns/flow.
double observe_ns(const std::vector<Flow>& flows, std::uint32_t hosts,
                  EstimatorBackend backend, double budget_s) {
  dq::quarantine::QuarantineEngine engine(hosts, quarantine_config(backend));
  const double span = flows.back().time + 1000.0;
  double offset = 0.0;
  return ns_per_item(flows.size(), budget_s, [&] {
    for (const Flow& x : flows) {
      const double t = x.time + offset;
      engine.advance_to(t);
      engine.observe(x.host, x.dest, t, x.failed);
    }
    offset += span;  // keeps time non-decreasing across passes
  });
}

/// Standalone timings of parse_flow_line, QuarantineEngine::observe
/// (both backends) and append_decision_line over the workload's own
/// lines and flows. Returns false if a line fails to parse.
bool standalone_timings(const std::vector<std::string>& lines,
                        const FlowGen& gen, std::uint64_t flows,
                        EstimatorBackend backend, bool tiny, Report& r) {
  const double budget = tiny ? 0.02 : 0.25;
  bool parsed = true;
  Flow f;
  r.layer["parse.ns_per_line"] = ns_per_item(lines.size(), budget, [&] {
    for (const std::string& l : lines)
      parsed &= dq::serve::parse_flow_line(
          std::string_view(l.data(), l.size() - 1), gen.hosts, f);
  });

  const std::uint64_t n =
      std::min<std::uint64_t>(flows, tiny ? 20000 : 1000000);
  std::vector<Flow> sample, worm, benign;
  sample.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    sample.push_back(gen.at(i));
    (sample.back().labeled_worm ? worm : benign).push_back(sample.back());
  }
  for (const EstimatorBackend b :
       {EstimatorBackend::kExact, EstimatorBackend::kSharedBitmap}) {
    const double ns = observe_ns(sample, gen.hosts, b, budget);
    r.layer[b == EstimatorBackend::kExact
                ? "observe_exact.ns_per_flow"
                : "observe_shared_bitmap.ns_per_flow"] = ns;
    if (b == backend) r.layer["observe.ns_per_flow"] = ns;
  }
  // What the generator's worm-host skew puts on worm hosts.
  const double worm_ns = observe_ns(worm, gen.hosts, backend, budget);
  const double benign_ns = observe_ns(benign, gen.hosts, backend, budget);
  const double worm_time = worm_ns * static_cast<double>(worm.size());
  r.note("worm hosts: " +
         fmt(static_cast<double>(worm.size()) / static_cast<double>(n)) +
         " of flows, " +
         fmt(worm_time /
             (worm_time + benign_ns * static_cast<double>(benign.size()))) +
         " of observe time (" + fmt(worm_ns) + " ns/flow worm-only, " +
         fmt(benign_ns) + " ns/flow benign-only)");

  std::vector<dq::serve::Decision> decisions;
  decisions.reserve(sample.size());
  for (std::size_t i = 0; i < sample.size(); ++i) {
    dq::serve::Decision d;
    d.seq = i + 1;
    d.time = sample[i].time;
    d.host = sample[i].host;
    d.dest = sample[i].dest;
    d.failed = sample[i].failed;
    decisions.push_back(d);
  }
  std::string out;
  out.reserve(std::size_t{1} << 17);
  r.layer["format.ns_per_line"] = ns_per_item(decisions.size(), budget, [&] {
    for (const dq::serve::Decision& d : decisions) {
      dq::serve::append_decision_line(d, out);
      if (out.size() >= (std::size_t{1} << 16)) out.clear();
    }
  });
  r.note("standalone timings: parse_flow_line over " +
         std::to_string(lines.size()) + " lines, observe over " +
         std::to_string(n) + " flows per backend, append_decision_line over " +
         std::to_string(decisions.size()) + " decisions");
  return parsed;
}

void report_serve_e2e(Report& r, const std::vector<ServeSample>& untraced,
                      double peak_rss) {
  std::vector<double> ttr;
  for (const ServeSample& s : untraced) ttr.push_back(s.ttr_s);
  r.e2e["setup_s"] = median_of(untraced, &ServeSample::setup_s);
  r.e2e["time_to_result_s"] = median(ttr);
  r.e2e["work_per_s"] = median_of(untraced, &ServeSample::flows_per_s);
  r.e2e["peak_rss_mib"] = peak_rss;
  r.show("flows_per_s", r.e2e["work_per_s"], "1/s");
  r.note(fmt_list("time_to_result_s per untraced iteration", ttr));
}

void report_serve_layers(Report& r, const std::vector<ServeSample>& traced,
                         const std::vector<ServeSample>& untraced,
                         const dq::serve::ServeSummary& summary) {
  const ServeSample& m = median_sample(traced, &ServeSample::ttr_s);
  r.layer["serve.setup_s"] = m.setup_s;
  r.layer["serve.read_parse_s"] = m.read_parse_s;
  r.layer["sink.s"] = m.sink_s;
  r.layer["sink.writes"] = m.sink_writes;
  r.layer["sink.bytes"] = m.sink_bytes;
  r.layer["router.self_s"] = m.router_self_s;
  r.layer["worker.busy_frac_max"] = m.busy_max;
  r.layer["worker.busy_frac_min"] = m.busy_min;
  r.layer["queue.router_stalls"] = m.router_stalls;
  r.layer["queue.worker_stalls"] = m.worker_stalls;
  r.layer["checkpoint.s"] = m.checkpoint_s;
  r.layer["checkpoint.count"] = m.checkpoint_count;
  r.layer["quarantine.detected_targets"] = summary.report.detected_targets;
  r.layer["quarantine.false_positive_hosts"] =
      summary.report.false_positive_hosts;
  r.layer["remainder_s"] = m.ttr_s - m.setup_s - m.read_parse_s - m.sink_s -
                           m.checkpoint_s - m.router_self_s;
  report_overhead(r, median_of(untraced, &ServeSample::ttr_s), m.ttr_s);
}

}  // namespace

void run_serve_ndjson(const Options& o, Report& r, Tracer& tracer) {
  const std::uint64_t flows = o.tiny ? 20000 : 1000000;
  const std::uint32_t hosts = std::uint32_t{1} << 16;
  const FlowGen gen{mix(o.seed ^ 0x6e646a736f6eULL), hosts, 1e-4};
  const std::string path = o.workdir + "/flows.ndjson";
  const std::string ckpt = o.workdir + "/checkpoint.json";

  // Set-up owned by the benchmark: write the flow file.
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    std::string buf;
    for (std::uint64_t i = 0; i < flows; ++i) {
      buf += flow_line(gen.at(i));
      if (buf.size() >= (std::size_t{1} << 20)) {
        std::fwrite(buf.data(), 1, buf.size(), f);
        buf.clear();
      }
    }
    std::fwrite(buf.data(), 1, buf.size(), f);
    if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
  }

  dq::serve::ServeOptions options;
  options.shards = 2;
  options.num_hosts = hosts;
  options.quarantine = quarantine_config(EstimatorBackend::kExact);
  options.checkpoint_path = ckpt;
  options.checkpoint_interval_flows = o.tiny ? 5000 : 100000;
  const auto open = [&] { return std::make_unique<FileSource>(path, hosts); };

  std::vector<ServeSample> untraced, traced;
  StreamChecks checks;
  double peak_before_checks = 0.0, checkpoint_bytes = 0.0;

  measured_loop(o, o.trace ? 1 : 3, [&](bool t, std::size_t index) {
    if (t) tracer.set_run(static_cast<int>(index));
    DecisionSink sink(flows);
    dq::serve::ServeSummary summary;
    const ServeSample s =
        serve_once(options, flows, sink, open, t ? &tracer : nullptr,
                   "serve.read_parse", summary);
    (t ? traced : untraced).push_back(s);
    peak_before_checks = std::max(peak_before_checks, peak_rss_mib());
    checkpoint_bytes = static_cast<double>(std::filesystem::file_size(ckpt));
    checks.add(r, summary, sink, flows);
  });
  checks.reference(r, o, options, flows, open);

  r.note("flows " + std::to_string(flows) + " per replay, " +
         std::to_string(untraced.size() + traced.size()) + " replays");
  report_serve_e2e(r, untraced, peak_before_checks);
  if (o.trace) {
    report_serve_layers(r, traced, untraced, checks.last);
    r.layer["checkpoint.bytes"] = checkpoint_bytes;
    std::vector<std::string> lines;
    {
      std::ifstream in(path);
      std::string line;
      const std::size_t want = o.tiny ? 5000 : 200000;
      while (lines.size() < want && std::getline(in, line))
        lines.push_back(line + "\n");
    }
    r.check(standalone_timings(lines, gen, flows, EstimatorBackend::kExact,
                               o.tiny, r),
            "every generated line parses");
  }
  std::filesystem::remove(path);
  std::filesystem::remove(ckpt);
}

void run_serve_live(const Options& o, Report& r, Tracer& tracer) {
  // Tiny runs offer too few flows for 2^20 hosts to show a detection.
  const std::uint32_t hosts = std::uint32_t{1} << (o.tiny ? 12 : 20);
  const double rate = o.tiny ? 200000.0 : 600000.0;  // offered flows/s
  // An iteration takes about 1.5 times its paced run: the unpaced run
  // goes at about twice the offered rate. 18 paced-run lengths fill a
  // run with about 12 iterations.
  const auto flows = static_cast<std::uint64_t>(
      std::max(1000.0, rate * o.seconds / 18.0));
  const FlowGen gen{mix(o.seed ^ 0x6c6976652d666c6fULL), hosts, 1.0 / rate};
  const double period_ns = 1e9 / rate;

  dq::serve::ServeOptions options;
  options.shards = 2;
  options.num_hosts = hosts;
  options.quarantine = quarantine_config(EstimatorBackend::kSharedBitmap);
  const auto open_gen = [&] { return std::make_unique<GenSource>(gen, flows); };

  std::vector<ServeSample> untraced, traced;  // the unpaced runs
  std::vector<double> p50, p99, paced_rate, idle_s, late_p99;
  std::vector<std::uint32_t> latencies;
  latencies.reserve(flows);
  StreamChecks checks;
  double peak_before_checks = 0.0;

  measured_loop(o, o.trace ? 1 : 3, [&](bool t, std::size_t index) {
    if (t) tracer.set_run(static_cast<int>(index));
    {
      // The open loop. Untraced, it samples decision latency; traced,
      // it records the generator's idle time and lateness.
      DecisionSink sink(flows, period_ns, t ? nullptr : &latencies);
      LoadgenStats stats;
      dq::serve::ServeSummary summary;
      const auto open_paced = [&] {
        return std::make_unique<PacedSource>(gen, flows, period_ns, sink,
                                             t ? &stats : nullptr);
      };
      const std::uint64_t t0 = now_ns();
      const ServeSample s = serve_once(options, flows, sink, open_paced,
                                       nullptr, nullptr, summary);
      if (t) {
        const std::uint64_t t1 = now_ns();
        const int paced =
            tracer.add("paced.iteration", -1, t0, t1, t1 - t0, 1);
        tracer.add("loadgen.idle", paced, t0, t1, stats.idle_ns, flows);
        idle_s.push_back(static_cast<double>(stats.idle_ns) * 1e-9);
        late_p99.push_back(quantile(stats.late_ns, 0.99) * 1e-6);
      } else {
        p50.push_back(quantile(latencies, 0.5) * 1e-6);
        p99.push_back(quantile(latencies, 0.99) * 1e-6);
        paced_rate.push_back(s.flows_per_s);
        latencies.clear();
      }
      checks.add(r, summary, sink, flows);
    }
    {
      // The same flows, unpaced: time to result and throughput.
      DecisionSink sink(flows);
      dq::serve::ServeSummary summary;
      const ServeSample s =
          serve_once(options, flows, sink, open_gen, t ? &tracer : nullptr,
                     "loadgen.generate", summary);
      (t ? traced : untraced).push_back(s);
      checks.add(r, summary, sink, flows);
    }
    peak_before_checks = std::max(peak_before_checks, peak_rss_mib());
  });
  checks.reference(r, o, options, flows, open_gen);
  double detected = checks.last.report.detected_targets;
  if (o.corrupt == "detected") detected = 0.0;
  r.check(detected > 0.0, "the worm hosts are detected");

  r.note("offered rate " + fmt(rate) + " flows/s, " + std::to_string(flows) +
         " flows per run, " +
         std::to_string(untraced.size() + traced.size()) +
         " iterations of a paced and an unpaced run");
  report_serve_e2e(r, untraced, peak_before_checks);
  r.layer["latency.p50_ms"] = median(p50);
  r.layer["latency.p99_ms"] = median(p99);
  r.show("decision_latency_p50_ms", r.layer["latency.p50_ms"], "ms");
  r.show("decision_latency_p99_ms", r.layer["latency.p99_ms"], "ms");
  r.show("paced_flows_per_s", median(paced_rate), "1/s");
  r.note("latency: exact quantiles of " + std::to_string(flows) +
         " samples per paced run, median over " + std::to_string(p99.size()) +
         " runs");
  r.note(fmt_list("decision latency p99 ms per paced run", p99));

  if (o.trace) {
    report_serve_layers(r, traced, untraced, checks.last);
    r.layer["loadgen.idle_s"] = median(idle_s);
    r.layer["loadgen.late_p99_ms"] = median(late_p99);
    r.layer["checkpoint.bytes"] = 0.0;
    std::vector<std::string> lines;
    const std::uint64_t want = std::min<std::uint64_t>(flows, 200000);
    for (std::uint64_t i = 0; i < want; ++i)
      lines.push_back(flow_line(gen.at(i)));
    r.check(standalone_timings(lines, gen, flows,
                               EstimatorBackend::kSharedBitmap, o.tiny, r),
            "every generated line parses");
  }
}

}  // namespace perfbench
