// The four workloads. Each generates its inputs from the seed, runs its
// measured loop for Options::seconds, checks its outputs outside the
// timed region, and fills the Report. With Options::trace it alternates
// untraced and traced iterations, records spans into the Tracer, and
// reports the per-layer metrics and the tracing overhead instead.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

void run_sim_routed(const Options& o, Report& r, Tracer& tracer);
void run_sim_scale(const Options& o, Report& r, Tracer& tracer);
void run_serve_ndjson(const Options& o, Report& r, Tracer& tracer);
void run_serve_live(const Options& o, Report& r, Tracer& tracer);

/// Runs `iteration(traced, index)` until `seconds` have passed and at
/// least `min_each` iterations of each needed kind ran. Untraced runs
/// only run untraced iterations; traced runs alternate, starting
/// untraced, so the tracing overhead is measured in the same process.
template <typename Fn>
void measured_loop(const Options& o, std::size_t min_each, Fn&& iteration) {
  const std::uint64_t start = now_ns();
  std::size_t untraced = 0, traced = 0;
  for (std::size_t i = 0;; ++i) {
    const bool t = o.trace && (i % 2 == 1);
    iteration(t, i);
    (t ? traced : untraced) += 1;
    const bool enough =
        untraced >= min_each && (!o.trace || traced >= min_each);
    if (enough && seconds_since(start) >= o.seconds) break;
  }
}

/// Median of one field over a run's per-iteration samples.
template <typename Sample>
double median_of(const std::vector<Sample>& samples, double Sample::*field) {
  std::vector<double> values;
  for (const Sample& s : samples) values.push_back(s.*field);
  return median(values);
}

/// The sample whose `key` is the nearest-rank median. Per-layer rows are
/// read from this one traced iteration, so they and the remainder add up
/// to its time exactly.
template <typename Sample>
const Sample& median_sample(const std::vector<Sample>& samples,
                            double Sample::*key) {
  std::vector<const Sample*> order;
  for (const Sample& s : samples) order.push_back(&s);
  std::sort(order.begin(), order.end(), [&](const Sample* a, const Sample* b) {
    return a->*key < b->*key;
  });
  return *order[(order.size() - 1) / 2];
}

/// A counter of the program's metrics registry; 0 if never created.
inline std::uint64_t counter_value(const dq::obs::MetricsRegistry& registry,
                                   const char* name) {
  const dq::campaign::JsonValue snap = registry.snapshot();
  const dq::campaign::JsonValue* v = snap.at("counters").find(name);
  return v != nullptr ? v->as_uint() : 0;
}

/// Adds the tracing-overhead rows from the untraced and traced medians
/// of one end-to-end time.
inline void report_overhead(Report& r, double untraced_s, double traced_s) {
  r.layer["trace.untraced_s"] = untraced_s;
  r.layer["trace.traced_s"] = traced_s;
  r.layer["trace.overhead_s"] = traced_s - untraced_s;
  r.layer["trace.overhead_frac"] =
      untraced_s > 0.0 ? (traced_s - untraced_s) / untraced_s : 0.0;
}

}  // namespace perfbench
