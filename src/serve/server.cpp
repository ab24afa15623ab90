#include "serve/server.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/prometheus.hpp"
#include "serve/failpoints.hpp"
#include "serve/spsc.hpp"
#include "stats/hash.hpp"

namespace dq::serve {

namespace {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::atomic<bool> g_stop{false};
std::atomic<bool> g_handlers_installed{false};

extern "C" void stop_signal_handler(int) { g_stop.store(true); }

constexpr std::size_t kWorkerBatch = 256;
constexpr std::size_t kFlushBytes = std::size_t{1} << 16;
constexpr std::size_t kMaxSummarySamples = 5;

/// Bounded exponential backoff for full-queue waits: a few yields,
/// then sleeps doubling from 1 µs to a 1 ms cap — a stalled peer costs
/// microseconds of wake-up latency instead of a pegged core, and the
/// caller gets a periodic hook (each pause) to notice aborts.
class Backoff {
 public:
  void pause() noexcept {
    if (spins_ < kYields) {
      ++spins_;
      std::this_thread::yield();
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_us_));
    sleep_us_ = std::min<std::uint64_t>(sleep_us_ * 2, kMaxSleepUs);
  }

 private:
  static constexpr int kYields = 64;
  static constexpr std::uint64_t kMaxSleepUs = 1000;
  int spins_ = 0;
  std::uint64_t sleep_us_ = 1;
};

/// Sleeps `micros` in <=1 ms slices so an injected slow shard still
/// reacts to an abort within about a millisecond.
void interruptible_sleep_us(std::uint64_t micros,
                            const std::atomic<bool>& abort) {
  while (micros > 0 && !abort.load(std::memory_order_relaxed)) {
    const std::uint64_t slice = std::min<std::uint64_t>(micros, 1000);
    std::this_thread::sleep_for(std::chrono::microseconds(slice));
    micros -= slice;
  }
}

/// Resident set size from /proc/self/statm (0 where unavailable).
std::uint64_t read_rss_bytes() noexcept {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<std::uint64_t>(resident) *
         static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

obs::Event robustness_event(obs::EventKind kind, double time,
                            std::uint32_t id = 0, std::uint64_t value = 0) {
  obs::Event e;
  e.time = time;
  e.id = id;
  e.kind = kind;
  e.value = value;
  return e;
}

}  // namespace

void install_stop_handlers() {
  if (g_handlers_installed.exchange(true)) return;
  std::signal(SIGINT, stop_signal_handler);
  std::signal(SIGTERM, stop_signal_handler);
}

void request_stop() noexcept { g_stop.store(true); }
bool stop_requested() noexcept { return g_stop.load(); }
void reset_stop() noexcept { g_stop.store(false); }

campaign::JsonValue ServeSummary::to_json() const {
  using campaign::JsonValue;
  JsonValue q = JsonValue::object();
  q.set("target_hosts", JsonValue::integer(report.target_hosts));
  q.set("benign_hosts", JsonValue::integer(report.benign_hosts));
  q.set("detected_targets", JsonValue::number(report.detected_targets));
  q.set("detection_rate", JsonValue::number(report.detection_rate));
  q.set("mean_detection_latency",
        JsonValue::number(report.mean_detection_latency));
  q.set("false_positive_hosts",
        JsonValue::number(report.false_positive_hosts));
  q.set("false_positive_rate", JsonValue::number(report.false_positive_rate));
  q.set("benign_quarantine_time",
        JsonValue::number(report.benign_quarantine_time));
  q.set("mean_benign_quarantine_time",
        JsonValue::number(report.mean_benign_quarantine_time));
  q.set("target_quarantine_time",
        JsonValue::number(report.target_quarantine_time));
  q.set("quarantine_events", JsonValue::number(report.quarantine_events));

  JsonValue s = JsonValue::object();
  s.set("flows_ingested", JsonValue::integer(flows_ingested));
  s.set("flows_decided", JsonValue::integer(flows_decided));
  s.set("parse_errors", JsonValue::integer(parse_errors));
  // Emitted only when non-empty so clean streams keep their exact
  // historical summary bytes.
  if (!parse_error_samples.empty()) {
    JsonValue samples = JsonValue::array();
    for (const std::string& line : parse_error_samples)
      samples.push_back(JsonValue::str(line));
    s.set("parse_error_samples", std::move(samples));
  }
  s.set("time_regressions", JsonValue::integer(time_regressions));
  s.set("shed_flows", JsonValue::integer(shed_flows));
  s.set("degraded", JsonValue::boolean(degraded));
  s.set("end_time", JsonValue::number(end_time));
  s.set("interrupted", JsonValue::boolean(interrupted));
  // Opt-in and wall-clock-dependent: only --slo-ms runs carry it, so
  // SLO-free streams keep their exact historical summary bytes.
  if (slo_ms > 0.0) s.set("slo_breached", JsonValue::boolean(slo_breached));
  s.set("quarantine", std::move(q));

  JsonValue out = JsonValue::object();
  out.set("summary", std::move(s));
  return out;
}

struct ServeServer::Impl {
  ServeOptions options;
  bool ran = false;

  // Host partition: owner shard and shard-local id per global host.
  std::vector<std::uint8_t> owner;
  std::vector<std::uint32_t> local_id;
  std::vector<std::uint32_t> owned_count;
  // Under the shared-bitmap backend hosts are partitioned in whole
  // estimator blocks (sharing never crosses a block, so decisions stay
  // byte-identical at any shard count): global block -> owner shard and
  // shard-local block index.
  std::vector<std::uint8_t> block_owner;
  std::vector<std::uint32_t> block_local;

  // Ground-truth worm onset per global host; each entry is written only
  // by its owner shard's worker, read by the router after the shard has
  // quiesced (checkpoint) or joined (final report).
  std::vector<double> label_time;

  std::vector<std::unique_ptr<SpscQueue<Flow>>> in_queues;
  std::vector<std::unique_ptr<SpscQueue<Decision>>> out_queues;
  std::vector<std::unique_ptr<quarantine::QuarantineEngine>> engines;
  std::vector<std::thread> workers;

  /// Per-shard progress counters: `pushed` written by the router,
  /// `decided` by the shard's worker after each batch (engine state for
  /// those flows is visible once the release store lands). decided ==
  /// pushed means the shard is quiescent; the gap feeds the watchdog.
  struct alignas(kCacheLine) ShardProgress {
    std::atomic<std::uint64_t> pushed{0};
    std::atomic<std::uint64_t> decided{0};
  };
  std::unique_ptr<ShardProgress[]> progress;

  std::atomic<double> end_time{0.0};

  /// Emergency teardown: workers drop everything and exit promptly.
  std::atomic<bool> abort{false};
  /// Set by the watchdog after writing stall_diag.
  std::atomic<bool> stalled{false};
  std::string stall_diag;
  /// Which shard the watchdog saw wedged (valid once `stalled` is set);
  /// the router emits the kStall trace event — the ring is
  /// single-writer, so the watchdog thread must never push.
  std::atomic<std::uint32_t> stall_shard{0};
  std::atomic<bool> watchdog_done{false};
  std::thread watchdog;

  // Health sampler (wall-clock cadence) + Prometheus exposition.
  std::atomic<bool> sampler_done{false};
  std::thread sampler;
  /// Serializes writes to the metrics ostream (router flow-count
  /// snapshots vs sampler wall-clock snapshots) and the prom file.
  std::mutex metrics_mu;
  bool health_enabled = false;
  std::vector<obs::Gauge*> queue_depth_g;
  std::vector<obs::Gauge*> backlog_g;
  std::vector<obs::Gauge*> decided_g;
  obs::Gauge* rss_g = nullptr;
  std::unique_ptr<obs::PromHttpListener> listener;

  // Span profiler tracks (null when profiling is off).
  obs::SpanBuffer* router_spans = nullptr;
  std::vector<obs::SpanBuffer*> worker_spans;

  std::uint64_t slo_ns = 0;  ///< 0 disables breach counting

  // Accounting carried in from a restored checkpoint.
  std::uint64_t base_flows = 0;
  double base_last_time = 0.0;
  std::uint64_t base_time_regressions = 0;
  std::uint64_t base_parse_errors = 0;
  std::uint64_t base_shed = 0;
  std::vector<std::string> base_samples;

  obs::MetricsRegistry* registry = nullptr;
  obs::Counter* flows_ingested = nullptr;
  obs::Counter* flows_decided = nullptr;
  obs::Counter* parse_errors = nullptr;
  obs::Counter* time_regressions = nullptr;
  obs::Counter* shed_flows = nullptr;
  obs::Counter* router_stalls = nullptr;
  obs::Counter* worker_stalls = nullptr;
  obs::Counter* sink_retries = nullptr;
  obs::Counter* slo_breaches = nullptr;
  obs::Histogram* latency = nullptr;

  void worker_loop(std::size_t shard, bool emit);
  void watchdog_loop();
  void sampler_loop(std::ostream* metrics);
  void sample_health();
  std::string render_prom();
  void write_prom_file();
};

ServeServer::ServeServer(const ServeOptions& options)
    : impl_(std::make_unique<Impl>()),
      registry_(std::make_unique<obs::MetricsRegistry>()) {
  if (options.shards == 0 || options.shards > 256)
    throw std::invalid_argument("ServeServer: shards must be in [1, 256]");
  if (options.num_hosts == 0)
    throw std::invalid_argument("ServeServer: num_hosts must be > 0");
  if (options.stall_timeout_seconds < 0.0)
    throw std::invalid_argument("ServeServer: stall timeout must be >= 0");
  if (options.checkpoint_interval_flows > 0 &&
      options.checkpoint_path.empty())
    throw std::invalid_argument(
        "ServeServer: checkpoint interval needs a checkpoint path");
  options.quarantine.validate();

  impl_->options = options;
  impl_->registry = registry_.get();
  impl_->flows_ingested = &registry_->counter("serve.flows_ingested");
  impl_->flows_decided = &registry_->counter("serve.flows_decided");
  impl_->parse_errors = &registry_->counter("serve.parse_errors");
  impl_->time_regressions = &registry_->counter("serve.time_regressions");
  // Overload/stall accounting depends on machine timing, never on the
  // flow stream — wall-clock class keeps deterministic snapshots
  // byte-stable.
  impl_->shed_flows = &registry_->counter("serve.shed_flows",
                                          obs::Determinism::kWallClock);
  impl_->router_stalls = &registry_->counter("serve.router_stalls",
                                             obs::Determinism::kWallClock);
  impl_->worker_stalls = &registry_->counter("serve.worker_stalls",
                                             obs::Determinism::kWallClock);
  impl_->sink_retries = &registry_->counter("serve.sink_retries",
                                            obs::Determinism::kWallClock);
  impl_->slo_breaches = &registry_->counter("serve.slo_breaches",
                                            obs::Determinism::kWallClock);
  impl_->latency = &registry_->histogram("serve.decision_latency_ns",
                                         obs::Determinism::kWallClock);
  if (options.slo_ms < 0.0)
    throw std::invalid_argument("ServeServer: slo_ms must be >= 0");
  impl_->slo_ns = static_cast<std::uint64_t>(options.slo_ms * 1e6);

  // Hash-partition hosts across shards; shard-local ids are assigned in
  // ascending global host order, so gathering records back in global
  // order needs only the two maps. The shared-bitmap backend hashes the
  // *block* id instead, keeping every estimator block whole on one
  // shard: ascending assignment then guarantees a shard's hosts form
  // whole blocks in global block order (a partial block only at the
  // global tail), so each shard-local CompactEstimatorStore sees
  // exactly the same block-local streams as a single engine would.
  const std::size_t shards = options.shards;
  const bool compact = options.quarantine.estimator_backend ==
                       quarantine::EstimatorBackend::kSharedBitmap;
  const std::uint32_t block_hosts = options.quarantine.compact.block_hosts;
  impl_->owner.resize(options.num_hosts);
  impl_->local_id.resize(options.num_hosts);
  impl_->owned_count.assign(shards, 0);
  for (std::uint32_t h = 0; h < options.num_hosts; ++h) {
    const std::uint64_t key = compact ? h / block_hosts : h;
    const auto s = static_cast<std::size_t>(mix64(key + 1) % shards);
    impl_->owner[h] = static_cast<std::uint8_t>(s);
    impl_->local_id[h] = impl_->owned_count[s]++;
  }
  if (compact) {
    const std::size_t num_blocks =
        (options.num_hosts + block_hosts - 1) / block_hosts;
    impl_->block_owner.resize(num_blocks);
    impl_->block_local.resize(num_blocks);
    std::vector<std::uint32_t> blocks_owned(shards, 0);
    for (std::size_t b = 0; b < num_blocks; ++b) {
      const std::uint8_t s =
          impl_->owner[static_cast<std::uint32_t>(b) * block_hosts];
      impl_->block_owner[b] = s;
      impl_->block_local[b] = blocks_owned[s]++;
    }
  }
  impl_->label_time.assign(options.num_hosts, -1.0);
  impl_->progress = std::make_unique<Impl::ShardProgress[]>(shards);

  // Per-shard health gauges are registered only when something will
  // sample them (the ms-cadence sampler, the prom file, or the HTTP
  // listener) — registering unconditionally would change full-snapshot
  // bytes for every existing run. All kWallClock: they reflect machine
  // timing, never the flow stream.
  impl_->health_enabled = options.metrics_interval_ms > 0 ||
                          !options.prom_path.empty() ||
                          !options.metrics_addr.empty();
  if (impl_->health_enabled) {
    for (std::size_t s = 0; s < shards; ++s) {
      const std::vector<std::pair<std::string, std::string>> labels{
          {"shard", std::to_string(s)}};
      impl_->queue_depth_g.push_back(
          &registry_->gauge(obs::labeled("serve.shard_queue_depth", labels)));
      impl_->backlog_g.push_back(
          &registry_->gauge(obs::labeled("serve.shard_backlog", labels)));
      impl_->decided_g.push_back(
          &registry_->gauge(obs::labeled("serve.shard_decided", labels)));
    }
    impl_->rss_g = &registry_->gauge("serve.rss_bytes");
  }
  if (options.profiler != nullptr) {
    impl_->router_spans = options.profiler->track("serve/router");
    for (std::size_t s = 0; s < shards; ++s)
      impl_->worker_spans.push_back(
          options.profiler->track("serve/shard" + std::to_string(s)));
  } else {
    impl_->worker_spans.assign(shards, nullptr);
  }

  obs::Sink engine_sink;
  engine_sink.metrics = registry_.get();
  for (std::size_t s = 0; s < shards; ++s) {
    impl_->in_queues.push_back(
        std::make_unique<SpscQueue<Flow>>(options.queue_capacity));
    impl_->out_queues.push_back(
        std::make_unique<SpscQueue<Decision>>(options.queue_capacity));
    if (impl_->owned_count[s] > 0) {
      impl_->engines.push_back(std::make_unique<quarantine::QuarantineEngine>(
          impl_->owned_count[s], options.quarantine));
      impl_->engines.back()->set_obs(engine_sink);
    } else {
      impl_->engines.push_back(nullptr);
    }
  }

  if (options.restore != nullptr) {
    const CheckpointState& ck = *options.restore;
    if (ck.num_hosts != options.num_hosts)
      throw std::invalid_argument(
          "ServeServer: restore num_hosts mismatch (checkpoint has " +
          std::to_string(ck.num_hosts) + ", options say " +
          std::to_string(options.num_hosts) + ")");
    if (ck.config.dump() !=
        quarantine::config_to_json(options.quarantine).dump())
      throw std::invalid_argument(
          "ServeServer: restore quarantine config mismatch — resuming "
          "under different thresholds would silently diverge");
    impl_->label_time = ck.label_time;
    // Block pools first: compact host windows restore relative to
    // their block's window.
    if (compact) {
      if (!ck.store)
        throw std::invalid_argument(
            "ServeServer: restore checkpoint has no estimator_store but "
            "the configured backend is shared_bitmap");
      try {
        if (ck.store->num_blocks() != impl_->block_owner.size())
          throw std::invalid_argument("block count mismatch");
        for (std::size_t b = 0; b < impl_->block_owner.size(); ++b)
          ck.store->restore_block(
              b, *impl_->engines[impl_->block_owner[b]]->compact_store(),
              impl_->block_local[b]);
      } catch (const std::invalid_argument& e) {
        throw std::invalid_argument(
            std::string("ServeServer: restore estimator store: ") +
            e.what());
      }
    } else if (ck.store) {
      throw std::invalid_argument(
          "ServeServer: restore checkpoint carries an estimator_store "
          "but the configured backend is exact");
    }
    for (std::uint32_t h = 0; h < options.num_hosts; ++h)
      impl_->engines[impl_->owner[h]]->restore_host(
          impl_->local_id[h], ck.hosts.records[h], ck.hosts.detectors[h]);
    for (auto& engine : impl_->engines)
      if (engine != nullptr) {
        engine->add_quarantine_events(ck.quarantine_events);
        break;
      }
    impl_->base_flows = ck.flows_ingested;
    impl_->base_last_time = ck.last_time;
    impl_->base_time_regressions = ck.time_regressions;
    impl_->base_parse_errors = ck.parse_errors;
    impl_->base_shed = ck.shed_flows;
    impl_->base_samples = ck.parse_error_samples;
    // Seed the counters so live metrics continue from the checkpoint.
    impl_->flows_ingested->add(ck.flows_ingested);
    impl_->flows_decided->add(ck.flows_ingested - ck.shed_flows);
    impl_->parse_errors->add(ck.parse_errors);
    impl_->time_regressions->add(ck.time_regressions);
    impl_->shed_flows->add(ck.shed_flows);
    impl_->options.obs.emit(robustness_event(obs::EventKind::kCheckpointRestore,
                                             ck.last_time, 0,
                                             ck.flows_ingested));
  }

  // The listener binds here, not in run(), so tests (and callers using
  // an ephemeral port) can read metrics_port() before the run starts.
  if (!options.metrics_addr.empty())
    impl_->listener = std::make_unique<obs::PromHttpListener>(
        options.metrics_addr,
        [impl = impl_.get()] { return impl->render_prom(); });
}

ServeServer::~ServeServer() = default;

std::uint16_t ServeServer::metrics_port() const noexcept {
  return impl_->listener != nullptr ? impl_->listener->port() : 0;
}

void ServeServer::Impl::worker_loop(std::size_t shard, bool emit) {
  SpscQueue<Flow>& in = *in_queues[shard];
  SpscQueue<Decision>& out = *out_queues[shard];
  quarantine::QuarantineEngine* engine = engines[shard].get();
  ShardProgress& prog = progress[shard];
  const bool throttling = options.quarantine.policy.treatment ==
                          quarantine::Treatment::kThrottle;
  const std::uint64_t slow_us =
      Failpoints::global().active()
          ? Failpoints::global().slow_shard_micros(shard)
          : 0;
  obs::SpanBuffer* spans = worker_spans[shard];
  Flow batch[kWorkerBatch];
  while (true) {
    if (abort.load(std::memory_order_relaxed)) return;
    const std::size_t n = in.pop_batch(batch, kWorkerBatch);
    if (n == 0) {
      if (in.closed() && in.empty()) break;
      std::this_thread::yield();
      continue;
    }
    // One span per popped batch, not per flow: batch granularity keeps
    // the profiler's cost well under the 1.05x gate while still showing
    // where worker time goes.
    obs::Span batch_span(spans, "worker_batch");
    for (std::size_t i = 0; i < n; ++i) {
      const Flow& f = batch[i];
      if (slow_us != 0) {
        interruptible_sleep_us(slow_us, abort);
        if (abort.load(std::memory_order_relaxed)) return;
      }
      engine->advance_to(f.time);
      const std::uint32_t local = local_id[f.host];
      if (f.labeled_worm && label_time[f.host] < 0.0)
        label_time[f.host] = f.time;
      const bool was_quarantined = engine->quarantined(local);
      engine->observe(local, f.dest, f.time, f.failed);
      const std::uint64_t lat_ns = now_ns() - f.ingest_ns;
      latency->record(lat_ns);
      if (slo_ns > 0 && lat_ns > slo_ns) slo_breaches->add();
      if (emit) {
        Decision d;
        d.seq = f.seq;
        d.time = f.time;
        d.host = f.host;
        d.dest = f.dest;
        d.failed = f.failed;
        d.action = static_cast<std::uint8_t>(
            was_quarantined ? (throttling ? Action::kThrottle : Action::kDrop)
                            : Action::kAllow);
        d.state = static_cast<std::uint8_t>(engine->state(local));
        if (!out.try_push(d)) {
          // Full decision queue: bounded backoff instead of an
          // unbounded spin, counted once per stall episode.
          worker_stalls->add();
          Backoff backoff;
          do {
            if (abort.load(std::memory_order_relaxed)) return;
            backoff.pause();
          } while (!out.try_push(d));
        }
      }
    }
    prog.decided.store(prog.decided.load(std::memory_order_relaxed) + n,
                       std::memory_order_release);
    flows_decided->add(n);
  }
  // Apply releases pending at the stream's end so gathered records
  // match a single engine advanced to the same time (the end time is
  // published before the queue closes).
  if (engine != nullptr)
    engine->advance_to(end_time.load(std::memory_order_acquire));
}

void ServeServer::Impl::watchdog_loop() {
  using Clock = std::chrono::steady_clock;
  const double timeout = options.stall_timeout_seconds;
  const auto poll = std::chrono::duration<double>(
      std::clamp(timeout / 8.0, 0.001, 0.05));
  const std::size_t shards = options.shards;
  std::vector<std::uint64_t> last_decided(shards, 0);
  std::vector<Clock::time_point> last_progress(shards, Clock::now());
  while (!watchdog_done.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(poll);
    const auto now = Clock::now();
    for (std::size_t s = 0; s < shards; ++s) {
      const std::uint64_t pushed =
          progress[s].pushed.load(std::memory_order_acquire);
      const std::uint64_t decided =
          progress[s].decided.load(std::memory_order_acquire);
      if (decided != last_decided[s] || decided >= pushed) {
        last_decided[s] = decided;
        last_progress[s] = now;
        continue;
      }
      const double quiet =
          std::chrono::duration<double>(now - last_progress[s]).count();
      if (quiet < timeout) continue;
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "serve: stall watchdog: shard %zu made no progress for "
                    "%.2f s (pushed=%llu decided=%llu backlog=%llu)",
                    s, quiet, static_cast<unsigned long long>(pushed),
                    static_cast<unsigned long long>(decided),
                    static_cast<unsigned long long>(pushed - decided));
      stall_diag.assign(buf);
      stall_shard.store(static_cast<std::uint32_t>(s),
                        std::memory_order_relaxed);
      stalled.store(true, std::memory_order_release);
      return;
    }
  }
}

void ServeServer::Impl::sample_health() {
  if (!health_enabled) return;
  for (std::size_t s = 0; s < options.shards; ++s) {
    queue_depth_g[s]->set(
        static_cast<double>(in_queues[s]->size_approx()));
    const std::uint64_t pushed =
        progress[s].pushed.load(std::memory_order_acquire);
    const std::uint64_t decided =
        progress[s].decided.load(std::memory_order_acquire);
    backlog_g[s]->set(
        static_cast<double>(pushed >= decided ? pushed - decided : 0));
    decided_g[s]->set(static_cast<double>(decided));
  }
  rss_g->set(static_cast<double>(read_rss_bytes()));
}

std::string ServeServer::Impl::render_prom() {
  // Called from the listener thread too: gauge stores are atomic and
  // snapshot() locks the registry, so a scrape mid-run is safe.
  sample_health();
  return obs::prometheus_render(registry->snapshot(false));
}

void ServeServer::Impl::write_prom_file() {
  const std::string text = render_prom();
  const std::string tmp = options.prom_path + ".tmp";
  const std::lock_guard<std::mutex> lock(metrics_mu);
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return;  // transient FS trouble: next tick retries
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  std::rename(tmp.c_str(), options.prom_path.c_str());
}

void ServeServer::Impl::sampler_loop(std::ostream* metrics) {
  const std::uint64_t interval_ms =
      options.metrics_interval_ms > 0 ? options.metrics_interval_ms : 1000;
  std::uint64_t next_ns = now_ns() + interval_ms * 1000000;
  while (!sampler_done.load(std::memory_order_acquire)) {
    // Sleep in short slices so shutdown never waits a whole interval.
    std::this_thread::sleep_for(std::chrono::milliseconds(
        std::min<std::uint64_t>(interval_ms, 10)));
    if (now_ns() < next_ns) continue;
    next_ns = now_ns() + interval_ms * 1000000;
    sample_health();
    // Wall-clock snapshot lines interleave with the router's flow-count
    // lines; each line is a complete snapshot, so readers need no
    // ordering between the two cadences. parse_errors may lag here —
    // syncing it requires the source, which is router-owned.
    if (options.metrics_interval_ms > 0 && metrics != nullptr) {
      std::string line = registry->snapshot(false).dump();
      line += '\n';
      const std::lock_guard<std::mutex> lock(metrics_mu);
      metrics->write(line.data(), static_cast<std::streamsize>(line.size()));
      metrics->flush();
    }
    if (!options.prom_path.empty()) write_prom_file();
  }
}

ServeSummary ServeServer::run(FlowSource& source, std::ostream* decisions,
                              std::ostream* metrics) {
  Impl& im = *impl_;
  if (im.ran) throw std::logic_error("ServeServer: one run() per server");
  im.ran = true;
  const ServeOptions& opt = im.options;
  const bool emit = opt.emit_decisions && decisions != nullptr;
  const bool fp_active = Failpoints::global().active();
  if (opt.stop_after_flows > 0) install_stop_handlers();

  const std::size_t shards = opt.shards;
  for (std::size_t s = 0; s < shards; ++s)
    im.workers.emplace_back([this, s, emit] { impl_->worker_loop(s, emit); });

  // On any exit — normal return (threads already joined, every step
  // idempotent) or exception (stall, checkpoint IO failure) — make sure
  // no thread outlives run().
  struct TeardownGuard {
    Impl& im;
    ~TeardownGuard() {
      im.abort.store(true, std::memory_order_release);
      im.watchdog_done.store(true, std::memory_order_release);
      im.sampler_done.store(true, std::memory_order_release);
      for (auto& q : im.in_queues) q->close();
      for (auto& w : im.workers)
        if (w.joinable()) w.join();
      if (im.watchdog.joinable()) im.watchdog.join();
      if (im.sampler.joinable()) im.sampler.join();
    }
  } teardown_guard{im};
  if (opt.stall_timeout_seconds > 0.0)
    im.watchdog = std::thread([this] { impl_->watchdog_loop(); });
  if (opt.metrics_interval_ms > 0 || !opt.prom_path.empty())
    im.sampler = std::thread([this, metrics] { impl_->sampler_loop(metrics); });

  // In-order merge bookkeeping: which shard got each outstanding seq.
  // Outstanding flows are bounded by the queues, so a fixed ring
  // suffices: every in-flight flow occupies an in-queue slot, a
  // worker-batch slot, or an out-queue slot.
  const std::size_t ring_cap = std::bit_ceil(
      shards * (im.in_queues[0]->capacity() + im.out_queues[0]->capacity() +
                kWorkerBatch + 2));
  std::vector<std::uint8_t> pending(ring_cap);
  std::size_t pend_head = 0, pend_size = 0;
  std::string outbuf;
  std::string metric_buf;

  ServeSummary summary;
  summary.time_regressions = im.base_time_regressions;
  summary.shed_flows = im.base_shed;
  const std::uint64_t t_start = now_ns();
  double last_time = im.base_last_time;
  std::uint64_t seq = im.base_flows;

  const auto throw_if_stalled = [&] {
    if (im.stalled.load(std::memory_order_acquire)) {
      // The stall event rides the ring from here (router thread), not
      // from the watchdog: TraceRing is single-writer.
      im.options.obs.emit(robustness_event(
          obs::EventKind::kStall, last_time,
          im.stall_shard.load(std::memory_order_relaxed)));
      throw ServeStallError(im.stall_diag);
    }
  };
  const auto write_decisions = [&](bool force) {
    if (outbuf.size() >= kFlushBytes || (force && !outbuf.empty())) {
      if (fp_active) {
        if (force) {
          // The final flush may not fail — absorb any pending injected
          // errors as retries so no bytes are lost.
          while (Failpoints::global().consume_sink_error()) {
            im.sink_retries->add();
            im.options.obs.emit(robustness_event(obs::EventKind::kSinkRetry,
                                                 last_time, 0,
                                                 im.sink_retries->value()));
          }
        } else if (Failpoints::global().consume_sink_error()) {
          // Transient sink failure: keep the bytes buffered and retry
          // at the next flush point. The emitted stream stays
          // byte-identical, just later.
          im.sink_retries->add();
          im.options.obs.emit(robustness_event(obs::EventKind::kSinkRetry,
                                               last_time, 0,
                                               im.sink_retries->value()));
          return;
        }
      }
      decisions->write(outbuf.data(),
                       static_cast<std::streamsize>(outbuf.size()));
      outbuf.clear();
    }
  };
  const auto drain_ready = [&] {
    Decision d;
    while (pend_size > 0 &&
           im.out_queues[pending[pend_head & (ring_cap - 1)]]->try_pop(d)) {
      ++pend_head;
      --pend_size;
      append_decision_line(d, outbuf);
      write_decisions(false);
    }
  };
  std::uint64_t last_parse_errors = 0;
  const auto sync_parse_errors = [&] {
    const std::uint64_t pe = source.parse_errors();
    im.parse_errors->add(pe - last_parse_errors);
    last_parse_errors = pe;
  };
  const auto write_metrics_snapshot = [&] {
    if (metrics == nullptr) return;
    const obs::Span span(im.router_spans, "metrics_snapshot");
    sync_parse_errors();
    metric_buf = im.registry->snapshot(false).dump();
    metric_buf += '\n';
    const std::lock_guard<std::mutex> lock(im.metrics_mu);
    metrics->write(metric_buf.data(),
                   static_cast<std::streamsize>(metric_buf.size()));
    metrics->flush();
  };
  const auto merged_samples = [&] {
    std::vector<std::string> samples = im.base_samples;
    for (const std::string& line : source.parse_error_samples()) {
      if (samples.size() >= kMaxSummarySamples) break;
      samples.push_back(line);
    }
    return samples;
  };

  /// Waits until every shard has decided everything pushed to it; the
  /// merge keeps draining so workers never wedge on a full out-queue,
  /// and a tripped watchdog aborts the wait.
  const auto quiesce_shards = [&] {
    for (std::size_t s = 0; s < shards; ++s) {
      Backoff backoff;
      while (im.progress[s].decided.load(std::memory_order_acquire) <
             im.progress[s].pushed.load(std::memory_order_relaxed)) {
        if (emit) drain_ready();
        throw_if_stalled();
        backoff.pause();
      }
    }
  };
  /// Gathers full pipeline state (engines must be quiescent and
  /// advanced to `at_time`) in global host order, so checkpoint bytes
  /// are identical at any shard count.
  const auto gather_checkpoint = [&](std::uint64_t flows, double at_time) {
    CheckpointState ck;
    ck.num_hosts = opt.num_hosts;
    ck.flows_ingested = flows;
    ck.last_time = at_time;
    ck.time_regressions = summary.time_regressions;
    sync_parse_errors();
    ck.parse_errors = im.base_parse_errors + source.parse_errors();
    ck.parse_error_samples = merged_samples();
    ck.shed_flows = summary.shed_flows;
    std::uint64_t events = 0;
    for (const auto& engine : im.engines)
      if (engine != nullptr) events += engine->quarantine_events();
    ck.quarantine_events = events;
    ck.config = quarantine::config_to_json(opt.quarantine);
    ck.label_time = im.label_time;
    ck.hosts.records.resize(opt.num_hosts);
    ck.hosts.detectors.resize(opt.num_hosts);
    for (std::uint32_t h = 0; h < opt.num_hosts; ++h) {
      const quarantine::QuarantineEngine& engine = *im.engines[im.owner[h]];
      ck.hosts.records[h] = engine.record(im.local_id[h]);
      ck.hosts.detectors[h] = engine.detector_state(im.local_id[h]);
    }
    // Shared-bitmap block pools, gathered in *global* block order so
    // checkpoint bytes stay shard-count independent (robustness tests
    // assert this).
    if (!im.block_owner.empty()) {
      quarantine::StoreBlocks& blocks = ck.store.emplace();
      for (std::size_t b = 0; b < im.block_owner.size(); ++b)
        blocks.push_block(*im.engines[im.block_owner[b]]->compact_store(),
                          im.block_local[b]);
    }
    return ck;
  };
  const auto write_checkpoint = [&](std::uint64_t flows, double at_time) {
    const obs::Span span(im.router_spans, "checkpoint");
    quiesce_shards();
    // Normalize: apply releases due by the checkpoint clock so the
    // serialized records are independent of each shard's own advance
    // schedule (a release is popped lazily, at the owning shard's next
    // flow — semantically identical, but byte-different until applied).
    for (auto& engine : im.engines)
      if (engine != nullptr) engine->advance_to(at_time);
    write_checkpoint_file(opt.checkpoint_path,
                          gather_checkpoint(flows, at_time));
    im.options.obs.emit(robustness_event(obs::EventKind::kCheckpointWrite,
                                         at_time, 0, flows));
  };

  bool exhausted = false;
  bool shedding = false;
  std::uint64_t shed_episode_base = 0;
  Flow flow;
  while (!stop_requested()) {
    if (!source.next(flow)) {
      exhausted = true;
      break;
    }
    // Detectors assume non-decreasing time per host; enforce it
    // globally at the router so every shard count sees the same clock.
    if (flow.time < last_time) {
      flow.time = last_time;
      ++summary.time_regressions;
      im.time_regressions->add();
    } else {
      last_time = flow.time;
    }
    flow.seq = ++seq;
    flow.ingest_ns = now_ns();
    im.flows_ingested->add();
    throw_if_stalled();
    const std::size_t s = im.owner[flow.host];
    bool accepted = im.in_queues[s]->try_push(flow);
    if (!accepted) {
      if (emit) drain_ready();
      accepted = im.in_queues[s]->try_push(flow);
      if (!accepted) {
        if (opt.overload == OverloadPolicy::kShed) {
          if (!shedding) {
            shedding = true;
            shed_episode_base = summary.shed_flows;
            im.options.obs.emit(
                robustness_event(obs::EventKind::kShedStart, flow.time));
          }
          ++summary.shed_flows;
          im.shed_flows->add();
        } else {
          im.router_stalls->add();
          Backoff backoff;
          do {
            throw_if_stalled();
            backoff.pause();
            if (emit) drain_ready();
          } while (!(accepted = im.in_queues[s]->try_push(flow)));
        }
      }
    }
    if (accepted) {
      if (shedding) {
        shedding = false;
        im.options.obs.emit(robustness_event(
            obs::EventKind::kShedEnd, flow.time, 0,
            summary.shed_flows - shed_episode_base));
      }
      Impl::ShardProgress& prog = im.progress[s];
      prog.pushed.store(prog.pushed.load(std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
      if (emit) {
        pending[(pend_head + pend_size) & (ring_cap - 1)] =
            static_cast<std::uint8_t>(s);
        ++pend_size;
        drain_ready();
      }
    }
    if (opt.metrics_interval_flows > 0 &&
        seq % opt.metrics_interval_flows == 0)
      write_metrics_snapshot();
    if (opt.checkpoint_interval_flows > 0 &&
        seq % opt.checkpoint_interval_flows == 0)
      write_checkpoint(seq, last_time);
    if (opt.stop_after_flows > 0 && seq == opt.stop_after_flows)
      std::raise(SIGTERM);
  }
  summary.interrupted = !exhausted;

  // Graceful drain: publish the end time, close the in-queues, wait for
  // every pushed flow to be decided (stall-checked — never an unbounded
  // hang), absorb outstanding decisions, then join.
  double end_time = last_time;
  if (exhausted) {
    const double hint = source.end_time_hint();
    if (hint > end_time) end_time = hint;
  }
  im.end_time.store(end_time, std::memory_order_release);
  for (auto& q : im.in_queues) q->close();
  quiesce_shards();
  while (pend_size > 0) {
    drain_ready();
    throw_if_stalled();
    if (pend_size > 0) std::this_thread::yield();
  }
  for (auto& w : im.workers) w.join();
  im.watchdog_done.store(true, std::memory_order_release);
  if (im.watchdog.joinable()) im.watchdog.join();
  // Stop the sampler before the final prom/metrics writes below so the
  // tmp-file rename and stream writes have a single writer again.
  im.sampler_done.store(true, std::memory_order_release);
  if (im.sampler.joinable()) im.sampler.join();
  if (shedding)
    im.options.obs.emit(robustness_event(
        obs::EventKind::kShedEnd, end_time, 0,
        summary.shed_flows - shed_episode_base));

  // Final checkpoint: the engines are already advanced to end_time by
  // their workers, so the gathered state equals a quiesced mid-run
  // checkpoint taken at the same flow count.
  if (!opt.checkpoint_path.empty()) {
    const obs::Span span(im.router_spans, "checkpoint");
    write_checkpoint_file(opt.checkpoint_path,
                          gather_checkpoint(seq, end_time));
    im.options.obs.emit(robustness_event(obs::EventKind::kCheckpointWrite,
                                         end_time, 0, seq));
  }

  // Assemble the final report from per-shard records in global host
  // order — the float accumulation order of a single engine.
  std::vector<quarantine::HostRecord> records(opt.num_hosts);
  {
    const obs::Span span(im.router_spans, "gather_report");
    for (std::uint32_t h = 0; h < opt.num_hosts; ++h) {
      const quarantine::QuarantineEngine* engine =
          im.engines[im.owner[h]].get();
      if (engine != nullptr) records[h] = engine->record(im.local_id[h]);
    }
  }
  std::uint64_t events = 0;
  for (const auto& engine : im.engines)
    if (engine != nullptr) events += engine->quarantine_events();

  sync_parse_errors();
  summary.flows_ingested = seq;
  summary.flows_decided = im.flows_decided->value();
  summary.parse_errors = im.base_parse_errors + source.parse_errors();
  summary.parse_error_samples = merged_samples();
  summary.degraded = summary.shed_flows > 0;
  summary.end_time = end_time;
  summary.report = quarantine::report_from_records(records, im.label_time,
                                                   end_time, events);
  summary.wall_seconds =
      static_cast<double>(now_ns() - t_start) * 1e-9;
  summary.flows_per_sec =
      summary.wall_seconds > 0.0
          ? static_cast<double>(summary.flows_ingested) / summary.wall_seconds
          : 0.0;
  summary.latency_p50_ns = obs::histogram_quantile(*im.latency, 0.50);
  summary.latency_p90_ns = obs::histogram_quantile(*im.latency, 0.90);
  summary.latency_p99_ns = obs::histogram_quantile(*im.latency, 0.99);
  summary.latency_p999_ns = obs::histogram_quantile(*im.latency, 0.999);
  summary.slo_ms = opt.slo_ms;
  summary.slo_breaches = im.slo_breaches->value();
  summary.slo_breached = summary.slo_breaches > 0;
  registry_->gauge("serve.flows_per_sec").set(summary.flows_per_sec);

  if (decisions != nullptr) {
    outbuf += summary.to_json().dump();
    outbuf += '\n';
    write_decisions(true);
    decisions->flush();
  }
  // Final health sample + prom render so the last snapshot/file reflect
  // the drained pipeline (zero queues, final counters).
  im.sample_health();
  if (!opt.prom_path.empty()) im.write_prom_file();
  write_metrics_snapshot();
  return summary;
}

}  // namespace dq::serve
