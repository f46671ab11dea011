// live: what the monitored process sees.
//
// The synthetic component system of `causeway-record --workload=synthetic`
// runs with its probes on, driven open-loop (Poisson arrivals at 2000
// transactions/s from one client thread).  An EpochPublisher with the
// product defaults (50 ms, adaptive cadence) ships each drain over a unix:
// socket to an in-process CollectorDaemon, whose IngestSink writes a v4
// store only -- no pipeline.  So probes, rings, drain, encode and the
// uplink do nearly all the work.
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <random>
#include <thread>

#include "analysis/trace_io.h"
#include "layers.h"
#include "monitor/collector.h"
#include "orb/transport.h"
#include "sink.h"
#include "transport/publisher.h"
#include "transport/uplink.h"
#include "workload/synthetic.h"
#include "workloads.h"

namespace causeway::bench {

namespace {

constexpr double kTxnPerSecond = 2000;
// Probe points per component call: stub start/end, skeleton start/end.
constexpr std::uint64_t kRecordsPerCall = 4;
constexpr std::uint64_t kDrainBaseMs = 50;

// causeway-record --workload=synthetic's configuration, at its default seed:
// the system under test stays fixed, and --seed drives the arrivals.
workload::SyntheticConfig product_config(bool instrumented) {
  workload::SyntheticConfig config;
  config.seed = 42;
  config.domains = 4;
  config.components = 24;
  config.interfaces = 12;
  config.methods_per_interface = 4;
  config.levels = 4;
  config.max_children = 2;
  config.oneway_fraction = 0.1;
  config.cpu_per_call = 10 * kNanosPerMicro;
  config.processor_kinds = 3;
  config.monitor.mode = monitor::ProbeMode::kLatency;
  config.instrumented = instrumented;
  return config;
}

// The calls EpochPublisher makes -- Collector::drain, encode_trace,
// Uplink::offer_segment, paced by monitor::adaptive_interval_ms -- made by
// the benchmark, so each is a span of its own.
class TracedPublisher {
 public:
  TracedPublisher(monitor::Collector& collector, const std::string& address,
                  Tracer* tracer, BenchSink& sink)
      : collector_(collector),
        tracer_(tracer),
        sink_(sink),
        uplink_(uplink_config(address),
                [this](const transport::ControlDirective& d) {
                  handle_directive(d);
                }) {}
  ~TracedPublisher() { finish(); }
  TracedPublisher(const TracedPublisher&) = delete;
  TracedPublisher& operator=(const TracedPublisher&) = delete;

  void start() {
    uplink_.start();
    worker_ = std::thread([this] { run(); });
  }

  bool finish() {
    {
      std::lock_guard lk(mutex_);
      if (finished_) return clean_;
      finished_ = true;
      stop_ = true;
    }
    cv_.notify_all();
    if (worker_.joinable()) worker_.join();
    clean_ = uplink_.finish(5000);
    return clean_;
  }

  transport::Uplink::Stats stats() const { return uplink_.stats(); }

  // Drain observations; read after finish().
  Samples drain_interval_ms;
  double ring_util_max{0};
  std::uint64_t ring_drops{0};

 private:
  static transport::UplinkConfig uplink_config(const std::string& address) {
    transport::PublisherConfig defaults;  // EpochPublisher's defaults
    transport::UplinkConfig uc;
    uc.address = address;
    uc.process_name = "live-0";
    uc.trace_format = analysis::kTraceFormatDefault;
    uc.max_inflight_bytes = defaults.max_inflight_bytes;
    uc.reconnect_initial_ms = defaults.reconnect_initial_ms;
    uc.reconnect_max_ms = defaults.reconnect_max_ms;
    uc.backoff_jitter = defaults.backoff_jitter;
    uc.sndbuf_bytes = defaults.sndbuf_bytes;
    return uc;
  }

  void handle_directive(const transport::ControlDirective& d) {
    staged_seq_.store(d.seq, std::memory_order_release);
    monitor::ControlUpdate update;
    if (d.mode && *d.mode <= 2) {
      update.mode = static_cast<monitor::ProbeMode>(*d.mode);
    }
    if (d.sample_rate_index &&
        *d.sample_rate_index < monitor::kSampleRateCount) {
      update.sample_rate_index = *d.sample_rate_index;
    }
    if (d.enabled) update.enabled = *d.enabled;
    if (d.muted_interfaces) update.muted_interfaces = *d.muted_interfaces;
    if (!update.empty()) collector_.stage_control(update);
  }

  void run() {
    std::uint64_t interval = kDrainBaseMs;
    std::int64_t next =
        now_ns() + static_cast<std::int64_t>(interval) * 1'000'000;
    std::unique_lock lk(mutex_);
    while (!stop_) {
      cv_.wait_for(lk, std::chrono::nanoseconds(std::max<std::int64_t>(
                           next - now_ns(), 1'000'000)),
                   [this] { return stop_; });
      if (stop_) break;
      if (now_ns() < next) continue;
      lk.unlock();
      drain_once(false);
      interval = monitor::adaptive_interval_ms(interval, kDrainBaseMs,
                                               last_dropped_, last_util_);
      next = now_ns() + static_cast<std::int64_t>(interval) * 1'000'000;
      lk.lock();
    }
    lk.unlock();
    drain_once(true);
  }

  void drain_once(bool final_drain) {
    const std::uint64_t applied = staged_seq_.load(std::memory_order_acquire);
    const std::int64_t start = now_ns();
    if (last_drain_ns_ != 0) {
      drain_interval_ms.add(static_cast<double>(start - last_drain_ns_) / 1e6);
    }
    last_drain_ns_ = start;
    const std::uint64_t epoch = collector_.epoch() + 1;
    monitor::CollectedLogs logs;
    {
      ScopedSpan span(tracer_, "monitor.drain", 0, epoch);
      logs = collector_.drain();
      span.set_count(logs.records.size());
    }
    last_dropped_ = logs.dropped;
    last_util_ = logs.ring_utilization;
    ring_util_max = std::max(ring_util_max, logs.ring_utilization);
    ring_drops += logs.dropped;
    const std::uint8_t mode =
        logs.domains.empty() ? 0
                             : static_cast<std::uint8_t>(logs.domains[0].mode);
    uplink_.offer_status(applied, logs.sampled_out, 0, mode);
    if (!final_drain && logs.records.empty() && logs.dropped == 0) return;
    std::vector<std::uint8_t> bytes;
    {
      ScopedSpan span(tracer_, "trace_io.encode", 0, epoch);
      bytes = analysis::encode_trace(logs, analysis::kTraceFormatDefault);
      span.set_count(logs.records.size());
    }
    ScopedSpan span(tracer_, "transport.offer", 0, epoch);
    span.set_count(bytes.size());
    // Name the cause before the uplink can deliver it.
    sink_.expect(0, span.id(), now_ns());
    if (!uplink_.offer_segment(std::move(bytes), logs.records.size())) {
      sink_.unexpect_last(0);
    }
  }

  monitor::Collector& collector_;
  Tracer* tracer_;
  BenchSink& sink_;
  transport::Uplink uplink_;
  std::atomic<std::uint64_t> staged_seq_{0};
  std::uint64_t last_dropped_{0};
  double last_util_{0};
  std::int64_t last_drain_ns_{0};

  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_{false};      // guarded by mutex_
  bool finished_{false};  // guarded by mutex_
  bool clean_{false};
  std::thread worker_;
};

// Everything one set-up builds.  Declared in dependency order, so members
// are destroyed publisher first, sink last.
struct LiveRig {
  std::unique_ptr<BenchSink> sink;
  std::unique_ptr<transport::CollectorDaemon> daemon;
  std::unique_ptr<orb::Fabric> fabric;
  std::unique_ptr<workload::SyntheticSystem> system;
  std::unique_ptr<monitor::Collector> collector;
  std::unique_ptr<transport::EpochPublisher> publisher;
  std::unique_ptr<TracedPublisher> traced;
};

// Poisson arrival offsets (ns from the start) covering `seconds`.
std::vector<std::int64_t> poisson_schedule(std::uint64_t seed, double rate,
                                           double seconds) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  std::vector<std::int64_t> due;
  double t = 0;
  for (;;) {
    t += gap(rng);
    if (t >= seconds) break;
    due.push_back(static_cast<std::int64_t>(t * 1e9));
  }
  return due;
}

// Runs the schedule on `system` from the calling thread; returns the
// latency (us, from the scheduled start) and lateness (ms) samples and each
// transaction's completion time.
struct LoopOutcome {
  Samples txn_us;
  Samples late_ms;
  std::vector<std::int64_t> completed_ns;
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
};

LoopOutcome open_loop(workload::SyntheticSystem& system,
                      const std::vector<std::int64_t>& schedule,
                      Tracer* tracer) {
  LoopOutcome out;
  out.txn_us.reserve(schedule.size());
  out.completed_ns.reserve(schedule.size());
  out.start_ns = now_ns() + 1'000'000;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const std::int64_t due = out.start_ns + schedule[i];
    wait_until(due);
    const std::int64_t start = now_ns();
    {
      ScopedSpan span(tracer, "driver.txn", 0, i);
      system.run_transaction();
    }
    const std::int64_t end = now_ns();
    out.txn_us.add(static_cast<double>(end - due) / 1e3);
    out.late_ms.add(static_cast<double>(start - due) / 1e6);
    out.completed_ns.push_back(end);
  }
  out.end_ns = now_ns();
  return out;
}

}  // namespace

Result run_live(const Options& opt) {
  Result r(opt.smoke);
  Tracer* tracer = opt.tracer;
  const std::string dir = opt.workdir + "/live";
  const std::string store_dir = dir + "/store";
  const std::string address = "unix:" + dir + "/collectd.sock";
  const std::size_t warmup = opt.smoke ? 20 : 200;
  const double seconds = opt.smoke ? 0.3 : opt.seconds;

  std::unique_ptr<LiveRig> rig;
  std::uint64_t records_per_txn = 0;
  auto setup = [&] {
    rig.reset();
    fresh_dir(dir);
    rig = std::make_unique<LiveRig>();
    BenchSink::Config sc;
    sc.store_dir = store_dir;
    sc.store_options.rotate_bytes = 4ull << 20;
    sc.store_options.trace_format = analysis::kTraceFormatV4;
    sc.tracer = tracer;
    rig->sink = std::make_unique<BenchSink>(sc);
    rig->daemon = std::make_unique<transport::CollectorDaemon>(
        transport::CollectorDaemon::Options{{address}}, *rig->sink);
    rig->daemon->start();
    rig->fabric = std::make_unique<orb::Fabric>();
    rig->system = std::make_unique<workload::SyntheticSystem>(
        *rig->fabric, product_config(true));
    records_per_txn = kRecordsPerCall * rig->system->calls_per_transaction();
    rig->collector = std::make_unique<monitor::Collector>();
    rig->system->attach_collector(*rig->collector);
    if (tracer) {
      rig->traced = std::make_unique<TracedPublisher>(*rig->collector, address,
                                                      tracer, *rig->sink);
      rig->traced->start();
    } else {
      transport::PublisherConfig pc;
      pc.address = address;
      pc.process_name = "live-0";
      pc.interval_ms = kDrainBaseMs;
      pc.adaptive = true;
      rig->publisher =
          std::make_unique<transport::EpochPublisher>(*rig->collector, pc);
      rig->publisher->start();
    }
    rig->system->run_transactions(warmup);
    rig->system->wait_quiescent();
    const std::uint64_t want = warmup * records_per_txn;
    if (!rig->sink->wait_records(want, 30)) {
      r.check(false, "warm-up: %llu of %llu records reached the sink",
              static_cast<unsigned long long>(rig->sink->records()),
              static_cast<unsigned long long>(want));
    }
  };
  const double setup_s = timed_setup(tracer ? 1 : 3, setup);
  if (!r.correct) return r;
  const std::uint64_t warm_records = rig->sink->records();

  const std::vector<std::int64_t> schedule =
      poisson_schedule(opt.seed, kTxnPerSecond, seconds);
  reset_peak_rss();
  mark_phase(opt, true);
  const double cpu0 = cpu_seconds();
  LoopOutcome loop = open_loop(*rig->system, schedule, tracer);
  rig->system->wait_quiescent();
  std::uint64_t sent = 0;
  std::uint64_t publish_drops = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t wire_bytes = 0;
  auto finish = [&](auto& publisher) {
    const bool clean = publisher.finish();
    const auto s = publisher.stats();
    sent = s.records_sent;
    publish_drops = s.dropped_records;
    reconnects = s.reconnects;
    wire_bytes = s.bytes_sent;
    return clean;
  };
  const bool clean =
      rig->publisher ? finish(*rig->publisher) : finish(*rig->traced);
  const bool delivered = rig->sink->wait_records(sent, 30);
  const std::int64_t stored_ns = now_ns();
  const double cpu = cpu_seconds() - cpu0;
  mark_phase(opt, false);
  const double rss = peak_rss_mb();

  const monitor::CollectedLogs leftover = rig->collector->collect();
  rig->daemon->stop();
  const BenchSink::Totals totals = rig->sink->finalize();
  const std::vector<BenchSink::Arrival> arrivals = rig->sink->arrivals();

  // --- checks
  const std::uint64_t txns = warmup + schedule.size();
  const std::uint64_t calls = txns * rig->system->calls_per_transaction();
  const std::uint64_t activations = txns * records_per_txn;
  r.check(clean, "publisher flush did not complete");
  r.check(delivered && totals.records == sent,
          "sink stored %llu records, publisher sent %llu",
          static_cast<unsigned long long>(totals.records),
          static_cast<unsigned long long>(sent));
  r.check(leftover.records.empty(), "%zu records left in the rings",
          leftover.records.size());
  const std::uint64_t accounted =
      totals.records + leftover.dropped + publish_drops + leftover.sampled_out;
  r.check(accounted == activations,
          "conservation: %llu activations, %llu stored + %llu ring drops + "
          "%llu publish drops + %llu sampled out",
          static_cast<unsigned long long>(activations),
          static_cast<unsigned long long>(totals.records),
          static_cast<unsigned long long>(leftover.dropped),
          static_cast<unsigned long long>(publish_drops),
          static_cast<unsigned long long>(leftover.sampled_out));
  const double stored_calls = final_count(r, store_dir);
  r.check(stored_calls == static_cast<double>(calls),
          "store counts %.0f calls, the system made %llu", stored_calls,
          static_cast<unsigned long long>(calls));
  r.attempted = activations;
  r.failed = activations - std::min(activations, totals.records);

  // --- freshness: a transaction is queryable once the sink's stored-record
  // count covers it (transactions are serial, each records_per_txn records).
  Samples fresh_ms;
  std::size_t a = 0;
  for (std::size_t i = 0; i < loop.completed_ns.size(); ++i) {
    const std::uint64_t need = (warmup + i + 1) * records_per_txn;
    while (a < arrivals.size() && arrivals[a].cumulative < need) ++a;
    if (a == arrivals.size()) break;
    fresh_ms.add(
        static_cast<double>(arrivals[a].end_ns - loop.completed_ns[i]) / 1e6);
  }

  const std::uint64_t measured_records = totals.records - warm_records;
  const double wall_s = static_cast<double>(loop.end_ns - loop.start_ns) / 1e9;
  r.add(r.e2e, "setup_s", setup_s, "s");
  r.add_percentile(r.e2e, "latency_p50_ms", loop.txn_us, 50, 1e-3);
  r.add_percentile(r.e2e, "latency_p90_ms", loop.txn_us, 90, 1e-3);
  r.add(r.e2e, "throughput_rec_per_s",
        static_cast<double>(measured_records) / wall_s, "rec/s");
  r.add(r.e2e, "cpu_us_per_rec",
        cpu * 1e6 / static_cast<double>(measured_records), "us");
  r.add(r.e2e, "store_bytes_per_rec",
        static_cast<double>(dir_bytes(store_dir)) /
            static_cast<double>(totals.records),
        "B");
  r.add(r.e2e, "peak_rss_mb", rss, "MB");

  r.add_p50_tail(r.detail, "txn", loop.txn_us, 1.0, "us");
  r.add_p50_tail(r.detail, "fresh", fresh_ms);

  if (tracer) {
    LayerInputs in;
    // The probes' own cost (E7): one schedule alternating, transaction by
    // transaction, between a fresh system with its probes on and one with
    // instrumentation off in every call, so both run on the same host at the
    // same moment -- two legs run one after the other differed by more than
    // the probes cost.  Nothing drains the probed system (its rings hold the
    // run): this is the probes alone; drain, encode and send are their own
    // metrics.
    {
      orb::Fabric fabric_on;
      orb::Fabric fabric_off;
      workload::SyntheticSystem probed(fabric_on, product_config(true));
      workload::SyntheticSystem bare(fabric_off, product_config(false));
      probed.run_transactions(warmup);
      bare.run_transactions(warmup);
      Samples on_us;
      Samples off_us;
      const std::int64_t start = now_ns() + 1'000'000;
      for (std::size_t i = 0; i < schedule.size(); ++i) {
        const std::int64_t due = start + schedule[i];
        wait_until(due);
        (i % 2 ? bare : probed).run_transaction();
        (i % 2 ? off_us : on_us).add(static_cast<double>(now_ns() - due) / 1e3);
      }
      const auto on = on_us.percentile(50);
      const auto off = off_us.percentile(50);
      if (on && off) in.probe_us_per_txn = *on - *off;
      r.add_percentile(r.detail, "probes_on_txn_p50_us", on_us, 50, 1.0, "us");
      r.add_percentile(r.detail, "probes_off_txn_p50_us", off_us, 50, 1.0,
                       "us");
    }
    in.txn_us = loop.txn_us;
    in.drain_interval_ms = rig->traced->drain_interval_ms;
    in.ring_util_max = rig->traced->ring_util_max;
    in.ring_drops = rig->traced->ring_drops;
    in.wait_ms = rig->sink->waits_ms();
    in.transport_bytes = wire_bytes;
    in.transport_records = sent;
    in.publish_drops = publish_drops;
    in.reconnects = reconnects;
    double on_segment_ms = 0;
    for (const auto& arr : arrivals) {
      if (arr.start_ns >= loop.start_ns) {
        on_segment_ms += static_cast<double>(arr.end_ns - arr.start_ns) / 1e6;
      }
    }
    in.frame_ms =
        static_cast<double>(stored_ns - loop.start_ns) / 1e6 - on_segment_ms;
    in.seal_ms = rig->sink->seal_ms();
    in.store_files = totals.store_files;
    in.store_bytes = dir_bytes(store_dir);
    in.late_ms = loop.late_ms;
    in.offered_per_s = static_cast<double>(schedule.size()) / wall_s;
    in.threads = 1;
    in.connections = 1;
    add_layer_metrics(r, *tracer, in);
  }
  return r;
}

}  // namespace causeway::bench
