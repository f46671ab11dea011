// fan-in: collectd with live characterization.
//
// A closed loop over fixed input: E2-shaped logsynth streams, split per
// process into v4 segments of 4096 records pre-encoded during set-up, are
// written by one thread over up to four unix: connections, round-robin,
// each segment as soon as the daemon has stored the previous one.  The
// daemon's IngestSink feeds an AnalysisPipeline (product-default shards)
// and a v4 store.  Decode, shard ingest, every analysis pass and store
// append are on the path; probes are not, so a monitor-layer change
// predicts no movement here.
//
// One segment in flight at a time keeps the arrival order, and with it the
// pipeline's work, the same from run to run: chains span processes, and
// how often the incremental passes revisit a chain depends on the order
// its pieces arrive in.  With a queue per connection that order would
// follow the scheduler.
#include <algorithm>
#include <thread>

#include "analysis/pipeline.h"
#include "analysis/trace_io.h"
#include "client.h"
#include "common/wire_io.h"
#include "layers.h"
#include "sink.h"
#include "workloads.h"

namespace causeway::bench {

Result run_fanin(const Options& opt) {
  Result r(opt.smoke);
  Tracer* tracer = opt.tracer;
  const std::string dir = opt.workdir + "/fan-in";
  const std::string store_dir = dir + "/store";
  const std::string address = "unix:" + dir + "/collectd.sock";
  const std::size_t conns = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, 4);

  // Two E2 runs' worth of calls per 10 s of --seconds (1.56M records at
  // 10 s): about as long to ingest as --seconds, and enough segments for a
  // p90 with twenty samples beyond it.
  E2Spec spec;
  spec.seed = opt.seed;
  spec.calls =
      opt.smoke ? 2000
                : static_cast<std::size_t>(2 * kE2Calls * opt.seconds / 10);
  spec.parts = 8;
  spec.records_per_segment = 4096;

  E2Input input;
  std::unique_ptr<analysis::AnalysisPipeline> pipeline;
  std::unique_ptr<BenchSink> sink;
  std::unique_ptr<transport::CollectorDaemon> daemon;
  std::unique_ptr<SegmentClient> client;
  std::vector<const Segment*> order;
  auto setup = [&] {
    client.reset();
    if (daemon) daemon->stop();
    daemon.reset();
    sink.reset();
    pipeline.reset();
    input = make_e2_input(spec);
    order = send_order(input);
    fresh_dir(dir);
    pipeline = std::make_unique<analysis::AnalysisPipeline>();
    BenchSink::Config sc;
    sc.pipeline = pipeline.get();
    sc.store_dir = store_dir;
    sc.store_options.rotate_bytes = 4ull << 20;
    sc.store_options.trace_format = analysis::kTraceFormatV4;
    sc.tracer = tracer;
    sink = std::make_unique<BenchSink>(sc);
    daemon = std::make_unique<transport::CollectorDaemon>(
        transport::CollectorDaemon::Options{{address}}, *sink);
    daemon->start();
    client = std::make_unique<SegmentClient>(address, conns, "fan-in");
  };
  const double setup_s = timed_setup(tracer ? 1 : 3, setup);

  // --- measured: each segment as soon as the previous one is stored.
  reset_peak_rss();
  mark_phase(opt, true);
  const double cpu0 = cpu_seconds();
  const std::int64_t t0 = now_ns();
  std::vector<std::int64_t> sent_ns;  // per segment in `order`
  std::vector<std::vector<std::size_t>> sent_on(conns);  // -> index in order
  std::uint64_t stored = 0;
  bool delivered = true;
  for (std::size_t i = 0; i < order.size() && delivered; ++i) {
    const Segment& seg = *order[i];
    const std::size_t k = seg.stream % conns;
    sent_on[k].push_back(i);
    {
      ScopedSpan span(tracer, "driver.send", 0, segment_request(k, seg.index));
      span.set_count(seg.records);
      sent_ns.push_back(now_ns());
      if (tracer) sink->expect(k, span.id(), sent_ns.back());
      delivered =
          io_write_full(client->fd(k), seg.bytes.data(), seg.bytes.size());
    }
    stored += seg.records;
    delivered = delivered && sink->wait_records(stored, 60);
  }
  const double cpu = cpu_seconds() - cpu0;
  mark_phase(opt, false);
  const double rss = peak_rss_mb();
  const bool closed = client->finish(30);

  const std::vector<BenchSink::Arrival> arrivals = sink->arrivals();
  const std::int64_t t_end =
      arrivals.empty() ? now_ns() : arrivals.back().end_ns;
  const double wall_s = static_cast<double>(t_end - t0) / 1e9;

  LayerInputs in;
  const std::int64_t r0 = now_ns();
  const std::string live_report = pipeline->report();
  in.report_ms = static_cast<double>(now_ns() - r0) / 1e6;
  in.chains = pipeline->database().chains().size();
  in.anomalies = pipeline->anomaly_events();
  daemon->stop();
  const BenchSink::Totals totals = sink->finalize();

  // --- checks
  r.check(delivered && totals.records == input.records,
          "sink stored %llu of %llu records",
          static_cast<unsigned long long>(totals.records),
          static_cast<unsigned long long>(input.records));
  r.check(totals.segments == order.size(), "sink saw %llu of %zu segments",
          static_cast<unsigned long long>(totals.segments), order.size());
  r.check(closed, "a connection did not close cleanly");
  const double stored_spans = final_count(r, store_dir);
  r.check(stored_spans == static_cast<double>(input.spans),
          "store counts %.0f spans, the input has %llu", stored_spans,
          static_cast<unsigned long long>(input.spans));
  // The live, many-epoch report must equal a one-epoch render of the same
  // records (the pipeline's N-epochs == one-epoch contract).
  pipeline.reset();
  {
    analysis::AnalysisPipeline reference;
    for (const Segment* s : order) {
      reference.database().ingest(
          analysis::decode_trace_segment_columns(s->bytes));
    }
    reference.refresh();
    r.check(reference.report() == live_report,
            "live report differs from the one-epoch offline render");
  }
  r.attempted = input.records;
  r.failed = input.records - std::min(input.records, totals.records);

  // Per-segment latency: written to stored (its on_segment returned).
  Samples latency_ms;
  for (const auto& a : arrivals) {
    if (a.nth < sent_on[a.connection].size()) {
      latency_ms.add(static_cast<double>(
                         a.end_ns - sent_ns[sent_on[a.connection][a.nth]]) /
                     1e6);
    }
  }

  const double records = static_cast<double>(totals.records);
  r.add(r.e2e, "setup_s", setup_s, "s");
  r.add_percentile(r.e2e, "latency_p50_ms", latency_ms, 50);
  r.add_percentile(r.e2e, "latency_p90_ms", latency_ms, 90);
  r.add(r.e2e, "throughput_rec_per_s", records / wall_s, "rec/s");
  r.add(r.e2e, "cpu_us_per_rec", cpu * 1e6 / records, "us");
  r.add(r.e2e, "store_bytes_per_rec",
        static_cast<double>(dir_bytes(store_dir)) / records, "B");
  r.add(r.e2e, "peak_rss_mb", rss, "MB");
  r.add(r.detail, "records", records, "count");
  r.add(r.detail, "daemon_wall_ms", wall_s * 1e3, "ms");

  if (tracer) {
    double on_segment_ms = 0;
    for (const auto& a : arrivals) {
      on_segment_ms += static_cast<double>(a.end_ns - a.start_ns) / 1e6;
    }
    in.frame_ms = wall_s * 1e3 - on_segment_ms;
    in.wait_ms = sink->waits_ms();
    in.transport_bytes = input.wire_bytes;
    in.transport_records = input.records;
    in.seal_ms = sink->seal_ms();
    in.store_files = totals.store_files;
    in.store_bytes = dir_bytes(store_dir);
    in.offered_per_s = static_cast<double>(order.size()) / wall_s;
    in.threads = 1;
    in.connections = static_cast<int>(conns);
    add_layer_metrics(r, *tracer, in);
  }
  return r;
}

}  // namespace causeway::bench
