#include "layers.h"

#include <cstdlib>

#include "query/engine.h"
#include "query/parser.h"
#include "store/store.h"

namespace causeway::bench {

QueryRun timed_query(const std::string& text, const std::string& store_dir,
                     QueryTypeStats* into, Tracer* tracer,
                     std::uint64_t request) {
  if (tracer) {
    ScopedSpan span(tracer, "query.open_store", 0, request);
    const std::int64_t t0 = now_ns();
    const store::StoreView view = store::open_store(store_dir);
    span.set_count(view.files.size());
    if (into) into->open_store_ms.add(static_cast<double>(now_ns() - t0) / 1e6);
  }
  ScopedSpan driver(tracer, "driver.query", 0, request);
  const std::int64_t t0 = now_ns();
  query::Query q;
  {
    ScopedSpan span(tracer, "query.parse", driver.id(), request);
    q = query::parse_query(text);
  }
  const std::int64_t t1 = now_ns();
  QueryRun out;
  query::QueryResult result;
  {
    ScopedSpan span(tracer, "query.run", driver.id(), request);
    result = query::run_query(q, {store_dir});
    out.csv = query::render_csv(result);
    span.set_count(result.stats.records_scanned);
  }
  const std::int64_t t2 = now_ns();
  out.latency_ms = static_cast<double>(t2 - t0) / 1e6;
  out.files_opened = result.stats.files_opened;
  out.records_scanned = result.stats.records_scanned;
  if (into) {
    into->latency_ms.add(out.latency_ms);
    into->parse_us.add(static_cast<double>(t1 - t0) / 1e3);
    into->files_total += result.stats.files_total;
    into->files_opened += result.stats.files_opened;
    into->files_pruned += result.stats.files_pruned;
    into->segments_decoded += result.stats.segments_decoded;
    into->records_scanned += result.stats.records_scanned;
    into->spans_matched += result.stats.spans_matched;
  }
  return out;
}

double csv_scalar(const std::string& csv) {
  const std::size_t nl = csv.find('\n');
  return nl == std::string::npos ? -1.0 : std::atof(csv.c_str() + nl + 1);
}

double final_count(Result& r, const std::string& store_dir) {
  try {
    return csv_scalar(timed_query("count", store_dir, nullptr, nullptr, 0).csv);
  } catch (const std::exception& e) {
    r.check(false, "final count query threw: %s", e.what());
    return -1;
  }
}

namespace {

double per(double total, double n) { return n > 0 ? total / n : 0.0; }

}  // namespace

std::size_t query_type_index(const std::string& type) {
  for (std::size_t i = 0; i < kQueryTypes.size(); ++i) {
    if (type == kQueryTypes[i]) return i;
  }
  return 0;
}

void add_layer_metrics(Result& r, const Tracer& tracer, const LayerInputs& in) {
  auto& out = r.layer;
  auto add = [&](const std::string& name, double value, const char* unit,
                 std::size_t samples = 0) {
    r.add(out, name, value, unit, samples);
  };

  // monitor
  add("monitor.probe_us_per_txn", in.probe_us_per_txn, "us");
  int pct = 0;
  const double txn_tail = in.txn_us.tail(&pct);
  r.add(out, "monitor.txn_tail_us", txn_tail, "us", in.txn_us.size(), pct);
  const Samples drains = tracer.durations_ms("monitor.drain");
  add("monitor.drain_ms", drains.sum(), "ms", drains.size());
  r.add_p50_tail(out, "monitor.drain", drains);
  add("monitor.drain_calls", static_cast<double>(drains.size()), "count");
  const auto interval = in.drain_interval_ms.percentile(50);
  add("monitor.drain_interval_p50_ms", interval.value_or(0.0), "ms",
      in.drain_interval_ms.size());
  add("monitor.ring_util_max", in.ring_util_max, "ratio");
  add("monitor.ring_drops", static_cast<double>(in.ring_drops), "count");

  // trace_io
  const double encode_ms = tracer.total_ms("trace_io.encode");
  const double encoded =
      static_cast<double>(tracer.total_count("trace_io.encode"));
  add("trace_io.encode_ms", encode_ms, "ms", tracer.calls("trace_io.encode"));
  add("trace_io.encode_ns_per_rec", per(encode_ms * 1e6, encoded), "ns");
  add("trace_io.wire_bytes_per_rec",
      per(static_cast<double>(in.transport_bytes),
          static_cast<double>(in.transport_records)),
      "B");
  const double decode_ms = tracer.total_ms("trace_io.decode");
  add("trace_io.decode_ms", decode_ms, "ms", tracer.calls("trace_io.decode"));
  add("trace_io.decode_ns_per_rec",
      per(decode_ms * 1e6,
          static_cast<double>(tracer.total_count("trace_io.decode"))),
      "ns");

  // transport
  add("transport.offer_ms", tracer.total_ms("transport.offer"), "ms",
      tracer.calls("transport.offer"));
  r.add_p50_tail(out, "transport.wait", in.wait_ms);
  add("transport.frame_ms", in.frame_ms, "ms");
  add("transport.bytes", static_cast<double>(in.transport_bytes), "B");
  add("transport.publish_drops", static_cast<double>(in.publish_drops),
      "count");
  add("transport.reconnects", static_cast<double>(in.reconnects), "count");

  // pipeline
  const Samples ingest = tracer.durations_ms("pipeline.ingest");
  add("pipeline.ingest_ms", ingest.sum(), "ms", ingest.size());
  add("pipeline.ingest_us_per_rec",
      per(ingest.sum() * 1e3,
          static_cast<double>(tracer.total_count("pipeline.ingest"))),
      "us");
  r.add_p50_tail(out, "pipeline.ingest", ingest);
  for (const char* pass : kPipelinePasses) {
    add(std::string("pipeline.pass.") + pass + "_ms", 0.0, "ms");
  }
  add("pipeline.chains", static_cast<double>(in.chains), "count");
  add("pipeline.anomalies", static_cast<double>(in.anomalies), "count");
  add("pipeline.report_ms", in.report_ms, "ms");

  // store
  const Samples appends = tracer.durations_ms("store.append");
  add("store.append_ms", appends.sum(), "ms", appends.size());
  r.add_p50_tail(out, "store.append", appends);
  add("store.seals", static_cast<double>(in.seal_ms.size()), "count");
  add("store.seal_ms", in.seal_ms.sum(), "ms", in.seal_ms.size());
  add("store.files", static_cast<double>(in.store_files), "count");
  add("store.bytes", static_cast<double>(in.store_bytes), "B");

  // query, per type
  for (std::size_t t = 0; t < kQueryTypes.size(); ++t) {
    const QueryTypeStats& q = in.queries[t];
    const std::string p = std::string("query.") + kQueryTypes[t] + ".";
    const double n = static_cast<double>(q.latency_ms.size());
    const auto p50 = q.latency_ms.percentile(50);
    add(p + "p50_ms", p50.value_or(0.0), "ms", q.latency_ms.size());
    add(p + "open_store_ms", q.open_store_ms.mean(), "ms",
        q.open_store_ms.size());
    add(p + "parse_us", q.parse_us.mean(), "us", q.parse_us.size());
    add(p + "files_opened", per(static_cast<double>(q.files_opened), n),
        "count");
    add(p + "prune_ratio",
        per(static_cast<double>(q.files_pruned),
            static_cast<double>(q.files_total)),
        "ratio");
    add(p + "segments_decoded",
        per(static_cast<double>(q.segments_decoded), n), "count");
    add(p + "records_scanned", per(static_cast<double>(q.records_scanned), n),
        "count");
    add(p + "scanned_per_match",
        per(static_cast<double>(q.records_scanned),
            static_cast<double>(q.spans_matched)),
        "ratio");
  }

  // driver
  const double late_tail = in.late_ms.tail(&pct);
  r.add(out, "driver.late_tail_ms", late_tail, "ms", in.late_ms.size(), pct);
  add("driver.offered_per_s", in.offered_per_s, "1/s");
  add("driver.threads", in.threads, "count");
  add("driver.connections", in.connections, "count");

  // Self time per layer (span duration minus same-thread children).
  const auto self = tracer.self_ms_by_layer();
  for (const char* layer : {"driver", "monitor", "trace_io", "transport",
                            "pipeline", "store", "query"}) {
    double ms = 0;
    for (const auto& [name, v] : self) {
      if (name == layer) ms = v;
    }
    add(std::string(layer) + ".self_ms", ms, "ms");
  }
}

}  // namespace causeway::bench
