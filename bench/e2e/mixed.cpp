// mixed: the store's write path beside its read path.
//
// Open loop, store-only ingest: E2-shaped logsynth streams seeded from
// --seed, split per process into 4096-record segments, each on its own
// timestamp plateau, are offered at 150k records/s, evenly spaced, over up
// to four unix: connections into a v5 store that seals every 1 MiB.  A
// second thread runs ten window and chain lookups a second, only over data
// the store has sealed: transcode, seal and catalog rewrite run beside
// catalog pruning, inflate and decode, so a change that helps one side at
// the other's cost shows here.
//
// The reader queries a snapshot: hard links to the sealed files plus a copy
// of the catalog, refreshed as seals land.  Querying the live directory
// instead races StoreWriter's seal (current.cwt read mid-append or renamed
// away between open_store and the scan; a file renamed but not yet
// catalogued is invisible), which a reader of sealed data never needs to
// touch.
#include <atomic>
#include <filesystem>
#include <limits>
#include <thread>

#include "analysis/trace_io.h"
#include "client.h"
#include "common/wire_io.h"
#include "layers.h"
#include "sink.h"
#include "store/catalog.h"
#include "workloads.h"

namespace causeway::bench {

namespace fs = std::filesystem;

namespace {

constexpr double kRecordsPerSecond = 150'000;
constexpr std::size_t kRecordsPerSegment = 4096;
constexpr double kLookupsPerSecond = 10;

// The reader's view of what is sealed: a snapshot directory it can query
// through the real planner without racing the writer.
class SealedSnapshot {
 public:
  SealedSnapshot(std::string store_dir, std::string snapshot_dir)
      : store_dir_(std::move(store_dir)), dir_(std::move(snapshot_dir)) {
    fresh_dir(dir_);
  }

  // Links newly sealed files and copies the catalog; true when anything
  // is sealed.
  bool refresh() {
    const std::optional<store::Catalog> catalog =
        store::load_catalog(store_dir_);
    if (!catalog || catalog->entries.size() == linked_) return linked_ > 0;
    for (std::size_t i = linked_; i < catalog->entries.size(); ++i) {
      const std::string& file = catalog->entries[i].file;
      fs::create_hard_link(fs::path(store_dir_) / file, fs::path(dir_) / file);
    }
    linked_ = catalog->entries.size();
    store::save_catalog(dir_, *catalog);
    catalog_ = *catalog;
    return true;
  }

  const std::string& dir() const { return dir_; }
  const store::Catalog& catalog() const { return catalog_; }

 private:
  std::string store_dir_;
  std::string dir_;
  std::size_t linked_{0};
  store::Catalog catalog_;
};

}  // namespace

Result run_mixed(const Options& opt) {
  Result r(opt.smoke);
  Tracer* tracer = opt.tracer;
  const std::string dir = opt.workdir + "/mixed";
  const std::string store_dir = dir + "/store";
  const std::string address = "unix:" + dir + "/collectd.sock";
  const std::size_t conns = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  const double rate = opt.smoke ? 30'000 : kRecordsPerSecond;
  const double seconds = opt.smoke ? 0.3 : opt.seconds;

  // Enough calls for the run at the offered rate (logsynth emits four
  // records per call).
  E2Spec spec;
  spec.seed = opt.seed;
  spec.calls = static_cast<std::size_t>(rate * seconds / 4);
  spec.parts = 8;
  spec.records_per_segment = kRecordsPerSegment;
  spec.plateaus = true;
  spec.sample_chains = 256;

  E2Input input;
  std::vector<const Segment*> order;
  std::unique_ptr<BenchSink> sink;
  std::unique_ptr<transport::CollectorDaemon> daemon;
  std::unique_ptr<SegmentClient> client;
  auto setup = [&] {
    client.reset();
    if (daemon) daemon->stop();
    daemon.reset();
    sink.reset();
    input = make_e2_input(spec);
    order = send_order(input);
    fresh_dir(dir);
    BenchSink::Config sc;
    sc.store_dir = store_dir;
    // Smoke runs are too short to fill 1 MiB; seal small so the reader runs.
    sc.store_options.rotate_bytes = opt.smoke ? 64ull << 10 : 1ull << 20;
    sc.store_options.trace_format = analysis::kTraceFormatV5;
    sc.tracer = tracer;
    sink = std::make_unique<BenchSink>(sc);
    daemon = std::make_unique<transport::CollectorDaemon>(
        transport::CollectorDaemon::Options{{address}}, *sink);
    daemon->start();
    client = std::make_unique<SegmentClient>(address, conns, "mixed");
  };
  const double setup_s = timed_setup(tracer ? 1 : 3, setup);

  // Which segment is each connection's nth, to match arrivals to sends.
  std::vector<std::vector<std::size_t>> sent_on(conns);  // -> index in order
  for (std::size_t i = 0; i < order.size(); ++i) {
    sent_on[order[i]->stream % conns].push_back(i);
  }

  LayerInputs in;
  std::atomic<bool> sending{true};
  std::uint64_t queries = 0;
  std::uint64_t failed_queries = 0;
  SealedSnapshot snapshot(store_dir, dir + "/snapshot");
  // Windows span two consecutive sealed files (one until a second seals):
  // no chain lookup opens more, so the reader's memory peak is the same
  // two-file decode in every run.
  auto window_lookup = [&](std::size_t n) {
    const auto& entries = snapshot.catalog().entries;
    const std::size_t k = n % std::max<std::size_t>(1, entries.size() - 1);
    const auto& first = entries[k];
    const auto& last = entries[std::min(k + 1, entries.size() - 1)];
    ++queries;
    try {
      timed_query("count, avg(latency), p99(latency) group by iface since " +
                      std::to_string(std::min(first.min_ts, last.min_ts)) +
                      " until " +
                      std::to_string(std::max(first.max_ts, last.max_ts)),
                  snapshot.dir(), &in.queries[query_type_index("window")],
                  tracer, queries);
    } catch (const std::exception& ex) {
      ++failed_queries;
      r.check(false, "window query threw: %s", ex.what());
    }
  };
  // A chain is sealed once every segment holding its records is: the store
  // appends in arrival order, so the sealed segments are the arrivals whose
  // running record count the catalog covers.
  auto chain_lookup = [&](std::size_t& next_chain) {
    const std::uint64_t sealed_records = snapshot.catalog().total_records();
    std::vector<std::vector<bool>> sealed(input.streams.size());
    for (std::size_t s = 0; s < input.streams.size(); ++s) {
      sealed[s].assign(input.streams[s].size(), false);
    }
    for (const auto& a : sink->arrivals()) {
      if (a.cumulative > sealed_records) break;
      const Segment* seg = order[sent_on[a.connection][a.nth]];
      sealed[seg->stream][seg->index] = true;
    }
    for (std::size_t tries = 0; tries < input.chains.size(); ++tries) {
      const std::size_t c = next_chain++ % input.chains.size();
      bool all = true;
      for (const auto& [s, i] : input.chain_segments[c]) {
        all = all && sealed[s][i];
      }
      if (!all) continue;
      // Bounded by the plateaus of the chain's segments, so the catalog
      // opens the files that hold it and no bloom false positives: how
      // many files a lookup decodes -- and so the reader's memory peak --
      // stays the same from run to run.
      std::int64_t since = std::numeric_limits<std::int64_t>::max();
      std::int64_t until = std::numeric_limits<std::int64_t>::min();
      for (const auto& [s, i] : input.chain_segments[c]) {
        since = std::min(since, input.streams[s][i].plateau);
        until = std::max(until,
                         input.streams[s][i].plateau + kPlateauWidth - 1);
      }
      ++queries;
      try {
        const QueryRun q = timed_query(
            "count, avg(latency) where chain == " +
                input.chains[c].to_string() + " since " +
                std::to_string(since) + " until " + std::to_string(until),
            snapshot.dir(), &in.queries[query_type_index("chain")], tracer,
            queries);
        if (csv_scalar(q.csv) != static_cast<double>(input.chain_spans[c])) {
          ++failed_queries;
          r.check(false, "chain lookup counts %.0f spans, the chain has %llu",
                  csv_scalar(q.csv),
                  static_cast<unsigned long long>(input.chain_spans[c]));
        }
      } catch (const std::exception& ex) {
        ++failed_queries;
        r.check(false, "chain lookup threw: %s", ex.what());
      }
      return;
    }
  };
  // The reader: lookups at a fixed rate, alternating window and chain, over
  // sealed data.  A fixed rate keeps the read load -- and so its CPU and
  // memory beside the writer -- the same from run to run; a reader that
  // queries back to back consumed most of the process's CPU and made
  // cpu_us_per_rec and the freshness tail measure the reader.
  auto reader = [&] {
    std::size_t lookups = 0;
    std::size_t next_chain = 0;
    auto next = std::chrono::steady_clock::now();
    while (sending.load(std::memory_order_relaxed)) {
      next += std::chrono::microseconds(
          static_cast<std::int64_t>(1e6 / kLookupsPerSecond));
      std::this_thread::sleep_until(next);
      try {
        if (!snapshot.refresh()) continue;
      } catch (const std::exception& e) {
        ++failed_queries;
        r.check(false, "snapshot refresh threw: %s", e.what());
        return;
      }
      if (lookups++ % 2 == 0) {
        window_lookup(lookups / 2);
      } else {
        chain_lookup(next_chain);
      }
    }
  };

  // --- measured: the open-loop sender on this thread, the reader beside it.
  reset_peak_rss();
  mark_phase(opt, true);
  const double cpu0 = cpu_seconds();
  const std::int64_t t0 = now_ns() + 1'000'000;
  std::vector<std::int64_t> due(order.size());
  Samples late_ms;
  std::thread reader_thread(reader);
  bool write_ok = true;
  std::uint64_t offered = 0;  // records before this segment
  for (std::size_t i = 0; i < order.size() && write_ok; ++i) {
    const Segment& seg = *order[i];
    const std::size_t k = seg.stream % conns;
    due[i] = t0 + static_cast<std::int64_t>(static_cast<double>(offered) /
                                            rate * 1e9);
    offered += seg.records;
    wait_until(due[i]);
    const std::int64_t start = now_ns();
    late_ms.add(static_cast<double>(start - due[i]) / 1e6);
    ScopedSpan span(tracer, "driver.send", 0, segment_request(k, seg.index));
    span.set_count(seg.records);
    if (tracer) sink->expect(k, span.id(), start);
    write_ok = io_write_full(client->fd(k), seg.bytes.data(), seg.bytes.size());
  }
  const bool delivered = sink->wait_records(input.records, 60);
  sending.store(false);
  reader_thread.join();
  r.check(write_ok, "a segment write failed");
  const double cpu = cpu_seconds() - cpu0;
  mark_phase(opt, false);
  const double rss = peak_rss_mb();
  const bool closed = client->finish(30);
  daemon->stop();
  const BenchSink::Totals totals = sink->finalize();
  const std::vector<BenchSink::Arrival> arrivals = sink->arrivals();

  // --- checks
  r.check(delivered && totals.records == input.records,
          "sink stored %llu of %llu records",
          static_cast<unsigned long long>(totals.records),
          static_cast<unsigned long long>(input.records));
  r.check(closed, "a connection did not close cleanly");
  const double stored_spans = final_count(r, store_dir);
  r.check(stored_spans == static_cast<double>(input.spans),
          "store counts %.0f spans, the input has %llu", stored_spans,
          static_cast<unsigned long long>(input.spans));
  r.attempted = input.records + queries;
  r.failed = input.records - std::min(input.records, totals.records) +
             failed_queries;

  // Freshness: a segment's scheduled send to the return of its on_segment.
  Samples fresh_ms;
  for (const auto& a : arrivals) {
    if (a.nth < sent_on[a.connection].size()) {
      fresh_ms.add(static_cast<double>(
                       a.end_ns - due[sent_on[a.connection][a.nth]]) /
                   1e6);
    }
  }
  const std::int64_t t_end =
      arrivals.empty() ? now_ns() : arrivals.back().end_ns;
  const double wall_s = static_cast<double>(t_end - t0) / 1e9;
  const double records = static_cast<double>(totals.records);
  r.add(r.e2e, "setup_s", setup_s, "s");
  r.add_percentile(r.e2e, "latency_p50_ms", fresh_ms, 50);
  r.add_percentile(r.e2e, "latency_p90_ms", fresh_ms, 90);
  r.add(r.e2e, "throughput_rec_per_s", records / wall_s, "rec/s");
  r.add(r.e2e, "cpu_us_per_rec", cpu * 1e6 / records, "us");
  r.add(r.e2e, "store_bytes_per_rec",
        static_cast<double>(dir_bytes(store_dir)) / records, "B");
  r.add(r.e2e, "peak_rss_mb", rss, "MB");
  r.add(r.detail, "files", static_cast<double>(totals.store_files), "count");
  r.add(r.detail, "queries", static_cast<double>(queries), "count");
  r.add_p50_tail(r.detail, "window",
                 in.queries[query_type_index("window")].latency_ms);
  r.add_p50_tail(r.detail, "chain",
                 in.queries[query_type_index("chain")].latency_ms);

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
    in.late_ms = late_ms;
    in.offered_per_s = static_cast<double>(order.size()) / wall_s;
    in.threads = 2;
    in.connections = static_cast<int>(conns);
    add_layer_metrics(r, *tracer, in);
  }
  return r;
}

}  // namespace causeway::bench
