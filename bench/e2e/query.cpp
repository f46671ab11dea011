// query: the analyst's read path.
//
// Set-up writes one E2-shaped stream through StoreWriter as v5 (per-column
// deflate): 64 segments, each on its own timestamp plateau as in
// bench_query, four segments per sealed file, so 16 files whose catalog
// ranges are disjoint.  Then one thread runs rounds until --seconds is up,
// closed loop, nothing writing:
//
//   scan    count, avg(latency), p99(latency) group by iface
//   window  the same, since/until one sealed file's catalog range (x2,
//           round-robin over the files)
//   chain   count, avg(latency) where chain == U (x2, chains drawn with
//           the seed)
//
// Catalog pruning, v5 inflate, column decode, span pairing and aggregation
// are on the path.
#include <map>

#include "analysis/trace_io.h"
#include "layers.h"
#include "store/store.h"
#include "workloads.h"

namespace causeway::bench {

Result run_query(const Options& opt) {
  Result r(opt.smoke);
  Tracer* tracer = opt.tracer;
  const std::string dir = opt.workdir + "/query";
  const std::string store_dir = dir + "/store";
  const double seconds = opt.smoke ? 0.3 : opt.seconds;

  E2Spec spec;
  spec.seed = opt.seed;
  spec.calls = opt.smoke ? 2000 : kE2Calls;
  spec.segments_per_part = 4;  // x4 parts x4 processes = 64 segments
  spec.plateaus = true;
  spec.sample_chains = 16;

  E2Input input;
  std::vector<std::string> windows;
  std::size_t files = 0;
  auto setup = [&] {
    input = make_e2_input(spec);
    fresh_dir(dir);
    store::StoreOptions so;
    so.trace_format = analysis::kTraceFormatV5;
    so.rotate_segments = 4;
    so.rotate_bytes = ~0ull;
    store::StoreWriter writer(store_dir, so);
    // Through the column form, as IngestSink transcodes into a v5 store:
    // append_encoded would keep the segments' v4 bytes.
    for (const Segment* s : send_order(input)) {
      writer.append(analysis::decode_trace_segment_columns(s->bytes));
    }
    writer.close();
    const store::StoreView view = store::open_store(store_dir);
    files = view.files.size();
    windows.clear();
    for (const auto& f : view.files) {
      windows.push_back(" since " + std::to_string(f.entry.min_ts) + " until " +
                        std::to_string(f.entry.max_ts));
    }
  };
  const double setup_s = timed_setup(tracer ? 1 : 3, setup);
  if (windows.empty() || input.chains.empty()) {
    r.check(false, "set-up produced no files or no chains");
    return r;
  }

  const std::string scan = "count, avg(latency), p99(latency) group by iface";
  LayerInputs in;
  Samples latency_ms;
  std::map<std::string, std::string> first_csv;  // query text -> CSV
  std::uint64_t queries = 0;
  std::uint64_t failed = 0;
  std::uint64_t scanned = 0;
  auto issue = [&](const std::string& text, std::size_t type) {
    ++queries;
    QueryRun run;
    try {
      run = timed_query(text, store_dir, &in.queries[type], tracer, queries);
    } catch (const std::exception& e) {
      ++failed;
      r.check(false, "query '%s' threw: %s", text.c_str(), e.what());
      return run;
    }
    latency_ms.add(run.latency_ms);
    scanned += run.records_scanned;
    auto [it, fresh] = first_csv.emplace(text, run.csv);
    if (!fresh && it->second != run.csv) {
      ++failed;
      r.check(false, "query '%s' answered differently across rounds",
              text.c_str());
    }
    return run;
  };

  reset_peak_rss();
  mark_phase(opt, true);
  const double cpu0 = cpu_seconds();
  const std::int64_t t0 = now_ns();
  const std::int64_t stop = t0 + static_cast<std::int64_t>(seconds * 1e9);
  std::size_t next_window = 0;
  std::size_t next_chain = 0;
  std::size_t rounds = 0;
  // At least 20 rounds, so the pooled p90 has its ten samples beyond.
  const std::size_t min_rounds = opt.smoke ? 1 : 20;
  while (now_ns() < stop || rounds < min_rounds) {
    const QueryRun s = issue(scan, query_type_index("scan"));
    // Column 1 of every group row is its count; they sum to all spans.
    if (rounds == 0) {
      double total = 0;
      std::size_t pos = s.csv.find('\n');
      while (pos != std::string::npos && pos + 1 < s.csv.size()) {
        const std::size_t comma = s.csv.find(',', pos + 1);
        if (comma == std::string::npos) break;
        total += std::atof(s.csv.c_str() + comma + 1);
        pos = s.csv.find('\n', pos + 1);
      }
      r.check(total == static_cast<double>(input.spans),
              "scan counts %.0f spans, the input has %llu", total,
              static_cast<unsigned long long>(input.spans));
    }
    for (int i = 0; i < 2; ++i) {
      const QueryRun w = issue(scan + windows[next_window % windows.size()],
                               query_type_index("window"));
      r.check(w.csv.empty() || w.files_opened == 1,
              "window query opened %llu files, not 1",
              static_cast<unsigned long long>(w.files_opened));
      ++next_window;
    }
    for (int i = 0; i < 2; ++i) {
      const std::size_t c = next_chain++ % input.chains.size();
      const QueryRun q =
          issue("count, avg(latency) where chain == " +
                    input.chains[c].to_string(),
                query_type_index("chain"));
      const double want = static_cast<double>(input.chain_spans[c]);
      r.check(q.csv.empty() || csv_scalar(q.csv) == want,
              "chain lookup counts %.0f spans, the chain has %llu",
              csv_scalar(q.csv),
              static_cast<unsigned long long>(input.chain_spans[c]));
    }
    ++rounds;
  }
  const double wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  const double cpu = cpu_seconds() - cpu0;
  mark_phase(opt, false);
  const double rss = peak_rss_mb();

  r.attempted = queries;
  r.failed = failed;
  r.add(r.e2e, "setup_s", setup_s, "s");
  r.add_percentile(r.e2e, "latency_p50_ms", latency_ms, 50);
  r.add_percentile(r.e2e, "latency_p90_ms", latency_ms, 90);
  r.add(r.e2e, "throughput_rec_per_s", static_cast<double>(scanned) / wall_s,
        "rec/s");
  r.add(r.e2e, "cpu_us_per_rec", cpu * 1e6 / static_cast<double>(scanned),
        "us");
  r.add(r.e2e, "store_bytes_per_rec",
        static_cast<double>(dir_bytes(store_dir)) /
            static_cast<double>(input.records),
        "B");
  r.add(r.e2e, "peak_rss_mb", rss, "MB");
  r.add(r.detail, "rounds", static_cast<double>(rounds), "count");
  r.add(r.detail, "files", static_cast<double>(files), "count");
  for (const char* type : kQueryTypes) {
    r.add_p50_tail(r.detail, type,
                   in.queries[query_type_index(type)].latency_ms);
  }

  if (tracer) {
    in.store_files = files;
    in.store_bytes = dir_bytes(store_dir);
    in.offered_per_s = static_cast<double>(queries) / wall_s;
    in.threads = 1;
    add_layer_metrics(r, *tracer, in);
  }
  return r;
}

}  // namespace causeway::bench
