// The per-layer metrics of the traced run.
//
// Every workload reports the same list, so a metric keeps its meaning
// across workloads; a layer a workload does not exercise reads 0.  Timings
// come from the tracer's spans; what spans cannot see (ring occupancy,
// catalog pruning, load-generator lateness) the workload fills in here.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common.h"

namespace causeway::bench {

// Query types the workloads issue, in report order.
inline constexpr std::array<const char*, 3> kQueryTypes = {"scan", "window",
                                                           "chain"};

struct QueryTypeStats {
  Samples latency_ms;     // parse + plan + execute + render
  Samples parse_us;
  Samples open_store_ms;  // store::open_store timed on its own
  std::uint64_t files_total{0};
  std::uint64_t files_opened{0};
  std::uint64_t files_pruned{0};
  std::uint64_t segments_decoded{0};
  std::uint64_t records_scanned{0};
  std::uint64_t spans_matched{0};
};

struct LayerInputs {
  // monitor
  double probe_us_per_txn{0};
  Samples txn_us;
  Samples drain_interval_ms;
  double ring_util_max{0};
  std::uint64_t ring_drops{0};
  // transport
  double frame_ms{0};
  Samples wait_ms;
  std::uint64_t transport_bytes{0};    // segment bytes put on the wire
  std::uint64_t transport_records{0};  // records those bytes carried
  std::uint64_t publish_drops{0};
  std::uint64_t reconnects{0};
  // pipeline
  std::uint64_t chains{0};
  std::uint64_t anomalies{0};
  double report_ms{0};
  // store
  Samples seal_ms;
  std::uint64_t store_files{0};
  std::uint64_t store_bytes{0};
  // query, indexed like kQueryTypes
  std::array<QueryTypeStats, kQueryTypes.size()> queries;
  // driver
  Samples late_ms;
  double offered_per_s{0};
  int threads{0};
  int connections{0};
};

// The pipeline passes CAUSEWAY_PASS_TIMING reports, in pipeline order.
inline constexpr std::array<const char*, 7> kPipelinePasses = {
    "dscg", "annotate", "anomaly", "ccsg", "report", "timeline", "export"};

// Appends the full per-layer list to r.layer.  The pipeline.pass.* entries
// are 0 here: the parent process fills them from the child's stderr.
void add_layer_metrics(Result& r, const Tracer& tracer, const LayerInputs& in);

// Index of a query type in kQueryTypes.
std::size_t query_type_index(const std::string& type);

struct QueryRun {
  std::string csv;
  double latency_ms{0};
  std::uint64_t files_opened{0};
  std::uint64_t records_scanned{0};
};

// Parses, runs and renders (CSV) one query over a store directory, timing
// it as a user sees it; folds the engine's counters into `into` when given.
// In the traced run, store::open_store is also timed on its own, outside
// the query's latency.  Throws whatever the engine throws.
QueryRun timed_query(const std::string& text, const std::string& store_dir,
                     QueryTypeStats* into, Tracer* tracer,
                     std::uint64_t request);

// The single value of an ungrouped one-aggregation query's CSV ("count\nN\n").
double csv_scalar(const std::string& csv);

// `count` over a whole store after the measured phase (every workload's
// final check); -1, with the failure recorded in `r`, if the query threw.
double final_count(Result& r, const std::string& store_dir);

}  // namespace causeway::bench
