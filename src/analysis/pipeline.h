// The epoch-driven incremental analysis pipeline.
//
// Everything downstream of the log database -- DSCG reconstruction,
// latency/CPU annotation, anomaly detection, the CCSG, the
// characterization report, timelines, exports -- is organized as a fixed
// sequence of AnalysisPasses over one shared database.  Each ingested batch
// (one collection drain epoch, one trace segment of a tailed file, or one
// offline catch-up over many generations) advances the database generation;
// the pipeline then runs the eager passes (dscg, annotate, anomaly, export)
// once with an EpochInfo describing what changed.  The fold passes (ccsg,
// report, timeline) run on read instead: each epoch queues its scope, and
// the first read of a fold's output after a change runs that pass once over
// the merged scope of every epoch since its last run.  A live collector that
// renders once at exit therefore folds each root once, not once per epoch.
//
// Dirty propagation is the pipeline's job: the DSCG's delta (chains
// rebuilt, spawn edges re-pointed, roots added/removed) is closed into an
// UpdateScope -- the set of top-level trees whose folded contributions
// downstream accumulators must subtract and re-fold.  The closure follows
// shared spawned chains in both directions (a re-annotated chain invalidates
// every tree whose CPU charging walk crosses it), which is what keeps the
// incremental accumulators exactly equal to a from-scratch build.
//
// The contract every pass honors (and tests assert): a fresh pipeline fed
// the whole trace in one epoch renders byte-identically to the offline free
// functions, and feeding the same trace in N epochs renders byte-identically
// to feeding it in one, whatever the cadence of reads between epochs.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/anomaly.h"
#include "analysis/ccsg.h"
#include "analysis/database.h"
#include "analysis/dscg.h"
#include "analysis/export.h"
#include "analysis/incremental.h"
#include "analysis/report.h"
#include "analysis/timeline.h"

namespace causeway::analysis {

// What one ingested batch changed, handed to the eager passes in order (the
// fold passes get one merged from every epoch since their last run).
struct EpochInfo {
  std::uint64_t generation{0};     // database generation after the ingest
  std::uint64_t epoch{0};          // collection drain epoch (db.last_epoch())
  std::size_t new_records{0};      // records this batch added
  std::uint64_t dropped_delta{0};  // ring-overflow drops this batch
  std::uint64_t publish_dropped_delta{0};  // transport-tier drops this batch
  std::uint64_t sampled_out_delta{0};      // probe-tier suppressions this batch
  monitor::ProbeMode mode{monitor::ProbeMode::kCausalityOnly};
  bool mode_changed{false};  // primary mode flipped: all annotations stale

  const DscgDelta* delta{nullptr};  // what Dscg::update changed
  UpdateScope scope;                // closed root scope for fold passes
};

// One stage of the pipeline.  update() must be incremental in the scope --
// and updating a fresh pass with everything must equal an offline build
// (the one-epoch degenerate case).
class AnalysisPass {
 public:
  virtual ~AnalysisPass() = default;
  virtual std::string_view name() const = 0;
  virtual void update(const LogDatabase& db, const EpochInfo& info) = 0;
};

class AnalysisPipeline {
 public:
  AnalysisPipeline();
  // Overrides the shared database's ingest shard count (0 = auto: the
  // CAUSEWAY_INGEST_SHARDS environment variable, else hardware
  // concurrency).  Renders are byte-identical across shard counts; the knob
  // exists for equivalence tests and for pinning resource use.
  explicit AnalysisPipeline(std::size_t ingest_shards);
  ~AnalysisPipeline();
  AnalysisPipeline(const AnalysisPipeline&) = delete;
  AnalysisPipeline& operator=(const AnalysisPipeline&) = delete;

  // The shared database.  Mutable access lets trace readers append directly
  // (read_trace_file, TraceTail); call refresh() afterwards to let the
  // passes catch up.
  LogDatabase& database();
  const LogDatabase& database() const;

  // Ingest one batch, run the eager passes and queue the folds.  Returns
  // what the epoch changed.
  EpochInfo ingest(const monitor::CollectedLogs& logs);
  // Column form: a decoded v4 segment ingests without record-major
  // assembly (see analysis/columns.h).  Renders are byte-identical to the
  // CollectedLogs form.
  EpochInfo ingest(const ColumnBundle& cols);
  EpochInfo ingest_records(std::span<const monitor::TraceRecord> records);

  // Run the eager passes (and queue the folds) over whatever was appended to
  // database() since the last epoch (no-op EpochInfo when nothing was).
  EpochInfo refresh();

  const Dscg& dscg() const;
  // Non-const: runs the pending CCSG fold first.
  const Ccsg& ccsg();

  // Renders.  The report, CCSG and timeline reads first run their fold over
  // the epochs queued since the last read.  Cached: only sections whose
  // accumulators changed since the last render are recomputed, and a render
  // at an unchanged generation is a string copy.
  std::string report(const ReportOptions& options = {});
  std::string summary();
  std::string ccsg_xml();
  const std::vector<TimelineEntry>& timeline();
  std::string timeline_text();
  std::string timeline_csv();
  std::string export_text(const ExportOptions& options = {});
  std::string export_dot(const ExportOptions& options = {});
  std::string export_json(const ExportOptions& options = {});
  std::string export_html(const ExportOptions& options = {});

  // Sinks (not owned; must outlive the pipeline) receive anomaly events as
  // epochs are ingested.
  void add_sink(AnomalySink* sink);

  // One-line progress summary of the last epoch, for live tails.
  std::string live_summary() const;

  std::uint64_t epochs_ingested() const;
  std::size_t anomaly_events() const;
  std::vector<std::string_view> pass_names() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace causeway::analysis
