// The characterization report: the analyzer's human-facing summary.
//
// Renders, per run, what paper Sec. 3 computes: the reconstruction summary,
// per-function behaviour (latency or CPU depending on the run's probe mode,
// plus failure counts from semantics capture), where work executed (per
// process / processor type), the cross-process invocation matrix (the
// "dynamic system topology in terms of interface method invocation"), the
// slowest end-to-end calls, and any abnormal-transition findings.
//
// The Report class is an online accumulator over per-root imprints, exactly
// mirroring the CCSG: update() subtracts the previous contribution of every
// top-level tree in the scope and re-folds the current one, so its cost
// scales with the affected trees.  The pipeline runs it on read, over every
// epoch's scope since the last read.  The fold keys flat cells on dense ids
// from a Report-owned interner; names sort only when a section renders.  All
// aggregation is exact (integer nanoseconds, counts, sorted latency
// vectors); doubles appear only at render time, which is what keeps
// incremental and offline output byte-identical.
//
// The free functions are the offline (one-epoch degenerate) form, and are
// thin wrappers over the same machinery.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/database.h"
#include "analysis/dscg.h"
#include "analysis/incremental.h"

namespace causeway::analysis {

struct ReportOptions {
  std::size_t top_slowest{8};    // rows in the slowest-calls table
  std::size_t max_anomalies{8};  // anomaly lines before eliding
};

class Report {
 public:
  Report();
  ~Report();
  Report(const Report&) = delete;
  Report& operator=(const Report&) = delete;
  Report(Report&&) noexcept;
  Report& operator=(Report&&) noexcept;

  // Folds the scope's top-level trees into the accumulators (subtracting
  // what each tree contributed before).  Expects latency / CPU annotation
  // for the database's probe mode to have run on the affected trees.
  void update(const Dscg& dscg, const LogDatabase& db,
              const UpdateScope& scope);

  // The full characterization report.
  std::string render(const Dscg& dscg, const LogDatabase& db,
                     const ReportOptions& options = {}) const;

  // Machine-readable headline metrics as a single JSON object.
  std::string summary(const Dscg& dscg, const LogDatabase& db) const;

  // Implementation types (defined in report.cpp; public so the fold/apply
  // helpers there can name them).
  struct Imprint;  // one tree's folded contribution
  struct Acc;      // the merged accumulators

 private:
  std::unique_ptr<Acc> acc_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Imprint>> imprints_;
};

// Offline forms.  Run latency/CPU annotation for the database's primary
// probe mode, fold every top-level tree once, render.
std::string characterization_report(Dscg& dscg, const LogDatabase& db,
                                    const ReportOptions& options = {});
std::string summary_json(Dscg& dscg, const LogDatabase& db);

}  // namespace causeway::analysis
