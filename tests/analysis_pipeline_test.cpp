// The epoch-driven pipeline's core contract: feeding a trace in N epochs
// renders byte-identically to feeding it in one, which in turn renders
// byte-identically to the offline free functions -- for every artifact
// (report, summary, CCSG XML, timeline, exports), in every probe mode,
// across mode flips, with anomaly events emitted exactly once.
#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/anomaly.h"
#include "analysis/ccsg.h"
#include "analysis/cpu.h"
#include "analysis/dscg.h"
#include "analysis/export.h"
#include "analysis/latency.h"
#include "analysis/pipeline.h"
#include "analysis/report.h"
#include "analysis/timeline.h"
#include "analysis_test_util.h"
#include "orb/domain.h"
#include "workload/synthetic.h"

namespace causeway::analysis {
namespace {

using monitor::CallKind;
using monitor::EventKind;
using monitor::ProbeMode;
using monitor::TraceRecord;
using testutil::Scribe;

struct Renders {
  std::string report, summary, ccsg, timeline, csv, text, json;

  bool operator==(const Renders&) const = default;
};

// The ground truth: the offline free functions over a one-shot database.
Renders offline_renders(std::span<const TraceRecord> records) {
  Renders out;
  LogDatabase db;
  db.ingest_records(records);
  Dscg dscg = Dscg::build(db);
  const ProbeMode mode = db.primary_mode();
  if (mode == ProbeMode::kLatency) {
    annotate_latency(dscg);
  } else if (mode == ProbeMode::kCpu) {
    annotate_cpu(dscg);
  }
  out.text = to_text(dscg, {});
  out.json = to_json(dscg, {});
  out.ccsg = Ccsg::build(dscg).to_xml();
  out.timeline = timeline_to_text(build_timeline(dscg));
  out.csv = timeline_to_csv(build_timeline(dscg));
  out.report = characterization_report(dscg, db);
  out.summary = summary_json(dscg, db);
  return out;
}

Renders pipeline_renders(AnalysisPipeline& pipeline) {
  Renders out;
  out.report = pipeline.report();
  out.summary = pipeline.summary();
  out.ccsg = pipeline.ccsg_xml();
  out.timeline = pipeline.timeline_text();
  out.csv = pipeline.timeline_csv();
  out.text = pipeline.export_text();
  out.json = pipeline.export_json();
  return out;
}

void expect_equal(const Renders& got, const Renders& want) {
  EXPECT_EQ(got.report, want.report);
  EXPECT_EQ(got.summary, want.summary);
  EXPECT_EQ(got.ccsg, want.ccsg);
  EXPECT_EQ(got.timeline, want.timeline);
  EXPECT_EQ(got.csv, want.csv);
  EXPECT_EQ(got.text, want.text);
  EXPECT_EQ(got.json, want.json);
}

// A realistic multi-domain trace: cross-process sync calls, oneway spawn
// cascades, several processor types.  Returns the whole bundle -- the
// records' string_views point into its interned pool.
monitor::CollectedLogs synthetic_trace(ProbeMode mode,
                                       std::size_t transactions) {
  workload::SyntheticConfig config;
  config.domains = 3;
  config.components = 10;
  config.interfaces = 5;
  config.levels = 3;
  config.max_children = 2;
  config.oneway_fraction = 0.25;
  config.processor_kinds = 2;
  config.monitor.mode = mode;
  orb::Fabric fabric;
  workload::SyntheticSystem system(fabric, config);
  system.run_transactions(transactions);
  system.wait_quiescent();
  return system.collect();
}

// Splits `records` into `n` deliberately uneven slices; boundaries land in
// the middle of calls and chains, which is exactly what a drain epoch does.
std::vector<std::span<const TraceRecord>> uneven_slices(
    const std::vector<TraceRecord>& records, std::size_t n) {
  std::vector<std::span<const TraceRecord>> out;
  std::size_t begin = 0;
  for (std::size_t i = 0; i < n && begin < records.size(); ++i) {
    std::size_t len = (records.size() / n) + (i % 3) * 7 + 1;
    len = std::min(len, records.size() - begin);
    if (i + 1 == n) len = records.size() - begin;
    out.push_back(std::span(records).subspan(begin, len));
    begin += len;
  }
  if (begin < records.size()) {
    out.push_back(std::span(records).subspan(begin));
  }
  return out;
}

class PipelineEquivalence : public ::testing::TestWithParam<ProbeMode> {};

TEST_P(PipelineEquivalence, OneEpochMatchesOffline) {
  const auto logs = synthetic_trace(GetParam(), 4);
  const auto& records = logs.records;
  ASSERT_FALSE(records.empty());

  AnalysisPipeline pipeline;
  const EpochInfo info = pipeline.ingest_records(records);
  EXPECT_EQ(info.new_records, records.size());
  EXPECT_EQ(pipeline.epochs_ingested(), 1u);

  expect_equal(pipeline_renders(pipeline), offline_renders(records));
}

TEST_P(PipelineEquivalence, ManyEpochsMatchOneEpoch) {
  const auto logs = synthetic_trace(GetParam(), 4);
  const auto& records = logs.records;
  ASSERT_FALSE(records.empty());

  AnalysisPipeline incremental;
  for (const auto slice : uneven_slices(records, 9)) {
    incremental.ingest_records(slice);
    // Render between epochs: exercises cache invalidation, and must not
    // perturb what later epochs produce.
    (void)incremental.report();
    (void)incremental.ccsg_xml();
  }
  EXPECT_GE(incremental.epochs_ingested(), 2u);

  AnalysisPipeline batch;
  batch.ingest_records(records);

  const Renders want = offline_renders(records);
  expect_equal(pipeline_renders(incremental), pipeline_renders(batch));
  expect_equal(pipeline_renders(incremental), want);
}

// The fold passes run on read, over every epoch queued since the last read.
// Ingests `records` in `slices` (consecutive spans of it), reads after every
// `every`-th epoch and after the last, and checks each read against the
// offline render of the records ingested so far.
void expect_reads_match_offline(
    const std::vector<TraceRecord>& records,
    const std::vector<std::span<const TraceRecord>>& slices,
    std::size_t every) {
  AnalysisPipeline pipeline;
  std::size_t seen = 0;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    pipeline.ingest_records(slices[i]);
    seen += slices[i].size();
    if ((i + 1) % every != 0 && i + 1 != slices.size()) continue;
    SCOPED_TRACE("read after epoch " + std::to_string(i + 1));
    expect_equal(pipeline_renders(pipeline),
                 offline_renders(std::span(records).first(seen)));
  }
}

// Spans of `records` with the given lengths, in order.
std::vector<std::span<const TraceRecord>> slices_of(
    const std::vector<TraceRecord>& records,
    std::initializer_list<std::size_t> lengths) {
  std::vector<std::span<const TraceRecord>> out;
  std::size_t begin = 0;
  for (std::size_t len : lengths) {
    out.push_back(std::span(records).subspan(begin, len));
    begin += len;
  }
  EXPECT_EQ(begin, records.size());
  return out;
}

TEST_P(PipelineEquivalence, ReadCadenceMatchesOffline) {
  const auto logs = synthetic_trace(GetParam(), 4);
  const auto& records = logs.records;
  const auto slices = uneven_slices(records, 9);
  for (std::size_t every : {std::size_t{1}, std::size_t{3}, slices.size()}) {
    SCOPED_TRACE("read every " + std::to_string(every) + " epochs");
    expect_reads_match_offline(records, slices, every);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, PipelineEquivalence,
                         ::testing::Values(ProbeMode::kLatency,
                                           ProbeMode::kCpu,
                                           ProbeMode::kCausalityOnly),
                         [](const auto& info) {
                           switch (info.param) {
                             case ProbeMode::kLatency: return "latency";
                             case ProbeMode::kCpu: return "cpu";
                             default: return "causality";
                           }
                         });

// Primary mode flipping mid-stream (a latency-instrumented deployment later
// dominated by CPU-mode domains) forces the full re-annotation path; the
// result must still match an offline build over everything.
TEST(PipelineModeFlip, FlipMatchesOffline) {
  const auto latency_logs = synthetic_trace(ProbeMode::kLatency, 1);
  const auto cpu_logs = synthetic_trace(ProbeMode::kCpu, 3);
  const auto& latency = latency_logs.records;
  const auto& cpu = cpu_logs.records;
  ASSERT_GT(cpu.size(), latency.size());  // the flip must actually happen

  AnalysisPipeline pipeline;
  EpochInfo first = pipeline.ingest_records(latency);
  EXPECT_EQ(first.mode, ProbeMode::kLatency);
  EXPECT_FALSE(first.mode_changed);
  (void)pipeline.report();  // populate caches pre-flip

  EpochInfo second = pipeline.ingest_records(cpu);
  EXPECT_EQ(second.mode, ProbeMode::kCpu);
  EXPECT_TRUE(second.mode_changed);

  std::vector<TraceRecord> all(latency);
  all.insert(all.end(), cpu.begin(), cpu.end());
  expect_equal(pipeline_renders(pipeline), offline_renders(all));
}

// The flip lands in a window of epochs with no read: the next read folds
// the pre-flip and post-flip scopes in one merged pass.
TEST(PipelineModeFlip, FlipInsideUnreadWindowMatchesOffline) {
  const auto latency_logs = synthetic_trace(ProbeMode::kLatency, 1);
  const auto cpu_logs = synthetic_trace(ProbeMode::kCpu, 3);
  std::vector<TraceRecord> all(latency_logs.records);
  all.insert(all.end(), cpu_logs.records.begin(), cpu_logs.records.end());
  const std::size_t n = latency_logs.records.size();
  const std::size_t m = cpu_logs.records.size();
  ASSERT_GT(m, n);
  // Reads after epochs 2 and 6: the flip happens in epoch 5.
  expect_reads_match_offline(
      all, slices_of(all, {n / 3, n / 3, n - 2 * (n / 3), m / 3, m / 3,
                           m - 2 * (m / 3)}),
      2);
}

// A chain that arrives before its oneway spawner is a root until the
// spawner's records land; then it stops being top-level and must only be
// subtracted, never folded.  Both orders of read and re-parenting: the
// orphan is folded at a read and re-parented in an unread window, or it is
// queued unread and re-parented before the next read.
TEST(PipelineSpawn, RootBecomingSpawnedInsideUnreadWindowMatchesOffline) {
  Scribe first;
  first.leaf_sync("I", "F", {0, 1, 2, 3, 4, 5, 6, 7});
  Scribe child;
  child.emit(EventKind::kSkelStart, CallKind::kOneway, "I", "notify", 20, 21,
             "procB", 2);
  child.leaf_sync("J", "G", {22, 23, 24, 25, 26, 27, 28, 29}, "procB",
                  "procC");
  child.emit(EventKind::kSkelEnd, CallKind::kOneway, "I", "notify", 30, 31,
             "procB", 2);
  Scribe parent;
  parent.emit(EventKind::kStubStart, CallKind::kOneway, "I", "notify", 10, 11)
      .spawned_chain = child.chain();
  parent.emit(EventKind::kStubEnd, CallKind::kOneway, "I", "notify", 12, 13);
  Scribe last;
  last.leaf_sync("I", "H", {40, 41, 42, 43, 44, 45, 46, 47});

  std::vector<TraceRecord> all;
  for (Scribe* s : {&first, &child, &parent, &last}) {
    all.insert(all.end(), s->records().begin(), s->records().end());
  }
  const auto slices = slices_of(all, {4, 6, 2, 4});
  // Reads after every epoch pin the folded-then-re-parented order; reads
  // after epochs 2 and 4 leave the re-parenting (epoch 3) unread.
  expect_reads_match_offline(all, slices, 2);
  // Reads after epochs 3 and 4 queue the orphan (epoch 2) unread until the
  // spawner arrives.
  expect_reads_match_offline(all, slices, 3);
  AnalysisPipeline pipeline;
  for (const auto slice : slices) pipeline.ingest_records(slice);
  EXPECT_EQ(pipeline.dscg().roots().size(), 3u);
}

TEST(PipelineAnomalies, EventsEmitOnceAcrossRescans) {
  std::vector<AnomalyEvent> events;
  CallbackAnomalySink sink(
      [&](const AnomalyEvent& e) { events.push_back(e); });

  AnalysisPipeline pipeline;
  pipeline.add_sink(&sink);

  // Epoch 1: a failing sync call, plus a seq gap (abnormal transition).
  Scribe s;
  s.emit(EventKind::kStubStart, CallKind::kSync, "I", "F", 0, 1);
  s.emit(EventKind::kSkelStart, CallKind::kSync, "I", "F", 2, 3, "procB", 2);
  s.emit(EventKind::kSkelEnd, CallKind::kSync, "I", "F", 4, 5, "procB", 2)
      .outcome = monitor::CallOutcome::kAppError;
  s.emit(EventKind::kStubEnd, CallKind::kSync, "I", "F", 6, 7).outcome =
      monitor::CallOutcome::kAppError;
  s.emit(EventKind::kStubStart, CallKind::kSync, "I", "G", 8, 9).seq += 5;
  pipeline.ingest_records(s.records());

  const auto count = [&](AnomalyKind kind) {
    return std::count_if(events.begin(), events.end(),
                         [&](const AnomalyEvent& e) { return e.kind == kind; });
  };
  EXPECT_EQ(count(AnomalyKind::kCallFailure), 1);
  const auto transitions_after_first = count(AnomalyKind::kAbnormalTransition);
  EXPECT_GE(transitions_after_first, 1);

  // Epoch 2: the chain grows -- the open call completes.  The rebuild
  // re-parses everything (including the already-reported failure and gap),
  // but previously reported findings must not re-emit.
  s.records().clear();
  s.emit(EventKind::kStubEnd, CallKind::kSync, "I", "G", 10, 11).seq = 11;
  pipeline.ingest_records(s.records());

  EXPECT_EQ(count(AnomalyKind::kCallFailure), 1);  // still exactly one
  EXPECT_EQ(count(AnomalyKind::kAbnormalTransition), transitions_after_first);

  // Epoch 3: collection-tier drops surface as one drop-spike event.
  monitor::CollectedLogs logs;
  logs.epoch = 3;
  logs.dropped = 17;
  pipeline.ingest(logs);
  EXPECT_EQ(count(AnomalyKind::kDropSpike), 1);
  ASSERT_GE(events.size(), 1u);
  const auto spike = std::find_if(
      events.begin(), events.end(),
      [](const AnomalyEvent& e) { return e.kind == AnomalyKind::kDropSpike; });
  EXPECT_NE(spike->detail.find("17 records"), std::string::npos);
  EXPECT_EQ(pipeline.anomaly_events(), events.size());
}

TEST(PipelineBasics, PassOrderAndLiveSummary) {
  AnalysisPipeline pipeline;
  const auto names = pipeline.pass_names();
  const std::vector<std::string_view> want{"dscg",   "annotate", "anomaly",
                                           "ccsg",   "report",   "timeline",
                                           "export"};
  EXPECT_EQ(names, want);

  Scribe s;
  s.leaf_sync("I", "F", {0, 1, 2, 3, 4, 5, 6, 7});
  pipeline.ingest_records(s.records());
  const std::string line = pipeline.live_summary();
  EXPECT_NE(line.find("+4 records"), std::string::npos);
  EXPECT_NE(line.find("1 chains"), std::string::npos);
}

// refresh() is the trace-reader path: append to database() directly, then
// let the passes catch up over everything new -- possibly several
// generations in one epoch.
TEST(PipelineRefresh, CatchesUpOverAppendedGenerations) {
  const auto logs = synthetic_trace(ProbeMode::kLatency, 2);
  const auto& records = logs.records;
  const auto slices = uneven_slices(records, 4);

  AnalysisPipeline pipeline;
  for (const auto slice : slices) pipeline.database().ingest_records(slice);
  const EpochInfo info = pipeline.refresh();
  EXPECT_EQ(info.new_records, records.size());
  EXPECT_EQ(pipeline.epochs_ingested(), 1u);

  expect_equal(pipeline_renders(pipeline), offline_renders(records));

  // A refresh with nothing new is a no-op epoch.
  const EpochInfo idle = pipeline.refresh();
  EXPECT_EQ(idle.new_records, 0u);
  EXPECT_TRUE(idle.scope.affected_roots.empty());
}

}  // namespace
}  // namespace causeway::analysis
