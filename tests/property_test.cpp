// Property sweeps: randomized workloads and log streams must uphold the
// reconstruction invariants for every seed.
#include <gtest/gtest.h>

#include "analysis/cpu.h"
#include "analysis/dscg.h"
#include "analysis/latency.h"
#include "analysis/trace_io.h"
#include "monitor/tss.h"
#include "workload/logsynth.h"
#include "workload/synthetic.h"

namespace causeway {
namespace {

class LogSynthProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LogSynthProperty, CleanLogsReconstructPerfectly) {
  workload::LogSynthConfig config;
  config.seed = GetParam();
  config.total_calls = 3000;
  config.max_depth = 6;
  config.max_children = 3;
  config.oneway_fraction = 0.08;

  analysis::LogDatabase db;
  const auto stats = workload::synthesize_logs(config, db);

  auto dscg = analysis::Dscg::build(db);
  // Invariant 1: no anomalies on clean logs.
  EXPECT_EQ(dscg.anomaly_count(), 0u);

  // Invariant 2: node count = calls + oneway double-counting.
  std::size_t oneway_stub_nodes = 0;
  std::size_t nodes = 0;
  dscg.visit([&](const analysis::CallNode& node, int) {
    ++nodes;
    if (node.kind == monitor::CallKind::kOneway &&
        node.record(monitor::EventKind::kStubStart)) {
      ++oneway_stub_nodes;
    }
  });
  EXPECT_EQ(dscg.call_count(), stats.calls + oneway_stub_nodes);

  // Invariant 3: visit covers exactly the whole graph (every chain either a
  // root or linked under a spawner).
  EXPECT_EQ(nodes, dscg.call_count());

  // Invariant 4: every non-oneway node has all four probe records.
  dscg.visit([&](const analysis::CallNode& node, int) {
    if (node.kind == monitor::CallKind::kOneway) return;
    for (int e = 1; e <= 4; ++e) {
      EXPECT_TRUE(node.record(static_cast<monitor::EventKind>(e)).has_value());
    }
  });

  // Invariant 5: latency annotation covers every node (latency-mode logs).
  auto report = analysis::annotate_latency(dscg);
  EXPECT_EQ(report.skipped, 0u);
  EXPECT_EQ(report.annotated, dscg.call_count());
}

TEST_P(LogSynthProperty, DamagedLogsNeverCrashAndAreFlagged) {
  workload::LogSynthConfig config;
  config.seed = GetParam() * 1000 + 7;
  config.total_calls = 1200;
  config.drop_fraction = 0.05;
  config.duplicate_fraction = 0.03;

  analysis::LogDatabase db;
  const auto stats = workload::synthesize_logs(config, db);
  EXPECT_GT(stats.dropped + stats.duplicated, 0u);

  auto dscg = analysis::Dscg::build(db);
  EXPECT_GT(dscg.anomaly_count(), 0u);
  // Damage never inflates the call count beyond duplicated starts.
  EXPECT_LE(dscg.call_count(), stats.calls + stats.duplicated + stats.chains);
  analysis::annotate_latency(dscg);  // must not throw
}

INSTANTIATE_TEST_SUITE_P(Seeds, LogSynthProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

class CpuLogSynthProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CpuLogSynthProperty, CpuStreamsAnnotateNonNegativeAndAdditive) {
  workload::LogSynthConfig config;
  config.seed = GetParam() + 500;
  config.mode = monitor::ProbeMode::kCpu;
  config.total_calls = 1500;

  analysis::LogDatabase db;
  workload::synthesize_logs(config, db);
  auto dscg = analysis::Dscg::build(db);
  ASSERT_EQ(dscg.anomaly_count(), 0u);
  analysis::annotate_cpu(dscg);

  // Invariants: SC >= 0 everywhere; DC_F equals the sum over immediate
  // children of (SC + DC) plus any spawned-chain charges.
  dscg.visit([&](const analysis::CallNode& node, int) {
    EXPECT_GE(node.self_cpu.total(), 0) << "seed " << GetParam();
    Nanos child_sum = 0;
    for (const auto& child : node.children) {
      child_sum += child->self_cpu.total() + child->descendant_cpu.total();
    }
    for (const analysis::ChainTree* spawned : node.spawned) {
      for (const auto& top : spawned->root->children) {
        child_sum += top->self_cpu.total() + top->descendant_cpu.total();
      }
    }
    EXPECT_EQ(node.descendant_cpu.total(), child_sum)
        << "seed " << GetParam();
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, CpuLogSynthProperty,
                         ::testing::Range<std::uint64_t>(1, 7));

class TraceIoProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceIoProperty, CodecPreservesEveryField) {
  workload::LogSynthConfig config;
  config.seed = GetParam() * 31;
  config.total_calls = 400;
  config.oneway_fraction = 0.2;
  analysis::LogDatabase source;
  workload::synthesize_logs(config, source);

  monitor::CollectedLogs logs;
  logs.records = source.records();
  const auto bytes = analysis::encode_trace(logs);
  analysis::LogDatabase decoded;
  ASSERT_EQ(analysis::decode_trace(bytes, decoded), source.size());

  ASSERT_EQ(decoded.size(), source.size());
  for (std::size_t i = 0; i < source.size(); ++i) {
    const auto& a = source.records()[i];
    const auto& b = decoded.records()[i];
    EXPECT_EQ(a.chain, b.chain);
    EXPECT_EQ(a.seq, b.seq);
    EXPECT_EQ(a.event, b.event);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.outcome, b.outcome);
    EXPECT_EQ(a.spawned_chain, b.spawned_chain);
    EXPECT_EQ(a.interface_name, b.interface_name);
    EXPECT_EQ(a.function_name, b.function_name);
    EXPECT_EQ(a.object_key, b.object_key);
    EXPECT_EQ(a.process_name, b.process_name);
    EXPECT_EQ(a.thread_ordinal, b.thread_ordinal);
    EXPECT_EQ(a.mode, b.mode);
    EXPECT_EQ(a.value_start, b.value_start);
    EXPECT_EQ(a.value_end, b.value_end);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceIoProperty,
                         ::testing::Range<std::uint64_t>(1, 6));

class SyntheticProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SyntheticProperty, LiveRunsReconstructCleanly) {
  monitor::tss_clear();
  orb::Fabric fabric;
  workload::SyntheticConfig config;
  config.seed = GetParam();
  config.domains = 2 + GetParam() % 3;
  config.components = 6 + (GetParam() * 3) % 10;
  config.interfaces = 3 + GetParam() % 4;
  config.methods_per_interface = 2 + GetParam() % 3;
  config.levels = 2 + GetParam() % 3;
  config.max_children = 1 + GetParam() % 3;
  config.oneway_fraction = 0.05 * static_cast<double>(GetParam() % 4);
  config.cpu_per_call = kNanosPerMicro;
  config.policy = static_cast<orb::PolicyKind>(GetParam() % 3);
  workload::SyntheticSystem system(fabric, config);

  system.run_transactions(3);
  system.wait_quiescent();

  analysis::LogDatabase db;
  db.ingest(system.collect());
  auto dscg = analysis::Dscg::build(db);
  EXPECT_EQ(dscg.anomaly_count(), 0u) << "seed " << GetParam();

  std::size_t oneway_stub_nodes = 0;
  dscg.visit([&](const analysis::CallNode& node, int) {
    if (node.kind == monitor::CallKind::kOneway &&
        node.record(monitor::EventKind::kStubStart)) {
      ++oneway_stub_nodes;
    }
  });
  EXPECT_EQ(dscg.call_count(),
            3 * system.calls_per_transaction() + oneway_stub_nodes)
      << "seed " << GetParam();
  monitor::tss_clear();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SyntheticProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace causeway
