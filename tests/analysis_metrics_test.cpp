// Checks the paper's latency and CPU formulas (Sec. 3.2) against
// hand-computed answers, plus the CCSG aggregation.
#include <gtest/gtest.h>

#include "analysis/ccsg.h"
#include "analysis/cpu.h"
#include "analysis/latency.h"
#include "analysis/stats.h"
#include "analysis_test_util.h"

namespace causeway::analysis {
namespace {

using monitor::CallKind;
using monitor::EventKind;
using monitor::ProbeMode;
using testutil::Scribe;

Dscg build_dscg(Scribe& scribe) {
  auto db = std::make_unique<LogDatabase>();
  db->ingest_records(scribe.records());
  // The Dscg's nodes read their records from db by index and hold views of
  // its interned strings; keep db alive (and unmoved) via static storage.
  static std::vector<std::unique_ptr<LogDatabase>> keep;
  keep.push_back(std::move(db));
  return Dscg::build(*keep.back());
}

TEST(Latency, LeafSyncCall) {
  Scribe s;
  // P1=(100,110) P2=(200,212) P3=(300,315) P4=(400,420)
  Nanos t[8] = {100, 110, 200, 212, 300, 315, 400, 420};
  s.leaf_sync("I", "F", t);
  Dscg dscg = build_dscg(s);
  auto report = annotate_latency(dscg);
  EXPECT_EQ(report.annotated, 1u);
  EXPECT_EQ(report.skipped, 0u);

  const CallNode& f = *dscg.roots()[0]->root->children[0];
  // L(F) = P4.start - P1.end - O_F; leaf has no descendants, O_F = 0.
  ASSERT_TRUE(f.latency.has_value());
  EXPECT_EQ(*f.latency, 400 - 110);
  EXPECT_EQ(f.latency_overhead, 0);
  EXPECT_EQ(*f.raw_latency, 290);
}

TEST(Latency, NestedCallSubtractsDescendantProbeCosts) {
  Scribe s;
  s.emit(EventKind::kStubStart, CallKind::kSync, "I", "F", 0, 10);
  s.emit(EventKind::kSkelStart, CallKind::kSync, "I", "F", 100, 110, "procB", 2);
  // child G: probe self-costs 5 + 7 + 9 + 11 = 32
  s.emit(EventKind::kStubStart, CallKind::kSync, "I", "G", 200, 205, "procB", 2);
  s.emit(EventKind::kSkelStart, CallKind::kSync, "I", "G", 300, 307, "procC", 3);
  s.emit(EventKind::kSkelEnd, CallKind::kSync, "I", "G", 400, 409, "procC", 3);
  s.emit(EventKind::kStubEnd, CallKind::kSync, "I", "G", 500, 511, "procB", 2);
  s.emit(EventKind::kSkelEnd, CallKind::kSync, "I", "F", 600, 610, "procB", 2);
  s.emit(EventKind::kStubEnd, CallKind::kSync, "I", "F", 700, 710);

  Dscg dscg = build_dscg(s);
  annotate_latency(dscg);
  const CallNode& f = *dscg.roots()[0]->root->children[0];
  const CallNode& g = *f.children[0];

  // G is a leaf: L = 500 - 205.
  EXPECT_EQ(*g.latency, 295);
  // F: raw = 700 - 10 = 690; O_F = G's probes (R={1,2,3,4}) = 5+7+9+11 = 32.
  EXPECT_EQ(f.latency_overhead, 32);
  EXPECT_EQ(*f.latency, 690 - 32);
}

TEST(Latency, CollocatedUsesSkeletonWindow) {
  Scribe s;
  Nanos t[8] = {100, 104, 110, 115, 300, 306, 310, 318};
  using monitor::EventKind;
  s.emit(EventKind::kStubStart, CallKind::kCollocated, "I", "F", t[0], t[1]);
  s.emit(EventKind::kSkelStart, CallKind::kCollocated, "I", "F", t[2], t[3]);
  s.emit(EventKind::kSkelEnd, CallKind::kCollocated, "I", "F", t[4], t[5]);
  s.emit(EventKind::kStubEnd, CallKind::kCollocated, "I", "F", t[6], t[7]);

  Dscg dscg = build_dscg(s);
  annotate_latency(dscg);
  const CallNode& f = *dscg.roots()[0]->root->children[0];
  // L = P3.start - P2.end = 300 - 115.
  EXPECT_EQ(*f.latency, 185);
}

TEST(Latency, OnewayBothSides) {
  // Stub side.
  Scribe stub_side;
  auto& start = stub_side.emit(EventKind::kStubStart, CallKind::kOneway, "I",
                               "notify", 100, 105);
  const Uuid child = Uuid::generate();
  start.spawned_chain = child;
  stub_side.emit(EventKind::kStubEnd, CallKind::kOneway, "I", "notify", 130,
                 136);

  // Skeleton side (the spawned chain).
  std::vector<monitor::TraceRecord> child_records;
  {
    monitor::TraceRecord r;
    r.chain = child;
    r.seq = 1;
    r.event = EventKind::kSkelStart;
    r.kind = CallKind::kOneway;
    r.interface_name = "I";
    r.function_name = "notify";
    r.process_name = "procB";
    r.node_name = "n";
    r.processor_type = "x86";
    r.mode = ProbeMode::kLatency;
    r.value_start = 500;
    r.value_end = 504;
    child_records.push_back(r);
    r.seq = 2;
    r.event = EventKind::kSkelEnd;
    r.value_start = 900;
    r.value_end = 903;
    child_records.push_back(r);
  }

  static std::vector<std::unique_ptr<LogDatabase>> keep;
  keep.push_back(std::make_unique<LogDatabase>());
  LogDatabase& db = *keep.back();
  db.ingest_records(stub_side.records());
  db.ingest_records(child_records);
  Dscg dscg = Dscg::build(db);
  auto report = annotate_latency(dscg);
  EXPECT_EQ(report.annotated, 2u);

  const CallNode& spawner = *dscg.roots()[0]->root->children[0];
  EXPECT_EQ(*spawner.latency, 130 - 105);  // stub-side dispatch latency
  const CallNode& callee = *spawner.spawned[0]->root->children[0];
  EXPECT_EQ(*callee.latency, 900 - 504);   // skeleton-side execution latency
}

TEST(Latency, WrongModeSkips) {
  Scribe s(ProbeMode::kCpu);
  Nanos t[8] = {0, 1, 2, 3, 4, 5, 6, 7};
  s.leaf_sync("I", "F", t);
  Dscg dscg = build_dscg(s);
  auto report = annotate_latency(dscg);
  EXPECT_EQ(report.annotated, 0u);
  EXPECT_EQ(report.skipped, 1u);
}

TEST(Cpu, SelfCpuSubtractsChildWindows) {
  Scribe s(ProbeMode::kCpu);
  // Values are cumulative per-thread CPU readings.
  // F's server thread (thread 2, procB).
  s.emit(EventKind::kStubStart, CallKind::kSync, "I", "F", 0, 2);
  s.emit(EventKind::kSkelStart, CallKind::kSync, "I", "F", 1000, 1010, "procB", 2, "pa-risc");
  // child G called from F's thread: stub windows burn caller CPU 1050->1080.
  s.emit(EventKind::kStubStart, CallKind::kSync, "I", "G", 1050, 1055, "procB", 2, "pa-risc");
  s.emit(EventKind::kSkelStart, CallKind::kSync, "I", "G", 500, 505, "procC", 3, "x86");
  s.emit(EventKind::kSkelEnd, CallKind::kSync, "I", "G", 700, 707, "procC", 3, "x86");
  s.emit(EventKind::kStubEnd, CallKind::kSync, "I", "G", 1074, 1080, "procB", 2, "pa-risc");
  s.emit(EventKind::kSkelEnd, CallKind::kSync, "I", "F", 1500, 1512, "procB", 2, "pa-risc");
  s.emit(EventKind::kStubEnd, CallKind::kSync, "I", "F", 10, 12);

  Dscg dscg = build_dscg(s);
  auto report = annotate_cpu(dscg);
  EXPECT_EQ(report.annotated, 2u);

  const CallNode& f = *dscg.roots()[0]->root->children[0];
  const CallNode& g = *f.children[0];
  // SC_G = P3.start - P2.end = 700 - 505 (no children).
  EXPECT_EQ(g.self_cpu.of("x86"), 195);
  EXPECT_TRUE(g.descendant_cpu.by_type.empty());
  // SC_F = (1500 - 1010) - (P_{G,4,end} - P_{G,1,start}) = 490 - (1080-1050).
  EXPECT_EQ(f.self_cpu.of("pa-risc"), 460);
  // DC_F = SC_G + DC_G as a per-processor-type vector.
  EXPECT_EQ(f.descendant_cpu.of("x86"), 195);
  EXPECT_EQ(f.descendant_cpu.of("pa-risc"), 0);
  EXPECT_EQ(f.descendant_cpu.total(), 195);
}

TEST(Cpu, NegativeSelfClampedByDefault) {
  Scribe s(ProbeMode::kCpu);
  s.emit(EventKind::kStubStart, CallKind::kSync, "I", "F", 0, 1);
  s.emit(EventKind::kSkelStart, CallKind::kSync, "I", "F", 100, 105, "procB", 2);
  // Child window larger than the whole body window (measurement noise).
  s.emit(EventKind::kStubStart, CallKind::kSync, "I", "G", 90, 95, "procB", 2);
  s.emit(EventKind::kSkelStart, CallKind::kSync, "I", "G", 10, 11, "procC", 3);
  s.emit(EventKind::kSkelEnd, CallKind::kSync, "I", "G", 20, 21, "procC", 3);
  s.emit(EventKind::kStubEnd, CallKind::kSync, "I", "G", 290, 295, "procB", 2);
  s.emit(EventKind::kSkelEnd, CallKind::kSync, "I", "F", 120, 125, "procB", 2);
  s.emit(EventKind::kStubEnd, CallKind::kSync, "I", "F", 2, 3);

  {
    Dscg dscg = build_dscg(s);
    annotate_cpu(dscg);
    const CallNode& f = *dscg.roots()[0]->root->children[0];
    EXPECT_EQ(f.self_cpu.total(), 0);  // clamped
  }
  {
    Dscg dscg = build_dscg(s);
    CpuOptions options;
    options.clamp_negative_self = false;
    annotate_cpu(dscg, options);
    const CallNode& f = *dscg.roots()[0]->root->children[0];
    EXPECT_LT(f.self_cpu.total(), 0);  // raw
  }
}

TEST(Cpu, SpawnedChainChargedToSpawner) {
  Scribe parent(ProbeMode::kCpu);
  const Uuid child = Uuid::generate();
  // Enclosing sync call F spawns oneway N.
  parent.emit(EventKind::kStubStart, CallKind::kSync, "I", "F", 0, 1);
  parent.emit(EventKind::kSkelStart, CallKind::kSync, "I", "F", 100, 102, "procB", 2);
  auto& spawn = parent.emit(EventKind::kStubStart, CallKind::kOneway, "I", "N",
                            110, 112, "procB", 2);
  spawn.spawned_chain = child;
  parent.emit(EventKind::kStubEnd, CallKind::kOneway, "I", "N", 118, 120, "procB", 2);
  parent.emit(EventKind::kSkelEnd, CallKind::kSync, "I", "F", 400, 402, "procB", 2);
  parent.emit(EventKind::kStubEnd, CallKind::kSync, "I", "F", 8, 9);

  std::vector<monitor::TraceRecord> child_records;
  {
    monitor::TraceRecord r;
    r.chain = child;
    r.seq = 1;
    r.event = EventKind::kSkelStart;
    r.kind = CallKind::kOneway;
    r.interface_name = "I";
    r.function_name = "N";
    r.process_name = "procD";
    r.node_name = "n";
    r.processor_type = "vxworks-ppc";
    r.mode = ProbeMode::kCpu;
    r.value_start = 1000;
    r.value_end = 1002;
    child_records.push_back(r);
    r.seq = 2;
    r.event = EventKind::kSkelEnd;
    r.value_start = 1502;
    r.value_end = 1503;
    child_records.push_back(r);
  }

  static std::vector<std::unique_ptr<LogDatabase>> keep;
  keep.push_back(std::make_unique<LogDatabase>());
  LogDatabase& db = *keep.back();
  db.ingest_records(parent.records());
  db.ingest_records(child_records);

  {
    Dscg dscg = Dscg::build(db);
    annotate_cpu(dscg);
    const CallNode& f = *dscg.roots()[0]->root->children[0];
    // Spawned N body: 1502 - 1002 = 500 on vxworks-ppc, charged into DC_F.
    EXPECT_EQ(f.descendant_cpu.of("vxworks-ppc"), 500);
    // SC_F = (400 - 102) - oneway stub window (120 - 110) = 288, attributed
    // to the processor type of F's serving domain.
    EXPECT_EQ(f.self_cpu.of("x86"), 288);
  }
  {
    Dscg dscg = Dscg::build(db);
    CpuOptions options;
    options.charge_spawned_chains = false;
    annotate_cpu(dscg, options);
    const CallNode& f = *dscg.roots()[0]->root->children[0];
    EXPECT_EQ(f.descendant_cpu.of("vxworks-ppc"), 0);
  }
}

TEST(Ccsg, MergesRepeatInvocationsByIdentity) {
  // Two transactions of F -> G on separate chains; CCSG merges both.
  static std::vector<std::unique_ptr<LogDatabase>> keep;
  keep.push_back(std::make_unique<LogDatabase>());
  LogDatabase& db = *keep.back();
  for (int i = 0; i < 2; ++i) {
    Scribe s(ProbeMode::kCpu);
    s.emit(EventKind::kStubStart, CallKind::kSync, "I", "F", 0, 1);
    s.emit(EventKind::kSkelStart, CallKind::kSync, "I", "F", 0, 0, "procB", 2);
    s.emit(EventKind::kStubStart, CallKind::kSync, "I", "G", 10, 11, "procB", 2);
    s.emit(EventKind::kSkelStart, CallKind::kSync, "I", "G", 0, 100, "procC", 3);
    s.emit(EventKind::kSkelEnd, CallKind::kSync, "I", "G", 400, 401, "procC", 3);
    s.emit(EventKind::kStubEnd, CallKind::kSync, "I", "G", 29, 30, "procB", 2);
    s.emit(EventKind::kSkelEnd, CallKind::kSync, "I", "F", 1000, 1001, "procB", 2);
    s.emit(EventKind::kStubEnd, CallKind::kSync, "I", "F", 5, 6);
    db.ingest_records(s.records());
  }

  Dscg dscg = Dscg::build(db);
  annotate_cpu(dscg);
  Ccsg ccsg = Ccsg::build(dscg);

  ASSERT_EQ(ccsg.roots().size(), 1u);  // both F invocations merged
  const CcsgNode& f = *ccsg.roots()[0];
  EXPECT_EQ(f.invocation_times, 2u);
  EXPECT_EQ(f.instance_ids().size(), 2u);
  ASSERT_EQ(f.children.size(), 1u);
  const CcsgNode& g = *f.children.begin()->second;
  EXPECT_EQ(g.invocation_times, 2u);
  EXPECT_EQ(ccsg.node_count(), 2u);

  // Per-invocation: SC_F = (1000-0) - (30-10) = 980; two invocations.
  EXPECT_EQ(f.self_cpu.total(), 2 * 980);
  // G: SC = 400-100 = 300 each.
  EXPECT_EQ(g.self_cpu.total(), 2 * 300);
  EXPECT_EQ(f.descendant_cpu.total(), 2 * 300);
}

TEST(Ccsg, XmlCarriesPaperFields) {
  static std::vector<std::unique_ptr<LogDatabase>> keep;
  keep.push_back(std::make_unique<LogDatabase>());
  LogDatabase& db = *keep.back();
  Scribe s(ProbeMode::kCpu);
  s.emit(EventKind::kStubStart, CallKind::kSync, "I", "F", 0, 0, "procA", 1,
         "x86", 17);
  s.emit(EventKind::kSkelStart, CallKind::kSync, "I", "F", 0, 0, "procB", 2,
         "pa-risc", 17);
  s.emit(EventKind::kSkelEnd, CallKind::kSync, "I", "F",
         3 * kNanosPerSecond + 250 * kNanosPerMicro, 0, "procB", 2, "pa-risc",
         17);
  s.emit(EventKind::kStubEnd, CallKind::kSync, "I", "F", 0, 0, "procA", 1,
         "x86", 17);
  db.ingest_records(s.records());

  Dscg dscg = Dscg::build(db);
  annotate_cpu(dscg);
  const std::string xml = Ccsg::build(dscg).to_xml();
  EXPECT_NE(xml.find("<CCSG>"), std::string::npos);
  EXPECT_NE(xml.find("ObjectID=\"17\""), std::string::npos);
  EXPECT_NE(xml.find("InvocationTimes=\"1\""), std::string::npos);
  EXPECT_NE(xml.find("<IncludedFunctionInstances>"), std::string::npos);
  // [second, microsecond] rendering: 3 s + 250 us.
  EXPECT_NE(xml.find("seconds=\"3\" microseconds=\"250\""), std::string::npos);
  EXPECT_NE(xml.find("SelfCPUConsumption"), std::string::npos);
  EXPECT_NE(xml.find("DescendentCPUConsumption"), std::string::npos);
}

TEST(Stats, Summary) {
  auto s = summarize({5, 1, 3, 2, 4});
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.min, 1);
  EXPECT_EQ(s.max, 5);
  EXPECT_DOUBLE_EQ(s.mean, 3);
  EXPECT_DOUBLE_EQ(s.p50, 3);
  auto empty = summarize({});
  EXPECT_EQ(empty.count, 0u);
}

}  // namespace
}  // namespace causeway::analysis
