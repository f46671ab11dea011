// Reconstruction state machine vs. the event chaining patterns of paper
// Table 1 (sibling, parent/child, recursion, callback, oneway) and the
// "abnormal" recovery path.
#include "analysis/call_tree.h"

#include <stdexcept>

#include <gtest/gtest.h>

#include "analysis/columns.h"
#include "analysis/database.h"
#include "analysis/dscg.h"
#include "analysis/report.h"
#include "analysis_test_util.h"

namespace causeway::analysis {
namespace {

using monitor::CallKind;
using monitor::EventKind;
using testutil::Scribe;

// The tree's nodes read their records (and string views) from `db`, so the
// caller keeps it alive, unmoved, for as long as it reads the tree.
ChainTree build(Scribe& scribe, LogDatabase& db) {
  db.ingest_records(scribe.records());
  return build_chain_tree(scribe.chain(), db);
}

TEST(CallTree, EmptyChain) {
  Scribe scribe;
  LogDatabase db;
  ChainTree tree = build(scribe, db);
  EXPECT_EQ(tree.call_count(), 0u);
  EXPECT_TRUE(tree.anomalies.empty());
}

TEST(CallTree, SiblingPattern) {
  // Table 1: F then G at top level -- same chain, flat structure.
  Scribe s;
  Nanos t1[8] = {0, 1, 2, 3, 4, 5, 6, 7};
  s.leaf_sync("I", "F", t1);
  Nanos t2[8] = {10, 11, 12, 13, 14, 15, 16, 17};
  s.leaf_sync("I", "G", t2);

  LogDatabase db;
  ChainTree tree = build(s, db);
  EXPECT_TRUE(tree.anomalies.empty());
  ASSERT_EQ(tree.root->children.size(), 2u);
  EXPECT_EQ(tree.root->children[0]->function_name, "F");
  EXPECT_EQ(tree.root->children[1]->function_name, "G");
  EXPECT_TRUE(tree.root->children[0]->children.empty());
  EXPECT_EQ(tree.call_count(), 2u);
}

TEST(CallTree, ParentChildNesting) {
  // Table 1: F calls G calls H.
  Scribe s;
  s.emit(EventKind::kStubStart, CallKind::kSync, "I", "F", 0, 1);
  s.emit(EventKind::kSkelStart, CallKind::kSync, "I", "F", 2, 3, "procB", 2);
  s.emit(EventKind::kStubStart, CallKind::kSync, "I", "G", 4, 5, "procB", 2);
  s.emit(EventKind::kSkelStart, CallKind::kSync, "I", "G", 6, 7, "procC", 3);
  s.emit(EventKind::kStubStart, CallKind::kSync, "I", "H", 8, 9, "procC", 3);
  s.emit(EventKind::kSkelStart, CallKind::kSync, "I", "H", 10, 11, "procD", 4);
  s.emit(EventKind::kSkelEnd, CallKind::kSync, "I", "H", 12, 13, "procD", 4);
  s.emit(EventKind::kStubEnd, CallKind::kSync, "I", "H", 14, 15, "procC", 3);
  s.emit(EventKind::kSkelEnd, CallKind::kSync, "I", "G", 16, 17, "procC", 3);
  s.emit(EventKind::kStubEnd, CallKind::kSync, "I", "G", 18, 19, "procB", 2);
  s.emit(EventKind::kSkelEnd, CallKind::kSync, "I", "F", 20, 21, "procB", 2);
  s.emit(EventKind::kStubEnd, CallKind::kSync, "I", "F", 22, 23);

  LogDatabase db;
  ChainTree tree = build(s, db);
  EXPECT_TRUE(tree.anomalies.empty());
  ASSERT_EQ(tree.root->children.size(), 1u);
  const CallNode& f = *tree.root->children[0];
  EXPECT_EQ(f.function_name, "F");
  ASSERT_EQ(f.children.size(), 1u);
  const CallNode& g = *f.children[0];
  EXPECT_EQ(g.function_name, "G");
  ASSERT_EQ(g.children.size(), 1u);
  EXPECT_EQ(g.children[0]->function_name, "H");
  EXPECT_EQ(tree.call_count(), 3u);
  // Cross-process locality is preserved per side.
  EXPECT_EQ(f.server_process(), "procB");
  EXPECT_EQ(g.server_process(), "procC");
}

TEST(CallTree, RecursionProducesNestedFrames) {
  // Recursion "produces nesting calls" (paper Sec. 2): F calls F.
  Scribe s;
  s.emit(EventKind::kStubStart, CallKind::kSync, "I", "F", 0, 1);
  s.emit(EventKind::kSkelStart, CallKind::kSync, "I", "F", 2, 3, "procB", 2);
  s.emit(EventKind::kStubStart, CallKind::kSync, "I", "F", 4, 5, "procB", 2);
  s.emit(EventKind::kSkelStart, CallKind::kSync, "I", "F", 6, 7, "procB", 3);
  s.emit(EventKind::kSkelEnd, CallKind::kSync, "I", "F", 8, 9, "procB", 3);
  s.emit(EventKind::kStubEnd, CallKind::kSync, "I", "F", 10, 11, "procB", 2);
  s.emit(EventKind::kSkelEnd, CallKind::kSync, "I", "F", 12, 13, "procB", 2);
  s.emit(EventKind::kStubEnd, CallKind::kSync, "I", "F", 14, 15);

  LogDatabase db;
  ChainTree tree = build(s, db);
  EXPECT_TRUE(tree.anomalies.empty());
  ASSERT_EQ(tree.root->children.size(), 1u);
  ASSERT_EQ(tree.root->children[0]->children.size(), 1u);
  EXPECT_EQ(tree.root->children[0]->children[0]->function_name, "F");
}

TEST(CallTree, CallbackPattern) {
  // A calls B; B's implementation calls back into A's other method.
  Scribe s;
  s.emit(EventKind::kStubStart, CallKind::kSync, "I", "request", 0, 1);
  s.emit(EventKind::kSkelStart, CallKind::kSync, "I", "request", 2, 3, "procB", 2);
  s.emit(EventKind::kStubStart, CallKind::kSync, "I", "callback", 4, 5, "procB", 2);
  s.emit(EventKind::kSkelStart, CallKind::kSync, "I", "callback", 6, 7, "procA", 1);
  s.emit(EventKind::kSkelEnd, CallKind::kSync, "I", "callback", 8, 9, "procA", 1);
  s.emit(EventKind::kStubEnd, CallKind::kSync, "I", "callback", 10, 11, "procB", 2);
  s.emit(EventKind::kSkelEnd, CallKind::kSync, "I", "request", 12, 13, "procB", 2);
  s.emit(EventKind::kStubEnd, CallKind::kSync, "I", "request", 14, 15);

  LogDatabase db;
  ChainTree tree = build(s, db);
  EXPECT_TRUE(tree.anomalies.empty());
  const CallNode& req = *tree.root->children[0];
  ASSERT_EQ(req.children.size(), 1u);
  EXPECT_EQ(req.children[0]->function_name, "callback");
  EXPECT_EQ(req.children[0]->server_process(), "procA");
}

TEST(CallTree, OnewayStubSideAndSpawn) {
  Scribe s;
  const Uuid child = Uuid::generate();
  auto& start = s.emit(EventKind::kStubStart, CallKind::kOneway, "I", "notify",
                       0, 1);
  start.spawned_chain = child;
  s.emit(EventKind::kStubEnd, CallKind::kOneway, "I", "notify", 2, 3);

  LogDatabase db;
  ChainTree tree = build(s, db);
  EXPECT_TRUE(tree.anomalies.empty());
  ASSERT_EQ(tree.root->children.size(), 1u);
  const CallNode& n = *tree.root->children[0];
  EXPECT_EQ(n.kind, CallKind::kOneway);
  EXPECT_EQ(n.spawned_chain, child);
  EXPECT_FALSE(n.record(EventKind::kSkelStart).has_value());
}

TEST(CallTree, OnewaySkelSideChainWithNestedWork) {
  // Spawned chain: begins at the skeleton, contains a nested sync call.
  Scribe s;
  s.emit(EventKind::kSkelStart, CallKind::kOneway, "I", "notify", 0, 1,
         "procB", 5);
  Nanos t[8] = {2, 3, 4, 5, 6, 7, 8, 9};
  s.leaf_sync("I", "store", t, "procB", "procC");
  s.emit(EventKind::kSkelEnd, CallKind::kOneway, "I", "notify", 10, 11,
         "procB", 5);

  LogDatabase db;
  ChainTree tree = build(s, db);
  EXPECT_TRUE(tree.anomalies.empty());
  EXPECT_TRUE(tree.oneway_child);
  ASSERT_EQ(tree.root->children.size(), 1u);
  const CallNode& notify = *tree.root->children[0];
  EXPECT_EQ(notify.function_name, "notify");
  ASSERT_EQ(notify.children.size(), 1u);
  EXPECT_EQ(notify.children[0]->function_name, "store");
}

TEST(CallTree, PartialPeerAccepted) {
  // Instrumented caller, plain callee: only stub events exist.
  Scribe s;
  s.emit(EventKind::kStubStart, CallKind::kSync, "I", "F", 0, 1);
  s.emit(EventKind::kStubEnd, CallKind::kSync, "I", "F", 2, 3);
  LogDatabase db;
  ChainTree tree = build(s, db);
  EXPECT_TRUE(tree.anomalies.empty());
  EXPECT_EQ(tree.call_count(), 1u);
  EXPECT_FALSE(tree.root->children[0]->record(EventKind::kSkelStart));
}

TEST(CallTree, SequenceGapFlagged) {
  Scribe s;
  Nanos t[8] = {0, 1, 2, 3, 4, 5, 6, 7};
  s.leaf_sync("I", "F", t);
  // Lose the middle records.
  auto& records = s.records();
  records.erase(records.begin() + 1, records.begin() + 3);

  LogDatabase db;
  db.ingest_records(records);
  ChainTree tree = build_chain_tree(s.chain(), db);
  EXPECT_FALSE(tree.anomalies.empty());
  EXPECT_EQ(tree.call_count(), 1u);  // the call itself still reconstructed
}

TEST(CallTree, StrayEventsRecoveredFrom) {
  Scribe s;
  // skel_end with nothing open.
  s.emit(EventKind::kSkelEnd, CallKind::kSync, "I", "F", 0, 1);
  // then a clean call; the parser must recover and parse it.
  Nanos t[8] = {2, 3, 4, 5, 6, 7, 8, 9};
  s.leaf_sync("I", "G", t);

  LogDatabase db;
  ChainTree tree = build(s, db);
  EXPECT_GE(tree.anomalies.size(), 1u);
  ASSERT_EQ(tree.root->children.size(), 1u);
  EXPECT_EQ(tree.root->children[0]->function_name, "G");
}

TEST(CallTree, MismatchedNameFlagged) {
  Scribe s;
  s.emit(EventKind::kStubStart, CallKind::kSync, "I", "F", 0, 1);
  s.emit(EventKind::kSkelStart, CallKind::kSync, "I", "WRONG", 2, 3);
  s.emit(EventKind::kSkelEnd, CallKind::kSync, "I", "F", 4, 5);
  s.emit(EventKind::kStubEnd, CallKind::kSync, "I", "F", 6, 7);
  LogDatabase db;
  ChainTree tree = build(s, db);
  EXPECT_GE(tree.anomalies.size(), 1u);
}

TEST(CallTree, TruncatedTailFlagged) {
  Scribe s;
  s.emit(EventKind::kStubStart, CallKind::kSync, "I", "F", 0, 1);
  s.emit(EventKind::kSkelStart, CallKind::kSync, "I", "F", 2, 3);
  // crash: no more records
  LogDatabase db;
  ChainTree tree = build(s, db);
  EXPECT_FALSE(tree.anomalies.empty());
  EXPECT_EQ(tree.call_count(), 1u);
}

TEST(Dscg, GroupsChainsAndLinksSpawns) {
  Scribe parent;
  const Uuid child_id = [] {
    return Uuid::generate();
  }();
  auto& start = parent.emit(EventKind::kStubStart, CallKind::kOneway, "I",
                            "notify", 0, 1);
  start.spawned_chain = child_id;
  parent.emit(EventKind::kStubEnd, CallKind::kOneway, "I", "notify", 2, 3);

  // Child chain records (separate chain id).
  std::vector<monitor::TraceRecord> child_records;
  {
    monitor::TraceRecord r;
    r.chain = child_id;
    r.seq = 1;
    r.event = EventKind::kSkelStart;
    r.kind = CallKind::kOneway;
    r.interface_name = "I";
    r.function_name = "notify";
    r.process_name = "procB";
    r.node_name = "node";
    r.processor_type = "x86";
    r.mode = monitor::ProbeMode::kLatency;
    child_records.push_back(r);
    r.seq = 2;
    r.event = EventKind::kSkelEnd;
    child_records.push_back(r);
  }

  LogDatabase db;
  db.ingest_records(parent.records());
  db.ingest_records(child_records);

  Dscg dscg = Dscg::build(db);
  EXPECT_EQ(dscg.chains().size(), 2u);
  ASSERT_EQ(dscg.roots().size(), 1u);  // child hangs under the spawner
  const CallNode& spawner = *dscg.roots()[0]->root->children[0];
  ASSERT_EQ(spawner.spawned.size(), 1u);
  EXPECT_EQ(spawner.spawned[0]->chain, child_id);
  EXPECT_EQ(dscg.call_count(), 2u);

  // visit() walks into spawned chains.
  std::size_t visited = 0;
  dscg.visit([&](const CallNode&, int) { ++visited; });
  EXPECT_EQ(visited, 2u);
}

TEST(Dscg, OrphanSpawnStaysTopLevel) {
  // A spawned chain whose parent's records were lost becomes a root.
  std::vector<monitor::TraceRecord> records;
  monitor::TraceRecord r;
  r.chain = Uuid::generate();
  r.seq = 1;
  r.event = EventKind::kSkelStart;
  r.kind = CallKind::kOneway;
  r.interface_name = "I";
  r.function_name = "lost";
  r.process_name = "p";
  r.node_name = "n";
  r.processor_type = "x";
  records.push_back(r);
  r.seq = 2;
  r.event = EventKind::kSkelEnd;
  records.push_back(r);

  LogDatabase db;
  db.ingest_records(records);
  Dscg dscg = Dscg::build(db);
  ASSERT_EQ(dscg.roots().size(), 1u);
  EXPECT_TRUE(dscg.roots()[0]->oneway_child);
}

TEST(Database, QueriesAndInterning) {
  Scribe a, b;
  Nanos t[8] = {0, 1, 2, 3, 4, 5, 6, 7};
  a.leaf_sync("I", "F", t);
  b.leaf_sync("I", "G", t);

  LogDatabase db;
  // Shuffle the ingestion order; chain_events must sort by seq.
  std::vector<monitor::TraceRecord> mixed;
  for (std::size_t i = 0; i < 4; ++i) {
    mixed.push_back(b.records()[3 - i]);
    mixed.push_back(a.records()[3 - i]);
  }
  db.ingest_records(mixed);

  EXPECT_EQ(db.size(), 8u);
  EXPECT_EQ(db.chains().size(), 2u);
  auto events = db.chain_events(a.chain());
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i + 1 < events.size(); ++i) {
    EXPECT_LT(db.record(events[i]).seq, db.record(events[i + 1]).seq);
  }
  EXPECT_TRUE(db.chain_events(Uuid::generate()).empty());
  EXPECT_EQ(db.primary_mode(), monitor::ProbeMode::kLatency);
  EXPECT_EQ(db.processor_types().size(), 1u);

  // Interned strings must not alias the (now mutated) source records.
  mixed.clear();
  EXPECT_EQ(db.records()[0].interface_name, "I");
}

// Nodes refer to their records by row index, so they must keep reading the
// right rows after further ingest opens a new chunk of the row store -- and
// an incremental update over the grown database must still match a fresh
// build.
TEST(CallTree, NodesSurviveArenaGrowth) {
  LogDatabase db;
  std::vector<Scribe> early(3);
  for (std::size_t c = 0; c < early.size(); ++c) {
    for (Nanos k = 0; k < 3; ++k) {
      const Nanos b = 100 * k + static_cast<Nanos>(c);
      Nanos t[8] = {b, b + 1, b + 2, b + 4, b + 7, b + 11, b + 16, b + 22};
      early[c].leaf_sync("I", k == 1 ? "G" : "F", t);
    }
    db.ingest_records(early[c].records());
  }
  Dscg dscg = Dscg::build(db);
  ASSERT_EQ(dscg.chains().size(), early.size());

  const std::size_t chunk_before = db.size() / LogDatabase::kChunkRows;
  std::vector<Scribe> late;
  while (db.size() / LogDatabase::kChunkRows == chunk_before &&
         late.size() < 64) {
    Scribe& s = late.emplace_back();
    for (int k = 0; k < 1024; ++k) {
      Nanos t[8] = {0, 1, 2, 3, 4, 5, 6, 7};
      s.leaf_sync("J", "H", t, "procC", "procD");
    }
    db.ingest_records(s.records());
  }
  ASSERT_GT(db.size() / LogDatabase::kChunkRows, chunk_before)
      << "the row store never opened a new chunk";

  for (const auto& tree : dscg.chains()) {
    const auto events = db.chain_events(tree->chain);
    ASSERT_EQ(events.size(), 4 * tree->root->children.size());
    for (std::size_t j = 0; j < tree->root->children.size(); ++j) {
      const CallNode& node = *tree->root->children[j];
      for (int e = 1; e <= 4; ++e) {
        const auto got = node.record(static_cast<EventKind>(e));
        ASSERT_TRUE(got.has_value());
        const monitor::TraceRecord want = db.record(events[4 * j + (e - 1)]);
        EXPECT_EQ(got->seq, want.seq);
        EXPECT_EQ(got->event, want.event);
        EXPECT_EQ(got->process_name, want.process_name);
        EXPECT_EQ(got->thread_ordinal, want.thread_ordinal);
        EXPECT_EQ(got->value_start, want.value_start);
        EXPECT_EQ(got->value_end, want.value_end);
      }
    }
  }

  dscg.update(db);
  Dscg fresh = Dscg::build(db);
  EXPECT_EQ(characterization_report(dscg, db),
            characterization_report(fresh, db));
}

TEST(CallTree, ArenaStopsShortOfTheNoRecordIndex) {
  LogDatabase db;
  ColumnBundle cols;
  cols.count = CallNode::kNoRecord;  // checked before anything is allocated
  EXPECT_THROW(db.ingest(cols), std::length_error);
  EXPECT_EQ(db.size(), 0u);
  EXPECT_EQ(db.generation(), 0u);
}

}  // namespace
}  // namespace causeway::analysis
