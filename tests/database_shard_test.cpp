// Sharded-synthesis invariants (DESIGN.md Sec. 8): every public LogDatabase
// query -- and therefore every downstream render -- must be byte-for-byte
// independent of the shard count; chains_since must dedup exactly across
// interleaved generations; the sorted-prefix watermark must keep
// chain_events equal to a full stable sort; and the database must stay
// movable (the parallel machinery lives outside it).  The row store
// (DESIGN.md Sec. 7) must give every record back field for field, on every
// ingest path, across chunk boundaries, to concurrent readers.
#include <algorithm>
#include <random>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/columns.h"
#include "analysis/database.h"
#include "analysis/dscg.h"
#include "analysis/report.h"
#include "analysis/trace_io.h"
#include "analysis_test_util.h"
#include "common/worker_pool.h"
#include "workload/logsynth.h"

namespace causeway::analysis {
namespace {

using monitor::CallKind;
using monitor::EventKind;
using monitor::ProbeMode;
using monitor::TraceRecord;
using testutil::Scribe;

// Field-wise record equality (TraceRecord has no operator==; strings
// compare by content, since a database's names view its own table).
void expect_same_record(const TraceRecord& a, const TraceRecord& b) {
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
  EXPECT_EQ(a.node_name, b.node_name);
  EXPECT_EQ(a.processor_type, b.processor_type);
  EXPECT_EQ(a.thread_ordinal, b.thread_ordinal);
  EXPECT_EQ(a.mode, b.mode);
  EXPECT_EQ(a.sample_rate_index, b.sample_rate_index);
  EXPECT_EQ(a.value_start, b.value_start);
  EXPECT_EQ(a.value_end, b.value_end);
}

// The full equivalence check: every public query of `a` and `b` agrees.
void expect_same_database(const LogDatabase& a, const LogDatabase& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_same_record(a.records()[i], b.records()[i]);
  }
  ASSERT_EQ(a.chains(), b.chains());
  EXPECT_EQ(a.generation(), b.generation());
  EXPECT_EQ(a.primary_mode(), b.primary_mode());

  std::vector<std::string_view> types_a(a.processor_types().begin(),
                                        a.processor_types().end());
  std::vector<std::string_view> types_b(b.processor_types().begin(),
                                        b.processor_types().end());
  EXPECT_EQ(types_a, types_b);

  for (std::uint64_t gen = 0; gen <= a.generation(); ++gen) {
    EXPECT_EQ(a.chains_since(gen), b.chains_since(gen)) << "gen " << gen;
  }

  for (const Uuid& chain : a.chains()) {
    const auto ea = a.chain_events(chain);
    const auto eb = b.chain_events(chain);
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t i = 0; i < ea.size(); ++i) {
      expect_same_record(a.record(ea[i]), b.record(eb[i]));
    }
  }
}

// Ingests `records` into `db` split into `batches` roughly equal batches.
void ingest_in_batches(LogDatabase& db, std::span<const TraceRecord> records,
                       std::size_t batches) {
  const std::size_t step = std::max<std::size_t>(1, records.size() / batches);
  for (std::size_t off = 0; off < records.size(); off += step) {
    db.ingest_records(
        records.subspan(off, std::min(step, records.size() - off)));
  }
}

TEST(DatabaseShardTest, ShardCountsRenderIdentically) {
  // A real multi-chain stream: the E2 synthesizer, scaled down.
  LogDatabase source(1);
  workload::LogSynthConfig config;
  config.total_calls = 1'200;
  config.methods = 40;
  config.interfaces = 12;
  config.components = 8;
  config.threads = 8;
  config.processes = 3;
  workload::synthesize_logs(config, source);
  ASSERT_GT(source.chains().size(), 30u);

  // Reference: one shard, same batch schedule.
  LogDatabase one(1);
  ingest_in_batches(one, source.records(), 5);

  for (const std::size_t shards : {std::size_t{3}, std::size_t{8}}) {
    LogDatabase db(shards);
    ASSERT_EQ(db.shard_count(), shards);
    ingest_in_batches(db, source.records(), 5);
    expect_same_database(one, db);

    // The acceptance bar: the full characterization report is
    // byte-identical, so every downstream pass is too.
    Dscg ref = Dscg::build(one);
    Dscg got = Dscg::build(db);
    EXPECT_EQ(characterization_report(ref, one),
              characterization_report(got, db))
        << "shards=" << shards;
  }
}

TEST(DatabaseShardTest, ChainsSinceDedupsAcrossInterleavedGenerations) {
  // Chains touch interleaved subsets of generations; chains_since(g) must
  // list each touched chain exactly once, ordered by its first touching
  // batch after g (then arrival).  Brute-force reference: replay the
  // schedule and record per-chain touch generations.
  Scribe a, b, c, d;
  const std::vector<std::vector<Scribe*>> schedule = {
      {&a, &b}, {&b, &c}, {&a}, {&d, &a, &c}, {&b}};

  LogDatabase db(4);
  std::unordered_map<Uuid, std::vector<std::uint64_t>> touches;
  std::vector<Uuid> arrival_order;  // chain first-arrival across the run
  std::uint64_t gen = 0;
  for (const auto& batch : schedule) {
    std::vector<TraceRecord> records;
    ++gen;
    for (Scribe* scribe : batch) {
      scribe->records().clear();
      scribe->emit(EventKind::kStubStart, CallKind::kSync, "I", "f", 0, 1);
      scribe->emit(EventKind::kStubEnd, CallKind::kSync, "I", "f", 2, 3);
      records.insert(records.end(), scribe->records().begin(),
                     scribe->records().end());
      touches[scribe->chain()].push_back(gen);
      if (std::find(arrival_order.begin(), arrival_order.end(),
                    scribe->chain()) == arrival_order.end()) {
        arrival_order.push_back(scribe->chain());
      }
    }
    db.ingest_records(records);
  }

  for (std::uint64_t cut = 0; cut <= gen + 1; ++cut) {
    // Reference: chains with any touch > cut, ordered by (first touch
    // after cut, arrival within that batch).  The schedule lists chains
    // in batch-arrival order already, so a stable scan per generation
    // reproduces it.
    std::vector<Uuid> expected;
    for (std::uint64_t g = cut + 1; g <= gen; ++g) {
      for (Scribe* scribe : schedule[g - 1]) {
        const auto& t = touches[scribe->chain()];
        const auto first_after =
            std::find_if(t.begin(), t.end(),
                         [&](std::uint64_t x) { return x > cut; });
        if (first_after != t.end() && *first_after == g) {
          expected.push_back(scribe->chain());
        }
      }
    }
    EXPECT_EQ(db.chains_since(cut), expected) << "cut " << cut;
  }
  EXPECT_EQ(db.chains_since(0), db.chains());
  EXPECT_EQ(db.chains(), arrival_order);
}

TEST(DatabaseShardTest, ChainEventsMatchesStableSortUnderDisorder) {
  // Three arrival shapes: already sorted (fast path), out-of-order tails
  // across batches, and duplicate seq numbers (ties must keep insertion
  // order -- stable_sort semantics).
  std::mt19937_64 rng(11);
  for (int scramble = 0; scramble < 3; ++scramble) {
    Scribe scribe;
    for (int i = 0; i < 40; ++i) {
      scribe.emit(EventKind::kStubStart, CallKind::kSync, "I", "f", i, i + 1)
          .object_key = static_cast<std::uint64_t>(i);
    }
    std::vector<TraceRecord> records = scribe.records();
    if (scramble >= 1) {
      std::shuffle(records.begin() + 10, records.end(), rng);
    }
    if (scramble == 2) {
      for (std::size_t i = 0; i < records.size(); ++i) {
        records[i].seq = records[i].seq / 4;  // heavy ties
      }
    }

    LogDatabase db(2);
    ingest_in_batches(db, records, 4);

    // Reference: stable sort of arrival order by seq.
    std::vector<std::uint32_t> expected(db.size());
    for (std::uint32_t i = 0; i < expected.size(); ++i) expected[i] = i;
    std::stable_sort(expected.begin(), expected.end(),
                     [&](std::uint32_t x, std::uint32_t y) {
                       return db.record(x).seq < db.record(y).seq;
                     });

    const auto got = db.chain_events(scribe.chain());
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(db.record(got[i]).seq, db.record(expected[i]).seq)
          << "scramble " << scramble;
      EXPECT_EQ(db.record(got[i]).object_key,
                db.record(expected[i]).object_key)
          << "scramble " << scramble << " pos " << i;
    }
  }
}

TEST(DatabaseShardTest, MoveSemanticsSurviveQueriesAndFurtherIngest) {
  Scribe scribe;
  scribe.leaf_sync("IMove", "call", {0, 1, 2, 3, 4, 5, 6, 7});
  LogDatabase db(4);
  db.ingest_records(scribe.records());

  LogDatabase moved(std::move(db));
  EXPECT_EQ(moved.size(), 4u);
  EXPECT_EQ(moved.chains().size(), 1u);
  EXPECT_EQ(moved.chain_events(scribe.chain()).size(), 4u);

  // The moved-to database keeps ingesting correctly.
  Scribe more;
  more.leaf_sync("IMove", "again", {8, 9, 10, 11, 12, 13, 14, 15});
  moved.ingest_records(more.records());
  EXPECT_EQ(moved.size(), 8u);
  EXPECT_EQ(moved.chains().size(), 2u);
  EXPECT_EQ(moved.generation(), 2u);

  LogDatabase assigned(1);
  assigned = std::move(moved);
  EXPECT_EQ(assigned.shard_count(), 4u);
  EXPECT_EQ(assigned.size(), 8u);
  EXPECT_EQ(assigned.chains_since(1).size(), 1u);
}

TEST(DatabaseShardTest, ParallelIngestBigBatchMatchesSerial) {
  // One batch well past the parallel threshold (8192 records), so the
  // worker-pool scatter path actually runs -- under TSan this is the data
  // -race gate for the whole sharded ingest.
  LogDatabase source(1);
  workload::LogSynthConfig config;
  config.seed = 99;
  config.total_calls = 4'000;  // ~4 records per call => >= 12k records
  config.threads = 16;
  config.processes = 4;
  workload::synthesize_logs(config, source);
  ASSERT_GT(source.size(), 8192u);

  LogDatabase parallel(8);
  parallel.ingest_records(source.records());  // single big batch
  LogDatabase serial(1);
  serial.ingest_records(source.records());

  expect_same_database(serial, parallel);
  Dscg ref = Dscg::build(serial);
  Dscg got = Dscg::build(parallel);
  EXPECT_EQ(characterization_report(ref, serial),
            characterization_report(got, parallel));
}

// A source stream longer than one chunk of the row store, with every field
// the packed row encodes away from its default somewhere: sample-rate
// indexes 0..31, spawned chains, failures, the mode value 3 that only
// corrupt input carries (it must round-trip, and count in bounds), and a
// processor type ("cpu-z") whose string is interned as an interface name
// long before any record carries it as a type, so the first-seen type
// order differs from the name table's order.
// The records' names view the synthesizing database's table, so that
// database lives as long as the test binary.
std::vector<TraceRecord> row_store_source() {
  static LogDatabase synth = [] {
    LogDatabase db(1);
    workload::LogSynthConfig config;
    config.seed = 5;
    config.total_calls = 20'000;  // ~4 records per call: > kChunkRows
    config.threads = 8;
    config.processes = 3;
    workload::synthesize_logs(config, db);
    return db;
  }();
  std::vector<TraceRecord> records = synth.records();
  const std::string_view types[] = {"cpu-a", "cpu-b", "cpu-z"};
  for (std::size_t i = 0; i < records.size(); ++i) {
    TraceRecord& r = records[i];
    r.sample_rate_index = static_cast<std::uint8_t>(i % 32);
    if (i % 97 == 0) r.spawned_chain = Uuid{i + 1, 7};
    if (i % 13 == 0) r.outcome = monitor::CallOutcome::kAppError;
    if (i % 101 == 0) r.mode = static_cast<ProbeMode>(3);
    if (i == 0) r.interface_name = "cpu-z";
    r.processor_type = types[(i / 30'000) % 3];
  }
  return records;
}

// The concatenation of `parts`, as one vector.
std::vector<TraceRecord> concat(
    const std::vector<std::vector<TraceRecord>>& parts) {
  std::vector<TraceRecord> out;
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

// `db` holds exactly `want`, in order, through record(), records() and the
// first-seen processor-type list.
void expect_rows(const LogDatabase& db, const std::vector<TraceRecord>& want) {
  ASSERT_EQ(db.size(), want.size());
  for (std::uint32_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(i);
    expect_same_record(db.record(i), want[i]);
  }
  const std::vector<TraceRecord>& flat = db.records();
  ASSERT_EQ(flat.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(i);
    expect_same_record(flat[i], want[i]);
  }
  std::vector<std::string_view> types;
  for (const TraceRecord& r : want) {
    if (std::find(types.begin(), types.end(), r.processor_type) ==
        types.end()) {
      types.push_back(r.processor_type);
    }
  }
  EXPECT_EQ(db.processor_types(), types);
}

TEST(RowStore, EveryIngestPathKeepsEveryFieldAcrossChunks) {
  const std::vector<TraceRecord> source = row_store_source();
  ASSERT_GT(source.size(), LogDatabase::kChunkRows + 10'000);
  // Batches of 24,000 rows: the third one straddles the first chunk
  // boundary.  The tail batch is held back to check records() rebuilds.
  std::vector<std::vector<TraceRecord>> batches;
  for (std::size_t off = 0; off < source.size(); off += 24'000) {
    const std::size_t end = std::min(source.size(), off + 24'000);
    batches.emplace_back(source.begin() + static_cast<std::ptrdiff_t>(off),
                         source.begin() + static_cast<std::ptrdiff_t>(end));
  }
  ASSERT_GE(batches.size(), 4u);
  const std::vector<TraceRecord> last = batches.back();
  batches.pop_back();
  ASSERT_GT(concat(batches).size(), LogDatabase::kChunkRows);

  enum class Path { kRecords, kLogs, kColumns };
  for (const Path path : {Path::kRecords, Path::kLogs, Path::kColumns}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(testing::Message() << "path " << static_cast<int>(path)
                                      << " shards " << shards);
      LogDatabase db(shards);
      auto ingest = [&](const std::vector<TraceRecord>& batch) {
        monitor::CollectedLogs logs;
        logs.records = batch;
        switch (path) {
          case Path::kRecords: db.ingest_records(batch); break;
          case Path::kLogs: db.ingest(logs); break;
          case Path::kColumns: db.ingest(columns_from_logs(logs)); break;
        }
      };
      for (const auto& batch : batches) ingest(batch);
      expect_rows(db, concat(batches));

      // records() is rebuilt after a further ingest, not kept stale.
      ingest(last);
      std::vector<std::vector<TraceRecord>> all = batches;
      all.push_back(last);
      expect_rows(db, concat(all));
    }
  }
}

TEST(RowStore, RefusesRecordsThatDoNotFitThePackedFlags) {
  Scribe scribe;
  scribe.leaf_sync("I", "f", {0, 1, 2, 3, 4, 5, 6, 7});
  std::vector<TraceRecord> records = scribe.records();
  records[2].sample_rate_index = 32;  // one past the 5-bit field
  LogDatabase db(2);
  EXPECT_THROW(db.ingest_records(records), std::invalid_argument);
  EXPECT_EQ(db.size(), 0u);
  EXPECT_EQ(db.generation(), 0u);

  // Through a collector bundle, the domains and counters stay as they were.
  monitor::CollectedLogs logs;
  logs.records = records;
  logs.domains.push_back({monitor::DomainIdentity{"p", "n", "t"},
                          ProbeMode::kLatency, records.size()});
  logs.dropped = 2;
  logs.publish_dropped = 3;
  logs.sampled_out = 4;
  logs.epoch = 5;
  EXPECT_THROW(db.ingest(logs), std::invalid_argument);
  EXPECT_EQ(db.size(), 0u);
  EXPECT_EQ(db.generation(), 0u);
  EXPECT_TRUE(db.domains().empty());
  EXPECT_EQ(db.overflow_dropped(), 0u);
  EXPECT_EQ(db.publish_dropped(), 0u);
  EXPECT_EQ(db.sampled_out(), 0u);
  EXPECT_EQ(db.last_epoch(), 0u);
}

TEST(RowStore, ConcurrentReadersSeeEveryRow) {
  const std::vector<TraceRecord> source = row_store_source();
  LogDatabase db(4);
  ingest_in_batches(db, source, 3);
  const std::vector<Uuid>& chains = db.chains();

  // Reference, read serially before any concurrent reader starts.
  std::vector<std::vector<std::uint32_t>> want(chains.size());
  for (std::size_t c = 0; c < chains.size(); ++c) {
    want[c] = db.chain_events(chains[c]);
  }

  // Every worker reads chain_events and record for a slice of the chains
  // and materializes records() concurrently with the others; under TSan
  // this is the race gate for the read side of the row store.
  constexpr std::size_t kTasks = 8;
  std::vector<std::size_t> mismatches(kTasks, 0);
  WorkerPool::shared().parallel_for(kTasks, [&](std::size_t t) {
    const std::vector<TraceRecord>& flat = db.records();
    for (std::size_t c = t; c < chains.size(); c += kTasks) {
      const std::vector<std::uint32_t> got = db.chain_events(chains[c]);
      if (got != want[c]) ++mismatches[t];
      for (const std::uint32_t i : got) {
        const TraceRecord r = db.record(i);
        const TraceRecord& f = flat[i];
        if (!(r.chain == chains[c]) || r.seq != f.seq ||
            r.value_start != f.value_start ||
            r.interface_name != f.interface_name) {
          ++mismatches[t];
        }
      }
    }
  });
  for (std::size_t t = 0; t < kTasks; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "task " << t;
  }
}

}  // namespace
}  // namespace causeway::analysis
