// Store-layer acceptance: rotation, catalog round-trips, crash repair, and
// the corrupt-store matrix (torn live file, lying catalog, vanished files).
// Query-side pruning over these catalogs is covered in query_test.cpp; the
// fork+exec end-to-end run (collectd --store, kill -9 mid-rotation) lives
// in store_e2e_test.cpp.
#include "store/store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/trace_io.h"
#include "store/catalog.h"
#include "transport/ingest_sink.h"

namespace causeway::store {
namespace {

namespace fs = std::filesystem;

// A fresh scratch directory per test, removed on destruction.
struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& name)
      : path(fs::temp_directory_path() /
             ("causeway_store_" + name + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string str() const { return path.string(); }
};

Uuid uuid(std::uint64_t hi, std::uint64_t lo) {
  Uuid u;
  u.hi = hi;
  u.lo = lo;
  return u;
}

// One four-record sync call on `chain`, timestamps in [base, base+400].
monitor::CollectedLogs make_logs(std::uint64_t epoch, const Uuid& chain,
                                 std::int64_t base) {
  monitor::CollectedLogs logs;
  logs.epoch = epoch;
  logs.domains.push_back({monitor::DomainIdentity{"procA", "node0", "x86"},
                          monitor::ProbeMode::kLatency, 2});
  logs.domains.push_back({monitor::DomainIdentity{"procB", "node0", "x86"},
                          monitor::ProbeMode::kLatency, 2});
  auto rec = [&](std::uint64_t seq, monitor::EventKind event,
                 std::string_view process) {
    monitor::TraceRecord r;
    r.chain = chain;
    r.seq = seq;
    r.event = event;
    r.kind = monitor::CallKind::kSync;
    r.outcome = monitor::CallOutcome::kOk;
    r.interface_name = "Store::Iface";
    r.function_name = "fn";
    r.object_key = 9;
    r.process_name = process;
    r.node_name = "node0";
    r.processor_type = "x86";
    r.thread_ordinal = 1;
    r.mode = monitor::ProbeMode::kLatency;
    r.value_start = base + static_cast<std::int64_t>(seq) * 100;
    r.value_end = base + static_cast<std::int64_t>(seq) * 100 + 10;
    return r;
  };
  logs.records.push_back(rec(1, monitor::EventKind::kStubStart, "procA"));
  logs.records.push_back(rec(2, monitor::EventKind::kSkelStart, "procB"));
  logs.records.push_back(rec(3, monitor::EventKind::kSkelEnd, "procB"));
  logs.records.push_back(rec(4, monitor::EventKind::kStubEnd, "procA"));
  return logs;
}

TEST(ChainDigest, InsertedChainsAreContained) {
  ChainDigest digest;
  EXPECT_TRUE(digest.empty());
  std::vector<Uuid> present;
  for (std::uint64_t i = 1; i <= 200; ++i) {
    present.push_back(uuid(i * 0x9e3779b97f4a7c15ull, i * 0xc2b2ae3d27d4eb4full));
    digest.insert(present.back());
  }
  EXPECT_FALSE(digest.empty());
  for (const Uuid& u : present) EXPECT_TRUE(digest.may_contain(u));

  // Absent chains are overwhelmingly rejected (~2% false positives at this
  // load; 1000 distinct probes make a full wipeout implausible).
  std::size_t hits = 0;
  for (std::uint64_t i = 1; i <= 1000; ++i) {
    if (digest.may_contain(
            uuid(0x1234567800000000ull + i * 7919, 0xabcdef0000000000ull + i))) {
      ++hits;
    }
  }
  EXPECT_LT(hits, 200u);
}

TEST(Catalog, EncodeDecodeRoundTrip) {
  Catalog catalog;
  for (int i = 1; i <= 3; ++i) {
    CatalogEntry e;
    e.file = "store-00000" + std::to_string(i) + ".cwt";
    e.bytes = 1000u * static_cast<unsigned>(i);
    e.segments = static_cast<std::uint64_t>(i);
    e.records = 40u * static_cast<unsigned>(i);
    e.min_epoch = static_cast<std::uint64_t>(i);
    e.max_epoch = static_cast<std::uint64_t>(i) + 5;
    e.min_ts = i * 100;
    e.max_ts = i * 100 + 999;
    e.chains.insert(uuid(7, static_cast<std::uint64_t>(i)));
    catalog.entries.push_back(e);
  }
  const auto bytes = Catalog::decode(catalog.encode()).encode();
  EXPECT_EQ(bytes, catalog.encode());

  const Catalog decoded = Catalog::decode(catalog.encode());
  ASSERT_EQ(decoded.entries.size(), 3u);
  EXPECT_EQ(decoded.entries[1].file, "store-000002.cwt");
  EXPECT_EQ(decoded.entries[1].records, 80u);
  EXPECT_EQ(decoded.entries[2].min_ts, 300);
  EXPECT_TRUE(decoded.entries[0].may_contain_chain(uuid(7, 1)));
  EXPECT_EQ(decoded.total_records(), 240u);
}

TEST(Catalog, SaveLoadAndCorruptFile) {
  ScratchDir dir("catalog");
  fs::create_directories(dir.path);
  EXPECT_FALSE(load_catalog(dir.str()).has_value());

  Catalog catalog;
  CatalogEntry e;
  e.file = "store-000001.cwt";
  e.bytes = 123;
  e.records = 4;
  catalog.entries.push_back(e);
  save_catalog(dir.str(), catalog);
  const auto loaded = load_catalog(dir.str());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->entries.size(), 1u);
  EXPECT_EQ(loaded->entries[0].bytes, 123u);

  std::ofstream(dir.path / kCatalogFileName, std::ios::trunc) << "garbage";
  EXPECT_THROW(load_catalog(dir.str()), analysis::TraceIoError);
}

TEST(Catalog, TimeWindowPruning) {
  CatalogEntry e;
  e.records = 1;
  e.min_ts = 100;
  e.max_ts = 200;
  EXPECT_TRUE(e.overlaps_time(150, 160));
  EXPECT_TRUE(e.overlaps_time(0, 100));
  EXPECT_TRUE(e.overlaps_time(200, 500));
  EXPECT_FALSE(e.overlaps_time(201, 500));
  EXPECT_FALSE(e.overlaps_time(0, 99));
}

TEST(StoreWriter, RotatesBySegmentCountAndSealsOnClose) {
  ScratchDir dir("rotate");
  {
    StoreOptions options;
    options.rotate_segments = 2;
    options.checkpoint_every = 1;
    StoreWriter writer(dir.str(), options);
    for (std::uint64_t e = 1; e <= 5; ++e) {
      writer.append(make_logs(e, uuid(1, e), static_cast<std::int64_t>(e) * 1000));
    }
    EXPECT_EQ(writer.files_sealed(), 2u);  // segments 1-2 and 3-4
    EXPECT_EQ(writer.segments(), 5u);
    EXPECT_EQ(writer.records(), 20u);
    writer.close();
    EXPECT_EQ(writer.files_sealed(), 3u);  // the odd fifth segment
  }
  EXPECT_TRUE(fs::exists(dir.path / "store-000001.cwt"));
  EXPECT_TRUE(fs::exists(dir.path / "store-000003.cwt"));
  EXPECT_FALSE(fs::exists(dir.path / "current.cwt"));

  const StoreView view = open_store(dir.str());
  ASSERT_EQ(view.files.size(), 3u);
  EXPECT_TRUE(view.files[0].indexed);
  EXPECT_EQ(view.files[0].entry.records, 8u);
  EXPECT_EQ(view.files[2].entry.records, 4u);
  EXPECT_EQ(view.files[0].entry.min_epoch, 1u);
  EXPECT_EQ(view.files[0].entry.max_epoch, 2u);
  EXPECT_EQ(view.files[0].entry.min_ts, 1100);
  EXPECT_TRUE(view.files[1].entry.may_contain_chain(uuid(1, 3)));

  // Every sealed file is an ordinary closed trace.
  analysis::LogDatabase db;
  EXPECT_EQ(analysis::read_trace_file((dir.path / "store-000001.cwt").string(),
                                      db),
            8u);
}

TEST(StoreWriter, RotatesByBytes) {
  ScratchDir dir("rotatebytes");
  StoreOptions options;
  options.rotate_bytes = 1;  // every segment trips the size threshold
  StoreWriter writer(dir.str(), options);
  for (std::uint64_t e = 1; e <= 3; ++e) {
    writer.append(make_logs(e, uuid(2, e), 0));
  }
  writer.close();
  EXPECT_EQ(writer.files_sealed(), 3u);
}

TEST(StoreWriter, EmptyStoreClosesWithoutFiles) {
  ScratchDir dir("empty");
  {
    StoreWriter writer(dir.str());
    writer.close();
  }
  EXPECT_FALSE(fs::exists(dir.path / "current.cwt"));
  const StoreView view = open_store(dir.str());
  EXPECT_TRUE(view.files.empty());
}

TEST(StoreWriter, V5StoreReadsBackLikeV4) {
  ScratchDir dir4("fmtv4");
  ScratchDir dir5("fmtv5");
  for (const auto& [path, format] :
       {std::pair{dir4.str(), analysis::kTraceFormatV4},
        std::pair{dir5.str(), analysis::kTraceFormatV5}}) {
    StoreOptions options;
    options.rotate_segments = 1;
    options.trace_format = format;
    StoreWriter writer(path, options);
    for (std::uint64_t e = 1; e <= 3; ++e) {
      writer.append(make_logs(e, uuid(3, e), static_cast<std::int64_t>(e)));
    }
    writer.close();
    EXPECT_EQ(writer.files_sealed(), 3u);
  }
  analysis::LogDatabase db4, db5;
  for (int i = 1; i <= 3; ++i) {
    const std::string name = "store-00000" + std::to_string(i) + ".cwt";
    analysis::read_trace_file((dir4.path / name).string(), db4);
    analysis::read_trace_file((dir5.path / name).string(), db5);
  }
  ASSERT_EQ(db4.size(), 12u);
  ASSERT_EQ(db5.size(), db4.size());
  for (std::size_t i = 0; i < db4.size(); ++i) {
    EXPECT_EQ(db5.records()[i].seq, db4.records()[i].seq);
    EXPECT_EQ(db5.records()[i].value_start, db4.records()[i].value_start);
  }
}

// A store-only collectd sink counts each segment from its header and leaves
// the one decode to the store, which still rejects a corrupt segment before
// writing any of it.
TEST(StoreWriter, StoreOnlyIngestSinkRejectsCorruptSegments) {
  ScratchDir dir("ingest");
  transport::IngestSink::Options options;
  options.store_dir = dir.str();
  transport::IngestSink sink(std::move(options));
  transport::PeerInfo peer;
  peer.process_name = "procA";
  const auto segment = analysis::encode_trace(make_logs(1, uuid(5, 1), 0),
                                              analysis::kTraceFormatV4);
  sink.on_segment(peer, segment);
  const std::vector<std::uint8_t> torn(segment.begin(), segment.end() - 3);
  EXPECT_THROW(sink.on_segment(peer, torn), analysis::TraceIoError);
  sink.on_segment(peer, segment);

  const transport::IngestSink::Totals totals = sink.finalize();
  EXPECT_EQ(totals.segments, 2u);
  EXPECT_EQ(totals.records, 8u);
  const StoreView view = open_store(dir.str());
  ASSERT_EQ(view.files.size(), 1u);
  EXPECT_EQ(view.files[0].entry.records, 8u);
  analysis::LogDatabase db;
  EXPECT_EQ(analysis::read_trace_file(view.files[0].path, db), 8u);
}

TEST(OpenStore, ThrowsOnMissingAndResizedFiles) {
  ScratchDir dir("lying");
  {
    StoreOptions options;
    options.rotate_segments = 1;
    StoreWriter writer(dir.str(), options);
    writer.append(make_logs(1, uuid(4, 1), 0));
    writer.append(make_logs(2, uuid(4, 2), 0));
    writer.close();
  }
  // Stale range: the file shrank behind the catalog's back.
  const auto first = dir.path / "store-000001.cwt";
  const auto original_size = fs::file_size(first);
  fs::resize_file(first, original_size - 1);
  try {
    open_store(dir.str());
    FAIL() << "size mismatch must throw";
  } catch (const analysis::TraceIoError& e) {
    EXPECT_NE(std::string(e.what()).find("--reindex"), std::string::npos)
        << e.what();
  }
  fs::resize_file(first, original_size);  // restore padding w/ zeros is fine
  // ... but a vanished file is its own error.
  fs::remove(dir.path / "store-000002.cwt");
  EXPECT_THROW(open_store(dir.str()), analysis::TraceIoError);
}

TEST(ReindexStore, RepairsTornLiveFileAndMissingCatalog) {
  ScratchDir dir("repair");
  {
    StoreOptions options;
    options.rotate_segments = 1;
    options.checkpoint_every = 1;
    StoreWriter writer(dir.str(), options);
    writer.append(make_logs(1, uuid(5, 1), 0));
    writer.append(make_logs(2, uuid(5, 2), 0));
    writer.close();
  }
  // Crash artifact: a torn current.cwt (one whole segment + half of the
  // next) and no catalog at all.
  {
    const auto seg1 = analysis::encode_trace(make_logs(3, uuid(5, 3), 0));
    const auto seg2 = analysis::encode_trace(make_logs(4, uuid(5, 4), 0));
    std::ofstream out(dir.path / "current.cwt",
                      std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(seg1.data()),
              static_cast<std::streamsize>(seg1.size()));
    out.write(reinterpret_cast<const char*>(seg2.data()),
              static_cast<std::streamsize>(seg2.size() / 2));
  }
  fs::remove(dir.path / kCatalogFileName);

  const StoreReindexResult result = reindex_store(dir.str());
  EXPECT_EQ(result.files_indexed, 3u);
  EXPECT_TRUE(result.sealed_current);
  EXPECT_TRUE(result.catalog_rewritten);
  EXPECT_GT(result.truncated_bytes, 0u);
  EXPECT_FALSE(fs::exists(dir.path / "current.cwt"));
  EXPECT_TRUE(fs::exists(dir.path / "store-000003.cwt"));

  const StoreView view = open_store(dir.str());
  ASSERT_EQ(view.files.size(), 3u);
  EXPECT_EQ(view.files[2].entry.records, 4u);  // torn second segment dropped
  EXPECT_EQ(view.files[2].entry.min_epoch, 3u);

  // A second pass over the now-consistent store changes nothing.
  const StoreReindexResult again = reindex_store(dir.str());
  EXPECT_EQ(again.files_repaired, 0u);
  EXPECT_FALSE(again.catalog_rewritten);
  EXPECT_EQ(again.truncated_bytes, 0u);
}

TEST(ReindexStore, DropsEntriesForVanishedFiles) {
  ScratchDir dir("vanish");
  {
    StoreOptions options;
    options.rotate_segments = 1;
    StoreWriter writer(dir.str(), options);
    writer.append(make_logs(1, uuid(6, 1), 0));
    writer.append(make_logs(2, uuid(6, 2), 0));
    writer.close();
  }
  fs::remove(dir.path / "store-000001.cwt");
  const StoreReindexResult result = reindex_store(dir.str());
  EXPECT_EQ(result.dropped_entries, 1u);
  EXPECT_EQ(result.files_indexed, 1u);
  EXPECT_TRUE(result.catalog_rewritten);
  const StoreView view = open_store(dir.str());
  ASSERT_EQ(view.files.size(), 1u);
  EXPECT_EQ(view.files[0].entry.min_epoch, 2u);
}

TEST(StoreWriter, RestartRecoversCrashedDirectoryAndKeepsNumbering) {
  ScratchDir dir("restart");
  {
    StoreOptions options;
    options.rotate_segments = 1;
    StoreWriter writer(dir.str(), options);
    writer.append(make_logs(1, uuid(7, 1), 0));
    writer.append(make_logs(2, uuid(7, 2), 0));
    writer.close();
  }
  // Crash artifact between rotations: a leftover live file.
  {
    const auto seg = analysis::encode_trace(make_logs(3, uuid(7, 3), 0));
    std::ofstream out(dir.path / "current.cwt",
                      std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(seg.data()),
              static_cast<std::streamsize>(seg.size()));
  }
  {
    StoreOptions options;
    options.rotate_segments = 1;
    StoreWriter writer(dir.str(), options);  // recovery runs here
    EXPECT_EQ(writer.files_sealed(), 3u);    // the orphan was sealed
    writer.append(make_logs(4, uuid(7, 4), 0));
    writer.close();
  }
  const StoreView view = open_store(dir.str());
  ASSERT_EQ(view.files.size(), 4u);
  EXPECT_EQ(view.files[3].path.substr(view.files[3].path.size() - 16),
            "store-000004.cwt");
  EXPECT_EQ(view.files[2].entry.min_epoch, 3u);
  EXPECT_EQ(view.files[3].entry.min_epoch, 4u);
}

TEST(StoreWriter, RejectsNonColumnarFormats) {
  ScratchDir dir("badfmt");
  StoreOptions options;
  options.trace_format = analysis::kTraceFormatV3;
  EXPECT_THROW(StoreWriter(dir.str(), options), analysis::TraceIoError);
}

TEST(IsStoreDirectory, DistinguishesDirsFromFiles) {
  ScratchDir dir("isdir");
  fs::create_directories(dir.path);
  EXPECT_TRUE(is_store_directory(dir.str()));
  const auto file = dir.path / "plain.cwt";
  std::ofstream(file) << "x";
  EXPECT_FALSE(is_store_directory(file.string()));
  EXPECT_FALSE(is_store_directory((dir.path / "absent").string()));
}

}  // namespace
}  // namespace causeway::store
