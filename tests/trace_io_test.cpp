#include "analysis/trace_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "analysis/cpu.h"
#include "analysis/dscg.h"
#include "analysis/report.h"
#include "common/compress.h"
#include "common/wire.h"
#include "common/worker_pool.h"
#include "workload/logsynth.h"

namespace causeway::analysis {
namespace {

monitor::CollectedLogs sample_logs() {
  monitor::CollectedLogs logs;
  logs.domains.push_back({monitor::DomainIdentity{"procA", "node0", "x86"},
                          monitor::ProbeMode::kLatency, 2});
  logs.domains.push_back({monitor::DomainIdentity{"procB", "node1", "pa-risc"},
                          monitor::ProbeMode::kLatency, 2});

  const Uuid chain = Uuid::generate();
  auto rec = [&](std::uint64_t seq, monitor::EventKind event,
                 std::string_view process) {
    monitor::TraceRecord r;
    r.chain = chain;
    r.seq = seq;
    r.event = event;
    r.kind = monitor::CallKind::kSync;
    r.outcome = seq >= 3 ? monitor::CallOutcome::kAppError
                         : monitor::CallOutcome::kOk;
    r.interface_name = "Trace::Iface";
    r.function_name = "fn";
    r.object_key = 11;
    r.process_name = process;
    r.node_name = "node";
    r.processor_type = "x86";
    r.thread_ordinal = 5;
    r.mode = monitor::ProbeMode::kLatency;
    r.value_start = static_cast<Nanos>(seq * 100);
    r.value_end = static_cast<Nanos>(seq * 100 + 7);
    return r;
  };
  logs.records.push_back(rec(1, monitor::EventKind::kStubStart, "procA"));
  logs.records.push_back(rec(2, monitor::EventKind::kSkelStart, "procB"));
  logs.records.push_back(rec(3, monitor::EventKind::kSkelEnd, "procB"));
  logs.records.push_back(rec(4, monitor::EventKind::kStubEnd, "procA"));
  return logs;
}

TEST(TraceIo, EncodeDecodeRoundTrip) {
  const auto logs = sample_logs();
  const auto bytes = encode_trace(logs);

  LogDatabase db;
  EXPECT_EQ(decode_trace(bytes, db), 4u);
  ASSERT_EQ(db.size(), 4u);
  ASSERT_EQ(db.domains().size(), 2u);
  EXPECT_EQ(db.domains()[1].process_name, "procB");
  EXPECT_EQ(db.domains()[1].processor_type, "pa-risc");

  const auto& r = db.records()[2];
  EXPECT_EQ(r.seq, 3u);
  EXPECT_EQ(r.event, monitor::EventKind::kSkelEnd);
  EXPECT_EQ(r.outcome, monitor::CallOutcome::kAppError);
  EXPECT_EQ(r.interface_name, "Trace::Iface");
  EXPECT_EQ(r.process_name, "procB");
  EXPECT_EQ(r.value_end, 307);

  // The decoded stream reconstructs like the live one.
  auto dscg = Dscg::build(db);
  EXPECT_EQ(dscg.call_count(), 1u);
  EXPECT_EQ(dscg.anomaly_count(), 0u);
  EXPECT_TRUE(dscg.roots()[0]->root->children[0]->failed());
}

TEST(TraceIo, FileRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() / "causeway_t.cwt";
  write_trace_file(path.string(), sample_logs());
  LogDatabase db;
  EXPECT_EQ(read_trace_file(path.string(), db), 4u);
  EXPECT_EQ(db.size(), 4u);
  std::filesystem::remove(path);
}

TEST(TraceIo, MissingFileThrows) {
  LogDatabase db;
  EXPECT_THROW(read_trace_file("/no/such/file.cwt", db), TraceIoError);
}

TEST(TraceIo, CorruptBytesThrow) {
  auto bytes = encode_trace(sample_logs());
  // Wrong magic.
  auto bad_magic = bytes;
  bad_magic[0] ^= 0xff;
  LogDatabase db1;
  EXPECT_THROW(decode_trace(bad_magic, db1), TraceIoError);
  // Truncations anywhere must throw, never crash.
  for (std::size_t cut = 1; cut < bytes.size(); cut += 13) {
    std::vector<std::uint8_t> shorter(bytes.begin(),
                                      bytes.end() - static_cast<long>(cut));
    LogDatabase db2;
    EXPECT_THROW(decode_trace(shorter, db2), TraceIoError);
  }
}

TEST(TraceIo, DefaultFormatIsV4WithBodyLength) {
  const auto bytes = encode_trace(sample_logs());
  WireCursor c(bytes.data(), bytes.size());
  EXPECT_EQ(c.read_u32(), 0x43575452u);  // "CWTR"
  EXPECT_EQ(c.read_u32(), kTraceFormatV4);
  // The body-length word covers exactly the rest of the segment -- what
  // makes the read-side skim O(1) per segment.
  EXPECT_EQ(c.read_u64(), bytes.size() - 16);
}

TEST(TraceIo, V3EncodeDecodeRoundTrip) {
  const auto logs = sample_logs();
  const auto bytes = encode_trace(logs, kTraceFormatV3);

  LogDatabase db;
  EXPECT_EQ(decode_trace(bytes, db), 4u);
  ASSERT_EQ(db.size(), 4u);
  const auto& r = db.records()[2];
  EXPECT_EQ(r.seq, 3u);
  EXPECT_EQ(r.event, monitor::EventKind::kSkelEnd);
  EXPECT_EQ(r.outcome, monitor::CallOutcome::kAppError);
  EXPECT_EQ(r.process_name, "procB");
  EXPECT_EQ(r.value_end, 307);
}

TEST(TraceIo, SampleRateIndexRoundTripsBothFormats) {
  // The sampling weight rides the v3 mode byte (bits 2+) and the v4 flags2
  // byte (bits 3-7); both codecs must carry it losslessly, and index 0 must
  // keep the legacy encodings byte-identical.
  auto logs = sample_logs();
  logs.records[1].sample_rate_index = monitor::sample_rate_index_for(10);
  logs.records[2].sample_rate_index = monitor::sample_rate_index_for(65536);
  logs.records[3].sample_rate_index = 31;  // the top of the 5-bit field

  for (const std::uint32_t version : {kTraceFormatV3, kTraceFormatV4}) {
    LogDatabase db;
    ASSERT_EQ(decode_trace(encode_trace(logs, version), db), 4u)
        << "format v" << version;
    ASSERT_EQ(db.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(db.records()[i].sample_rate_index,
                logs.records[i].sample_rate_index)
          << "format v" << version << " record " << i;
      EXPECT_EQ(db.records()[i].sample_weight(),
                logs.records[i].sample_weight());
      EXPECT_EQ(db.records()[i].mode, logs.records[i].mode);
      EXPECT_EQ(db.records()[i].outcome, logs.records[i].outcome);
    }
  }

  // Index 0 (1:1 sampling) means weight 1 -- the neutral element the idle
  // control plane rests on.  (Its byte-identity with pre-sampling traces is
  // pinned by GoldenV4ReencodesByteIdentically and the tool_compat ctests.)
  EXPECT_EQ(monitor::TraceRecord{}.sample_rate_index, 0);
  EXPECT_EQ(monitor::TraceRecord{}.sample_weight(), 1u);
  EXPECT_EQ(monitor::sample_rate(0), 1u);
}

TEST(TraceIo, V3AndV4RenderIdentically) {
  // The format version must be invisible downstream: the same stream
  // encoded both ways synthesizes databases that render byte-identical
  // characterization reports.
  workload::LogSynthConfig config;
  config.total_calls = 2'000;
  LogDatabase source;
  workload::synthesize_logs(config, source);
  monitor::CollectedLogs logs;
  logs.records = source.records();

  LogDatabase db3, db4;
  EXPECT_EQ(decode_trace(encode_trace(logs, kTraceFormatV3), db3),
            source.size());
  EXPECT_EQ(decode_trace(encode_trace(logs, kTraceFormatV4), db4),
            source.size());
  auto dscg3 = Dscg::build(db3);
  auto dscg4 = Dscg::build(db4);
  EXPECT_EQ(characterization_report(dscg3, db3),
            characterization_report(dscg4, db4));
}

TEST(TraceIo, V4IsSubstantiallySmallerThanV3) {
  workload::LogSynthConfig config;
  config.total_calls = 5'000;
  LogDatabase source;
  workload::synthesize_logs(config, source);
  monitor::CollectedLogs logs;
  logs.records = source.records();

  const auto v3 = encode_trace(logs, kTraceFormatV3);
  const auto v4 = encode_trace(logs, kTraceFormatV4);
  // The acceptance bar is >= 35% smaller; leave headroom in the unit test.
  EXPECT_LT(v4.size(), v3.size() * 0.70)
      << "v3=" << v3.size() << " v4=" << v4.size();
}

TEST(TraceIo, MixedVersionSegmentsDecode) {
  auto first = sample_logs();
  first.epoch = 1;
  auto second = sample_logs();
  second.epoch = 2;
  auto bytes = encode_trace(first, kTraceFormatV3);
  const auto more = encode_trace(second, kTraceFormatV4);
  bytes.insert(bytes.end(), more.begin(), more.end());

  LogDatabase db;
  EXPECT_EQ(decode_trace(bytes, db), 8u);
  EXPECT_EQ(db.generation(), 2u);
  EXPECT_EQ(db.last_epoch(), 2u);
}

TEST(TraceIo, UnwritableVersionThrows) {
  const auto logs = sample_logs();
  EXPECT_THROW(encode_trace(logs, 2), TraceIoError);
  EXPECT_THROW(encode_trace(logs, 6), TraceIoError);
  const auto path = std::filesystem::temp_directory_path() / "causeway_v.cwt";
  EXPECT_THROW(TraceWriter(path.string(), 7), TraceIoError);
  std::filesystem::remove(path);
}

TEST(TraceIo, DecodeTraceSegmentsStagesPerSegment) {
  auto first = sample_logs();
  first.epoch = 1;
  auto second = sample_logs();
  second.epoch = 2;
  auto bytes = encode_trace(first);
  const auto more = encode_trace(second);
  bytes.insert(bytes.end(), more.begin(), more.end());

  const auto staged = decode_trace_segments(bytes);
  ASSERT_EQ(staged.size(), 2u);
  EXPECT_EQ(staged[0].epoch, 1u);
  EXPECT_EQ(staged[1].epoch, 2u);
  EXPECT_EQ(staged[0].records.size(), 4u);
  EXPECT_EQ(staged[1].records.size(), 4u);
  EXPECT_EQ(staged[1].records[2].process_name, "procB");
}

// --- corrupt-segment matrix: every malformation throws TraceIoError and
// --- never reads out of bounds (the suite runs under ASan in CI).

TEST(TraceIo, UnsupportedSegmentVersionThrows) {
  WireBuffer seg;
  seg.write_u32(0x43575452);
  seg.write_u32(9);  // from the future
  seg.write_u64(0);
  LogDatabase db;
  EXPECT_THROW(decode_trace(seg.bytes(), db), TraceIoError);
}

TEST(TraceIo, TruncatedVarintColumnThrows) {
  auto bytes = encode_trace(sample_logs(), kTraceFormatV4);
  // The final body byte ends the last value_end svarint; setting its
  // continuation bit makes the varint run off the end of the segment.
  bytes.back() |= 0x80;
  LogDatabase db;
  EXPECT_THROW(decode_trace(bytes, db), TraceIoError);
}

TEST(TraceIo, StringIdOutOfRangeThrows) {
  // Hand-built minimal v4 segment: one record whose interface-name column
  // references string id 9 in a one-entry table.
  WireBuffer seg;
  seg.write_u32(0x43575452);
  seg.write_u32(4);
  const std::size_t length_at = seg.size();
  seg.write_u64(0);
  const std::size_t body = seg.size();
  seg.write_u64(1);     // epoch
  seg.write_u64(0);     // dropped
  seg.write_varint(0);  // no domains
  seg.write_varint(1);  // one string: "a"
  seg.write_varint(1);
  seg.write_u8('a');
  seg.write_varint(1);  // one record
  seg.write_varint(1);  // one run
  seg.write_u64(1);     // chain hi/lo
  seg.write_u64(2);
  seg.write_varint(1);   // run length
  seg.write_svarint(1);  // seq delta
  seg.write_u8(1);       // flags1: stub-start
  seg.write_u8(0);       // flags2: causality-only, no spawn
  seg.write_varint(9);   // interface id -- out of range
  seg.write_varint(0);   // function id
  seg.write_varint(0);   // object key
  seg.write_varint(0);   // process id
  seg.write_varint(0);   // node id
  seg.write_varint(0);   // type id
  seg.write_varint(0);   // thread ordinal
  seg.write_svarint(0);  // value_start
  seg.write_svarint(0);  // value_end
  seg.overwrite_u64(length_at, seg.size() - body);

  LogDatabase db;
  EXPECT_THROW(decode_trace(seg.bytes(), db), TraceIoError);
}

TEST(TraceIo, ChainRunsNotCoveringRecordsThrow) {
  auto bytes = encode_trace(sample_logs(), kTraceFormatV4);
  LogDatabase ok;
  ASSERT_EQ(decode_trace(bytes, ok), 4u);
  // Locate the run-count varint?  Simpler: rebuild the sample with a lying
  // run length via the documented layout -- a run claiming more records
  // than the segment holds.
  WireBuffer seg;
  seg.write_u32(0x43575452);
  seg.write_u32(4);
  const std::size_t length_at = seg.size();
  seg.write_u64(0);
  const std::size_t body = seg.size();
  seg.write_u64(1);
  seg.write_u64(0);
  seg.write_varint(0);
  seg.write_varint(0);  // no strings
  seg.write_varint(1);  // one record ...
  seg.write_varint(1);  // ... one run ...
  seg.write_u64(1);
  seg.write_u64(2);
  seg.write_varint(1000);  // ... claiming a thousand
  seg.overwrite_u64(length_at, seg.size() - body);
  LogDatabase db;
  EXPECT_THROW(decode_trace(seg.bytes(), db), TraceIoError);
}

TEST(TraceIo, DirectoryTrailerRoundTripAndFallback) {
  const auto path = std::filesystem::temp_directory_path() / "causeway_d.cwt";
  {
    TraceWriter writer(path.string());
    auto epoch1 = sample_logs();
    epoch1.epoch = 1;
    writer.append(epoch1);
    auto epoch2 = sample_logs();
    epoch2.epoch = 2;
    writer.append(epoch2);
    writer.close();
  }
  std::ifstream in(path, std::ios::binary);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  ASSERT_GE(bytes.size(), 12u);

  // The file ends with [u64 trailer length]["CWTE"].
  WireCursor footer(bytes.data() + bytes.size() - 12, 12);
  const std::uint64_t trailer = footer.read_u64();
  EXPECT_EQ(footer.read_u32(), 0x43575445u);  // "CWTE"
  ASSERT_LT(trailer, bytes.size());

  // Decode via the directory ...
  LogDatabase with_dir;
  EXPECT_EQ(decode_trace(bytes, with_dir), 8u);
  // ... and via the sequential-skim fallback with the trailer stripped
  // (what a crashed writer leaves behind).
  std::vector<std::uint8_t> stripped(
      bytes.begin(), bytes.end() - static_cast<long>(trailer));
  LogDatabase without_dir;
  EXPECT_EQ(decode_trace(stripped, without_dir), 8u);
  EXPECT_EQ(with_dir.generation(), without_dir.generation());
  std::filesystem::remove(path);
}

TEST(TraceIo, ConcatenatedClosedTracesDecode) {
  // `cat a.cwt b.cwt` is a supported flow: the surviving trailer only
  // describes the final file's segments, so the reader must skim the
  // prefix (treating a.cwt's interior trailer as metadata) and splice the
  // directory's extents in after it.
  const auto dir = std::filesystem::temp_directory_path();
  const auto path_a = dir / "causeway_cat_a.cwt";
  const auto path_b = dir / "causeway_cat_b.cwt";
  for (const auto& [path, version] :
       {std::pair{path_a, kTraceFormatV3}, std::pair{path_b, kTraceFormatV4}}) {
    TraceWriter writer(path.string(), version);
    auto logs = sample_logs();
    logs.epoch = 1;
    writer.append(logs);
    writer.close();
  }
  std::vector<std::uint8_t> bytes;
  for (const auto& path : {path_a, path_b}) {
    std::ifstream in(path, std::ios::binary);
    bytes.insert(bytes.end(), std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
    std::filesystem::remove(path);
  }
  LogDatabase db;
  EXPECT_EQ(decode_trace(bytes, db), 8u);
  EXPECT_EQ(db.generation(), 2u);
}

TEST(TraceIo, DirectoryOffsetPastEofThrows) {
  auto bytes = encode_trace(sample_logs());
  WireBuffer trailer;
  trailer.write_u32(0x43575444);  // "CWTD"
  trailer.write_u32(1);
  trailer.write_varint(1);
  trailer.write_varint(bytes.size() + 100);  // past the end of the file
  trailer.write_u64(trailer.size() + 12);
  trailer.write_u32(0x43575445);  // "CWTE"
  bytes.insert(bytes.end(), trailer.bytes().begin(), trailer.bytes().end());
  LogDatabase db;
  EXPECT_THROW(decode_trace(bytes, db), TraceIoError);
}

TEST(TraceIo, CorruptDirectoryTotalThrows) {
  auto bytes = encode_trace(sample_logs());
  WireBuffer footer;
  footer.write_u64(1u << 20);  // trailer claims to be bigger than the file
  footer.write_u32(0x43575445);
  bytes.insert(bytes.end(), footer.bytes().begin(), footer.bytes().end());
  LogDatabase db;
  EXPECT_THROW(decode_trace(bytes, db), TraceIoError);
}

TEST(TraceIo, V4CorruptTruncationsThrow) {
  const auto bytes = encode_trace(sample_logs(), kTraceFormatV4);
  for (std::size_t cut = 1; cut < bytes.size(); cut += 7) {
    std::vector<std::uint8_t> shorter(bytes.begin(),
                                      bytes.end() - static_cast<long>(cut));
    LogDatabase db;
    EXPECT_THROW(decode_trace(shorter, db), TraceIoError);
  }
}

TEST(TraceIo, MultiSegmentDecode) {
  // Two concatenated segments (what a streaming run writes) ingest as two
  // generations of one database.
  auto first = sample_logs();
  first.epoch = 1;
  auto second = sample_logs();
  second.epoch = 2;
  second.dropped = 3;

  auto bytes = encode_trace(first);
  const auto more = encode_trace(second);
  bytes.insert(bytes.end(), more.begin(), more.end());

  LogDatabase db;
  EXPECT_EQ(decode_trace(bytes, db), 8u);
  EXPECT_EQ(db.size(), 8u);
  EXPECT_EQ(db.generation(), 2u);
  EXPECT_EQ(db.last_epoch(), 2u);
  EXPECT_EQ(db.overflow_dropped(), 3u);
  // Identical domain identities merge rather than duplicate.
  ASSERT_EQ(db.domains().size(), 2u);
  EXPECT_EQ(db.domains()[0].record_count, 4u);
}

TEST(TraceIo, TraceWriterStreamsSegmentsToOneFile) {
  const auto path = std::filesystem::temp_directory_path() / "causeway_s.cwt";
  {
    TraceWriter writer(path.string());
    auto epoch1 = sample_logs();
    epoch1.epoch = 1;
    writer.append(epoch1);
    auto epoch2 = sample_logs();
    epoch2.epoch = 2;
    writer.append(epoch2);
    // An empty final segment is legal: it carries the domain inventory.
    monitor::CollectedLogs last;
    last.epoch = 3;
    last.domains = epoch1.domains;
    for (auto& d : last.domains) d.record_count = 0;
    writer.append(last);
    EXPECT_EQ(writer.segments(), 3u);
    EXPECT_EQ(writer.records_written(), 8u);
  }
  LogDatabase db;
  EXPECT_EQ(read_trace_file(path.string(), db), 8u);
  EXPECT_EQ(db.size(), 8u);
  EXPECT_EQ(db.last_epoch(), 3u);
  ASSERT_EQ(db.domains().size(), 2u);
  std::filesystem::remove(path);
}

TEST(TraceIo, ProbeTraceBlockMeasuresSegmentsAndTrailer) {
  const auto path = std::filesystem::temp_directory_path() / "causeway_p.cwt";
  {
    TraceWriter writer(path.string());
    auto epoch1 = sample_logs();
    epoch1.epoch = 1;
    writer.append(epoch1);
    auto epoch2 = sample_logs();
    epoch2.epoch = 2;
    writer.append(epoch2);
    writer.close();
  }
  std::ifstream in(path, std::ios::binary);
  const std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::filesystem::remove(path);

  // Walk the stream block by block: segment, segment, trailer -- and the
  // lengths must tile the file exactly.
  std::size_t offset = 0;
  std::vector<bool> kinds;
  while (offset < bytes.size()) {
    std::size_t length = 0;
    bool is_segment = false;
    ASSERT_TRUE(probe_trace_block(
        std::span(bytes.data() + offset, bytes.size() - offset), length,
        is_segment));
    ASSERT_GT(length, 0u);
    kinds.push_back(is_segment);
    offset += length;
  }
  EXPECT_EQ(offset, bytes.size());
  ASSERT_EQ(kinds.size(), 3u);
  EXPECT_TRUE(kinds[0]);
  EXPECT_TRUE(kinds[1]);
  EXPECT_FALSE(kinds[2]);

  // Every strict prefix of the first segment is "incomplete", not an error
  // -- the socket-buffer/TraceTail retry contract.
  std::size_t first_len = 0;
  bool first_is_segment = false;
  ASSERT_TRUE(probe_trace_block(bytes, first_len, first_is_segment));
  for (std::size_t n = 0; n < first_len; n += 5) {
    std::size_t length = 0;
    bool is_segment = false;
    EXPECT_FALSE(
        probe_trace_block(std::span(bytes.data(), n), length, is_segment))
        << "prefix " << n;
  }
  // Corruption is an error, never a retry.
  std::vector<std::uint8_t> bad(bytes.begin(), bytes.end());
  bad[0] ^= 0xff;
  std::size_t length = 0;
  bool is_segment = false;
  EXPECT_THROW(probe_trace_block(bad, length, is_segment), TraceIoError);
}

TEST(TraceIo, DecodeTraceSegmentRequiresExactFraming) {
  auto logs = sample_logs();
  logs.epoch = 9;
  logs.dropped = 2;
  const auto bytes = encode_trace(logs);

  const monitor::CollectedLogs decoded = decode_trace_segment(bytes);
  EXPECT_EQ(decoded.epoch, 9u);
  EXPECT_EQ(decoded.dropped, 2u);
  ASSERT_EQ(decoded.records.size(), 4u);
  EXPECT_EQ(decoded.records[2].process_name, "procB");

  // Exactly one segment: trailing bytes and truncations both throw.
  auto padded = bytes;
  padded.push_back(0);
  EXPECT_THROW(decode_trace_segment(padded), TraceIoError);
  EXPECT_THROW(
      decode_trace_segment(std::span(bytes.data(), bytes.size() - 1)),
      TraceIoError);
}

TEST(TraceIo, AppendEncodedMatchesAppendByteForByte) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto direct = dir / "causeway_ae_direct.cwt";
  const auto relayed = dir / "causeway_ae_relay.cwt";
  auto epoch1 = sample_logs();
  epoch1.epoch = 1;
  auto epoch2 = sample_logs();
  epoch2.epoch = 2;
  {
    TraceWriter writer(direct.string());
    writer.append(epoch1);
    writer.append(epoch2);
    writer.close();
  }
  {
    // The relay path (the collector daemon): pre-encoded segments pass
    // through verbatim, so the resulting file is byte-identical.
    TraceWriter writer(relayed.string());
    writer.append_encoded(encode_trace(epoch1));
    writer.append_encoded(encode_trace(epoch2));
    EXPECT_EQ(writer.segments(), 2u);
    writer.close();
  }
  const auto slurp = [](const std::filesystem::path& p) {
    std::ifstream in(p, std::ios::binary);
    return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                     std::istreambuf_iterator<char>());
  };
  EXPECT_EQ(slurp(direct), slurp(relayed));
  std::filesystem::remove(direct);
  std::filesystem::remove(relayed);

  // Not-exactly-one-segment inputs are rejected before touching the file.
  TraceWriter writer(relayed.string());
  auto bytes = encode_trace(epoch1);
  bytes.push_back(0x42);
  EXPECT_THROW(writer.append_encoded(bytes), TraceIoError);
  EXPECT_THROW(
      writer.append_encoded(std::span(bytes.data(), bytes.size() / 2)),
      TraceIoError);
  writer.close();
  std::filesystem::remove(relayed);
}

TEST(TraceIo, ReindexIsNoopOnClosedFile) {
  const auto path = std::filesystem::temp_directory_path() / "causeway_r0.cwt";
  {
    TraceWriter writer(path.string());
    auto logs = sample_logs();
    logs.epoch = 1;
    writer.append(logs);
    writer.close();
  }
  const auto before_size = std::filesystem::file_size(path);
  const ReindexResult result = reindex_trace_file(path.string());
  EXPECT_FALSE(result.rewritten);
  EXPECT_EQ(result.segments, 1u);
  EXPECT_EQ(result.truncated_bytes, 0u);
  EXPECT_EQ(std::filesystem::file_size(path), before_size);
  std::filesystem::remove(path);
}

TEST(TraceIo, ReindexRepairsCrashedWriterFile) {
  const auto path = std::filesystem::temp_directory_path() / "causeway_r1.cwt";
  std::vector<std::uint8_t> two_segments;
  {
    auto epoch1 = sample_logs();
    epoch1.epoch = 1;
    auto epoch2 = sample_logs();
    epoch2.epoch = 2;
    two_segments = encode_trace(epoch1);
    const auto more = encode_trace(epoch2);
    two_segments.insert(two_segments.end(), more.begin(), more.end());
  }
  // Crash artifact: no trailer, and the third segment's write was cut off
  // halfway.
  {
    auto torn = encode_trace(sample_logs());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(two_segments.data()),
              static_cast<std::streamsize>(two_segments.size()));
    out.write(reinterpret_cast<const char*>(torn.data()),
              static_cast<std::streamsize>(torn.size() / 2));
  }

  const ReindexResult result = reindex_trace_file(path.string());
  EXPECT_TRUE(result.rewritten);
  EXPECT_EQ(result.segments, 2u);
  EXPECT_GT(result.truncated_bytes, 0u);

  // The repaired file reads the clean prefix through the directory path,
  // and a second reindex is a no-op.
  LogDatabase db;
  EXPECT_EQ(read_trace_file(path.string(), db), 8u);
  EXPECT_EQ(db.last_epoch(), 2u);
  const ReindexResult again = reindex_trace_file(path.string());
  EXPECT_FALSE(again.rewritten);
  EXPECT_EQ(again.segments, 2u);
  std::filesystem::remove(path);
}

TEST(TraceIo, ReindexTrailerlessCompleteFileAppendsTrailerOnly) {
  const auto path = std::filesystem::temp_directory_path() / "causeway_r2.cwt";
  const auto bytes = encode_trace(sample_logs());
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  const ReindexResult result = reindex_trace_file(path.string());
  EXPECT_TRUE(result.rewritten);
  EXPECT_EQ(result.segments, 1u);
  EXPECT_EQ(result.truncated_bytes, 0u);
  EXPECT_GT(std::filesystem::file_size(path), bytes.size());
  LogDatabase db;
  EXPECT_EQ(read_trace_file(path.string(), db), 4u);
  std::filesystem::remove(path);
}

#if defined(CAUSEWAY_TEST_DATA_DIR)
TEST(TraceIo, GoldenV4ReencodesByteIdentically) {
  // The committed v4 fixture pins the columnar encoding byte-for-byte:
  // decoding its segments and re-encoding them through today's writer must
  // reproduce the exact file.  Any codec change that alters the bytes --
  // even one that still round-trips -- fails here and forces a version
  // bump instead of a silent format fork.
  const std::string golden =
      std::string(CAUSEWAY_TEST_DATA_DIR) + "/golden_v4.cwt";
  std::ifstream in(golden, std::ios::binary);
  ASSERT_TRUE(in) << golden;
  const std::vector<std::uint8_t> original(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  ASSERT_FALSE(original.empty());

  const std::vector<monitor::CollectedLogs> bundles =
      decode_trace_segments(original);
  ASSERT_FALSE(bundles.empty());

  const auto path =
      std::filesystem::temp_directory_path() / "causeway_golden_v4.cwt";
  {
    TraceWriter writer(path.string(), kTraceFormatV4);
    for (const monitor::CollectedLogs& bundle : bundles) {
      writer.append(bundle);
    }
    writer.close();
  }
  std::ifstream re(path, std::ios::binary);
  const std::vector<std::uint8_t> reencoded(
      (std::istreambuf_iterator<char>(re)), std::istreambuf_iterator<char>());
  std::filesystem::remove(path);
  EXPECT_EQ(reencoded, original) << "v4 encoder no longer byte-stable";
}

TEST(TraceIo, GoldenV4DecodesIdenticallyAcrossAllKernels) {
  // Cross-kernel pin on the committed fixture: every available varint
  // kernel (scalar reference, SWAR, and whatever SIMD the build machine
  // has) must decode the golden trace to the same records and render the
  // same characterization report.
  const std::string golden =
      std::string(CAUSEWAY_TEST_DATA_DIR) + "/golden_v4.cwt";
  std::ifstream in(golden, std::ios::binary);
  ASSERT_TRUE(in) << golden;
  const std::vector<std::uint8_t> original(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  ASSERT_FALSE(original.empty());

  const VarintKernel previous = active_varint_kernel();
  std::string reference;
  for (VarintKernel kernel :
       {VarintKernel::kScalar, VarintKernel::kSwar, VarintKernel::kSse,
        VarintKernel::kAvx2, VarintKernel::kNeon}) {
    if (!varint_kernel_available(kernel)) continue;
    force_varint_kernel(kernel);
    LogDatabase db;
    for (const ColumnBundle& cols : decode_trace_columns(original)) {
      db.ingest(cols);
    }
    auto dscg = Dscg::build(db);
    std::string report = characterization_report(dscg, db);
    if (reference.empty()) {
      reference = std::move(report);
    } else {
      EXPECT_EQ(report, reference)
          << "kernel " << std::string(to_string(kernel));
    }
  }
  force_varint_kernel(previous);
  EXPECT_FALSE(reference.empty());
}

TEST(TraceIo, GoldenV4ColumnReencodeByteIdenticalAcrossKernels) {
  // The write-side cross-kernel pin: decode the committed fixture to
  // column bundles, re-encode them through encode_trace_columns under
  // every available kernel, and require the exact original file back.
  const std::string golden =
      std::string(CAUSEWAY_TEST_DATA_DIR) + "/golden_v4.cwt";
  std::ifstream in(golden, std::ios::binary);
  ASSERT_TRUE(in) << golden;
  const std::vector<std::uint8_t> original(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  ASSERT_FALSE(original.empty());

  const std::vector<ColumnBundle> bundles = decode_trace_columns(original);
  ASSERT_FALSE(bundles.empty());

  const VarintKernel previous = active_varint_kernel();
  for (VarintKernel kernel :
       {VarintKernel::kScalar, VarintKernel::kSwar, VarintKernel::kSse,
        VarintKernel::kAvx2, VarintKernel::kNeon}) {
    if (!varint_kernel_available(kernel)) continue;
    force_varint_kernel(kernel);
    const auto path = std::filesystem::temp_directory_path() /
                      "causeway_golden_v4_col.cwt";
    {
      TraceWriter writer(path.string(), kTraceFormatV4);
      for (const ColumnBundle& cols : bundles) writer.append(cols);
      writer.close();
    }
    std::ifstream re(path, std::ios::binary);
    const std::vector<std::uint8_t> reencoded(
        (std::istreambuf_iterator<char>(re)),
        std::istreambuf_iterator<char>());
    std::filesystem::remove(path);
    EXPECT_EQ(reencoded, original)
        << "column re-encode not byte-stable under kernel "
        << std::string(to_string(kernel));
  }
  force_varint_kernel(previous);
}

TEST(TraceIo, GoldenV5DecodesToSameReportAsGoldenV4) {
  // The committed v5 fixture is the same workload as the v4 one
  // (synthetic causality, --transactions=6 --seed=99) re-encoded with
  // per-column blocks; both must analyze to the identical report, under
  // every available kernel.
  const std::string golden4 =
      std::string(CAUSEWAY_TEST_DATA_DIR) + "/golden_v4.cwt";
  const std::string golden5 =
      std::string(CAUSEWAY_TEST_DATA_DIR) + "/golden_v5.cwt";
  std::ifstream in4(golden4, std::ios::binary);
  std::ifstream in5(golden5, std::ios::binary);
  ASSERT_TRUE(in4) << golden4;
  ASSERT_TRUE(in5) << golden5;
  const std::vector<std::uint8_t> v4(
      (std::istreambuf_iterator<char>(in4)), std::istreambuf_iterator<char>());
  const std::vector<std::uint8_t> v5(
      (std::istreambuf_iterator<char>(in5)), std::istreambuf_iterator<char>());
  if (!compression_available()) {
    GTEST_SKIP() << "no zlib: committed v5 fixture has deflated columns";
  }

  auto report_of = [](const std::vector<std::uint8_t>& bytes) {
    LogDatabase db;
    for (const ColumnBundle& cols : decode_trace_columns(bytes)) {
      db.ingest(cols);
    }
    auto dscg = Dscg::build(db);
    return characterization_report(dscg, db);
  };
  const std::string reference = report_of(v4);

  const VarintKernel previous = active_varint_kernel();
  for (VarintKernel kernel :
       {VarintKernel::kScalar, VarintKernel::kSwar, VarintKernel::kSse,
        VarintKernel::kAvx2, VarintKernel::kNeon}) {
    if (!varint_kernel_available(kernel)) continue;
    force_varint_kernel(kernel);
    EXPECT_EQ(report_of(v5), reference)
        << "kernel " << std::string(to_string(kernel));
  }
  force_varint_kernel(previous);
}

TEST(TraceIo, GoldenV5ReencodesByteIdenticallyAcrossKernels) {
  // Byte-stability pin for the v5 encoder: decode the committed fixture
  // to column bundles and re-encode them at v5 under every kernel -- the
  // exact file must come back.  (The column payloads are the v4 kernel
  // bytes; the deflate layer on top is deterministic for a fixed zlib.)
  const std::string golden =
      std::string(CAUSEWAY_TEST_DATA_DIR) + "/golden_v5.cwt";
  std::ifstream in(golden, std::ios::binary);
  ASSERT_TRUE(in) << golden;
  const std::vector<std::uint8_t> original(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  ASSERT_FALSE(original.empty());
  if (!compression_available()) {
    GTEST_SKIP() << "no zlib: cannot reproduce deflated column blocks";
  }

  const std::vector<ColumnBundle> bundles = decode_trace_columns(original);
  ASSERT_FALSE(bundles.empty());

  const VarintKernel previous = active_varint_kernel();
  for (VarintKernel kernel :
       {VarintKernel::kScalar, VarintKernel::kSwar, VarintKernel::kSse,
        VarintKernel::kAvx2, VarintKernel::kNeon}) {
    if (!varint_kernel_available(kernel)) continue;
    force_varint_kernel(kernel);
    const auto path = std::filesystem::temp_directory_path() /
                      "causeway_golden_v5_re.cwt";
    {
      TraceWriter writer(path.string(), kTraceFormatV5);
      for (const ColumnBundle& cols : bundles) writer.append(cols);
      writer.close();
    }
    std::ifstream re(path, std::ios::binary);
    const std::vector<std::uint8_t> reencoded(
        (std::istreambuf_iterator<char>(re)),
        std::istreambuf_iterator<char>());
    std::filesystem::remove(path);
    EXPECT_EQ(reencoded, original)
        << "v5 re-encode not byte-stable under kernel "
        << std::string(to_string(kernel));
  }
  force_varint_kernel(previous);
}
#endif

TEST(TraceIo, V5RoundTripMatchesV4Decode) {
  // v5 is v4 with each dense column wrapped in a (possibly deflated)
  // column block: the decoded records must be indistinguishable from the
  // v4 decode of the same logs, whatever codec each block picked.
  workload::LogSynthConfig config;
  config.total_calls = 500;
  LogDatabase source;
  workload::synthesize_logs(config, source);
  monitor::CollectedLogs logs;
  logs.epoch = 3;
  logs.records = source.records();

  const auto v4 = encode_trace(logs, kTraceFormatV4);
  const auto v5 = encode_trace(logs, kTraceFormatV5);
  EXPECT_NE(v4, v5);

  LogDatabase db4, db5;
  const std::size_t n4 = decode_trace(v4, db4);
  const std::size_t n5 = decode_trace(v5, db5);
  EXPECT_EQ(n4, db4.size());
  EXPECT_EQ(n5, db5.size());
  ASSERT_EQ(db5.size(), db4.size());
  auto dscg4 = Dscg::build(db4);
  auto dscg5 = Dscg::build(db5);
  EXPECT_EQ(characterization_report(dscg5, db5),
            characterization_report(dscg4, db4));
}

TEST(TraceIo, V5EncodeIsByteStableAcrossKernels) {
  workload::LogSynthConfig config;
  config.total_calls = 800;
  LogDatabase source;
  workload::synthesize_logs(config, source);
  monitor::CollectedLogs logs;
  logs.epoch = 1;
  logs.records = source.records();

  const VarintKernel previous = active_varint_kernel();
  std::vector<std::uint8_t> reference;
  for (VarintKernel kernel :
       {VarintKernel::kScalar, VarintKernel::kSwar, VarintKernel::kSse,
        VarintKernel::kAvx2, VarintKernel::kNeon}) {
    if (!varint_kernel_available(kernel)) continue;
    force_varint_kernel(kernel);
    auto bytes = encode_trace(logs, kTraceFormatV5);
    if (reference.empty()) {
      reference = std::move(bytes);
    } else {
      EXPECT_EQ(bytes, reference)
          << "kernel " << std::string(to_string(kernel));
    }
  }
  force_varint_kernel(previous);
  EXPECT_FALSE(reference.empty());
}

TEST(TraceIo, ColumnBlockRoundTripsRawAndDeflated) {
  // Small payloads stay raw (deflate framing can't win); large repetitive
  // ones deflate when zlib is in the build.  Both read back exactly.
  const std::vector<std::uint8_t> small{1, 2, 3, 4};
  std::vector<std::uint8_t> big(4096, 0x5a);

  for (const std::vector<std::uint8_t>* payload :
       std::initializer_list<const std::vector<std::uint8_t>*>{&small,
                                                               &big}) {
    WireBuffer out;
    write_column_block(out, *payload, deflate_column(*payload));
    WireCursor in(out.bytes());
    std::vector<std::uint8_t> scratch;
    const auto got = read_column_block(in, payload->size(), scratch);
    EXPECT_EQ(std::vector<std::uint8_t>(got.begin(), got.end()), *payload);
    EXPECT_EQ(in.remaining(), 0u);
  }
  if (compression_available()) {
    WireBuffer out;
    write_column_block(out, big, deflate_column(big));
    EXPECT_LT(out.size(), big.size());  // repetitive payload must deflate
  }
}

TEST(TraceIo, ColumnBlockRejectsOversizedAdvertisedLength) {
  // A block advertising a decoded size above the caller's structural
  // bound is rejected before any allocation -- for both codecs.
  {
    WireBuffer out;
    out.write_u8(0);  // raw
    out.write_varint(1 << 20);
    WireCursor in(out.bytes());
    std::vector<std::uint8_t> scratch;
    EXPECT_THROW(read_column_block(in, 64, scratch), WireError);
  }
  {
    WireBuffer out;
    out.write_u8(1);  // deflate
    out.write_varint(std::uint64_t{1} << 40);  // hostile raw_len
    out.write_varint(4);
    out.write_u32(0);
    WireCursor in(out.bytes());
    std::vector<std::uint8_t> scratch;
    EXPECT_THROW(read_column_block(in, 64, scratch), WireError);
  }
}

TEST(TraceIo, CorruptDeflatedColumnThrowsCleanly) {
  if (!compression_available()) {
    GTEST_SKIP() << "no zlib in this build";
  }
  // A deflated block whose stream bytes were damaged must surface as a
  // clean decode error (WireError wrapping the codec failure), and a v5
  // segment containing such a block must raise TraceIoError -- never a
  // crash or a short read.
  std::vector<std::uint8_t> payload(2048);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i % 7);
  }
  WireBuffer out;
  write_column_block(out, payload, deflate_column(payload));
  auto bytes = out.bytes();
  ASSERT_EQ(bytes[0], 1) << "expected a deflated block";
  {
    auto corrupt = std::vector<std::uint8_t>(bytes.begin(), bytes.end());
    corrupt[corrupt.size() / 2] ^= 0xff;
    corrupt[corrupt.size() / 2 + 1] ^= 0xff;
    WireCursor in(corrupt);
    std::vector<std::uint8_t> scratch;
    EXPECT_THROW(read_column_block(in, payload.size(), scratch), WireError);
  }

  // End to end: flip bytes inside a deflated column of a real v5 segment.
  workload::LogSynthConfig config;
  config.total_calls = 400;
  LogDatabase source;
  workload::synthesize_logs(config, source);
  monitor::CollectedLogs logs;
  logs.epoch = 1;
  logs.records = source.records();
  auto seg = encode_trace(logs, kTraceFormatV5);
  for (std::size_t i = seg.size() / 2; i < seg.size() / 2 + 32; ++i) {
    seg[i] ^= 0xa5;
  }
  LogDatabase db;
  EXPECT_THROW(decode_trace(seg, db), TraceIoError);
}

TEST(TraceIo, CheckpointedWriterRepairsFromLastCheckpoint) {
  // A writer with checkpoint_every=2 leaves directory blocks after
  // segments 2 and 4.  Tear the file mid-segment-5 (a crash artifact) and
  // --reindex must resume from the second checkpoint: the four
  // checkpointed segments are vouched for by the block chain, only the
  // tail past the last checkpoint is re-skimmed, and the torn bytes are
  // truncated away.
  const auto path = std::filesystem::temp_directory_path() / "causeway_cp.cwt";
  std::uint64_t after_four = 0;
  {
    TraceWriter writer(path.string(), kTraceFormatV4, /*checkpoint_every=*/2);
    for (std::uint64_t e = 1; e <= 4; ++e) {
      auto logs = sample_logs();
      logs.epoch = e;
      writer.append(logs);
    }
    after_four = writer.bytes_written();
    auto logs = sample_logs();
    logs.epoch = 5;
    writer.append(logs);
    const std::uint64_t after_five = writer.bytes_written();
    writer.close();
    std::filesystem::resize_file(
        path, after_four + (after_five - after_four) / 2);
  }

  const ReindexResult result = reindex_trace_file(path.string());
  EXPECT_TRUE(result.rewritten);
  EXPECT_TRUE(result.used_checkpoint);
  EXPECT_EQ(result.checkpoint_segments, 4u);
  // The torn tail held no complete segment, so the appended trailer
  // indexes an empty final run -- the four checkpointed segments are
  // reached through the block chain, not the trailer.
  EXPECT_EQ(result.segments, 0u);
  EXPECT_GT(result.truncated_bytes, 0u);

  LogDatabase db;
  EXPECT_EQ(read_trace_file(path.string(), db), 16u);
  EXPECT_EQ(db.last_epoch(), 4u);

  // The repaired file is closed: a second pass is a no-op.
  const ReindexResult again = reindex_trace_file(path.string());
  EXPECT_FALSE(again.rewritten);
  std::filesystem::remove(path);
}

TEST(TraceIo, CheckpointedCloseReadsLikeUncheckpointed) {
  // Interior checkpoints are invisible to readers: the same segments
  // written with and without checkpointing decode to the same records.
  const auto plain = std::filesystem::temp_directory_path() / "causeway_p.cwt";
  const auto ckpt = std::filesystem::temp_directory_path() / "causeway_c.cwt";
  for (const auto& [file, every] :
       {std::pair{plain, std::size_t{0}}, std::pair{ckpt, std::size_t{1}}}) {
    TraceWriter writer(file.string(), kTraceFormatV4, every);
    for (std::uint64_t e = 1; e <= 3; ++e) {
      auto logs = sample_logs();
      logs.epoch = e;
      writer.append(logs);
    }
    writer.close();
  }
  LogDatabase db_plain, db_ckpt;
  EXPECT_EQ(read_trace_file(plain.string(), db_plain), 12u);
  EXPECT_EQ(read_trace_file(ckpt.string(), db_ckpt), 12u);
  EXPECT_EQ(db_ckpt.last_epoch(), db_plain.last_epoch());
  EXPECT_GT(std::filesystem::file_size(ckpt),
            std::filesystem::file_size(plain));
  std::filesystem::remove(plain);
  std::filesystem::remove(ckpt);
}

TEST(TraceIo, ColumnarEncodeMatchesRecmajorReference) {
  // The tentpole byte-identity contract: the columnar v4 writer must
  // reproduce the frozen record-major writer's bytes exactly, under every
  // available kernel, on a workload big enough to exercise every vector
  // block width and the mixed-magnitude fallbacks.
  workload::LogSynthConfig config;
  config.total_calls = 3'000;
  LogDatabase source;
  workload::synthesize_logs(config, source);
  monitor::CollectedLogs logs;
  logs.records = source.records();
  logs.epoch = 12;
  logs.dropped = 3;

  const auto reference = encode_trace_recmajor(logs, kTraceFormatV4);
  const VarintKernel previous = active_varint_kernel();
  for (VarintKernel kernel :
       {VarintKernel::kScalar, VarintKernel::kSwar, VarintKernel::kSse,
        VarintKernel::kAvx2, VarintKernel::kNeon}) {
    if (!varint_kernel_available(kernel)) continue;
    force_varint_kernel(kernel);
    EXPECT_EQ(encode_trace(logs, kTraceFormatV4), reference)
        << "kernel " << std::string(to_string(kernel));
  }
  force_varint_kernel(previous);

  // v3 is untouched by the columnar writer: both entry points emit the
  // same record-major bytes.
  EXPECT_EQ(encode_trace(logs, kTraceFormatV3),
            encode_trace_recmajor(logs, kTraceFormatV3));
}

TEST(TraceIo, EncodeTraceColumnsRoundTripsThroughDecode) {
  // encode -> column decode -> column encode reproduces the segment.
  const auto logs = sample_logs();
  const auto bytes = encode_trace(logs, kTraceFormatV4);
  const std::vector<ColumnBundle> bundles = decode_trace_columns(bytes);
  ASSERT_EQ(bundles.size(), 1u);
  EXPECT_EQ(encode_trace_columns(bundles[0]), bytes);
}

TEST(TraceIo, ColumnsFromLogsRoundTripsThroughV4) {
  // columns_from_logs is the inverse of record assembly: encoding its
  // bundle and decoding the segment gives back every record field for
  // field -- spawned chains and sample-rate indexes included -- and the
  // bundle encodes to the very bytes the records do.
  workload::LogSynthConfig config;
  config.total_calls = 2'000;
  LogDatabase source;
  workload::synthesize_logs(config, source);
  monitor::CollectedLogs logs = sample_logs();
  logs.records = source.records();
  logs.epoch = 7;
  logs.dropped = 2;
  std::size_t spawned = 0;
  for (std::size_t i = 0; i < logs.records.size(); ++i) {
    logs.records[i].sample_rate_index = static_cast<std::uint8_t>(i % 32);
    if (!logs.records[i].spawned_chain.is_nil()) ++spawned;
  }
  ASSERT_GT(spawned, 0u);

  const ColumnBundle cols = columns_from_logs(logs);
  EXPECT_EQ(cols.count, logs.records.size());
  EXPECT_EQ(cols.spawned.size(), spawned);
  const auto bytes = encode_trace_columns(cols, kTraceFormatV4);
  EXPECT_EQ(bytes, encode_trace(logs, kTraceFormatV4));

  const monitor::CollectedLogs back = decode_trace_segment(bytes);
  EXPECT_EQ(back.epoch, logs.epoch);
  EXPECT_EQ(back.dropped, logs.dropped);
  ASSERT_EQ(back.domains.size(), logs.domains.size());
  for (std::size_t i = 0; i < logs.domains.size(); ++i) {
    EXPECT_EQ(back.domains[i].identity.process_name,
              logs.domains[i].identity.process_name);
    EXPECT_EQ(back.domains[i].identity.node_name,
              logs.domains[i].identity.node_name);
    EXPECT_EQ(back.domains[i].identity.processor_type,
              logs.domains[i].identity.processor_type);
    EXPECT_EQ(back.domains[i].mode, logs.domains[i].mode);
    EXPECT_EQ(back.domains[i].record_count, logs.domains[i].record_count);
  }
  ASSERT_EQ(back.records.size(), logs.records.size());
  for (std::size_t i = 0; i < logs.records.size(); ++i) {
    const monitor::TraceRecord& a = logs.records[i];
    const monitor::TraceRecord& b = back.records[i];
    EXPECT_EQ(b.chain, a.chain) << i;
    EXPECT_EQ(b.seq, a.seq) << i;
    EXPECT_EQ(b.event, a.event) << i;
    EXPECT_EQ(b.kind, a.kind) << i;
    EXPECT_EQ(b.outcome, a.outcome) << i;
    EXPECT_EQ(b.spawned_chain, a.spawned_chain) << i;
    EXPECT_EQ(b.interface_name, a.interface_name) << i;
    EXPECT_EQ(b.function_name, a.function_name) << i;
    EXPECT_EQ(b.object_key, a.object_key) << i;
    EXPECT_EQ(b.process_name, a.process_name) << i;
    EXPECT_EQ(b.node_name, a.node_name) << i;
    EXPECT_EQ(b.processor_type, a.processor_type) << i;
    EXPECT_EQ(b.thread_ordinal, a.thread_ordinal) << i;
    EXPECT_EQ(b.mode, a.mode) << i;
    EXPECT_EQ(b.sample_rate_index, a.sample_rate_index) << i;
    EXPECT_EQ(b.value_start, a.value_start) << i;
    EXPECT_EQ(b.value_end, a.value_end) << i;
  }
}

TEST(TraceIo, ColumnsFromLogsRejectsUnpackableFlags) {
  // A corrupt v2/v3 record can carry a whole byte where the column form
  // has two or three bits; converting it must throw, not alias.
  auto logs = sample_logs();
  logs.records[2].kind = static_cast<monitor::CallKind>(9);
  EXPECT_THROW(columns_from_logs(logs), TraceIoError);
}

TEST(TraceIo, V3RecordWithUnpackableFlagsIsRefusedWhole) {
  // A v2/v3 record stores its flags as whole bytes.  One that does not fit
  // the packed flags is a corrupt trace, reported as TraceIoError, and the
  // refused segment leaves the database exactly as it was.
  LogDatabase db;
  auto good = sample_logs();
  good.dropped = 1;
  good.epoch = 3;
  ASSERT_EQ(decode_trace(encode_trace(good, kTraceFormatV3), db), 4u);
  const std::uint64_t generation = db.generation();

  auto rate = sample_logs();
  rate.records[3].sample_rate_index = 40;  // past the 5-bit field
  auto kind = sample_logs();
  kind.records[1].kind = static_cast<monitor::CallKind>(9);
  for (auto* bad : {&rate, &kind}) {
    bad->domains.push_back({monitor::DomainIdentity{"procC", "node2", "arm"},
                            monitor::ProbeMode::kLatency, 1});
    bad->dropped = 5;
    bad->epoch = 9;
    EXPECT_THROW(decode_trace(encode_trace(*bad, kTraceFormatV3), db),
                 TraceIoError);
    EXPECT_EQ(db.size(), 4u);
    EXPECT_EQ(db.generation(), generation);
    ASSERT_EQ(db.domains().size(), 2u);
    EXPECT_EQ(db.domains()[0].record_count, 2u);
    EXPECT_EQ(db.overflow_dropped(), 1u);
    EXPECT_EQ(db.last_epoch(), 3u);
  }
}

TEST(TraceIo, EncodeStreamMatchesSerialLoop) {
  // Multi-segment packing (parallel when the pool allows) must commit in
  // input order and byte-match a serial encode of each bundle, for both
  // the record-major and column-native entry points.
  workload::LogSynthConfig config;
  config.total_calls = 1'500;
  // The sources stay alive for the whole test: the records hold
  // string_views into each database's intern pool.
  std::deque<LogDatabase> sources;
  std::vector<monitor::CollectedLogs> bundles;
  for (std::uint64_t epoch = 1; epoch <= 6; ++epoch) {
    LogDatabase& source = sources.emplace_back();
    config.seed = 40 + epoch;
    workload::synthesize_logs(config, source);
    monitor::CollectedLogs logs;
    logs.records = source.records();
    logs.epoch = epoch;
    bundles.push_back(std::move(logs));
  }

  const auto encoded = encode_trace_stream(bundles);
  ASSERT_EQ(encoded.size(), bundles.size());
  std::vector<std::uint8_t> concat;
  for (std::size_t i = 0; i < bundles.size(); ++i) {
    EXPECT_EQ(encoded[i], encode_trace(bundles[i])) << "segment " << i;
    concat.insert(concat.end(), encoded[i].begin(), encoded[i].end());
  }

  const std::vector<ColumnBundle> columns = decode_trace_columns(concat);
  ASSERT_EQ(columns.size(), bundles.size());
  const auto col_encoded = encode_trace_columns_stream(columns);
  ASSERT_EQ(col_encoded.size(), columns.size());
  for (std::size_t i = 0; i < columns.size(); ++i) {
    EXPECT_EQ(col_encoded[i], encoded[i]) << "segment " << i;
  }
}

TEST(TraceIo, V5PooledDeflateMatchesInlineEncode) {
  // A segment of kParallelEncodeMinRecords (2048) records or more deflates
  // its column blocks on the shared pool.  Inside a pool item the same
  // encode runs every deflate inline; the bytes must not differ.
  workload::LogSynthConfig config;
  config.total_calls = 1'000;
  LogDatabase source;
  workload::synthesize_logs(config, source);
  monitor::CollectedLogs logs;
  logs.epoch = 7;
  logs.records = source.records();
  ASSERT_GE(logs.records.size(), 2048u);

  const auto pooled = encode_trace(logs, kTraceFormatV5);
  std::vector<std::vector<std::uint8_t>> inline_encoded(2);
  WorkerPool::shared().parallel_for(2, [&](std::size_t k) {
    inline_encoded[k] = encode_trace(logs, kTraceFormatV5);
  });
  for (const auto& bytes : inline_encoded) EXPECT_EQ(bytes, pooled);

  LogDatabase db;
  EXPECT_EQ(decode_trace(pooled, db), logs.records.size());
}

TEST(TraceIo, V5EncodeStreamMatchesPerSegmentEncode) {
  // Segments pack on the pool and each one's deflates nest inside that
  // item; the stream must return and match a per-segment v5 encode.
  workload::LogSynthConfig config;
  config.total_calls = 600;
  std::deque<LogDatabase> sources;
  std::vector<monitor::CollectedLogs> bundles;
  std::size_t total = 0;
  for (std::uint64_t epoch = 1; epoch <= 3; ++epoch) {
    LogDatabase& source = sources.emplace_back();
    config.seed = 70 + epoch;
    workload::synthesize_logs(config, source);
    monitor::CollectedLogs logs;
    logs.records = source.records();
    logs.epoch = epoch;
    total += logs.records.size();
    bundles.push_back(std::move(logs));
  }
  ASSERT_GE(total, 2048u);

  const auto encoded = encode_trace_stream(bundles, kTraceFormatV5);
  ASSERT_EQ(encoded.size(), bundles.size());
  for (std::size_t i = 0; i < bundles.size(); ++i) {
    EXPECT_EQ(encoded[i], encode_trace(bundles[i], kTraceFormatV5))
        << "segment " << i;
  }
}

TEST(TraceIo, TraceWriterColumnAppendMatchesRecordAppend) {
  const auto logs = sample_logs();
  const auto bytes = encode_trace(logs, kTraceFormatV4);
  const std::vector<ColumnBundle> bundles = decode_trace_columns(bytes);
  ASSERT_EQ(bundles.size(), 1u);

  const auto dir = std::filesystem::temp_directory_path();
  const auto rec_path = dir / "causeway_colappend_rec.cwt";
  const auto col_path = dir / "causeway_colappend_col.cwt";
  {
    TraceWriter writer(rec_path.string(), kTraceFormatV4);
    writer.append(logs);
    writer.close();
  }
  {
    TraceWriter writer(col_path.string(), kTraceFormatV4);
    writer.append(bundles[0]);
    EXPECT_EQ(writer.records_written(), logs.records.size());
    writer.close();
  }
  auto slurp = [](const std::filesystem::path& p) {
    std::ifstream in(p, std::ios::binary);
    return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                     std::istreambuf_iterator<char>());
  };
  EXPECT_EQ(slurp(col_path), slurp(rec_path));
  std::filesystem::remove(rec_path);
  std::filesystem::remove(col_path);

  // v3 writers have no columnar form.
  const auto v3_path = dir / "causeway_colappend_v3.cwt";
  TraceWriter v3_writer(v3_path.string(), kTraceFormatV3);
  EXPECT_THROW(v3_writer.append(bundles[0]), TraceIoError);
  v3_writer.close();
  std::filesystem::remove(v3_path);
}

TEST(TraceIo, EncodeTraceColumnsValidatesBundle) {
  const auto bytes = encode_trace(sample_logs(), kTraceFormatV4);
  const std::vector<ColumnBundle> bundles = decode_trace_columns(bytes);
  ASSERT_EQ(bundles.size(), 1u);

  {  // column length disagrees with count
    ColumnBundle bad = bundles[0];
    bad.seq.pop_back();
    EXPECT_THROW(encode_trace_columns(bad), TraceIoError);
  }
  {  // runs no longer cover the records
    ColumnBundle bad = bundles[0];
    bad.runs.back().length -= 1;
    EXPECT_THROW(encode_trace_columns(bad), TraceIoError);
  }
  {  // string id out of table range
    ColumnBundle bad = bundles[0];
    bad.iface[0] = static_cast<std::uint32_t>(bad.table.size());
    EXPECT_THROW(encode_trace_columns(bad), TraceIoError);
  }
  {  // spawned entries must match the flags2 presence bits
    ColumnBundle bad = bundles[0];
    bad.spawned.push_back(Uuid::generate());
    EXPECT_THROW(encode_trace_columns(bad), TraceIoError);
  }
  {  // domain identity string absent from the table
    ColumnBundle bad = bundles[0];
    bad.domains[0].identity.process_name = "no-such-process";
    EXPECT_THROW(encode_trace_columns(bad), TraceIoError);
  }
}

TEST(TraceIo, ColumnIngestMatchesRecordIngestAcrossShardCounts) {
  // The column fast path (decode_trace_columns + ingest(ColumnBundle)) and
  // the record-major path (decode_trace_segments + ingest(CollectedLogs))
  // must populate a database that renders byte-identically, at 1 and 8
  // ingest shards.
  workload::LogSynthConfig config;
  config.total_calls = 2'000;
  LogDatabase source;
  workload::synthesize_logs(config, source);
  monitor::CollectedLogs logs;
  logs.records = source.records();
  const auto bytes = encode_trace(logs, kTraceFormatV4);

  for (std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
    LogDatabase record_db(shards);
    for (const monitor::CollectedLogs& seg : decode_trace_segments(bytes)) {
      record_db.ingest(seg);
    }
    LogDatabase column_db(shards);
    for (const ColumnBundle& cols : decode_trace_columns(bytes)) {
      column_db.ingest(cols);
    }
    ASSERT_EQ(column_db.size(), record_db.size()) << shards << " shards";
    auto dscg_r = Dscg::build(record_db);
    auto dscg_c = Dscg::build(column_db);
    EXPECT_EQ(characterization_report(dscg_c, column_db),
              characterization_report(dscg_r, record_db))
        << shards << " shards";
  }
}

TEST(TraceIo, DecodeTraceColumnsRejectsRecordMajorFormats) {
  const auto bytes = encode_trace(sample_logs(), kTraceFormatV3);
  EXPECT_THROW(decode_trace_columns(bytes), TraceIoError);
}

TEST(TraceIo, CorruptSegmentErrorTextIsKernelIndependent) {
  // The overlong-varint and underflow rejections live in one strict
  // decoder shared by every kernel, so the error a corrupt segment raises
  // must not depend on which kernel decoded it.  Two corpses: a truncated
  // trailing column varint (underflow) and a hand-built segment whose
  // object-key column holds an overlong ten-byte encoding.
  auto truncated = encode_trace(sample_logs(), kTraceFormatV4);
  truncated.back() |= 0x80;

  WireBuffer seg;
  seg.write_u32(0x43575452);
  seg.write_u32(4);
  const std::size_t length_at = seg.size();
  seg.write_u64(0);
  const std::size_t body = seg.size();
  seg.write_u64(1);     // epoch
  seg.write_u64(0);     // dropped
  seg.write_varint(0);  // no domains
  seg.write_varint(1);  // one string: "a"
  seg.write_varint(1);
  seg.write_u8('a');
  seg.write_varint(1);  // one record
  seg.write_varint(1);  // one run
  seg.write_u64(1);     // chain hi/lo
  seg.write_u64(2);
  seg.write_varint(1);   // run length
  seg.write_svarint(1);  // seq delta
  seg.write_u8(1);       // flags1
  seg.write_u8(0);       // flags2
  seg.write_varint(0);   // interface id
  seg.write_varint(0);   // function id
  for (int i = 0; i < 9; ++i) seg.write_u8(0x80);  // object key: overlong --
  seg.write_u8(0x02);                              // bits past the 64th
  seg.write_varint(0);   // process id
  seg.write_varint(0);   // node id
  seg.write_varint(0);   // type id
  seg.write_varint(0);   // thread ordinal
  seg.write_svarint(0);  // value_start
  seg.write_svarint(0);  // value_end
  seg.overwrite_u64(length_at, seg.size() - body);
  const std::vector<std::uint8_t> overlong = seg.bytes();

  const VarintKernel previous = active_varint_kernel();
  auto error_text = [](const std::vector<std::uint8_t>& bytes) {
    LogDatabase db;
    try {
      decode_trace(bytes, db);
    } catch (const TraceIoError& e) {
      return std::string(e.what());
    }
    return std::string("(no error)");
  };
  std::string truncated_text, overlong_text;
  for (VarintKernel kernel :
       {VarintKernel::kScalar, VarintKernel::kSwar, VarintKernel::kSse,
        VarintKernel::kAvx2, VarintKernel::kNeon}) {
    if (!varint_kernel_available(kernel)) continue;
    force_varint_kernel(kernel);
    const std::string t = error_text(truncated);
    const std::string o = error_text(overlong);
    EXPECT_NE(t, "(no error)");
    EXPECT_TRUE(o.find("varint overlong") != std::string::npos)
        << o << " under kernel " << std::string(to_string(kernel));
    if (truncated_text.empty()) {
      truncated_text = t;
      overlong_text = o;
    } else {
      EXPECT_EQ(t, truncated_text)
          << "kernel " << std::string(to_string(kernel));
      EXPECT_EQ(o, overlong_text)
          << "kernel " << std::string(to_string(kernel));
    }
  }
  force_varint_kernel(previous);
}

TEST(TraceIo, LargeStreamRoundTrip) {
  // Full paper-shape stream through the codec.
  workload::LogSynthConfig config;
  config.total_calls = 5'000;
  LogDatabase source;
  workload::synthesize_logs(config, source);

  monitor::CollectedLogs logs;
  logs.records = source.records();
  const auto bytes = encode_trace(logs);

  LogDatabase decoded;
  EXPECT_EQ(decode_trace(bytes, decoded), source.size());
  auto dscg_a = Dscg::build(source);
  auto dscg_b = Dscg::build(decoded);
  EXPECT_EQ(dscg_a.call_count(), dscg_b.call_count());
  EXPECT_EQ(dscg_a.anomaly_count(), dscg_b.anomaly_count());
  EXPECT_EQ(dscg_a.chains().size(), dscg_b.chains().size());
}

TEST(Report, RendersAllSections) {
  workload::LogSynthConfig config;
  config.total_calls = 800;
  config.drop_fraction = 0.01;
  LogDatabase db;
  workload::synthesize_logs(config, db);
  auto dscg = Dscg::build(db);

  const std::string report = characterization_report(dscg, db);
  EXPECT_NE(report.find("characterization report"), std::string::npos);
  EXPECT_NE(report.find("probe mode: latency"), std::string::npos);
  EXPECT_NE(report.find("--- per function ---"), std::string::npos);
  EXPECT_NE(report.find("--- calls served per process ---"), std::string::npos);
  EXPECT_NE(report.find("--- cross-process invocations"), std::string::npos);
  EXPECT_NE(report.find("--- slowest calls"), std::string::npos);
  EXPECT_NE(report.find("--- anomalies ---"), std::string::npos);
}

TEST(Report, SummaryJsonIsBalancedAndComplete) {
  workload::LogSynthConfig config;
  config.total_calls = 500;
  LogDatabase db;
  workload::synthesize_logs(config, db);
  auto dscg = Dscg::build(db);
  const std::string json = summary_json(dscg, db);

  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  for (const char* key :
       {"\"records\":", "\"chains\":", "\"calls\":", "\"anomalies\":",
        "\"failures\":", "\"mode\":\"latency\"", "\"topology\":",
        "\"transaction_latency_us\":", "\"total_self_cpu_us\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  int braces = 0;
  for (char c : json) braces += (c == '{') - (c == '}');
  EXPECT_EQ(braces, 0);
}

TEST(LogSynthCpu, CpuModeStreamsAnnotate) {
  workload::LogSynthConfig config;
  config.mode = monitor::ProbeMode::kCpu;
  config.total_calls = 2'000;
  LogDatabase db;
  const auto stats = workload::synthesize_logs(config, db);
  EXPECT_EQ(db.primary_mode(), monitor::ProbeMode::kCpu);

  auto dscg = Dscg::build(db);
  EXPECT_EQ(dscg.anomaly_count(), 0u);
  auto report = annotate_cpu(dscg);
  EXPECT_GT(report.annotated, stats.calls / 2);

  // Self CPU is non-negative everywhere (clamped) and positive somewhere.
  Nanos total = 0;
  dscg.visit([&](const CallNode& node, int) {
    EXPECT_GE(node.self_cpu.total(), 0);
    total += node.self_cpu.total();
  });
  EXPECT_GT(total, 0);
}

TEST(Report, CpuModeShowsProcessorAxes) {
  // Build a tiny CPU-mode stream by hand.
  monitor::CollectedLogs logs;
  const Uuid chain = Uuid::generate();
  auto rec = [&](std::uint64_t seq, monitor::EventKind event, Nanos v0,
                 Nanos v1) {
    monitor::TraceRecord r;
    r.chain = chain;
    r.seq = seq;
    r.event = event;
    r.kind = monitor::CallKind::kSync;
    r.interface_name = "I";
    r.function_name = "f";
    r.process_name = "procA";
    r.node_name = "n";
    r.processor_type = "pa-risc";
    r.mode = monitor::ProbeMode::kCpu;
    r.value_start = v0;
    r.value_end = v1;
    return r;
  };
  logs.records.push_back(rec(1, monitor::EventKind::kStubStart, 0, 1));
  logs.records.push_back(rec(2, monitor::EventKind::kSkelStart, 100, 110));
  logs.records.push_back(rec(3, monitor::EventKind::kSkelEnd, 5110, 5120));
  logs.records.push_back(rec(4, monitor::EventKind::kStubEnd, 10, 11));

  LogDatabase db;
  db.ingest(logs);
  auto dscg = Dscg::build(db);
  const std::string report = characterization_report(dscg, db);
  EXPECT_NE(report.find("probe mode: cpu"), std::string::npos);
  EXPECT_NE(report.find("self cpu us"), std::string::npos);
  EXPECT_NE(report.find("pa-risc"), std::string::npos);
}

}  // namespace
}  // namespace causeway::analysis
