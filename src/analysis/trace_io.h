// Trace files: durable storage between the collector and the analyzer.
//
// The paper's workflow is explicitly two-phase: probes log locally at run
// time; "when the application ceases to exist or reaches a quiescent state,
// the scattered logs are collected and eventually synthesized into a
// relational database" for off-line analysis.  Trace files are that seam as
// a real artifact: `causeway-record` writes one per run, `causeway-analyze`
// reads any number of them back.
//
// A trace file holds one or more *segments*, each a self-contained encoding
// of one collector bundle, optionally followed by a segment-directory
// trailer (see below).  Offline runs write a single segment; streaming runs
// (`causeway-record --stream`) append one segment per drain epoch.  Readers
// loop segments until the file is exhausted, so a streamed trace
// synthesizes into the same database as an offline one.
//
// Segment format v4 (all little-endian; full layout in DESIGN.md Sec. 9):
//   "CWTR" magic, u32 version, u64 body length
//   u64 drain epoch (0 = offline collect), u64 dropped count
//   varint domain count; per domain: varint process/node/type string ids,
//     u8 mode, varint record count
//   varint string count; varint-length-prefixed strings
//   columnar record section: records grouped into maximal runs of
//     consecutive same-chain records (arrival order preserved -- grouping
//     never reorders), chain stored once per run, then one column per
//     field: delta-varint seq, packed event/kind/outcome/mode flag bytes,
//     sparse spawned chains, varint ids/ordinals, and zig-zag-delta
//     varint start/end sample columns.
// Version 3 (fixed-width records, epoch + dropped words) and version 2
// (v3 without the epoch words) segments are still fully readable.
//
// After the last segment a *directory trailer* may follow ("CWTD" block +
// "CWTE" end magic): the byte length of every segment, so a reader finds
// all boundaries from the footer without walking the file.  The trailer is
// written when a TraceWriter closes; a file without one (writer still
// running, or crashed) falls back to the sequential skim.
//
// Reading is two-phase so multi-segment traces scale with cores: segment
// boundaries come from the directory trailer (or a cheap skim -- v4
// segments carry their body length in the header, so the skim is one seek
// per segment), the segments decode concurrently into self-contained
// staging bundles on the shared WorkerPool, and the bundles commit into
// the database in epoch order -- so the generation sequence (and every
// downstream render) is byte-identical to a serial segment-by-segment
// decode, across format versions and shard counts.  Files are read through
// an mmap (read() fallback; see DESIGN.md Sec. 9) and decoded zero-copy.
#pragma once

#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "analysis/columns.h"
#include "analysis/database.h"
#include "monitor/collector.h"

namespace causeway::analysis {

class AnalysisPipeline;

class TraceIoError : public std::runtime_error {
 public:
  explicit TraceIoError(const std::string& what) : std::runtime_error(what) {}
};

// Segment format versions this build writes.  kTraceFormatDefault is what
// every writer emits unless told otherwise; v3 stays writable so a
// regression in the columnar codec can be bisected against the old
// encoding (`causeway-record --trace-format=v3`).  v5 is v4 with every
// dense record column wrapped in a column block (u8 codec + exact decoded
// length; see common/wire.h) so cold store files can carry deflated
// columns -- the header, domain table, string table, and chain runs are
// byte-identical to v4, and v2-v4 files remain byte-identical and fully
// readable.  Writing v5 never *requires* zlib (blocks fall back to raw),
// but only zlib builds produce deflated columns.
inline constexpr std::uint32_t kTraceFormatV3 = 3;
inline constexpr std::uint32_t kTraceFormatV4 = 4;
inline constexpr std::uint32_t kTraceFormatV5 = 5;
inline constexpr std::uint32_t kTraceFormatDefault = kTraceFormatV4;

// The readable range (what decode/skim accept), for `--version` banners and
// handshake diagnostics.
inline constexpr std::uint32_t kTraceFormatMinReadable = 2;
inline constexpr std::uint32_t kTraceFormatMaxReadable = kTraceFormatV5;

// Serializes a collector bundle as a single-segment file (plus directory
// trailer).  Throws TraceIoError on I/O failure or an unwritable version.
void write_trace_file(const std::string& path,
                      const monitor::CollectedLogs& logs,
                      std::uint32_t version = kTraceFormatDefault);

// Parses a trace file (one or more segments) and ingests everything into
// `db` (which interns all strings, so nothing dangles).  Returns the number
// of records ingested.  Throws TraceIoError on missing/corrupt files.
std::size_t read_trace_file(const std::string& path, LogDatabase& db);

// In-memory variants (testing, transport over other channels).  encode_trace
// produces one segment (no trailer); decode_trace accepts any concatenation
// of segments, with or without a final directory trailer.
std::vector<std::uint8_t> encode_trace(
    const monitor::CollectedLogs& logs,
    std::uint32_t version = kTraceFormatDefault);

// The frozen record-major v4 writer (per-record interleaved varint loops,
// the encoder before DESIGN.md Sec. 15).  Kept as the byte-identity
// reference the columnar writer is tested against, and as the baseline
// bench_trace_io measures the column-encode speedup from.  v3 has no
// columnar form, so both entry points share one v3 encoder.
std::vector<std::uint8_t> encode_trace_recmajor(
    const monitor::CollectedLogs& logs,
    std::uint32_t version = kTraceFormatDefault);

// ColumnBundle-native columnar encode (v4 or v5): collector/decoder columns
// go straight to wire bytes -- batched varint emission, SIMD delta/zig-zag
// transform passes, no record-major round trip.  The bundle's string table
// is emitted verbatim (ids already assigned), so a v4 decode -> v4 encode
// round trip reproduces the original segment byte for byte (and a
// v4 <-> v5 transcode round trip reproduces the v4 bytes).  Throws
// TraceIoError when the bundle is inconsistent (column sizes vs count, run
// coverage, ids out of table range, domain identity strings missing from
// the table).
std::vector<std::uint8_t> encode_trace_columns(
    const ColumnBundle& cols, std::uint32_t version = kTraceFormatV4);

// Multi-segment encode: one segment per bundle, packed concurrently on the
// shared WorkerPool when there is enough work, results committed in input
// order -- so the concatenation (and every segment) is byte-identical to a
// serial encode loop, across kernels and worker counts.
std::vector<std::vector<std::uint8_t>> encode_trace_stream(
    std::span<const monitor::CollectedLogs> bundles,
    std::uint32_t version = kTraceFormatDefault);
std::vector<std::vector<std::uint8_t>> encode_trace_columns_stream(
    std::span<const ColumnBundle> bundles);
std::size_t decode_trace(std::span<const std::uint8_t> bytes, LogDatabase& db);
inline std::size_t decode_trace(const std::vector<std::uint8_t>& bytes,
                                LogDatabase& db) {
  return decode_trace(std::span<const std::uint8_t>(bytes), db);
}

// The staging phase alone: every segment decoded into a self-contained
// bundle (concurrently when there is enough work), in segment order,
// without ingesting.  The building block a multi-trace merge would start
// from.  v4 segments decode columnar and are assembled record-major here;
// callers that go on to ingest should prefer the column forms below, which
// skip the assembly entirely.
std::vector<monitor::CollectedLogs> decode_trace_segments(
    std::span<const std::uint8_t> bytes);

// Column-form staging for v4 traces: every segment decoded into a
// ColumnBundle (batch varint kernels, no record-major assembly), in
// segment order.  LogDatabase/AnalysisPipeline ingest bundles directly --
// skim -> column decode -> per-shard scatter, no staging record array.
// Throws TraceIoError if any segment is not v4 (v2/v3 have no column
// form).  What bench_trace_io times for the v4 decode curve.
std::vector<ColumnBundle> decode_trace_columns(
    std::span<const std::uint8_t> bytes);

// Incremental block framing for byte-stream transports (the cross-process
// collection socket): measures the first complete block at the start of
// `bytes` -- a record segment or a directory trailer -- without decoding
// it.  Returns false when the bytes are only an incomplete prefix (read
// more and retry: the same clean-prefix discipline TraceTail::poll applies
// to a growing file).  Throws TraceIoError on structural corruption.
bool probe_trace_block(std::span<const std::uint8_t> bytes,
                       std::size_t& length, bool& is_segment);

// Decodes exactly one complete segment (as measured by probe_trace_block)
// into a self-contained bundle.  Throws TraceIoError if `segment` is not
// exactly one well-formed segment.
monitor::CollectedLogs decode_trace_segment(
    std::span<const std::uint8_t> segment);

// Same, but keeps a v4 segment in column form (the live collection path:
// IngestSink hands the bundle straight to the pipeline).  Throws
// TraceIoError on malformed input or a pre-columnar (v2/v3) segment.
ColumnBundle decode_trace_segment_columns(
    std::span<const std::uint8_t> segment);

// The inverse of assembling records from a bundle: record-major logs (a
// decoded v2/v3 segment, a collector drain) in column form, so one
// column-native consumer serves every format version.  Runs, spawned
// chains and the deduplicated string table are rebuilt in the writers'
// intern order, so the bundle encodes to the same bytes as `logs`; the
// table is copied into the bundle's own pool.  Throws TraceIoError when a
// record's event, kind, outcome, mode or sample-rate index does not fit
// its packed flag bits (only a corrupt v2/v3 segment can produce one).
ColumnBundle columns_from_logs(const monitor::CollectedLogs& logs);

// Reads one complete segment's total record count from its header without
// decoding the record payload -- what a relay tier needs to account for
// the segments it forwards (or sheds) without paying for a full decode.
// Throws TraceIoError if `segment` is not a well-formed segment prefix.
std::uint64_t trace_segment_record_count(
    std::span<const std::uint8_t> segment);

// `causeway-analyze --reindex`: rewrites a trailer-less trace file (a
// crashed or still-unclosed writer's artifact) in place so future opens get
// every segment extent from the directory trailer in O(segments).  An
// incomplete trailing segment (the crash cut a write short) is truncated
// away -- the clean prefix is what the trailer then describes.  A file that
// already ends in a valid trailer is left untouched.  Throws TraceIoError
// on structural corruption or I/O failure.
//
// Checkpoint-aware: a writer opened with a checkpoint interval leaves
// periodic interior directory blocks behind (see TraceWriter).  Repair
// locates the last checkpoint whose block chain validates back to byte 0
// and only re-skims the segments written after it, so recovering a crashed
// multi-gigabyte store file costs O(checkpoints + tail), not a walk of
// every segment header.  A checkpoint that was itself cut short by the
// crash simply isn't valid, and repair falls back to the previous one (or
// the full skim) -- never to a wrong answer.
struct ReindexResult {
  std::size_t segments{0};         // segments the appended trailer indexes
  std::uint64_t truncated_bytes{0};  // incomplete tail removed, if any
  bool rewritten{false};           // false: file already had a trailer
  bool used_checkpoint{false};     // repair resumed from an interior block
  std::size_t checkpoint_segments{0};  // segments vouched for by the chain,
                                       // not re-skimmed
};
ReindexResult reindex_trace_file(const std::string& path);

// Streaming writer: appends one segment per collector bundle to a trace
// file as the run progresses, flushing after each so the file is always a
// valid (if partial) trace.  close() (or destruction) appends the segment
// directory trailer.  Used by `causeway-record --stream`.
//
// With a nonzero `checkpoint_every`, the writer also emits the directory
// block *mid-file* every that-many segments (each checkpoint describes only
// the segments since the previous one, so the blocks chain back to the
// start of the file).  Readers already tolerate interior directory blocks
// as metadata; what checkpoints buy is crash repair that never re-walks the
// checkpointed prefix (see reindex_trace_file).  The store writer
// (store/store.h) checkpoints its live file; plain `causeway-record`
// streams don't need to.
class TraceWriter {
 public:
  // Truncates/creates the file.  Throws TraceIoError if it cannot open or
  // `version` is not writable.
  explicit TraceWriter(const std::string& path,
                       std::uint32_t version = kTraceFormatDefault,
                       std::size_t checkpoint_every = 0);
  ~TraceWriter();
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  // Appends `logs` as one segment and flushes.  Throws on short writes.
  void append(const monitor::CollectedLogs& logs);

  // Column-native append: encodes the bundle with encode_trace_columns
  // (no record-major round trip) and appends it as one segment.  Only
  // valid on a columnar (v4/v5) writer -- v3 has no columnar form.
  void append(const ColumnBundle& cols);

  // Appends one pre-encoded segment verbatim (validated to be exactly one
  // well-formed segment) and flushes.  Lets a relay -- the collector
  // daemon merging publisher streams into one file -- persist segments
  // without a decode/re-encode round trip.  Throws TraceIoError on
  // malformed input or short writes.
  void append_encoded(std::span<const std::uint8_t> segment);

  // Writes a directory checkpoint covering the segments since the last one
  // now (no-op when there are none).  Called automatically every
  // `checkpoint_every` segments; exposed so a store can force one before a
  // risky boundary.  Throws on short writes.
  void checkpoint();

  // Appends the directory trailer and closes the file.  Idempotent; throws
  // on short writes.  The destructor calls it, swallowing errors -- call
  // explicitly when you need them surfaced.
  void close();

  std::size_t segments() const { return segments_total_; }
  std::uint64_t records_written() const { return records_; }

  // Bytes on disk so far (segments + any checkpoints) -- what a
  // size-rotation policy compares against its threshold.
  std::uint64_t bytes_written() const { return bytes_written_; }

 private:
  void note_segment(std::size_t bytes);

  std::string path_;
  std::ofstream out_;
  std::uint32_t version_;
  std::size_t checkpoint_every_;
  std::vector<std::uint64_t> segment_lengths_;  // since the last checkpoint
  std::size_t segments_total_{0};
  std::uint64_t bytes_written_{0};
  std::uint64_t records_{0};
  bool closed_{false};
};

// Streaming reader: tails a growing trace file, ingesting each complete
// segment as it lands.  The file is read in place through an mmap remapped
// per poll (read() fallback), so nothing is staged: complete segments
// decode zero-copy straight out of the mapping, and an incomplete tail (the
// writer mid-append, or the reader raced a flush) simply stays in the file
// to be retried next poll.  A directory trailer appearing at the tail (the
// writer closed) is consumed as metadata.  Corrupt data (bad magic, bad
// version, string ids out of range) still throws TraceIoError -- only
// *incomplete* tails are recoverable.  Used by `causeway-analyze --follow`.
class TraceTail {
 public:
  explicit TraceTail(std::string path) : path_(std::move(path)) {}

  // Reads whatever the file grew since the last poll and ingests every
  // complete segment into `db`.  Returns the number of records ingested (0
  // when nothing new arrived or the tail is still incomplete).  A file that
  // does not exist yet is "nothing new"; a file that shrinks mid-tail (was
  // truncated or rewritten underneath us) throws TraceIoError.
  std::size_t poll(LogDatabase& db);

  // Same, but hands each decoded bundle straight to the pipeline: one
  // pipeline epoch per segment, no separate refresh() needed.  Renders are
  // byte-identical to the poll(db)+refresh() form (the pipeline's N-epochs
  // == one-epoch contract).
  std::size_t poll(AnalysisPipeline& pipeline);

  std::size_t segments() const { return segments_; }
  std::uint64_t bytes_consumed() const { return consumed_; }

  // Bytes known to exist but not yet decoded -- the incomplete tail.
  std::size_t pending_bytes() const {
    return static_cast<std::size_t>(seen_size_ - consumed_);
  }

 private:
  std::size_t poll_impl(LogDatabase* db, AnalysisPipeline* pipeline);

  std::string path_;
  std::uint64_t seen_size_{0};  // high-watermark file size (shrink guard)
  std::uint64_t consumed_{0};   // bytes decoded (or skipped as trailer)
  std::size_t segments_{0};
};

}  // namespace causeway::analysis
