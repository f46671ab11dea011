#include "analysis/trace_io.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <utility>

#include <filesystem>
#include <unordered_map>

#include "analysis/pipeline.h"
#include "common/wire.h"
#include "common/wire_io.h"
#include "common/worker_pool.h"

#if defined(__unix__) || defined(__APPLE__)
#define CAUSEWAY_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace causeway::analysis {
namespace {

constexpr std::uint32_t kMagic = 0x43575452;     // "CWTR": segment
constexpr std::uint32_t kDirMagic = 0x43575444;  // "CWTD": directory trailer
constexpr std::uint32_t kEndMagic = 0x43575445;  // "CWTE": end-of-file mark
constexpr std::uint32_t kMaxVersion = kTraceFormatMaxReadable;
constexpr std::uint32_t kMinVersion = kTraceFormatMinReadable;
constexpr std::uint32_t kDirVersion = 1;

class StringTable {
 public:
  std::uint32_t id_of(std::string_view s) {
    auto it = ids_.find(s);
    if (it != ids_.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(strings_.size());
    strings_.emplace_back(s);
    ids_.emplace(strings_.back(), id);
    return id;
  }

  // v2/v3 layout: u32 count, u32-length-prefixed strings.
  void encode(WireBuffer& out) const {
    out.write_u32(static_cast<std::uint32_t>(strings_.size()));
    for (const auto& s : strings_) out.write_string(s);
  }

  // v4 layout: varint count, varint-length-prefixed strings.
  void encode_varint(WireBuffer& out) const {
    out.write_varint(strings_.size());
    for (const auto& s : strings_) {
      out.write_varint(s.size());
      out.append_raw({reinterpret_cast<const std::uint8_t*>(s.data()),
                      s.size()});
    }
  }

 private:
  std::deque<std::string> strings_;
  std::map<std::string_view, std::uint32_t> ids_;
};

struct DomainIds {
  std::uint32_t process, node, type;
};
struct RecordIds {
  std::uint32_t iface, func, process, node, type;
};

// Interns every identity string up front so the table is complete before
// any record body (or the domain section) references it.
void intern_bundle(const monitor::CollectedLogs& logs, StringTable& table,
                   std::vector<DomainIds>& domain_ids,
                   std::vector<RecordIds>& record_ids) {
  domain_ids.reserve(logs.domains.size());
  for (const auto& d : logs.domains) {
    domain_ids.push_back({table.id_of(d.identity.process_name),
                          table.id_of(d.identity.node_name),
                          table.id_of(d.identity.processor_type)});
  }
  record_ids.reserve(logs.records.size());
  for (const auto& r : logs.records) {
    record_ids.push_back({table.id_of(r.interface_name),
                          table.id_of(r.function_name),
                          table.id_of(r.process_name),
                          table.id_of(r.node_name),
                          table.id_of(r.processor_type)});
  }
}

// v3 (and v2-compatible) body: fixed-width records.  Kept byte-exact so
// `--trace-format=v3` can bisect regressions against the old encoding.
std::vector<std::uint8_t> encode_trace_v3(const monitor::CollectedLogs& logs) {
  StringTable table;
  std::vector<DomainIds> domain_ids;
  std::vector<RecordIds> record_ids;
  intern_bundle(logs, table, domain_ids, record_ids);

  WireBuffer out;
  out.write_u32(kMagic);
  out.write_u32(kTraceFormatV3);
  out.write_u64(logs.epoch);
  out.write_u64(logs.dropped);

  out.write_u32(static_cast<std::uint32_t>(logs.domains.size()));
  for (std::size_t i = 0; i < logs.domains.size(); ++i) {
    out.write_u32(domain_ids[i].process);
    out.write_u32(domain_ids[i].node);
    out.write_u32(domain_ids[i].type);
    out.write_u8(static_cast<std::uint8_t>(logs.domains[i].mode));
    out.write_u64(logs.domains[i].record_count);
  }

  table.encode(out);

  out.write_u64(logs.records.size());
  for (std::size_t i = 0; i < logs.records.size(); ++i) {
    const auto& r = logs.records[i];
    const auto& ids = record_ids[i];
    out.write_u64(r.chain.hi);
    out.write_u64(r.chain.lo);
    out.write_u64(r.seq);
    out.write_u8(static_cast<std::uint8_t>(r.event));
    out.write_u8(static_cast<std::uint8_t>(r.kind));
    out.write_u8(static_cast<std::uint8_t>(r.outcome));
    out.write_u64(r.spawned_chain.hi);
    out.write_u64(r.spawned_chain.lo);
    out.write_u32(ids.iface);
    out.write_u32(ids.func);
    out.write_u64(r.object_key);
    out.write_u32(ids.process);
    out.write_u32(ids.node);
    out.write_u32(ids.type);
    out.write_u64(r.thread_ordinal);
    // Mode in the low 2 bits; the chain-sampling rate index (5 bits used,
    // zero when sampling 1:1 -- byte-identical to the pre-sampling format)
    // rides the formerly-unused high bits.
    out.write_u8(static_cast<std::uint8_t>(
        static_cast<std::uint8_t>(r.mode) |
        static_cast<std::uint8_t>(r.sample_rate_index << 2)));
    out.write_i64(r.value_start);
    out.write_i64(r.value_end);
  }
  return std::move(out).take();
}

// Packed per-record flag bytes (v4).  event is 1..4 (3 bits), kind and
// outcome 0..2 (2 bits each); mode 0..2 plus the spawned-chain presence
// bit, with the chain sampling rate index in the remaining 5 bits.
constexpr std::uint8_t pack_flags1(const monitor::TraceRecord& r) {
  return static_cast<std::uint8_t>(
      static_cast<std::uint8_t>(r.event) |
      (static_cast<std::uint8_t>(r.kind) << 3) |
      (static_cast<std::uint8_t>(r.outcome) << 5));
}

// The frozen record-major v4 writer: per-record interleaved write_varint
// loops, exactly as the encoder stood before the columnar rewrite
// (DESIGN.md Sec. 15).  LEB128 is canonical, so the columnar writer below
// must reproduce this function's output byte for byte -- ctest enforces it
// under every kernel; bench_trace_io measures the speedup against it.
std::vector<std::uint8_t> encode_trace_v4_recmajor(
    const monitor::CollectedLogs& logs) {
  StringTable table;
  std::vector<DomainIds> domain_ids;
  std::vector<RecordIds> record_ids;
  intern_bundle(logs, table, domain_ids, record_ids);

  WireBuffer out;
  out.write_u32(kMagic);
  out.write_u32(kTraceFormatV4);
  const std::size_t body_length_at = out.size();
  out.write_u64(0);  // body length, patched once the body is encoded
  const std::size_t body_start = out.size();

  out.write_u64(logs.epoch);
  out.write_u64(logs.dropped);

  out.write_varint(logs.domains.size());
  for (std::size_t i = 0; i < logs.domains.size(); ++i) {
    out.write_varint(domain_ids[i].process);
    out.write_varint(domain_ids[i].node);
    out.write_varint(domain_ids[i].type);
    out.write_u8(static_cast<std::uint8_t>(logs.domains[i].mode));
    out.write_varint(logs.domains[i].record_count);
  }

  table.encode_varint(out);

  const auto& recs = logs.records;
  out.write_varint(recs.size());

  // Chain runs: one (chain, length) per maximal span of equal chains.
  out.write_varint([&] {
    std::size_t runs = 0;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      if (i == 0 || !(recs[i].chain == recs[i - 1].chain)) ++runs;
    }
    return runs;
  }());
  for (std::size_t i = 0; i < recs.size();) {
    std::size_t j = i + 1;
    while (j < recs.size() && recs[j].chain == recs[i].chain) ++j;
    out.write_u64(recs[i].chain.hi);
    out.write_u64(recs[i].chain.lo);
    out.write_varint(j - i);
    i = j;
  }

  // seq: delta vs the previous record of the same run (runs restart at 0);
  // event numbers increment along a chain, so deltas are tiny.
  {
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      if (i == 0 || !(recs[i].chain == recs[i - 1].chain)) prev = 0;
      out.write_svarint(static_cast<std::int64_t>(recs[i].seq - prev));
      prev = recs[i].seq;
    }
  }
  for (const auto& r : recs) out.write_u8(pack_flags1(r));
  // flags2: mode (2 bits), spawned-chain presence (bit 2), and the chain
  // sampling rate index in bits 3..7 -- the sample-weight column.  Index 0
  // (sampling 1:1) leaves the byte exactly as the pre-sampling encoder
  // wrote it, which is what keeps un-sampled traces byte-identical.
  for (const auto& r : recs) {
    out.write_u8(static_cast<std::uint8_t>(
        static_cast<std::uint8_t>(r.mode) |
        (r.spawned_chain.is_nil() ? 0 : 4) |
        static_cast<std::uint8_t>(r.sample_rate_index << 3)));
  }
  // Spawned chains are sparse (oneway stub-starts only): dense pairs for
  // just the flagged records.
  for (const auto& r : recs) {
    if (!r.spawned_chain.is_nil()) {
      out.write_u64(r.spawned_chain.hi);
      out.write_u64(r.spawned_chain.lo);
    }
  }
  for (const auto& ids : record_ids) out.write_varint(ids.iface);
  for (const auto& ids : record_ids) out.write_varint(ids.func);
  for (const auto& r : recs) out.write_varint(r.object_key);
  for (const auto& ids : record_ids) out.write_varint(ids.process);
  for (const auto& ids : record_ids) out.write_varint(ids.node);
  for (const auto& ids : record_ids) out.write_varint(ids.type);
  for (const auto& r : recs) out.write_varint(r.thread_ordinal);
  // Timestamp columns: consecutive records sample nearly the same instant,
  // so column-wise deltas (start) and the start->end gap (end) are small.
  {
    std::int64_t prev = 0;
    for (const auto& r : recs) {
      out.write_svarint(r.value_start - prev);
      prev = r.value_start;
    }
  }
  for (const auto& r : recs) out.write_svarint(r.value_end - r.value_start);

  out.overwrite_u64(body_length_at, out.size() - body_start);
  return std::move(out).take();
}

// ---------------------------------------------------------------------------
// Columnar v4 writer (DESIGN.md Sec. 15).  The segment is built column
// first: one gather pass turns records into contiguous u64/u8 columns, the
// SIMD transform passes (common/wire.h) delta/zig-zag them in place, and
// emit_segment_v4 streams every dense column through the batched varint
// encode kernels.  Byte-identical to encode_trace_v4_recmajor by
// construction: same intern order, same per-run delta bases, and canonical
// LEB128 from every kernel.

// Hash interner for the gather pass.  The reference StringTable (std::map)
// stays with the frozen writers; first-encounter id assignment is what
// matters for byte identity, and both tables assign ids the same way.
class FastStringTable {
 public:
  std::uint32_t id_of(std::string_view s) {
    const auto [it, inserted] =
        ids_.try_emplace(s, static_cast<std::uint32_t>(strings_.size()));
    if (inserted) strings_.push_back(s);
    return it->second;
  }
  std::vector<std::string_view>& strings() { return strings_; }

 private:
  std::vector<std::string_view> strings_;
  std::unordered_map<std::string_view, std::uint32_t> ids_;
};

// Collector records hold interned string_views, so consecutive records
// usually repeat the exact same view object.  A per-column memo turns that
// into a pointer compare, skipping the hash for the common case.
struct InternMemo {
  const char* data{nullptr};
  std::size_t size{std::size_t(-1)};
  std::uint32_t id{0};

  std::uint32_t get(std::string_view s, FastStringTable& table) {
    if (s.data() == data && s.size() == size) return id;
    data = s.data();
    size = s.size();
    return id = table.id_of(s);
  }
};

// Below this many records the pool dispatch costs more than the work it
// spreads: a multi-segment encode packs its segments inline, and a v5
// segment deflates its column blocks inline.
constexpr std::size_t kParallelEncodeMinRecords = 2048;

// The gathered, transform-ready shape of one v4 segment: every varint
// column widened to u64, seq/value columns already delta'd and zig-zagged
// (so emission is a raw write_varint_column per column).  Both encode
// entry points (CollectedLogs and ColumnBundle) fill one of these and
// share emit_segment_v4.
struct SegmentColumns {
  struct Domain {
    std::uint64_t process, node, type, count;
    std::uint8_t mode;
  };
  std::uint64_t epoch{0}, dropped{0};
  std::vector<Domain> domains;
  std::span<const std::string_view> table;
  struct Run {
    Uuid chain;
    std::uint64_t length;
  };
  std::vector<Run> runs;
  std::size_t count{0};
  std::vector<std::uint64_t> seq;  // zigzag(per-run delta)
  // Flag/spawned columns either borrow the caller's storage (ColumnBundle
  // path: the bundle already holds them contiguously) or own a gathered
  // copy (CollectedLogs path) kept alive in *_storage.
  std::span<const std::uint8_t> flags1, flags2;
  std::vector<std::uint8_t> flags1_storage, flags2_storage;
  std::span<const Uuid> spawned;
  std::vector<Uuid> spawned_storage;
  std::vector<std::uint64_t> iface, func, object_key, process, node, type,
      thread_ordinal;
  std::vector<std::uint64_t> vstart;  // zigzag(whole-column delta)
  std::vector<std::uint64_t> vend;    // zigzag(end - start)
};

std::vector<std::uint8_t> emit_segment_columnar(const SegmentColumns& c,
                                                std::uint32_t version) {
  WireBuffer out;
  // Worst-case column bytes are bounded; a coarse reserve keeps the buffer
  // from reallocating mid-segment (~21 wire B/record in practice, so 32
  // leaves slack without overcommitting).
  std::size_t table_bytes = 0;
  for (const auto& s : c.table) table_bytes += s.size() + 2;
  out.reserve(64 + c.domains.size() * 16 + table_bytes +
              c.runs.size() * 20 + c.count * 32);

  out.write_u32(kMagic);
  out.write_u32(version);
  const std::size_t body_length_at = out.size();
  out.write_u64(0);  // body length, patched once the body is encoded
  const std::size_t body_start = out.size();

  out.write_u64(c.epoch);
  out.write_u64(c.dropped);

  out.write_varint(c.domains.size());
  for (const auto& d : c.domains) {
    out.write_varint(d.process);
    out.write_varint(d.node);
    out.write_varint(d.type);
    out.write_u8(d.mode);
    out.write_varint(d.count);
  }

  out.write_varint(c.table.size());
  for (const auto& s : c.table) {
    out.write_varint(s.size());
    out.append_raw({reinterpret_cast<const std::uint8_t*>(s.data()),
                    s.size()});
  }

  out.write_varint(c.count);
  out.write_varint(c.runs.size());
  for (const auto& run : c.runs) {
    out.write_u64(run.chain.hi);
    out.write_u64(run.chain.lo);
    out.write_varint(run.length);
  }

  if (version == kTraceFormatV4) {
    // The dense columns: seq/value columns were pre-zig-zagged by the
    // transform passes, so every one is a single batched varint emission.
    out.write_varint_column(c.seq.data(), c.count);
    out.append_raw(c.flags1);
    out.append_raw(c.flags2);
    for (const Uuid& u : c.spawned) {
      out.write_u64(u.hi);
      out.write_u64(u.lo);
    }
    out.write_varint_column(c.iface.data(), c.count);
    out.write_varint_column(c.func.data(), c.count);
    out.write_varint_column(c.object_key.data(), c.count);
    out.write_varint_column(c.process.data(), c.count);
    out.write_varint_column(c.node.data(), c.count);
    out.write_varint_column(c.type.data(), c.count);
    out.write_varint_column(c.thread_ordinal.data(), c.count);
    out.write_varint_column(c.vstart.data(), c.count);
    out.write_varint_column(c.vend.data(), c.count);
  } else {
    // v5: the same thirteen dense columns in the same order, each wrapped
    // in a column block (deflated when the block wins).  The column
    // *payloads* are byte-identical to v4 -- same kernels, same canonical
    // LEB128 -- so a v5 reader recovers exactly the v4 column bytes before
    // handing them to the shared decoders.  Every payload is built first;
    // the deflates, most of a v5 encode's time and each a function of its
    // own payload alone, then run on the shared pool for a large segment,
    // and the blocks are framed in their fixed order.
    constexpr std::size_t kColumns = 13;
    std::array<WireBuffer, kColumns> built;
    std::array<std::span<const std::uint8_t>, kColumns> payload;
    std::size_t k = 0;
    auto varints = [&](const std::vector<std::uint64_t>& values) {
      built[k].write_varint_column(values.data(), c.count);
      payload[k] = built[k].bytes();
      ++k;
    };
    varints(c.seq);
    payload[k++] = c.flags1;
    payload[k++] = c.flags2;
    for (const Uuid& u : c.spawned) {
      built[k].write_u64(u.hi);
      built[k].write_u64(u.lo);
    }
    payload[k] = built[k].bytes();
    ++k;
    for (const auto* column :
         {&c.iface, &c.func, &c.object_key, &c.process, &c.node, &c.type,
          &c.thread_ordinal, &c.vstart, &c.vend}) {
      varints(*column);
    }

    std::array<std::optional<std::vector<std::uint8_t>>, kColumns> deflated;
    auto deflate_one = [&](std::size_t i) {
      deflated[i] = deflate_column(payload[i]);
    };
    if (c.count >= kParallelEncodeMinRecords) {
      WorkerPool::shared().parallel_for(kColumns, deflate_one);
    } else {
      for (std::size_t i = 0; i < kColumns; ++i) deflate_one(i);
    }
    for (std::size_t i = 0; i < kColumns; ++i) {
      write_column_block(out, payload[i], deflated[i]);
    }
  }

  out.overwrite_u64(body_length_at, out.size() - body_start);
  return std::move(out).take();
}

// Applies the wire transforms to gathered absolute columns, in place:
// seq becomes zigzag(per-run delta) -- delta_encode_column leaves the
// first element of each run absolute, which is exactly the reference
// writer's "prev resets to 0 at a run boundary"; value_start becomes
// zigzag(whole-segment delta).  All arithmetic is wrapping u64, the same
// bit patterns the record-major writer produces through int64 math.
void transform_columns(SegmentColumns& c) {
  std::size_t i = 0;
  for (const auto& run : c.runs) {
    delta_encode_column(c.seq.data() + i,
                        static_cast<std::size_t>(run.length));
    i += static_cast<std::size_t>(run.length);
  }
  zigzag_encode_column(c.seq.data(), c.count);
  delta_encode_column(c.vstart.data(), c.count);
  zigzag_encode_column(c.vstart.data(), c.count);
  zigzag_encode_column(c.vend.data(), c.count);
}

// Column-first v4/v5 body: one gather pass (intern + widen + pack flags +
// run detection), the SIMD transform passes, then batched emission.
std::vector<std::uint8_t> encode_trace_columnar(
    const monitor::CollectedLogs& logs, std::uint32_t version) {
  SegmentColumns c;
  c.epoch = logs.epoch;
  c.dropped = logs.dropped;

  FastStringTable table;
  c.domains.reserve(logs.domains.size());
  for (const auto& d : logs.domains) {
    c.domains.push_back({table.id_of(d.identity.process_name),
                         table.id_of(d.identity.node_name),
                         table.id_of(d.identity.processor_type),
                         d.record_count,
                         static_cast<std::uint8_t>(d.mode)});
  }

  const auto& recs = logs.records;
  const std::size_t n = recs.size();
  c.count = n;
  c.seq.resize(n);
  auto& flags1 = c.flags1_storage;
  auto& flags2 = c.flags2_storage;
  flags1.resize(n);
  flags2.resize(n);
  c.iface.resize(n);
  c.func.resize(n);
  c.object_key.resize(n);
  c.process.resize(n);
  c.node.resize(n);
  c.type.resize(n);
  c.thread_ordinal.resize(n);
  c.vstart.resize(n);
  c.vend.resize(n);

  // Intern order must match the reference writer exactly (iface, func,
  // process, node, type per record, after all domains) -- id assignment is
  // part of the byte-identity contract.
  InternMemo m_iface, m_func, m_process, m_node, m_type;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& r = recs[i];
    c.iface[i] = m_iface.get(r.interface_name, table);
    c.func[i] = m_func.get(r.function_name, table);
    c.process[i] = m_process.get(r.process_name, table);
    c.node[i] = m_node.get(r.node_name, table);
    c.type[i] = m_type.get(r.processor_type, table);
    c.seq[i] = r.seq;
    flags1[i] = pack_flags1(r);
    flags2[i] = static_cast<std::uint8_t>(
        static_cast<std::uint8_t>(r.mode) |
        (r.spawned_chain.is_nil() ? 0 : 4) |
        static_cast<std::uint8_t>(r.sample_rate_index << 3));
    if (!r.spawned_chain.is_nil()) {
      c.spawned_storage.push_back(r.spawned_chain);
    }
    c.object_key[i] = r.object_key;
    c.thread_ordinal[i] = r.thread_ordinal;
    c.vstart[i] = static_cast<std::uint64_t>(r.value_start);
    c.vend[i] = static_cast<std::uint64_t>(r.value_end) -
                static_cast<std::uint64_t>(r.value_start);
    if (i == 0 || !(r.chain == recs[i - 1].chain)) {
      c.runs.push_back({r.chain, 1});
    } else {
      ++c.runs.back().length;
    }
  }
  c.table = table.strings();
  c.flags1 = flags1;
  c.flags2 = flags2;
  c.spawned = c.spawned_storage;

  transform_columns(c);
  return emit_segment_columnar(c, version);
}

// Fills SegmentColumns from an already-columnar bundle: ids widen to u64,
// seq/value columns copy out for the in-place transforms, flag and spawned
// columns are borrowed as-is.  Validates everything emit indexes so a
// malformed bundle throws TraceIoError instead of reading out of bounds.
SegmentColumns gather_from_bundle(const ColumnBundle& cols) {
  const std::size_t n = cols.count;
  auto require = [](bool ok, const char* what) {
    if (!ok) throw TraceIoError(what);
  };
  require(cols.seq.size() == n && cols.flags1.size() == n &&
              cols.flags2.size() == n && cols.iface.size() == n &&
              cols.func.size() == n && cols.process.size() == n &&
              cols.node.size() == n && cols.type.size() == n &&
              cols.object_key.size() == n &&
              cols.thread_ordinal.size() == n &&
              cols.value_start.size() == n && cols.value_end.size() == n,
          "column bundle: column sizes do not match count");
  std::uint64_t covered = 0;
  for (const auto& run : cols.runs) covered += run.length;
  require(covered == n, "column bundle: chain runs do not cover records");
  std::size_t spawn_flags = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (cols.flags2[i] & 4) ++spawn_flags;
  }
  require(spawn_flags == cols.spawned.size(),
          "column bundle: spawned column does not match flags");

  SegmentColumns c;
  c.epoch = cols.epoch;
  c.dropped = cols.dropped;
  c.table = cols.table;
  c.count = n;
  c.flags1 = cols.flags1;
  c.flags2 = cols.flags2;
  c.spawned = cols.spawned;

  // Domain identities are resolved strings in a bundle; recover their table
  // ids (first occurrence wins, matching the encoder's dedup).
  std::unordered_map<std::string_view, std::uint64_t> table_ids;
  for (std::size_t i = 0; i < cols.table.size(); ++i) {
    table_ids.try_emplace(cols.table[i], i);
  }
  auto id_of = [&](std::string_view s) {
    const auto it = table_ids.find(s);
    if (it == table_ids.end()) {
      throw TraceIoError(
          "column bundle: domain identity string missing from table");
    }
    return it->second;
  };
  c.domains.reserve(cols.domains.size());
  for (const auto& d : cols.domains) {
    c.domains.push_back({id_of(d.identity.process_name),
                         id_of(d.identity.node_name),
                         id_of(d.identity.processor_type),
                         d.record_count,
                         static_cast<std::uint8_t>(d.mode)});
  }

  c.runs.reserve(cols.runs.size());
  for (const auto& run : cols.runs) c.runs.push_back({run.chain, run.length});

  c.seq = cols.seq;  // absolute; transform_columns deltas in place
  auto widen = [&](const std::vector<std::uint32_t>& in,
                   std::vector<std::uint64_t>& out, bool is_id) {
    out.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (is_id && in[i] >= cols.table.size()) {
        throw TraceIoError("column bundle: string id out of range");
      }
      out[i] = in[i];
    }
  };
  widen(cols.iface, c.iface, true);
  widen(cols.func, c.func, true);
  widen(cols.process, c.process, true);
  widen(cols.node, c.node, true);
  widen(cols.type, c.type, true);
  c.object_key = cols.object_key;
  c.thread_ordinal = cols.thread_ordinal;
  c.vstart.resize(n);
  c.vend.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    c.vstart[i] = static_cast<std::uint64_t>(cols.value_start[i]);
    c.vend[i] = static_cast<std::uint64_t>(cols.value_end[i]) -
                static_cast<std::uint64_t>(cols.value_start[i]);
  }
  return c;
}

// The fixed wire size of one v2/v3 record body (see encode_trace_v3).
constexpr std::size_t kRecordWireBytes = 96;
// Per-domain v2/v3 wire size: three string ids, the mode byte, the count.
constexpr std::size_t kDomainWireBytes = 21;
// Minimum v4 bytes per record: one byte in each of the twelve dense
// columns.  Guards count fields against absurd allocations.
constexpr std::size_t kMinV4RecordBytes = 12;
// Minimum v4 bytes per chain run: chain (16) plus a length varint.
constexpr std::size_t kRunWireBytes = 17;
// Minimum v4 bytes per domain entry: three id varints, mode, count varint.
constexpr std::size_t kMinV4DomainBytes = 6;

// Walks one segment's structure without materializing it and returns its
// byte length.  WireError (underflow) means the segment's tail has not been
// written yet; TraceIoError means structural corruption.  v4 segments carry
// their body length in the header, so skimming them is a single skip; v2/v3
// still walk the structure.
std::size_t skim_segment(WireCursor& in) {
  const std::size_t start = in.position();
  if (in.read_u32() != kMagic) throw TraceIoError("not a causeway trace");
  const std::uint32_t version = in.read_u32();
  if (version < kMinVersion || version > kMaxVersion) {
    throw TraceIoError("unsupported trace version " + std::to_string(version));
  }
  if (version >= 4) {
    in.skip(in.read_u64());
    return in.position() - start;
  }
  in.skip(16);  // epoch + dropped words (v2 files predate the repo history)
  const std::uint32_t domain_count = in.read_u32();
  if (domain_count > in.remaining() / kDomainWireBytes) {
    throw WireError("wire underflow");
  }
  in.skip(domain_count * kDomainWireBytes);
  const std::uint32_t string_count = in.read_u32();
  for (std::uint32_t i = 0; i < string_count; ++i) in.skip(in.read_u32());
  const std::uint64_t record_count = in.read_u64();
  if (record_count > in.remaining() / kRecordWireBytes) {
    throw WireError("wire underflow");
  }
  in.skip(static_cast<std::size_t>(record_count) * kRecordWireBytes);
  return in.position() - start;
}

// Walks (and validates) one directory trailer block, returning its byte
// length.  Underflow (writer mid-append of the trailer) stays a WireError;
// a malformed block is structural corruption.
std::size_t skim_trailer(WireCursor& in) {
  const std::size_t start = in.position();
  if (in.read_u32() != kDirMagic) throw TraceIoError("corrupt trace directory");
  if (in.read_u32() != kDirVersion) {
    throw TraceIoError("unsupported trace directory version");
  }
  const std::uint64_t count = in.read_varint();
  if (count > in.remaining()) throw WireError("wire underflow");
  for (std::uint64_t i = 0; i < count; ++i) in.read_varint();
  const std::uint64_t total = in.read_u64();
  if (in.read_u32() != kEndMagic) throw TraceIoError("corrupt trace directory");
  const std::size_t length = in.position() - start;
  if (total != length) throw TraceIoError("corrupt trace directory");
  return length;
}

// One complete block within a byte buffer: a record segment, or the
// directory trailer (metadata -- skipped at decode, consumed by tails).
struct Extent {
  std::size_t offset{0};
  std::size_t length{0};
  bool is_segment{true};
};

// Sequential boundary scan: segments (and trailer blocks) from the front.
// `stop_on_underflow` is the tail-following mode: an incomplete block ends
// the scan instead of propagating, leaving the bytes pending.
std::vector<Extent> skim_extents(std::span<const std::uint8_t> bytes,
                                 bool stop_on_underflow) {
  std::vector<Extent> extents;
  WireCursor in(bytes.data(), bytes.size());
  while (in.remaining() > 0) {
    const std::size_t offset = in.position();
    try {
      WireCursor probe = in;
      if (probe.read_u32() == kDirMagic) {
        extents.push_back({offset, skim_trailer(in), false});
      } else {
        extents.push_back({offset, skim_segment(in), true});
      }
    } catch (const WireError&) {
      if (stop_on_underflow) break;
      throw;
    }
  }
  return extents;
}

// Fast path: a closed file ends with the directory trailer, so every
// boundary comes from the footer without touching segment bytes.  Returns
// nullopt when no trailer is present (still-growing or pre-directory file);
// throws TraceIoError when a trailer is present but inconsistent (lengths
// that run past the file, a block that does not parse).
std::optional<std::vector<Extent>> extents_from_directory(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 16) return std::nullopt;
  WireCursor tail(bytes.data() + bytes.size() - 12, 12);
  const std::uint64_t total = tail.read_u64();
  if (tail.read_u32() != kEndMagic) return std::nullopt;
  if (total > bytes.size() || total < 21) {
    throw TraceIoError("corrupt trace directory");
  }
  const std::size_t trailer_start = bytes.size() - static_cast<std::size_t>(total);
  WireCursor in(bytes.data() + trailer_start, static_cast<std::size_t>(total));
  try {
    if (in.read_u32() != kDirMagic) {
      throw TraceIoError("corrupt trace directory");
    }
    if (in.read_u32() != kDirVersion) {
      throw TraceIoError("unsupported trace directory version");
    }
    const std::uint64_t count = in.read_varint();
    if (count > total) throw TraceIoError("corrupt trace directory");
    std::vector<std::uint64_t> lengths(static_cast<std::size_t>(count));
    std::uint64_t sum = 0;
    for (auto& length : lengths) {
      length = in.read_varint();
      if (length < 16 || length > trailer_start - sum) {
        throw TraceIoError("trace directory offset past end of file");
      }
      sum += length;
    }
    // A trailer only knows the segments its own writer appended, so a
    // concatenated trace (`cat a.cwt b.cwt`) ends with a trailer covering
    // just the final file's bytes.  Skim the prefix it does not describe
    // (interior trailers come back as metadata extents) and splice the
    // directory's extents in after it.
    const std::size_t base = trailer_start - static_cast<std::size_t>(sum);
    std::vector<Extent> extents;
    if (base > 0) {
      extents = skim_extents(bytes.first(base), /*stop_on_underflow=*/false);
    }
    extents.reserve(extents.size() + lengths.size() + 1);
    std::size_t offset = base;
    for (const std::uint64_t length : lengths) {
      extents.push_back({offset, static_cast<std::size_t>(length), true});
      offset += static_cast<std::size_t>(length);
    }
    extents.push_back({trailer_start, static_cast<std::size_t>(total), false});
    return extents;
  } catch (const WireError& e) {
    throw TraceIoError(std::string("corrupt trace directory: ") + e.what());
  }
}

// Decodes one v2/v3 segment body (cursor past magic + version).
monitor::CollectedLogs decode_segment_v2v3(WireCursor& in,
                                           std::uint32_t version) {
  monitor::CollectedLogs logs;
  if (version >= 3) {
    logs.epoch = in.read_u64();
    logs.dropped = in.read_u64();
  }

  struct RawDomain {
    std::uint32_t process, node, type;
    std::uint8_t mode;
    std::uint64_t count;
  };
  std::vector<RawDomain> raw_domains(in.read_u32());
  for (auto& d : raw_domains) {
    d.process = in.read_u32();
    d.node = in.read_u32();
    d.type = in.read_u32();
    d.mode = in.read_u8();
    d.count = in.read_u64();
  }

  // The encoder's table is deduplicated, so the strings go straight into
  // the bundle pool -- no per-string interner probe.
  std::vector<std::string_view> strings(in.read_u32());
  for (auto& s : strings) s = logs.own_string(in.read_view(in.read_u32()));
  auto str = [&](std::uint32_t id) -> std::string_view {
    if (id >= strings.size()) throw TraceIoError("string id out of range");
    return strings[id];
  };

  for (const auto& d : raw_domains) {
    logs.domains.push_back(
        {monitor::DomainIdentity{std::string(str(d.process)),
                                 std::string(str(d.node)),
                                 std::string(str(d.type))},
         static_cast<monitor::ProbeMode>(d.mode), d.count});
  }

  const std::uint64_t count = in.read_u64();
  if (count > in.remaining() / kRecordWireBytes) {
    throw WireError("wire underflow");
  }
  logs.records.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    monitor::TraceRecord r;
    r.chain.hi = in.read_u64();
    r.chain.lo = in.read_u64();
    r.seq = in.read_u64();
    const auto event = in.read_u8();
    const auto kind = in.read_u8();
    const auto outcome = in.read_u8();
    r.event = static_cast<monitor::EventKind>(event);
    r.kind = static_cast<monitor::CallKind>(kind);
    r.outcome = static_cast<monitor::CallOutcome>(outcome);
    r.spawned_chain.hi = in.read_u64();
    r.spawned_chain.lo = in.read_u64();
    r.interface_name = str(in.read_u32());
    r.function_name = str(in.read_u32());
    r.object_key = in.read_u64();
    r.process_name = str(in.read_u32());
    r.node_name = str(in.read_u32());
    r.processor_type = str(in.read_u32());
    r.thread_ordinal = in.read_u64();
    const auto mode_byte = in.read_u8();
    r.mode = static_cast<monitor::ProbeMode>(mode_byte & 3);
    r.sample_rate_index = static_cast<std::uint8_t>(mode_byte >> 2);
    // Whole bytes here, a few bits in the v4 flags and the database's rows.
    if (event > 7 || kind > 3 || outcome > 3 || r.sample_rate_index > 31) {
      throw WireError("record flags out of range");
    }
    r.value_start = in.read_i64();
    r.value_end = in.read_i64();
    logs.records.push_back(r);
  }
  return logs;
}

// Decodes one v4 columnar segment body (cursor past magic + version + body
// length, spanning exactly the body) into column form: the record section
// stays columnar end to end -- every dense column decodes in one batched
// kernel pass (common/wire.h), runs keep the chain UUID once, string ids
// stay unresolved table indexes.  No record-major assembly happens here;
// ingest scatters the columns straight into the shards, and callers that
// want records assemble via assemble_logs below.  Validation order and
// error text are independent of the active kernel: every non-well-formed
// byte sequence routes through the shared strict scalar decoder.
ColumnBundle decode_segment_v4_columns(WireCursor& in,
                                       std::uint32_t version) {
  // v5 wraps each dense column in a column block (common/wire.h): the
  // payload -- identical bytes to v4, possibly deflated -- is read through
  // a per-column sub-cursor that must land exactly on its end.  For v4 the
  // helpers hand back the main cursor and the shared decode body below is
  // untouched.  `max_decoded` bounds are structural (10 varint bytes per
  // record, one flag byte per record, 16 bytes per possible spawn), so a
  // block advertising more is rejected before any allocation.
  const bool column_blocks = version >= kTraceFormatV5;
  std::vector<std::uint8_t> block_scratch;
  std::optional<WireCursor> block_cursor;
  auto col_begin = [&](std::size_t max_decoded) -> WireCursor& {
    if (!column_blocks) return in;
    block_cursor.emplace(read_column_block(in, max_decoded, block_scratch));
    return *block_cursor;
  };
  auto col_end = [&]() {
    if (column_blocks && block_cursor->remaining() != 0) {
      throw TraceIoError("trailing bytes in trace column block");
    }
  };

  ColumnBundle cols;
  cols.epoch = in.read_u64();
  cols.dropped = in.read_u64();

  const std::uint64_t domain_count = in.read_varint();
  if (domain_count > in.remaining() / kMinV4DomainBytes) {
    throw WireError("wire underflow");
  }
  struct RawDomain {
    std::uint64_t process, node, type, count;
    std::uint8_t mode;
  };
  std::vector<RawDomain> raw_domains(
      static_cast<std::size_t>(domain_count));
  for (auto& d : raw_domains) {
    d.process = in.read_varint();
    d.node = in.read_varint();
    d.type = in.read_varint();
    d.mode = in.read_u8();
    d.count = in.read_varint();
  }

  const std::uint64_t string_count = in.read_varint();
  if (string_count > in.remaining()) throw WireError("wire underflow");
  auto& strings = cols.table;
  strings.resize(static_cast<std::size_t>(string_count));
  for (auto& s : strings) {
    s = cols.own_string(
        in.read_view(static_cast<std::size_t>(in.read_varint())));
  }
  auto str = [&](std::uint64_t id) -> std::string_view {
    if (id >= strings.size()) throw TraceIoError("string id out of range");
    return strings[static_cast<std::size_t>(id)];
  };

  for (const auto& d : raw_domains) {
    cols.domains.push_back(
        {monitor::DomainIdentity{std::string(str(d.process)),
                                 std::string(str(d.node)),
                                 std::string(str(d.type))},
         static_cast<monitor::ProbeMode>(d.mode),
         static_cast<std::size_t>(d.count)});
  }

  const std::uint64_t count64 = in.read_varint();
  // Pre-allocation bound on the record count.  v4 lower-bounds each
  // record's wire footprint directly (kMinV4RecordBytes).  v5's deflated
  // columns can legitimately shrink far below that, so the bound backs
  // off by deflate's maximum expansion (~1032:1): the thirteen column
  // blocks still carry at least ~13 compressed bytes per 1032 records,
  // so remaining*80 safely over-approximates the representable count
  // while still rejecting a lying header before any resize().
  const std::uint64_t max_count =
      column_blocks ? static_cast<std::uint64_t>(in.remaining()) * 80
                    : in.remaining() / kMinV4RecordBytes;
  if (count64 > max_count) {
    throw WireError("wire underflow");
  }
  const auto count = static_cast<std::size_t>(count64);
  cols.count = count;
  const std::uint64_t run_count = in.read_varint();
  if (run_count > count64 || run_count > in.remaining() / kRunWireBytes) {
    throw TraceIoError("chain runs do not cover records");
  }

  auto& runs = cols.runs;
  runs.resize(static_cast<std::size_t>(run_count));
  {
    std::uint64_t covered = 0;
    for (auto& run : runs) {
      run.chain.hi = in.read_u64();
      run.chain.lo = in.read_u64();
      run.length = in.read_varint();
      if (run.length > count64 - covered) {
        throw TraceIoError("chain runs do not cover records");
      }
      covered += run.length;
    }
    if (covered != count64) {
      throw TraceIoError("chain runs do not cover records");
    }
  }

  // seq: one batched zig-zag decode of the whole column, then a run-aware
  // prefix sum in place (deltas restart at every run boundary -- which is
  // why the kernels leave accumulation to the caller).
  cols.seq.resize(count);
  {
    WireCursor& cin = col_begin(count * 10);
    cin.read_svarint_column(
        reinterpret_cast<std::int64_t*>(cols.seq.data()), count);
    col_end();
  }
  {
    std::uint64_t* seq = cols.seq.data();
    std::size_t i = 0;
    for (const auto& run : runs) {
      std::uint64_t prev = 0;
      for (std::uint64_t j = 0; j < run.length; ++j, ++i) {
        prev += seq[i];
        seq[i] = prev;
      }
    }
  }

  // Flag columns are raw bytes on the wire; copy them out so the bundle
  // outlives the input mapping.
  {
    WireCursor& cin = col_begin(count);
    const std::string_view flags1 = cin.read_view(count);
    cols.flags1.assign(flags1.begin(), flags1.end());
    col_end();
  }
  {
    WireCursor& cin = col_begin(count);
    const std::string_view flags2 = cin.read_view(count);
    cols.flags2.assign(flags2.begin(), flags2.end());
    col_end();
  }

  // Sparse spawned chains, walked run-major so each run records where its
  // spawn entries start (what lets a shard expand its runs independently).
  {
    WireCursor& cin = col_begin(count * 16);
    std::size_t i = 0;
    for (auto& run : runs) {
      run.spawn_base = static_cast<std::uint32_t>(cols.spawned.size());
      for (std::uint64_t j = 0; j < run.length; ++j, ++i) {
        if (cols.flags2[i] & 4) {
          Uuid u;
          u.hi = cin.read_u64();
          u.lo = cin.read_u64();
          cols.spawned.push_back(u);
        }
      }
    }
    col_end();
  }

  // String-id columns: batched raw decode, then validate + narrow in index
  // order (the first out-of-range id throws, exactly as a per-record
  // decode-then-check loop would).
  std::vector<std::uint64_t> scratch(count);
  auto read_id_column = [&](std::vector<std::uint32_t>& col) {
    col.resize(count);
    WireCursor& cin = col_begin(count * 10);
    cin.read_varint_column(scratch.data(), count);
    col_end();
    for (std::size_t i = 0; i < count; ++i) {
      if (scratch[i] >= strings.size()) {
        throw TraceIoError("string id out of range");
      }
      col[i] = static_cast<std::uint32_t>(scratch[i]);
    }
  };
  auto read_u64_column = [&](std::vector<std::uint64_t>& col) {
    col.resize(count);
    WireCursor& cin = col_begin(count * 10);
    cin.read_varint_column(col.data(), count);
    col_end();
  };
  auto read_s64_column = [&](std::vector<std::int64_t>& col) {
    col.resize(count);
    WireCursor& cin = col_begin(count * 10);
    cin.read_svarint_column(col.data(), count);
    col_end();
  };
  read_id_column(cols.iface);
  read_id_column(cols.func);
  read_u64_column(cols.object_key);
  read_id_column(cols.process);
  read_id_column(cols.node);
  read_id_column(cols.type);
  read_u64_column(cols.thread_ordinal);

  // Timestamp columns: batched zig-zag decode, then the SIMD prefix-sum
  // pass (start) and the start-relative reconstruction (end).
  read_s64_column(cols.value_start);
  prefix_sum_column(cols.value_start.data(), count);
  read_s64_column(cols.value_end);
  for (std::size_t i = 0; i < count; ++i) {
    cols.value_end[i] += cols.value_start[i];
  }

  if (in.remaining() != 0) {
    throw TraceIoError("trailing bytes in trace segment");
  }
  return cols;
}

// Expands a column bundle into the record-major CollectedLogs form: runs
// expanded, string ids resolved against the table, spawned chains slotted
// back in.  The string pool is shared with the bundle, not copied.  Only
// callers that need assembled records pay for this (decode_trace_segments,
// decode_trace_segment); the ingest path never does.
monitor::CollectedLogs assemble_logs(ColumnBundle&& cols) {
  monitor::CollectedLogs logs;
  logs.epoch = cols.epoch;
  logs.dropped = cols.dropped;
  logs.domains = std::move(cols.domains);
  logs.strings = cols.strings;  // table views stay valid -- shared pool
  auto& recs = logs.records;
  recs.reserve(cols.count);
  std::size_t i = 0;
  std::size_t next_spawn = 0;
  for (const auto& run : cols.runs) {
    for (std::uint64_t j = 0; j < run.length; ++j, ++i) {
      monitor::TraceRecord r;
      r.chain = run.chain;
      r.seq = cols.seq[i];
      const std::uint8_t f1 = cols.flags1[i];
      r.event = static_cast<monitor::EventKind>(f1 & 7);
      r.kind = static_cast<monitor::CallKind>((f1 >> 3) & 3);
      r.outcome = static_cast<monitor::CallOutcome>((f1 >> 5) & 3);
      const std::uint8_t f2 = cols.flags2[i];
      r.mode = static_cast<monitor::ProbeMode>(f2 & 3);
      if (f2 & 4) r.spawned_chain = cols.spawned[next_spawn++];
      r.sample_rate_index = static_cast<std::uint8_t>(f2 >> 3);
      r.interface_name = cols.table[cols.iface[i]];
      r.function_name = cols.table[cols.func[i]];
      r.object_key = cols.object_key[i];
      r.process_name = cols.table[cols.process[i]];
      r.node_name = cols.table[cols.node[i]];
      r.processor_type = cols.table[cols.type[i]];
      r.thread_ordinal = cols.thread_ordinal[i];
      r.value_start = cols.value_start[i];
      r.value_end = cols.value_end[i];
      recs.push_back(r);
    }
  }
  return logs;
}

// One decoded segment in whichever form its version produced: v4 stays
// columnar (the ingest path never assembles records), v2/v3 decode
// record-major as always.  Either form is self-contained -- strings copied
// into bundle-owned pools -- so it can outlive the input bytes (an mmap
// unmapped after the poll), cross threads, and be ingested later (in epoch
// order).
struct Staged {
  std::optional<ColumnBundle> columns;
  monitor::CollectedLogs logs;
  std::size_t records() const {
    return columns ? columns->count : logs.records.size();
  }
};

Staged decode_segment_staged(WireCursor& in) {
  Staged s;
  if (in.read_u32() != kMagic) throw TraceIoError("not a causeway trace");
  const std::uint32_t version = in.read_u32();
  if (version < kMinVersion || version > kMaxVersion) {
    throw TraceIoError("unsupported trace version " + std::to_string(version));
  }
  if (version >= 4) {
    const std::uint64_t body = in.read_u64();
    if (body != in.remaining()) {
      throw TraceIoError("trace segment length mismatch");
    }
    s.columns = decode_segment_v4_columns(in, version);
  } else {
    s.logs = decode_segment_v2v3(in, version);
  }
  return s;
}

// Record-major decode of one segment, whatever its version.
monitor::CollectedLogs decode_segment_logs(WireCursor& in) {
  Staged s = decode_segment_staged(in);
  if (s.columns) return assemble_logs(std::move(*s.columns));
  return std::move(s.logs);
}

// Below this many total bytes the pool dispatch costs more than the decode;
// single-segment inputs are always decoded inline.
constexpr std::size_t kParallelDecodeMinBytes = 32 * 1024;

// Decodes every segment extent into its own staging bundle -- concurrently
// on the shared WorkerPool when there is enough work -- leaving per-segment
// failures in `errors` so the caller can commit the clean prefix in epoch
// order before rethrowing.  Trailer extents stage nothing.
void decode_staged(const std::uint8_t* base, const std::vector<Extent>& extents,
                   std::vector<Staged>& staged,
                   std::vector<std::exception_ptr>& errors) {
  staged.resize(extents.size());
  errors.assign(extents.size(), nullptr);
  std::size_t total_bytes = 0;
  std::size_t segment_count = 0;
  for (const auto& e : extents) {
    if (!e.is_segment) continue;
    total_bytes += e.length;
    ++segment_count;
  }
  auto decode_one = [&](std::size_t k) {
    if (!extents[k].is_segment) return;
    try {
      WireCursor cursor(base + extents[k].offset, extents[k].length);
      staged[k] = decode_segment_staged(cursor);
    } catch (...) {
      errors[k] = std::current_exception();
    }
  };
  if (segment_count >= 2 && total_bytes >= kParallelDecodeMinBytes &&
      WorkerPool::shared().concurrency() >= 2) {
    WorkerPool::shared().parallel_for(extents.size(), decode_one);
  } else {
    for (std::size_t k = 0; k < extents.size(); ++k) decode_one(k);
  }
}

std::vector<Extent> scan_extents(std::span<const std::uint8_t> bytes) {
  try {
    if (auto dir = extents_from_directory(bytes)) return std::move(*dir);
    return skim_extents(bytes, /*stop_on_underflow=*/false);
  } catch (const WireError& e) {
    throw TraceIoError(std::string("corrupt trace: ") + e.what());
  }
}

[[noreturn]] void rethrow_as_trace_error(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const WireError& e) {
    throw TraceIoError(std::string("corrupt trace: ") + e.what());
  }
}

// A read-only view of an entire file: mmap when the platform has it (the
// zero-copy path -- segment decode reads straight out of the page cache),
// a read() into owned memory otherwise.  CAUSEWAY_NO_MMAP=1 forces the
// fallback (useful to A/B the two paths on one machine).
class FileView {
 public:
  FileView() = default;
  ~FileView() {
#if defined(CAUSEWAY_HAS_MMAP)
    if (map_ != nullptr) ::munmap(map_, map_length_);
#endif
  }
  FileView(const FileView&) = delete;
  FileView& operator=(const FileView&) = delete;

  // Opens and maps (or reads) the whole file.  Returns false when the file
  // cannot be opened (not created yet); throws TraceIoError on read errors
  // after a successful open.
  bool open(const std::string& path) {
#if defined(CAUSEWAY_HAS_MMAP)
    if (!mmap_disabled()) {
      const int fd = ::open(path.c_str(), O_RDONLY);
      if (fd < 0) return false;
      struct ::stat st = {};
      if (::fstat(fd, &st) != 0) {
        ::close(fd);
        throw TraceIoError("cannot stat '" + path + "'");
      }
      const auto size = static_cast<std::size_t>(st.st_size);
      if (size == 0) {
        ::close(fd);
        view_ = {};
        return true;
      }
      void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
      ::close(fd);
      if (map != MAP_FAILED) {
        map_ = map;
        map_length_ = size;
        view_ = {static_cast<const std::uint8_t*>(map), size};
        return true;
      }
      // mmap refused (exotic filesystem); fall through to read().
    }
#endif
#if defined(CAUSEWAY_HAS_POSIX_IO)
    // read() fallback through the shared EINTR-safe short-read loop: a
    // signal mid-read (or a filesystem serving partial reads) can never
    // truncate the view or surface as a spurious failure.
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return false;
    struct ::stat st = {};
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      throw TraceIoError("cannot stat '" + path + "'");
    }
    owned_.resize(static_cast<std::size_t>(st.st_size));
    const long got = owned_.empty()
                         ? 0
                         : io_read_full(fd, owned_.data(), owned_.size());
    ::close(fd);
    if (got < 0) throw TraceIoError("read error on '" + path + "'");
    // A writer may still be appending; the bytes that existed at open are
    // the view (like the mmap path, which maps the fstat'd size).
    owned_.resize(static_cast<std::size_t>(got));
    view_ = owned_;
    return true;
#else
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    owned_.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    if (in.bad()) throw TraceIoError("read error on '" + path + "'");
    view_ = owned_;
    return true;
#endif
  }

  std::span<const std::uint8_t> bytes() const { return view_; }

 private:
  static bool mmap_disabled() {
    const char* env = std::getenv("CAUSEWAY_NO_MMAP");
    return env != nullptr && *env != '\0' && *env != '0';
  }

  std::span<const std::uint8_t> view_;
  std::vector<std::uint8_t> owned_;
#if defined(CAUSEWAY_HAS_MMAP)
  void* map_{nullptr};
  std::size_t map_length_{0};
#endif
};

// The directory trailer block TraceWriter::close appends (and reindex
// retrofits): CWTD, version, segment lengths, total block size, CWTE.
std::vector<std::uint8_t> encode_directory_trailer(
    const std::vector<std::uint64_t>& segment_lengths) {
  WireBuffer trailer;
  trailer.write_u32(kDirMagic);
  trailer.write_u32(kDirVersion);
  trailer.write_varint(segment_lengths.size());
  for (const std::uint64_t length : segment_lengths) {
    trailer.write_varint(length);
  }
  trailer.write_u64(trailer.size() + 12);  // whole block incl. this + magic
  trailer.write_u32(kEndMagic);
  return std::move(trailer).take();
}

}  // namespace

std::vector<std::uint8_t> encode_trace(const monitor::CollectedLogs& logs,
                                       std::uint32_t version) {
  if (version == kTraceFormatV3) return encode_trace_v3(logs);
  if (version == kTraceFormatV4 || version == kTraceFormatV5) {
    return encode_trace_columnar(logs, version);
  }
  throw TraceIoError("unwritable trace version " + std::to_string(version));
}

std::vector<std::uint8_t> encode_trace_recmajor(
    const monitor::CollectedLogs& logs, std::uint32_t version) {
  if (version == kTraceFormatV3) return encode_trace_v3(logs);
  if (version == kTraceFormatV4) return encode_trace_v4_recmajor(logs);
  throw TraceIoError("unwritable trace version " + std::to_string(version));
}

std::vector<std::uint8_t> encode_trace_columns(const ColumnBundle& cols,
                                               std::uint32_t version) {
  if (version != kTraceFormatV4 && version != kTraceFormatV5) {
    throw TraceIoError("no columnar form for trace version " +
                       std::to_string(version));
  }
  SegmentColumns c = gather_from_bundle(cols);
  transform_columns(c);
  return emit_segment_columnar(c, version);
}

namespace {

// Packs one segment per input index -- on the shared WorkerPool when there
// is enough work -- committing results in input order.  Each segment's
// bytes depend only on its own input (kernel choice never changes output),
// so the result is byte-identical to a serial loop across worker counts.
template <typename EncodeOne>
std::vector<std::vector<std::uint8_t>> encode_stream_impl(
    std::size_t bundles, std::size_t total_records, EncodeOne&& encode_one) {
  std::vector<std::vector<std::uint8_t>> out(bundles);
  auto pack_one = [&](std::size_t k) { out[k] = encode_one(k); };
  if (bundles >= 2 && total_records >= kParallelEncodeMinRecords &&
      WorkerPool::shared().concurrency() >= 2) {
    WorkerPool::shared().parallel_for(bundles, pack_one);
  } else {
    for (std::size_t k = 0; k < bundles; ++k) pack_one(k);
  }
  return out;
}

}  // namespace

std::vector<std::vector<std::uint8_t>> encode_trace_stream(
    std::span<const monitor::CollectedLogs> bundles, std::uint32_t version) {
  std::size_t total = 0;
  for (const auto& b : bundles) total += b.records.size();
  return encode_stream_impl(bundles.size(), total, [&](std::size_t k) {
    return encode_trace(bundles[k], version);
  });
}

std::vector<std::vector<std::uint8_t>> encode_trace_columns_stream(
    std::span<const ColumnBundle> bundles) {
  std::size_t total = 0;
  for (const auto& b : bundles) total += b.count;
  return encode_stream_impl(bundles.size(), total, [&](std::size_t k) {
    return encode_trace_columns(bundles[k]);
  });
}

std::size_t decode_trace(std::span<const std::uint8_t> bytes,
                         LogDatabase& db) {
  const std::vector<Extent> extents = scan_extents(bytes);

  std::vector<Staged> staged;
  std::vector<std::exception_ptr> errors;
  decode_staged(bytes.data(), extents, staged, errors);

  // Commit in segment order: each bundle is one database generation, the
  // same sequence a serial segment-by-segment decode produces.  v4 bundles
  // ingest in column form -- no record-major staging array on this path.
  std::size_t total = 0;
  for (std::size_t k = 0; k < extents.size(); ++k) {
    if (errors[k]) rethrow_as_trace_error(errors[k]);
    if (!extents[k].is_segment) continue;
    if (staged[k].columns) {
      db.ingest(*staged[k].columns);
    } else {
      db.ingest(staged[k].logs);
    }
    total += staged[k].records();
  }
  return total;
}

std::vector<monitor::CollectedLogs> decode_trace_segments(
    std::span<const std::uint8_t> bytes) {
  const std::vector<Extent> extents = scan_extents(bytes);

  std::vector<Staged> staged;
  std::vector<std::exception_ptr> errors;
  decode_staged(bytes.data(), extents, staged, errors);

  std::vector<monitor::CollectedLogs> out;
  out.reserve(extents.size());
  for (std::size_t k = 0; k < extents.size(); ++k) {
    if (errors[k]) rethrow_as_trace_error(errors[k]);
    if (!extents[k].is_segment) continue;
    if (staged[k].columns) {
      out.push_back(assemble_logs(std::move(*staged[k].columns)));
    } else {
      out.push_back(std::move(staged[k].logs));
    }
  }
  return out;
}

std::vector<ColumnBundle> decode_trace_columns(
    std::span<const std::uint8_t> bytes) {
  const std::vector<Extent> extents = scan_extents(bytes);

  std::vector<Staged> staged;
  std::vector<std::exception_ptr> errors;
  decode_staged(bytes.data(), extents, staged, errors);

  std::vector<ColumnBundle> out;
  out.reserve(extents.size());
  for (std::size_t k = 0; k < extents.size(); ++k) {
    if (errors[k]) rethrow_as_trace_error(errors[k]);
    if (!extents[k].is_segment) continue;
    if (!staged[k].columns) {
      throw TraceIoError("not a columnar (v4) trace segment");
    }
    out.push_back(std::move(*staged[k].columns));
  }
  return out;
}

bool probe_trace_block(std::span<const std::uint8_t> bytes,
                       std::size_t& length, bool& is_segment) {
  WireCursor in(bytes.data(), bytes.size());
  try {
    WireCursor probe = in;
    if (probe.read_u32() == kDirMagic) {
      length = skim_trailer(in);
      is_segment = false;
    } else {
      length = skim_segment(in);
      is_segment = true;
    }
    return true;
  } catch (const WireError&) {
    return false;  // incomplete prefix: read more and retry
  }
}

monitor::CollectedLogs decode_trace_segment(
    std::span<const std::uint8_t> segment) {
  try {
    WireCursor in(segment.data(), segment.size());
    return decode_segment_logs(in);
  } catch (const WireError& e) {
    throw TraceIoError(std::string("corrupt trace segment: ") + e.what());
  }
}

ColumnBundle decode_trace_segment_columns(
    std::span<const std::uint8_t> segment) {
  try {
    WireCursor in(segment.data(), segment.size());
    Staged s = decode_segment_staged(in);
    if (!s.columns) {
      throw TraceIoError("not a columnar (v4) trace segment");
    }
    return std::move(*s.columns);
  } catch (const WireError& e) {
    throw TraceIoError(std::string("corrupt trace segment: ") + e.what());
  }
}

ColumnBundle columns_from_logs(const monitor::CollectedLogs& logs) {
  ColumnBundle cols;
  cols.epoch = logs.epoch;
  cols.dropped = logs.dropped;
  cols.domains = logs.domains;
  // Table ids in the writers' intern order (domain identities first, then
  // iface, func, process, node, type per record), so the bundle encodes to
  // the same bytes as the records do.
  std::unordered_map<std::string_view, std::uint32_t> ids;
  auto id_of = [&](std::string_view s) {
    const auto [it, fresh] =
        ids.try_emplace(s, static_cast<std::uint32_t>(cols.table.size()));
    if (fresh) cols.table.push_back(cols.own_string(s));
    return it->second;
  };
  for (const auto& d : logs.domains) {
    id_of(d.identity.process_name);
    id_of(d.identity.node_name);
    id_of(d.identity.processor_type);
  }
  const std::size_t n = logs.records.size();
  cols.count = n;
  for (std::size_t i = 0; i < n; ++i) {
    const monitor::TraceRecord& r = logs.records[i];
    // v2/v3 carry whole bytes where the packed flag bytes have bits.
    if (static_cast<unsigned>(r.event) > 7 ||
        static_cast<unsigned>(r.kind) > 3 ||
        static_cast<unsigned>(r.outcome) > 3 ||
        static_cast<unsigned>(r.mode) > 3 || r.sample_rate_index > 31) {
      throw TraceIoError("record flags out of range for the column form");
    }
    if (i == 0 || !(r.chain == logs.records[i - 1].chain)) {
      cols.runs.push_back(
          {r.chain, 0, static_cast<std::uint32_t>(cols.spawned.size())});
    }
    ++cols.runs.back().length;
    cols.seq.push_back(r.seq);
    cols.flags1.push_back(pack_flags1(r));
    cols.flags2.push_back(static_cast<std::uint8_t>(
        static_cast<std::uint8_t>(r.mode) |
        (r.spawned_chain.is_nil() ? 0 : 4) | (r.sample_rate_index << 3)));
    if (!r.spawned_chain.is_nil()) cols.spawned.push_back(r.spawned_chain);
    cols.iface.push_back(id_of(r.interface_name));
    cols.func.push_back(id_of(r.function_name));
    cols.process.push_back(id_of(r.process_name));
    cols.node.push_back(id_of(r.node_name));
    cols.type.push_back(id_of(r.processor_type));
    cols.object_key.push_back(r.object_key);
    cols.thread_ordinal.push_back(r.thread_ordinal);
    cols.value_start.push_back(r.value_start);
    cols.value_end.push_back(r.value_end);
  }
  return cols;
}

std::uint64_t trace_segment_record_count(
    std::span<const std::uint8_t> segment) {
  try {
    WireCursor in(segment.data(), segment.size());
    if (in.read_u32() != kMagic) throw TraceIoError("not a causeway trace");
    const std::uint32_t version = in.read_u32();
    if (version < kMinVersion || version > kMaxVersion) {
      throw TraceIoError("unsupported trace version " +
                         std::to_string(version));
    }
    if (version >= 4) {
      in.skip(8);   // body length
      in.skip(16);  // epoch + dropped
      const std::uint64_t domain_count = in.read_varint();
      if (domain_count > in.remaining() / kMinV4DomainBytes) {
        throw WireError("wire underflow");
      }
      for (std::uint64_t i = 0; i < domain_count; ++i) {
        in.read_varint();  // process id
        in.read_varint();  // node id
        in.read_varint();  // type id
        in.read_u8();      // mode
        in.read_varint();  // per-domain record count
      }
      const std::uint64_t string_count = in.read_varint();
      if (string_count > in.remaining()) throw WireError("wire underflow");
      for (std::uint64_t i = 0; i < string_count; ++i) {
        in.skip(static_cast<std::size_t>(in.read_varint()));
      }
      return in.read_varint();
    }
    in.skip(16);  // epoch + dropped
    const std::uint32_t domain_count = in.read_u32();
    if (domain_count > in.remaining() / kDomainWireBytes) {
      throw WireError("wire underflow");
    }
    in.skip(domain_count * kDomainWireBytes);
    const std::uint32_t string_count = in.read_u32();
    for (std::uint32_t i = 0; i < string_count; ++i) in.skip(in.read_u32());
    return in.read_u64();
  } catch (const WireError& e) {
    throw TraceIoError(std::string("corrupt trace segment: ") + e.what());
  }
}

namespace {

// One directory block parsed from its trailing [u64 total]["CWTE"] probe:
// where it starts and what it covers.  nullopt when the bytes ending at
// `end` are not a well-formed directory block.
struct TrailerAt {
  std::size_t start{0};
  std::uint64_t segments{0};
  std::uint64_t segment_bytes{0};  // sum of the covered segment lengths
};

std::optional<TrailerAt> trailer_ending_at(std::span<const std::uint8_t> bytes,
                                           std::size_t end) {
  if (end < 21 || end > bytes.size()) return std::nullopt;
  WireCursor tail(bytes.data() + end - 12, 12);
  const std::uint64_t total = tail.read_u64();
  if (tail.read_u32() != kEndMagic) return std::nullopt;
  if (total < 21 || total > end) return std::nullopt;
  const std::size_t start = end - static_cast<std::size_t>(total);
  try {
    WireCursor in(bytes.data() + start, static_cast<std::size_t>(total));
    if (skim_trailer(in) != total || in.remaining() != 0) return std::nullopt;
    TrailerAt t;
    t.start = start;
    WireCursor again(bytes.data() + start, static_cast<std::size_t>(total));
    again.skip(8);  // magic + directory version (skim validated them)
    t.segments = again.read_varint();
    for (std::uint64_t i = 0; i < t.segments; ++i) {
      const std::uint64_t length = again.read_varint();
      // The covered run must fit between the file start and this block.
      if (length > t.start - t.segment_bytes) return std::nullopt;
      t.segment_bytes += length;
    }
    return t;
  } catch (const WireError&) {
    return std::nullopt;
  } catch (const TraceIoError&) {
    return std::nullopt;
  }
}

// True checkpoint test: the block ending at `end` must be a directory
// block, its covered segment run must start exactly where an earlier
// directory block ends, and so on back to byte 0.  O(checkpoints), never
// touches a segment header.  Returns the total segments the chain covers.
std::optional<std::size_t> validate_checkpoint_chain(
    std::span<const std::uint8_t> bytes, std::size_t end) {
  std::size_t segments = 0;
  std::size_t e = end;
  while (e > 0) {
    const auto t = trailer_ending_at(bytes, e);
    if (!t) return std::nullopt;
    segments += static_cast<std::size_t>(t->segments);
    e = t->start - static_cast<std::size_t>(t->segment_bytes);
  }
  return segments;
}

struct CheckpointScan {
  std::size_t clean_end{0};  // offset just past the last validated block
  std::size_t segments{0};   // segments the validated chain covers
};

// Backward scan for the last checkpoint whose chain validates.  Candidate
// positions are end-magic byte matches; a stray "CWTE" inside segment
// payload is rejected by the chain validation (it would have to parse as a
// block whose covered run lands exactly on another valid block, repeatedly,
// all the way to byte 0).
std::optional<CheckpointScan> find_last_checkpoint(
    std::span<const std::uint8_t> bytes) {
  // kEndMagic ("CWTE", 0x43575445) as it sits in the file, little-endian.
  static constexpr std::uint8_t kEndBytes[4] = {0x45, 0x54, 0x57, 0x43};
  if (bytes.size() < 21) return std::nullopt;
  for (std::size_t i = bytes.size() - 4; i >= 17; --i) {
    if (std::memcmp(bytes.data() + i, kEndBytes, sizeof(kEndBytes)) != 0) {
      continue;
    }
    const std::size_t end = i + 4;
    if (auto segments = validate_checkpoint_chain(bytes, end)) {
      return CheckpointScan{end, *segments};
    }
  }
  return std::nullopt;
}

}  // namespace

ReindexResult reindex_trace_file(const std::string& path) {
  ReindexResult result;
  std::vector<Extent> extents;
  std::size_t tail_base = 0;  // where the re-skimmed window starts
  std::uint64_t file_size = 0;
  {
    FileView file;
    if (!file.open(path)) throw TraceIoError("cannot open '" + path + "'");
    const std::span<const std::uint8_t> bytes = file.bytes();
    file_size = bytes.size();
    // A file already ending in a consistent directory trailer needs
    // nothing; a *lying* trailer still throws here rather than being
    // silently replaced.
    try {
      if (auto dir = extents_from_directory(bytes)) {
        for (const Extent& e : *dir) {
          if (e.is_segment) ++result.segments;
        }
        return result;
      }
    } catch (const WireError& e) {
      throw TraceIoError(std::string("corrupt trace directory: ") + e.what());
    }
    // Checkpointed writer: resume from the last validated interior block
    // and skim only the tail written after it.  Any inconsistency in the
    // tail (not just an incomplete write) falls back to the full skim --
    // slower, never wrong.
    if (const auto cp = find_last_checkpoint(bytes)) {
      try {
        extents = skim_extents(bytes.subspan(cp->clean_end),
                               /*stop_on_underflow=*/true);
        tail_base = cp->clean_end;
        result.used_checkpoint = true;
        result.checkpoint_segments = cp->segments;
      } catch (const TraceIoError&) {
        extents.clear();
        tail_base = 0;
        result.used_checkpoint = false;
        result.checkpoint_segments = 0;
      }
    }
    if (!result.used_checkpoint) {
      // Crashed-writer skim: complete blocks are the clean prefix, an
      // incomplete tail (the write the crash cut short) ends the scan.
      try {
        extents = skim_extents(bytes, /*stop_on_underflow=*/true);
      } catch (const WireError& e) {
        throw TraceIoError(std::string("corrupt trace: ") + e.what());
      }
    }
  }  // unmap before mutating the file

  // The trailer describes the contiguous run of segments that ends the
  // clean prefix (everything after the last interior trailer block, if a
  // concatenated trace holds any); the reader skims whatever precedes it,
  // exactly as it does for a freshly closed file.
  std::uint64_t clean_end = tail_base;
  if (!extents.empty()) {
    clean_end = tail_base + extents.back().offset + extents.back().length;
  }
  std::vector<std::uint64_t> lengths;
  for (auto it = extents.rbegin(); it != extents.rend() && it->is_segment;
       ++it) {
    lengths.push_back(it->length);
  }
  std::reverse(lengths.begin(), lengths.end());

  result.segments = lengths.size();
  result.truncated_bytes = file_size - clean_end;
  result.rewritten = true;
  if (result.truncated_bytes > 0) {
    std::error_code ec;
    std::filesystem::resize_file(path, clean_end, ec);
    if (ec) {
      throw TraceIoError("cannot truncate '" + path + "': " + ec.message());
    }
  }
  const auto trailer = encode_directory_trailer(lengths);
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(reinterpret_cast<const char*>(trailer.data()),
            static_cast<std::streamsize>(trailer.size()));
  out.flush();
  if (!out) throw TraceIoError("short write to '" + path + "'");
  return result;
}

void write_trace_file(const std::string& path,
                      const monitor::CollectedLogs& logs,
                      std::uint32_t version) {
  TraceWriter writer(path, version);
  writer.append(logs);
  writer.close();
}

std::size_t read_trace_file(const std::string& path, LogDatabase& db) {
  FileView file;
  if (!file.open(path)) throw TraceIoError("cannot open '" + path + "'");
  return decode_trace(file.bytes(), db);
}

TraceWriter::TraceWriter(const std::string& path, std::uint32_t version,
                         std::size_t checkpoint_every)
    : path_(path),
      out_(path, std::ios::binary | std::ios::trunc),
      version_(version),
      checkpoint_every_(checkpoint_every) {
  if (version != kTraceFormatV3 && version != kTraceFormatV4 &&
      version != kTraceFormatV5) {
    throw TraceIoError("unwritable trace version " + std::to_string(version));
  }
  if (!out_) throw TraceIoError("cannot open '" + path + "' for writing");
}

TraceWriter::~TraceWriter() {
  try {
    close();
  } catch (...) {
    // Destructors must not throw; an explicit close() surfaces the error.
  }
}

void TraceWriter::append(const monitor::CollectedLogs& logs) {
  if (closed_) throw TraceIoError("trace writer for '" + path_ + "' is closed");
  const auto bytes = encode_trace(logs, version_);
  out_.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  // Flush per segment: the file on disk is a valid multi-segment trace
  // after every epoch, so an analyzer (or a crash) mid-run sees a clean
  // prefix of the stream.
  out_.flush();
  if (!out_) throw TraceIoError("short write to '" + path_ + "'");
  records_ += logs.records.size();
  note_segment(bytes.size());
}

void TraceWriter::append(const ColumnBundle& cols) {
  if (closed_) throw TraceIoError("trace writer for '" + path_ + "' is closed");
  if (version_ != kTraceFormatV4 && version_ != kTraceFormatV5) {
    throw TraceIoError("column append requires a columnar (v4/v5) writer");
  }
  const auto bytes = encode_trace_columns(cols, version_);
  out_.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  out_.flush();
  if (!out_) throw TraceIoError("short write to '" + path_ + "'");
  records_ += cols.count;
  note_segment(bytes.size());
}

void TraceWriter::append_encoded(std::span<const std::uint8_t> segment) {
  if (closed_) throw TraceIoError("trace writer for '" + path_ + "' is closed");
  std::size_t length = 0;
  bool is_segment = false;
  try {
    if (!probe_trace_block(segment, length, is_segment)) {
      throw TraceIoError("incomplete trace segment");
    }
  } catch (const WireError& e) {
    throw TraceIoError(std::string("corrupt trace segment: ") + e.what());
  }
  if (!is_segment || length != segment.size()) {
    throw TraceIoError("append_encoded wants exactly one trace segment");
  }
  out_.write(reinterpret_cast<const char*>(segment.data()),
             static_cast<std::streamsize>(segment.size()));
  out_.flush();
  if (!out_) throw TraceIoError("short write to '" + path_ + "'");
  note_segment(segment.size());
}

void TraceWriter::note_segment(std::size_t bytes) {
  segment_lengths_.push_back(bytes);
  ++segments_total_;
  bytes_written_ += bytes;
  if (checkpoint_every_ > 0 && segment_lengths_.size() >= checkpoint_every_) {
    checkpoint();
  }
}

void TraceWriter::checkpoint() {
  if (closed_) throw TraceIoError("trace writer for '" + path_ + "' is closed");
  if (segment_lengths_.empty()) return;
  const auto block = encode_directory_trailer(segment_lengths_);
  out_.write(reinterpret_cast<const char*>(block.data()),
             static_cast<std::streamsize>(block.size()));
  out_.flush();
  if (!out_) throw TraceIoError("short write to '" + path_ + "'");
  bytes_written_ += block.size();
  segment_lengths_.clear();
}

void TraceWriter::close() {
  if (closed_) return;
  // The final trailer covers only the segments since the last checkpoint --
  // the same contiguous-run contract a concatenated trace's last trailer
  // keeps, so extents_from_directory's base arithmetic holds and the
  // checkpoint blocks before it are skimmed as metadata.
  const auto trailer = encode_directory_trailer(segment_lengths_);
  closed_ = true;
  out_.write(reinterpret_cast<const char*>(trailer.data()),
             static_cast<std::streamsize>(trailer.size()));
  out_.flush();
  if (!out_) throw TraceIoError("short write to '" + path_ + "'");
  out_.close();
}

std::size_t TraceTail::poll(LogDatabase& db) { return poll_impl(&db, nullptr); }

std::size_t TraceTail::poll(AnalysisPipeline& pipeline) {
  return poll_impl(nullptr, &pipeline);
}

std::size_t TraceTail::poll_impl(LogDatabase* db, AnalysisPipeline* pipeline) {
  FileView file;
  if (!file.open(path_)) {
    // Not created yet is fine (the writer may still be starting up), but a
    // file that vanishes after we read from it is not.
    if (seen_size_ == 0) return 0;
    throw TraceIoError("cannot open '" + path_ + "'");
  }
  const std::span<const std::uint8_t> bytes = file.bytes();
  if (bytes.size() < seen_size_) {
    throw TraceIoError("trace file '" + path_ + "' shrank while tailing");
  }
  seen_size_ = bytes.size();
  if (bytes.size() <= consumed_) return 0;

  // The unconsumed window decodes in place -- no staging buffer.  Complete
  // blocks commit; an incomplete tail (wire underflow) simply stays in the
  // file for the next poll.  Structural corruption propagates.
  const std::span<const std::uint8_t> fresh =
      bytes.subspan(static_cast<std::size_t>(consumed_));
  const std::vector<Extent> extents =
      skim_extents(fresh, /*stop_on_underflow=*/true);
  if (extents.empty()) return 0;

  // Decode the complete segments concurrently (a cold catch-up tail of a
  // long-running stream can hold hundreds), then commit in epoch order so
  // the database sees the same generation sequence a live tail would.
  std::vector<Staged> staged;
  std::vector<std::exception_ptr> errors;
  decode_staged(fresh.data(), extents, staged, errors);

  std::size_t records = 0;
  std::size_t committed_end = 0;
  for (std::size_t k = 0; k < extents.size(); ++k) {
    if (errors[k]) {
      // Commit the clean prefix, then surface the corruption.
      consumed_ += committed_end;
      rethrow_as_trace_error(errors[k]);
    }
    if (extents[k].is_segment) {
      if (staged[k].columns) {
        if (db != nullptr) {
          db->ingest(*staged[k].columns);
        } else {
          pipeline->ingest(*staged[k].columns);
        }
      } else if (db != nullptr) {
        db->ingest(staged[k].logs);
      } else {
        pipeline->ingest(staged[k].logs);
      }
      ++segments_;
      records += staged[k].records();
    }
    committed_end = extents[k].offset + extents[k].length;
  }
  consumed_ += committed_end;
  return records;
}

}  // namespace causeway::analysis
