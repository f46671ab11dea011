// The log database.
//
// "The scattered logs are collected and eventually synthesized into a
// relational database" (paper Sec. 3).  LogDatabase is that store: it ingests
// collected trace records, interns every identity string (so the database
// outlives the monitored application), and serves the two queries the
// analyzer needs (paper Sec. 3.1):
//
//   query 1: the set of unique Function UUIDs ever created;
//   query 2: for one UUID, its events sorted by ascending event number.
//
// Ingestion is incremental: every batch (an offline collect or one streaming
// drain epoch) appends in place -- interning is append-only, per-chain event
// indexes grow in place, and domain entries merge by identity so N epochs
// synthesize to the same database one offline collect would have produced.
// A generation counter advances per batch and each chain remembers the last
// generation that touched it, so analyses (Dscg::update) can rebuild only
// what changed.
//
// Synthesis is *sharded* (DESIGN.md Sec. 8): the chain index and the dirty
// log are partitioned by hash(chain UUID) % N, and each ingest partitions
// its batch by shard and runs the shards in parallel on the shared
// WorkerPool.  The chain UUID is the natural partition key -- every event
// of a chain lands in the same shard, so no shard ever writes another
// shard's state.  Names are not sharded: one database-wide table interns
// every identity string to a dense id, serially, before the shards run.
//
// The row store (DESIGN.md Sec. 7) keeps one packed row per record, in
// arrival order, in fixed chunks of kChunkRows rows.  A row holds the
// record's numbers, its five names as table ids, its spawned chain as a
// slot in a sparse side table, and its flags in the v4 column bytes; a
// chunk is allocated uninitialized and never moves, so growth copies
// nothing and unwritten rows cost no memory.  The shards scatter-write
// disjoint rows of the batch's chunks, record(i) assembles row i as a
// TraceRecord on demand, and all cross-shard first-seen orders (chains,
// dirty log) are restored by a deterministic merge on batch-arrival index.
// Every public query is byte-for-byte independent of the shard count.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "monitor/collector.h"
#include "monitor/record.h"

namespace causeway::analysis {

struct ColumnBundle;  // analysis/columns.h -- decoded v4 trace columns

class LogDatabase {
 public:
  // Shard count 0 resolves to the CAUSEWAY_INGEST_SHARDS environment
  // variable when set, else hardware_concurrency (clamped to [1, 64]).
  LogDatabase() : LogDatabase(0) {}
  explicit LogDatabase(std::size_t shard_count);
  LogDatabase(const LogDatabase&) = delete;
  LogDatabase& operator=(const LogDatabase&) = delete;
  LogDatabase(LogDatabase&&) = default;
  LogDatabase& operator=(LogDatabase&&) = default;

  std::size_t shard_count() const { return shards_.size(); }

  // Ingests a collector bundle: domain metadata plus all records.  A bundle
  // whose records ingest_records refuses changes nothing, domains and
  // counters included.
  void ingest(const monitor::CollectedLogs& logs);

  // Ingests a decoded v4 column bundle directly: runs are partitioned by
  // chain (one shard lookup per run, not per record), the segment string
  // table resolves to name ids once per table entry, and each shard
  // scatters its runs' columns straight into their rows.  Byte-identical to
  // assembling the bundle record-major and calling ingest(logs); every
  // public query stays independent of the shard count and the path taken.
  void ingest(const ColumnBundle& cols);

  // Ingests raw records (tests and synthetic workloads build these
  // directly). Names are interned; the source may die afterwards.  Throws
  // std::invalid_argument, before anything is stored, when a record's
  // event, kind, outcome, mode or sample-rate index does not fit the v4
  // flag bits (only a hand-built or corrupt v2/v3 record can do that).
  void ingest_records(std::span<const monitor::TraceRecord> records);

  // Rows per chunk of the row store: a power of two, so row i lives at
  // chunk i / kChunkRows, slot i % kChunkRows.
  static constexpr std::size_t kChunkRows = std::size_t{1} << 16;

  // Row `i` (0 <= i < size(), arrival order), assembled as a TraceRecord.
  // Its names view the database's name table, which lives as long as the
  // database and is never moved by further ingest.  Thread-safe against
  // concurrent readers (no ingest racing).
  monitor::TraceRecord record(std::uint32_t i) const;
  std::size_t size() const { return size_; }

  // Every row, assembled, in arrival order: a copy that costs a full
  // TraceRecord per row, rebuilt by the first call after each ingest.  The
  // reference stays valid for the database's lifetime.  For tools and
  // tests that want the flat form; analysis reads rows through record()
  // and chain_events().  Thread-safe against concurrent callers (no ingest
  // racing).  Ingest throws std::length_error before the store reaches
  // CallNode::kNoRecord rows.
  const std::vector<monitor::TraceRecord>& records() const;

  struct DomainEntry {
    std::string process_name;
    std::string node_name;
    std::string processor_type;
    monitor::ProbeMode mode;
    std::size_t record_count;
  };
  const std::vector<DomainEntry>& domains() const { return domains_; }

  // Query 1: unique chain UUIDs in first-seen order.
  const std::vector<Uuid>& chains() const { return chains_; }

  // Ingest-batch counter: 0 for an empty database, +1 per batch that added
  // records.  Analyses snapshot this to know when they are stale.
  std::uint64_t generation() const { return generation_; }

  // Chains that gained at least one event in a generation > `gen`, ordered
  // by the first batch (then arrival) that touched them after `gen`.
  // chains_since(0) is every chain in first-seen order.  Served from a
  // per-batch dirty log, so the cost scales with the number of touched
  // chains, not the whole database.
  std::vector<Uuid> chains_since(std::uint64_t gen) const;

  // Cumulative ring-overflow count reported by the ingested bundles: how
  // many records the probes dropped rather than block.  Non-zero means the
  // database is an honest but incomplete sample.
  std::uint64_t overflow_dropped() const { return overflow_dropped_; }

  // Cumulative transport-tier drop count reported by the ingested bundles:
  // records a publisher discarded under socket back-pressure.  Kept apart
  // from overflow_dropped() so the two loss mechanisms stay attributable.
  std::uint64_t publish_dropped() const { return publish_dropped_; }

  // Cumulative count of records deliberately suppressed at the probe by
  // chain sampling (or interface muting).  Unlike the two loss counters
  // above this is not loss: the suppressed volume is renormalizable from
  // the sample weights carried by the records that did arrive.
  std::uint64_t sampled_out() const { return sampled_out_; }

  // Renormalized estimates: each record counts sample_weight() times (a
  // record kept at 1-in-N sampling stands for N), each chain counts the
  // weight of its first record.  Equal to size()/chains().size() exactly
  // when nothing was sampled.
  std::uint64_t weighted_records() const;
  std::uint64_t weighted_chains() const;

  // True when the database holds evidence of sampling: a record with
  // weight > 1, or a reported sampled-out count.  Reports gate their
  // renormalization section on this, keeping un-sampled output
  // byte-identical to pre-sampling builds.
  bool sampling_active() const;

  // Highest drain epoch seen across ingested bundles (0 = offline only).
  std::uint64_t last_epoch() const { return last_epoch_; }

  // Query 2: one chain's row indexes (for record()) in ascending event
  // number order (insertion order breaks ties, which only occur on corrupt
  // logs).  Thread-safe against concurrent readers (no ingest racing).
  std::vector<std::uint32_t> chain_events(const Uuid& chain) const;

  // All distinct processor types seen (defines the <C1..CM> vector axes),
  // first-seen order.  Maintained at ingest, O(1) to read.
  const std::vector<std::string_view>& processor_types() const {
    return processor_types_;
  }

  // The probe mode of the bulk of the records (a run uses one mode).
  // Counts are maintained at ingest, O(shards) to read.
  monitor::ProbeMode primary_mode() const;

 private:
  // One stored record.  The chain UUID is kept as two plain words and no
  // member has an initializer, so a chunk of rows can be allocated
  // uninitialized and only the rows ingest writes are ever touched.
  struct Row {
    std::uint64_t chain_hi, chain_lo;
    std::uint64_t seq;
    std::uint64_t object_key;
    std::uint64_t thread_ordinal;
    Nanos value_start, value_end;
    std::uint32_t iface, func, process, node, type;  // name table ids
    std::uint32_t spawned;  // slot in spawned_, kNoSpawn when none
    std::uint8_t flags1;    // event | kind<<3 | outcome<<5 (v4 flags1)
    std::uint8_t flags2;    // mode | rate_index<<3 (v4 flags2, no spawn bit)
  };
  static_assert(sizeof(Row) <= 88, "Row must stay packed");
  static_assert(std::is_trivially_default_constructible_v<Row>,
                "uninitialized chunks need a trivial Row");
  static constexpr std::uint32_t kNoSpawn = UINT32_MAX;

  Row& row(std::size_t i) { return chunks_[i / kChunkRows][i % kChunkRows]; }
  const Row& row(std::size_t i) const {
    return chunks_[i / kChunkRows][i % kChunkRows];
  }

  struct ChainIndex {
    std::vector<std::uint32_t> events;  // row indexes, log order
    std::uint64_t last_gen{0};          // generation of the newest event
    // Watermark: the first `sorted_prefix` entries of `events` are already
    // in ascending seq order, and `prefix_last_seq` is the seq of the last
    // of them.  Events arrive in order in the common case, so chain_events
    // usually skips its sort entirely and otherwise sorts only the tail.
    std::size_t sorted_prefix{0};
    std::uint64_t prefix_last_seq{0};
  };

  // One partition of the synthesis state.  A shard is only ever mutated by
  // the single worker that owns it for the duration of a batch, so none of
  // this needs locks; the batch-scratch vectors below are merged serially
  // after the workers join.
  struct Shard {
    std::unordered_map<Uuid, ChainIndex> by_chain;
    // Indexed by the 2-bit mode field; 3 only comes from corrupt input.
    std::size_t mode_counts[4] = {0, 0, 0, 0};
    // Sampling renormalization sums (weight = kSampleRates[index]).
    std::uint64_t weighted_records{0};
    std::uint64_t weighted_chains{0};  // first record's weight, per chain
    bool weight_seen{false};           // any record with weight > 1

    // Per-batch scratch (cleared each ingest).
    struct DirtyScratch {
      std::size_t arrival;     // index of the chain's first record in batch
      Uuid chain;
      std::uint64_t prev_gen;  // last_gen before this batch (0 = new chain)
    };
    std::vector<std::size_t> batch;  // record indexes within the batch span
    std::vector<DirtyScratch> dirty;

    // Column-ingest scratch: the runs assigned to this shard (`first` is
    // the run's first record index within the batch).
    struct RunRef {
      std::size_t first;
      std::uint32_t run;  // index into ColumnBundle::runs
    };
    std::vector<RunRef> column_batch;

    // The chain's index, logged dirty at its first record of the batch
    // (batch index `arrival`, flags2 `f2`).
    ChainIndex& touch(const Uuid& chain, std::size_t arrival,
                      std::uint8_t f2, std::uint64_t generation);
    // Appends row `slot` (seq `seq`, flags2 `f2`) to the chain's events.
    void add(ChainIndex& index, std::uint32_t slot, std::uint64_t seq,
             std::uint8_t f2);
    void ingest_batch(std::span<const monitor::TraceRecord> source,
                      LogDatabase& db, std::size_t base,
                      std::uint64_t generation);
    void ingest_column_batch(const ColumnBundle& cols,
                             std::span<const std::uint32_t> ids,
                             LogDatabase& db, std::size_t base,
                             std::uint64_t generation);
  };

  std::size_t shard_of(const Uuid& chain) const {
    return static_cast<std::size_t>(std::hash<Uuid>{}(chain)) % shards_.size();
  }

  // Shared ingest plumbing: domain merge by identity, row allocation
  // (returns the batch's first row), name interning, and the serial
  // post-join merge of the shard-local dirty scratch back into global
  // arrival order.
  void merge_domains(
      const std::vector<monitor::CollectedLogs::DomainEntry>& domains);
  std::size_t add_rows(std::size_t n);
  std::uint32_t intern(std::string_view name);
  void note_processor_type(std::uint32_t id);
  void merge_batch_scratch();

  // The row store: chunks of kChunkRows rows, filled in arrival order.
  std::vector<std::unique_ptr<Row[]>> chunks_;
  std::size_t size_{0};
  std::vector<Uuid> spawned_;  // spawned chains of oneway stub starts

  // The name table: id -> view into name_pool_ (stable), and back.
  std::deque<std::string> name_pool_;
  std::vector<std::string_view> names_;
  std::unordered_map<std::string_view, std::uint32_t> name_ids_;
  std::vector<std::uint8_t> name_is_type_;  // by id: in processor_types_

  std::vector<Shard> shards_;
  std::vector<DomainEntry> domains_;

  // (process, node, type, mode) -> index into domains_, for merged updates.
  // Key views point into domain_pool_ (stable); lookups probe with views
  // into the caller's bundle, so the hot path allocates nothing.
  struct DomainKey {
    std::string_view process, node, type;
    monitor::ProbeMode mode;
    bool operator==(const DomainKey&) const = default;
  };
  struct DomainKeyHash {
    std::size_t operator()(const DomainKey& k) const noexcept {
      const std::hash<std::string_view> h;
      std::size_t x = h(k.process);
      x = x * 0x9e3779b97f4a7c15ull ^ h(k.node);
      x = x * 0x9e3779b97f4a7c15ull ^ h(k.type);
      return x * 0x9e3779b97f4a7c15ull ^ static_cast<std::size_t>(k.mode);
    }
  };
  std::deque<std::string> domain_pool_;
  std::unordered_map<DomainKey, std::size_t, DomainKeyHash> domain_index_;

  std::vector<Uuid> chains_;
  std::uint64_t generation_{0};
  std::uint64_t overflow_dropped_{0};
  std::uint64_t publish_dropped_{0};
  std::uint64_t sampled_out_{0};
  std::uint64_t last_epoch_{0};

  // Dirty log: one entry per (batch, touched chain), generations ascending,
  // arrival order within a batch.  `prev_gen` is the generation that had
  // touched the chain before this one (0 = the chain was born here), which
  // is what lets chains_since dedup without building a set per call.
  struct DirtyEntry {
    std::uint64_t gen;
    Uuid chain;
    std::uint64_t prev_gen;
  };
  std::vector<DirtyEntry> dirty_log_;

  // Maintained at ingest so the hot report/render queries are O(1).  The
  // views point into name_pool_.
  std::vector<std::string_view> processor_types_;

  // records()'s copy and the generation it was built at (held by pointer
  // so the database stays movable).
  struct Flat {
    std::mutex mu;
    std::vector<monitor::TraceRecord> rows;
    std::uint64_t generation{0};
  };
  std::unique_ptr<Flat> flat_ = std::make_unique<Flat>();
};

// Inline: the analysis passes call this several times per call node.
inline monitor::TraceRecord LogDatabase::record(std::uint32_t i) const {
  const Row& row = this->row(i);
  monitor::TraceRecord r;
  r.chain = {row.chain_hi, row.chain_lo};
  r.seq = row.seq;
  r.event = static_cast<monitor::EventKind>(row.flags1 & 7);
  r.kind = static_cast<monitor::CallKind>((row.flags1 >> 3) & 3);
  r.outcome = static_cast<monitor::CallOutcome>((row.flags1 >> 5) & 3);
  if (row.spawned != kNoSpawn) r.spawned_chain = spawned_[row.spawned];
  r.interface_name = names_[row.iface];
  r.function_name = names_[row.func];
  r.object_key = row.object_key;
  r.process_name = names_[row.process];
  r.node_name = names_[row.node];
  r.processor_type = names_[row.type];
  r.thread_ordinal = row.thread_ordinal;
  r.mode = static_cast<monitor::ProbeMode>(row.flags2 & 3);
  r.sample_rate_index = static_cast<std::uint8_t>(row.flags2 >> 3);
  r.value_start = row.value_start;
  r.value_end = row.value_end;
  return r;
}

}  // namespace causeway::analysis
