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
// Synthesis is *sharded* (DESIGN.md Sec. 8): the chain index, the dirty log
// and the string interner are partitioned by hash(chain UUID) % N, and
// ingest_records partitions each batch by shard and runs the shards in
// parallel on the shared WorkerPool.  The chain UUID is the natural
// partition key -- every event of a chain lands in the same shard, so no
// shard ever writes another shard's state.  The record store itself stays
// one flat arena in arrival order (shards scatter-write disjoint slots), so
// records() remains the ingest-order ground truth, and all cross-shard
// first-seen orders (chains, dirty log, processor types) are restored by a
// deterministic merge on batch-arrival index.  Every public query is
// byte-for-byte independent of the shard count.
#pragma once

#include <deque>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
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

  // Ingests a collector bundle: domain metadata plus all records.
  void ingest(const monitor::CollectedLogs& logs);

  // Ingests a decoded v4 column bundle directly: runs are partitioned by
  // chain (one shard lookup per run, not per record) and each shard
  // expands its runs straight into the record arena -- string ids resolve
  // lazily against a per-batch table cache, so a string interns at most
  // once per batch no matter how many records carry it.  Byte-identical to
  // assembling the bundle record-major and calling ingest(logs), at a
  // fraction of the staging cost; every public query stays independent of
  // the shard count and the path taken.
  void ingest(const ColumnBundle& cols);

  // Ingests raw records (tests and synthetic workloads build these
  // directly). String views are interned; the source may die afterwards.
  void ingest_records(std::span<const monitor::TraceRecord> records);

  // The record arena, in arrival order.  Call-tree nodes index its rows
  // through this vector's address: the database must outlive its trees and
  // must not be moved while they exist (further ingest is safe).  Ingest
  // throws std::length_error before the arena reaches CallNode::kNoRecord.
  const std::vector<monitor::TraceRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }

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

  // Query 2: events of one chain sorted by ascending event number
  // (insertion order breaks ties, which only occur on corrupt logs).
  // Thread-safe against concurrent chain_events calls (no ingest racing).
  std::vector<const monitor::TraceRecord*> chain_events(const Uuid& chain) const;

  // All distinct processor types seen (defines the <C1..CM> vector axes),
  // first-seen order.  Maintained at ingest, O(1) to read.
  const std::vector<std::string_view>& processor_types() const {
    return processor_types_;
  }

  // The probe mode of the bulk of the records (a run uses one mode).
  // Counts are maintained at ingest, O(shards) to read.
  monitor::ProbeMode primary_mode() const;

 private:
  struct ChainIndex {
    std::vector<std::uint32_t> events;  // indexes into records_, log order
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
    std::deque<std::string> pool;
    std::unordered_map<std::string_view, std::string_view> interned;
    std::unordered_map<Uuid, ChainIndex> by_chain;
    std::unordered_set<std::string_view> type_set;  // views into `pool`
    std::size_t mode_counts[3] = {0, 0, 0};
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
    std::vector<std::pair<std::size_t, std::string_view>> new_types;

    // Column-ingest scratch: the runs assigned to this shard (`first` is
    // the run's first record index within the batch), plus the per-batch
    // lazy resolution of the segment string table against this shard's
    // interner (`type_checked` folds the processor-type-set probe into the
    // first resolution of each id used as a type).
    struct RunRef {
      std::size_t first;
      std::uint32_t run;  // index into ColumnBundle::runs
    };
    std::vector<RunRef> column_batch;
    std::vector<std::string_view> resolved;
    std::vector<std::uint8_t> type_checked;

    std::string_view intern(std::string_view s);
    void ingest_batch(std::span<const monitor::TraceRecord> source,
                      std::vector<monitor::TraceRecord>& arena,
                      std::size_t base, std::uint64_t generation);
    void ingest_column_batch(const ColumnBundle& cols,
                             std::vector<monitor::TraceRecord>& arena,
                             std::size_t base, std::uint64_t generation);
  };

  std::size_t shard_of(const Uuid& chain) const {
    return static_cast<std::size_t>(std::hash<Uuid>{}(chain)) % shards_.size();
  }

  // Shared ingest plumbing: domain merge by identity, geometric arena
  // growth (returns the batch's base slot), and the serial post-join merge
  // of the shard-local dirty/type scratch back into global arrival order.
  void merge_domains(
      const std::vector<monitor::CollectedLogs::DomainEntry>& domains);
  std::size_t grow_arena(std::size_t n);
  void merge_batch_scratch();

  std::vector<monitor::TraceRecord> records_;  // flat arena, arrival order
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
  // views point into shard pools; the set dedups types that different
  // shards interned independently.
  std::vector<std::string_view> processor_types_;
  std::unordered_set<std::string_view> processor_type_set_;
};

}  // namespace causeway::analysis
