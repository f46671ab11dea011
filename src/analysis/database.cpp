#include "analysis/database.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "analysis/call_tree.h"
#include "analysis/columns.h"
#include "common/strings.h"
#include "common/worker_pool.h"

namespace causeway::analysis {
namespace {

// Below this batch size the partition/merge bookkeeping costs more than the
// parallelism recovers; ingest the shards on the calling thread instead
// (same code path, same output -- only the scheduling differs).
constexpr std::size_t kParallelIngestThreshold = 8192;

std::size_t resolve_shard_count(std::size_t requested) {
  if (requested == 0) {
    if (const char* env = std::getenv("CAUSEWAY_INGEST_SHARDS")) {
      requested = static_cast<std::size_t>(std::atoll(env));
    }
  }
  if (requested == 0) {
    requested = std::thread::hardware_concurrency();
  }
  return std::clamp<std::size_t>(requested, 1, 64);
}

}  // namespace

LogDatabase::LogDatabase(std::size_t shard_count)
    : shards_(resolve_shard_count(shard_count)) {}

std::uint32_t LogDatabase::intern(std::string_view name) {
  auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  name_pool_.emplace_back(name);
  names_.push_back(name_pool_.back());
  name_ids_.emplace(names_.back(), id);
  name_is_type_.push_back(0);
  return id;
}

void LogDatabase::note_processor_type(std::uint32_t id) {
  if (name_is_type_[id]) return;
  name_is_type_[id] = 1;
  processor_types_.push_back(names_[id]);
}

LogDatabase::ChainIndex& LogDatabase::Shard::touch(const Uuid& chain,
                                                   std::size_t arrival,
                                                   std::uint8_t f2,
                                                   std::uint64_t generation) {
  auto [it, inserted] = by_chain.try_emplace(chain);
  ChainIndex& index = it->second;
  // A chain counts the weight of its first record.
  if (inserted) {
    weighted_chains += monitor::sample_rate(static_cast<std::uint8_t>(f2 >> 3));
  }
  if (index.last_gen != generation) {
    // First record for this chain in the current batch: log it dirty
    // once, remembering the generation it last belonged to.
    dirty.push_back({arrival, chain, index.last_gen});
    index.last_gen = generation;
  }
  return index;
}

void LogDatabase::Shard::add(ChainIndex& index, std::uint32_t slot,
                             std::uint64_t seq, std::uint8_t f2) {
  const std::uint64_t weight =
      monitor::sample_rate(static_cast<std::uint8_t>(f2 >> 3));
  weighted_records += weight;
  if (weight > 1) weight_seen = true;
  // Seq-order watermark: while events arrive ascending, the whole list
  // stays a sorted prefix and chain_events never has to sort.
  if (index.sorted_prefix == index.events.size() &&
      (index.events.empty() || seq >= index.prefix_last_seq)) {
    ++index.sorted_prefix;
    index.prefix_last_seq = seq;
  }
  index.events.push_back(slot);
  mode_counts[f2 & 3]++;
}

// Ingests this shard's partition of one batch.  `source` is the whole batch
// span; `batch` holds the indexes assigned to this shard, ascending, so the
// shard sees its records in arrival order.  The serial pass has already
// written each row's names and spawned slot; this fills in the rest of rows
// base + index -- rows no other shard touches.
void LogDatabase::Shard::ingest_batch(
    std::span<const monitor::TraceRecord> source, LogDatabase& db,
    std::size_t base, std::uint64_t generation) {
  dirty.clear();
  for (const std::size_t i : batch) {
    const monitor::TraceRecord& r = source[i];
    Row& row = db.row(base + i);
    row.chain_hi = r.chain.hi;
    row.chain_lo = r.chain.lo;
    row.seq = r.seq;
    row.object_key = r.object_key;
    row.thread_ordinal = r.thread_ordinal;
    row.value_start = r.value_start;
    row.value_end = r.value_end;
    row.flags1 = static_cast<std::uint8_t>(
        static_cast<unsigned>(r.event) | static_cast<unsigned>(r.kind) << 3 |
        static_cast<unsigned>(r.outcome) << 5);
    row.flags2 = static_cast<std::uint8_t>(static_cast<unsigned>(r.mode) |
                                           r.sample_rate_index << 3);
    add(touch(r.chain, i, row.flags2, generation),
        static_cast<std::uint32_t>(base + i), r.seq, row.flags2);
  }
}

// Scatters this shard's runs of one column batch straight into their rows
// -- the column-at-a-time twin of ingest_batch.  Per-run work (chain
// lookup, dirty logging) happens once per run; per-record work is a copy
// of column values into the row, names through `ids` (segment table id ->
// name id).
void LogDatabase::Shard::ingest_column_batch(
    const ColumnBundle& cols, std::span<const std::uint32_t> ids,
    LogDatabase& db, std::size_t base, std::uint64_t generation) {
  dirty.clear();
  const auto spawn_base = static_cast<std::uint32_t>(db.spawned_.size() -
                                                     cols.spawned.size());
  for (const RunRef& ref : column_batch) {
    const ColumnBundle::Run& run = cols.runs[ref.run];
    ChainIndex& index =
        touch(run.chain, ref.first, cols.flags2[ref.first], generation);
    std::uint32_t next_spawn = spawn_base + run.spawn_base;
    for (std::uint64_t j = 0; j < run.length; ++j) {
      const std::size_t i = ref.first + static_cast<std::size_t>(j);
      Row& row = db.row(base + i);
      row.chain_hi = run.chain.hi;
      row.chain_lo = run.chain.lo;
      row.seq = cols.seq[i];
      row.object_key = cols.object_key[i];
      row.thread_ordinal = cols.thread_ordinal[i];
      row.value_start = cols.value_start[i];
      row.value_end = cols.value_end[i];
      row.iface = ids[cols.iface[i]];
      row.func = ids[cols.func[i]];
      row.process = ids[cols.process[i]];
      row.node = ids[cols.node[i]];
      row.type = ids[cols.type[i]];
      const std::uint8_t f2 = cols.flags2[i];
      row.spawned = (f2 & 4) ? next_spawn++ : kNoSpawn;
      row.flags1 = cols.flags1[i];
      row.flags2 = static_cast<std::uint8_t>(f2 & ~4u);
      add(index, static_cast<std::uint32_t>(base + i), row.seq, row.flags2);
    }
  }
}

void LogDatabase::merge_domains(
    const std::vector<monitor::CollectedLogs::DomainEntry>& domains) {
  for (const auto& d : domains) {
    // Merge by identity: N streaming epochs each announce the same domains,
    // and must synthesize to the single entry an offline collect produces.
    // The probe key is stack-built views into the bundle -- no allocation
    // unless the domain is genuinely new.
    const DomainKey probe{d.identity.process_name, d.identity.node_name,
                          d.identity.processor_type, d.mode};
    auto it = domain_index_.find(probe);
    if (it == domain_index_.end()) {
      domain_pool_.emplace_back(d.identity.process_name);
      const std::string_view process = domain_pool_.back();
      domain_pool_.emplace_back(d.identity.node_name);
      const std::string_view node = domain_pool_.back();
      domain_pool_.emplace_back(d.identity.processor_type);
      const std::string_view type = domain_pool_.back();
      domain_index_.emplace(DomainKey{process, node, type, d.mode},
                            domains_.size());
      domains_.push_back({d.identity.process_name, d.identity.node_name,
                          d.identity.processor_type, d.mode, d.record_count});
    } else {
      domains_[it->second].record_count += d.record_count;
    }
  }
}

std::size_t LogDatabase::add_rows(std::size_t n) {
  // Chunks are allocated uninitialized and never reallocated, so growth
  // copies nothing and the shards can scatter-write their disjoint rows.
  const std::size_t base = size_;
  const std::size_t needed = base + n;
  if (needed >= CallNode::kNoRecord) {
    throw std::length_error(strf(
        "LogDatabase: %zu records would reach the %u-record store limit",
        needed, CallNode::kNoRecord));
  }
  while (chunks_.size() * kChunkRows < needed) {
    chunks_.push_back(std::make_unique_for_overwrite<Row[]>(kChunkRows));
  }
  size_ = needed;
  return base;
}

void LogDatabase::ingest(const monitor::CollectedLogs& logs) {
  // Records first: they are the only part that can be refused, and a
  // refused bundle must leave the domains and counters untouched too.
  ingest_records(logs.records);
  merge_domains(logs.domains);
  overflow_dropped_ += logs.dropped;
  publish_dropped_ += logs.publish_dropped;
  sampled_out_ += logs.sampled_out;
  last_epoch_ = std::max(last_epoch_, logs.epoch);
}

void LogDatabase::ingest(const ColumnBundle& cols) {
  merge_domains(cols.domains);
  overflow_dropped_ += cols.dropped;
  last_epoch_ = std::max(last_epoch_, cols.epoch);
  if (cols.count == 0) return;  // no generation for an empty batch
  const std::size_t base = add_rows(cols.count);
  ++generation_;

  // Names resolve once per table entry; the table is deduplicated, so a
  // type id's first record is its string's first appearance in the batch,
  // the point at which record-major ingest would note the type.
  std::vector<std::uint32_t> ids(cols.table.size());
  for (std::size_t k = 0; k < cols.table.size(); ++k) {
    ids[k] = intern(cols.table[k]);
  }
  std::vector<std::uint8_t> type_seen(cols.table.size(), 0);
  for (const std::uint32_t t : cols.type) {
    if (!type_seen[t]) {
      type_seen[t] = 1;
      note_processor_type(ids[t]);
    }
  }
  spawned_.insert(spawned_.end(), cols.spawned.begin(), cols.spawned.end());

  // Partition by chain at *run* granularity: one hash + one queue push per
  // run instead of per record.  Every record of a run shares its chain, so
  // the per-record scatter stays entirely shard-local.
  for (auto& shard : shards_) shard.column_batch.clear();
  std::size_t first = 0;
  for (std::size_t k = 0; k < cols.runs.size(); ++k) {
    shards_[shard_of(cols.runs[k].chain)].column_batch.push_back(
        {first, static_cast<std::uint32_t>(k)});
    first += static_cast<std::size_t>(cols.runs[k].length);
  }

  auto ingest_shard = [&](std::size_t s) {
    shards_[s].ingest_column_batch(cols, ids, *this, base, generation_);
  };
  if (shards_.size() > 1 && cols.count >= kParallelIngestThreshold) {
    WorkerPool::shared().parallel_for(shards_.size(), ingest_shard);
  } else {
    for (std::size_t s = 0; s < shards_.size(); ++s) ingest_shard(s);
  }
  merge_batch_scratch();
}

void LogDatabase::ingest_records(
    std::span<const monitor::TraceRecord> records) {
  if (records.empty()) return;
  for (const monitor::TraceRecord& r : records) {
    if (static_cast<unsigned>(r.event) > 7 ||
        static_cast<unsigned>(r.kind) > 3 ||
        static_cast<unsigned>(r.outcome) > 3 ||
        static_cast<unsigned>(r.mode) > 3 || r.sample_rate_index > 31) {
      throw std::invalid_argument(
          "LogDatabase: record flags out of range for the packed row");
    }
  }
  const std::size_t base = add_rows(records.size());
  ++generation_;

  // Names and spawned chains resolve serially, in arrival order, straight
  // into the rows.  Each field first compares its view against the last
  // one it saw: on the E2 synthesizer's stream the node and type views
  // repeat on every record and interface, function and process on 62-65%,
  // which takes a single-shard bench_ingest run from 0.13 to 0.09 s.
  struct Last {
    const char* data{nullptr};
    std::size_t size{SIZE_MAX};  // matches no view before the first
    std::uint32_t id{0};
  };
  Last last[5];
  auto resolve = [&](Last& l, std::string_view name) {
    if (l.data != name.data() || l.size != name.size()) {
      l = {name.data(), name.size(), intern(name)};
    }
    return l.id;
  };
  for (std::size_t i = 0; i < records.size(); ++i) {
    const monitor::TraceRecord& r = records[i];
    Row& row = this->row(base + i);
    row.iface = resolve(last[0], r.interface_name);
    row.func = resolve(last[1], r.function_name);
    row.process = resolve(last[2], r.process_name);
    row.node = resolve(last[3], r.node_name);
    row.type = resolve(last[4], r.processor_type);
    note_processor_type(row.type);
    row.spawned = kNoSpawn;
    if (!r.spawned_chain.is_nil()) {
      row.spawned = static_cast<std::uint32_t>(spawned_.size());
      spawned_.push_back(r.spawned_chain);
    }
  }

  // Partition by chain UUID.  Every event of a chain maps to one shard, so
  // the parallel phase below has no cross-shard writes at all.
  for (auto& shard : shards_) shard.batch.clear();
  if (shards_.size() == 1) {
    auto& batch = shards_[0].batch;
    batch.resize(records.size());
    for (std::size_t i = 0; i < records.size(); ++i) batch[i] = i;
  } else {
    for (std::size_t i = 0; i < records.size(); ++i) {
      shards_[shard_of(records[i].chain)].batch.push_back(i);
    }
  }

  auto ingest_shard = [&](std::size_t s) {
    shards_[s].ingest_batch(records, *this, base, generation_);
  };
  if (shards_.size() > 1 && records.size() >= kParallelIngestThreshold) {
    WorkerPool::shared().parallel_for(shards_.size(), ingest_shard);
  } else {
    for (std::size_t s = 0; s < shards_.size(); ++s) ingest_shard(s);
  }
  merge_batch_scratch();
}

void LogDatabase::merge_batch_scratch() {
  // Merge the shard-local first-seen logs back into global arrival order.
  // Arrival indexes are unique across shards (each record went to exactly
  // one), so the sort is a deterministic total order -- the same one a
  // single-threaded ingest of the batch produces.
  std::size_t dirty_count = 0;
  for (const auto& shard : shards_) dirty_count += shard.dirty.size();

  std::vector<Shard::DirtyScratch> dirty_merge;
  dirty_merge.reserve(dirty_count);
  for (const auto& shard : shards_) {
    dirty_merge.insert(dirty_merge.end(), shard.dirty.begin(),
                       shard.dirty.end());
  }
  std::sort(dirty_merge.begin(), dirty_merge.end(),
            [](const Shard::DirtyScratch& a, const Shard::DirtyScratch& b) {
              return a.arrival < b.arrival;
            });
  dirty_log_.reserve(dirty_log_.size() + dirty_merge.size());
  for (const auto& d : dirty_merge) {
    dirty_log_.push_back({generation_, d.chain, d.prev_gen});
    // prev_gen 0 marks a chain born this batch (real generations start at
    // 1), so the dirty merge doubles as the first-seen chain merge.
    if (d.prev_gen == 0) chains_.push_back(d.chain);
  }
}

const std::vector<monitor::TraceRecord>& LogDatabase::records() const {
  std::lock_guard lock(flat_->mu);
  if (flat_->generation != generation_) {
    flat_->rows.clear();
    flat_->rows.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i) {
      flat_->rows.push_back(record(static_cast<std::uint32_t>(i)));
    }
    flat_->generation = generation_;
  }
  return flat_->rows;
}

std::vector<std::uint32_t> LogDatabase::chain_events(const Uuid& chain) const {
  std::vector<std::uint32_t> out;
  const Shard& shard = shards_[shard_of(chain)];
  auto it = shard.by_chain.find(chain);
  if (it == shard.by_chain.end()) return out;
  const ChainIndex& index = it->second;
  out = index.events;
  if (index.sorted_prefix >= out.size()) return out;  // already ascending
  // Out-of-order tail (rare: cross-thread interleaving or corrupt logs):
  // sort only the tail, then stable-merge with the sorted prefix.  Both
  // steps keep insertion order among equal seqs, so the result is exactly
  // what a stable_sort of the whole list yields.
  const auto by_seq = [this](std::uint32_t a, std::uint32_t b) {
    return row(a).seq < row(b).seq;
  };
  const auto mid = out.begin() + static_cast<std::ptrdiff_t>(index.sorted_prefix);
  std::stable_sort(mid, out.end(), by_seq);
  std::inplace_merge(out.begin(), mid, out.end(), by_seq);
  return out;
}

std::vector<Uuid> LogDatabase::chains_since(std::uint64_t gen) const {
  // Entries are appended with ascending generations; binary-search the
  // first batch newer than `gen`.  A chain is emitted at the first of its
  // entries past the cut -- recognizable without any per-call set because
  // each entry remembers the chain's previous touching generation.
  auto it = std::lower_bound(
      dirty_log_.begin(), dirty_log_.end(), gen,
      [](const DirtyEntry& entry, std::uint64_t g) { return entry.gen <= g; });
  std::vector<Uuid> out;
  for (; it != dirty_log_.end(); ++it) {
    if (it->prev_gen <= gen) out.push_back(it->chain);
  }
  return out;
}

std::uint64_t LogDatabase::weighted_records() const {
  std::uint64_t sum = 0;
  for (const auto& shard : shards_) sum += shard.weighted_records;
  return sum;
}

std::uint64_t LogDatabase::weighted_chains() const {
  std::uint64_t sum = 0;
  for (const auto& shard : shards_) sum += shard.weighted_chains;
  return sum;
}

bool LogDatabase::sampling_active() const {
  if (sampled_out_ > 0) return true;
  for (const auto& shard : shards_) {
    if (shard.weight_seen) return true;
  }
  return false;
}

monitor::ProbeMode LogDatabase::primary_mode() const {
  std::size_t counts[3] = {0, 0, 0};
  for (const auto& shard : shards_) {
    for (std::size_t i = 0; i < 3; ++i) counts[i] += shard.mode_counts[i];
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i < 3; ++i) {
    if (counts[i] > counts[best]) best = i;
  }
  return static_cast<monitor::ProbeMode>(best);
}

}  // namespace causeway::analysis
