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

std::string_view LogDatabase::Shard::intern(std::string_view s) {
  auto it = interned.find(s);
  if (it != interned.end()) return it->second;
  pool.emplace_back(s);
  std::string_view stable = pool.back();
  interned.emplace(stable, stable);
  return stable;
}

// Ingests this shard's partition of one batch.  `source` is the whole batch
// span; `batch` holds the indexes assigned to this shard, ascending, so the
// shard sees its records in arrival order.  Writes land in the shared arena
// at base + index -- slots no other shard touches.
void LogDatabase::Shard::ingest_batch(
    std::span<const monitor::TraceRecord> source,
    std::vector<monitor::TraceRecord>& arena, std::size_t base,
    std::uint64_t generation) {
  dirty.clear();
  new_types.clear();
  for (const std::size_t i : batch) {
    monitor::TraceRecord r = source[i];
    r.interface_name = intern(r.interface_name);
    r.function_name = intern(r.function_name);
    r.process_name = intern(r.process_name);
    r.node_name = intern(r.node_name);
    r.processor_type = intern(r.processor_type);

    auto [it, inserted] = by_chain.try_emplace(r.chain);
    ChainIndex& index = it->second;
    const std::uint64_t weight = r.sample_weight();
    weighted_records += weight;
    if (inserted) weighted_chains += weight;
    if (weight > 1) weight_seen = true;
    if (index.last_gen != generation) {
      // First record for this chain in the current batch: log it dirty
      // once, remembering the generation it last belonged to.
      dirty.push_back({i, r.chain, index.last_gen});
      index.last_gen = generation;
    }
    // Seq-order watermark: while events arrive ascending, the whole list
    // stays a sorted prefix and chain_events never has to sort.
    if (index.sorted_prefix == index.events.size() &&
        (index.events.empty() || r.seq >= index.prefix_last_seq)) {
      ++index.sorted_prefix;
      index.prefix_last_seq = r.seq;
    }
    index.events.push_back(static_cast<std::uint32_t>(base + i));

    mode_counts[static_cast<std::size_t>(r.mode)]++;
    if (type_set.insert(r.processor_type).second) {
      new_types.emplace_back(i, r.processor_type);
    }
    arena[base + i] = r;
  }
}

// Expands this shard's runs of one column batch straight into the arena --
// the column-at-a-time twin of ingest_batch.  Per-run work (chain lookup,
// dirty logging) happens once per run; per-record work is a scatter of
// column values into the record slot.  String ids resolve lazily through a
// per-batch cache of the segment table, so each distinct id hits the
// interner hash at most once per batch.
void LogDatabase::Shard::ingest_column_batch(
    const ColumnBundle& cols, std::vector<monitor::TraceRecord>& arena,
    std::size_t base, std::uint64_t generation) {
  dirty.clear();
  new_types.clear();
  resolved.assign(cols.table.size(), std::string_view{});
  type_checked.assign(cols.table.size(), 0);
  auto resolve = [&](std::uint32_t id) -> std::string_view {
    std::string_view& v = resolved[id];
    if (v.data() == nullptr) v = intern(cols.table[id]);
    return v;
  };
  for (const RunRef& ref : column_batch) {
    const ColumnBundle::Run& run = cols.runs[ref.run];
    auto [it, inserted] = by_chain.try_emplace(run.chain);
    ChainIndex& index = it->second;
    if (inserted) {
      // A chain counts the weight of its first record -- which is the
      // first record of its first run.
      weighted_chains += monitor::sample_rate(
          static_cast<std::uint8_t>(cols.flags2[ref.first] >> 3));
    }
    if (index.last_gen != generation) {
      dirty.push_back({ref.first, run.chain, index.last_gen});
      index.last_gen = generation;
    }
    std::size_t next_spawn = run.spawn_base;
    for (std::uint64_t j = 0; j < run.length; ++j) {
      const std::size_t i = ref.first + static_cast<std::size_t>(j);
      monitor::TraceRecord& r = arena[base + i];
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
      r.interface_name = resolve(cols.iface[i]);
      r.function_name = resolve(cols.func[i]);
      r.object_key = cols.object_key[i];
      r.process_name = resolve(cols.process[i]);
      r.node_name = resolve(cols.node[i]);
      const std::uint32_t type_id = cols.type[i];
      r.processor_type = resolve(type_id);
      if (!type_checked[type_id]) {
        // First record of this batch carrying this type id: the table is
        // deduplicated, so this is also the string's first appearance --
        // the one probe record-major ingest would log it at.
        type_checked[type_id] = 1;
        if (type_set.insert(r.processor_type).second) {
          new_types.emplace_back(i, r.processor_type);
        }
      }
      r.thread_ordinal = cols.thread_ordinal[i];
      r.value_start = cols.value_start[i];
      r.value_end = cols.value_end[i];

      const std::uint64_t weight = r.sample_weight();
      weighted_records += weight;
      if (weight > 1) weight_seen = true;
      if (index.sorted_prefix == index.events.size() &&
          (index.events.empty() || r.seq >= index.prefix_last_seq)) {
        ++index.sorted_prefix;
        index.prefix_last_seq = r.seq;
      }
      index.events.push_back(static_cast<std::uint32_t>(base + i));
      mode_counts[static_cast<std::size_t>(r.mode)]++;
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

std::size_t LogDatabase::grow_arena(std::size_t n) {
  // Grow geometrically: an exact-fit reserve would reallocate (and copy the
  // whole store) on every epoch of a streaming ingest.  The arena is sized
  // up front so the shards can scatter-write their disjoint slots.
  const std::size_t base = records_.size();
  const std::size_t needed = base + n;
  if (needed >= CallNode::kNoRecord) {
    throw std::length_error(strf(
        "LogDatabase: %zu records would reach the %u-record arena limit",
        needed, CallNode::kNoRecord));
  }
  if (records_.capacity() < needed) {
    records_.reserve(std::max(needed, records_.capacity() * 2));
  }
  records_.resize(needed);
  return base;
}

void LogDatabase::ingest(const monitor::CollectedLogs& logs) {
  merge_domains(logs.domains);
  overflow_dropped_ += logs.dropped;
  publish_dropped_ += logs.publish_dropped;
  sampled_out_ += logs.sampled_out;
  last_epoch_ = std::max(last_epoch_, logs.epoch);
  ingest_records(logs.records);
}

void LogDatabase::ingest(const ColumnBundle& cols) {
  merge_domains(cols.domains);
  overflow_dropped_ += cols.dropped;
  last_epoch_ = std::max(last_epoch_, cols.epoch);
  if (cols.count == 0) return;  // no generation for an empty batch
  const std::size_t base = grow_arena(cols.count);
  ++generation_;

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
    shards_[s].ingest_column_batch(cols, records_, base, generation_);
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
  const std::size_t base = grow_arena(records.size());
  ++generation_;

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
    shards_[s].ingest_batch(records, records_, base, generation_);
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
  std::size_t type_count = 0;
  for (const auto& shard : shards_) {
    dirty_count += shard.dirty.size();
    type_count += shard.new_types.size();
  }

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

  if (type_count > 0) {
    std::vector<std::pair<std::size_t, std::string_view>> type_merge;
    type_merge.reserve(type_count);
    for (const auto& shard : shards_) {
      type_merge.insert(type_merge.end(), shard.new_types.begin(),
                        shard.new_types.end());
    }
    std::sort(type_merge.begin(), type_merge.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& entry : type_merge) {
      if (processor_type_set_.insert(entry.second).second) {
        processor_types_.push_back(entry.second);
      }
    }
  }
}

std::vector<const monitor::TraceRecord*> LogDatabase::chain_events(
    const Uuid& chain) const {
  std::vector<const monitor::TraceRecord*> out;
  const Shard& shard = shards_[shard_of(chain)];
  auto it = shard.by_chain.find(chain);
  if (it == shard.by_chain.end()) return out;
  const ChainIndex& index = it->second;
  out.reserve(index.events.size());
  for (const std::uint32_t i : index.events) out.push_back(&records_[i]);
  if (index.sorted_prefix >= out.size()) return out;  // already ascending
  // Out-of-order tail (rare: cross-thread interleaving or corrupt logs):
  // sort only the tail, then stable-merge with the sorted prefix.  Both
  // steps keep insertion order among equal seqs, so the result is exactly
  // what a stable_sort of the whole list yields.
  const auto by_seq = [](const monitor::TraceRecord* a,
                         const monitor::TraceRecord* b) {
    return a->seq < b->seq;
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
