#include "transport/ingest_sink.h"

#include <chrono>
#include <optional>

namespace causeway::transport {

namespace {

std::uint64_t steady_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// RAII attribution bracket: anomaly events emitted by the pipeline while
// this is alive are charged to `peer_id` in the policy.
class Attribution {
 public:
  Attribution(ControlPolicy* policy, std::uint64_t peer_id,
              std::uint64_t now_ms)
      : policy_(policy) {
    if (policy_) policy_->begin_attribution(peer_id, now_ms);
  }
  ~Attribution() {
    if (policy_) policy_->end_attribution();
  }
  Attribution(const Attribution&) = delete;
  Attribution& operator=(const Attribution&) = delete;

 private:
  ControlPolicy* policy_;
};

}  // namespace

IngestSink::IngestSink(Options options) : options_(std::move(options)) {
  if (!options_.store_dir.empty()) {
    store_ = std::make_unique<store::StoreWriter>(options_.store_dir,
                                                  options_.store_options);
  }
}

void IngestSink::on_connect(const PeerInfo& peer) {
  if (options_.policy) options_.policy->on_peer_connect(peer, steady_ms());
  if (!options_.merged_path.empty()) {
    // Ensure the peer has a group even if it never ships a segment, so a
    // silent publisher still appears (empty) in the deterministic order.
    std::lock_guard lk(mutex_);
    retained_[PeerKey{peer.process_name, peer.pid}];
  }
}

void IngestSink::on_segment(const PeerInfo& peer,
                            std::span<const std::uint8_t> segment) {
  const std::uint64_t now = steady_ms();
  std::size_t records = 0;
  analysis::EpochInfo info;
  // The version word sits at bytes [4,8) of every segment; v4 segments
  // stay in column form all the way into the pipeline -- no record-major
  // assembly on the live collection path.
  std::uint32_t version = 0;
  if (segment.size() >= 8) {
    for (std::size_t i = 0; i < 4; ++i) {
      version |= static_cast<std::uint32_t>(segment[4 + i]) << (8 * i);
    }
  }
  // A v5 store wants the segment's columns (to re-encode them with
  // compression); decode once and share with the pipeline.
  const bool transcode =
      store_ && version >= 4 &&
      options_.store_options.trace_format == analysis::kTraceFormatV5;
  std::optional<analysis::ColumnBundle> cols;
  if (version >= 4 && (options_.pipeline || transcode)) {
    cols = analysis::decode_trace_segment_columns(segment);
  }
  if (options_.pipeline) {
    if (cols) {
      records = cols->count;
      Attribution scope(options_.policy, peer.peer_id, now);
      info = options_.pipeline->ingest(*cols);
    } else {
      const monitor::CollectedLogs logs =
          analysis::decode_trace_segment(segment);
      records = logs.records.size();
      Attribution scope(options_.policy, peer.peer_id, now);
      info = options_.pipeline->ingest(logs);
    }
  } else if (cols) {
    records = cols->count;
  } else if (store_) {
    // The store decodes the segment once, and rejects a malformed one
    // before writing a byte; the header's count is all this needs.
    records = analysis::trace_segment_record_count(segment);
  } else {
    // Nothing else decodes it: a corrupt segment must throw here, before
    // it is retained for the merged file.
    records = analysis::decode_trace_segment(segment).records.size();
  }
  if (store_) {
    // Stream to the store now -- durability is the point -- not at
    // finalize.  Arrival order is fine: queries pair events by chain and
    // event number, so the merged-file determinism dance is unnecessary.
    if (transcode) {
      store_->append(*cols);
    } else {
      store_->append_encoded(segment);
    }
  }
  if (options_.policy) options_.policy->on_segment(peer, records, now);
  {
    std::lock_guard lk(mutex_);
    ++totals_.segments;
    totals_.records += records;
    if (!options_.merged_path.empty()) {
      retained_[PeerKey{peer.process_name, peer.pid}].emplace_back(
          segment.begin(), segment.end());
    }
  }
  if (options_.pipeline && epoch_callback) epoch_callback(peer, info);
}

void IngestSink::on_drop_notice(const PeerInfo& peer,
                                const DropNotice& notice) {
  const std::uint64_t now = steady_ms();
  if (options_.policy) options_.policy->on_drop_notice(peer, notice, now);
  {
    std::lock_guard lk(mutex_);
    totals_.publish_dropped_records += notice.records;
    totals_.publish_dropped_segments += notice.segments;
  }
  if (options_.pipeline) {
    // Synthesize an empty bundle carrying only the transport-tier loss:
    // the counter accumulates in the database and the anomaly pass emits a
    // publish-drop event, without inventing records.
    monitor::CollectedLogs loss;
    loss.publish_dropped = notice.records;
    analysis::EpochInfo info;
    {
      Attribution scope(options_.policy, peer.peer_id, now);
      info = options_.pipeline->ingest(loss);
    }
    if (epoch_callback) epoch_callback(peer, info);
  }
}

void IngestSink::on_status(const PeerInfo& peer, const ControlStatus& status) {
  const std::uint64_t now = steady_ms();
  if (options_.policy) options_.policy->on_status(peer, status, now);
  {
    std::lock_guard lk(mutex_);
    totals_.sampled_out_records += status.sampled_out;
  }
  if (options_.pipeline && status.sampled_out > 0) {
    // Same trick as drop notices: an empty bundle carries the suppressed
    // count into the database, so its accounting reconciles sampling
    // exactly -- records + sampled_out adds up across the whole plane.
    monitor::CollectedLogs suppressed;
    suppressed.sampled_out = status.sampled_out;
    options_.pipeline->ingest(suppressed);
  }
}

void IngestSink::on_disconnect(const PeerInfo& peer, bool) {
  if (options_.policy) options_.policy->on_peer_disconnect(peer);
}

IngestSink::Totals IngestSink::finalize() {
  std::lock_guard lk(mutex_);
  if (store_) {
    totals_.store_segments = store_->segments();
    store_->close();  // seals the live file
    totals_.store_files_sealed = store_->files_sealed();
    store_.reset();
  }
  if (!options_.merged_path.empty()) {
    analysis::TraceWriter writer(options_.merged_path,
                                 options_.merged_format);
    for (const auto& [key, segments] : retained_) {
      for (const std::vector<std::uint8_t>& segment : segments) {
        writer.append_encoded(segment);
        ++totals_.merged_segments;
      }
    }
    writer.close();
    retained_.clear();
  }
  return totals_;
}

}  // namespace causeway::transport
