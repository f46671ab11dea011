#include "sink.h"

#include <chrono>
#include <cstdlib>

#include "analysis/trace_io.h"

namespace causeway::bench {

namespace {

std::uint32_t segment_version(std::span<const std::uint8_t> segment) {
  std::uint32_t version = 0;
  if (segment.size() >= 8) {
    for (std::size_t i = 0; i < 4; ++i) {
      version |= static_cast<std::uint32_t>(segment[4 + i]) << (8 * i);
    }
  }
  return version;
}

}  // namespace

BenchSink::BenchSink(Config config) : config_(std::move(config)) {
  if (config_.tracer == nullptr) {
    transport::IngestSink::Options options;
    options.pipeline = config_.pipeline;
    options.store_dir = config_.store_dir;
    options.store_options = config_.store_options;
    product_ = std::make_unique<transport::IngestSink>(std::move(options));
  } else if (!config_.store_dir.empty()) {
    store_ = std::make_unique<store::StoreWriter>(config_.store_dir,
                                                  config_.store_options);
  }
}

BenchSink::~BenchSink() = default;

std::size_t BenchSink::connection_of(const transport::PeerInfo& peer) {
  const std::size_t dash = peer.process_name.rfind('-');
  return dash == std::string::npos
             ? 0
             : static_cast<std::size_t>(
                   std::atoll(peer.process_name.c_str() + dash + 1));
}

void BenchSink::expect(std::size_t connection, std::uint64_t cause_span,
                       std::int64_t sent_ns) {
  std::lock_guard lk(mutex_);
  if (expected_.size() <= connection) expected_.resize(connection + 1);
  expected_[connection].push_back(Expected{cause_span, sent_ns});
}

void BenchSink::unexpect_last(std::size_t connection) {
  std::lock_guard lk(mutex_);
  if (connection < expected_.size() && !expected_[connection].empty()) {
    expected_[connection].pop_back();
  }
}

void BenchSink::on_connect(const transport::PeerInfo& peer) {
  if (product_) product_->on_connect(peer);
}

void BenchSink::on_segment(const transport::PeerInfo& peer,
                           std::span<const std::uint8_t> segment) {
  const std::int64_t start = now_ns();
  const std::size_t conn = connection_of(peer);
  std::size_t nth = 0;
  std::uint64_t cause = 0;
  {
    std::lock_guard lk(mutex_);
    if (per_connection_.size() <= conn) per_connection_.resize(conn + 1);
    nth = per_connection_[conn]++;
    if (config_.tracer && conn < expected_.size() &&
        !expected_[conn].empty()) {
      const Expected e = expected_[conn].front();
      expected_[conn].pop_front();
      cause = e.span;
      waits_ms_.add(static_cast<double>(start - e.sent_ns) / 1e6);
    }
  }

  std::uint64_t records = 0;
  if (product_) {
    const std::uint64_t before = product_->totals().records;
    product_->on_segment(peer, segment);
    records = product_->totals().records - before;
  } else {
    ScopedSpan span(config_.tracer, "transport.on_segment", cause,
                    segment_request(conn, nth));
    records = traced_segment(segment, span.id(), segment_request(conn, nth));
    span.set_count(segment.size());
  }

  {
    std::lock_guard lk(mutex_);
    totals_.segments += 1;
    totals_.records += records;
    arrivals_.push_back(
        Arrival{start, now_ns(), conn, nth, records, totals_.records});
  }
  stored_.notify_all();
}

// IngestSink::on_segment's calls, in its order, each timed.
std::uint64_t BenchSink::traced_segment(std::span<const std::uint8_t> segment,
                                        std::uint64_t parent,
                                        std::uint64_t request) {
  Tracer* tracer = config_.tracer;
  const std::uint32_t version = segment_version(segment);
  const bool transcode =
      store_ && version >= 4 &&
      config_.store_options.trace_format == analysis::kTraceFormatV5;
  std::optional<analysis::ColumnBundle> cols;
  if (version >= 4 && (config_.pipeline || transcode)) {
    ScopedSpan span(tracer, "trace_io.decode", parent, request);
    cols = analysis::decode_trace_segment_columns(segment);
    span.set_count(cols->count);
  }
  std::uint64_t records = 0;
  if (config_.pipeline) {
    if (cols) {
      records = cols->count;
      ScopedSpan span(tracer, "pipeline.ingest", parent, request);
      config_.pipeline->ingest(*cols);
      span.set_count(records);
    } else {
      monitor::CollectedLogs logs;
      {
        ScopedSpan span(tracer, "trace_io.decode", parent, request);
        logs = analysis::decode_trace_segment(segment);
        span.set_count(logs.records.size());
      }
      records = logs.records.size();
      ScopedSpan span(tracer, "pipeline.ingest", parent, request);
      config_.pipeline->ingest(logs);
      span.set_count(records);
    }
  } else if (cols) {
    records = cols->count;
  } else {
    ScopedSpan span(tracer, "trace_io.decode", parent, request);
    records = analysis::decode_trace_segment(segment).records.size();
    span.set_count(records);
  }
  if (store_) {
    const std::size_t sealed = store_->files_sealed();
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan span(tracer, "store.append", parent, request);
      if (transcode) {
        store_->append(*cols);
      } else {
        store_->append_encoded(segment);
      }
      span.set_count(records);
    }
    if (store_->files_sealed() > sealed) {
      std::lock_guard lk(mutex_);
      seal_ms_.add(static_cast<double>(now_ns() - t0) / 1e6);
    }
  }
  return records;
}

void BenchSink::on_drop_notice(const transport::PeerInfo& peer,
                               const transport::DropNotice& notice) {
  if (product_) {
    product_->on_drop_notice(peer, notice);
  } else if (config_.pipeline) {
    monitor::CollectedLogs loss;
    loss.publish_dropped = notice.records;
    config_.pipeline->ingest(loss);
  }
  std::lock_guard lk(mutex_);
  totals_.publish_dropped_records += notice.records;
}

void BenchSink::on_status(const transport::PeerInfo& peer,
                          const transport::ControlStatus& status) {
  if (product_) {
    product_->on_status(peer, status);
  } else if (config_.pipeline && status.sampled_out > 0) {
    monitor::CollectedLogs suppressed;
    suppressed.sampled_out = status.sampled_out;
    config_.pipeline->ingest(suppressed);
  }
  std::lock_guard lk(mutex_);
  totals_.sampled_out_records += status.sampled_out;
}

void BenchSink::on_disconnect(const transport::PeerInfo& peer, bool clean) {
  if (product_) product_->on_disconnect(peer, clean);
}

std::uint64_t BenchSink::records() const {
  std::lock_guard lk(mutex_);
  return totals_.records;
}

bool BenchSink::wait_records(std::uint64_t records, double timeout_s) const {
  std::unique_lock lk(mutex_);
  return stored_.wait_for(lk, std::chrono::duration<double>(timeout_s),
                          [&] { return totals_.records >= records; });
}

std::vector<BenchSink::Arrival> BenchSink::arrivals() const {
  std::lock_guard lk(mutex_);
  return arrivals_;
}

Samples BenchSink::waits_ms() const {
  std::lock_guard lk(mutex_);
  return waits_ms_;
}

Samples BenchSink::seal_ms() const {
  std::lock_guard lk(mutex_);
  return seal_ms_;
}

BenchSink::Totals BenchSink::finalize() {
  std::size_t files = 0;
  if (product_) {
    files = product_->finalize().store_files_sealed;
  } else if (store_) {
    ScopedSpan span(config_.tracer, "store.close");
    store_->close();
    files = store_->files_sealed();
  }
  std::lock_guard lk(mutex_);
  totals_.store_files = files;
  return totals_;
}

}  // namespace causeway::bench
