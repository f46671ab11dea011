// Span recorder for the traced run.
//
// The traced run records one span around each call the benchmark makes
// into a layer: its name ("<layer>.<call>"), start and end on the steady
// clock, the recording thread, the span that caused it (possibly on another
// thread: a daemon callback is caused by the publisher's offer of the same
// segment) and a request id (a transaction number, a (connection, segment)
// pair, or a query number).  A count (records, bytes) rides on each span.
// Spans stay in memory until the workload ends; then they are summarized
// into per-layer metrics and written as Chrome trace-event JSON, which
// Perfetto and chrome://tracing open directly.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "stats.h"

namespace causeway::bench {

// Nanoseconds on the steady clock.
std::int64_t now_ns();

// Request ids for segments: connection index in the high half.
inline std::uint64_t segment_request(std::size_t connection,
                                     std::size_t segment) {
  return (static_cast<std::uint64_t>(connection) << 32) |
         static_cast<std::uint64_t>(segment);
}

class Tracer {
 public:
  struct Span {
    const char* name;  // static storage
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint32_t thread;
    std::uint64_t id;
    std::uint64_t parent;   // 0 = none
    std::uint64_t request;
    std::uint64_t count;
  };

  // Reserves an id before the span ends, so children can name it.
  std::uint64_t next_id();

  // Records a finished span; returns its id (`id` 0 allocates one).
  std::uint64_t record(const char* name, std::int64_t start_ns,
                       std::int64_t end_ns, std::uint64_t parent = 0,
                       std::uint64_t request = 0, std::uint64_t count = 0,
                       std::uint64_t id = 0);

  // Summaries over every span with this exact name.
  std::size_t calls(std::string_view name) const;
  double total_ms(std::string_view name) const;
  std::uint64_t total_count(std::string_view name) const;
  Samples durations_ms(std::string_view name) const;

  // Per-layer self time: each span's duration minus the part of it that
  // its children cover, summed by layer (the name up to the first '.').
  std::vector<std::pair<std::string, double>> self_ms_by_layer() const;

  // Chrome trace events ("ph":"X") for every span, one per line, comma
  // separated, without the enclosing array; `pid` tags the workload.
  std::string chrome_events(int pid, const std::string& workload) const;

 private:
  std::uint32_t thread_index();

  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
  std::uint64_t next_id_{1};  // guarded by mutex_
  std::uint32_t next_thread_{1};  // guarded by mutex_
};

// Times one call into a layer when a tracer is present.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t parent = 0,
             std::uint64_t request = 0)
      : tracer_(tracer),
        name_(name),
        parent_(parent),
        request_(request),
        id_(tracer ? tracer->next_id() : 0),
        start_(tracer ? now_ns() : 0) {}
  ~ScopedSpan() {
    if (tracer_) {
      tracer_->record(name_, start_, now_ns(), parent_, request_, count_, id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return id_; }
  void set_count(std::uint64_t count) { count_ = count; }

 private:
  Tracer* tracer_;
  const char* name_;
  std::uint64_t parent_;
  std::uint64_t request_;
  std::uint64_t id_;
  std::int64_t start_;
  std::uint64_t count_{0};
};

}  // namespace causeway::bench
