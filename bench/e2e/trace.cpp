#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace causeway::bench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t Tracer::thread_index() {
  // One tracer per workload process, so a process-wide index is enough.
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

std::uint64_t Tracer::next_id() {
  std::lock_guard lk(mutex_);
  return next_id_++;
}

std::uint64_t Tracer::record(const char* name, std::int64_t start_ns,
                             std::int64_t end_ns, std::uint64_t parent,
                             std::uint64_t request, std::uint64_t count,
                             std::uint64_t id) {
  const std::uint32_t thread = thread_index();
  std::lock_guard lk(mutex_);
  if (id == 0) id = next_id_++;
  spans_.push_back(
      Span{name, start_ns, end_ns, thread, id, parent, request, count});
  return id;
}

std::size_t Tracer::calls(std::string_view name) const {
  std::lock_guard lk(mutex_);
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [&](const Span& s) { return name == s.name; }));
}

double Tracer::total_ms(std::string_view name) const {
  return durations_ms(name).sum();
}

std::uint64_t Tracer::total_count(std::string_view name) const {
  std::lock_guard lk(mutex_);
  std::uint64_t total = 0;
  for (const Span& s : spans_) {
    if (name == s.name) total += s.count;
  }
  return total;
}

Samples Tracer::durations_ms(std::string_view name) const {
  std::lock_guard lk(mutex_);
  Samples out;
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.add(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

std::vector<std::pair<std::string, double>> Tracer::self_ms_by_layer() const {
  std::lock_guard lk(mutex_);
  // Children that ran on their parent's thread cover part of its interval;
  // a child on another thread (a daemon callback caused by an offer) runs
  // beside its parent, not inside it.
  std::unordered_map<std::uint64_t, const Span*> by_id;
  for (const Span& s : spans_) by_id.emplace(s.id, &s);
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::int64_t, std::int64_t>>>
      covered;
  for (const Span& s : spans_) {
    const auto it = by_id.find(s.parent);
    if (s.parent == 0 || it == by_id.end()) continue;
    const Span& p = *it->second;
    if (p.thread != s.thread) continue;
    covered[p.id].emplace_back(std::max(s.start_ns, p.start_ns),
                               std::min(s.end_ns, p.end_ns));
  }
  std::map<std::string, double> by_layer;
  for (const Span& s : spans_) {
    std::int64_t self = s.end_ns - s.start_ns;
    if (auto it = covered.find(s.id); it != covered.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t reach = s.start_ns;
      for (const auto& [a, b] : iv) {
        const std::int64_t from = std::max(a, reach);
        if (b > from) {
          self -= b - from;
          reach = b;
        }
      }
    }
    const std::string_view name = s.name;
    by_layer[std::string(name.substr(0, name.find('.')))] +=
        static_cast<double>(self) / 1e6;
  }
  return {by_layer.begin(), by_layer.end()};
}

std::string Tracer::chrome_events(int pid, const std::string& workload) const {
  std::lock_guard lk(mutex_);
  std::string out;
  char buf[512];
  for (const Span& s : spans_) {
    const std::string_view name = s.name;
    const std::string layer(name.substr(0, name.find('.')));
    std::snprintf(
        buf, sizeof buf,
        "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
        "\"dur\":%.3f,\"pid\":%d,\"tid\":%" PRIu32
        ",\"args\":{\"workload\":\"%s\",\"span\":%" PRIu64
        ",\"parent\":%" PRIu64 ",\"request\":%" PRIu64 ",\"count\":%" PRIu64
        "}}",
        out.empty() ? "" : ",\n", s.name, layer.c_str(),
        static_cast<double>(s.start_ns) / 1e3,
        static_cast<double>(s.end_ns - s.start_ns) / 1e3, pid, s.thread,
        workload.c_str(), s.id, s.parent, s.request, s.count);
    out += buf;
  }
  return out;
}

}  // namespace causeway::bench
