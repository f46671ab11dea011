#include "common.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <thread>
#include <unordered_map>

#include "analysis/database.h"
#include "analysis/trace_io.h"
#include "monitor/collector.h"
#include "workload/logsynth.h"

namespace causeway::bench {

namespace fs = std::filesystem;

namespace {

// Captured during static initialization: the closest this process gets to
// its own start.
const std::int64_t g_process_start_ns = now_ns();

void emit_metrics(const char* kind, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("@%s %s %.17g %s %zu %d\n", kind, m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.pct);
  }
}

}  // namespace

void Result::check(bool ok, const char* fmt, ...) {
  if (ok) return;
  correct = false;
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  errors.emplace_back(buf);
}

void Result::add_percentile(std::vector<Metric>& into, const std::string& name,
                            const Samples& s, int pct, double scale,
                            const char* unit) {
  const auto v = s.percentile(pct);
  check(v.has_value() || smoke, "%s: %zu samples cannot support p%d (need %zu)",
        name.c_str(), s.size(), pct, min_samples_for(pct));
  if (v) add(into, name, *v * scale, unit, s.size(), pct);
}

void Result::add_p50_tail(std::vector<Metric>& into, const std::string& prefix,
                          const Samples& s, double scale, const char* unit) {
  const auto p50 = s.percentile(50);
  add(into, prefix + "_p50_" + unit, p50 ? *p50 * scale : 0.0, unit, s.size(),
      p50 ? 50 : 0);
  int pct = 0;
  const double tail = s.tail(&pct);
  add(into, prefix + "_tail_" + unit, tail * scale, unit, s.size(), pct);
}

void emit_result(const Result& r) {
  emit_metrics("e2e", r.e2e);
  emit_metrics("layer", r.layer);
  emit_metrics("detail", r.detail);
  for (const std::string& e : r.errors) std::printf("@error %s\n", e.c_str());
  std::printf("@status %d %llu %llu\n", r.correct ? 1 : 0,
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  std::fflush(stdout);
}

void mark_phase(const Options& opt, bool begin) {
  if (opt.tracer == nullptr) return;
  std::fprintf(stderr, "@phase %s\n", begin ? "begin" : "end");
  std::fflush(stderr);
}

double cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

void reset_peak_rss() {
  // Hand memory the set-up freed back to the kernel, then restart the
  // kernel's high-water mark (Linux >= 4.0), so the peak is the measured
  // phase's own and not the input generator's.
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB
    }
  }
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double timed_setup(int reps, const std::function<void()>& setup) {
  // The first repetition is timed from process start, so it carries the
  // process's own start-up; the median keeps one slow repetition out.
  Samples durations;
  std::int64_t start = g_process_start_ns;
  for (int i = 0; i < reps; ++i) {
    setup();
    const std::int64_t end = now_ns();
    durations.add(static_cast<double>(end - start) / 1e9);
    start = end;
  }
  return durations.median();
}

std::string fresh_dir(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
  fs::create_directories(path);
  return path;
}

std::uint64_t dir_bytes(const std::string& path) {
  std::uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(path)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

void wait_until(std::int64_t due_ns) {
  // Sleep to within 100 us of the deadline, then spin: a plain sleep
  // overshoots by tens of microseconds, which an open loop timed from the
  // scheduled start would count as latency.
  constexpr std::int64_t kSpinNs = 100'000;
  const std::int64_t now = now_ns();
  if (due_ns - now > kSpinNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(due_ns - now - kSpinNs));
  }
  while (now_ns() < due_ns) {
  }
}

E2Input make_e2_input(const E2Spec& spec) {
  E2Input input;
  std::map<std::string, std::size_t> stream_of;  // process name -> stream
  std::vector<monitor::CollectedLogs::DomainEntry> identities;  // per stream
  std::unordered_map<Uuid, std::size_t> sampled;  // chain -> sample index
  std::mt19937_64 rng(spec.seed);
  std::size_t position = 0;

  for (std::size_t part = 0; part < spec.parts; ++part) {
    const std::uint64_t seed = spec.seed * 64 + part;
    analysis::LogDatabase db(1);
    set_uuid_seed(seed);  // chain UUIDs are part of the input
    workload::LogSynthConfig config;
    config.seed = seed;
    config.total_calls = spec.calls / spec.parts;
    workload::synthesize_logs(config, db);

    const auto& chains = db.chains();
    for (std::size_t i = 0; i < spec.sample_chains / spec.parts; ++i) {
      const Uuid& c = chains[rng() % chains.size()];
      if (sampled.emplace(c, input.chains.size()).second) {
        input.chains.push_back(c);
        input.chain_spans.push_back(0);
        input.chain_segments.emplace_back();
      }
    }

    // This part's records per process, strings owned per process.
    std::deque<monitor::CollectedLogs> split;  // stable for the interners
    std::vector<monitor::BundleInterner> interners;
    for (const monitor::TraceRecord& r : db.records()) {
      // A query span is a call's stub pair, or the skeleton-rooted frame a
      // oneway call opens in its spawned chain: one span per stub start,
      // one more per oneway skeleton start.
      if (r.event == monitor::EventKind::kStubStart ||
          (r.event == monitor::EventKind::kSkelStart &&
           r.kind == monitor::CallKind::kOneway)) {
        ++input.spans;
        if (auto s = sampled.find(r.chain); s != sampled.end()) {
          ++input.chain_spans[s->second];
        }
      }
      auto [it, added] =
          stream_of.emplace(std::string(r.process_name), stream_of.size());
      if (added) {
        input.streams.emplace_back();
        identities.push_back({{std::string(r.process_name),
                               std::string(r.node_name),
                               std::string(r.processor_type)},
                              r.mode,
                              0});
      }
      while (split.size() < input.streams.size()) {
        split.emplace_back();
        interners.emplace_back(split.back());
      }
      monitor::BundleInterner& intern = interners[it->second];
      monitor::TraceRecord copy = r;
      copy.interface_name = intern(r.interface_name);
      copy.function_name = intern(r.function_name);
      copy.process_name = intern(r.process_name);
      copy.node_name = intern(r.node_name);
      copy.processor_type = intern(r.processor_type);
      split[it->second].records.push_back(copy);
    }

    // Segment boundaries per process, then the segments in send order.
    std::vector<std::size_t> per_segment(split.size());
    std::vector<std::size_t> count(split.size());
    std::size_t rounds = 0;
    for (std::size_t p = 0; p < split.size(); ++p) {
      const std::size_t n = split[p].records.size();
      const std::size_t cuts = spec.segments_per_part;
      per_segment[p] = cuts > 0
                           ? std::max<std::size_t>(1, (n + cuts - 1) / cuts)
                           : spec.records_per_segment;
      count[p] = (n + per_segment[p] - 1) / per_segment[p];
      rounds = std::max(rounds, count[p]);
    }
    for (std::size_t i = 0; i < rounds; ++i) {
      for (std::size_t p = 0; p < split.size(); ++p) {
        if (i >= count[p]) continue;
        const auto& all = split[p].records;
        const std::size_t begin = i * per_segment[p];
        const std::size_t end = std::min(all.size(), begin + per_segment[p]);
        Segment seg;
        seg.stream = p;
        seg.index = input.streams[p].size();
        seg.position = position++;
        seg.plateau =
            spec.plateaus
                ? static_cast<std::int64_t>(seg.position + 1) * kPlateauWidth
                : 0;
        monitor::CollectedLogs chunk;
        chunk.strings = split[p].strings;
        chunk.epoch = seg.index + 1;
        chunk.domains.push_back(identities[p]);
        chunk.domains.back().record_count = end - begin;
        chunk.records.assign(all.begin() + static_cast<std::ptrdiff_t>(begin),
                             all.begin() + static_cast<std::ptrdiff_t>(end));
        for (monitor::TraceRecord& r : chunk.records) {
          r.value_start += seg.plateau;
          r.value_end += seg.plateau;
          if (auto s = sampled.find(r.chain); s != sampled.end()) {
            auto& where = input.chain_segments[s->second];
            if (where.empty() || where.back() != std::make_pair(p, seg.index)) {
              where.emplace_back(p, seg.index);
            }
          }
        }
        seg.bytes = analysis::encode_trace(chunk, analysis::kTraceFormatV4);
        seg.records = chunk.records.size();
        input.records += seg.records;
        input.wire_bytes += seg.bytes.size();
        input.streams[p].push_back(std::move(seg));
      }
    }
  }
  return input;
}

std::vector<const Segment*> send_order(const E2Input& input) {
  std::vector<const Segment*> order;
  for (const auto& stream : input.streams) {
    for (const Segment& s : stream) order.push_back(&s);
  }
  std::sort(order.begin(), order.end(), [](const Segment* a, const Segment* b) {
    return a->position < b->position;
  });
  return order;
}

}  // namespace causeway::bench
