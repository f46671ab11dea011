// Shared plumbing for the end-to-end benchmark's workloads: run options,
// the result a workload reports, resource counters, and the E2-shaped
// input streams three of the four workloads replay.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/ids.h"
#include "stats.h"
#include "trace.h"

namespace causeway::bench {

struct Options {
  std::uint64_t seed{1};
  double seconds{10};
  bool smoke{false};       // ~1% of the size, every check, no perf claims
  std::string workdir;     // sockets and stores live here
  Tracer* tracer{nullptr};  // set in the traced run only
};

struct Metric {
  std::string name;
  double value{0};
  std::string unit;
  std::size_t samples{0};  // 0 = not a sampled timing
  int pct{0};              // for "tail" metrics: which percentile
};

// What one workload process reports.
struct Result {
  explicit Result(bool smoke = false) : smoke(smoke) {}

  // Smoke runs are too small for most percentiles; they skip those
  // metrics instead of failing.
  bool smoke{false};
  bool correct{true};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<Metric> e2e;     // the benchmark's end-to-end metrics
  std::vector<Metric> layer;   // per-layer metrics (traced run)
  std::vector<Metric> detail;  // workload-specific extras, printed only
  std::vector<std::string> errors;

  // Records a failed correctness check (printf-style message).
  void check(bool ok, const char* fmt, ...)
      __attribute__((format(printf, 3, 4)));

  void add(std::vector<Metric>& into, std::string name, double value,
           std::string unit, std::size_t samples = 0, int pct = 0) {
    into.push_back(Metric{std::move(name), value, std::move(unit), samples,
                          pct});
  }
  // A latency percentile from `s` (ms), or a failed check when the sample
  // count cannot support it.
  void add_percentile(std::vector<Metric>& into, const std::string& name,
                      const Samples& s, int pct, double scale = 1.0,
                      const char* unit = "ms");
  // Median and the highest supported percentile, for per-layer timings.
  void add_p50_tail(std::vector<Metric>& into, const std::string& prefix,
                    const Samples& s, double scale = 1.0,
                    const char* unit = "ms");
};

// Prints the result in the line protocol the parent process reads.
void emit_result(const Result& r);

// Marks the measured phase on stderr in the traced run, so the parent can
// attribute the pipeline's CAUSEWAY_PASS_TIMING lines to it.
void mark_phase(const Options& opt, bool begin);

// Process-wide resource counters.
double cpu_seconds();  // user + system since process start
void reset_peak_rss();  // call as the measured phase starts
double peak_rss_mb();   // resident high-water mark since the reset

// Median of the per-repetition set-up durations; `reps` repetitions of
// `setup`, the last of which stays in place for the measured phase.
double timed_setup(int reps, const std::function<void()>& setup);

// Directory helpers (the workload's scratch space).
std::string fresh_dir(const std::string& path);
std::uint64_t dir_bytes(const std::string& path);

// Sleeps, then spins, until `due_ns` on the steady clock.
void wait_until(std::int64_t due_ns);

// --- E2-shaped input ------------------------------------------------------
//
// logsynth with the paper's E2 shape (801 methods, 155 interfaces, 176
// components, 32 threads, 4 processes), drawn as several logsynth runs
// ("parts").  Each part is split per process in stream order and chunked
// into segments, each encoded as one v4 trace segment; a process's stream
// is its segments from every part, in part order.  The send order takes
// the parts one after another and, within a part, the processes' segments
// round-robin.
inline constexpr std::size_t kE2Calls = 195'000;

struct Segment {
  std::vector<std::uint8_t> bytes;  // one encoded v4 segment
  std::size_t records{0};
  std::size_t stream{0};    // which per-process stream
  std::size_t index{0};     // position within that stream
  std::size_t position{0};  // position in the send order
  std::int64_t plateau{0};  // added to every timestamp in it (0 = none)
};

// Width of one timestamp plateau: every record of a plateaued segment has
// timestamps in [plateau, plateau + kPlateauWidth).
inline constexpr std::int64_t kPlateauWidth = std::int64_t{1} << 40;

struct E2Input {
  std::vector<std::vector<Segment>> streams;  // per process
  std::uint64_t records{0};
  std::uint64_t spans{0};  // what a `count` query over all of it returns
  std::uint64_t wire_bytes{0};
  // A sample of chains (for lookups), each one's span count, and every
  // (stream, segment index) that holds one of its records.
  std::vector<Uuid> chains;
  std::vector<std::uint64_t> chain_spans;
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> chain_segments;
};

struct E2Spec {
  std::uint64_t seed{1};
  std::size_t calls{kE2Calls};
  // The calls are drawn as this many independent logsynth runs (seeds
  // derived from `seed`, never shared with another --seed), so no single
  // run's heaviest chains dominate the input's cost.
  std::size_t parts{4};
  std::size_t records_per_segment{4096};
  // When nonzero, overrides records_per_segment: each part's share of a
  // process stream is cut into this many equal segments.
  std::size_t segments_per_part{0};
  // Shift every segment onto its own timestamp plateau (in send order), so
  // time windows have something to prune.
  bool plateaus{false};
  std::size_t sample_chains{0};  // drawn with `seed`
};

E2Input make_e2_input(const E2Spec& spec);

// Every segment, in send order.
std::vector<const Segment*> send_order(const E2Input& input);

}  // namespace causeway::bench
