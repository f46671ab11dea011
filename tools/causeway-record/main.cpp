// causeway-record -- run a monitored workload and write its trace file.
//
// The runtime half of the paper's two-phase workflow: drive a workload with
// the probes active, reach quiescence, collect the scattered per-process
// logs, and persist them for the off-line analyzer (causeway-analyze).
//
// With --stream, collection happens *while the workload runs*: a drainer
// thread wakes periodically, drains the per-thread ring buffers into one
// epoch bundle, and appends it to the trace file as a segment.  The
// resulting multi-segment trace synthesizes into the same database (and the
// same analyzer output) as a single offline collect of the identical run.
//
// The drain cadence adapts to the collection tier's observed pressure: an
// epoch that dropped records (ring overflow) halves the interval, a hot ring
// shortens it, a near-idle ring stretches it -- always clamped around the
// --interval-ms base (see monitor::adaptive_interval_ms).  Each persisted
// epoch reports its cadence decision on stderr; --fixed-interval restores
// the constant cadence.
//
// Usage:
//   causeway-record [--workload=pps|synthetic] [--mode=latency|cpu|causality]
//                   [--topology=mono|four|percomp|hybrid]   (pps)
//                   [--jobs=N] [--transactions=N] [--seed=N]
//                   [--stream] [--interval-ms=N] [--fixed-interval]
//                   [--out=trace.cwt] [--trace-format=v3|v4|v5] [--verify]
//                   [--publish=ADDR] [--publish-name=NAME] [--no-control]
//
// --verify reads the finished trace back through the analyzer's (parallel)
// segment decoder and checks the synthesized database against the writer's
// own record count -- a cheap end-to-end round-trip gate after every run.
//
// --publish replaces the local trace file with the cross-process transport:
// epoch bundles ship over a stream socket -- ADDR is "unix:/path", a bare
// socket path, or "tcp:host:port" for cross-host collection -- to a
// causeway-collectd daemon (which merges any number of publishing
// processes, local or remote).  The drain
// cadence, adaptivity and --interval-ms knobs apply unchanged; --out and
// --verify do not (there is no local file).  The publisher never blocks the
// workload: segments the daemon cannot absorb are dropped and counted.
//
// While publishing, the daemon may steer this process (causeway-collectd
// --policy=auto): CWCT directives arriving on the same socket retune the
// probes -- chain sampling, probe mode, muting -- applied at the next epoch
// boundary.  --no-control opts out; directives are then decoded and
// discarded, exactly as if this were an old publisher.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <unistd.h>

#include "analysis/trace_io.h"
#include "common/version.h"
#include "pps/pps_system.h"
#include "transport/publisher.h"
#include "workload/synthetic.h"

using namespace causeway;

namespace {

struct Args {
  std::string workload{"pps"};
  std::string mode{"latency"};
  std::string topology{"four"};
  int jobs{5};
  std::size_t transactions{10};
  std::uint64_t seed{42};
  std::string out{"trace.cwt"};
  std::uint32_t trace_format{analysis::kTraceFormatDefault};
  bool stream{false};
  int interval_ms{50};
  bool adaptive{true};
  bool verify{false};
  std::string publish;       // endpoint address; "" = write a local file
  std::string publish_name;  // handshake name (default: workload-pid)
  bool accept_control{true};  // --no-control: decode-and-drop directives
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      args.workload = v;
    } else if (const char* v = value("--mode=")) {
      args.mode = v;
    } else if (const char* v = value("--topology=")) {
      args.topology = v;
    } else if (const char* v = value("--jobs=")) {
      args.jobs = std::atoi(v);
    } else if (const char* v = value("--transactions=")) {
      args.transactions = static_cast<std::size_t>(std::atoll(v));
    } else if (const char* v = value("--seed=")) {
      args.seed = static_cast<std::uint64_t>(std::atoll(v));
    } else if (const char* v = value("--out=")) {
      args.out = v;
    } else if (const char* v = value("--trace-format=")) {
      const std::string format = v;
      if (format == "v3" || format == "3") {
        args.trace_format = analysis::kTraceFormatV3;
      } else if (format == "v4" || format == "4") {
        args.trace_format = analysis::kTraceFormatV4;
      } else if (format == "v5" || format == "5") {
        args.trace_format = analysis::kTraceFormatV5;
      } else {
        std::fprintf(stderr,
                     "unknown trace format '%s' (want v3, v4 or v5)\n", v);
        return false;
      }
    } else if (arg == "--stream") {
      args.stream = true;
    } else if (const char* v = value("--interval-ms=")) {
      args.interval_ms = std::atoi(v);
    } else if (arg == "--fixed-interval") {
      args.adaptive = false;
    } else if (arg == "--verify") {
      args.verify = true;
    } else if (const char* v = value("--publish=")) {
      args.publish = v;
    } else if (const char* v = value("--publish-name=")) {
      args.publish_name = v;
    } else if (arg == "--no-control") {
      args.accept_control = false;
    } else if (arg == "--version") {
      std::fputs(version_banner("causeway-record").c_str(), stdout);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return false;
    }
  }
  if (args.interval_ms < 1) args.interval_ms = 1;
  if (!args.publish.empty() && args.verify) {
    std::fprintf(stderr,
                 "--verify needs a local trace file; it cannot be combined "
                 "with --publish\n");
    return false;
  }
  if (!args.publish.empty() && args.stream) {
    std::fprintf(stderr,
                 "--publish already streams epochs; drop --stream\n");
    return false;
  }
  return true;
}

monitor::ProbeMode parse_mode(const std::string& mode) {
  if (mode == "cpu") return monitor::ProbeMode::kCpu;
  if (mode == "causality") return monitor::ProbeMode::kCausalityOnly;
  return monitor::ProbeMode::kLatency;
}

// Periodic drainer: one segment per epoch while the workload runs, plus a
// final drain after quiescence so the last partial epoch (and every
// domain's entry) always lands in the file.  With `adaptive`, the wait
// between drains follows adaptive_interval_ms over each epoch's observed
// drop count and ring occupancy.
class StreamDrainer {
 public:
  StreamDrainer(monitor::Collector& collector, analysis::TraceWriter& writer,
                int interval_ms, bool adaptive)
      : collector_(collector),
        writer_(writer),
        base_ms_(static_cast<std::uint64_t>(interval_ms)),
        current_ms_(base_ms_),
        adaptive_(adaptive) {
    thread_ = std::thread([this] { run(); });
  }

  // Stops the periodic thread and writes the final segment.  The final
  // segment is written even when empty: it carries the domain inventory of
  // a drain epoch, so an analyzer always sees the full deployment.
  void finish() {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    writer_.append(collector_.drain());
  }

 private:
  void run() {
    std::unique_lock lock(mu_);
    while (!stop_) {
      cv_.wait_for(lock, std::chrono::milliseconds(current_ms_),
                   [this] { return stop_; });
      if (stop_) break;
      lock.unlock();
      monitor::CollectedLogs batch = collector_.drain();
      const std::uint64_t prev_ms = current_ms_;
      if (adaptive_) {
        current_ms_ = monitor::adaptive_interval_ms(
            current_ms_, base_ms_, batch.dropped, batch.ring_utilization);
      }
      // Skip empty mid-run epochs: no records, nothing to persist.
      if (!batch.records.empty() || batch.dropped != 0) {
        writer_.append(batch);
        std::fprintf(
            stderr,
            "[stream] epoch %llu: +%zu records, dropped %llu, ring %.1f%%, "
            "interval %llu -> %llu ms\n",
            static_cast<unsigned long long>(batch.epoch),
            batch.records.size(),
            static_cast<unsigned long long>(batch.dropped),
            batch.ring_utilization * 100.0,
            static_cast<unsigned long long>(prev_ms),
            static_cast<unsigned long long>(current_ms_));
      }
      lock.lock();
    }
  }

  monitor::Collector& collector_;
  analysis::TraceWriter& writer_;
  const std::uint64_t base_ms_;
  std::uint64_t current_ms_;
  const bool adaptive_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_{false};
  std::thread thread_;
};

pps::PpsConfig make_pps_config(const Args& args) {
  pps::PpsConfig config;
  config.monitor.mode = parse_mode(args.mode);
  if (args.topology == "mono") {
    config.topology = pps::PpsConfig::Topology::kMonolithic;
  } else if (args.topology == "percomp") {
    config.topology = pps::PpsConfig::Topology::kPerComponent;
  } else if (args.topology == "hybrid") {
    config.topology = pps::PpsConfig::Topology::kHybridCom;
  } else {
    config.topology = pps::PpsConfig::Topology::kFourProcess;
  }
  return config;
}

workload::SyntheticConfig make_synthetic_config(const Args& args) {
  workload::SyntheticConfig config;
  config.seed = args.seed;
  config.domains = 4;
  config.components = 24;
  config.interfaces = 12;
  config.methods_per_interface = 4;
  config.levels = 4;
  config.max_children = 2;
  config.oneway_fraction = 0.1;
  config.cpu_per_call = 10 * kNanosPerMicro;
  config.processor_kinds = 3;
  config.monitor.mode = parse_mode(args.mode);
  return config;
}

// Runs `system` to quiescence; in streaming mode drains into `writer`
// concurrently, otherwise collects once at the end.  Returns the number of
// records persisted (for --verify).
template <typename System, typename Drive>
std::uint64_t record(const Args& args, System& system, Drive&& drive) {
  if (!args.publish.empty()) {
    monitor::Collector collector;
    system.attach_collector(collector);
    transport::PublisherConfig config;
    config.address = args.publish;
    config.process_name =
        args.publish_name.empty()
            ? args.workload + "-" + std::to_string(::getpid())
            : args.publish_name;
    config.trace_format = args.trace_format;
    config.interval_ms = static_cast<std::uint64_t>(args.interval_ms);
    config.adaptive = args.adaptive;
    config.accept_control = args.accept_control;
    transport::EpochPublisher publisher(collector, config);
    publisher.start();
    drive();
    system.wait_quiescent();
    const bool clean = publisher.finish();
    const transport::EpochPublisher::Stats stats = publisher.stats();
    std::printf(
        "causeway-record: published %llu records in %llu segments "
        "(%llu epochs, %llu dropped, %llu reconnects) -> %s%s\n",
        static_cast<unsigned long long>(stats.records_sent),
        static_cast<unsigned long long>(stats.segments_sent),
        static_cast<unsigned long long>(stats.epochs_drained),
        static_cast<unsigned long long>(stats.dropped_records),
        static_cast<unsigned long long>(stats.reconnects),
        args.publish.c_str(), clean ? "" : " [flush incomplete]");
    if (stats.directives_received > 0 || stats.sampled_out_records > 0) {
      std::printf(
          "causeway-record: control: %llu directives (last applied seq "
          "%llu), %llu records sampled out\n",
          static_cast<unsigned long long>(stats.directives_received),
          static_cast<unsigned long long>(stats.last_applied_seq),
          static_cast<unsigned long long>(stats.sampled_out_records));
    }
    return stats.records_sent;
  }

  if (!args.stream) {
    drive();
    system.wait_quiescent();
    monitor::CollectedLogs logs = system.collect();
    analysis::write_trace_file(args.out, logs, args.trace_format);
    std::printf("causeway-record: %zu records from %zu domains -> %s\n",
                logs.records.size(), logs.domains.size(), args.out.c_str());
    return logs.records.size();
  }

  monitor::Collector collector;
  system.attach_collector(collector);
  analysis::TraceWriter writer(args.out, args.trace_format);
  StreamDrainer drainer(collector, writer, args.interval_ms, args.adaptive);
  drive();
  system.wait_quiescent();
  drainer.finish();
  std::printf(
      "causeway-record: %llu records in %zu segments (%llu epochs) -> %s\n",
      static_cast<unsigned long long>(writer.records_written()),
      writer.segments(), static_cast<unsigned long long>(collector.epoch()),
      args.out.c_str());
  return writer.records_written();
}

// Round-trips the written trace through the analyzer's decoder.  The
// database's record count must match what the writer persisted; a
// mismatch (or a decode throw) is a hard failure.
int verify_trace(const Args& args, std::uint64_t written) {
  analysis::LogDatabase db;
  const std::size_t n = analysis::read_trace_file(args.out, db);
  if (n != written || db.size() != written) {
    std::fprintf(stderr,
                 "causeway-record: verify FAILED: wrote %llu records, "
                 "read back %zu (database holds %zu)\n",
                 static_cast<unsigned long long>(written), n, db.size());
    return 1;
  }
  std::printf("causeway-record: verified %zu records, %zu chains, %s\n", n,
              db.chains().size(), args.out.c_str());
  return 0;
}

std::uint64_t record_pps(const Args& args) {
  orb::Fabric fabric;
  pps::PpsSystem system(fabric, make_pps_config(args));
  return record(args, system, [&] {
    for (int i = 0; i < args.jobs; ++i) {
      system.submit_job(2 + i % 3, 150 + 150 * (i % 2), i % 2 == 0);
    }
  });
}

std::uint64_t record_synthetic(const Args& args) {
  orb::Fabric fabric;
  workload::SyntheticSystem system(fabric, make_synthetic_config(args));
  return record(args, system,
                [&] { system.run_transactions(args.transactions); });
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return 2;

  try {
    const std::uint64_t written = args.workload == "synthetic"
                                      ? record_synthetic(args)
                                      : record_pps(args);
    if (args.verify) return verify_trace(args, written);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "causeway-record: %s\n", e.what());
    return 1;
  }
  return 0;
}
