// causeway_bench: the end-to-end benchmark, from probe to query.
//
//   causeway_bench [--workload=live|fan-in|query|mixed|all] [--seed=N]
//                  [--seconds=S] [--smoke] [--workdir=DIR]
//                  [--trace=PATH [--trace-only]]
//
// Every workload runs in a process of its own: this binary re-executes
// itself with --child=WORKLOAD and reads the child's results back over a
// pipe, so one workload's heap and threads never colour the next one's
// numbers, and its resident-memory peak is its own.  For each
// workload it prints every end-to-end metric by name, with its unit and
// sample count, then one JSON line:
//
//   {"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// With --trace the workload runs a second time with spans on (see
// trace.h); that run's per-layer metrics replace the end-to-end ones in the
// JSON line, its end-to-end metrics are printed beside the untraced run's
// (the difference is the tracing overhead), and every span goes to PATH as
// Chrome trace-event JSON.  --trace-only skips the untraced run.
//
// Exit status: 0 when every correctness check passed, 1 when one failed,
// 2 for a run whose numbers would not be comparable (a tuning knob set in
// the environment, or a build without optimization).
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/compress.h"
#include "common/wire.h"
#include "layers.h"
#include "workloads.h"

using namespace causeway;
using namespace causeway::bench;

namespace {

constexpr const char* kWorkloads[] = {"live", "fan-in", "query", "mixed"};

// Environment knobs that change what the product does; a run with any of
// them set measures a configuration no user runs by default.
constexpr const char* kKnobs[] = {"CAUSEWAY_KERNEL", "CAUSEWAY_INGEST_SHARDS",
                                  "CAUSEWAY_NO_MMAP", "CAUSEWAY_PASS_TIMING"};

struct Args {
  std::vector<std::string> workloads{"live", "fan-in", "query", "mixed"};
  std::uint64_t seed{1};
  double seconds{10};
  bool smoke{false};
  std::string workdir{"build-bench/work"};
  std::string trace;
  bool trace_only{false};
  std::string child;   // internal: run this one workload here
  std::string events;  // internal: traced child writes its spans here
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      if (std::strcmp(v, "all") == 0) continue;
      bool known = false;
      for (const char* w : kWorkloads) known |= std::strcmp(v, w) == 0;
      if (!known) {
        std::fprintf(stderr, "unknown workload '%s'\n", v);
        return false;
      }
      a.workloads = {v};
    } else if (const char* v = value("--seed=")) {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds=")) {
      a.seconds = std::atof(v);
      if (!(a.seconds > 0)) {
        std::fprintf(stderr, "--seconds must be positive\n");
        return false;
      }
    } else if (arg == "--smoke") {
      a.smoke = true;
    } else if (const char* v = value("--workdir=")) {
      a.workdir = v;
    } else if (const char* v = value("--trace=")) {
      a.trace = v;
    } else if (arg == "--trace-only") {
      a.trace_only = true;
    } else if (const char* v = value("--child=")) {
      a.child = v;
    } else if (const char* v = value("--events=")) {
      a.events = v;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return false;
    }
  }
  if (a.trace_only && a.trace.empty()) {
    std::fprintf(stderr, "--trace-only needs --trace=PATH\n");
    return false;
  }
  return true;
}

// The percentile helper on inputs whose answers are known: nearest rank,
// and no percentile without ten samples beyond it.  Smoke runs check it.
bool percentile_helper_ok() {
  auto upto = [](int n) {
    Samples s;
    for (int i = n; i >= 1; --i) s.add(i);
    return s;
  };
  int pct = 0;
  const Samples s100 = upto(100);
  const Samples s1000 = upto(1000);
  const Samples s150 = upto(150);
  return upto(19).percentile(50) == std::nullopt &&
         upto(20).percentile(50) == 10.0 &&
         upto(99).percentile(90) == std::nullopt &&
         s100.percentile(50) == 50.0 && s100.percentile(90) == 90.0 &&
         s100.percentile(99) == std::nullopt &&
         upto(999).percentile(99) == std::nullopt &&
         s1000.percentile(99) == 990.0 && s150.tail(&pct) == 135.0 &&
         pct == 90 && Samples().tail(&pct) == 0.0 && pct == 0;
}

// ---------------------------------------------------------------- child --

int run_child(const Args& a) {
  Options opt;
  opt.seed = a.seed;
  opt.seconds = a.seconds;
  opt.smoke = a.smoke;
  opt.workdir = a.workdir;
  Tracer tracer;
  if (!a.events.empty()) opt.tracer = &tracer;
  Result r;
  try {
    if (a.child == "live") {
      r = run_live(opt);
    } else if (a.child == "fan-in") {
      r = run_fanin(opt);
    } else if (a.child == "query") {
      r = run_query(opt);
    } else {
      r = run_mixed(opt);
    }
  } catch (const std::exception& e) {
    r.check(false, "workload threw: %s", e.what());
  }
  if (opt.tracer) {
    std::ofstream out(a.events, std::ios::trunc);
    out << tracer.chrome_events(static_cast<int>(::getpid()), a.child);
    if (!out) r.check(false, "cannot write %s", a.events.c_str());
  }
  emit_result(r);
  return r.correct ? 0 : 1;
}

// --------------------------------------------------------------- parent --

struct ChildOutcome {
  Result result;
  std::string events;  // Chrome trace events (traced run)
};

void parse_metric(const std::string& line, std::vector<Metric>& into) {
  std::istringstream in(line);
  std::string tag;
  Metric m;
  in >> tag >> m.name >> m.value >> m.unit >> m.samples >> m.pct;
  if (in) into.push_back(m);
}

// Sums the pipeline's per-pass lines printed inside the measured phase.
std::map<std::string, double> read_pass_timing(const std::string& path) {
  std::map<std::string, double> sums;
  std::ifstream in(path);
  std::string line;
  bool measuring = false;
  while (std::getline(in, line)) {
    char name[64];
    double ms = 0;
    if (line == "@phase begin") {
      measuring = true;
    } else if (line == "@phase end") {
      measuring = false;
    } else if (std::sscanf(line.c_str(), " [pass] %63s %lf ms", name, &ms) ==
               2) {
      if (measuring) sums[name] += ms;
    } else {
      std::fprintf(stderr, "%s\n", line.c_str());
    }
  }
  return sums;
}

ChildOutcome spawn(const Args& a, const std::string& workload, bool traced) {
  ChildOutcome out;
  out.result.correct = false;  // until the child reports otherwise
  const std::string stem = a.workdir + "/" + workload;
  std::vector<std::string> args = {
      "/proc/self/exe", "--child=" + workload,
      "--seed=" + std::to_string(a.seed),
      "--seconds=" + std::to_string(a.seconds), "--workdir=" + a.workdir};
  if (a.smoke) args.push_back("--smoke");
  if (traced) args.push_back("--events=" + stem + ".events");
  std::vector<char*> argv;
  for (auto& s : args) argv.push_back(s.data());
  argv.push_back(nullptr);

  int fds[2];
  if (::pipe(fds) != 0) {
    out.result.errors.push_back("pipe failed");
    return out;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    out.result.errors.push_back("fork failed");
    return out;
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the parent
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    if (traced) {
      // Only the traced run pays for per-pass timing; its stderr goes to a
      // file the parent parses once the child is done.
      ::setenv("CAUSEWAY_PASS_TIMING", "1", 1);
      const std::string err = stem + ".stderr";
      if (std::freopen(err.c_str(), "w", stderr) == nullptr) ::_exit(3);
    }
    ::execv(argv[0], argv.data());
    ::_exit(3);
  }
  ::close(fds[1]);
  std::string text;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  const bool exited = WIFEXITED(status) &&
                      (WEXITSTATUS(status) == 0 || WEXITSTATUS(status) == 1);

  bool have_status = false;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("@e2e ", 0) == 0) {
      parse_metric(line, out.result.e2e);
    } else if (line.rfind("@layer ", 0) == 0) {
      parse_metric(line, out.result.layer);
    } else if (line.rfind("@detail ", 0) == 0) {
      parse_metric(line, out.result.detail);
    } else if (line.rfind("@error ", 0) == 0) {
      out.result.errors.push_back(line.substr(7));
    } else if (line.rfind("@status ", 0) == 0) {
      int correct = 0;
      unsigned long long attempted = 0, failed = 0;
      have_status = std::sscanf(line.c_str(), "@status %d %llu %llu", &correct,
                                &attempted, &failed) == 3;
      out.result.correct = correct != 0;
      out.result.attempted = attempted;
      out.result.failed = failed;
    } else {
      std::printf("  | %s\n", line.c_str());
    }
  }
  if (!exited || !have_status) {
    out.result.correct = false;
    out.result.errors.push_back(
        WIFSIGNALED(status)
            ? "workload process killed by signal " +
                  std::to_string(WTERMSIG(status))
            : "workload process exited without a result (status " +
                  std::to_string(WEXITSTATUS(status)) + ")");
  }
  if (traced) {
    const auto pass_ms = read_pass_timing(stem + ".stderr");
    for (Metric& m : out.result.layer) {
      for (const auto& [pass, ms] : pass_ms) {
        if (m.name == "pipeline.pass." + pass + "_ms") m.value = ms;
      }
    }
    std::ifstream ev(stem + ".events");
    out.events.assign(std::istreambuf_iterator<char>(ev),
                      std::istreambuf_iterator<char>());
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

std::string git_commit() {
  const std::string root =
      std::filesystem::path(__FILE__).parent_path().parent_path().parent_path();
  const std::string cmd =
      "git -C '" + root + "' rev-parse --short=12 HEAD 2>/dev/null";
  std::string commit;
  if (FILE* p = ::popen(cmd.c_str(), "r")) {
    char buf[64] = {};
    if (std::fgets(buf, sizeof buf, p)) commit = buf;
    ::pclose(p);
  }
  while (!commit.empty() && (commit.back() == '\n' || commit.back() == ' ')) {
    commit.pop_back();
  }
  return commit.empty() ? "unknown" : commit;
}

std::vector<std::pair<std::string, std::string>> fingerprint() {
  return {
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"cpu", cpu_model()},
      {"compiler", __VERSION__},
      {"build_type", CAUSEWAY_BENCH_BUILD_TYPE},
      {"varint_kernel", std::string(to_string(active_varint_kernel()))},
      {"zlib", compression_available() ? "yes" : "no"},
      {"commit", git_commit()},
  };
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string fmt_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i ? ", \"" : "\"") + json_escape(m.name) + "\": {\"value\": " +
           fmt_value(m.value) + ", \"unit\": \"" + json_escape(m.unit) + "\"}";
  }
  return out + "}";
}

std::string timing_note(const Metric& m) {
  if (m.samples == 0) return "";
  if (m.pct > 0) {
    return "p" + std::to_string(m.pct) + " of " + std::to_string(m.samples);
  }
  return "n=" + std::to_string(m.samples);
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  if (metrics.empty()) return;
  std::printf("  %s\n", title);
  for (const Metric& m : metrics) {
    std::printf("    %-34s %16.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), timing_note(m).c_str());
  }
}

const Metric* find(const std::vector<Metric>& metrics,
                   const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void print_comparison(const ChildOutcome& untraced,
                      const ChildOutcome& traced) {
  std::printf("  tracing overhead (traced vs untraced end-to-end)\n");
  for (const Metric& u : untraced.result.e2e) {
    const Metric* t = find(traced.result.e2e, u.name);
    if (!t) continue;
    std::printf("    %-34s %14.6g -> %-14.6g %+7.1f%%\n", u.name.c_str(),
                u.value, t->value,
                u.value != 0 ? (t->value - u.value) / u.value * 100 : 0.0);
  }
}

// The fan-in daemon thread's wall time, split by stage.
void print_stage_table(const ChildOutcome& traced) {
  const auto& L = traced.result.layer;
  auto get = [&](const std::string& n) {
    const Metric* m = find(L, n);
    return m ? m->value : 0.0;
  };
  const Metric* wall = find(traced.result.detail, "daemon_wall_ms");
  if (!wall) return;
  const double decode = get("trace_io.decode_ms");
  const double ingest = get("pipeline.ingest_ms");
  const double append = get("store.append_ms");
  const double frame = get("transport.frame_ms");
  const double other = wall->value - decode - ingest - append - frame;
  double passes = 0;
  for (const char* p : kPipelinePasses) {
    passes += get(std::string("pipeline.pass.") + p + "_ms");
  }
  std::printf("  fan-in daemon stages (wall %.1f ms)\n", wall->value);
  auto row = [&](const char* name, double ms) {
    std::printf("    %-30s %10.1f ms %6.1f%%\n", name, ms,
                wall->value > 0 ? ms / wall->value * 100 : 0.0);
  };
  row("decode", decode);
  row("ingest (database)", ingest - passes);
  for (const char* p : kPipelinePasses) {
    row((std::string("ingest: pass ") + p).c_str(),
        get(std::string("pipeline.pass.") + p + "_ms"));
  }
  row("store append", append);
  row("on_segment bookkeeping", other);
  row("frame (poll, read, probe)", frame);
  row("sum", decode + ingest + append + other + frame);
}

void print_block(const std::string& workload, const Args& a,
                 const ChildOutcome* untraced, const ChildOutcome* traced) {
  std::printf("== %s | seed %llu | %g s%s ==\n", workload.c_str(),
              static_cast<unsigned long long>(a.seed), a.seconds,
              a.smoke ? " | smoke" : "");
  const ChildOutcome& main = untraced ? *untraced : *traced;
  print_metrics(untraced ? "end-to-end" : "end-to-end (traced run)",
                main.result.e2e);
  print_metrics("detail", main.result.detail);
  if (untraced && traced) print_comparison(*untraced, *traced);
  if (traced) {
    print_metrics("per-layer (traced run)", traced->result.layer);
    if (workload == "fan-in") print_stage_table(*traced);
  }
  for (const ChildOutcome* o : {untraced, traced}) {
    if (!o) continue;
    for (const std::string& e : o->result.errors) {
      std::printf("  CHECK FAILED: %s\n", e.c_str());
    }
  }
}

void print_json(const ChildOutcome* untraced, const ChildOutcome* traced) {
  // The traced run reports per-layer metrics; correctness covers both runs.
  const ChildOutcome& main = traced ? *traced : *untraced;
  bool correct = main.result.correct;
  std::uint64_t attempted = main.result.attempted;
  std::uint64_t failed = main.result.failed;
  if (untraced && traced) {
    correct = correct && untraced->result.correct;
    attempted += untraced->result.attempted;
    failed += untraced->result.failed;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(traced ? main.result.layer : main.result.e2e)
                  .c_str());
  std::fflush(stdout);
}

bool write_trace(const std::string& path,
                 const std::vector<std::pair<std::string, ChildOutcome>>& runs,
                 const std::vector<std::pair<std::string, std::string>>& fp) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  bool first = true;
  for (const auto& [workload, o] : runs) {
    if (o.events.empty()) continue;
    if (!first) out << ",\n";
    out << o.events;
    first = false;
  }
  out << "\n],\n\"otherData\": {\"fingerprint\": {";
  for (std::size_t i = 0; i < fp.size(); ++i) {
    out << (i ? ", " : "") << "\"" << fp[i].first << "\": \""
        << json_escape(fp[i].second) << "\"";
  }
  out << "},\n\"workloads\": {";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& [workload, o] = runs[i];
    out << (i ? ",\n" : "\n") << "\"" << workload << "\": {\"correct\": "
        << (o.result.correct ? "true" : "false")
        << ", \"end_to_end\": " << metrics_json(o.result.e2e)
        << ", \"per_layer\": " << metrics_json(o.result.layer) << "}";
  }
  out << "}}}\n";
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) return 2;
  if (!a.child.empty()) return run_child(a);

  const bool traced = !a.trace.empty();
  // A measurement only compares with another one taken under the product's
  // defaults from an optimized build.  Smoke runs claim no numbers.
  if (!a.smoke && !a.trace_only) {
    for (const char* knob : kKnobs) {
      if (std::getenv(knob) != nullptr) {
        std::fprintf(stderr,
                     "causeway_bench: %s is set; unset it for a comparable "
                     "run\n",
                     knob);
        return 2;
      }
    }
#ifndef __OPTIMIZE__
    std::fprintf(stderr,
                 "causeway_bench: built without optimization; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n");
    return 2;
#endif
  }
  if (a.smoke && !percentile_helper_ok()) {
    std::fprintf(stderr,
                 "causeway_bench: percentile helper self-check failed\n");
    return 1;
  }
  std::filesystem::create_directories(a.workdir);

  const auto fp = fingerprint();
  std::printf("fingerprint:");
  for (const auto& [k, v] : fp) std::printf(" %s=\"%s\"", k.c_str(), v.c_str());
  std::printf("\n");

  bool all_correct = true;
  std::vector<std::pair<std::string, ChildOutcome>> traced_runs;
  for (const std::string& w : a.workloads) {
    ChildOutcome untraced;
    ChildOutcome traced_run;
    if (!a.trace_only) untraced = spawn(a, w, false);
    if (traced) traced_run = spawn(a, w, true);
    const ChildOutcome* u = a.trace_only ? nullptr : &untraced;
    const ChildOutcome* t = traced ? &traced_run : nullptr;
    print_block(w, a, u, t);
    print_json(u, t);
    for (const ChildOutcome* o : {u, t}) {
      if (o && !o->result.correct) all_correct = false;
    }
    if (t) traced_runs.emplace_back(w, traced_run);
  }
  if (traced && !write_trace(a.trace, traced_runs, fp)) {
    std::fprintf(stderr, "causeway_bench: cannot write %s\n", a.trace.c_str());
    return 1;
  }
  return all_correct ? 0 : 1;
}
