#include "analysis/report.h"

#include <algorithm>
#include <concepts>
#include <deque>
#include <iterator>
#include <map>
#include <queue>
#include <span>
#include <tuple>
#include <utility>

#include "analysis/cpu.h"
#include "analysis/critical_path.h"
#include "analysis/latency.h"
#include "analysis/stats.h"
#include "analysis/topology.h"
#include "common/strings.h"

namespace causeway::analysis {
namespace {

using monitor::ProbeMode;

std::string sv(std::string_view s) { return std::string(s); }

// --- interning ---------------------------------------------------------
// The fold keys every cell on a dense id.  Names are looked up only when a
// section renders and orders its rows.

// One id per distinct string, whichever shard pool the view came from.
class Names {
 public:
  std::uint32_t id(std::string_view s) {
    if (const auto it = ids_.find(s); it != ids_.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(text_.size());
    ids_.emplace(text_.emplace_back(s), id);
    return id;
  }
  const std::string& operator[](std::uint64_t id) const { return text_[id]; }

 private:
  std::deque<std::string> text_;  // stable: the map's keys view into it
  std::unordered_map<std::string_view, std::uint32_t> ids_;
};

// One id per distinct pair of name ids (or of a name id and an object key).
// A pair id stands for its two halves only, so tables of different meaning
// share the one space.
class Pairs {
 public:
  using Key = std::pair<std::uint64_t, std::uint64_t>;
  std::uint32_t id(std::uint64_t a, std::uint64_t b) {
    const auto next = static_cast<std::uint32_t>(keys_.size());
    const auto [it, fresh] = ids_.try_emplace(Key{a, b}, next);
    if (fresh) keys_.push_back(it->first);
    return it->second;
  }
  const Key& operator[](std::uint32_t id) const { return keys_[id]; }

 private:
  std::unordered_map<Key, std::uint32_t, decltype([](const Key& k) {
                       return static_cast<std::size_t>(
                           k.first * 0x9e3779b97f4a7c15ull ^ k.second);
                     })>
      ids_;
  std::vector<Key> keys_;
};

// --- cells -------------------------------------------------------------
// All exact: integer nanoseconds and counts.  Doubles appear only in the
// render functions below.

// x += y or x -= y: the one merge step of every cell and counter.
template <std::integral T>
void bump(T& x, T y, bool add) {
  x = add ? x + y : x - y;
}

struct FnCell {
  std::size_t calls{0};
  std::size_t failures{0};
  Nanos self_cpu{0};
  Nanos desc_cpu{0};
};
void bump(FnCell& c, const FnCell& o, bool add) {
  bump(c.calls, o.calls, add), bump(c.failures, o.failures, add);
  bump(c.self_cpu, o.self_cpu, add), bump(c.desc_cpu, o.desc_cpu, add);
}

struct EdgeCell {
  std::size_t calls{0};
  Nanos latency_sum{0};
  std::size_t latency_count{0};
};
void bump(EdgeCell& c, const EdgeCell& o, bool add) {
  bump(c.calls, o.calls, add), bump(c.latency_sum, o.latency_sum, add);
  bump(c.latency_count, o.latency_count, add);
}

struct CpuTypeCell {
  Nanos ns{0};
  std::size_t calls{0};  // contributing calls, so zero sums survive subtraction
};
void bump(CpuTypeCell& c, const CpuTypeCell& o, bool add) {
  bump(c.ns, o.ns, add), bump(c.calls, o.calls, add);
}

// A cell is live while some call contributes to it; the accumulator keeps
// dead cells (their ids may come back) and skips them when rendering.
bool live(std::size_t calls) { return calls > 0; }
bool live(const auto& cell) { return cell.calls > 0; }

// Cells keyed on a dense id: (id, cell) pairs with unique ids, plus the
// id -> position index that finds a cell while folding into the table.
template <typename Cell>
struct Table {
  std::vector<std::pair<std::uint32_t, Cell>> cells;
  std::vector<std::uint32_t> slot;  // id -> 1 + index into cells; 0 = none

  Cell& operator[](std::uint32_t id) {
    if (id >= slot.size()) slot.resize(id + 1, 0);
    if (slot[id] == 0) {
      cells.emplace_back(id, Cell{});
      slot[id] = static_cast<std::uint32_t>(cells.size());
    }
    return cells[slot[id] - 1].second;
  }
  // Moves the cells out; the index stays allocated (and cleared) for the
  // next fold into this table.
  Table take() {
    for (const auto& c : cells) slot[c.first] = 0;
    return Table{std::exchange(cells, {}), {}};
  }
};

template <typename Cell>
void merge(Table<Cell>& into, const Table<Cell>& from, bool add) {
  for (const auto& [id, cell] : from.cells) bump(into[id], cell, add);
}

// A live table's cells ordered by name(id) -- the one place names sort.
template <typename Cell, typename Name>
std::vector<const std::pair<std::uint32_t, Cell>*> by_name(
    const Table<Cell>& table, Name name) {
  std::vector<const std::pair<std::uint32_t, Cell>*> rows;
  for (const auto& c : table.cells) {
    if (live(c.second)) rows.push_back(&c);
  }
  std::ranges::sort(rows, {}, [&](const auto* c) { return name(c->first); });
  return rows;
}

template <typename Cell>
std::size_t live_count(const Table<Cell>& table) {
  return static_cast<std::size_t>(std::ranges::count_if(
      table.cells, [](const auto& c) { return live(c.second); }));
}

// One latency sample of a function row; the multisets are sorted vectors of
// these.  Depth-0 (transaction) latencies ride along under kTransactions.
struct Sample {
  std::uint32_t fn{0};
  Nanos ns{0};
  auto operator<=>(const Sample&) const = default;
};
constexpr std::uint32_t kTransactions = ~0u;

std::span<const Sample> samples_of(const std::vector<Sample>& sorted,
                                   std::uint32_t fn) {
  const auto [lo, hi] = std::ranges::equal_range(sorted, fn, {}, &Sample::fn);
  return {lo, hi};
}

struct Counts {
  std::size_t failures{0}, calls{0}, depth_sum{0}, fanout_sum{0},
      non_leaf{0}, sync_calls{0}, oneway_calls{0}, collocated_calls{0},
      cross_process{0}, cross_thread{0}, cross_processor{0};
  Nanos total_self_cpu{0};
};
void bump(Counts& c, const Counts& o, bool add) {
  for (const auto field :
       {&Counts::failures, &Counts::calls, &Counts::depth_sum,
        &Counts::fanout_sum, &Counts::non_leaf, &Counts::sync_calls,
        &Counts::oneway_calls, &Counts::collocated_calls,
        &Counts::cross_process, &Counts::cross_thread,
        &Counts::cross_processor}) {
    bump(c.*field, o.*field, add);
  }
  bump(c.total_self_cpu, o.total_self_cpu, add);
}

// The one cell layout of a tree's imprint and of the merged accumulator.
struct Cells {
  Table<FnCell> functions;           // name id of "interface::function"
  Table<std::size_t> process_calls;  // name id of the serving process
  Table<EdgeCell> edges;             // pair id of (caller, callee) names
  Table<CpuTypeCell> cpu_by_type;    // name id of the processor type
  Table<std::size_t> interfaces;     // name id of the interface
  Table<std::size_t> function_ids;   // pair id of (interface, function)
  Table<std::size_t> objects;        // pair id of (interface, object key)
  std::vector<Sample> latency;       // sorted
  Counts n;

  Cells take() {
    return {functions.take(),   process_calls.take(), edges.take(),
            cpu_by_type.take(), interfaces.take(),    function_ids.take(),
            objects.take(), std::exchange(latency, {}), std::exchange(n, {})};
  }
};

// Slowest-calls entry.  Order: latency descending, label text ascending --
// the canonical tie-break that makes the table independent of fold order.
struct Slow {
  Nanos latency{0};
  std::uint32_t label{0};  // name id of "interface::function @process"
};
struct SlowOrder {
  const Names* names;
  bool operator()(const Slow& a, const Slow& b) const {
    if (a.latency != b.latency) return a.latency > b.latency;
    return (*names)[a.label] < (*names)[b.label];
  }
};

// Critical-path index key: worst transaction first; ties go to the lowest
// root ordinal so the pick is independent of fold order.
struct CriticalKey {
  Nanos total{0};
  std::uint64_t ordinal{0};
  bool operator<(const CriticalKey& o) const {
    if (total != o.total) return total > o.total;
    return ordinal < o.ordinal;
  }
};

constexpr std::uint32_t kNone = ~0u;

}  // namespace

// One top-level tree's folded contribution.  Its tables carry no index.
struct Report::Imprint : Cells {
  std::vector<Slow> slow;  // in SlowOrder
  std::uint32_t max_depth{0};
  std::uint32_t max_fanout{0};

  // The tree's own worst critical path, pre-rendered at fold time; the
  // report section just picks the globally worst entry.
  bool has_critical{false};
  Nanos critical_total{0};
  std::string critical_text;
};

struct Report::Acc : Cells {
  Names names;
  Pairs pairs;
  std::vector<std::uint32_t> row_of;    // pair id -> name id of the row
  std::vector<std::uint32_t> label_of;  // pair id -> name id of the label
  Cells scratch;  // fold target; its table indexes persist across folds

  // Trees per depth / fanout maximum, keyed on the maximum itself.
  Table<std::size_t> root_max_depth, root_max_fanout;

  // Each imprint's slowest entry.  The table's top N come from the imprints
  // with the N best heads, so the render merges only those.
  std::multimap<Slow, const Imprint*, SlowOrder> slow_heads{
      SlowOrder{&names}};

  // Worst-first index over every root's pre-rendered critical path; the
  // values point into the owning Imprints (stable: imprints are erased only
  // after their index entry is removed).
  std::map<CriticalKey, const std::string*> critical;

  // Pre-rendered anomaly lines per chain ordinal, refreshed for exactly the
  // chains a scope rebuilt; only chains that *have* anomalies appear.
  std::map<std::uint64_t, std::vector<std::string>> anomaly_lines;

  // Latency samples of the imprints applied this update, merged into
  // `latency` in one pass at its end.
  std::vector<Sample> added, removed;

  // Name id of a pair-derived string, made once per pair.
  template <typename Make>
  std::uint32_t derived(std::vector<std::uint32_t>& cache, std::uint32_t pair,
                        Make make) {
    if (pair >= cache.size()) cache.resize(pair + 1, kNone);
    if (cache[pair] == kNone) cache[pair] = names.id(make(pairs[pair]));
    return cache[pair];
  }
  std::uint32_t row(std::uint32_t fn_pair) {
    return derived(row_of, fn_pair, [&](const Pairs::Key& k) {
      return names[k.first] + "::" + names[k.second];
    });
  }
  std::uint32_t label(std::uint32_t row, std::uint32_t process) {
    return derived(label_of, pairs.id(row, process), [&](const Pairs::Key& k) {
      return names[k.first] + " @" + names[k.second];
    });
  }
};

namespace {

std::unique_ptr<Report::Imprint> fold_tree(const ChainTree& tree,
                                           Report::Acc& acc) {
  auto imp = std::make_unique<Report::Imprint>();
  Cells& cells = acc.scratch;
  Counts& n = cells.n;
  Names& names = acc.names;
  Dscg::visit_tree(tree, [&](const CallNode& node, int depth) {
    const std::uint32_t iface = names.id(node.interface_name);
    const std::uint32_t fn_pair =
        acc.pairs.id(iface, names.id(node.function_name));
    const std::uint32_t row = acc.row(fn_pair);
    const auto stub = node.record(monitor::EventKind::kStubStart);
    const auto skel = node.record(monitor::EventKind::kSkelStart);
    const monitor::TraceRecord* at = CallNode::server_start(stub, skel);
    const std::string_view server = at ? at->process_name : std::string_view{};
    const bool failed = node.failed();
    bump(cells.functions[row],
         FnCell{1, failed, node.self_cpu.total(), node.descendant_cpu.total()},
         true);
    n.failures += failed;
    if (node.latency) {
      cells.latency.push_back({row, *node.latency});
      if (depth == 0) cells.latency.push_back({kTransactions, *node.latency});
      imp->slow.push_back({*node.latency, acc.label(row, names.id(server))});
    }
    n.total_self_cpu += node.self_cpu.total();
    for (const auto& [type, ns] : node.self_cpu.by_type) {
      bump(cells.cpu_by_type[names.id(type)], CpuTypeCell{ns, 1}, true);
    }
    if (!server.empty()) cells.process_calls[names.id(server)] += 1;
    if (stub && skel && stub->process_name != skel->process_name) {
      const std::uint32_t edge = acc.pairs.id(names.id(stub->process_name),
                                              names.id(skel->process_name));
      bump(cells.edges[edge],
           EdgeCell{1, node.latency.value_or(0), node.latency ? 1u : 0u},
           true);
    }

    // Topology.
    n.calls += 1;
    const auto d = static_cast<std::uint32_t>(depth) + 1;
    n.depth_sum += d;
    imp->max_depth = std::max(imp->max_depth, d);
    const auto fanout =
        static_cast<std::uint32_t>(node.children.size() + node.spawned.size());
    imp->max_fanout = std::max(imp->max_fanout, fanout);
    if (fanout > 0) {
      n.fanout_sum += fanout;
      ++n.non_leaf;
    }
    switch (node.kind) {
      case monitor::CallKind::kSync: ++n.sync_calls; break;
      case monitor::CallKind::kOneway:
        if (stub) ++n.oneway_calls;
        break;
      case monitor::CallKind::kCollocated: ++n.collocated_calls; break;
    }
    if (stub && skel) {
      if (stub->process_name != skel->process_name) ++n.cross_process;
      if (stub->thread_ordinal != skel->thread_ordinal) ++n.cross_thread;
      if (stub->processor_type != skel->processor_type) ++n.cross_processor;
    }
    cells.interfaces[iface] += 1;
    cells.function_ids[fn_pair] += 1;
    cells.objects[acc.pairs.id(iface, node.object_key)] += 1;
  });
  std::sort(cells.latency.begin(), cells.latency.end());
  std::sort(imp->slow.begin(), imp->slow.end(), SlowOrder{&names});
  static_cast<Cells&>(*imp) = cells.take();

  // The tree's worst critical path (latency-annotated runs only), rendered
  // here so the report section never has to walk the graph again.  Ties
  // between top-level calls keep the earliest.
  for (const auto& top : tree.root->children) {
    if (!top->latency) continue;
    const CriticalPath path = critical_path(*top);
    if (path.steps.empty()) continue;
    if (imp->has_critical && path.total() <= imp->critical_total) continue;
    imp->has_critical = true;
    imp->critical_total = path.total();
    imp->critical_text = path.to_string();
    if (const CriticalStep* hot = path.dominant()) {
      imp->critical_text +=
          strf("dominant frame: %s::%s (%.1f us exclusive of %.1f us "
               "end-to-end)\n",
               sv(hot->node->interface_name).c_str(),
               sv(hot->node->function_name).c_str(),
               static_cast<double>(hot->exclusive) / 1e3,
               static_cast<double>(path.total()) / 1e3);
    }
  }
  return imp;
}

// summarize() over one row's sorted samples: count, mean from the integer
// sum, percentiles by index.
Summary summarize_samples(std::span<const Sample> v) {
  Summary s;
  const std::size_t n = s.count = v.size();
  if (n == 0) return s;
  Nanos total = 0;
  for (const Sample& x : v) total += x.ns;
  const auto at = [&](std::size_t i) {
    return static_cast<double>(v[i].ns) / 1e3;
  };
  const auto pct = [&](double p) {
    const double rank = p * static_cast<double>(n - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    return at(lo) * (1.0 - frac) + at(std::min(lo + 1, n - 1)) * frac;
  };
  s.min = at(0), s.max = at(n - 1);
  s.mean = static_cast<double>(total) / 1e3 / static_cast<double>(n);
  s.p50 = pct(0.50), s.p90 = pct(0.90), s.p99 = pct(0.99);
  return s;
}

void apply(Report::Acc& acc, const Report::Imprint& imp, std::uint64_t ordinal,
           bool add) {
  merge(acc.functions, imp.functions, add);
  merge(acc.process_calls, imp.process_calls, add);
  merge(acc.edges, imp.edges, add);
  merge(acc.cpu_by_type, imp.cpu_by_type, add);
  merge(acc.interfaces, imp.interfaces, add);
  merge(acc.function_ids, imp.function_ids, add);
  merge(acc.objects, imp.objects, add);
  bump(acc.n, imp.n, add);
  std::vector<Sample>& samples = add ? acc.added : acc.removed;
  samples.insert(samples.end(), imp.latency.begin(), imp.latency.end());

  if (imp.n.calls > 0) {
    bump(acc.root_max_depth[imp.max_depth], std::size_t{1}, add);
    bump(acc.root_max_fanout[imp.max_fanout], std::size_t{1}, add);
  }
  if (!imp.slow.empty()) {
    if (add) {
      acc.slow_heads.emplace(imp.slow.front(), &imp);
    } else {
      auto it = acc.slow_heads.lower_bound(imp.slow.front());
      while (it->second != &imp) ++it;
      acc.slow_heads.erase(it);
    }
  }
  if (imp.has_critical) {
    const CriticalKey key{imp.critical_total, ordinal};
    if (add) {
      acc.critical.emplace(key, &imp.critical_text);
    } else {
      acc.critical.erase(key);
    }
  }
}

// Merges the update's added and removed samples into the sorted multiset.
void settle_latency(Report::Acc& acc) {
  if (acc.added.empty() && acc.removed.empty()) return;
  std::sort(acc.added.begin(), acc.added.end());
  std::sort(acc.removed.begin(), acc.removed.end());
  std::vector<Sample> kept;
  kept.reserve(acc.latency.size());
  std::set_difference(acc.latency.begin(), acc.latency.end(),
                      acc.removed.begin(), acc.removed.end(),
                      std::back_inserter(kept));
  acc.latency.clear();
  std::merge(kept.begin(), kept.end(), acc.added.begin(), acc.added.end(),
             std::back_inserter(acc.latency));
  acc.added.clear();
  acc.removed.clear();
}

TopologyStats topology_from(const Report::Acc& acc, std::size_t chains) {
  const Counts& n = acc.n;
  const auto ratio = [](std::size_t a, std::size_t b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  const auto top = [](const Table<std::size_t>& maxima) {
    std::size_t max = 0;
    for (const auto& [value, trees] : maxima.cells) {
      if (trees > 0) max = std::max<std::size_t>(max, value);
    }
    return max;
  };
  return TopologyStats{
      .calls = n.calls, .chains = chains,
      .max_depth = top(acc.root_max_depth),
      .mean_depth = ratio(n.depth_sum, n.calls),
      .max_fanout = top(acc.root_max_fanout),
      .mean_fanout = ratio(n.fanout_sum, n.non_leaf),
      .sync_calls = n.sync_calls, .oneway_calls = n.oneway_calls,
      .collocated_calls = n.collocated_calls,
      .cross_process = n.cross_process, .cross_thread = n.cross_thread,
      .cross_processor = n.cross_processor,
      .interfaces = live_count(acc.interfaces),
      .functions = live_count(acc.function_ids),
      .objects = live_count(acc.objects)};
}

}  // namespace

Report::Report() : acc_(std::make_unique<Acc>()) {}
Report::~Report() = default;
Report::Report(Report&&) noexcept = default;
Report& Report::operator=(Report&&) noexcept = default;

void Report::update(const Dscg& dscg, const LogDatabase& db,
                    const UpdateScope& scope) {
  (void)db;
  const auto subtract = [&](std::uint64_t ordinal) {
    auto it = imprints_.find(ordinal);
    if (it == imprints_.end()) return;
    apply(*acc_, *it->second, ordinal, false);
    imprints_.erase(it);
  };
  for (std::uint64_t ordinal : scope.removed_roots) subtract(ordinal);
  for (std::uint64_t ordinal : scope.affected_roots) subtract(ordinal);
  for (std::uint64_t ordinal : scope.affected_roots) {
    auto imprint = fold_tree(*dscg.chains()[ordinal], *acc_);
    apply(*acc_, *imprint, ordinal, true);
    imprints_.emplace(ordinal, std::move(imprint));
  }
  settle_latency(*acc_);

  // Refresh the pre-rendered anomaly lines of exactly the rebuilt chains
  // (anomalies are a parse artifact: they only change on rebuild).
  for (const Uuid& id : scope.rebuilt_chains) {
    const ChainTree* tree = dscg.find_chain(id);
    if (!tree) continue;
    if (tree->anomalies.empty()) {
      acc_->anomaly_lines.erase(tree->ordinal);
      continue;
    }
    auto& lines = acc_->anomaly_lines[tree->ordinal];
    lines.clear();
    lines.reserve(tree->anomalies.size());
    for (const auto& a : tree->anomalies) {
      lines.push_back(strf("chain %s seq %llu: %s\n",
                           tree->chain.to_string().c_str(),
                           static_cast<unsigned long long>(a.seq),
                           a.reason.c_str()));
    }
  }
}

std::string Report::render(const Dscg& dscg, const LogDatabase& db,
                           const ReportOptions& options) const {
  const ProbeMode mode = db.primary_mode();
  const Acc& acc = *acc_;
  const Names& names = acc.names;
  const auto name_of = [&](std::uint32_t id) -> const std::string& {
    return names[id];
  };

  std::string out;
  out += "==================== characterization report ====================\n";
  out += strf("records: %zu   chains: %zu   calls: %zu   anomalies: %zu   "
              "failures: %zu\n",
              db.size(), dscg.chains().size(), dscg.call_count(),
              dscg.anomaly_count(), acc.n.failures);
  out += strf("probe mode: %s   processor types: %zu   domains: %zu\n",
              sv(to_string(mode)).c_str(), db.processor_types().size(),
              db.domains().size());

  const TopologyStats topo = topology_from(acc, dscg.chains().size());
  out += strf(
      "topology: depth max/mean %zu/%.1f   fanout max/mean %zu/%.1f\n"
      "          sync %zu, oneway %zu, collocated %zu; cross-process %zu, "
      "cross-thread %zu, cross-processor %zu\n"
      "          %zu interfaces, %zu functions, %zu objects\n\n",
      topo.max_depth, topo.mean_depth, topo.max_fanout, topo.mean_fanout,
      topo.sync_calls, topo.oneway_calls, topo.collocated_calls,
      topo.cross_process, topo.cross_thread, topo.cross_processor,
      topo.interfaces, topo.functions, topo.objects);

  out += "--- per function ---\n";
  if (mode == ProbeMode::kCpu) {
    out += strf("%-40s %8s %6s %14s %14s\n", "function", "calls", "fail",
                "self cpu us", "desc cpu us");
    for (const auto* row : by_name(acc.functions, name_of)) {
      const FnCell& c = row->second;
      out += strf("%-40s %8zu %6zu %14.1f %14.1f\n", names[row->first].c_str(),
                  c.calls, c.failures, static_cast<double>(c.self_cpu) / 1e3,
                  static_cast<double>(c.desc_cpu) / 1e3);
    }
  } else {
    out += strf("%-40s %8s %6s %10s %10s %10s\n", "function", "calls", "fail",
                "mean us", "p50 us", "p90 us");
    for (const auto* row : by_name(acc.functions, name_of)) {
      const Summary s = summarize_samples(samples_of(acc.latency, row->first));
      out += strf("%-40s %8zu %6zu %10.1f %10.1f %10.1f\n",
                  names[row->first].c_str(), row->second.calls,
                  row->second.failures, s.mean, s.p50, s.p90);
    }
  }

  out += "\n--- calls served per process ---\n";
  for (const auto* row : by_name(acc.process_calls, name_of)) {
    out += strf("%-24s %8zu\n", names[row->first].c_str(), row->second);
  }

  const auto types = by_name(acc.cpu_by_type, name_of);
  if (mode == ProbeMode::kCpu && !types.empty()) {
    out += "\n--- self CPU per processor type (the <C1..CM> axes) ---\n";
    for (const auto* row : types) {
      out += strf("%-24s %12.1f us\n", names[row->first].c_str(),
                  static_cast<double>(row->second.ns) / 1e3);
    }
  }

  const auto edges = by_name(acc.edges, [&](std::uint32_t id) {
    return std::tie(names[acc.pairs[id].first], names[acc.pairs[id].second]);
  });
  if (!edges.empty()) {
    out += "\n--- cross-process invocations (caller -> callee) ---\n";
    for (const auto* edge : edges) {
      const EdgeCell& row = edge->second;
      const Pairs::Key& ends = acc.pairs[edge->first];
      out += strf("%-20s -> %-20s %8zu", names[ends.first].c_str(),
                  names[ends.second].c_str(), row.calls);
      if (row.latency_count > 0) {
        out += strf("   mean %10.1f us",
                    static_cast<double>(row.latency_sum) / 1e3 /
                        static_cast<double>(row.latency_count));
      }
      out += "\n";
    }
  }

  if (!acc.slow_heads.empty() && options.top_slowest > 0) {
    out += "\n--- slowest calls (end-to-end, overhead-corrected) ---\n";
    // A k-way merge of the imprints' sorted lists, seeded with the best
    // heads.  Ties render identical lines, so the merge order never shows.
    using Cursor = std::pair<const Imprint*, std::size_t>;
    const SlowOrder order{&names};
    const auto worse = [&](const Cursor& a, const Cursor& b) {
      return order(b.first->slow[b.second], a.first->slow[a.second]);
    };
    std::priority_queue<Cursor, std::vector<Cursor>, decltype(worse)> heap(
        worse);
    for (const auto& [head, imp] : acc.slow_heads) {
      if (heap.size() == options.top_slowest) break;
      heap.push({imp, 0});
    }
    for (std::size_t emitted = 0;
         emitted < options.top_slowest && !heap.empty(); ++emitted) {
      const auto [imp, i] = heap.top();
      heap.pop();
      out += strf("%10.1f us  %s\n",
                  static_cast<double>(imp->slow[i].latency) / 1e3,
                  names[imp->slow[i].label].c_str());
      if (i + 1 < imp->slow.size()) heap.push({imp, i + 1});
    }
  }

  if (mode == ProbeMode::kLatency && !acc.critical.empty()) {
    // Every root folded its own worst path at update time; the section is
    // just the head of the worst-first index.
    out += "\n--- critical path of the slowest transaction ---\n";
    out += *acc.critical.begin()->second;
  }

  std::size_t anomaly_lines = 0;
  for (const auto& [ordinal, lines] : acc.anomaly_lines) {
    for (const auto& line : lines) {
      if (anomaly_lines == 0) out += "\n--- anomalies ---\n";
      if (anomaly_lines++ >= options.max_anomalies) break;
      out += line;
    }
    if (anomaly_lines > options.max_anomalies) break;
  }
  if (anomaly_lines > options.max_anomalies) {
    out += strf("... (%zu anomalies total)\n", dscg.anomaly_count());
  }

  if (db.sampling_active()) {
    // The section exists only when sampling left a trace -- a weight > 1 or
    // a reported suppression -- so a run at 1-in-1 with no directives
    // renders byte-identical to a build that predates sampling entirely.
    out += "\n--- sampling renormalization ---\n";
    out += strf("observed: %zu records, %zu chains; suppressed at probe: "
                "%llu records\n",
                db.size(), db.chains().size(),
                static_cast<unsigned long long>(db.sampled_out()));
    out += strf("weighted estimate: %llu records, %llu chains\n",
                static_cast<unsigned long long>(db.weighted_records()),
                static_cast<unsigned long long>(db.weighted_chains()));
    out += strf("accounting: observed + suppressed = %llu probe-kept-or-"
                "sampled activations\n",
                static_cast<unsigned long long>(db.size() + db.sampled_out()));
  }

  return out;
}

std::string Report::summary(const Dscg& dscg, const LogDatabase& db) const {
  const Acc& acc = *acc_;
  const TopologyStats topo = topology_from(acc, dscg.chains().size());
  const Summary latency =
      summarize_samples(samples_of(acc.latency, kTransactions));

  std::string out = "{";
  out += strf("\"records\":%zu,\"chains\":%zu,\"calls\":%zu,", db.size(),
              dscg.chains().size(), dscg.call_count());
  out += strf("\"anomalies\":%zu,\"failures\":%zu,", dscg.anomaly_count(),
              acc.n.failures);
  out += strf("\"mode\":\"%s\",", sv(to_string(db.primary_mode())).c_str());
  out += strf(
      "\"topology\":{\"max_depth\":%zu,\"mean_depth\":%.3f,"
      "\"max_fanout\":%zu,\"sync\":%zu,\"oneway\":%zu,\"collocated\":%zu,"
      "\"cross_process\":%zu,\"cross_thread\":%zu,\"interfaces\":%zu,"
      "\"functions\":%zu,\"objects\":%zu},",
      topo.max_depth, topo.mean_depth, topo.max_fanout, topo.sync_calls,
      topo.oneway_calls, topo.collocated_calls, topo.cross_process,
      topo.cross_thread, topo.interfaces, topo.functions, topo.objects);
  out += strf(
      "\"transaction_latency_us\":{\"count\":%zu,\"mean\":%.3f,"
      "\"p50\":%.3f,\"p90\":%.3f,\"p99\":%.3f},",
      latency.count, latency.mean, latency.p50, latency.p90, latency.p99);
  out += strf("\"total_self_cpu_us\":%.3f",
              static_cast<double>(acc.n.total_self_cpu) / 1e3);
  out += "}";
  return out;
}

namespace {

// The offline form: annotate for the primary mode, fold every root once.
Report fold_all(Dscg& dscg, const LogDatabase& db) {
  if (db.primary_mode() == ProbeMode::kLatency) annotate_latency(dscg);
  if (db.primary_mode() == ProbeMode::kCpu) annotate_cpu(dscg);
  std::vector<std::uint64_t> roots;
  std::vector<Uuid> chains;
  for (const ChainTree* tree : dscg.roots()) roots.push_back(tree->ordinal);
  for (const auto& tree : dscg.chains()) chains.push_back(tree->chain);
  Report report;
  report.update(dscg, db, UpdateScope{roots, {}, chains});
  return report;
}

}  // namespace

std::string characterization_report(Dscg& dscg, const LogDatabase& db,
                                    const ReportOptions& options) {
  return fold_all(dscg, db).render(dscg, db, options);
}

std::string summary_json(Dscg& dscg, const LogDatabase& db) {
  return fold_all(dscg, db).summary(dscg, db);
}

}  // namespace causeway::analysis
