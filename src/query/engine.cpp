#include "query/engine.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <unordered_map>

#include "analysis/trace_io.h"
#include "common/wire.h"
#include "monitor/record.h"
#include "store/store.h"

namespace causeway::query {

namespace {

using analysis::ColumnBundle;
using analysis::TraceIoError;
using monitor::CallKind;
using monitor::CallOutcome;
using monitor::EventKind;
using monitor::ProbeMode;

// A completed call -- the query row.  Names are query-wide ids (Scan
// below); a span exists only long enough for the window and `where` checks
// and its group's accumulator.
struct Span {
  Uuid chain;
  std::uint32_t iface{0}, func{0}, process{0}, node{0}, type{0};
  std::uint64_t object_key{0};
  CallKind kind{};
  CallOutcome outcome{};
  std::int64_t open_ts{0};   // opening record's value_start
  std::int64_t close_ts{0};  // closing record's value_start
  // close.value_start - open.value_end (latency.cpp's raw latency), only
  // when both paired records sampled in latency mode.
  std::optional<std::int64_t> latency;
};

using Names = std::vector<std::string_view>;

// The chain == UUID a matching span *must* carry, if the expression forces
// one: a predicate under `or` or `not` forces nothing, under `and` any
// branch's requirement holds for the whole conjunction.
std::optional<Uuid> required_chain(const Expr* e) {
  if (e == nullptr) return std::nullopt;
  switch (e->kind) {
    case Expr::Kind::kPred:
      if (e->pred.field == Field::kChain && e->pred.op == Op::kEq) {
        return e->pred.chain;
      }
      return std::nullopt;
    case Expr::Kind::kAnd:
      for (const auto& arg : e->args) {
        if (const auto chain = required_chain(arg.get())) return chain;
      }
      return std::nullopt;
    case Expr::Kind::kOr:
    case Expr::Kind::kNot:
      return std::nullopt;
  }
  return std::nullopt;
}

bool compare_i64(std::int64_t lhs, Op op, std::int64_t rhs) {
  switch (op) {
    case Op::kEq: return lhs == rhs;
    case Op::kNe: return lhs != rhs;
    case Op::kLt: return lhs < rhs;
    case Op::kLe: return lhs <= rhs;
    case Op::kGt: return lhs > rhs;
    case Op::kGe: return lhs >= rhs;
    case Op::kMatch: return false;  // parser rejects
  }
  return false;
}

bool compare_text(std::string_view lhs, Op op, std::string_view rhs) {
  switch (op) {
    case Op::kEq: return lhs == rhs;
    case Op::kNe: return lhs != rhs;
    case Op::kMatch: return lhs.find(rhs) != std::string_view::npos;
    default: return false;  // parser rejects
  }
}

bool eval_pred(const Predicate& p, const Span& s, const Names& names) {
  switch (p.field) {
    case Field::kIface: return compare_text(names[s.iface], p.op, p.text);
    case Field::kFunc: return compare_text(names[s.func], p.op, p.text);
    case Field::kProcess: return compare_text(names[s.process], p.op, p.text);
    case Field::kNode: return compare_text(names[s.node], p.op, p.text);
    case Field::kType: return compare_text(names[s.type], p.op, p.text);
    case Field::kOutcome:
      return compare_text(monitor::to_string(s.outcome), p.op, p.text);
    case Field::kKind:
      return compare_text(monitor::to_string(s.kind), p.op, p.text);
    case Field::kObject:
      return compare_i64(static_cast<std::int64_t>(s.object_key), p.op,
                         p.number);
    case Field::kChain:
      return p.op == Op::kEq ? s.chain == p.chain : !(s.chain == p.chain);
    case Field::kTs: return compare_i64(s.open_ts, p.op, p.number);
    case Field::kLatency:
      // A span without a latency sample (causality-only mode, or an
      // unpaired probe) matches no latency predicate.
      return s.latency && compare_i64(*s.latency, p.op, p.number);
  }
  return false;
}

bool eval_expr(const Expr* e, const Span& s, const Names& names) {
  if (e == nullptr) return true;
  switch (e->kind) {
    case Expr::Kind::kPred: return eval_pred(e->pred, s, names);
    case Expr::Kind::kAnd:
      for (const auto& arg : e->args) {
        if (!eval_expr(arg.get(), s, names)) return false;
      }
      return true;
    case Expr::Kind::kOr:
      for (const auto& arg : e->args) {
        if (eval_expr(arg.get(), s, names)) return true;
      }
      return false;
    case Expr::Kind::kNot: return !eval_expr(e->args[0].get(), s, names);
  }
  return false;
}

// ---------------------------------------------------------------------------
// Decode and gather

// One decoded row, by reference: the bundle that holds it, its row there,
// and its event number (the pairing order).
struct Ref {
  std::uint64_t seq;
  std::uint32_t bundle, row;
};

// Every bundle the query decodes, alive for the whole run, and each
// chain's rows gathered by reference across them -- rotation can split a
// chain mid-call, and catalog order keeps sealed files in write order.
struct Scan {
  std::vector<ColumnBundle> bundles;
  // Query-wide dense name ids.  add() rebases each bundle's id columns
  // from its own table onto these, so one id is one string in every bundle
  // and matching or grouping by name is an integer compare.  The outcome
  // and kind names are interned first and keep those reserved ids.
  Names names;
  std::unordered_map<std::string_view, std::uint32_t> name_ids;
  std::array<std::uint32_t, 4> outcome_ids{}, kind_ids{};
  // Chains in first-seen order, so runs are deterministic regardless of
  // hash seeding.
  std::unordered_map<Uuid, std::size_t> chain_index;
  std::vector<std::pair<Uuid, std::vector<Ref>>> chains;

  Scan() {
    for (std::uint8_t v = 0; v < 4; ++v) {
      outcome_ids[v] = intern(monitor::to_string(static_cast<CallOutcome>(v)));
      kind_ids[v] = intern(monitor::to_string(static_cast<CallKind>(v)));
    }
  }

  std::uint32_t intern(std::string_view s) {
    const auto [it, fresh] =
        name_ids.try_emplace(s, static_cast<std::uint32_t>(names.size()));
    if (fresh) names.push_back(s);
    return it->second;
  }

  void add(ColumnBundle cols) {
    std::vector<std::uint32_t> remap;
    for (const std::string_view s : cols.table) remap.push_back(intern(s));
    for (auto* ids :
         {&cols.iface, &cols.func, &cols.process, &cols.node, &cols.type}) {
      for (std::uint32_t& id : *ids) id = remap[id];
    }
    const auto bundle = static_cast<std::uint32_t>(bundles.size());
    std::uint32_t row = 0;
    for (const auto& run : cols.runs) {
      const auto [it, fresh] =
          chain_index.try_emplace(run.chain, chains.size());
      if (fresh) chains.emplace_back(run.chain, std::vector<Ref>{});
      auto& refs = chains[it->second].second;
      for (std::uint64_t k = 0; k < run.length; ++k, ++row) {
        refs.push_back({cols.seq[row], bundle, row});
      }
    }
    // The refs carry seq, and nothing reads the thread column.
    std::vector<std::uint64_t>().swap(cols.seq);
    std::vector<std::uint64_t>().swap(cols.thread_ordinal);
    bundles.push_back(std::move(cols));
  }
};

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw TraceIoError("cannot open trace file '" + path + "'");
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  if (in.bad()) throw TraceIoError("read error on '" + path + "'");
  return bytes;
}

// Decodes every segment of one trace file into the scan, counting into
// `stats`.  v4/v5 segments decode column-form; v2/v3 decode record-major
// and convert, so the executor sees one shape whatever the version.
void scan_file(const std::string& path, Scan& scan, QueryStats& stats) {
  const auto bytes = read_file(path);
  std::size_t offset = 0;
  while (offset < bytes.size()) {
    std::size_t length = 0;
    bool is_segment = false;
    if (!analysis::probe_trace_block(
            std::span<const std::uint8_t>(bytes).subspan(offset), length,
            is_segment)) {
      throw TraceIoError("incomplete segment in '" + path +
                         "' (run causeway-analyze --reindex)");
    }
    if (is_segment) {
      const auto segment =
          std::span<const std::uint8_t>(bytes).subspan(offset, length);
      const std::uint32_t version = WireCursor(&segment[4], 4).read_u32();
      ColumnBundle cols =
          version >= analysis::kTraceFormatV4
              ? analysis::decode_trace_segment_columns(segment)
              : analysis::columns_from_logs(
                    analysis::decode_trace_segment(segment));
      stats.records_scanned += cols.count;
      stats.segments_decoded += 1;
      scan.add(std::move(cols));
    }
    offset += length;
  }
  stats.files_opened += 1;
}

// ---------------------------------------------------------------------------
// Span pairing (call_tree.cpp's ChainParser, minus the tree), over refs

constexpr std::uint32_t kNone = ~0u;

// An open call: indices into the chain's sorted refs, plus the opening
// row's iface/func ids for matching.
struct Frame {
  std::uint32_t open;  // stub_start, or skel_start for a skeleton-rooted frame
  std::uint32_t skel_open, skel_close, iface, func;
  bool has_stub;
};

Span make_span(const Scan& scan, const Uuid& chain,
               const std::vector<Ref>& refs, const Frame& f,
               std::uint32_t close) {
  const std::uint32_t last = close != kNone ? close : f.skel_close;
  const Ref& o = refs[f.open];
  const Ref& l = refs[last];
  const ColumnBundle& oc = scan.bundles[o.bundle];
  const ColumnBundle& lc = scan.bundles[l.bundle];
  Span s{chain, oc.iface[o.row], oc.func[o.row], oc.process[o.row],
         oc.node[o.row], oc.type[o.row], oc.object_key[o.row],
         static_cast<CallKind>((oc.flags1[o.row] >> 3) & 3),
         static_cast<CallOutcome>((lc.flags1[l.row] >> 5) & 3),
         oc.value_start[o.row], lc.value_start[l.row], std::nullopt};
  // Which record pair bounds the latency window mirrors latency.cpp: the
  // stub pair for sync and stub-side oneway, the skeleton pair for
  // collocated calls and skeleton-rooted (spawned-side) frames.
  const Ref* first = &o;
  const Ref* second = &l;
  if (s.kind == CallKind::kCollocated && close != kNone) {
    if (f.skel_close == kNone) return s;  // no skeleton pair: no latency
    first = &refs[f.skel_open];
    second = &refs[f.skel_close];
  }
  const ColumnBundle& fc = scan.bundles[first->bundle];
  const ColumnBundle& sc = scan.bundles[second->bundle];
  if (static_cast<ProbeMode>(fc.flags2[first->row] & 3) ==
          ProbeMode::kLatency &&
      static_cast<ProbeMode>(sc.flags2[second->row] & 3) ==
          ProbeMode::kLatency) {
    s.latency = sc.value_start[second->row] - fc.value_end[first->row];
  }
  return s;
}

// Orders one chain's refs by event number -- stable, so equal numbers keep
// arrival order, and skipped when they arrived in order -- then
// stack-pairs them, handing each completed call to `emit`.
template <typename Emit>
void pair_chain(const Scan& scan, const Uuid& chain, std::vector<Ref>& refs,
                std::vector<Frame>& stack, Emit&& emit) {
  auto by_seq = [](const Ref& a, const Ref& b) { return a.seq < b.seq; };
  if (!std::is_sorted(refs.begin(), refs.end(), by_seq)) {
    std::stable_sort(refs.begin(), refs.end(), by_seq);
  }
  stack.clear();
  for (std::uint32_t i = 0; i < refs.size(); ++i) {
    const ColumnBundle& c = scan.bundles[refs[i].bundle];
    const std::uint32_t row = refs[i].row;
    const std::uint32_t iface = c.iface[row], func = c.func[row];
    const bool matches = !stack.empty() && stack.back().iface == iface &&
                         stack.back().func == func;
    switch (static_cast<EventKind>(c.flags1[row] & 7)) {
      case EventKind::kStubStart:
        stack.push_back({i, kNone, kNone, iface, func, true});
        break;
      case EventKind::kSkelStart:
        if (stack.empty()) {
          // Skeleton-rooted: spawned side of a oneway, or an
          // uninstrumented caller.
          stack.push_back({i, i, kNone, iface, func, false});
        } else if (stack.back().skel_open == kNone && matches) {
          stack.back().skel_open = i;
        }
        // else: anomalous record; the DSCG reports those, a query skips.
        break;
      case EventKind::kSkelEnd:
        if (matches && stack.back().skel_open != kNone &&
            stack.back().skel_close == kNone) {
          stack.back().skel_close = i;
          if (!stack.back().has_stub) {
            emit(make_span(scan, chain, refs, stack.back(), kNone));
            stack.pop_back();
          }
        }
        break;
      case EventKind::kStubEnd:
        if (matches && stack.back().has_stub) {
          emit(make_span(scan, chain, refs, stack.back(), i));
          stack.pop_back();
        }
        break;
    }
  }
  // Frames still open (chain cut at a file tail) produce no spans.
}

// ---------------------------------------------------------------------------
// Aggregation

struct GroupAcc {
  std::uint64_t count{0};
  std::vector<std::int64_t> latencies;
};

// The cell a span aggregates into: its group field's name id, or the one
// cell 0 when the query does not group.
std::uint32_t group_id(const Query& q, const Scan& scan, const Span& s) {
  if (!q.group_by) return 0;
  switch (*q.group_by) {
    case Field::kIface: return s.iface;
    case Field::kFunc: return s.func;
    case Field::kProcess: return s.process;
    case Field::kNode: return s.node;
    case Field::kType: return s.type;
    case Field::kOutcome:
      return scan.outcome_ids[static_cast<std::size_t>(s.outcome)];
    case Field::kKind: return scan.kind_ids[static_cast<std::size_t>(s.kind)];
    default: return 0;  // parser only admits the above
  }
}

// Nearest-rank percentile over a sorted vector.
std::int64_t percentile(const std::vector<std::int64_t>& sorted, int pct) {
  const std::size_t n = sorted.size();
  std::size_t rank = (n * static_cast<std::size_t>(pct) + 99) / 100;
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  return sorted[rank - 1];
}

std::optional<double> aggregate(AggFunc f, const GroupAcc& acc,
                                const std::vector<std::int64_t>& sorted) {
  if (f == AggFunc::kCount) return static_cast<double>(acc.count);
  if (sorted.empty()) return std::nullopt;
  switch (f) {
    case AggFunc::kSum: {
      double sum = 0;
      for (const std::int64_t v : sorted) sum += static_cast<double>(v);
      return sum;
    }
    case AggFunc::kAvg: {
      double sum = 0;
      for (const std::int64_t v : sorted) sum += static_cast<double>(v);
      return sum / static_cast<double>(sorted.size());
    }
    case AggFunc::kMin: return static_cast<double>(sorted.front());
    case AggFunc::kMax: return static_cast<double>(sorted.back());
    case AggFunc::kP50: return static_cast<double>(percentile(sorted, 50));
    case AggFunc::kP95: return static_cast<double>(percentile(sorted, 95));
    case AggFunc::kP99: return static_cast<double>(percentile(sorted, 99));
    case AggFunc::kCount: break;  // handled above
  }
  return std::nullopt;
}

std::string format_value(const std::optional<double>& v) {
  if (!v) return "-";
  const double d = *v;
  if (d == std::floor(d) && std::abs(d) < 9.2e18) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    return buf;
  }
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", d);
  return buf;
}

}  // namespace

QueryResult run_query(const Query& q,
                      const std::vector<std::string>& inputs) {
  QueryResult result;
  const std::optional<Uuid> need_chain = required_chain(q.where.get());
  const std::int64_t since =
      q.since.value_or(std::numeric_limits<std::int64_t>::min());
  const std::int64_t until =
      q.until.value_or(std::numeric_limits<std::int64_t>::max());
  const bool windowed = q.since.has_value() || q.until.has_value();

  Scan scan;
  for (const std::string& input : inputs) {
    if (store::is_store_directory(input)) {
      const store::StoreView view = store::open_store(input);
      for (const auto& file : view.files) {
        result.stats.files_total += 1;
        if (file.indexed) {
          bool pruned = !file.entry.has_records();
          if (windowed && !file.entry.overlaps_time(since, until)) {
            pruned = true;
          }
          if (need_chain && !file.entry.may_contain_chain(*need_chain)) {
            pruned = true;
          }
          if (pruned) {
            result.stats.files_pruned += 1;
            continue;
          }
        }
        scan_file(file.path, scan, result.stats);
      }
    } else {
      result.stats.files_total += 1;
      scan_file(input, scan, result.stats);
    }
  }

  std::vector<GroupAcc> cells(q.group_by ? scan.names.size() : 1);
  std::vector<Frame> stack;
  for (auto& [chain, refs] : scan.chains) {
    pair_chain(scan, chain, refs, stack, [&](const Span& s) {
      result.stats.spans_total += 1;
      // The window clauses bound the whole span: it opens at or after
      // `since` and closes at or before `until` -- the invariant that
      // makes both catalog prune directions exact, not approximate.
      if (s.open_ts < since || s.close_ts > until) return;
      if (!eval_expr(q.where.get(), s, scan.names)) return;
      result.stats.spans_matched += 1;
      GroupAcc& acc = cells[group_id(q, scan, s)];
      acc.count += 1;
      if (s.latency) acc.latencies.push_back(*s.latency);
    });
  }

  if (q.group_by) {
    result.columns.push_back(std::string(to_string(*q.group_by)));
  }
  for (const AggFunc f : q.aggs) {
    result.columns.push_back(std::string(to_string(f)));
  }
  // Rows are the cells some span reached, in name order (the order of a
  // std::string-keyed map).  A global (ungrouped) query always yields its
  // one row, even over nothing.
  std::vector<std::uint32_t> order;
  for (std::uint32_t id = 0; id < cells.size(); ++id) {
    if (cells[id].count > 0 || !q.group_by) order.push_back(id);
  }
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return scan.names[a] < scan.names[b];
  });
  for (const std::uint32_t id : order) {
    GroupAcc& acc = cells[id];
    std::sort(acc.latencies.begin(), acc.latencies.end());
    QueryResult::Row row;
    if (q.group_by) row.group = std::string(scan.names[id]);
    for (const AggFunc f : q.aggs) {
      row.values.push_back(aggregate(f, acc, acc.latencies));
    }
    result.rows.push_back(std::move(row));
  }
  return result;
}

std::string render_text(const QueryResult& r) {
  // Column widths sized to content so the table reads aligned.
  std::vector<std::size_t> widths(r.columns.size());
  for (std::size_t c = 0; c < r.columns.size(); ++c) {
    widths[c] = r.columns[c].size();
  }
  std::vector<std::vector<std::string>> cells;
  for (const auto& row : r.rows) {
    std::vector<std::string> line;
    if (r.columns.size() == row.values.size() + 1) {
      line.push_back(row.group);
    }
    for (const auto& v : row.values) line.push_back(format_value(v));
    for (std::size_t c = 0; c < line.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], line[c].size());
    }
    cells.push_back(std::move(line));
  }
  std::string out;
  for (std::size_t c = 0; c < r.columns.size(); ++c) {
    if (c) out += "  ";
    out += r.columns[c];
    out.append(widths[c] - r.columns[c].size(), ' ');
  }
  out += '\n';
  for (const auto& line : cells) {
    for (std::size_t c = 0; c < line.size(); ++c) {
      if (c) out += "  ";
      out += line[c];
      if (c + 1 < line.size()) out.append(widths[c] - line[c].size(), ' ');
    }
    out += '\n';
  }
  return out;
}

std::string render_csv(const QueryResult& r) {
  auto escape = [](const std::string& s) {
    if (s.find_first_of(",\"\n") == std::string::npos) return s;
    std::string quoted = "\"";
    for (const char c : s) {
      if (c == '"') quoted += '"';
      quoted += c;
    }
    quoted += '"';
    return quoted;
  };
  std::string out;
  for (std::size_t c = 0; c < r.columns.size(); ++c) {
    if (c) out += ',';
    out += escape(r.columns[c]);
  }
  out += '\n';
  for (const auto& row : r.rows) {
    std::vector<std::string> line;
    if (r.columns.size() == row.values.size() + 1) {
      line.push_back(row.group);
    }
    for (const auto& v : row.values) line.push_back(format_value(v));
    for (std::size_t c = 0; c < line.size(); ++c) {
      if (c) out += ',';
      out += escape(line[c]);
    }
    out += '\n';
  }
  return out;
}

}  // namespace causeway::query
