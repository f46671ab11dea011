// Query-subsystem acceptance: tokenizer and parser (including every
// type-checking rejection), span pairing and aggregation semantics, and the
// catalog-driven planner pruning -- asserted through the QueryStats
// counters, not trusted.
#include "query/parser.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "analysis/trace_io.h"
#include "query/engine.h"
#include "store/store.h"

namespace causeway::query {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------- tokenizer

TEST(Tokenize, WordsOpsStringsAndParens) {
  const auto tokens = tokenize("count where iface == 'My::Iface' and x>=3us");
  std::vector<Token::Kind> kinds;
  for (const Token& t : tokens) kinds.push_back(t.kind);
  EXPECT_EQ(kinds, (std::vector<Token::Kind>{
                       Token::Kind::kWord, Token::Kind::kWord,
                       Token::Kind::kWord, Token::Kind::kOp,
                       Token::Kind::kString, Token::Kind::kWord,
                       Token::Kind::kWord, Token::Kind::kOp,
                       Token::Kind::kWord, Token::Kind::kEnd}));
  EXPECT_EQ(tokens[3].text, "==");
  EXPECT_EQ(tokens[4].text, "My::Iface");
  EXPECT_EQ(tokens[7].text, ">=");
  EXPECT_EQ(tokens[8].text, "3us");
}

TEST(Tokenize, RejectsUnterminatedStringAndStrayChars) {
  EXPECT_THROW(tokenize("count where iface == 'oops"), QueryError);
  EXPECT_THROW(tokenize("count ; drop"), QueryError);
  try {
    tokenize("count @");
    FAIL();
  } catch (const QueryError& e) {
    EXPECT_EQ(e.pos(), 6u);
    EXPECT_NE(std::string(e.what()).find("offset 6"), std::string::npos);
  }
}

// ------------------------------------------------------------------ parser

TEST(Parse, AggListWindowAndGroupBy) {
  const Query q = parse_query(
      "count, p95(latency), sum(latency) "
      "where iface == A::B group by func since 10us until 2ms");
  ASSERT_EQ(q.aggs.size(), 3u);
  EXPECT_EQ(q.aggs[0], AggFunc::kCount);
  EXPECT_EQ(q.aggs[1], AggFunc::kP95);
  EXPECT_EQ(q.aggs[2], AggFunc::kSum);
  ASSERT_TRUE(q.where);
  EXPECT_EQ(q.where->kind, Expr::Kind::kPred);
  EXPECT_EQ(q.where->pred.field, Field::kIface);
  EXPECT_EQ(q.where->pred.text, "A::B");
  ASSERT_TRUE(q.group_by.has_value());
  EXPECT_EQ(*q.group_by, Field::kFunc);
  EXPECT_EQ(q.since, std::optional<std::int64_t>(10'000));
  EXPECT_EQ(q.until, std::optional<std::int64_t>(2'000'000));
}

TEST(Parse, BooleanStructureAndNot) {
  const Query q = parse_query(
      "count where (iface =~ snap or func == get) and not outcome == ok");
  ASSERT_TRUE(q.where);
  ASSERT_EQ(q.where->kind, Expr::Kind::kAnd);
  ASSERT_EQ(q.where->args.size(), 2u);
  EXPECT_EQ(q.where->args[0]->kind, Expr::Kind::kOr);
  EXPECT_EQ(q.where->args[1]->kind, Expr::Kind::kNot);
  EXPECT_EQ(q.where->args[1]->args[0]->pred.field, Field::kOutcome);
}

TEST(Parse, NumberUnitsAndLatencyThreshold) {
  const Query q = parse_query("count where latency > 5ms");
  EXPECT_EQ(q.where->pred.number, 5'000'000);
  EXPECT_EQ(parse_query("count where latency > 7").where->pred.number, 7);
  EXPECT_EQ(parse_query("count where latency > 2s").where->pred.number,
            2'000'000'000);
}

TEST(Parse, ChainPredicateParsesUuid) {
  const Query q = parse_query(
      "count where chain == 01234567-89ab-cdef-0011-223344556677");
  EXPECT_EQ(q.where->pred.field, Field::kChain);
  EXPECT_EQ(q.where->pred.chain.hi, 0x0123456789abcdefull);
  EXPECT_EQ(q.where->pred.chain.lo, 0x0011223344556677ull);
}

TEST(Parse, RejectsMalformedQueries) {
  EXPECT_THROW(parse_query(""), QueryError);
  EXPECT_THROW(parse_query("frobnicate"), QueryError);          // unknown agg
  EXPECT_THROW(parse_query("p95"), QueryError);                 // missing (latency)
  EXPECT_THROW(parse_query("count where bogus == 1"), QueryError);
  EXPECT_THROW(parse_query("count where iface < x"), QueryError);   // order on string
  EXPECT_THROW(parse_query("count where latency =~ 3"), QueryError);  // match on num
  EXPECT_THROW(parse_query("count where chain > 1-2-3-4-5"), QueryError);
  EXPECT_THROW(parse_query("count where chain == notauuid"), QueryError);
  EXPECT_THROW(parse_query("count group by latency"), QueryError);  // numeric group
  EXPECT_THROW(parse_query("count where a == b where c == d"), QueryError);
  EXPECT_THROW(parse_query("count since 10 until 5"), QueryError);  // empty window
  EXPECT_THROW(parse_query("count where (iface == x"), QueryError);  // unclosed
  EXPECT_THROW(parse_query("count extra"), QueryError);  // trailing garbage
}

// ------------------------------------------------------------------ engine

Uuid uuid(std::uint64_t hi, std::uint64_t lo) {
  Uuid u;
  u.hi = hi;
  u.lo = lo;
  return u;
}

// One sync call: stub open/close around skel open/close.  Latency is
// close.value_start - open.value_end = 80ns with these stamps.
void add_call(monitor::CollectedLogs& logs, const Uuid& chain,
              std::uint64_t seq_base, std::int64_t base,
              std::string_view iface, std::string_view func,
              monitor::CallOutcome outcome,
              std::int64_t latency_pad = 0) {
  auto rec = [&](std::uint64_t seq, monitor::EventKind event,
                 std::string_view process, std::int64_t start,
                 std::int64_t end) {
    monitor::TraceRecord r;
    r.chain = chain;
    r.seq = seq_base + seq;
    r.event = event;
    r.kind = monitor::CallKind::kSync;
    r.outcome = outcome;
    r.interface_name = iface;
    r.function_name = func;
    r.object_key = 42;
    r.process_name = process;
    r.node_name = "node0";
    r.processor_type = "x86";
    r.thread_ordinal = 1;
    r.mode = monitor::ProbeMode::kLatency;
    r.value_start = start;
    r.value_end = end;
    logs.records.push_back(r);
  };
  rec(1, monitor::EventKind::kStubStart, "client", base, base + 10);
  rec(2, monitor::EventKind::kSkelStart, "server", base + 30, base + 40);
  rec(3, monitor::EventKind::kSkelEnd, "server", base + 50, base + 60);
  rec(4, monitor::EventKind::kStubEnd, "client", base + 90 + latency_pad,
      base + 100 + latency_pad);
}

monitor::CollectedLogs base_logs(std::uint64_t epoch) {
  monitor::CollectedLogs logs;
  logs.epoch = epoch;
  logs.domains.push_back({monitor::DomainIdentity{"client", "node0", "x86"},
                          monitor::ProbeMode::kLatency, 0});
  logs.domains.push_back({monitor::DomainIdentity{"server", "node0", "x86"},
                          monitor::ProbeMode::kLatency, 0});
  return logs;
}

// A scratch trace file with four calls across two interfaces; removed on
// destruction.
struct ScratchTrace {
  fs::path path;
  ScratchTrace() {
    path = fs::temp_directory_path() /
           ("causeway_query_" + std::to_string(::getpid()) + ".cwt");
    auto logs = base_logs(1);
    add_call(logs, uuid(1, 1), 0, 1'000, "Svc::Alpha", "get",
             monitor::CallOutcome::kOk);
    add_call(logs, uuid(1, 2), 10, 2'000, "Svc::Alpha", "put",
             monitor::CallOutcome::kOk, 100);
    add_call(logs, uuid(1, 3), 20, 3'000, "Svc::Beta", "get",
             monitor::CallOutcome::kAppError, 400);
    add_call(logs, uuid(1, 4), 30, 4'000, "Svc::Beta", "snap",
             monitor::CallOutcome::kOk, 900);
    analysis::write_trace_file(path.string(), logs);
  }
  ~ScratchTrace() { fs::remove(path); }
  std::vector<std::string> inputs() const { return {path.string()}; }
};

double value(const QueryResult& r, std::size_t row, std::size_t col) {
  return r.rows.at(row).values.at(col).value();
}

TEST(Engine, CountAndLatencyAggregates) {
  ScratchTrace t;
  // Each sync add_call pairs into one span (its stub open/close);
  // latency = close.value_start - open.value_end = 80 + pad.
  const QueryResult r = run_query(
      parse_query("count, min(latency), max(latency), sum(latency)"),
      t.inputs());
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(value(r, 0, 0), 4.0);
  EXPECT_EQ(value(r, 0, 1), 80.0);
  EXPECT_EQ(value(r, 0, 2), 980.0);
  EXPECT_EQ(value(r, 0, 3), 80 + 180 + 480 + 980);
  EXPECT_EQ(r.stats.spans_total, 4u);
  EXPECT_EQ(r.stats.spans_matched, 4u);
}

TEST(Engine, GroupByInterfaceIsSorted) {
  ScratchTrace t;
  const QueryResult r = run_query(
      parse_query("count, max(latency) group by iface"), t.inputs());
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0].group, "Svc::Alpha");
  EXPECT_EQ(r.rows[1].group, "Svc::Beta");
  EXPECT_EQ(value(r, 0, 0), 2.0);
  EXPECT_EQ(value(r, 1, 1), 980.0);
  ASSERT_EQ(r.columns.size(), 3u);
  EXPECT_EQ(r.columns[0], "iface");
}

TEST(Engine, WhereFiltersAndPercentiles) {
  ScratchTrace t;
  {
    const QueryResult r = run_query(
        parse_query("count where func == get and outcome != ok"), t.inputs());
    EXPECT_EQ(value(r, 0, 0), 1.0);  // the Beta get call
  }
  {
    const QueryResult r =
        run_query(parse_query("count where latency > 100"), t.inputs());
    EXPECT_EQ(value(r, 0, 0), 3.0);  // latencies 180, 480, 980
  }
  {
    // p50 over the four spans [80, 180, 480, 980]: nearest-rank picks
    // the 2nd; p99 the 4th.
    const QueryResult r = run_query(
        parse_query("p50(latency), p99(latency) where process == client"),
        t.inputs());
    EXPECT_EQ(value(r, 0, 0), 180.0);
    EXPECT_EQ(value(r, 0, 1), 980.0);
  }
  {
    const QueryResult r = run_query(
        parse_query("count where iface =~ Beta or func == put"), t.inputs());
    EXPECT_EQ(value(r, 0, 0), 3.0);
  }
}

TEST(Engine, ChainEqualityAndWindow) {
  ScratchTrace t;
  {
    const QueryResult r = run_query(
        parse_query(
            "count where chain == 00000000-0000-0001-0000-000000000003"),
        t.inputs());
    EXPECT_EQ(value(r, 0, 0), 1.0);
  }
  {
    // Window [2000, 3200] keeps only the second call (opens at 2000,
    // closes at 2200); the first opens before, the third closes after.
    const QueryResult r =
        run_query(parse_query("count since 2000 until 3200"), t.inputs());
    EXPECT_EQ(value(r, 0, 0), 1.0);
  }
}

TEST(Engine, EmptyMatchYieldsCountZeroAndNullStats) {
  ScratchTrace t;
  const QueryResult r = run_query(
      parse_query("count, p95(latency) where iface == Absent"), t.inputs());
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(value(r, 0, 0), 0.0);
  EXPECT_FALSE(r.rows[0].values[1].has_value());
  EXPECT_NE(render_text(r).find("-"), std::string::npos);
}

TEST(Engine, RendersTextAndCsv) {
  ScratchTrace t;
  const QueryResult r = run_query(
      parse_query("count group by outcome"), t.inputs());
  const std::string text = render_text(r);
  EXPECT_NE(text.find("outcome"), std::string::npos);
  EXPECT_NE(text.find("app-error"), std::string::npos);
  const std::string csv = render_csv(r);
  EXPECT_NE(csv.find("outcome,count\n"), std::string::npos);
  EXPECT_NE(csv.find("ok,3\n"), std::string::npos);
}

TEST(Engine, MissingInputThrows) {
  EXPECT_THROW(
      run_query(parse_query("count"), {"/no/such/trace.cwt"}),
      analysis::TraceIoError);
}

// ------------------------------------------------------ pairing semantics

// One record with every identity field spelled out; stamps [start, end].
monitor::TraceRecord make_rec(const Uuid& chain, std::uint64_t seq,
                              monitor::EventKind event,
                              monitor::CallKind kind, std::string_view iface,
                              std::string_view func, std::string_view process,
                              std::int64_t start, std::int64_t end,
                              monitor::ProbeMode mode =
                                  monitor::ProbeMode::kLatency) {
  monitor::TraceRecord r;
  r.chain = chain;
  r.seq = seq;
  r.event = event;
  r.kind = kind;
  r.interface_name = iface;
  r.function_name = func;
  r.object_key = 42;
  r.process_name = process;
  r.node_name = "node0";
  r.processor_type = "x86";
  r.thread_ordinal = 1;
  r.mode = mode;
  r.value_start = start;
  r.value_end = end;
  return r;
}

// A trace file (one segment per bundle) or a store (one sealed file per
// bundle), removed on destruction.
struct ScratchPath {
  fs::path path;
  explicit ScratchPath(const std::string& name) {
    path = fs::temp_directory_path() /
           ("causeway_qpin_" + name + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
  }
  ~ScratchPath() { fs::remove_all(path); }
  void write_file(const std::vector<monitor::CollectedLogs>& bundles,
                  std::uint32_t format = analysis::kTraceFormatV4) const {
    analysis::TraceWriter writer(path.string(), format);
    for (const auto& logs : bundles) writer.append(logs);
    writer.close();
  }
  void write_store(const std::vector<monitor::CollectedLogs>& bundles) const {
    store::StoreOptions options;
    options.rotate_segments = 1;
    store::StoreWriter writer(path.string(), options);
    for (const auto& logs : bundles) writer.append(logs);
    writer.close();
  }
  std::vector<std::string> inputs() const { return {path.string()}; }
};

std::string csv_of(const std::string& query,
                   const std::vector<std::string>& inputs) {
  return render_csv(run_query(parse_query(query), inputs));
}

TEST(Pairing, ChainSplitMidCallAcrossSealedFiles) {
  using monitor::CallKind;
  using monitor::EventKind;
  const Uuid c = uuid(0xc1, 1);
  auto first = base_logs(1);
  first.records.push_back(make_rec(c, 1, EventKind::kStubStart,
                                   CallKind::kSync, "I", "f", "client", 1000,
                                   1010));
  first.records.push_back(make_rec(c, 2, EventKind::kSkelStart,
                                   CallKind::kSync, "I", "f", "server", 1030,
                                   1040));
  auto second = base_logs(2);
  second.records.push_back(make_rec(c, 3, EventKind::kSkelEnd,
                                    CallKind::kSync, "I", "f", "server", 1050,
                                    1060));
  second.records.push_back(make_rec(c, 4, EventKind::kStubEnd,
                                    CallKind::kSync, "I", "f", "client", 1090,
                                    1100));
  ScratchPath s("split");
  s.write_store({first, second});
  const QueryResult r =
      run_query(parse_query("count, sum(latency)"), s.inputs());
  EXPECT_EQ(value(r, 0, 0), 1.0);
  EXPECT_EQ(value(r, 0, 1), 80.0);  // 1090 - 1010
  EXPECT_EQ(r.stats.files_total, 2u);
  EXPECT_EQ(r.stats.files_opened, 2u);
  EXPECT_EQ(r.stats.segments_decoded, 2u);
  EXPECT_EQ(r.stats.records_scanned, 4u);
  EXPECT_EQ(r.stats.spans_total, 1u);
  // Both halves carry the chain, so a chain lookup opens both files too.
  const QueryResult byc = run_query(
      parse_query("count where chain == 00000000-0000-00c1-0000-000000000001"),
      s.inputs());
  EXPECT_EQ(value(byc, 0, 0), 1.0);
  EXPECT_EQ(byc.stats.files_opened, 2u);
}

TEST(Pairing, OutOfOrderEventsAcrossSegments) {
  using monitor::CallKind;
  using monitor::EventKind;
  const Uuid x = uuid(0xc2, 1);
  const Uuid y = uuid(0xc2, 2);
  // Chain x arrives 4, 2 | 3, 1; chain y, interleaved, in order.
  auto first = base_logs(1);
  first.records.push_back(make_rec(x, 4, EventKind::kStubEnd, CallKind::kSync,
                                   "I", "f", "client", 190, 200));
  first.records.push_back(make_rec(y, 1, EventKind::kStubStart,
                                   CallKind::kSync, "I", "g", "client", 500,
                                   505));
  first.records.push_back(make_rec(x, 2, EventKind::kSkelStart,
                                   CallKind::kSync, "I", "f", "server", 130,
                                   140));
  auto second = base_logs(2);
  second.records.push_back(make_rec(x, 3, EventKind::kSkelEnd,
                                    CallKind::kSync, "I", "f", "server", 150,
                                    160));
  second.records.push_back(make_rec(y, 2, EventKind::kStubEnd,
                                    CallKind::kSync, "I", "g", "client", 530,
                                    540));
  second.records.push_back(make_rec(x, 1, EventKind::kStubStart,
                                    CallKind::kSync, "I", "f", "client", 100,
                                    110));
  ScratchPath s("order.cwt");
  s.write_file({first, second});
  EXPECT_EQ(csv_of("count, sum(latency) group by func", s.inputs()),
            "func,count,sum(latency)\nf,1,80\ng,1,25\n");
  const QueryResult r = run_query(parse_query("count"), s.inputs());
  EXPECT_EQ(r.stats.segments_decoded, 2u);
  EXPECT_EQ(r.stats.records_scanned, 6u);
  EXPECT_EQ(r.stats.spans_total, 2u);
}

TEST(Pairing, OnewayStubSideAndSpawnedSkeletonFrame) {
  using monitor::CallKind;
  using monitor::EventKind;
  const Uuid a = uuid(0xc3, 1);
  const Uuid b = uuid(0xc3, 2);
  auto logs = base_logs(1);
  auto open = make_rec(a, 1, EventKind::kStubStart, CallKind::kOneway, "I",
                       "fire", "client", 100, 110);
  open.spawned_chain = b;
  logs.records.push_back(open);
  logs.records.push_back(make_rec(a, 2, EventKind::kStubEnd,
                                  CallKind::kOneway, "I", "fire", "client",
                                  130, 140));
  logs.records.push_back(make_rec(b, 1, EventKind::kSkelStart,
                                  CallKind::kOneway, "I", "fire", "server",
                                  200, 215));
  logs.records.push_back(make_rec(b, 2, EventKind::kSkelEnd,
                                  CallKind::kOneway, "I", "fire", "server",
                                  260, 270));
  ScratchPath s("oneway.cwt");
  s.write_file({logs});
  // Stub pair: 130 - 110; skeleton-rooted frame: 260 - 215.
  EXPECT_EQ(csv_of("count, sum(latency) group by process", s.inputs()),
            "process,count,sum(latency)\nclient,1,20\nserver,1,45\n");
  EXPECT_EQ(csv_of("count group by kind", s.inputs()),
            "kind,count\noneway,2\n");
  // The spawned frame opens at 200 and closes at 260.
  EXPECT_EQ(csv_of("count since 200 until 260", s.inputs()), "count\n1\n");
  EXPECT_EQ(csv_of("count since 100 until 259", s.inputs()), "count\n1\n");
}

TEST(Pairing, CollocatedLatencyNeedsTheSkeletonPair) {
  using monitor::CallKind;
  using monitor::EventKind;
  const Uuid c = uuid(0xc4, 1);
  const Uuid d = uuid(0xc4, 2);
  auto logs = base_logs(1);
  logs.records.push_back(make_rec(c, 1, EventKind::kStubStart,
                                  CallKind::kCollocated, "I", "near",
                                  "client", 0, 10));
  logs.records.push_back(make_rec(c, 2, EventKind::kSkelStart,
                                  CallKind::kCollocated, "I", "near",
                                  "client", 20, 25));
  logs.records.push_back(make_rec(c, 3, EventKind::kSkelEnd,
                                  CallKind::kCollocated, "I", "near",
                                  "client", 40, 45));
  logs.records.push_back(make_rec(c, 4, EventKind::kStubEnd,
                                  CallKind::kCollocated, "I", "near",
                                  "client", 60, 70));
  logs.records.push_back(make_rec(d, 1, EventKind::kStubStart,
                                  CallKind::kCollocated, "I", "bare",
                                  "client", 100, 110));
  logs.records.push_back(make_rec(d, 2, EventKind::kStubEnd,
                                  CallKind::kCollocated, "I", "bare",
                                  "client", 150, 160));
  ScratchPath s("colloc.cwt");
  s.write_file({logs});
  // With the skeleton pair: 40 - 25.  Without one: no latency at all.
  EXPECT_EQ(csv_of("count, sum(latency), max(latency) group by func",
                   s.inputs()),
            "func,count,sum(latency),max(latency)\nbare,1,-,-\n"
            "near,1,15,15\n");
  EXPECT_EQ(csv_of("count where latency >= 0", s.inputs()), "count\n1\n");
}

TEST(Pairing, CausalityModeHasNoLatency) {
  using monitor::CallKind;
  using monitor::EventKind;
  using monitor::ProbeMode;
  const Uuid c = uuid(0xc5, 1);
  const Uuid m = uuid(0xc5, 2);
  auto logs = base_logs(1);
  logs.records.push_back(make_rec(c, 1, EventKind::kStubStart,
                                  CallKind::kSync, "I", "f", "client", 0, 0,
                                  ProbeMode::kCausalityOnly));
  logs.records.push_back(make_rec(c, 2, EventKind::kStubEnd, CallKind::kSync,
                                  "I", "f", "client", 0, 0,
                                  ProbeMode::kCausalityOnly));
  // Latency-mode open, causality-mode close: still no sample.
  logs.records.push_back(make_rec(m, 1, EventKind::kStubStart,
                                  CallKind::kSync, "I", "g", "client", 10,
                                  20));
  logs.records.push_back(make_rec(m, 2, EventKind::kStubEnd, CallKind::kSync,
                                  "I", "g", "client", 50, 60,
                                  ProbeMode::kCausalityOnly));
  ScratchPath s("causality.cwt");
  s.write_file({logs});
  const QueryResult r = run_query(
      parse_query("count, p50(latency), avg(latency)"), s.inputs());
  EXPECT_EQ(render_csv(r), "count,p50(latency),avg(latency)\n2,-,-\n");
  EXPECT_EQ(render_text(r),
            "count  p50(latency)  avg(latency)\n2      -             -\n");
  EXPECT_EQ(csv_of("count where latency >= 0", s.inputs()), "count\n0\n");
}

TEST(Pairing, StrayAndUnmatchedEventsAreSkipped) {
  using monitor::CallKind;
  using monitor::EventKind;
  const Uuid c = uuid(0xc6, 1);
  auto logs = base_logs(1);
  auto add = [&](std::uint64_t seq, EventKind event, std::string_view func) {
    const auto t = static_cast<std::int64_t>(seq) * 10;
    logs.records.push_back(make_rec(c, seq, event, CallKind::kSync, "I", func,
                                    "client", t, t + 5));
  };
  add(1, EventKind::kStubEnd, "f");     // nothing open
  add(2, EventKind::kSkelEnd, "f");     // nothing open
  add(3, EventKind::kStubStart, "g");   // opens g
  add(4, EventKind::kStubEnd, "x");     // wrong function
  add(5, EventKind::kSkelEnd, "g");     // no skeleton open yet
  add(6, EventKind::kSkelStart, "h");   // wrong function
  add(7, EventKind::kSkelStart, "g");   // g's skeleton
  add(8, EventKind::kSkelStart, "g");   // skeleton already open
  add(9, EventKind::kSkelEnd, "g");
  add(10, EventKind::kStubEnd, "g");    // closes g: 100 - 35
  add(11, EventKind::kStubStart, "k");  // never closed
  ScratchPath s("stray.cwt");
  s.write_file({logs});
  const QueryResult r = run_query(
      parse_query("count, sum(latency) group by func"), s.inputs());
  EXPECT_EQ(render_csv(r), "func,count,sum(latency)\ng,1,65\n");
  EXPECT_EQ(r.stats.records_scanned, 11u);
  EXPECT_EQ(r.stats.spans_total, 1u);
  EXPECT_EQ(r.stats.spans_matched, 1u);
}

// Five calls that differ in every groupable field.  Sync and collocated
// calls are four records (skeleton side in process "server"); oneway is
// the stub pair alone.
struct CallSpec {
  std::string_view iface, func, process, node, type;
  monitor::CallKind kind;
  monitor::CallOutcome outcome;
  std::uint64_t object_key;
  std::int64_t base, pad;
};

monitor::CollectedLogs varied_logs() {
  using monitor::CallKind;
  using monitor::CallOutcome;
  using monitor::EventKind;
  const CallSpec calls[] = {
      // latency 80
      {"Svc::Alpha", "get", "p1", "n1", "x86", CallKind::kSync,
       CallOutcome::kOk, 7, 1000, 0},
      // latency 100
      {"Svc::Alpha", "put", "p2", "n1", "arm", CallKind::kSync,
       CallOutcome::kAppError, 8, 2000, 20},
      // latency 10 (skeleton pair)
      {"Svc::Beta", "get", "p1", "n2", "arm", CallKind::kCollocated,
       CallOutcome::kOk, 9, 3000, 0},
      // latency 380
      {"Svc::Beta", "put", "p3", "n2", "x86", CallKind::kSync,
       CallOutcome::kSystemError, 7, 4000, 300},
      // latency 30 (stub pair)
      {"Svc::Gamma", "get", "p2", "n1", "x86", CallKind::kOneway,
       CallOutcome::kOk, 9, 5000, 0},
  };
  auto logs = base_logs(1);
  std::uint64_t lo = 0;
  for (const CallSpec& c : calls) {
    const Uuid chain = uuid(2, ++lo);
    std::uint64_t seq = 0;
    auto rec = [&](EventKind event, std::string_view process,
                   std::int64_t start) {
      auto r = make_rec(chain, ++seq, event, c.kind, c.iface, c.func, process,
                        c.base + start, c.base + start + 10);
      r.node_name = c.node;
      r.processor_type = c.type;
      r.object_key = c.object_key;
      // Probes 3/4 record the outcome; a span takes its closing record's.
      const bool closing =
          event == EventKind::kSkelEnd || event == EventKind::kStubEnd;
      r.outcome = closing ? c.outcome : CallOutcome::kOk;
      logs.records.push_back(r);
    };
    rec(EventKind::kStubStart, c.process, 0);
    if (c.kind == CallKind::kOneway) {
      rec(EventKind::kStubEnd, c.process, 40 + c.pad);
      continue;
    }
    rec(EventKind::kSkelStart, "server", 30);
    rec(EventKind::kSkelEnd, "server", 50);
    rec(EventKind::kStubEnd, c.process, 90 + c.pad);
  }
  return logs;
}

TEST(Aggregate, GroupByEveryGroupableField) {
  ScratchPath s("groups.cwt");
  s.write_file({varied_logs()});
  const auto in = s.inputs();
  const char* agg = "count, sum(latency) group by ";
  auto grouped = [&](const std::string& field) {
    return csv_of(agg + field, in);
  };
  EXPECT_EQ(grouped("iface"),
            "iface,count,sum(latency)\nSvc::Alpha,2,180\nSvc::Beta,2,390\n"
            "Svc::Gamma,1,30\n");
  EXPECT_EQ(grouped("func"), "func,count,sum(latency)\nget,3,120\nput,2,480\n");
  EXPECT_EQ(grouped("process"),
            "process,count,sum(latency)\np1,2,90\np2,2,130\np3,1,380\n");
  EXPECT_EQ(grouped("node"), "node,count,sum(latency)\nn1,3,210\nn2,2,390\n");
  EXPECT_EQ(grouped("type"), "type,count,sum(latency)\narm,2,110\nx86,3,490\n");
  EXPECT_EQ(grouped("outcome"),
            "outcome,count,sum(latency)\napp-error,1,100\nok,3,120\n"
            "system-error,1,380\n");
  EXPECT_EQ(grouped("kind"),
            "kind,count,sum(latency)\ncollocated,1,10\noneway,1,30\n"
            "sync,3,560\n");
}

TEST(Aggregate, WhereOnEveryField) {
  ScratchPath s("where.cwt");
  s.write_file({varied_logs()});
  const auto in = s.inputs();
  auto count = [&](const std::string& where) {
    return value(run_query(parse_query("count where " + where), in), 0, 0);
  };
  EXPECT_EQ(count("iface == Svc::Beta"), 2.0);
  EXPECT_EQ(count("func =~ ut"), 2.0);
  EXPECT_EQ(count("process != p1"), 3.0);
  EXPECT_EQ(count("node == n2"), 2.0);
  EXPECT_EQ(count("type == arm"), 2.0);
  EXPECT_EQ(count("object == 7"), 2.0);
  EXPECT_EQ(count("object > 7"), 3.0);
  EXPECT_EQ(count("chain == 00000000-0000-0002-0000-000000000003"), 1.0);
  EXPECT_EQ(count("chain != 00000000-0000-0002-0000-000000000003"), 4.0);
  EXPECT_EQ(count("latency >= 100"), 2.0);
  EXPECT_EQ(count("latency < 50"), 2.0);
  EXPECT_EQ(count("ts >= 3000"), 3.0);
  EXPECT_EQ(count("outcome == system-error"), 1.0);
  EXPECT_EQ(count("kind == oneway"), 1.0);
  EXPECT_EQ(count("kind != sync"), 2.0);
  // Calls 2 (2000..2110) and 3 (3000..3090) lie inside; call 4 closes
  // at 4390.
  EXPECT_EQ(value(run_query(parse_query("count since 2000 until 4100"), in),
                  0, 0),
            2.0);
}

TEST(Aggregate, TraceFormatsGiveIdenticalAnswers) {
  using monitor::CallKind;
  using monitor::EventKind;
  auto logs = varied_logs();
  // Plus a oneway stub with its spawned chain, so v3 carries one too.
  const Uuid a = uuid(0xc7, 1);
  const Uuid b = uuid(0xc7, 2);
  auto open = make_rec(a, 1, EventKind::kStubStart, CallKind::kOneway, "I",
                       "fire", "client", 100, 110);
  open.spawned_chain = b;
  logs.records.push_back(open);
  logs.records.push_back(make_rec(a, 2, EventKind::kStubEnd,
                                  CallKind::kOneway, "I", "fire", "client",
                                  130, 140));
  logs.records.push_back(make_rec(b, 1, EventKind::kSkelStart,
                                  CallKind::kOneway, "I", "fire", "server",
                                  200, 215));
  logs.records.push_back(make_rec(b, 2, EventKind::kSkelEnd,
                                  CallKind::kOneway, "I", "fire", "server",
                                  260, 270));
  ScratchPath v3("fmt3.cwt"), v4("fmt4.cwt"), v5("fmt5.cwt");
  v3.write_file({logs}, analysis::kTraceFormatV3);
  v4.write_file({logs}, analysis::kTraceFormatV4);
  v5.write_file({logs}, analysis::kTraceFormatV5);
  for (const char* text :
       {"count, sum(latency), p95(latency) group by iface",
        "count, avg(latency) group by kind", "count where latency > 20",
        "min(latency), max(latency) since 0 until 5000"}) {
    const Query q = parse_query(text);
    const QueryResult r3 = run_query(q, v3.inputs());
    const QueryResult r4 = run_query(q, v4.inputs());
    const QueryResult r5 = run_query(q, v5.inputs());
    for (const QueryResult* r : {&r4, &r5}) {
      EXPECT_EQ(render_text(*r), render_text(r3)) << text;
      EXPECT_EQ(render_csv(*r), render_csv(r3)) << text;
      EXPECT_EQ(r->stats.files_opened, r3.stats.files_opened);
      EXPECT_EQ(r->stats.segments_decoded, r3.stats.segments_decoded);
      EXPECT_EQ(r->stats.records_scanned, r3.stats.records_scanned);
      EXPECT_EQ(r->stats.spans_total, r3.stats.spans_total);
      EXPECT_EQ(r->stats.spans_matched, r3.stats.spans_matched);
    }
    EXPECT_EQ(r3.stats.records_scanned, 22u);
    EXPECT_EQ(r3.stats.spans_total, 7u);
  }
}

// ------------------------------------------------------------- store plans

struct ScratchStore {
  fs::path path;
  explicit ScratchStore(const std::string& name, std::uint32_t format) {
    path = fs::temp_directory_path() /
           ("causeway_qstore_" + name + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
    store::StoreOptions options;
    options.rotate_segments = 1;  // one sealed file per epoch
    options.trace_format = format;
    store::StoreWriter writer(path.string(), options);
    // Three sealed files with disjoint time ranges and distinct chains.
    for (std::uint64_t e = 1; e <= 3; ++e) {
      auto logs = base_logs(e);
      add_call(logs, uuid(0xaa, e), 0,
               static_cast<std::int64_t>(e) * 100'000, "Svc::Alpha", "get",
               monitor::CallOutcome::kOk);
      writer.append(logs);
    }
    writer.close();
  }
  ~ScratchStore() { fs::remove_all(path); }
  std::vector<std::string> inputs() const { return {path.string()}; }
};

TEST(Planner, TimeWindowPrunesWholeFiles) {
  ScratchStore s("window", analysis::kTraceFormatV4);
  const QueryResult r = run_query(
      parse_query("count since 200000 until 210000"), s.inputs());
  EXPECT_EQ(value(r, 0, 0), 1.0);  // the middle file's one call
  EXPECT_EQ(r.stats.files_total, 3u);
  EXPECT_EQ(r.stats.files_pruned, 2u);
  EXPECT_EQ(r.stats.files_opened, 1u);
  EXPECT_EQ(r.stats.segments_decoded, 1u);
  EXPECT_EQ(r.stats.records_scanned, 4u);
}

TEST(Planner, RequiredChainPrunesViaDigest) {
  ScratchStore s("chain", analysis::kTraceFormatV4);
  const QueryResult r = run_query(
      parse_query(
          "count where chain == 00000000-0000-00aa-0000-000000000002"),
      s.inputs());
  EXPECT_EQ(value(r, 0, 0), 1.0);
  EXPECT_EQ(r.stats.files_total, 3u);
  EXPECT_GE(r.stats.files_pruned, 2u);  // digest may-contain is exact here
  EXPECT_LE(r.stats.files_opened, 1u);
}

TEST(Planner, OredChainDoesNotPrune) {
  ScratchStore s("orchain", analysis::kTraceFormatV4);
  const QueryResult r = run_query(
      parse_query("count where chain == 00000000-0000-00aa-0000-000000000002 "
                  "or iface == Svc::Alpha"),
      s.inputs());
  EXPECT_EQ(value(r, 0, 0), 3.0);  // the or-arm matches every span
  EXPECT_EQ(r.stats.files_pruned, 0u);
  EXPECT_EQ(r.stats.files_opened, 3u);
}

TEST(Planner, CompressedAndUncompressedStoresAgreeByte) {
  ScratchStore v4("cmp4", analysis::kTraceFormatV4);
  ScratchStore v5("cmp5", analysis::kTraceFormatV5);
  const Query q = parse_query(
      "count, sum(latency), p95(latency) group by outcome");
  const QueryResult r4 = run_query(q, v4.inputs());
  const QueryResult r5 = run_query(q, v5.inputs());
  EXPECT_EQ(render_text(r5), render_text(r4));
  EXPECT_EQ(render_csv(r5), render_csv(r4));
}

TEST(Planner, StaleCatalogSurfacesCleanly) {
  ScratchStore s("stale", analysis::kTraceFormatV4);
  const auto victim = s.path / "store-000002.cwt";
  fs::resize_file(victim, fs::file_size(victim) - 1);
  try {
    run_query(parse_query("count"), s.inputs());
    FAIL() << "stale catalog must throw";
  } catch (const analysis::TraceIoError& e) {
    EXPECT_NE(std::string(e.what()).find("--reindex"), std::string::npos);
  }
}

}  // namespace
}  // namespace causeway::query
