// Query planner + executor.
//
// Inputs are store directories (store/store.h) and/or plain trace files.
// For a store, the planner consults the catalog before opening anything:
// a file whose timestamp range misses the query's since/until window, or
// whose chain digest rules out a *required* `chain ==` predicate (one not
// weakened by `or`/`not`), is pruned -- never read, never decoded.  The
// QueryStats counters expose exactly that, so tests can assert pruning
// happened rather than trust that it did.
//
// Execution decodes each opened file segment by segment into column
// bundles (v2/v3 segments convert through analysis::columns_from_logs) and
// keeps every bundle alive for the whole query.  Each bundle's string table
// is interned once into query-wide dense ids.  Each chain's rows are
// gathered *across* files -- rotation can split a chain mid-call, and
// catalog order keeps sealed files in write order -- as row references
// {seq, bundle, row}, sorted by event number only when they arrived out of
// order, and stack-paired into spans (the call_tree.cpp pairing, minus the
// tree) with name matching as an id compare.  Spans that pass the window
// and `where` filters aggregate into cells indexed by their group's id.
// Results are deterministic: group rows are emitted in name order, and
// percentiles are nearest-rank over the fully sorted latency vector, so
// shard count, compression, format version and varint kernel never change
// a byte of output.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "query/ast.h"

namespace causeway::query {

struct QueryStats {
  std::size_t files_total{0};      // candidate files across all inputs
  std::size_t files_pruned{0};     // skipped via the catalog
  std::size_t files_opened{0};     // read and decoded
  std::size_t segments_decoded{0};
  std::uint64_t records_scanned{0};
  std::uint64_t spans_total{0};    // completed spans reconstructed
  std::uint64_t spans_matched{0};  // passed window + where
};

struct QueryResult {
  // One column per aggregation, preceded by the group field when grouping.
  std::vector<std::string> columns;
  struct Row {
    std::string group;  // empty when the query has no group by
    // One value per aggregation; nullopt when undefined (latency stats
    // over zero latency-mode spans).
    std::vector<std::optional<double>> values;
  };
  std::vector<Row> rows;  // sorted by group key
  QueryStats stats;
};

// Runs `q` over the inputs.  Throws analysis::TraceIoError on missing or
// corrupt inputs (including a stale store catalog) and QueryError never --
// parsing already happened.
QueryResult run_query(const Query& q,
                      const std::vector<std::string>& inputs);

// Deterministic renderings shared by causeway-query and the tests.
std::string render_text(const QueryResult& r);
std::string render_csv(const QueryResult& r);

}  // namespace causeway::query
