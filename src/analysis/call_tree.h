// Causal-chain reconstruction: from sorted event streams to call trees.
//
// Following paper Sec. 3.1, each unique Function UUID's events -- sorted by
// ascending event number -- are replayed through a state machine (paper
// Fig. 4) "similar to the compiler parsing that creates an abstract syntax
// tree".  The event repeating patterns (paper Table 1) uniquely determine
// sibling vs parent/child structure:
//
//   sibling:       F.ss F.ks F.ke F.se  G.ss G.ks G.ke G.se
//   parent/child:  F.ss F.ks  G.ss G.ks ... G.ke G.se  F.ke F.se
//   oneway (stub side, parent chain):   F.ss F.se
//   oneway (skeleton side, child chain): F.ks ... F.ke
//
// Records that fit no legal transition take the paper's "abnormal" path: the
// anomaly is recorded and parsing restarts from the next record.
//
// A node holds its probe records as row indexes into the LogDatabase, so a
// tree reads them through the database it was built from: that database
// must outlive the tree and must not be moved while the tree exists.
// Further ingest is safe; rows never move.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/database.h"
#include "common/clock.h"
#include "common/ids.h"
#include "monitor/record.h"

namespace causeway::analysis {

struct CpuVector {
  // CPU nanoseconds per processor type -- the paper's <C1, C2, ... CM>.
  std::vector<std::pair<std::string_view, Nanos>> by_type;

  Nanos total() const {
    Nanos sum = 0;
    for (const auto& [type, ns] : by_type) sum += ns;
    return sum;
  }
  void add(std::string_view type, Nanos ns);
  void add(const CpuVector& other);
  Nanos of(std::string_view type) const;
};

struct ChainTree;  // forward

struct CallNode {
  std::string_view interface_name;
  std::string_view function_name;
  std::uint64_t object_key{0};
  monitor::CallKind kind{monitor::CallKind::kSync};

  // The four probe records, indexed by EventKind - 1, as row indexes into
  // `db` (kNoRecord when absent).  A sync call has all four; a oneway
  // stub-side node has 0/3; a oneway skeleton-side node has 1/2; a node
  // facing an uninstrumented peer is partial.
  static constexpr std::uint32_t kNoRecord = UINT32_MAX;
  std::uint32_t rec[4] = {kNoRecord, kNoRecord, kNoRecord, kNoRecord};
  const LogDatabase* db{nullptr};

  CallNode* parent{nullptr};
  std::vector<std::unique_ptr<CallNode>> children;

  // Oneway stub-side: the UUID of the chain spawned at the callee, and --
  // once the DSCG groups the forest -- the reconstructed child trees.
  Uuid spawned_chain;
  std::vector<ChainTree*> spawned;

  // --- analysis annotations (filled by latency.h / cpu.h) ---
  std::optional<Nanos> latency;        // L(F), overhead-corrected
  Nanos latency_overhead{0};           // O_F
  std::optional<Nanos> raw_latency;    // L(F) + O_F, what a naive tool reports
  CpuVector self_cpu;                  // SC_F
  CpuVector descendant_cpu;            // DC_F

  // The probe record for event `e`, assembled from its row, or nullopt
  // when it was not captured.
  std::optional<monitor::TraceRecord> record(monitor::EventKind e) const {
    const std::uint32_t i = rec[static_cast<std::size_t>(e) - 1];
    if (i == kNoRecord) return std::nullopt;
    return db->record(i);
  }
  bool is_virtual_root() const { return interface_name.empty(); }

  // Semantics capture: how this invocation concluded (worst outcome seen on
  // probes 3/4; kOk when neither observed a failure).
  monitor::CallOutcome outcome() const {
    auto worst = monitor::CallOutcome::kOk;
    for (auto e : {monitor::EventKind::kSkelEnd, monitor::EventKind::kStubEnd}) {
      const auto& r = record(e);
      if (r && static_cast<int>(r->outcome) > static_cast<int>(worst)) {
        worst = r->outcome;
      }
    }
    return worst;
  }
  bool failed() const { return outcome() != monitor::CallOutcome::kOk; }

  // Server-side locality (where the body ran); falls back to client side
  // for partial nodes.  server_start is that rule over the two start
  // records, for a caller that has already read them.
  std::string_view server_process() const;
  std::string_view server_processor_type() const;
  static const monitor::TraceRecord* server_start(
      const std::optional<monitor::TraceRecord>& stub_start,
      const std::optional<monitor::TraceRecord>& skel_start) {
    if (skel_start) return &*skel_start;
    return stub_start ? &*stub_start : nullptr;
  }

  std::size_t subtree_size() const;  // nodes, excluding the virtual root
};

// Records live in the database; a field that brought copies back fails here.
static_assert(sizeof(CallNode) <= 256, "CallNode must not hold record copies");

struct Anomaly {
  std::uint64_t seq{0};
  std::string reason;
};

struct ChainTree {
  Uuid chain;
  std::unique_ptr<CallNode> root;  // virtual root holding top-level siblings
  std::vector<Anomaly> anomalies;
  bool oneway_child{false};     // spawned by a oneway call
  bool skeleton_rooted{false};  // begins at a skeleton (oneway child, or the
                                // caller was not instrumented)

  // Slot in Dscg::chains() -- the chain's first-seen index in the database.
  // Stable across rebuilds, so incremental passes key their per-root
  // contributions (imprints) on it.
  std::uint64_t ordinal{0};

  std::size_t call_count() const { return root ? root->subtree_size() : 0; }
};

// Clears every analysis annotation (latency and CPU) on the chain's nodes.
// Incremental passes call this before re-annotating trees that were not
// rebuilt, and the pipeline calls it on every chain when the probe mode
// flips mid-stream.
void reset_annotations(ChainTree& tree);

// Replays one chain's rows, in the ascending seq order chain_events gives,
// through the reconstruction state machine, reading each through
// db.record().  The nodes refer to `db`'s rows by index, so `db` must
// outlive the tree and must not be moved while it exists; ingesting more
// into `db` is safe.
ChainTree build_chain_tree(const Uuid& chain, const LogDatabase& db);

}  // namespace causeway::analysis
