// The CPU Consumption Summarization Graph (paper Sec. 3.2 phase 3, Fig. 6).
//
// The CCSG synthesizes the per-invocation CPU results with the DSCG: nodes
// with the same identity (interface, function, object) under the same
// aggregated parent merge, accumulating invocation counts and self /
// descendant CPU vectors.  The paper renders it as XML viewed in a browser;
// to_xml() emits the same fields -- ObjectID, InvocationTimes,
// IncludedFunctionInstances, SelfCPUConsumption and
// DescendentCPUConsumption in [second, microsecond] format, structured
// following the call hierarchy.
//
// The graph is an *online accumulator*: update() folds a scope -- the
// per-root imprints of the top-level trees the DSCG re-grouped -- into the
// merged nodes (subtract the tree's previous contribution, fold the new
// one), so its cost scales with the affected trees, not the whole graph.
// The pipeline runs it on read, with one scope merged from every epoch
// since the last read.  build() is the one-epoch degenerate case (every
// root affected), which is what keeps offline and incremental output
// byte-identical.
//
// (The detailed construction lived in HP Labs TR HPL-2002-50, which is not
// public; the parent-scoped identity merge here is the natural reading and
// is documented as a substitution in DESIGN.md.)
#pragma once

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "analysis/dscg.h"
#include "analysis/incremental.h"

namespace causeway::analysis {

// Identity under which sibling invocations merge.
using CcsgKey = std::tuple<std::string_view, std::string_view, std::uint64_t>;

// CPU accumulator keyed by processor type.  Each cell tracks the
// nanosecond sum *and* a contribution count, so incremental subtraction can
// tell a type whose entries all left (cell disappears) from one that
// legitimately sums to zero (cell stays, prints 0) -- the distinction the
// XML rendering makes visible.
struct CpuCells {
  struct Cell {
    Nanos ns{0};
    std::size_t n{0};
  };
  std::map<std::string_view, Cell> cells;

  void add(const CpuVector& v) {
    for (const auto& [type, ns] : v.by_type) {
      Cell& c = cells[type];
      c.ns += ns;
      ++c.n;
    }
  }
  void add(const CpuCells& o) {
    for (const auto& [type, cell] : o.cells) {
      Cell& c = cells[type];
      c.ns += cell.ns;
      c.n += cell.n;
    }
  }
  void sub(const CpuCells& o) {
    for (const auto& [type, cell] : o.cells) {
      auto it = cells.find(type);
      it->second.ns -= cell.ns;
      it->second.n -= cell.n;
      if (it->second.n == 0) cells.erase(it);
    }
  }
  Nanos total() const {
    Nanos sum = 0;
    for (const auto& [type, cell] : cells) sum += cell.ns;
    return sum;
  }
  bool empty() const { return cells.empty(); }
};

struct CcsgNode {
  std::string_view interface_name;
  std::string_view function_name;
  std::uint64_t object_key{0};

  std::uint64_t invocation_times{0};

  // Merged DSCG instances, grouped by the ordinal of the top-level tree
  // that folded them (so one tree's contribution can be subtracted when it
  // is re-folded).  An instance id encodes (chain ordinal << 32) | pre-order
  // index within the chain -- stable across epochs.
  std::map<std::uint64_t, std::vector<std::uint64_t>> instances;

  CpuCells self_cpu;
  CpuCells descendant_cpu;

  // Children keyed (and rendered) by merge identity.
  std::map<CcsgKey, std::unique_ptr<CcsgNode>> children;

  // All merged instance ids, ascending.
  std::vector<std::uint64_t> instance_ids() const;

  std::size_t subtree_size() const {
    std::size_t n = 1;
    for (const auto& [key, c] : children) n += c->subtree_size();
    return n;
  }
};

class Ccsg {
 public:
  Ccsg();
  ~Ccsg();
  Ccsg(const Ccsg&) = delete;
  Ccsg& operator=(const Ccsg&) = delete;
  Ccsg(Ccsg&&) noexcept;
  Ccsg& operator=(Ccsg&&) noexcept;

  // Offline form: fold every top-level tree of the DSCG at once.
  // Requires annotate_cpu() to have run on the DSCG.
  static Ccsg build(const Dscg& dscg);

  // Incremental form: subtract the previous contribution of every tree in
  // the scope, then re-fold the trees that are still top-level.
  void update(const Dscg& dscg, const UpdateScope& scope);

  // Top-level merged nodes in identity (render) order.
  std::vector<const CcsgNode*> roots() const;

  std::size_t node_count() const;

  // Paper Fig. 6 rendering.
  std::string to_xml() const;

 private:
  struct Imprint;  // one tree's folded contribution (ccsg.cpp)

  std::map<CcsgKey, std::unique_ptr<CcsgNode>> top_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Imprint>> imprints_;
};

}  // namespace causeway::analysis
