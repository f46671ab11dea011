#include "analysis/cpu.h"

#include <unordered_set>

namespace causeway::analysis {

using monitor::CallKind;
using monitor::EventKind;
using monitor::ProbeMode;
using monitor::TraceRecord;

namespace {

bool cpu_record(const std::optional<TraceRecord>& r) {
  return r && r->mode == ProbeMode::kCpu;
}

void annotate_node(CallNode& node, const CpuOptions& options,
                   CpuReport& report) {
  for (auto& child : node.children) annotate_node(*child, options, report);

  if (node.is_virtual_root()) return;

  // Reset before computing so re-annotation (incremental refolds, probe-mode
  // flips) is idempotent.
  node.self_cpu = CpuVector{};
  node.descendant_cpu = CpuVector{};

  // --- phase 1: self CPU ---
  const auto skel_start = node.record(EventKind::kSkelStart);
  const auto skel_end = node.record(EventKind::kSkelEnd);
  if (cpu_record(skel_start) && cpu_record(skel_end)) {
    Nanos self = skel_end->value_start - skel_start->value_end;
    for (const auto& child : node.children) {
      const auto c_start = child->record(EventKind::kStubStart);
      const auto c_end = child->record(EventKind::kStubEnd);
      if (cpu_record(c_start) && cpu_record(c_end)) {
        self -= c_end->value_end - c_start->value_start;
      }
    }
    if (options.clamp_negative_self && self < 0) self = 0;
    node.self_cpu.add(skel_start->processor_type, self);
    ++report.annotated;
  } else {
    // Oneway stub-side nodes have no skeleton records: the body executed in
    // the spawned chain, so self CPU is legitimately zero, not "skipped".
    if (!(node.kind == CallKind::kOneway &&
          node.record(EventKind::kStubStart))) {
      ++report.skipped;
    }
  }

  // --- phase 2: descendant CPU ---
  for (const auto& child : node.children) {
    node.descendant_cpu.add(child->self_cpu);
    node.descendant_cpu.add(child->descendant_cpu);
  }
}

// Spawned chains are annotated as part of their own tree; here we only fold
// their totals into the spawner's descendant vector.  Deterministic
// pre-conditions: each reachable chain is charged at most once per walk
// (`charged`), and a chain's own nested spawns are folded before its totals
// are read.
void charge_spawned_into(CallNode& node,
                         std::unordered_set<const ChainTree*>& charged) {
  for (auto& child : node.children) charge_spawned_into(*child, charged);
  if (node.spawned.empty()) return;

  CpuVector spawned_total;
  for (ChainTree* spawned : node.spawned) {
    if (charged.insert(spawned).second) {
      charge_spawned_into(*spawned->root, charged);
    }
    for (const auto& top : spawned->root->children) {
      node.descendant_cpu.add(top->self_cpu);
      node.descendant_cpu.add(top->descendant_cpu);
      spawned_total.add(top->self_cpu);
      spawned_total.add(top->descendant_cpu);
    }
  }
  if (!node.is_virtual_root() && node.parent) {
    // The folded amounts must also surface in every ancestor's DC: parents
    // were annotated before spawn charging, so walk up adding the totals.
    for (CallNode* up = node.parent; up; up = up->parent) {
      if (!up->is_virtual_root()) up->descendant_cpu.add(spawned_total);
    }
  }
}

}  // namespace

void annotate_chain_cpu(ChainTree& tree, const CpuOptions& options,
                        CpuReport& report) {
  if (tree.root) annotate_node(*tree.root, options, report);
}

void charge_spawned_tree(ChainTree& root_tree) {
  std::unordered_set<const ChainTree*> charged;
  charged.insert(&root_tree);  // guards against cycles back to the root
  charge_spawned_into(*root_tree.root, charged);
}

CpuReport annotate_cpu(Dscg& dscg, const CpuOptions& options) {
  CpuReport report;
  for (const auto& tree : dscg.chains()) {
    annotate_chain_cpu(*tree, options, report);
  }
  if (options.charge_spawned_chains) {
    for (ChainTree* tree : dscg.roots()) {
      charge_spawned_tree(*tree);
    }
  }
  return report;
}

}  // namespace causeway::analysis
