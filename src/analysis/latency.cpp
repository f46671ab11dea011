#include "analysis/latency.h"

namespace causeway::analysis {

using monitor::CallKind;
using monitor::EventKind;
using monitor::ProbeMode;
using monitor::TraceRecord;

namespace {

bool latency_record(const std::optional<TraceRecord>& r) {
  return r && r->mode == ProbeMode::kLatency;
}

// Sum of this node's probe self-durations over the probe set R(F):
// {1,2,3,4} for sync/collocated, {1,4} for oneway (paper Sec. 3.2).
Nanos own_probe_cost(const CallNode& node) {
  Nanos sum = 0;
  for (int i = 0; i < 4; ++i) {
    const bool stub_side = (i == 0 || i == 3);
    if (node.kind == CallKind::kOneway && !stub_side) continue;
    const auto r = node.record(static_cast<EventKind>(i + 1));
    if (latency_record(r)) sum += r->probe_self_cost();
  }
  return sum;
}

// Annotates `node`'s subtree and returns the probe cost of every invocation
// in it, `node`'s own included: the parent's O_F is the sum of these over
// its children.  Spawned chains run in other threads, outside the window --
// excluded.
Nanos annotate_node(CallNode& node, LatencyReport& report) {
  Nanos overhead = 0;  // O_F: probe costs of every descendant invocation
  for (auto& child : node.children) overhead += annotate_node(*child, report);

  if (node.is_virtual_root()) return overhead;

  // Reset before computing so re-annotation (incremental refolds, probe-mode
  // flips) is idempotent.
  node.latency.reset();
  node.latency_overhead = 0;
  node.raw_latency.reset();

  std::optional<TraceRecord> first, last;
  switch (node.kind) {
    case CallKind::kSync:
      first = node.record(EventKind::kStubStart);
      last = node.record(EventKind::kStubEnd);
      break;
    case CallKind::kCollocated:
      first = node.record(EventKind::kSkelStart);
      last = node.record(EventKind::kSkelEnd);
      break;
    case CallKind::kOneway:
      first = node.record(EventKind::kStubStart);
      if (first) {
        last = node.record(EventKind::kStubEnd);
      } else {  // skeleton side of the spawned chain
        first = node.record(EventKind::kSkelStart);
        last = node.record(EventKind::kSkelEnd);
      }
      break;
  }

  if (!latency_record(first) || !latency_record(last)) {
    ++report.skipped;
  } else {
    const Nanos raw = last->value_start - first->value_end;
    node.raw_latency = raw;
    node.latency_overhead = overhead;
    node.latency = raw - overhead;
    ++report.annotated;
  }
  return own_probe_cost(node) + overhead;
}

}  // namespace

void annotate_chain_latency(ChainTree& tree, LatencyReport& report) {
  if (tree.root) annotate_node(*tree.root, report);
}

LatencyReport annotate_latency(Dscg& dscg) {
  LatencyReport report;
  for (const auto& tree : dscg.chains()) {
    annotate_chain_latency(*tree, report);
  }
  return report;
}

}  // namespace causeway::analysis
