#include "analysis/anomaly.h"

#include "common/strings.h"

namespace causeway::analysis {

std::string_view to_string(AnomalyKind kind) {
  switch (kind) {
    case AnomalyKind::kAbnormalTransition: return "abnormal-transition";
    case AnomalyKind::kCallFailure: return "call-failure";
    case AnomalyKind::kDropSpike: return "drop-spike";
    case AnomalyKind::kPublishDrop: return "publish-drop";
  }
  return "?";
}

std::string to_json(const AnomalyEvent& event) {
  return strf(
      "{\"kind\":\"%s\",\"epoch\":%llu,\"chain\":\"%s\",\"seq\":%llu,"
      "\"detail\":\"%s\"}",
      std::string(to_string(event.kind)).c_str(),
      static_cast<unsigned long long>(event.epoch),
      event.chain.to_string().c_str(),
      static_cast<unsigned long long>(event.seq),
      json_escape(event.detail).c_str());
}

void StderrAnomalySink::on_event(const AnomalyEvent& event) {
  std::fprintf(out_, "[anomaly] epoch %llu %s chain %s seq %llu: %s\n",
               static_cast<unsigned long long>(event.epoch),
               std::string(to_string(event.kind)).c_str(),
               event.chain.to_string().substr(0, 8).c_str(),
               static_cast<unsigned long long>(event.seq),
               event.detail.c_str());
  std::fflush(out_);
}

JsonlAnomalySink::JsonlAnomalySink(const std::string& path) {
  out_ = std::fopen(path.c_str(), "ab");
}

JsonlAnomalySink::~JsonlAnomalySink() {
  if (out_) std::fclose(out_);
}

void JsonlAnomalySink::on_event(const AnomalyEvent& event) {
  if (!out_) return;
  const std::string line = to_json(event) + "\n";
  std::fwrite(line.data(), 1, line.size(), out_);
  std::fflush(out_);
}

namespace {

// A node's identifying seq: the smallest seq among its captured probes.
std::uint64_t node_seq(const CallNode& node) {
  std::uint64_t seq = 0;
  bool have = false;
  for (int i = 1; i <= 4; ++i) {
    const auto r = node.record(static_cast<monitor::EventKind>(i));
    if (r && (!have || r->seq < seq)) {
      seq = r->seq;
      have = true;
    }
  }
  return seq;
}

}  // namespace

void AnomalyDetector::scan(const Dscg& dscg, std::span<const Uuid> rebuilt,
                           std::uint64_t epoch,
                           std::vector<AnomalyEvent>& out) {
  for (const Uuid& id : rebuilt) {
    const ChainTree* tree = dscg.find_chain(id);
    if (!tree) continue;
    ChainState& state = chains_[id];

    // Reconstruction appends events in seq order, so previously-reported
    // anomalies stay a prefix of the rebuilt chain's anomaly list; report
    // only the tail.  (A pathological seq reordering that *shrinks* the
    // list resets the watermark rather than crash.)
    if (state.transitions_reported > tree->anomalies.size()) {
      state.transitions_reported = tree->anomalies.size();
    }
    for (std::size_t i = state.transitions_reported;
         i < tree->anomalies.size(); ++i) {
      const Anomaly& a = tree->anomalies[i];
      out.push_back({AnomalyKind::kAbnormalTransition, epoch, id, a.seq,
                     a.reason});
    }
    state.transitions_reported = tree->anomalies.size();

    Dscg::visit_tree(*tree, [&](const CallNode& node, int) {
      // Only this chain's own nodes -- spawned chains get their own scan
      // when they are rebuilt.
      auto owner = node.record(monitor::EventKind::kSkelEnd);
      if (!owner) owner = node.record(monitor::EventKind::kStubEnd);
      if (!owner || !(owner->chain == id)) return;
      if (!node.failed()) return;
      const std::uint64_t seq = node_seq(node);
      if (!state.failure_seqs.insert(seq).second) return;
      out.push_back(
          {AnomalyKind::kCallFailure, epoch, id, seq,
           strf("%s::%s -> %s",
                std::string(node.interface_name).c_str(),
                std::string(node.function_name).c_str(),
                std::string(to_string(node.outcome())).c_str())});
    });
  }
}

void AnomalyDetector::drops(std::uint64_t dropped_delta,
                            std::uint64_t publish_dropped_delta,
                            std::uint64_t epoch,
                            std::vector<AnomalyEvent>& out) {
  if (dropped_delta != 0) {
    out.push_back({AnomalyKind::kDropSpike, epoch, Uuid{}, 0,
                   strf("%llu records dropped by the collection tier",
                        static_cast<unsigned long long>(dropped_delta))});
  }
  if (publish_dropped_delta != 0) {
    out.push_back(
        {AnomalyKind::kPublishDrop, epoch, Uuid{}, 0,
         strf("%llu records dropped by the transport tier (publish "
              "back-pressure)",
              static_cast<unsigned long long>(publish_dropped_delta))});
  }
}

}  // namespace causeway::analysis
