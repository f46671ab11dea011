#include "analysis/pipeline.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "analysis/cpu.h"
#include "analysis/latency.h"
#include "common/strings.h"

namespace causeway::analysis {
namespace {

// ---- passes -----------------------------------------------------------

class DscgPass : public AnalysisPass {
 public:
  explicit DscgPass(Dscg& dscg) : dscg_(dscg) {}
  std::string_view name() const override { return "dscg"; }
  void update(const LogDatabase& db, const EpochInfo&) override {
    dscg_.update(db);
  }

 private:
  Dscg& dscg_;
};

// Latency / CPU annotation replay.  Re-annotates exactly the chains the
// scope's trees cover (reset-first, so replay is idempotent), then replays
// the spawned-CPU charging walk for the affected trees in ascending ordinal
// order -- the same order the offline annotate_cpu charges all roots, which
// the scope closure guarantees is equivalent on the touched subgraph.
class AnnotatePass : public AnalysisPass {
 public:
  AnnotatePass(Dscg& dscg, const std::vector<std::uint64_t>& chains)
      : dscg_(dscg), chains_(chains) {}
  std::string_view name() const override { return "annotate"; }
  void update(const LogDatabase&, const EpochInfo& info) override {
    if (info.mode_changed) {
      // Every stored annotation is in the wrong unit now; wipe before the
      // full re-annotation the pipeline scheduled.
      for (const auto& tree : dscg_.chains()) reset_annotations(*tree);
    }
    if (info.mode == monitor::ProbeMode::kLatency) {
      LatencyReport report;
      for (std::uint64_t ord : chains_) {
        annotate_chain_latency(*dscg_.chains()[ord], report);
      }
    } else if (info.mode == monitor::ProbeMode::kCpu) {
      CpuReport report;
      const CpuOptions options;
      for (std::uint64_t ord : chains_) {
        annotate_chain_cpu(*dscg_.chains()[ord], options, report);
      }
      if (options.charge_spawned_chains) {
        for (std::uint64_t root : info.scope.affected_roots) {
          charge_spawned_tree(*dscg_.chains()[root]);
        }
      }
    }
  }

 private:
  Dscg& dscg_;
  const std::vector<std::uint64_t>& chains_;  // pipeline's annotate list
};

class AnomalyPass : public AnalysisPass {
 public:
  AnomalyPass(Dscg& dscg, std::vector<AnomalySink*>& sinks)
      : dscg_(dscg), sinks_(sinks) {}
  std::string_view name() const override { return "anomaly"; }
  void update(const LogDatabase&, const EpochInfo& info) override {
    scratch_.clear();
    detector_.scan(dscg_, info.scope.rebuilt_chains, info.epoch, scratch_);
    detector_.drops(info.dropped_delta, info.publish_dropped_delta,
                    info.epoch, scratch_);
    emitted_ += scratch_.size();
    for (AnomalySink* sink : sinks_) {
      for (const auto& event : scratch_) sink->on_event(event);
    }
  }
  std::size_t emitted() const { return emitted_; }

 private:
  Dscg& dscg_;
  std::vector<AnomalySink*>& sinks_;
  AnomalyDetector detector_;
  std::vector<AnomalyEvent> scratch_;
  std::size_t emitted_{0};
};

class CcsgPass : public AnalysisPass {
 public:
  explicit CcsgPass(Dscg& dscg) : dscg_(dscg) {}
  std::string_view name() const override { return "ccsg"; }
  void update(const LogDatabase&, const EpochInfo& info) override {
    graph_.update(dscg_, info.scope);
  }
  Ccsg& graph() { return graph_; }

 private:
  Dscg& dscg_;
  Ccsg graph_;
};

class ReportPass : public AnalysisPass {
 public:
  explicit ReportPass(Dscg& dscg) : dscg_(dscg) {}
  std::string_view name() const override { return "report"; }
  void update(const LogDatabase& db, const EpochInfo& info) override {
    report_.update(dscg_, db, info.scope);
  }
  Report& report() { return report_; }

 private:
  Dscg& dscg_;
  Report report_;
};

class TimelinePass : public AnalysisPass {
 public:
  explicit TimelinePass(Dscg& dscg) : dscg_(dscg) {}
  std::string_view name() const override { return "timeline"; }
  void update(const LogDatabase&, const EpochInfo& info) override {
    auto subtract = [&](std::uint64_t ord) {
      auto it = imprints_.find(ord);
      if (it == imprints_.end()) return;
      for (const auto& e : it->second) entries_.erase(entries_.find(e));
      imprints_.erase(it);
      dirty_ = true;
    };
    for (std::uint64_t ord : info.scope.removed_roots) subtract(ord);
    for (std::uint64_t ord : info.scope.affected_roots) subtract(ord);
    for (std::uint64_t ord : info.scope.affected_roots) {
      std::vector<TimelineEntry> fold;
      gather_timeline(*dscg_.chains()[ord], fold);
      for (const auto& e : fold) entries_.insert(e);
      imprints_.emplace(ord, std::move(fold));
      dirty_ = true;
    }
  }
  const std::vector<TimelineEntry>& entries() {
    if (dirty_) {
      cache_.assign(entries_.begin(), entries_.end());
      dirty_ = false;
    }
    return cache_;
  }

 private:
  Dscg& dscg_;
  // TimelineOrder is total, so the multiset iterates exactly like the
  // offline sort of the same entries.
  std::multiset<TimelineEntry, TimelineOrder> entries_;
  std::unordered_map<std::uint64_t, std::vector<TimelineEntry>> imprints_;
  std::vector<TimelineEntry> cache_;
  bool dirty_{false};
};

bool same_options(const ExportOptions& a, const ExportOptions& b) {
  return a.show_latency == b.show_latency && a.show_cpu == b.show_cpu &&
         a.show_location == b.show_location && a.max_nodes == b.max_nodes;
}

// Generation-memoized render cache over the DSCG exporters: a render at an
// unchanged generation (the common case when tailing a quiet trace) is a
// string copy.
class ExportPass : public AnalysisPass {
 public:
  explicit ExportPass(Dscg& dscg) : dscg_(dscg) {}
  std::string_view name() const override { return "export"; }
  void update(const LogDatabase&, const EpochInfo& info) override {
    generation_ = info.generation;
  }

  enum Format { kText = 0, kDot, kJson, kHtml };
  using Renderer = std::string (*)(const Dscg&, const ExportOptions&);
  const std::string& render(Format format, Renderer fn,
                            const ExportOptions& options) {
    Slot& slot = slots_[format];
    if (slot.generation != generation_ || !same_options(slot.options, options)) {
      slot.text = fn(dscg_, options);
      slot.generation = generation_;
      slot.options = options;
    }
    return slot.text;
  }

 private:
  struct Slot {
    std::string text;
    std::uint64_t generation{~0ull};
    ExportOptions options;
  };
  Dscg& dscg_;
  std::uint64_t generation_{0};
  Slot slots_[4];
};

}  // namespace

// ---- pipeline ---------------------------------------------------------

struct AnalysisPipeline::Impl {
  Impl() = default;
  explicit Impl(std::size_t ingest_shards) : db(ingest_shards) {}

  LogDatabase db;
  Dscg dscg;
  std::vector<AnomalySink*> sinks;

  // Scratch shared with the passes; rebuilt per epoch, spans in EpochInfo
  // point into these until the next epoch.
  std::vector<std::uint64_t> affected;
  std::vector<std::uint64_t> removed;
  std::vector<std::uint64_t> annotate_chains;

  // Root-cover bookkeeping for the dirty closure: which chains each
  // top-level tree's fold crosses, and the reverse.
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> chains_of_root;
  std::unordered_map<std::uint64_t, std::unordered_set<std::uint64_t>>
      covered_by;
  std::unordered_set<std::uint64_t> folded;  // roots currently folded

  monitor::ProbeMode last_mode{monitor::ProbeMode::kCausalityOnly};
  std::uint64_t epochs{0};
  std::uint64_t last_dropped{0};
  std::uint64_t last_publish_dropped{0};
  std::uint64_t last_sampled_out{0};
  std::size_t last_size{0};
  EpochInfo last_info{};

  DscgPass dscg_pass{dscg};
  AnnotatePass annotate_pass{dscg, annotate_chains};
  AnomalyPass anomaly_pass{dscg, sinks};
  CcsgPass ccsg_pass{dscg};
  ReportPass report_pass{dscg};
  TimelinePass timeline_pass{dscg};
  ExportPass export_pass{dscg};
  std::vector<AnalysisPass*> passes{&dscg_pass,   &annotate_pass,
                                    &anomaly_pass, &ccsg_pass,
                                    &report_pass,  &timeline_pass,
                                    &export_pass};

  // The fold passes run on read: each epoch adds its scope to every fold's
  // pending set, and the first read of a fold's output after a change runs
  // that pass once over the merged scope.
  struct Pending {
    AnalysisPass* pass;
    std::set<std::uint64_t> roots;  // affected or removed since the last run
    std::set<Uuid> rebuilt;
  };
  Pending ccsg_fold{&ccsg_pass, {}, {}}, report_fold{&report_pass, {}, {}},
      timeline_fold{&timeline_pass, {}, {}};

  struct TextCache {
    std::string text;
    std::uint64_t generation{~0ull};
  };
  TextCache ccsg_xml_cache, timeline_text_cache, timeline_csv_cache;

  EpochInfo run_epoch();
  void run_pass(AnalysisPass& pass, const EpochInfo& info);
  void settle(Pending& fold);
  void compute_scope(EpochInfo& info);
  void collect_cover(const ChainTree& tree,
                     std::unordered_set<std::uint64_t>& seen);
  void collect_cover_node(const CallNode& node,
                          std::unordered_set<std::uint64_t>& seen);
};

void AnalysisPipeline::Impl::collect_cover_node(
    const CallNode& node, std::unordered_set<std::uint64_t>& seen) {
  for (const auto& child : node.children) collect_cover_node(*child, seen);
  for (const ChainTree* spawned : node.spawned) {
    collect_cover(*spawned, seen);
  }
}

void AnalysisPipeline::Impl::collect_cover(
    const ChainTree& tree, std::unordered_set<std::uint64_t>& seen) {
  if (!seen.insert(tree.ordinal).second) return;  // cycle/shared guard
  collect_cover_node(*tree.root, seen);
}

void AnalysisPipeline::Impl::compute_scope(EpochInfo& info) {
  affected.clear();
  removed.clear();
  annotate_chains.clear();
  const DscgDelta& delta = *info.delta;

  std::set<std::uint64_t> affected_set;
  std::vector<std::uint64_t> frontier;
  auto add_root = [&](std::uint64_t r) {
    if (!dscg.is_root(r)) return;
    if (affected_set.insert(r).second) frontier.push_back(r);
  };
  std::set<std::uint64_t> annotate_set;

  if (info.mode_changed) {
    // Every stored fold is in the wrong unit: full re-fold, from scratch
    // cover maps, all chains re-annotated.
    for (const ChainTree* tree : dscg.roots()) add_root(tree->ordinal);
    for (std::uint64_t r : folded) {
      if (!dscg.is_root(r)) removed.push_back(r);
    }
    for (std::uint64_t i = 0; i < dscg.chains().size(); ++i) {
      annotate_set.insert(i);
    }
    chains_of_root.clear();
    covered_by.clear();
    folded.clear();
    for (std::uint64_t r : affected_set) {
      std::unordered_set<std::uint64_t> seen;
      collect_cover(*dscg.chains()[r], seen);
      std::vector<std::uint64_t> cover(seen.begin(), seen.end());
      std::sort(cover.begin(), cover.end());
      for (std::uint64_t c : cover) covered_by[c].insert(r);
      chains_of_root[r] = std::move(cover);
      folded.insert(r);
    }
  } else {
    // Seeds: trees covering any rebuilt/touched chain, plus new roots, plus
    // everything a retired root used to cover.
    auto seed_chain = [&](const Uuid& id) {
      const ChainTree* tree = dscg.find_chain(id);
      if (!tree) return;
      add_root(tree->ordinal);
      auto it = covered_by.find(tree->ordinal);
      if (it == covered_by.end()) return;
      for (std::uint64_t r : it->second) add_root(r);
    };
    for (const Uuid& id : delta.rebuilt) seed_chain(id);
    for (const Uuid& id : delta.touched) seed_chain(id);
    for (const Uuid& id : delta.roots_added) {
      if (const ChainTree* tree = dscg.find_chain(id)) {
        add_root(tree->ordinal);
      }
    }
    for (const Uuid& id : delta.roots_removed) {
      const ChainTree* tree = dscg.find_chain(id);
      if (!tree) continue;
      const std::uint64_t ord = tree->ordinal;
      if (folded.count(ord)) removed.push_back(ord);
      auto it = chains_of_root.find(ord);
      if (it == chains_of_root.end()) continue;
      for (std::uint64_t c : it->second) {
        add_root(c);
        auto cb = covered_by.find(c);
        if (cb == covered_by.end()) continue;
        for (std::uint64_t r : cb->second) add_root(r);
      }
    }

    // Closure over shared chains: a re-annotated chain invalidates every
    // tree whose fold (old or new) crosses it, so keep expanding until the
    // affected set is closed.
    std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> new_cover;
    while (!frontier.empty()) {
      const std::uint64_t r = frontier.back();
      frontier.pop_back();
      std::unordered_set<std::uint64_t> seen;
      collect_cover(*dscg.chains()[r], seen);
      std::vector<std::uint64_t>& cover = new_cover[r];
      cover.assign(seen.begin(), seen.end());
      auto expand = [&](std::uint64_t c) {
        add_root(c);
        auto cb = covered_by.find(c);
        if (cb == covered_by.end()) return;
        for (std::uint64_t r2 : cb->second) add_root(r2);
      };
      for (std::uint64_t c : cover) expand(c);
      auto old = chains_of_root.find(r);
      if (old != chains_of_root.end()) {
        for (std::uint64_t c : old->second) expand(c);
      }
    }

    // Retire old covers, install the new ones, and collect the chains the
    // annotation pass must replay (covered by an affected tree, or newly
    // orphaned -- no covering tree left, so back to plain per-chain values).
    auto drop_cover = [&](std::uint64_t r) {
      auto it = chains_of_root.find(r);
      if (it == chains_of_root.end()) return;
      for (std::uint64_t c : it->second) {
        auto cb = covered_by.find(c);
        if (cb == covered_by.end()) continue;
        cb->second.erase(r);
        if (cb->second.empty()) {
          covered_by.erase(cb);
          if (!dscg.is_root(c)) annotate_set.insert(c);
        }
      }
      chains_of_root.erase(it);
    };
    for (std::uint64_t r : removed) {
      drop_cover(r);
      folded.erase(r);
    }
    for (std::uint64_t r : affected_set) drop_cover(r);
    for (std::uint64_t r : affected_set) {
      std::vector<std::uint64_t>& cover = new_cover[r];
      std::sort(cover.begin(), cover.end());
      for (std::uint64_t c : cover) {
        covered_by[c].insert(r);
        annotate_set.insert(c);
      }
      chains_of_root[r] = std::move(cover);
      folded.insert(r);
    }
  }

  affected.assign(affected_set.begin(), affected_set.end());
  std::sort(removed.begin(), removed.end());
  removed.erase(std::unique(removed.begin(), removed.end()), removed.end());
  annotate_chains.assign(annotate_set.begin(), annotate_set.end());

  info.scope.affected_roots = affected;
  info.scope.removed_roots = removed;
  info.scope.rebuilt_chains = delta.rebuilt;
}

EpochInfo AnalysisPipeline::Impl::run_epoch() {
  EpochInfo info;
  info.generation = db.generation();
  info.epoch = db.last_epoch();
  info.new_records = db.size() - last_size;
  last_size = db.size();
  info.dropped_delta = db.overflow_dropped() - last_dropped;
  last_dropped = db.overflow_dropped();
  info.publish_dropped_delta = db.publish_dropped() - last_publish_dropped;
  last_publish_dropped = db.publish_dropped();
  info.sampled_out_delta = db.sampled_out() - last_sampled_out;
  last_sampled_out = db.sampled_out();
  info.mode = db.primary_mode();
  info.mode_changed = (epochs > 0 && info.mode != last_mode);
  last_mode = info.mode;

  run_pass(dscg_pass, info);  // DSCG first: it produces the delta...
  info.delta = &dscg.last_delta();
  compute_scope(info);  // ...the pipeline closes into the scope...
  run_pass(annotate_pass, info);  // ...the eager passes consume...
  run_pass(anomaly_pass, info);
  const UpdateScope& scope = info.scope;
  for (Pending* fold : {&ccsg_fold, &report_fold, &timeline_fold}) {
    // ...and the folds queue it for their next read.
    auto& roots = fold->roots;
    roots.insert(scope.affected_roots.begin(), scope.affected_roots.end());
    roots.insert(scope.removed_roots.begin(), scope.removed_roots.end());
    fold->rebuilt.insert(scope.rebuilt_chains.begin(),
                         scope.rebuilt_chains.end());
  }
  run_pass(export_pass, info);

  ++epochs;
  last_info = info;
  return info;
}

void AnalysisPipeline::Impl::run_pass(AnalysisPass& pass,
                                      const EpochInfo& info) {
  // CAUSEWAY_PASS_TIMING=1 prints per-pass wall time to stderr -- the knob
  // for chasing a pass whose cost grows with the graph.
  static const bool timing = std::getenv("CAUSEWAY_PASS_TIMING") != nullptr;
  if (!timing) {
    pass.update(db, info);
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  pass.update(db, info);
  const auto t1 = std::chrono::steady_clock::now();
  std::fprintf(
      stderr, "  [pass] %-10s %8.3f ms\n", std::string(pass.name()).c_str(),
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()) /
          1e6);
}

// Runs a fold over everything queued since its last run.  A queued root
// that is no longer top-level is subtracted only, never folded.
void AnalysisPipeline::Impl::settle(Pending& fold) {
  if (fold.roots.empty() && fold.rebuilt.empty()) return;
  std::vector<std::uint64_t> affected_now, removed_now;
  for (std::uint64_t r : fold.roots) {
    (dscg.is_root(r) ? affected_now : removed_now).push_back(r);
  }
  const std::vector<Uuid> rebuilt(fold.rebuilt.begin(), fold.rebuilt.end());
  EpochInfo info = last_info;
  info.delta = nullptr;
  info.scope = UpdateScope{affected_now, removed_now, rebuilt};
  run_pass(*fold.pass, info);
  fold.roots.clear();
  fold.rebuilt.clear();
}

AnalysisPipeline::AnalysisPipeline() : impl_(std::make_unique<Impl>()) {}
AnalysisPipeline::AnalysisPipeline(std::size_t ingest_shards)
    : impl_(std::make_unique<Impl>(ingest_shards)) {}
AnalysisPipeline::~AnalysisPipeline() = default;

LogDatabase& AnalysisPipeline::database() { return impl_->db; }
const LogDatabase& AnalysisPipeline::database() const { return impl_->db; }

EpochInfo AnalysisPipeline::ingest(const monitor::CollectedLogs& logs) {
  impl_->db.ingest(logs);
  return impl_->run_epoch();
}

EpochInfo AnalysisPipeline::ingest(const ColumnBundle& cols) {
  impl_->db.ingest(cols);
  return impl_->run_epoch();
}

EpochInfo AnalysisPipeline::ingest_records(
    std::span<const monitor::TraceRecord> records) {
  impl_->db.ingest_records(records);
  return impl_->run_epoch();
}

EpochInfo AnalysisPipeline::refresh() { return impl_->run_epoch(); }

const Dscg& AnalysisPipeline::dscg() const { return impl_->dscg; }
const Ccsg& AnalysisPipeline::ccsg() {
  impl_->settle(impl_->ccsg_fold);
  return impl_->ccsg_pass.graph();
}

std::string AnalysisPipeline::report(const ReportOptions& options) {
  impl_->settle(impl_->report_fold);
  return impl_->report_pass.report().render(impl_->dscg, impl_->db, options);
}

std::string AnalysisPipeline::summary() {
  impl_->settle(impl_->report_fold);
  return impl_->report_pass.report().summary(impl_->dscg, impl_->db);
}

std::string AnalysisPipeline::ccsg_xml() {
  Impl& im = *impl_;
  im.settle(im.ccsg_fold);
  if (im.ccsg_xml_cache.generation != im.db.generation()) {
    im.ccsg_xml_cache.text = im.ccsg_pass.graph().to_xml();
    im.ccsg_xml_cache.generation = im.db.generation();
  }
  return im.ccsg_xml_cache.text;
}

const std::vector<TimelineEntry>& AnalysisPipeline::timeline() {
  impl_->settle(impl_->timeline_fold);
  return impl_->timeline_pass.entries();
}

std::string AnalysisPipeline::timeline_text() {
  Impl& im = *impl_;
  im.settle(im.timeline_fold);
  if (im.timeline_text_cache.generation != im.db.generation()) {
    im.timeline_text_cache.text = timeline_to_text(im.timeline_pass.entries());
    im.timeline_text_cache.generation = im.db.generation();
  }
  return im.timeline_text_cache.text;
}

std::string AnalysisPipeline::timeline_csv() {
  Impl& im = *impl_;
  im.settle(im.timeline_fold);
  if (im.timeline_csv_cache.generation != im.db.generation()) {
    im.timeline_csv_cache.text = timeline_to_csv(im.timeline_pass.entries());
    im.timeline_csv_cache.generation = im.db.generation();
  }
  return im.timeline_csv_cache.text;
}

std::string AnalysisPipeline::export_text(const ExportOptions& options) {
  return impl_->export_pass.render(ExportPass::kText, &to_text, options);
}
std::string AnalysisPipeline::export_dot(const ExportOptions& options) {
  return impl_->export_pass.render(ExportPass::kDot, &to_dot, options);
}
std::string AnalysisPipeline::export_json(const ExportOptions& options) {
  return impl_->export_pass.render(ExportPass::kJson, &to_json, options);
}
std::string AnalysisPipeline::export_html(const ExportOptions& options) {
  return impl_->export_pass.render(ExportPass::kHtml, &to_html, options);
}

void AnalysisPipeline::add_sink(AnomalySink* sink) {
  impl_->sinks.push_back(sink);
}

std::string AnalysisPipeline::live_summary() const {
  const Impl& im = *impl_;
  const EpochInfo& e = im.last_info;
  return strf(
      "epoch %llu gen %llu: +%zu records (%zu total), %zu chains, %zu calls, "
      "%zu anomalies, +%llu dropped, +%llu pub-dropped",
      static_cast<unsigned long long>(e.epoch),
      static_cast<unsigned long long>(e.generation), e.new_records,
      im.db.size(), im.dscg.chains().size(), im.dscg.call_count(),
      im.dscg.anomaly_count(),
      static_cast<unsigned long long>(e.dropped_delta),
      static_cast<unsigned long long>(e.publish_dropped_delta));
}

std::uint64_t AnalysisPipeline::epochs_ingested() const {
  return impl_->epochs;
}

std::size_t AnalysisPipeline::anomaly_events() const {
  return impl_->anomaly_pass.emitted();
}

std::vector<std::string_view> AnalysisPipeline::pass_names() const {
  std::vector<std::string_view> names;
  names.reserve(impl_->passes.size());
  for (const AnalysisPass* pass : impl_->passes) names.push_back(pass->name());
  return names;
}

}  // namespace causeway::analysis
