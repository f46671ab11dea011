#include "analysis/dscg.h"

#include <algorithm>
#include <unordered_set>

#include "common/worker_pool.h"

namespace causeway::analysis {
namespace {

void collect_spawn_sites(CallNode* node,
                         std::vector<std::pair<CallNode*, Uuid>>& sites) {
  if (!node->spawned_chain.is_nil()) {
    sites.emplace_back(node, node->spawned_chain);
  }
  for (auto& c : node->children) collect_spawn_sites(c.get(), sites);
}

// Chains with no dependency between their reconstructions: each tree is
// built purely from its own (already interned, immutable) event list, so a
// batch of dirty chains fans out on the shared persistent WorkerPool (the
// same pool the sharded LogDatabase ingest uses) instead of spawning fresh
// threads per update.
constexpr std::size_t kParallelThreshold = 8;

void build_trees(const LogDatabase& db, const std::vector<Uuid>& dirty,
                 std::vector<std::unique_ptr<ChainTree>>& out) {
  out.resize(dirty.size());
  auto build_one = [&](std::size_t i) {
    out[i] = std::make_unique<ChainTree>(build_chain_tree(dirty[i], db));
  };

  if (dirty.size() < kParallelThreshold ||
      WorkerPool::shared().concurrency() < 2) {
    for (std::size_t i = 0; i < dirty.size(); ++i) build_one(i);
    return;
  }
  WorkerPool::shared().parallel_for(dirty.size(), build_one);
}

}  // namespace

Dscg Dscg::build(const LogDatabase& db) {
  Dscg dscg;
  dscg.update(db);
  return dscg;
}

std::size_t Dscg::update(const LogDatabase& db) {
  delta_.clear();
  const std::vector<Uuid> dirty = db.chains_since(built_generation_);
  built_generation_ = db.generation();
  if (dirty.empty()) return 0;
  delta_.rebuilt = dirty;

  std::vector<std::unique_ptr<ChainTree>> rebuilt;
  build_trees(db, dirty, rebuilt);

  const std::unordered_set<Uuid> dirty_set(dirty.begin(), dirty.end());
  // Chains whose root status (no resolved inbound spawn site) may flip.
  std::unordered_set<Uuid> root_check;

  // Phase A: detach the outbound spawn sites of every dirty chain that
  // already has a tree.  Its nodes (including the site nodes referenced by
  // inbound_) are destroyed in phase B, so the reverse index must drop them
  // first.
  for (const Uuid& d : dirty) {
    auto sit = sites_.find(d);
    if (sit == sites_.end()) continue;
    for (auto& [node, target] : sit->second) {
      auto iit = inbound_.find(target);
      if (iit == inbound_.end()) continue;
      auto& vec = iit->second;
      vec.erase(std::remove_if(vec.begin(), vec.end(),
                               [&](const InboundSite& s) {
                                 return s.owner == d;
                               }),
                vec.end());
      if (vec.empty()) inbound_.erase(iit);
      root_check.insert(target);
    }
  }

  // Phase B: install the rebuilt trees, keeping chains_ aligned with
  // db.chains() (new chains arrive in first-seen order) and maintaining the
  // running call/anomaly totals.
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    auto [it, inserted] = by_id_.try_emplace(dirty[i], chains_.size());
    const std::size_t slot = it->second;
    rebuilt[i]->ordinal = slot;
    if (inserted) {
      chains_.push_back(std::move(rebuilt[i]));
      is_root_.push_back(false);  // status decided below
    } else {
      call_count_ -= chains_[slot]->call_count();
      anomaly_count_ -= chains_[slot]->anomalies.size();
      // A rebuilt chain keeps its slot but gets a new tree object; if it is
      // currently a root, roots_ must be re-pointed before the old tree dies.
      if (is_root_[slot]) {
        auto pos = std::lower_bound(
            roots_.begin(), roots_.end(), slot,
            [](const ChainTree* a, std::size_t s) { return a->ordinal < s; });
        if (pos != roots_.end() && (*pos)->ordinal == slot) {
          *pos = rebuilt[i].get();
        }
      }
      chains_[slot] = std::move(rebuilt[i]);
    }
    call_count_ += chains_[slot]->call_count();
    anomaly_count_ += chains_[slot]->anomalies.size();
  }

  // Phase C: recollect the rebuilt chains' outbound sites, register them in
  // the reverse index, and resolve the ones whose target already exists.
  for (const Uuid& d : dirty) {
    auto& sites = sites_[d];
    sites.clear();
    collect_spawn_sites(chains_[by_id_.at(d)]->root.get(), sites);
    if (sites.empty()) {
      sites_.erase(d);
      continue;
    }
    for (auto& [node, target] : sites) {
      inbound_[target].push_back({d, node});
      root_check.insert(target);
      auto tit = by_id_.find(target);
      if (tit != by_id_.end()) {
        node->spawned.push_back(chains_[tit->second].get());
      }
    }
  }

  // Phase D: re-point the inbound sites of every dirty chain at its new
  // tree.  Sites owned by dirty chains were freshly linked in phase C; the
  // rest live in unchanged trees and only their target pointer moves.  A
  // site that resolves for the first time changes its owner's subtree
  // content without a rebuild -- that is the delta's `touched` set.
  for (const Uuid& d : dirty) {
    root_check.insert(d);
    auto iit = inbound_.find(d);
    if (iit == inbound_.end()) continue;
    ChainTree* tree = chains_[by_id_.at(d)].get();
    for (auto& site : iit->second) {
      if (dirty_set.contains(site.owner)) continue;
      const bool newly_resolved = site.node->spawned.empty();
      site.node->spawned.clear();
      site.node->spawned.push_back(tree);
      if (newly_resolved) delta_.touched.push_back(site.owner);
    }
  }

  // Root-status maintenance: a chain is top-level exactly when no recorded
  // spawn site points at it.
  for (const Uuid& id : root_check) {
    auto it = by_id_.find(id);
    if (it == by_id_.end()) continue;  // target not recorded (yet)
    const auto iit = inbound_.find(id);
    set_root(it->second, iit == inbound_.end() || iit->second.empty());
  }

  return dirty.size();
}

void Dscg::set_root(std::size_t slot, bool is_root) {
  if (is_root_[slot] == is_root) return;
  is_root_[slot] = is_root;
  ChainTree* tree = chains_[slot].get();
  auto pos = std::lower_bound(roots_.begin(), roots_.end(), tree,
                              [](const ChainTree* a, const ChainTree* b) {
                                return a->ordinal < b->ordinal;
                              });
  if (is_root) {
    roots_.insert(pos, tree);
    delta_.roots_added.push_back(tree->chain);
  } else {
    roots_.erase(pos);
    delta_.roots_removed.push_back(tree->chain);
  }
}

}  // namespace causeway::analysis
