#include "analysis/call_tree.h"

#include "analysis/database.h"
#include "common/strings.h"

namespace causeway::analysis {

using monitor::CallKind;
using monitor::EventKind;
using monitor::TraceRecord;

void CpuVector::add(std::string_view type, Nanos ns) {
  for (auto& [t, v] : by_type) {
    if (t == type) {
      v += ns;
      return;
    }
  }
  by_type.emplace_back(type, ns);
}

void CpuVector::add(const CpuVector& other) {
  for (const auto& [t, v] : other.by_type) add(t, v);
}

Nanos CpuVector::of(std::string_view type) const {
  for (const auto& [t, v] : by_type) {
    if (t == type) return v;
  }
  return 0;
}

std::string_view CallNode::server_process() const {
  const auto stub = record(EventKind::kStubStart);
  const auto skel = record(EventKind::kSkelStart);
  const TraceRecord* r = server_start(stub, skel);
  return r ? r->process_name : std::string_view{};
}

std::string_view CallNode::server_processor_type() const {
  const auto stub = record(EventKind::kStubStart);
  const auto skel = record(EventKind::kSkelStart);
  const TraceRecord* r = server_start(stub, skel);
  return r ? r->processor_type : std::string_view{};
}

std::size_t CallNode::subtree_size() const {
  std::size_t n = is_virtual_root() ? 0 : 1;
  for (const auto& c : children) n += c->subtree_size();
  return n;
}

namespace {

// Incremental parser state over one chain.
class ChainParser {
 public:
  ChainParser(const Uuid& chain, const LogDatabase& db) : db_(db) {
    tree_.chain = chain;
    tree_.root = std::make_unique<CallNode>();
    current_ = tree_.root.get();
  }

  // Row `slot` of the database, assembled as `r`.
  void feed(std::uint32_t slot, const TraceRecord& r) {
    slot_ = slot;
    check_sequence(r);
    switch (r.event) {
      case EventKind::kStubStart: on_stub_start(r); break;
      case EventKind::kSkelStart: on_skel_start(r); break;
      case EventKind::kSkelEnd: on_skel_end(r); break;
      case EventKind::kStubEnd: on_stub_end(r); break;
    }
  }

  ChainTree finish() {
    if (current_ != tree_.root.get()) {
      anomaly(last_seq_, "chain ended mid-call (records missing at the tail)");
    }
    return std::move(tree_);
  }

 private:
  void check_sequence(const TraceRecord& r) {
    if (have_seq_ && r.seq != last_seq_ + 1) {
      anomaly(r.seq, strf("event number gap: expected %llu, saw %llu",
                          static_cast<unsigned long long>(last_seq_ + 1),
                          static_cast<unsigned long long>(r.seq)));
    }
    last_seq_ = r.seq;
    have_seq_ = true;
  }

  void on_stub_start(const TraceRecord& r) {
    auto node = std::make_unique<CallNode>();
    node->interface_name = r.interface_name;
    node->function_name = r.function_name;
    node->object_key = r.object_key;
    node->kind = r.kind;
    node->spawned_chain = r.spawned_chain;
    node->db = &db_;
    node->rec[0] = slot_;
    node->parent = current_;
    current_->children.push_back(std::move(node));
    current_ = current_->children.back().get();
  }

  void on_skel_start(const TraceRecord& r) {
    if (current_->is_virtual_root()) {
      if (tree_.root->children.empty()) {
        // A chain that *begins* with a skeleton event is either the callee
        // side of a oneway call (the spawned child chain, paper Sec. 2.2) or
        // a fresh chain started because the caller was not instrumented.
        tree_.oneway_child = (r.kind == CallKind::kOneway);
        tree_.skeleton_rooted = true;
        auto node = std::make_unique<CallNode>();
        node->interface_name = r.interface_name;
        node->function_name = r.function_name;
        node->object_key = r.object_key;
        node->kind = r.kind;
        node->db = &db_;
        node->rec[1] = slot_;
        node->parent = current_;
        current_->children.push_back(std::move(node));
        current_ = current_->children.back().get();
        return;
      }
      anomaly(r.seq, "skel_start with no open call");
      return;
    }
    if (has(1) || !matches(r)) {
      anomaly(r.seq, "skel_start does not continue the open call");
      return;
    }
    current_->rec[1] = slot_;
  }

  void on_skel_end(const TraceRecord& r) {
    if (current_->is_virtual_root() || !has(1) || has(2) || !matches(r)) {
      anomaly(r.seq, "skel_end without matching skel_start");
      return;
    }
    current_->rec[2] = slot_;
    // "One-Way Function Skel-Side Returns": a skeleton-rooted frame has no
    // stub events, so skel_end closes it.
    if (!has(0)) {
      current_ = current_->parent;
    }
  }

  void on_stub_end(const TraceRecord& r) {
    if (current_->is_virtual_root() || !has(0) || has(3) || !matches(r)) {
      anomaly(r.seq, "stub_end without matching stub_start");
      return;
    }
    if (r.kind != CallKind::kOneway && !has(2)) {
      // A sync call returning without skeleton events means the callee was
      // not instrumented (legal, partial data) -- note it, keep the node.
      if (has(1)) {
        anomaly(r.seq, "stub_end while skeleton still open");
      }
    }
    current_->rec[3] = slot_;
    current_ = current_->parent;
  }

  // Whether the open call already holds probe record `i` (EventKind - 1).
  bool has(int i) const { return current_->rec[i] != CallNode::kNoRecord; }

  bool matches(const TraceRecord& r) const {
    return r.function_name == current_->function_name &&
           r.interface_name == current_->interface_name;
  }

  // The paper's "abnormal" transition: flag and restart from the next
  // record.  The offending record is dropped; parser state is kept so the
  // rest of the chain can still contribute structure.
  void anomaly(std::uint64_t seq, std::string reason) {
    tree_.anomalies.push_back({seq, std::move(reason)});
  }

  const LogDatabase& db_;
  std::uint32_t slot_{CallNode::kNoRecord};  // the row being fed
  ChainTree tree_;
  CallNode* current_;
  std::uint64_t last_seq_{0};
  bool have_seq_{false};
};

}  // namespace

ChainTree build_chain_tree(const Uuid& chain, const LogDatabase& db) {
  ChainParser parser(chain, db);
  for (const std::uint32_t i : db.chain_events(chain)) {
    parser.feed(i, db.record(i));
  }
  return parser.finish();
}

namespace {

void reset_node_annotations(CallNode& node) {
  node.latency.reset();
  node.latency_overhead = 0;
  node.raw_latency.reset();
  node.self_cpu = CpuVector{};
  node.descendant_cpu = CpuVector{};
  for (auto& c : node.children) reset_node_annotations(*c);
}

}  // namespace

void reset_annotations(ChainTree& tree) {
  if (tree.root) reset_node_annotations(*tree.root);
}

}  // namespace causeway::analysis
