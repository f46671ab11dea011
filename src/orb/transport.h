// In-memory inter-domain transport fabric.
//
// The paper deploys processes across HPUX, Windows NT and VxWorks hosts; the
// reproduction runs every "process" as a ProcessDomain inside one OS process
// and connects them through this fabric.  What is preserved:
//
//   * byte-level exchange -- only encoded messages cross the boundary, so a
//     domain can never share pointers, clocks or TSS with a peer;
//   * asymmetric, configurable link latency (deliver-at timestamps honored
//     by the receiving domain's I/O thread);
//   * unreachable peers fail the send like a broken TCP connection would.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/queue.h"
#include "orb/message.h"

namespace causeway::orb {

struct Envelope {
  std::string from;
  std::string to;
  MessageKind kind{MessageKind::kRequest};
  std::vector<std::uint8_t> bytes;
  Nanos deliver_at{0};  // host steady-clock deadline (link latency)
};

using Inbox = BlockingQueue<Envelope>;

// Directional link key with its hash precomputed at insert time, so the hot
// send path never rehashes (and, via the transparent view below, never
// allocates a pair of temporary strings the way the old
// map<pair<string,string>> lookup did).
struct LinkKey {
  std::string from;
  std::string to;
  std::size_t hash;
};

struct LinkKeyView {
  std::string_view from;
  std::string_view to;
  std::size_t hash;
};

inline std::size_t link_hash(std::string_view from, std::string_view to) {
  const std::size_t h = std::hash<std::string_view>{}(from);
  return h ^ (std::hash<std::string_view>{}(to) + 0x9e3779b97f4a7c15ull +
              (h << 6) + (h >> 2));
}

struct LinkKeyHash {
  using is_transparent = void;
  std::size_t operator()(const LinkKey& k) const { return k.hash; }
  std::size_t operator()(const LinkKeyView& k) const { return k.hash; }
};

struct LinkKeyEq {
  using is_transparent = void;
  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const {
    return a.from == b.from && a.to == b.to;
  }
};

// Transparent string hashing for the inbox table (lookups take string or
// string_view without conversion).
struct NameHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

class Fabric {
 public:
  Fabric() = default;
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // Applied to every link without an explicit override.
  void set_default_latency(Nanos latency) {
    std::lock_guard lock(mu_);
    default_latency_ = latency;
  }

  // Directional override for the from->to link.
  void set_link_latency(const std::string& from, const std::string& to,
                        Nanos latency) {
    std::lock_guard lock(mu_);
    LinkKey key{from, to, link_hash(from, to)};
    auto it = link_latency_.find(key);
    if (it != link_latency_.end()) {
      it->second = latency;
    } else {
      link_latency_.emplace(std::move(key), latency);
    }
  }

  // The fabric shares ownership of each inbox: send() copies the pointer
  // under mu_ and pushes after unlocking, so a push still in flight keeps
  // the queue alive past unregister_domain and the owning domain's end.
  void register_domain(const std::string& name, std::shared_ptr<Inbox> inbox) {
    std::lock_guard lock(mu_);
    inboxes_[name] = std::move(inbox);
  }

  void unregister_domain(const std::string& name) {
    std::lock_guard lock(mu_);
    inboxes_.erase(name);
  }

  // False if the destination is unknown/closed (peer crashed or shut down).
  bool send(const std::string& from, const std::string& to, MessageKind kind,
            std::vector<std::uint8_t> bytes);

  // Total bytes ever pushed through the fabric; benchmarks use this to
  // compare FTL (constant) vs Trace-Object (growing) overhead on the wire.
  std::uint64_t bytes_sent() const {
    std::lock_guard lock(mu_);
    return bytes_sent_;
  }

  // Fault injection: silently lose this fraction of messages (UDP-style --
  // the sender cannot tell; a lost request surfaces as a client timeout, a
  // lost reply likewise).  Deterministic per seed.  Rate 0 disables.
  void set_loss(double rate, std::uint64_t seed = 1);

  std::uint64_t messages_dropped() const {
    std::lock_guard lock(mu_);
    return messages_dropped_;
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<Inbox>, NameHash,
                     std::equal_to<>>
      inboxes_;
  std::unordered_map<LinkKey, Nanos, LinkKeyHash, LinkKeyEq> link_latency_;
  Nanos default_latency_{0};
  std::uint64_t bytes_sent_{0};
  double loss_rate_{0.0};
  std::uint64_t loss_state_{1};
  std::uint64_t messages_dropped_{0};
};

}  // namespace causeway::orb
