#include "orb/transport.h"

#include "common/rng.h"

namespace causeway::orb {

void Fabric::set_loss(double rate, std::uint64_t seed) {
  std::lock_guard lock(mu_);
  loss_rate_ = rate;
  loss_state_ = seed;
}

bool Fabric::send(const std::string& from, const std::string& to,
                  MessageKind kind, std::vector<std::uint8_t> bytes) {
  // Hash outside the lock; both lookups are heterogeneous, so the hot path
  // neither rehashes under the mutex nor builds temporary key strings.
  const LinkKeyView link{from, to, link_hash(from, to)};
  std::shared_ptr<Inbox> inbox;
  Nanos latency = 0;
  {
    std::lock_guard lock(mu_);
    auto it = inboxes_.find(to);
    if (it == inboxes_.end()) return false;
    inbox = it->second;
    auto lat = link_latency_.find(link);
    latency = (lat != link_latency_.end()) ? lat->second : default_latency_;
    if (loss_rate_ > 0.0) {
      SplitMix64 step(loss_state_);
      loss_state_ = step.next();
      const double draw =
          static_cast<double>(loss_state_ >> 11) * 0x1.0p-53;
      if (draw < loss_rate_) {
        ++messages_dropped_;
        return true;  // the sender cannot observe the loss
      }
    }
    bytes_sent_ += bytes.size();
  }
  Envelope env;
  env.from = from;
  env.to = to;
  env.kind = kind;
  env.bytes = std::move(bytes);
  env.deliver_at = steady_now_ns() + latency;
  return inbox->push(std::move(env));
}

}  // namespace causeway::orb
