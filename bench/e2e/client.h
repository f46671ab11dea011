// Raw publisher connections that replay pre-encoded trace segments into a
// CollectorDaemon: the fan-in and mixed workloads' load generator.  Each
// connection speaks the real protocol -- a CWHS handshake naming itself
// "<prefix>-<k>", then segments -- and closes the way a clean publisher
// must: shut down its write side, read whatever the daemon sent (its
// control-channel hello) until EOF, and only then close, so the daemon
// never loses a queued tail to a reset.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "transport/endpoint.h"

namespace causeway::bench {

class SegmentClient {
 public:
  // Connects and handshakes every connection; throws std::runtime_error
  // when the daemon cannot be reached.
  SegmentClient(const std::string& address, std::size_t connections,
                const std::string& prefix);

  // Blocking sockets: a write returns once the kernel took every byte.
  int fd(std::size_t i) const { return endpoints_[i].fd(); }

  // Shuts down every write side, reads each connection to EOF (the daemon
  // closes after consuming the last frame), then closes.  False when a
  // connection did not reach EOF within `timeout_s`.
  bool finish(double timeout_s);

 private:
  std::vector<transport::StreamEndpoint> endpoints_;
};

}  // namespace causeway::bench
