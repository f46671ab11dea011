#include "client.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>

#include "analysis/trace_io.h"
#include "common/wire_io.h"
#include "trace.h"
#include "transport/protocol.h"

namespace causeway::bench {

SegmentClient::SegmentClient(const std::string& address,
                             std::size_t connections,
                             const std::string& prefix) {
  const transport::EndpointAddress where = transport::parse_endpoint(address);
  for (std::size_t k = 0; k < connections; ++k) {
    transport::StreamEndpoint ep = transport::connect_endpoint(where, 1000);
    if (!ep.valid()) {
      throw std::runtime_error("cannot connect to " + address);
    }
    transport::Handshake hello;
    hello.trace_format = analysis::kTraceFormatV4;
    hello.pid = static_cast<std::uint64_t>(::getpid());
    hello.process_name = prefix + "-" + std::to_string(k);
    const auto bytes = transport::encode_handshake(hello);
    ep.set_blocking(true);
    if (!io_write_full(ep.fd(), bytes.data(), bytes.size())) {
      throw std::runtime_error("handshake write failed on " + address);
    }
    endpoints_.push_back(std::move(ep));
  }
}

bool SegmentClient::finish(double timeout_s) {
  for (auto& ep : endpoints_) {
    ep.set_blocking(false);
    ::shutdown(ep.fd(), SHUT_WR);
  }
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  std::vector<bool> open(endpoints_.size(), true);
  std::size_t remaining = endpoints_.size();
  while (remaining > 0 && now_ns() < deadline) {
    std::vector<pollfd> fds;
    std::vector<std::size_t> which;
    for (std::size_t i = 0; i < endpoints_.size(); ++i) {
      if (!open[i]) continue;
      fds.push_back({endpoints_[i].fd(), POLLIN, 0});
      which.push_back(i);
    }
    if (::poll(fds.data(), fds.size(), 50) < 0 && errno != EINTR) break;
    for (std::size_t j = 0; j < fds.size(); ++j) {
      if (!(fds[j].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      char buf[4096];
      const long got = io_read_some(fds[j].fd, buf, sizeof buf);
      if (got == 0 || (got < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
        open[which[j]] = false;
        --remaining;
      }
    }
  }
  for (auto& ep : endpoints_) ep.close();
  return remaining == 0;
}

}  // namespace causeway::bench
