// ProcessDomain: a simulated process hosting an ORB instance.
//
// The paper's experiments partition an application into processes spread
// over HPUX / Windows NT / VxWorks hosts.  A ProcessDomain reproduces one
// such process inside this address space:
//
//   * its own object adapter (servant registry) and dispatch policy;
//   * its own I/O thread draining the transport inbox and honoring link
//     latency;
//   * its own monitor runtime: local log store, probe mode, and -- key to the
//     paper's "no global clock synchronization" claim -- its own skewed,
//     drifting clock domain;
//   * a node identity (processor name + type) so CPU propagation can be
//     reported per processor type (the <C1..CM> vectors of Sec. 3.2).
//
// Domains exchange *bytes only* through the Fabric; nothing else is shared.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/clock.h"
#include "monitor/runtime.h"
#include "orb/message.h"
#include "orb/policies.h"
#include "orb/servant.h"
#include "orb/transport.h"

namespace causeway::orb {

struct DomainOptions {
  std::string process_name;
  std::string node_name{"node0"};
  std::string processor_type{"generic-x86"};

  monitor::MonitorConfig monitor{};

  // Hostile-by-default clock divergence is opt-in; tests and benches set it.
  Nanos clock_skew{0};
  double clock_drift_ppm{0.0};

  PolicyKind policy{PolicyKind::kThreadPool};
  std::size_t pool_size{4};

  // When true, calls to objects in this same domain bypass the transport
  // (stub invokes the skeleton directly; probes 1+2 and 3+4 degenerate into
  // adjacent pairs).  When false, even local calls take the loopback wire --
  // the paper's "optimization turned off" configuration.
  bool collocation_optimization{true};

  Nanos call_timeout{30 * kNanosPerSecond};
};

class ProcessDomain {
 public:
  ProcessDomain(Fabric& fabric, DomainOptions options);
  ~ProcessDomain();
  ProcessDomain(const ProcessDomain&) = delete;
  ProcessDomain& operator=(const ProcessDomain&) = delete;

  const std::string& name() const { return options_.process_name; }
  const DomainOptions& options() const { return options_; }
  Fabric& fabric() { return fabric_; }
  monitor::MonitorRuntime& monitor_runtime() { return monitor_; }

  // --- object adapter ---

  // Activates a servant under a fresh key and returns its reference.
  ObjectRef activate(std::shared_ptr<Servant> servant);
  void deactivate(ObjectKey key);
  std::shared_ptr<Servant> find(ObjectKey key) const;

  // --- invocation engine (used by the stub support layer) ---

  bool is_collocated(const ObjectRef& ref) const {
    return ref.process == name() && options_.collocation_optimization;
  }

  // Sends a request and blocks for the reply.  Throws TransportError /
  // TimeoutError on infrastructure failure.
  ReplyMessage invoke_remote(const ObjectRef& ref, MethodId method,
                             std::vector<std::uint8_t> payload);

  // Fire-and-forget; returns once the request is handed to the fabric.
  void invoke_oneway(const ObjectRef& ref, MethodId method,
                     std::vector<std::uint8_t> payload);

  // Direct in-process dispatch (collocation optimization path).
  ReplyMessage invoke_collocated(const ObjectRef& ref, MethodId method,
                                 std::vector<std::uint8_t> payload);

  // Stops accepting traffic, drains dispatchers, joins all threads.
  // Idempotent; the destructor calls it.
  void shutdown();

 private:
  void netd_loop();
  void serve(RequestMessage msg);

  struct PendingCall {
    std::mutex mu;
    std::condition_variable cv;
    std::optional<ReplyMessage> reply;
    bool aborted{false};
  };

  Fabric& fabric_;
  DomainOptions options_;
  monitor::MonitorRuntime monitor_;

  mutable std::mutex adapter_mu_;
  std::map<ObjectKey, std::shared_ptr<Servant>> servants_;
  ObjectKey next_key_{1};

  // Shared with the fabric, which may still be pushing into it after this
  // domain is gone (Fabric::register_domain).
  std::shared_ptr<Inbox> inbox_ = std::make_shared<Inbox>();
  std::unique_ptr<DispatchPolicy> policy_;
  std::thread netd_;

  std::mutex pending_mu_;
  std::map<std::uint64_t, std::shared_ptr<PendingCall>> pending_;
  std::atomic<std::uint64_t> next_call_id_{1};

  std::atomic<bool> stopped_{false};
};

}  // namespace causeway::orb
