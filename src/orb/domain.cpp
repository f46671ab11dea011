#include "orb/domain.h"

#include <chrono>

#include "monitor/tss.h"
#include "orb/errors.h"

namespace causeway::orb {

namespace {

// Object keys are namespaced per domain *incarnation*: a reference minted by
// a previous life of "server" must not accidentally resolve against its
// restarted successor (real ORBs embed instance identity in the IOR).
std::uint64_t next_incarnation() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

ProcessDomain::ProcessDomain(Fabric& fabric, DomainOptions options)
    : fabric_(fabric),
      options_(std::move(options)),
      monitor_(
          monitor::DomainIdentity{options_.process_name, options_.node_name,
                                  options_.processor_type},
          options_.monitor,
          ClockDomain(options_.clock_skew, options_.clock_drift_ppm)) {
  next_key_ = (next_incarnation() << 32) | 1;
  policy_ = make_policy(
      options_.policy, [this](RequestMessage msg) { serve(std::move(msg)); },
      options_.pool_size);
  fabric_.register_domain(name(), inbox_);
  netd_ = std::thread([this] { netd_loop(); });
}

ProcessDomain::~ProcessDomain() { shutdown(); }

void ProcessDomain::shutdown() {
  if (stopped_.exchange(true)) return;
  fabric_.unregister_domain(name());
  inbox_->close();
  if (netd_.joinable()) netd_.join();
  policy_->shutdown();
  // Wake any caller still blocked on a reply that will never come.
  std::lock_guard lock(pending_mu_);
  for (auto& [id, call] : pending_) {
    std::lock_guard call_lock(call->mu);
    call->aborted = true;
    call->cv.notify_all();
  }
}

ObjectRef ProcessDomain::activate(std::shared_ptr<Servant> servant) {
  std::lock_guard lock(adapter_mu_);
  const ObjectKey key = next_key_++;
  ObjectRef ref{name(), key, std::string(servant->interface_name())};
  servants_[key] = std::move(servant);
  return ref;
}

void ProcessDomain::deactivate(ObjectKey key) {
  std::lock_guard lock(adapter_mu_);
  servants_.erase(key);
}

std::shared_ptr<Servant> ProcessDomain::find(ObjectKey key) const {
  std::lock_guard lock(adapter_mu_);
  auto it = servants_.find(key);
  return it == servants_.end() ? nullptr : it->second;
}

void ProcessDomain::netd_loop() {
  while (auto env = inbox_->pop()) {
    // Honor the link-latency deadline: this serializes delivery like a
    // single connection would.
    const Nanos now = steady_now_ns();
    if (env->deliver_at > now) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(env->deliver_at - now));
    }
    if (env->kind == MessageKind::kRequest) {
      policy_->submit(RequestMessage::decode(env->bytes));
    } else {
      ReplyMessage reply = ReplyMessage::decode(env->bytes);
      std::shared_ptr<PendingCall> call;
      {
        std::lock_guard lock(pending_mu_);
        auto it = pending_.find(reply.call_id);
        if (it != pending_.end()) {
          call = it->second;
          pending_.erase(it);
        }
      }
      if (call) {
        std::lock_guard lock(call->mu);
        call->reply = std::move(reply);
        call->cv.notify_all();
      }
    }
  }
}

void ProcessDomain::serve(RequestMessage msg) {
  // A dispatched thread must never inherit a chain from its previous call
  // (observation O2); instrumented skeletons overwrite the slot, but clear
  // it anyway so un-instrumented servants cannot leak stale chains either.
  monitor::tss_clear();

  ReplyMessage reply;
  reply.call_id = msg.call_id;

  auto servant = find(msg.object_key);
  if (!servant) {
    reply.status = ReplyStatus::kObjectNotFound;
    reply.error_text = "no servant under key";
  } else {
    DispatchContext ctx;
    ctx.kind = msg.oneway ? monitor::CallKind::kOneway
                          : monitor::CallKind::kSync;
    ctx.domain = this;
    ctx.object_key = msg.object_key;
    WireCursor in(msg.payload.data(), msg.payload.size());
    WireBuffer out;
    try {
      DispatchResult result = servant->dispatch(ctx, msg.method_id, in, out);
      reply.status = result.status;
      reply.error_name = std::move(result.error_name);
      reply.error_text = std::move(result.error_text);
      reply.payload = std::move(out).take();
    } catch (const std::exception& e) {
      // Skeletons convert application exceptions themselves; anything that
      // escapes is an infrastructure-level failure.
      reply.status = ReplyStatus::kSystemError;
      reply.error_text = e.what();
    }
  }

  if (!msg.oneway && !msg.reply_to.empty()) {
    fabric_.send(name(), msg.reply_to, MessageKind::kReply, reply.encode());
  }
}

ReplyMessage ProcessDomain::invoke_remote(const ObjectRef& ref,
                                          MethodId method,
                                          std::vector<std::uint8_t> payload) {
  if (stopped_.load()) throw TransportError("domain is shut down");

  auto call = std::make_shared<PendingCall>();
  const std::uint64_t call_id = next_call_id_.fetch_add(1);
  {
    std::lock_guard lock(pending_mu_);
    pending_[call_id] = call;
  }

  RequestMessage msg;
  msg.call_id = call_id;
  msg.reply_to = name();
  msg.connection =
      name() + "#" + std::to_string(monitor::this_thread_ordinal());
  msg.object_key = ref.key;
  msg.method_id = method;
  msg.oneway = false;
  msg.payload = std::move(payload);

  if (!fabric_.send(name(), ref.process, MessageKind::kRequest,
                    msg.encode())) {
    std::lock_guard lock(pending_mu_);
    pending_.erase(call_id);
    throw TransportError("peer '" + ref.process + "' unreachable");
  }

  std::unique_lock lock(call->mu);
  const bool done = call->cv.wait_for(
      lock, std::chrono::nanoseconds(options_.call_timeout),
      [&] { return call->reply.has_value() || call->aborted; });
  if (!done || !call->reply) {
    {
      std::lock_guard plock(pending_mu_);
      pending_.erase(call_id);
    }
    if (call->aborted) throw TransportError("domain shut down mid-call");
    throw TimeoutError("no reply from '" + ref.process + "'");
  }
  return std::move(*call->reply);
}

void ProcessDomain::invoke_oneway(const ObjectRef& ref, MethodId method,
                                  std::vector<std::uint8_t> payload) {
  if (stopped_.load()) throw TransportError("domain is shut down");

  RequestMessage msg;
  msg.call_id = next_call_id_.fetch_add(1);
  msg.reply_to.clear();
  msg.connection =
      name() + "#" + std::to_string(monitor::this_thread_ordinal());
  msg.object_key = ref.key;
  msg.method_id = method;
  msg.oneway = true;
  msg.payload = std::move(payload);

  if (!fabric_.send(name(), ref.process, MessageKind::kRequest,
                    msg.encode())) {
    throw TransportError("peer '" + ref.process + "' unreachable");
  }
}

ReplyMessage ProcessDomain::invoke_collocated(
    const ObjectRef& ref, MethodId method,
    std::vector<std::uint8_t> payload) {
  ReplyMessage reply;
  auto servant = find(ref.key);
  if (!servant) {
    reply.status = ReplyStatus::kObjectNotFound;
    reply.error_text = "no servant under key";
    return reply;
  }
  DispatchContext ctx;
  ctx.kind = monitor::CallKind::kCollocated;
  ctx.domain = this;
  ctx.object_key = ref.key;
  WireCursor in(payload.data(), payload.size());
  WireBuffer out;
  try {
    DispatchResult result = servant->dispatch(ctx, method, in, out);
    reply.status = result.status;
    reply.error_name = std::move(result.error_name);
    reply.error_text = std::move(result.error_text);
    reply.payload = std::move(out).take();
  } catch (const std::exception& e) {
    reply.status = ReplyStatus::kSystemError;
    reply.error_text = e.what();
  }
  return reply;
}

}  // namespace causeway::orb
