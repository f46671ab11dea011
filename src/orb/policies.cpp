#include "orb/policies.h"

namespace causeway::orb {

void ThreadPerRequestPolicy::submit(RequestMessage msg) {
  {
    std::lock_guard lock(mu_);
    if (stopping_) return;
    ++active_;
  }
  std::thread([this, msg = std::move(msg)]() mutable {
    serve_(std::move(msg));
    // Notify under the lock: once shutdown() sees active_ == 0 it returns
    // and the destructor may destroy idle_cv_, so this thread must be done
    // with it before it releases mu_.
    std::lock_guard lock(mu_);
    --active_;
    idle_cv_.notify_all();
  }).detach();
}

void ThreadPerRequestPolicy::shutdown() {
  std::unique_lock lock(mu_);
  stopping_ = true;
  idle_cv_.wait(lock, [&] { return active_ == 0; });
}

void ThreadPerConnectionPolicy::submit(RequestMessage msg) {
  Worker* worker = nullptr;
  {
    std::lock_guard lock(mu_);
    if (stopping_) return;
    auto& slot = workers_[msg.connection];
    if (!slot) {
      slot = std::make_unique<Worker>();
      Worker* w = slot.get();
      w->thread = std::thread([this, w] {
        while (auto item = w->queue.pop()) serve_(std::move(*item));
      });
    }
    worker = slot.get();
  }
  worker->queue.push(std::move(msg));
}

void ThreadPerConnectionPolicy::shutdown() {
  std::map<std::string, std::unique_ptr<Worker>> workers;
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
    workers.swap(workers_);
  }
  for (auto& [name, worker] : workers) {
    worker->queue.close();
    if (worker->thread.joinable()) worker->thread.join();
  }
}

ThreadPoolPolicy::ThreadPoolPolicy(ServeFn serve, std::size_t workers)
    : serve_(std::move(serve)) {
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] {
      while (auto item = queue_.pop()) serve_(std::move(*item));
    });
  }
}

void ThreadPoolPolicy::submit(RequestMessage msg) { queue_.push(std::move(msg)); }

void ThreadPoolPolicy::shutdown() {
  std::call_once(shutdown_once_, [&] {
    queue_.close();
    for (auto& t : workers_) {
      if (t.joinable()) t.join();
    }
  });
}

std::unique_ptr<DispatchPolicy> make_policy(PolicyKind kind, ServeFn serve,
                                            std::size_t pool_size) {
  switch (kind) {
    case PolicyKind::kThreadPerRequest:
      return std::make_unique<ThreadPerRequestPolicy>(std::move(serve));
    case PolicyKind::kThreadPerConnection:
      return std::make_unique<ThreadPerConnectionPolicy>(std::move(serve));
    case PolicyKind::kThreadPool:
      return std::make_unique<ThreadPoolPolicy>(std::move(serve), pool_size);
  }
  return nullptr;
}

}  // namespace causeway::orb
