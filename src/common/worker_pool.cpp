#include "common/worker_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

namespace causeway {

namespace {

// Set while this thread runs pool items: always on a helper, during its
// own slice on a caller.  A parallel_for that sees it runs inline.
thread_local bool t_in_item = false;

}  // namespace

// One parallel_for call.  Helpers hold it by shared_ptr, so a helper that
// picks it up after the caller returned still reads a live cursor -- one
// that is already past n, so `fn` (the caller's, gone by then) is never
// touched.
struct WorkerPool::Job {
  Job(const std::function<void(std::size_t)>& f, std::size_t count)
      : fn(&f), n(count) {}

  const std::function<void(std::size_t)>* fn;
  const std::size_t n;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex mu;  // guards error; the last slice to finish notifies under it
  std::condition_variable cv_done;
  std::exception_ptr error;
};

WorkerPool& WorkerPool::shared() {
  static WorkerPool pool([] {
    const std::size_t hw = std::thread::hardware_concurrency();
    // Cap: past ~16 threads the analysis phases are memory-bound, and the
    // pool must stay polite inside bigger hosts running many processes.
    const std::size_t capped = std::clamp<std::size_t>(hw, 1, 16);
    return capped - 1;
  }());
  return pool;
}

WorkerPool::WorkerPool(std::size_t helper_threads) {
  helpers_.reserve(helper_threads);
  for (std::size_t i = 0; i < helper_threads; ++i) {
    helpers_.emplace_back([this] { helper_loop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& t : helpers_) t.join();
}

void WorkerPool::run_items(Job& job) {
  const bool outer = t_in_item;
  t_in_item = true;
  std::size_t ran = 0;
  for (std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
       i < job.n; i = job.next.fetch_add(1, std::memory_order_relaxed)) {
    try {
      (*job.fn)(i);
    } catch (...) {
      std::lock_guard lock(job.mu);
      if (!job.error) job.error = std::current_exception();
    }
    ++ran;
  }
  t_in_item = outer;
  // One count per slice, not per item: the cursor is spent, so every item
  // this thread took has finished, and no shared counter bounces between
  // cores on each small item.
  if (ran > 0 && job.done.fetch_add(ran, std::memory_order_acq_rel) + ran ==
                     job.n) {
    std::lock_guard lock(job.mu);
    job.cv_done.notify_all();
  }
}

void WorkerPool::helper_loop() {
  t_in_item = true;
  std::uint64_t seen = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock lock(mu_);
      cv_start_.wait(lock, [&] { return stop_ || job_id_ != seen; });
      if (stop_) return;
      seen = job_id_;
      job = job_;
    }
    run_items(*job);
  }
}

void WorkerPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (helpers_.empty() || n == 1 || t_in_item) {
    Job job(fn, n);
    run_items(job);
    if (job.error) std::rethrow_exception(job.error);
    return;
  }
  auto job = std::make_shared<Job>(fn, n);
  {
    std::lock_guard lock(mu_);
    job_ = job;
    ++job_id_;
  }
  cv_start_.notify_all();
  run_items(*job);
  std::unique_lock lock(job->mu);
  job->cv_done.wait(lock, [&] {
    return job->done.load(std::memory_order_acquire) == n;
  });
  if (job->error) std::rethrow_exception(job->error);
}

}  // namespace causeway
