// A small persistent worker pool for the analysis tier's data-parallel
// phases.
//
// Several analysis stages fan independent work items over threads: the DSCG
// rebuilds dirty chains in parallel, the sharded LogDatabase ingests record
// partitions in parallel, the trace reader decodes complete segments in
// parallel, and the v5 writer deflates a segment's column blocks in
// parallel.  Before this pool each site spawned (and joined) fresh
// std::threads per batch, which is wasteful at streaming cadence -- a drain
// epoch can arrive every few milliseconds, and thread creation alone costs
// a meaningful fraction of that budget.
//
// WorkerPool keeps the threads alive across batches.  parallel_for(n, fn)
// runs fn(0..n-1) with the calling thread participating, distributes items
// via one atomic cursor per job (items are expected to be coarse -- a chain
// rebuild, a shard partition, a trace segment, a column deflate), and
// returns as soon as every item has finished: the caller never waits for a
// helper that has not woken yet.  Each call is its own job object (cursor,
// done count, first error), so a helper that wakes after its job finished
// finds the cursor exhausted and runs nothing of it, and concurrent callers
// never share a cursor -- helpers serve the newest job while every caller
// drains its own.  The first exception an item throws is rethrown on the
// caller once every item has run.
//
// A parallel_for made inside a pool item -- on a helper or in the caller's
// own slice -- runs its items inline on that thread, so nesting (a
// parallel segment encode whose segments each deflate their columns in
// parallel) can never wait on the pool it is running on.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace causeway {

class WorkerPool {
 public:
  // The process-wide pool: hardware_concurrency - 1 helper threads (the
  // caller is the final worker), started lazily on first use.
  static WorkerPool& shared();

  explicit WorkerPool(std::size_t helper_threads);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Helpers + the calling thread.
  std::size_t concurrency() const { return helpers_.size() + 1; }

  // Runs fn(i) for every i in [0, n), caller participating.  Returns when
  // all n items have finished; rethrows the first exception any item threw.
  // Inside a pool item (of any pool) the items run inline on the calling
  // thread.  Safe to call from several threads at once.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  struct Job;
  static void run_items(Job& job);
  void helper_loop();

  std::vector<std::thread> helpers_;

  std::mutex mu_;  // guards the job slot below
  std::condition_variable cv_start_;
  std::uint64_t job_id_{0};
  std::shared_ptr<Job> job_;
  bool stop_{false};
};

}  // namespace causeway
