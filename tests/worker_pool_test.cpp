#include "common/worker_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

namespace causeway {
namespace {

// Every pool here has helpers whatever the host's core count, so the
// pooled path (not the inline fallback) is what runs.
constexpr std::size_t kHelpers = 3;

TEST(WorkerPool, NestedParallelForRunsInlineAndCompletes) {
  // Each outer item -- on a helper or in the caller's own slice -- calls
  // parallel_for again.  The inner call must run inline on that thread
  // rather than wait on the pool it is already part of.
  WorkerPool pool(kHelpers);
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 13;
  std::vector<std::atomic<int>> ran(kOuter * kInner);
  pool.parallel_for(kOuter, [&](std::size_t o) {
    const std::thread::id outer_thread = std::this_thread::get_id();
    pool.parallel_for(kInner, [&](std::size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), outer_thread);
      ran[o * kInner + i].fetch_add(1);
    });
  });
  for (std::size_t k = 0; k < ran.size(); ++k) {
    EXPECT_EQ(ran[k].load(), 1) << "item " << k;
  }

  // Nesting through a second pool runs inline too.
  WorkerPool other(kHelpers);
  std::atomic<int> inner_runs{0};
  pool.parallel_for(4, [&](std::size_t) {
    other.parallel_for(5, [&](std::size_t) { inner_runs.fetch_add(1); });
  });
  EXPECT_EQ(inner_runs.load(), 20);
}

TEST(WorkerPool, ItemExceptionSurfacesOnCallerAndPoolStaysUsable) {
  WorkerPool pool(kHelpers);
  constexpr std::size_t kItems = 64;
  std::vector<std::atomic<int>> ran(kItems);
  EXPECT_THROW(pool.parallel_for(kItems,
                                 [&](std::size_t i) {
                                   ran[i].fetch_add(1);
                                   if (i % 9 == 4) {
                                     throw std::runtime_error("item failed");
                                   }
                                 }),
               std::runtime_error);
  // The throwing items do not cancel the others: every item ran once.
  for (std::size_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(ran[i].load(), 1) << "item " << i;
  }

  std::atomic<int> after{0};
  pool.parallel_for(kItems, [&](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), static_cast<int>(kItems));

  // An inline (nested) call reports its items' exception the same way.
  EXPECT_THROW(pool.parallel_for(2,
                                 [&](std::size_t) {
                                   pool.parallel_for(3, [](std::size_t j) {
                                     if (j == 1) throw std::logic_error("x");
                                   });
                                 }),
               std::logic_error);
}

TEST(WorkerPool, BackToBackTinyJobsRunEveryItemExactlyOnce) {
  // Jobs far shorter than a helper's wake-up: helpers routinely wake after
  // the job they were woken for has returned.  Such a helper must run no
  // item of it -- its function and counters are gone by then -- and every
  // call must see all of its own items finished when it returns.
  WorkerPool pool(kHelpers);
  constexpr std::size_t kJobs = 10'000;
  constexpr std::size_t kItems = 4;
  std::atomic<std::size_t> total{0};
  std::size_t incomplete = 0;
  for (std::size_t job = 0; job < kJobs; ++job) {
    std::vector<std::atomic<int>> ran(kItems);
    pool.parallel_for(kItems, [&](std::size_t i) {
      ran[i].fetch_add(1);
      total.fetch_add(1);
    });
    for (std::size_t i = 0; i < kItems; ++i) {
      if (ran[i].load() != 1) ++incomplete;
    }
  }
  EXPECT_EQ(incomplete, 0u);
  EXPECT_EQ(total.load(), kJobs * kItems);
}

TEST(WorkerPool, ConcurrentCallersBothComplete) {
  WorkerPool pool(kHelpers);
  constexpr std::size_t kRounds = 500;
  constexpr std::size_t kItems = 32;
  std::atomic<std::size_t> wrong{0};
  auto caller = [&] {
    for (std::size_t round = 0; round < kRounds; ++round) {
      std::vector<std::atomic<int>> ran(kItems);
      pool.parallel_for(kItems, [&](std::size_t i) { ran[i].fetch_add(1); });
      for (std::size_t i = 0; i < kItems; ++i) {
        if (ran[i].load() != 1) wrong.fetch_add(1);
      }
    }
  };
  std::thread a(caller);
  std::thread b(caller);
  a.join();
  b.join();
  EXPECT_EQ(wrong.load(), 0u);
}

TEST(WorkerPool, PoolWithoutHelpersRunsOnCaller) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.concurrency(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t ran = 0;
  pool.parallel_for(10, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++ran;
  });
  EXPECT_EQ(ran, 10u);
}

}  // namespace
}  // namespace causeway
