// WorkerPool coverage: fork-join correctness across reuse, shutdown timing, and the
// exception-propagation contract (an item that throws never blocks the drain; the first
// captured exception is rethrown to the caller once every item finished).

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "src/common/sleep.h"
#include "src/common/worker_pool.h"

namespace dpack {
namespace {

TEST(WorkerPoolTest, RunsEveryItemExactlyOnce) {
  WorkerPool pool(3);
  constexpr size_t kItems = 1000;
  std::vector<std::atomic<int>> hits(kItems);
  pool.ParallelFor(kItems, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "item " << i;
  }
}

TEST(WorkerPoolTest, ZeroWorkersRunsInline) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0u);
  std::atomic<size_t> count{0};
  pool.ParallelFor(64, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 64u);
}

TEST(WorkerPoolTest, EmptyRangeIsANoOp) {
  WorkerPool pool(2);
  bool called = false;
  pool.ParallelFor(0, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(WorkerPoolTest, ShutdownWithNoWork) {
  // Destruction races the workers' startup: they may still be entering their wait when
  // stop is signalled.
  for (int i = 0; i < 20; ++i) {
    WorkerPool pool(4);
  }
}

TEST(WorkerPoolTest, ShutdownWhileWorkersStillParking) {
  // Destroy immediately after a join: workers that claimed nothing may still be between
  // their empty claim loop and their generation wait when the destructor runs.
  for (int i = 0; i < 20; ++i) {
    WorkerPool pool(4);
    std::atomic<size_t> count{0};
    // Fewer items than threads: some workers never claim anything.
    pool.ParallelFor(2, [&](size_t) {
      count.fetch_add(1);
      SleepFullMicros(50);
    });
    EXPECT_EQ(count.load(), 2u);
  }
}

TEST(WorkerPoolTest, ExceptionInTaskPropagatesAfterDrain) {
  WorkerPool pool(3);
  constexpr size_t kItems = 100;
  std::vector<std::atomic<int>> hits(kItems);
  EXPECT_THROW(
      pool.ParallelFor(kItems,
                       [&](size_t i) {
                         hits[i].fetch_add(1);
                         if (i == 37) {
                           throw std::runtime_error("item 37 failed");
                         }
                       }),
      std::runtime_error);
  // A failed item never blocks the drain: every item still ran exactly once.
  for (size_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "item " << i;
  }
}

TEST(WorkerPoolTest, ExceptionInInlinePathPropagatesAfterDrain) {
  WorkerPool pool(0);
  std::atomic<size_t> count{0};
  EXPECT_THROW(pool.ParallelFor(8,
                                [&](size_t i) {
                                  count.fetch_add(1);
                                  if (i == 3) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
  EXPECT_EQ(count.load(), 8u);
}

TEST(WorkerPoolTest, ReuseAfterDrain) {
  // The pool must start every generation with a clean slate, including after an exception.
  WorkerPool pool(2);
  std::atomic<size_t> count{0};
  EXPECT_THROW(pool.ParallelFor(10,
                                [&](size_t i) {
                                  if (i == 0) {
                                    throw std::runtime_error("first generation fails");
                                  }
                                  count.fetch_add(1);
                                }),
               std::runtime_error);
  for (size_t round = 1; round <= 50; ++round) {
    count.store(0);
    pool.ParallelFor(round, [&](size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), round);
  }
}

TEST(WorkerPoolTest, MultipleExceptionsOnlyOneRethrown) {
  WorkerPool pool(4);
  std::atomic<size_t> count{0};
  try {
    pool.ParallelFor(64, [&](size_t i) {
      count.fetch_add(1);
      throw std::runtime_error("item " + std::to_string(i));
    });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(count.load(), 64u);
  // And the pool is still healthy.
  count.store(0);
  pool.ParallelFor(16, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 16u);
}

}  // namespace
}  // namespace dpack
