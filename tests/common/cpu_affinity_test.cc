// cpu_affinity coverage: the allowed-core enumeration is cpuset-aware and non-empty, core
// picking is deterministic and wraps modularly, pinning a thread to an allowed core
// succeeds (from a scratch thread, so the test binary's main thread keeps its mask), and —
// the contract the async engine leans on — a denied pin is a counted no-op, not an error:
// with SetPinFailForTesting armed the engine runs unpinned, grants stay byte-identical to
// the recompute reference, and stats().pin_failures counts one failure per shard thread.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/block/block_manager.h"
#include "src/common/cpu_affinity.h"
#include "src/core/scheduler.h"
#include "src/workload/curve_pool.h"

namespace dpack {
namespace {

// Disarms the test-only pin denial on scope exit so a failing ASSERT cannot leak the
// armed state into later tests in this binary.
struct ScopedPinDenial {
  ScopedPinDenial() { SetPinFailForTesting(true); }
  ~ScopedPinDenial() { SetPinFailForTesting(false); }
};

TEST(CpuAffinityTest, AllowedCoresIsNonEmptyOnLinux) {
#if defined(__linux__)
  std::vector<int> cores = AllowedCores();
  ASSERT_FALSE(cores.empty());
  for (int core : cores) {
    EXPECT_GE(core, 0);
  }
#else
  GTEST_SKIP() << "affinity is Linux-only; the stubs return empty";
#endif
}

TEST(CpuAffinityTest, PickShardCoreIsDeterministicAndWraps) {
  std::vector<int> cores = AllowedCores();
  if (cores.empty()) {
    EXPECT_EQ(PickShardCore(0), -1);
    return;
  }
  for (size_t s = 0; s < 3 * cores.size(); ++s) {
    EXPECT_EQ(PickShardCore(s), cores[s % cores.size()]) << "shard " << s;
    EXPECT_EQ(PickShardCore(s), PickShardCore(s)) << "shard " << s;
  }
}

TEST(CpuAffinityTest, PinningAnAllowedCoreSucceedsFromAScratchThread) {
  int core = PickShardCore(0);
  if (core < 0) {
    GTEST_SKIP() << "no allowed cores reported";
  }
  bool pinned = false;
  std::thread t([&] { pinned = PinCurrentThreadToCore(core); });
  t.join();
  EXPECT_TRUE(pinned);
}

TEST(CpuAffinityTest, NegativeCoreIsRefused) {
  EXPECT_FALSE(PinCurrentThreadToCore(-1));
}

TEST(CpuAffinityTest, ArmedDenialMakesPinningFail) {
  ScopedPinDenial deny;
  int core = PickShardCore(0);
  bool pinned = true;
  std::thread t([&] { pinned = PinCurrentThreadToCore(core); });
  t.join();
  EXPECT_FALSE(pinned);
}

TEST(CpuAffinityTest, EngineFallsBackUnpinnedWithCountedFailures) {
  // The CI-container scenario: every pin attempt is denied. The async engine must come up
  // unpinned, schedule exactly as the recompute reference, and report one pin failure per
  // shard thread — never crash, never silently succeed.
  ScopedPinDenial deny;
  constexpr size_t kShards = 3;

  AlphaGridPtr grid = AlphaGrid::Default();
  GreedyScheduler async_scheduler(
      GreedyMetric::kDpack, GreedySchedulerOptions{.eta = 0.05,
                                                   .incremental = true,
                                                   .num_shards = kShards,
                                                   .async = true});
  GreedyScheduler recompute(GreedyMetric::kDpack,
                            GreedySchedulerOptions{.eta = 0.05, .incremental = false});

  BlockManager async_blocks(grid, /*eps_g=*/10.0, /*delta_g=*/1e-7);
  BlockManager rec_blocks(grid, /*eps_g=*/10.0, /*delta_g=*/1e-7);
  for (int b = 0; b < 6; ++b) {
    async_blocks.AddBlock(0.0, /*unlocked=*/true);
    rec_blocks.AddBlock(0.0, /*unlocked=*/true);
  }

  RdpCurve capacity = BlockCapacityCurve(grid, 10.0, 1e-7);
  std::vector<Task> pending;
  for (TaskId id = 0; id < 12; ++id) {
    Task task(id, /*weight=*/1.0 + 0.25 * static_cast<double>(id % 4),
              capacity.Scaled(0.05 + 0.01 * static_cast<double>(id % 5)));
    task.arrival_time = 0.0;
    task.blocks = {static_cast<BlockId>(id % 6), static_cast<BlockId>((id + 2) % 6)};
    pending.push_back(std::move(task));
  }

  std::vector<size_t> granted = async_scheduler.ScheduleBatch(pending, async_blocks);
  std::vector<size_t> reference = recompute.ScheduleBatch(pending, rec_blocks);
  EXPECT_EQ(granted, reference);

  ASSERT_NE(async_scheduler.engine(), nullptr);
  const ScheduleContextStats& stats = async_scheduler.engine()->stats();
  EXPECT_EQ(stats.pin_failures, kShards);
  EXPECT_EQ(stats.async_stale_publishes, 0u);
}

}  // namespace
}  // namespace dpack
