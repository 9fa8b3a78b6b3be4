// The "num_shards == 0 means auto" convention has exactly one definition (ResolveNumShards)
// and exactly one application point (OnlineScheduler's constructor). Pin both: the rule
// itself on every machine via the hardware_hint override, and the funnel — a driver built
// with 0 exposes the resolved count through config() and its engine's stats, so no
// downstream reader (snapshot metadata, orchestrator results) ever sees a 0.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "src/block/block_manager.h"
#include "src/common/cpu_affinity.h"
#include "src/core/online_scheduler.h"
#include "src/core/scheduler.h"
#include "src/workload/curve_pool.h"

namespace dpack {
namespace {

TEST(NumShardsResolutionTest, ExplicitRequestWinsVerbatim) {
  EXPECT_EQ(ResolveNumShards(7, 3), 7u);
  EXPECT_EQ(ResolveNumShards(1, 0), 1u);
  EXPECT_EQ(ResolveNumShards(64, 1, /*hardware_hint=*/2), 64u);
}

TEST(NumShardsResolutionTest, AutoIsHardwareCappedByKnownBlocks) {
  EXPECT_EQ(ResolveNumShards(0, 3, /*hardware_hint=*/16), 3u);   // Block-bound.
  EXPECT_EQ(ResolveNumShards(0, 100, /*hardware_hint=*/4), 4u);  // Hardware-bound.
  EXPECT_EQ(ResolveNumShards(0, 4, /*hardware_hint=*/4), 4u);    // Exact fit.
}

TEST(NumShardsResolutionTest, AutoNeverResolvesBelowOne) {
  // An empty manager (every fresh simulation: the driver is built before blocks arrive)
  // resolves to 1, exactly as an explicit 1 would — never 0.
  EXPECT_EQ(ResolveNumShards(0, 0, /*hardware_hint=*/8), 1u);
  EXPECT_EQ(ResolveNumShards(0, 1, /*hardware_hint=*/8), 1u);
  // hardware_concurrency() may report 0 ("unknown"); the rule still floors at 1.
  EXPECT_GE(ResolveNumShards(0, 5), 1u);
}

TEST(NumShardsResolutionTest, AutoHonoursTheCallingThreadsCpuset) {
  // Auto resolves from the allowed cpuset, not the machine's core count: a thread pinned
  // to one core (as under `taskset -c 0`) resolves to a single shard however many cores
  // the host has.
  std::vector<int> allowed = AllowedCores();
  if (allowed.empty()) {
    GTEST_SKIP() << "cpuset unreadable on this platform";
  }
  EXPECT_EQ(ResolveNumShards(0, 100), std::min<size_t>(allowed.size(), 100));
  bool pinned = false;
  size_t resolved = 0;
  std::thread restricted([&] {
    pinned = PinCurrentThreadToCore(allowed[0]);
    resolved = ResolveNumShards(0, 100);
  });
  restricted.join();
  ASSERT_TRUE(pinned);
  EXPECT_EQ(resolved, 1u);
}

TEST(NumShardsResolutionTest, DriverConstructorIsTheResolutionPoint) {
  AlphaGridPtr grid = AlphaGrid::Default();
  BlockManager blocks(grid, /*eps_g=*/10.0, /*delta_g=*/1e-7);
  for (int b = 0; b < 3; ++b) {
    blocks.AddBlock(0.0, /*unlocked=*/true);
  }

  OnlineSchedulerConfig config;
  config.num_shards = 0;  // Auto.
  OnlineScheduler online(std::make_unique<GreedyScheduler>(GreedyMetric::kDpack), &blocks,
                         config);

  size_t resolved = online.config().num_shards;
  EXPECT_EQ(resolved, ResolveNumShards(0, blocks.block_count()));
  EXPECT_GE(resolved, 1u);
  EXPECT_LE(resolved, 3u);  // Never more shards than blocks known at construction.

  // The resolved count was actually pushed into the scheduler, not just recorded: the
  // engine's stats report the same shard count (ScheduleContext defaults to 1, the sharded
  // engines stamp theirs at construction).
  ASSERT_NE(online.context_stats(), nullptr);
  EXPECT_EQ(online.context_stats()->shards, resolved);
}

TEST(NumShardsResolutionTest, ExplicitConfigPassesThroughTheDriver) {
  AlphaGridPtr grid = AlphaGrid::Default();
  BlockManager blocks(grid, /*eps_g=*/10.0, /*delta_g=*/1e-7);
  blocks.AddBlock(0.0, /*unlocked=*/true);

  OnlineSchedulerConfig config;
  config.num_shards = 5;  // Explicit: wins even though only one block exists.
  OnlineScheduler online(std::make_unique<GreedyScheduler>(GreedyMetric::kDpack), &blocks,
                         config);
  EXPECT_EQ(online.config().num_shards, 5u);
  ASSERT_NE(online.context_stats(), nullptr);
  EXPECT_EQ(online.context_stats()->shards, 5u);
}

}  // namespace
}  // namespace dpack
