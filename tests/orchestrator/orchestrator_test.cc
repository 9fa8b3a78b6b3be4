#include "src/orchestrator/cluster_orchestrator.h"

#include <gtest/gtest.h>

#include "src/rdp/rdp_curve.h"
#include "src/sim/sim_driver.h"

namespace dpack {
namespace {

AlphaGridPtr Grid() { return AlphaGrid::Default(); }

Task FractionTask(TaskId id, double fraction, size_t recent, double arrival) {
  RdpCurve capacity = BlockCapacityCurve(Grid(), 10.0, 1e-7);
  Task t(id, 1.0, capacity.Scaled(fraction));
  t.num_recent_blocks = recent;
  t.arrival_time = arrival;
  return t;
}

OrchestratorConfig FastConfig() {
  OrchestratorConfig config;
  config.offline_blocks = 2;
  config.online_blocks = 3;
  config.period = 1.0;
  config.unlock_steps = 2;
  config.virtual_unit_wall_ms = 2.0;
  config.store_latency_us = 10.0;
  return config;
}

TEST(OrchestratorOfflineTest, SchedulesAndTimesThePass) {
  ClusterOrchestrator orchestrator(CreateScheduler(SchedulerKind::kDpack), FastConfig());
  std::vector<Task> tasks;
  for (int i = 0; i < 20; ++i) {
    tasks.push_back(FractionTask(i, 0.05, 2, 0.0));
  }
  OrchestratorRunResult result = orchestrator.RunOfflinePass(std::move(tasks));
  EXPECT_EQ(result.metrics.submitted(), 20u);
  EXPECT_EQ(result.metrics.allocated(), 20u);
  EXPECT_GT(result.metrics.total_runtime_seconds(), 0.0);
  // Claim creation (20) + cycle ops (4) + per-grant ops (3 x 20).
  EXPECT_EQ(result.store_operations, 20u + 4u + 60u);
}

TEST(OrchestratorOfflineTest, StoreLatencyDominatesRuntime) {
  // The Q4 observation: with a slow store, the pass runtime is mostly store traffic.
  OrchestratorConfig config = FastConfig();
  config.store_latency_us = 2000.0;  // 2 ms per op.
  ClusterOrchestrator orchestrator(CreateScheduler(SchedulerKind::kDpack), config);
  std::vector<Task> tasks;
  for (int i = 0; i < 10; ++i) {
    tasks.push_back(FractionTask(i, 0.01, 1, 0.0));
  }
  OrchestratorRunResult result = orchestrator.RunOfflinePass(std::move(tasks));
  // Timed region: 4 cycle ops + 30 grant ops = 68 ms of injected latency minimum.
  EXPECT_GE(result.metrics.total_runtime_seconds(), 0.06);
}

TEST(OrchestratorOfflineTest, SecondRunReusesRestoredScheduler) {
  // Regression: Run* moved the scheduler into the run's online driver and never took it
  // back, so a second run on the same orchestrator dereferenced a moved-from (null)
  // scheduler. The scheduler is now restored (with its engine caches invalidated) after
  // every run.
  ClusterOrchestrator orchestrator(CreateScheduler(SchedulerKind::kDpack), FastConfig());
  for (int run = 0; run < 2; ++run) {
    std::vector<Task> tasks;
    for (int i = 0; i < 10; ++i) {
      tasks.push_back(FractionTask(run * 100 + i, 0.05, 2, 0.0));
    }
    OrchestratorRunResult result = orchestrator.RunOfflinePass(std::move(tasks));
    EXPECT_EQ(result.metrics.submitted(), 10u) << "run " << run;
    EXPECT_EQ(result.metrics.allocated(), 10u) << "run " << run;
    // Engine counters are per run, not lifetime: the restored scheduler's engine keeps its
    // monotonic totals, but each result reports only its own run's single pass.
    EXPECT_EQ(result.scheduler_stats.cycles, 1u) << "run " << run;
  }
}

TEST(OrchestratorOnlineTest, OnlineThenOfflineReusesRestoredScheduler) {
  ClusterOrchestrator orchestrator(CreateScheduler(SchedulerKind::kDpf), FastConfig());
  std::vector<Task> online_tasks;
  for (int i = 0; i < 8; ++i) {
    online_tasks.push_back(FractionTask(i, 0.02, 1, 0.0));
  }
  OrchestratorRunResult online = orchestrator.RunOnline(std::move(online_tasks));
  EXPECT_EQ(online.metrics.submitted(), 8u);

  std::vector<Task> offline_tasks;
  for (int i = 0; i < 8; ++i) {
    offline_tasks.push_back(FractionTask(100 + i, 0.02, 1, 0.0));
  }
  OrchestratorRunResult offline = orchestrator.RunOfflinePass(std::move(offline_tasks));
  EXPECT_EQ(offline.metrics.submitted(), 8u);
  EXPECT_EQ(offline.metrics.allocated(), 8u);
}

TEST(OrchestratorOnlineTest, ProcessesWorkloadEndToEnd) {
  ClusterOrchestrator orchestrator(CreateScheduler(SchedulerKind::kDpack), FastConfig());
  std::vector<Task> tasks;
  for (int i = 0; i < 30; ++i) {
    tasks.push_back(FractionTask(i, 0.02, 2, static_cast<double>(i % 3)));
  }
  OrchestratorRunResult result = orchestrator.RunOnline(std::move(tasks));
  EXPECT_EQ(result.metrics.submitted(), 30u);
  EXPECT_EQ(result.metrics.allocated(), 30u);  // Ample budget.
  EXPECT_GT(result.cycles, 0u);
  EXPECT_GT(result.store_operations, 30u);
}

TEST(OrchestratorOnlineTest, DelaysRecordedInVirtualTime) {
  OrchestratorConfig config = FastConfig();
  config.unlock_steps = 3;
  // Online blocks only: with a fully unlocked offline block present, the outcome would
  // depend on whether the producer's claim reaches the first cycle (resolving to that block
  // and granting at once) or a later one (resolving to an online block).
  config.offline_blocks = 0;
  ClusterOrchestrator orchestrator(CreateScheduler(SchedulerKind::kDpack), config);
  // One task needing the full budget of one block: it must wait for the block to arrive and
  // unlock, so it is granted at least one period after its arrival.
  std::vector<Task> tasks = {FractionTask(0, 0.95, 1, 0.0)};
  OrchestratorRunResult result = orchestrator.RunOnline(std::move(tasks));
  ASSERT_EQ(result.metrics.allocated(), 1u);
  EXPECT_GE(result.metrics.delays().Quantile(0.5), 1.0);
}

TEST(OrchestratorOnlineTest, EmptyTaskVectorShutsDownCleanly) {
  // Shutdown-path coverage: with nothing to submit the producer finishes immediately and
  // the run must still advance the clock, release online blocks, cycle the scheduler, and
  // join the timekeeper without hanging.
  ClusterOrchestrator orchestrator(CreateScheduler(SchedulerKind::kDpack), FastConfig());
  OrchestratorRunResult result = orchestrator.RunOnline({});
  EXPECT_EQ(result.metrics.submitted(), 0u);
  EXPECT_EQ(result.metrics.allocated(), 0u);
  EXPECT_GT(result.cycles, 0u);
  EXPECT_GT(result.store_operations, 0u);  // Per-cycle traffic only.
}

TEST(OrchestratorOnlineTest, ZeroOnlineBlocksRunsOnOfflineBlocksOnly) {
  // Shutdown-path coverage: with no online block arrivals the timekeeper's release counter
  // stays pinned at zero and the horizon is driven by task arrivals and unlocking alone.
  OrchestratorConfig config = FastConfig();
  config.online_blocks = 0;
  ClusterOrchestrator orchestrator(CreateScheduler(SchedulerKind::kDpack), config);
  std::vector<Task> tasks;
  for (int i = 0; i < 6; ++i) {
    tasks.push_back(FractionTask(i, 0.02, 2, static_cast<double>(i % 2)));
  }
  OrchestratorRunResult result = orchestrator.RunOnline(std::move(tasks));
  EXPECT_EQ(result.metrics.submitted(), 6u);
  EXPECT_EQ(result.metrics.allocated(), 6u);  // Ample budget on the offline blocks.
}

TEST(OrchestratorOnlineTest, ShardedSchedulerMatchesMonolithic) {
  // The num_shards/async knobs flow through the orchestrator into the scheduler's engine,
  // and multi-shard and async engines allocate exactly what one synchronous shard does.
  auto run = [](size_t num_shards, bool async) {
    OrchestratorConfig config = FastConfig();
    config.num_shards = num_shards;
    config.async = async;
    std::vector<Task> tasks;
    for (int i = 0; i < 20; ++i) {
      tasks.push_back(FractionTask(i, 0.03, 2, static_cast<double>(i % 3)));
    }
    ClusterOrchestrator orchestrator(CreateScheduler(SchedulerKind::kDpack), config);
    return orchestrator.RunOnline(std::move(tasks));
  };
  OrchestratorRunResult mono = run(1, false);
  OrchestratorRunResult sharded = run(3, false);
  OrchestratorRunResult async = run(3, true);
  EXPECT_EQ(sharded.metrics.allocated(), mono.metrics.allocated());
  EXPECT_EQ(sharded.metrics.allocated_weight(), mono.metrics.allocated_weight());
  EXPECT_EQ(sharded.scheduler_stats.shards, 3u);
  EXPECT_EQ(mono.scheduler_stats.shards, 1u);
  EXPECT_EQ(async.metrics.allocated(), mono.metrics.allocated());
  EXPECT_EQ(async.metrics.allocated_weight(), mono.metrics.allocated_weight());
  EXPECT_EQ(async.scheduler_stats.shards, 3u);
  // Run-scoped deltas stay clean: the async run never tripped quiesce or fell back.
  EXPECT_EQ(async.scheduler_stats.async_stale_publishes, 0u);
  EXPECT_EQ(async.scheduler_stats.full_recomputes, 0u);
}

// Heterogeneous contention (Fig. 1 style), all arriving at t=0: three tasks spanning the
// three most recent blocks against nine single-block tasks spread over blocks 0-2. Two
// multi-block tasks, or one per block with one single-block task each, exhaust a block.
std::vector<Task> ContentionTasks() {
  std::vector<Task> tasks;
  RdpCurve capacity = BlockCapacityCurve(Grid(), 10.0, 1e-7);
  for (int i = 0; i < 12; ++i) {
    bool multi = i % 4 == 0;
    Task t(i, 1.0, capacity.Scaled(multi ? 0.45 : 0.55));
    if (multi) {
      t.num_recent_blocks = 3;
    } else {
      t.blocks = {static_cast<BlockId>(i % 3)};
    }
    t.arrival_time = 0.0;
    tasks.push_back(t);
  }
  return tasks;
}

TEST(OrchestratorOnlineTest, DpackAllocatesAtLeastAsMuchAsDpfUnderContention) {
  // The policy comparison runs in virtual time (the simulation driver), so its outcome
  // cannot depend on where a wall-paced timekeeper happens to be when a cycle runs. Blocks
  // arrive as in the orchestrator config (3 at t=0, then one per period) and unlock over 2
  // steps. On this workload DPack grants 4 tasks and DPF 2.
  auto run = [](SchedulerKind kind) {
    SimConfig config;
    config.block_arrival_times = {0.0, 0.0, 0.0, 1.0, 2.0};
    config.period = 1.0;
    config.unlock_steps = 2;
    SimResult result = RunOnlineSimulation(CreateScheduler(kind), ContentionTasks(), config);
    return result.metrics.allocated();
  };
  size_t dpack = run(SchedulerKind::kDpack);
  size_t dpf = run(SchedulerKind::kDpf);
  EXPECT_GE(dpack, dpf);
  EXPECT_LT(dpf, 12u);  // There is contention to resolve.
}

TEST(OrchestratorOnlineTest, ContentionWorkloadRunsToCompletion) {
  // Liveness of the threaded, wall-paced path on the same workload: every claim is
  // submitted, the run cycles and grants, and it terminates. (Which tasks win depends on
  // wall-clock pacing here, so no policy comparison.)
  for (SchedulerKind kind : {SchedulerKind::kDpack, SchedulerKind::kDpf}) {
    OrchestratorConfig config = FastConfig();
    config.offline_blocks = 3;
    config.online_blocks = 2;
    ClusterOrchestrator orchestrator(CreateScheduler(kind), config);
    OrchestratorRunResult result = orchestrator.RunOnline(ContentionTasks());
    EXPECT_EQ(result.metrics.submitted(), 12u) << SchedulerKindName(kind);
    EXPECT_GE(result.metrics.allocated(), 1u) << SchedulerKindName(kind);
    EXPECT_GT(result.cycles, 0u) << SchedulerKindName(kind);
  }
}

}  // namespace
}  // namespace dpack
