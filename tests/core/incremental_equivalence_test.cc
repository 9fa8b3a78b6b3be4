// Differential suite for the incremental scheduling engine: across randomized online
// traces ScheduleContext at several shard counts (synchronous, and as the async
// per-shard-thread subclass) must grant exactly the same task sets as the
// recompute-everything reference path, for every greedy metric. The traces exercise
// the full protocol the caches depend on: commits (via grants), stepwise budget unlocking,
// online block arrival, task arrival and eviction, late block resolution, and weighted as
// well as uniform-weight batches.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/block/block_manager.h"
#include "src/common/rng.h"
#include "src/core/scheduler.h"
#include "src/sim/sim_driver.h"
#include "src/workload/curve_pool.h"
#include "src/workload/microbenchmark.h"

namespace dpack {
namespace {

constexpr double kEpsG = 10.0;
constexpr double kDeltaG = 1e-7;

AlphaGridPtr Grid() { return AlphaGrid::Default(); }

struct TraceOptions {
  uint64_t seed = 1;
  size_t cycles = 40;
  size_t initial_blocks = 3;     // Unlocked at t = 0.
  size_t online_blocks = 20;     // One arrives per cycle, locked, unlocking over time.
  int64_t unlock_steps = 10;
  double max_tasks_per_cycle = 4.0;
  bool weighted = false;         // Random weights (FPTAS path) vs all-1 (max-cardinality).
  double evict_probability = 0.1;  // Per-cycle chance of dropping one random pending task.
  double unresolved_probability = 0.1;  // Tasks arriving before resolving their blocks.
  // Incremental engines under test, one ScheduleContext per shard count (1 runs inline, more
  // run on a worker pool). Every engine must produce byte-identical grants to the
  // recompute reference each cycle.
  std::vector<size_t> shard_counts = {1};
  // Run the engines as AsyncScheduleEngine (persistent per-shard scheduler threads with
  // snapshot publication + quiesce) instead of the synchronous drivers. Applies to every
  // shard count, including 1.
  bool async = false;
};

// Runs the same randomized trace through the recompute reference and one incremental engine
// per requested shard count, each operating on identically-constructed block managers,
// asserting identical grants every cycle.
void RunDifferentialTrace(GreedyMetric metric, const TraceOptions& options) {
  GreedyScheduler recompute(metric, GreedySchedulerOptions{.eta = 0.05, .incremental = false});
  BlockManager rec_blocks(Grid(), kEpsG, kDeltaG);
  std::vector<std::unique_ptr<GreedyScheduler>> engines;
  std::vector<std::unique_ptr<BlockManager>> engine_blocks;
  for (size_t shards : options.shard_counts) {
    engines.push_back(std::make_unique<GreedyScheduler>(
        metric, GreedySchedulerOptions{.eta = 0.05,
                                       .incremental = true,
                                       .num_shards = shards,
                                       .async = options.async}));
    engine_blocks.push_back(std::make_unique<BlockManager>(Grid(), kEpsG, kDeltaG));
  }
  for (size_t b = 0; b < options.initial_blocks; ++b) {
    rec_blocks.AddBlock(0.0, /*unlocked=*/true);
    for (auto& blocks : engine_blocks) {
      blocks->AddBlock(0.0, /*unlocked=*/true);
    }
  }

  Rng rng(options.seed);
  RdpCurve capacity = BlockCapacityCurve(Grid(), kEpsG, kDeltaG);
  std::vector<Task> pending;
  TaskId next_id = 0;

  for (size_t cycle = 0; cycle < options.cycles; ++cycle) {
    double now = static_cast<double>(cycle);
    // Online block arrival: one per cycle while the arrival process lasts.
    if (cycle > 0 && cycle <= options.online_blocks) {
      rec_blocks.AddBlock(now);
      for (auto& blocks : engine_blocks) {
        blocks->AddBlock(now);
      }
    }
    rec_blocks.UpdateUnlocks(now, 1.0, options.unlock_steps);
    for (auto& blocks : engine_blocks) {
      blocks->UpdateUnlocks(now, 1.0, options.unlock_steps);
    }

    // Late resolution: unresolved tasks pick up the most recent blocks once any exist.
    for (Task& task : pending) {
      if (task.blocks.empty() && task.num_recent_blocks > 0) {
        task.blocks = rec_blocks.MostRecentBlocks(task.num_recent_blocks);
      }
    }

    // Random eviction (timeout stand-in): drops a pending task without any commit, so only
    // the membership signatures can catch it.
    if (!pending.empty() && rng.Bernoulli(options.evict_probability)) {
      size_t victim = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(pending.size()) - 1));
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(victim));
    }

    // New arrivals.
    int64_t arrivals = rng.UniformInt(0, static_cast<int64_t>(options.max_tasks_per_cycle));
    for (int64_t k = 0; k < arrivals; ++k) {
      double weight = options.weighted ? rng.Uniform(0.5, 8.0) : 1.0;
      Task task(next_id++, weight, capacity.Scaled(rng.Uniform(0.02, 0.5)));
      task.arrival_time = now;
      if (rng.Bernoulli(options.unresolved_probability)) {
        task.num_recent_blocks = static_cast<size_t>(rng.UniformInt(1, 3));
      } else {
        size_t count = static_cast<size_t>(
            rng.UniformInt(1, std::min<int64_t>(4, static_cast<int64_t>(
                                                       rec_blocks.block_count()))));
        for (size_t idx : rng.SampleWithoutReplacement(rec_blocks.block_count(), count)) {
          task.blocks.push_back(static_cast<BlockId>(idx));
        }
      }
      pending.push_back(std::move(task));
    }

    std::vector<size_t> rec_granted = recompute.ScheduleBatch(pending, rec_blocks);
    for (size_t e = 0; e < engines.size(); ++e) {
      std::vector<size_t> granted = engines[e]->ScheduleBatch(pending, *engine_blocks[e]);
      ASSERT_EQ(granted, rec_granted)
          << "metric=" << static_cast<int>(metric) << " seed=" << options.seed
          << " cycle=" << cycle << " shards=" << options.shard_counts[e];
    }

    // Retire grants exactly as OnlineScheduler does (order-preserving compaction).
    std::vector<bool> taken(pending.size(), false);
    for (size_t idx : rec_granted) {
      taken[idx] = true;
    }
    std::vector<Task> rest;
    rest.reserve(pending.size());
    for (size_t i = 0; i < pending.size(); ++i) {
      if (!taken[i]) {
        rest.push_back(std::move(pending[i]));
      }
    }
    pending = std::move(rest);
  }

  // Every manager consumed bit-identical budget.
  for (size_t e = 0; e < engines.size(); ++e) {
    ASSERT_EQ(engine_blocks[e]->block_count(), rec_blocks.block_count());
    for (size_t j = 0; j < rec_blocks.block_count(); ++j) {
      const RdpCurve& a = engine_blocks[e]->block(static_cast<BlockId>(j)).consumed();
      const RdpCurve& b = rec_blocks.block(static_cast<BlockId>(j)).consumed();
      for (size_t alpha = 0; alpha < a.size(); ++alpha) {
        ASSERT_EQ(a.epsilon(alpha), b.epsilon(alpha))
            << "shards=" << options.shard_counts[e] << " block " << j << " order " << alpha;
      }
    }
  }

  // The traces must have actually exercised the caches, not fallen back every cycle.
  for (size_t e = 0; e < engines.size(); ++e) {
    ASSERT_NE(engines[e]->engine(), nullptr);
    const ScheduleContextStats& stats = engines[e]->engine()->stats();
    // FCFS never scores, so its scheduler stays on one synchronous shard.
    size_t expected_shards = metric == GreedyMetric::kFcfs ? 1 : options.shard_counts[e];
    EXPECT_EQ(stats.shards, expected_shards);
    EXPECT_EQ(stats.full_recomputes, 0u);
    if (metric != GreedyMetric::kFcfs) {
      EXPECT_GT(stats.tasks_reused, 0u);
    }
    if (options.async && metric != GreedyMetric::kFcfs) {
      // The cycle protocol was honored, so no publication may ever fail quiesce validation.
      EXPECT_EQ(stats.async_stale_publishes, 0u);
      EXPECT_EQ(stats.async_wasted_rescores, 0u);
      // DPF scores read only total capacities, so every DPF rescore is an early
      // (pre-fence) one; the capacity-aware metrics early-score at most what they rescore.
      if (metric == GreedyMetric::kDpf) {
        EXPECT_EQ(stats.async_early_scores, stats.tasks_rescored);
      } else {
        EXPECT_LE(stats.async_early_scores, stats.tasks_rescored);
      }
    } else {
      EXPECT_EQ(stats.async_early_scores, 0u);
    }
  }
}

class IncrementalEquivalenceTest : public testing::TestWithParam<GreedyMetric> {};

TEST_P(IncrementalEquivalenceTest, UniformWeightTraces) {
  for (uint64_t seed : {1u, 7u, 23u}) {
    TraceOptions options;
    options.seed = seed;
    options.weighted = false;
    RunDifferentialTrace(GetParam(), options);
  }
}

TEST_P(IncrementalEquivalenceTest, WeightedTraces) {
  for (uint64_t seed : {5u, 11u}) {
    TraceOptions options;
    options.seed = seed;
    options.weighted = true;
    RunDifferentialTrace(GetParam(), options);
  }
}

TEST_P(IncrementalEquivalenceTest, ShardedTracesMatchMonolithic) {
  // The shard-count acceptance sweep: byte-identical grant sequences across the whole
  // randomized protocol for every shard count, including a count (7) that does not divide
  // the block or task population evenly.
  TraceOptions options;
  options.seed = 17;
  options.shard_counts = {1, 2, 4, 7};
  RunDifferentialTrace(GetParam(), options);
}

TEST_P(IncrementalEquivalenceTest, AsyncTracesMatchMonolithic) {
  // The async engine's acceptance sweep (ISSUE 3): byte-identical grant sequences from the
  // persistent per-shard scheduler threads across the whole randomized protocol, for every
  // shard count including one that divides nothing evenly.
  TraceOptions options;
  options.seed = 17;
  options.shard_counts = {1, 2, 4, 7};
  options.async = true;
  RunDifferentialTrace(GetParam(), options);
}

TEST_P(IncrementalEquivalenceTest, AsyncWeightedHighContention) {
  // Weighted scoring under heavy contention on the async engine: most of the queue persists
  // across cycles while grants keep dirtying the few contended blocks, maximizing the
  // cross-shard (post-fence) scoring traffic.
  TraceOptions options;
  options.seed = 29;
  options.weighted = true;
  options.initial_blocks = 2;
  options.online_blocks = 3;
  options.max_tasks_per_cycle = 8.0;
  options.cycles = 50;
  options.shard_counts = {4};
  options.async = true;
  RunDifferentialTrace(GetParam(), options);
}

TEST_P(IncrementalEquivalenceTest, ShardedWeightedHighContention) {
  // Weighted scoring (FPTAS best-alpha path) under heavy contention, 4 shards: most of the
  // queue persists across cycles while grants keep dirtying the few contended blocks.
  TraceOptions options;
  options.seed = 29;
  options.weighted = true;
  options.initial_blocks = 2;
  options.online_blocks = 3;
  options.max_tasks_per_cycle = 8.0;
  options.cycles = 50;
  options.shard_counts = {4};
  RunDifferentialTrace(GetParam(), options);
}

TEST_P(IncrementalEquivalenceTest, HighContentionTrace) {
  // Few blocks, many tasks: most of the queue stays pending, maximizing cache reuse while
  // grants keep dirtying the contended blocks.
  TraceOptions options;
  options.seed = 13;
  options.initial_blocks = 2;
  options.online_blocks = 3;
  options.max_tasks_per_cycle = 8.0;
  options.cycles = 50;
  RunDifferentialTrace(GetParam(), options);
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, IncrementalEquivalenceTest,
                         testing::Values(GreedyMetric::kDpack, GreedyMetric::kDpf,
                                         GreedyMetric::kArea, GreedyMetric::kFcfs),
                         [](const testing::TestParamInfo<GreedyMetric>& param_info) {
                           switch (param_info.param) {
                             case GreedyMetric::kDpack:
                               return "DPack";
                             case GreedyMetric::kDpf:
                               return "DPF";
                             case GreedyMetric::kArea:
                               return "Area";
                             case GreedyMetric::kFcfs:
                               return "FCFS";
                           }
                           return "unknown";
                         });

// End-to-end: the full simulator pipeline (OnlineScheduler + sim driver + microbenchmark
// workload) reports identical allocation outcomes for both engines.
TEST(IncrementalEquivalenceTest, SimulatorEndToEndMatchesRecompute) {
  CurvePool pool(Grid(), BlockCapacityCurve(Grid(), kEpsG, kDeltaG));
  MicrobenchmarkConfig workload;
  workload.num_tasks = 150;
  workload.num_blocks = 10;
  workload.mu_blocks = 3.0;
  workload.sigma_blocks = 2.0;
  workload.sigma_alpha = 3.0;
  workload.eps_min = 0.05;
  workload.seed = 3;

  for (GreedyMetric metric : {GreedyMetric::kDpack, GreedyMetric::kDpf, GreedyMetric::kArea,
                              GreedyMetric::kFcfs}) {
    std::vector<Task> tasks = GenerateMicrobenchmark(pool, workload);
    // Spread arrivals so multiple cycles run with a persistent queue, and switch the
    // offline-style explicit block lists to online-style most-recent requests (the offline
    // ids may not have arrived yet when the task does).
    for (size_t i = 0; i < tasks.size(); ++i) {
      tasks[i].arrival_time = static_cast<double>(i % 20);
      tasks[i].num_recent_blocks = std::max<size_t>(1, tasks[i].blocks.size() % 4);
      tasks[i].blocks.clear();
    }
    SimConfig sim;
    sim.num_blocks = 10;
    sim.unlock_steps = 10;

    SimResult inc = RunOnlineSimulation(
        std::make_unique<GreedyScheduler>(
            metric, GreedySchedulerOptions{.eta = 0.05, .incremental = true}),
        tasks, sim);
    SimResult rec = RunOnlineSimulation(
        std::make_unique<GreedyScheduler>(
            metric, GreedySchedulerOptions{.eta = 0.05, .incremental = false}),
        tasks, sim);
    SimConfig sharded_sim = sim;
    sharded_sim.num_shards = 4;  // Resharded through the SimConfig knob.
    SimResult sharded = RunOnlineSimulation(
        std::make_unique<GreedyScheduler>(
            metric, GreedySchedulerOptions{.eta = 0.05, .incremental = true}),
        tasks, sharded_sim);
    SimConfig async_sim = sharded_sim;
    async_sim.async = true;  // Async per-shard threads through the SimConfig knob.
    SimResult async = RunOnlineSimulation(
        std::make_unique<GreedyScheduler>(
            metric, GreedySchedulerOptions{.eta = 0.05, .incremental = true}),
        tasks, async_sim);

    EXPECT_EQ(inc.metrics.allocated(), rec.metrics.allocated());
    EXPECT_EQ(inc.metrics.allocated_weight(), rec.metrics.allocated_weight());
    EXPECT_EQ(inc.pending_at_end, rec.pending_at_end);
    EXPECT_EQ(sharded.metrics.allocated(), rec.metrics.allocated());
    EXPECT_EQ(sharded.metrics.allocated_weight(), rec.metrics.allocated_weight());
    EXPECT_EQ(sharded.pending_at_end, rec.pending_at_end);
    EXPECT_EQ(async.metrics.allocated(), rec.metrics.allocated());
    EXPECT_EQ(async.metrics.allocated_weight(), rec.metrics.allocated_weight());
    EXPECT_EQ(async.pending_at_end, rec.pending_at_end);
    if (metric != GreedyMetric::kFcfs) {
      EXPECT_EQ(sharded.scheduler_stats.shards, 4u);
      EXPECT_EQ(async.scheduler_stats.shards, 4u);
      EXPECT_EQ(async.scheduler_stats.async_stale_publishes, 0u);
    }
  }
}

}  // namespace
}  // namespace dpack
