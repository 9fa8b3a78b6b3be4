// Differential guard for BestAlphaForBlock's profit-only kernel: every case asserts that it
// returns exactly the order the original sort-based solve returns. The reference below is a
// verbatim copy of that solve (items per usable order through SolveSingleBlock, whose
// uniform-profit branch sorts every requester); the engines' own differential suites cannot
// see a drift here, because their recompute references call the same kernel.

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/block/block_manager.h"
#include "src/common/rng.h"
#include "src/common/worker_pool.h"
#include "src/core/efficiency.h"
#include "src/knapsack/single_dim.h"
#include "src/workload/alibaba.h"
#include "src/workload/curve_pool.h"
#include "src/workload/microbenchmark.h"

namespace dpack {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEta = 0.05;

// The sort-based BestAlphaForBlock, verbatim.
size_t ReferenceBestAlphaForBlock(std::span<const Task> tasks,
                                  std::span<const size_t> requesters,
                                  const RdpCurve& available, double eta) {
  DPACK_CHECK(eta > 0.0);
  size_t num_orders = available.size();
  if (requesters.empty()) {
    // No demand: pick the order with the largest available capacity.
    size_t best = 0;
    for (size_t a = 1; a < num_orders; ++a) {
      if (available.epsilon(a) > available.epsilon(best)) {
        best = a;
      }
    }
    return best;
  }
  double best_value = -1.0;
  size_t best = 0;
  std::vector<KnapsackItem> items;
  items.reserve(requesters.size());
  for (size_t a = 0; a < num_orders; ++a) {
    if (available.epsilon(a) <= 0.0) {
      continue;
    }
    items.clear();
    for (size_t i : requesters) {
      items.push_back({tasks[i].weight, tasks[i].demand.epsilon(a)});
    }
    KnapsackSolution sol = SolveSingleBlock(items, available.epsilon(a), 2.0 / 3.0 * eta);
    if (sol.total_profit > best_value) {
      best_value = sol.total_profit;
      best = a;
    }
  }
  if (best_value < 0.0) {
    // Block fully depleted at every order; keep order 0 (tasks demanding it score 0).
    best = 0;
  }
  return best;
}

std::vector<size_t> AllRequesters(size_t n) {
  std::vector<size_t> requesters(n);
  for (size_t i = 0; i < n; ++i) {
    requesters[i] = i;
  }
  return requesters;
}

// Compares the kernel with the reference over every task in `tasks`; returns the order so
// hand-built cases can also pin the expected answer.
size_t ExpectSameBestAlpha(std::span<const Task> tasks, const RdpCurve& available) {
  std::vector<size_t> requesters = AllRequesters(tasks.size());
  size_t expected = ReferenceBestAlphaForBlock(tasks, requesters, available, kEta);
  EXPECT_EQ(BestAlphaForBlock(tasks, requesters, available, kEta), expected);
  return expected;
}

// Four-order grid for hand-built blocks: each task's demand is given per order.
class BestAlphaKernelTest : public testing::Test {
 protected:
  BestAlphaKernelTest() : grid_(AlphaGrid::Create({2.0, 3.0, 4.0, 8.0})) {}

  // One task per row of `demands` (one value per order), all with `weight`.
  std::vector<Task> Tasks(const std::vector<std::vector<double>>& demands,
                          double weight = 1.0) const {
    std::vector<Task> tasks;
    for (size_t i = 0; i < demands.size(); ++i) {
      tasks.emplace_back(static_cast<TaskId>(i), weight, RdpCurve(grid_, demands[i]));
      tasks.back().blocks = {0};
    }
    return tasks;
  }

  RdpCurve Capacity(std::vector<double> per_order) const {
    return RdpCurve(grid_, std::move(per_order));
  }

  AlphaGridPtr grid_;
};

TEST_F(BestAlphaKernelTest, NoRequestersPicksLargestCapacity) {
  std::vector<Task> none;
  EXPECT_EQ(ExpectSameBestAlpha(none, Capacity({1.0, 3.0, 3.0, 2.0})), 1u);
  EXPECT_EQ(ExpectSameBestAlpha(none, Capacity({0.0, 0.0, 0.0, 0.0})), 0u);
}

TEST_F(BestAlphaKernelTest, TiesStraddlingTheCapacityBoundary) {
  // Order 0: eight tied 0.25s against 1.0 fit four exactly; order 2 fits five 3/16s, and
  // order 3 fits five as well and must lose the tie to order 2.
  std::vector<std::vector<double>> demands(8, {0.25, 0.5, 0.1875, 0.1875});
  EXPECT_EQ(ExpectSameBestAlpha(Tasks(demands), Capacity({1.0, 1.0, 1.0, 1.0})), 2u);
  // Ties at the boundary with distinct values below them.
  demands = {{0.1, 1, 1, 1}, {0.3, 1, 1, 1}, {0.3, 1, 1, 1}, {0.3, 1, 1, 1}, {0.05, 1, 1, 1}};
  EXPECT_EQ(ExpectSameBestAlpha(Tasks(demands), Capacity({0.75, 1.0, 0.5, 0.0})), 0u);
}

TEST_F(BestAlphaKernelTest, ZeroAndInfiniteDemands) {
  std::vector<std::vector<double>> demands = {
      {0.0, kInf, 0.0, 0.5}, {kInf, 0.0, 0.0, 0.5}, {0.0, 0.0, kInf, 0.5}, {0.5, 0.0, kInf, 0.5}};
  // Orders 0 and 1 fit three (every finite demand), order 2 two, order 3 two.
  EXPECT_EQ(ExpectSameBestAlpha(Tasks(demands), Capacity({0.5, 0.5, 1.0, 1.0})), 0u);
  // An infinite capacity admits infinite demands: order 2 then fits all four.
  EXPECT_EQ(ExpectSameBestAlpha(Tasks(demands), Capacity({0.4, 0.4, kInf, 1.0})), 2u);
  // Every demand infinite: nothing fits any finite order.
  demands.assign(3, {kInf, kInf, kInf, kInf});
  EXPECT_EQ(ExpectSameBestAlpha(Tasks(demands), Capacity({0.0, 5.0, 1.0, kInf})), 3u);
}

TEST_F(BestAlphaKernelTest, CapacityExactlyEqualToAPrefixSum) {
  // Ascending, 0.1 + 0.2 + 0.3 rounds to 0.6000000000000001; summed in input order
  // (0.3, 0.2, 0.1) it is exactly 0.6. Order 1's capacity 0.6 therefore fits only two,
  // tying order 0, which wins; an unsorted sum would fit three and pick order 1.
  const double ascending = (0.1 + 0.2) + 0.3;
  ASSERT_NE(ascending, 0.6);
  std::vector<std::vector<double>> demands = {
      {0.3, 0.3, 1, 1}, {0.2, 0.2, 1, 1}, {1.0, 0.1, 1, 1}, {1.0, 0.7, 1, 1}};
  EXPECT_EQ(ExpectSameBestAlpha(Tasks(demands), Capacity({0.5, 0.6, 0.0, 0.0})), 0u);
  // Capacity exactly the ascending prefix sum fits all three.
  EXPECT_EQ(ExpectSameBestAlpha(Tasks(demands), Capacity({0.5, ascending, 0.0, 0.0})), 1u);
  // The same boundary one ulp below and above.
  EXPECT_EQ(ExpectSameBestAlpha(Tasks(demands),
                                Capacity({0.5, std::nextafter(ascending, 0.0), 0.0, 0.0})),
            0u);
  EXPECT_EQ(ExpectSameBestAlpha(Tasks(demands),
                                Capacity({0.5, std::nextafter(ascending, 1.0), 0.0, 0.0})),
            1u);
}

TEST_F(BestAlphaKernelTest, DenormalDemandsAndCapacities) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double two = 2 * tiny;
  const double three = 3 * tiny;
  std::vector<std::vector<double>> demands = {
      {tiny, three, 0.0, two}, {tiny, three, tiny, two}, {three, tiny, tiny, two}};
  // Orders 0, 2 and 3 fit two; order 1 fits all three (tiny + 3 tiny + 3 tiny = 7 tiny).
  EXPECT_EQ(ExpectSameBestAlpha(Tasks(demands), Capacity({2 * tiny, 7 * tiny, tiny, 5 * tiny})),
            1u);
  // Everything fits order 0 (5 tiny), so it wins.
  EXPECT_EQ(ExpectSameBestAlpha(Tasks(demands), Capacity({5 * tiny, 5 * tiny, 2 * tiny, 1.0})),
            0u);
}

TEST_F(BestAlphaKernelTest, AllFitNoneFitAndDepletedOrders) {
  std::vector<std::vector<double>> demands = {{0.1, 0.1, 0.1, 0.1}, {0.2, 0.2, 0.2, 0.2}};
  // All fit at every usable order: the first usable order (order 0 is depleted).
  EXPECT_EQ(ExpectSameBestAlpha(Tasks(demands), Capacity({0.0, 1.0, 1.0, 1.0})), 1u);
  // None fit anywhere: every usable order scores 0, so the first usable one.
  EXPECT_EQ(ExpectSameBestAlpha(Tasks(demands), Capacity({0.0, 0.0, 0.05, 0.01})), 2u);
  // Every order depleted: order 0.
  EXPECT_EQ(ExpectSameBestAlpha(Tasks(demands), Capacity({0.0, 0.0, 0.0, 0.0})), 0u);
}

TEST_F(BestAlphaKernelTest, AllFitOnlyAfterAnOrderMissingOne) {
  // Order 0 fits n - 1 of the requesters; order 2 fits all of them and must win.
  std::vector<std::vector<double>> demands = {
      {0.1, 0.5, 0.1, 0.1}, {0.1, 0.5, 0.1, 0.1}, {0.9, 0.5, 0.1, 0.1}, {0.1, 0.5, 0.1, 0.1}};
  EXPECT_EQ(ExpectSameBestAlpha(Tasks(demands), Capacity({0.5, 1.0, 0.45, 1.0})), 2u);
}

TEST_F(BestAlphaKernelTest, OneRequester) {
  std::vector<std::vector<double>> demands = {{2.0, 0.5, 0.5, 0.1}};
  EXPECT_EQ(ExpectSameBestAlpha(Tasks(demands), Capacity({1.0, 0.4, 0.5, 1.0})), 2u);
  EXPECT_EQ(ExpectSameBestAlpha(Tasks(demands, 7.5), Capacity({1.0, 0.4, 0.4, 0.0})), 0u);
}

TEST_F(BestAlphaKernelTest, ZeroAndInfiniteWeights) {
  std::vector<std::vector<double>> demands = {
      {0.5, 0.1, 0.1, 0.1}, {0.6, 0.1, 0.1, 0.1}, {0.7, 0.1, 0.1, 0.1}};
  // Weight 0: every usable order is worth 0, so the first usable order wins.
  EXPECT_EQ(ExpectSameBestAlpha(Tasks(demands, 0.0), Capacity({0.0, 0.15, 1.0, 1.0})), 1u);
  // Weight +inf: order 0 packs one task (profit inf) and later orders cannot beat inf,
  // even though order 2 packs all three.
  EXPECT_EQ(ExpectSameBestAlpha(Tasks(demands, kInf), Capacity({0.5, 0.0, 1.0, 1.0})), 0u);
}

TEST_F(BestAlphaKernelTest, MixedWeightsTakeTheFptasPath) {
  // Order 0 packs the heavy task alone (weight 10) or two light ones; order 1 packs the
  // three light tasks but not the heavy one. Weighted, order 0 wins (10 > 3); counting
  // cardinality would pick order 1.
  std::vector<Task> tasks = Tasks({{1.0, 2.0, 1, 1}, {0.5, 0.1, 1, 1}, {0.5, 0.1, 1, 1},
                                   {5.0, 0.1, 1, 1}});
  tasks[0].weight = 10.0;
  EXPECT_EQ(ExpectSameBestAlpha(tasks, Capacity({1.0, 1.0, 0.0, 0.0})), 0u);
  // The heavy task moved last: it only fits order 1, which now wins on both counts.
  std::swap(tasks[0].weight, tasks[3].weight);
  EXPECT_EQ(ExpectSameBestAlpha(tasks, Capacity({1.0, 1.0, 0.0, 0.0})), 1u);
}

// Random blocks on the default grid: quantized demands force ties, some demands are 0 or
// exceed capacity, some orders are depleted, and one block in five has mixed weights (kept
// small, since their FPTAS solves cost O(n^2 / eta)).
std::vector<Task> RandomBlock(Rng& rng, const AlphaGridPtr& grid, RdpCurve* available) {
  size_t num_orders = grid->size();
  bool mixed = rng.Bernoulli(0.2);
  size_t n = static_cast<size_t>(rng.UniformInt(1, mixed ? 30 : 300));
  double weight = rng.Bernoulli(0.5) ? 1.0 : rng.Uniform(0.1, 10.0);
  std::vector<Task> tasks;
  std::vector<double> totals(num_orders, 0.0);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> demand(num_orders);
    for (size_t a = 0; a < num_orders; ++a) {
      double u = rng.Uniform();
      if (u < 0.05) {
        demand[a] = 0.0;
      } else if (u < 0.4) {
        demand[a] = 0.125 * static_cast<double>(rng.UniformInt(1, 8));
      } else {
        demand[a] = rng.Uniform(0.0, 1.0);
      }
      totals[a] += demand[a];
    }
    tasks.emplace_back(static_cast<TaskId>(i), mixed ? rng.Uniform(0.1, 10.0) : weight,
                       RdpCurve(grid, std::move(demand)));
  }
  std::vector<double> capacity(num_orders);
  for (size_t a = 0; a < num_orders; ++a) {
    capacity[a] = rng.Bernoulli(0.15) ? 0.0 : rng.Uniform(0.0, 1.1) * totals[a];
  }
  *available = RdpCurve(grid, std::move(capacity));
  return tasks;
}

TEST(BestAlphaKernelRandomTest, SeededRandomBlocks) {
  AlphaGridPtr grid = AlphaGrid::Default();
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    Rng rng(seed);
    RdpCurve available(grid);
    std::vector<Task> tasks = RandomBlock(rng, grid, &available);
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectSameBestAlpha(tasks, available);
    // A requester subset in batch order, as the engines pass it.
    std::vector<size_t> subset;
    for (size_t i = 0; i < tasks.size(); ++i) {
      if (rng.Bernoulli(0.5)) {
        subset.push_back(i);
      }
    }
    EXPECT_EQ(BestAlphaForBlock(tasks, subset, available, kEta),
              ReferenceBestAlphaForBlock(tasks, subset, available, kEta));
  }
}

// Blocks shaped like the paper workloads: requesters grouped per block, compared fresh and
// again after a first-come grant prefix has been committed.
class WorkloadShapedTest : public testing::Test {
 protected:
  WorkloadShapedTest()
      : grid_(AlphaGrid::Default()), pool_(grid_, BlockCapacityCurve(grid_, 10.0, 1e-7)) {}

  static constexpr size_t kBlocks = 40;

  BlockManager UnlockedBlocks() const {
    BlockManager blocks(grid_, 10.0, 1e-7);
    for (size_t j = 0; j < kBlocks; ++j) {
      blocks.AddBlock(0.0, /*unlocked=*/true);
    }
    return blocks;
  }

  static std::vector<std::vector<size_t>> RequestersByBlock(std::span<const Task> tasks) {
    std::vector<std::vector<size_t>> requesters(kBlocks);
    for (size_t i = 0; i < tasks.size(); ++i) {
      for (BlockId j : tasks[i].blocks) {
        requesters[static_cast<size_t>(j)].push_back(i);
      }
    }
    return requesters;
  }

  static void ExpectSameOnEveryBlock(std::span<const Task> tasks, const BlockManager& blocks) {
    std::vector<std::vector<size_t>> requesters = RequestersByBlock(tasks);
    for (size_t j = 0; j < kBlocks; ++j) {
      RdpCurve available = blocks.block(static_cast<BlockId>(j)).AvailableCurve();
      SCOPED_TRACE("block " + std::to_string(j));
      EXPECT_EQ(BestAlphaForBlock(tasks, requesters[j], available, kEta),
                ReferenceBestAlphaForBlock(tasks, requesters[j], available, kEta));
    }
  }

  // Grants tasks first-come until `grants` are committed and returns the rest, pending.
  static std::vector<Task> CommitGrantPrefix(std::span<const Task> tasks, size_t grants,
                                             BlockManager& blocks) {
    std::vector<Task> pending;
    size_t granted = 0;
    for (const Task& task : tasks) {
      bool fits = granted < grants;
      for (BlockId j : task.blocks) {
        fits = fits && blocks.block(j).CanAccept(task.demand);
      }
      if (fits) {
        for (BlockId j : task.blocks) {
          blocks.block(j).Commit(task.demand);
        }
        ++granted;
      } else {
        pending.push_back(task);
      }
    }
    EXPECT_EQ(granted, grants);
    return pending;
  }

  void CheckFreshAndAfterGrants(std::span<const Task> tasks, size_t grants) {
    BlockManager blocks = UnlockedBlocks();
    ExpectSameOnEveryBlock(tasks, blocks);
    std::vector<Task> pending = CommitGrantPrefix(tasks, grants, blocks);
    ExpectSameOnEveryBlock(pending, blocks);
  }

  AlphaGridPtr grid_;
  CurvePool pool_;
};

TEST_F(WorkloadShapedTest, Microbenchmark) {
  // First-come admission packs far fewer of the larger demands.
  for (auto [eps_min, grants] : {std::pair{0.001, 150}, std::pair{0.05, 50}}) {
    MicrobenchmarkConfig config;
    config.num_tasks = 4000;
    config.num_blocks = kBlocks;
    config.mu_blocks = 10.0;
    config.sigma_blocks = 5.0;
    config.sigma_alpha = 4.0;
    config.eps_min = eps_min;
    config.seed = 9;
    SCOPED_TRACE("eps_min " + std::to_string(eps_min));
    CheckFreshAndAfterGrants(GenerateMicrobenchmark(pool_, config), grants);
  }
}

TEST_F(WorkloadShapedTest, AlibabaDp) {
  AlibabaConfig config;
  config.num_tasks = 4000;
  config.arrival_span = static_cast<double>(kBlocks);
  config.seed = 11;
  std::vector<Task> tasks = GenerateAlibabaDp(pool_, config);
  // Each task requests its most recent blocks as of its arrival.
  for (Task& task : tasks) {
    size_t newest = std::min(kBlocks - 1, static_cast<size_t>(task.arrival_time));
    size_t count = std::min(task.num_recent_blocks, newest + 1);
    for (size_t j = newest + 1 - count; j <= newest; ++j) {
      task.blocks.push_back(static_cast<BlockId>(j));
    }
  }
  CheckFreshAndAfterGrants(tasks, 300);
}

TEST(BestAlphaKernelConcurrencyTest, PoolThreadsSolveBlocksConcurrently) {
  AlphaGridPtr grid = AlphaGrid::Default();
  constexpr size_t kNumBlocks = 64;
  std::vector<std::vector<Task>> blocks(kNumBlocks);
  std::vector<RdpCurve> available(kNumBlocks, RdpCurve(grid));
  std::vector<size_t> expected(kNumBlocks);
  for (size_t b = 0; b < kNumBlocks; ++b) {
    Rng rng(1000 + b);
    blocks[b] = RandomBlock(rng, grid, &available[b]);
    expected[b] = ReferenceBestAlphaForBlock(blocks[b], AllRequesters(blocks[b].size()),
                                             available[b], kEta);
  }
  WorkerPool pool(4);
  for (int round = 0; round < 4; ++round) {
    std::vector<size_t> got(kNumBlocks, kNumBlocks);
    pool.ParallelFor(kNumBlocks, [&](size_t b) {
      got[b] = BestAlphaForBlock(blocks[b], AllRequesters(blocks[b].size()), available[b], kEta);
    });
    EXPECT_EQ(got, expected);
  }
}

}  // namespace
}  // namespace dpack
