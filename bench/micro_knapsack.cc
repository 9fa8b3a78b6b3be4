// Component microbenchmarks (google-benchmark): single-dimension knapsack solvers, the
// best-alpha kernel, and the exact privacy-knapsack branch-and-bound. Quantifies the solver
// choices src/knapsack/single_dim.h and src/README.md ("Best-alpha kernel") describe: the
// max-cardinality fast path vs FPTAS vs greedy, one block's COMPUTE_BESTALPHA with equal
// and with mixed weights, FPTAS cost vs eta, and the B&B's growth with instance size.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace dpack::bench {
namespace {

std::vector<KnapsackItem> RandomItems(size_t n, bool uniform_profits, uint64_t seed) {
  Rng rng(seed);
  std::vector<KnapsackItem> items;
  items.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    items.push_back({uniform_profits ? 1.0 : rng.Uniform(1.0, 100.0), rng.Uniform(0.0, 1.0)});
  }
  return items;
}

void BM_MaxCardinality(benchmark::State& state) {
  auto items = RandomItems(static_cast<size_t>(state.range(0)), true, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MaxCardinalityKnapsack(items, 10.0));
  }
}
BENCHMARK(BM_MaxCardinality)->Arg(100)->Arg(1000)->Arg(10000);

void BM_GreedyDensity(benchmark::State& state) {
  auto items = RandomItems(static_cast<size_t>(state.range(0)), false, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GreedyDensityKnapsack(items, 10.0));
  }
}
BENCHMARK(BM_GreedyDensity)->Arg(100)->Arg(1000)->Arg(10000);

void BM_FptasEtaSweep(benchmark::State& state) {
  auto items = RandomItems(200, false, 3);
  double eta = 1.0 / static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(FptasKnapsack(items, 10.0, eta));
  }
}
BENCHMARK(BM_FptasEtaSweep)->Arg(2)->Arg(10)->Arg(50);

void BM_ExactSingleDim(benchmark::State& state) {
  auto items = RandomItems(static_cast<size_t>(state.range(0)), false, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExactKnapsack(items, 5.0));
  }
}
BENCHMARK(BM_ExactSingleDim)->Arg(20)->Arg(50)->Arg(100);

// One block's COMPUTE_BESTALPHA over n requesters on the default grid. Demands are uniform
// in [0, 1) per order and every order holds 0.05 n, so about a third of the requesters fit
// and every order is solved (no order fits them all).
void BestAlphaForBlockBench(benchmark::State& state, bool uniform_weights) {
  AlphaGridPtr grid = AlphaGrid::Default();
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(6);
  std::vector<Task> tasks;
  std::vector<size_t> requesters;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> demand(grid->size());
    for (double& d : demand) {
      d = rng.Uniform(0.0, 1.0);
    }
    tasks.emplace_back(static_cast<TaskId>(i), uniform_weights ? 1.0 : rng.Uniform(1.0, 100.0),
                       RdpCurve(grid, std::move(demand)));
    requesters.push_back(i);
  }
  RdpCurve available(grid, std::vector<double>(grid->size(), 0.05 * static_cast<double>(n)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BestAlphaForBlock(tasks, requesters, available, 0.05));
  }
}

void BM_BestAlphaForBlockUniform(benchmark::State& state) { BestAlphaForBlockBench(state, true); }
BENCHMARK(BM_BestAlphaForBlockUniform)->Arg(100)->Arg(1000)->Arg(10000);

void BM_BestAlphaForBlockWeighted(benchmark::State& state) { BestAlphaForBlockBench(state, false); }
BENCHMARK(BM_BestAlphaForBlockWeighted)->Arg(100)->Arg(1000)->Arg(10000);

PkInstance RandomInstance(size_t tasks, size_t blocks, size_t orders, uint64_t seed) {
  Rng rng(seed);
  PkInstance instance;
  instance.num_blocks = blocks;
  instance.num_orders = orders;
  instance.capacity.assign(blocks * orders, 3.0);
  for (size_t i = 0; i < tasks; ++i) {
    PkTask task;
    task.weight = 1.0;
    size_t k = static_cast<size_t>(rng.UniformInt(1, static_cast<int64_t>(blocks)));
    task.blocks = rng.SampleWithoutReplacement(blocks, k);
    task.demand.resize(orders);
    for (double& d : task.demand) {
      d = rng.Uniform(0.05, 1.0);
    }
    instance.tasks.push_back(std::move(task));
  }
  return instance;
}

void BM_PrivacyKnapsackExact(benchmark::State& state) {
  PkInstance instance =
      RandomInstance(static_cast<size_t>(state.range(0)), 4, 4, 5);
  PkOptions options;
  options.time_limit_seconds = 5.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolvePrivacyKnapsackExact(instance, options));
  }
}
BENCHMARK(BM_PrivacyKnapsackExact)->Arg(20)->Arg(40)->Arg(60)->Unit(benchmark::kMillisecond);

void BM_SubsampledGaussianCurve(benchmark::State& state) {
  AlphaGridPtr grid = AlphaGrid::Default();
  for (auto _ : state) {
    benchmark::DoNotOptimize(SubsampledGaussianCurve(grid, 1.5, 0.01));
  }
}
BENCHMARK(BM_SubsampledGaussianCurve);

}  // namespace
}  // namespace dpack::bench
