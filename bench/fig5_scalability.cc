// Fig. 5 reproduction (Q2): scheduler runtime (a) and efficiency (b) under increasing load,
// single-threaded, offline. Microbenchmark with sigma_alpha = 4, mu_blocks = 1,
// sigma_blocks = 10, eps_min = 0.01, 7 available blocks.
// Expected shape: Optimal hits a tractability wall after a few hundred tasks (the paper
// stops its line at 200 because Gurobi "never finishes"); DPack runs slightly slower than
// DPF (it solves single-block knapsacks) but both stay practical; DPack matches Optimal
// while it lasts and plateaus as the task pool saturates.

#include <chrono>
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"

namespace dpack::bench {
namespace {

struct RunOutcome {
  size_t allocated = 0;
  double seconds = 0.0;
  bool proven_optimal = true;
};

RunOutcome RunOne(SchedulerKind kind, const std::vector<Task>& tasks, double time_limit) {
  SimConfig sim;
  sim.num_blocks = 7;
  PkOptions options;
  options.time_limit_seconds = time_limit;
  std::unique_ptr<Scheduler> scheduler = CreateScheduler(kind, 0.05, options);
  auto start = std::chrono::steady_clock::now();
  SimResult result = RunOfflineSchedule(*scheduler, tasks, sim);
  RunOutcome outcome;
  outcome.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  outcome.allocated = result.metrics.allocated();
  if (auto* optimal = dynamic_cast<OptimalScheduler*>(scheduler.get())) {
    outcome.proven_optimal = optimal->last_solve_optimal();
  }
  return outcome;
}

void Run(Scale scale) {
  double f = ScaleFactor(scale);
  const double optimal_time_limit = 20.0;
  // Optimal is dropped from the sweep once it fails to prove optimality in the time limit,
  // mirroring the paper's "its execution never finishes" cutoff at 200 tasks.
  bool optimal_alive = true;

  CsvTable table({"submitted", "Optimal_alloc", "DPack_alloc", "DPF_alloc", "Optimal_s",
                  "DPack_s", "DPF_s"});
  for (size_t n : {50, 100, 200, 500, 1000, 2000, 5000}) {
    size_t num_tasks = static_cast<size_t>(static_cast<double>(n) * f);
    if (num_tasks == 0) {
      continue;
    }
    MicrobenchmarkConfig config;
    config.num_tasks = num_tasks;
    config.num_blocks = 7;
    config.mu_blocks = 1.0;
    config.sigma_blocks = 10.0;
    config.sigma_alpha = 4.0;
    config.eps_min = 0.01;
    config.seed = 7;
    std::vector<Task> tasks = GenerateMicrobenchmark(SharedPool(), config);

    RunOutcome dpack = RunOne(SchedulerKind::kDpack, tasks, optimal_time_limit);
    RunOutcome dpf = RunOne(SchedulerKind::kDpf, tasks, optimal_time_limit);
    RunOutcome optimal;
    std::string optimal_alloc = "-";
    std::string optimal_seconds = "-";
    if (optimal_alive) {
      optimal = RunOne(SchedulerKind::kOptimal, tasks, optimal_time_limit);
      if (optimal.proven_optimal) {
        optimal_alloc = std::to_string(optimal.allocated);
        optimal_seconds = FormatDouble(optimal.seconds);
      } else {
        optimal_alloc = "timeout";
        optimal_seconds = ">" + FormatDouble(optimal_time_limit);
        optimal_alive = false;  // The intractability wall: stop the line here.
      }
    }
    table.NewRow()
        .Add(num_tasks)
        .Add(optimal_alloc)
        .Add(dpack.allocated)
        .Add(dpf.allocated)
        .Add(optimal_seconds)
        .Add(dpack.seconds)
        .Add(dpf.seconds);
  }
  table.Print("Fig. 5: allocated tasks and scheduler runtime vs offered load (7 blocks)");
}

// --- Incremental engine vs recompute baseline (§6.4 Q4) -----------------------------------
//
// Steady-state online trace (bench_util's SteadyStateTasks, shared with micro_scheduler's
// BM_*Steady* so both harnesses measure the same scenario): a persistent queue of oversized
// (never-granted) pending tasks is rescheduled every cycle while exactly 1 of 20 blocks
// (5%) receives a commit between cycles. The recompute baseline rescores the whole queue
// every cycle; the incremental engine rescores only tasks touching the dirtied block. Same
// grants by construction (see tests/core/incremental_equivalence_test.cc); this measures
// the cycle-time win.

double SteadyStateMsPerCycle(GreedyMetric metric, bool incremental,
                             const std::vector<Task>& tasks, size_t num_blocks,
                             size_t cycles, size_t num_shards = 1, bool async = false,
                             ScheduleContextStats* stats_out = nullptr) {
  BlockManager blocks(AlphaGrid::Default(), kEpsG, kDeltaG);
  for (size_t b = 0; b < num_blocks; ++b) {
    blocks.AddBlock(0.0, /*unlocked=*/true);
  }
  RdpCurve tiny = SteadyStateTinyDemand();
  GreedyScheduler scheduler(metric, GreedySchedulerOptions{.incremental = incremental,
                                                           .num_shards = num_shards,
                                                           .async = async});
  scheduler.ScheduleBatch(tasks, blocks);  // Warm-up: measure the steady state.
  ScheduleContextStats at_entry;
  if (scheduler.engine() != nullptr) {
    at_entry = scheduler.engine()->stats();
  }
  double seconds = 0.0;
  for (size_t c = 0; c < cycles; ++c) {
    blocks.block(static_cast<BlockId>(c % num_blocks)).Commit(tiny);  // 1/20 dirty.
    auto start = std::chrono::steady_clock::now();
    scheduler.ScheduleBatch(tasks, blocks);
    seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  }
  if (stats_out != nullptr && scheduler.engine() != nullptr) {
    // The timed loop's counter deltas: deterministic for the fixed workload and cycle
    // count, unlike the wall time — the CI regression gate compares these.
    *stats_out = scheduler.engine()->stats().Delta(at_entry);
  }
  return 1e3 * seconds / static_cast<double>(cycles);
}

void RunIncrementalComparison(Scale scale) {
  double f = ScaleFactor(scale);
  size_t num_tasks = static_cast<size_t>(1000.0 * f);
  if (num_tasks == 0) {
    return;
  }
  constexpr size_t kBlocks = kSteadyStateBlocks;
  constexpr size_t kCycles = 20;
  std::vector<Task> tasks = SteadyStateTasks(num_tasks);
  CsvTable table({"metric", "recompute_ms", "incremental_ms", "speedup"});
  for (GreedyMetric metric : {GreedyMetric::kDpack, GreedyMetric::kDpf, GreedyMetric::kArea}) {
    double recompute_ms = SteadyStateMsPerCycle(metric, false, tasks, kBlocks, kCycles);
    double incremental_ms = SteadyStateMsPerCycle(metric, true, tasks, kBlocks, kCycles);
    GreedyScheduler named(metric);
    table.NewRow()
        .Add(named.name())
        .Add(FormatDouble(recompute_ms))
        .Add(FormatDouble(incremental_ms))
        .Add(FormatDouble(recompute_ms / incremental_ms));
  }
  table.Print("Fig. 5 addendum: per-cycle cost, incremental engine vs recompute (" +
              std::to_string(num_tasks) + " pending tasks, 5% blocks dirty per cycle)");
}

// --- Shard-count sweep (sharded engine on the same steady-state regime) -------------------
//
// ShardedScheduleContext partitions blocks and tasks across N shards and rescoring across a
// worker pool; grants are byte-identical to the single-shard engine (pinned by the sharded
// differential suite). This sweep reports per-cycle cost per shard count and the speedup
// over 1 shard. The parallel phases scale with the cores actually available — a single-core
// host measures only the pool's coordination overhead.

void RunShardSweep(Scale scale) {
  double f = ScaleFactor(scale);
  size_t num_tasks = static_cast<size_t>(1000.0 * f);
  if (num_tasks == 0) {
    return;
  }
  constexpr size_t kBlocks = kSteadyStateBlocks;
  constexpr size_t kCycles = 20;
  std::vector<Task> tasks = SteadyStateTasks(num_tasks);
  CsvTable table({"metric", "shards_1_ms", "shards_2_ms", "shards_4_ms", "speedup_4x"});
  for (GreedyMetric metric : {GreedyMetric::kDpack, GreedyMetric::kDpf, GreedyMetric::kArea}) {
    double ms1 = SteadyStateMsPerCycle(metric, true, tasks, kBlocks, kCycles, 1);
    double ms2 = SteadyStateMsPerCycle(metric, true, tasks, kBlocks, kCycles, 2);
    double ms4 = SteadyStateMsPerCycle(metric, true, tasks, kBlocks, kCycles, 4);
    GreedyScheduler named(metric);
    table.NewRow()
        .Add(named.name())
        .Add(FormatDouble(ms1))
        .Add(FormatDouble(ms2))
        .Add(FormatDouble(ms4))
        .Add(FormatDouble(ms1 / ms4));
  }
  table.Print("Fig. 5 addendum: per-cycle cost vs shard count, sharded engine (" +
              std::to_string(num_tasks) + " pending tasks, 5% blocks dirty per cycle)");
}

// --- Async engine sweep (per-shard scheduler threads, same steady-state regime) -----------
//
// AsyncScheduleEngine replaces the fork-join cycle with persistent per-shard scheduler
// threads: rescoring overlaps the other shards' block refreshes (the early-score share
// below), and a cycle only merges the published heap snapshots and walks CANRUN. Grants
// stay byte-identical (async differential suite). On a single-core host the sweep measures
// only the dispatch/fence/publication overhead.

void RunAsyncSweep(Scale scale) {
  double f = ScaleFactor(scale);
  size_t num_tasks = static_cast<size_t>(1000.0 * f);
  if (num_tasks == 0) {
    return;
  }
  constexpr size_t kBlocks = kSteadyStateBlocks;
  constexpr size_t kCycles = 20;
  std::vector<Task> tasks = SteadyStateTasks(num_tasks);
  CsvTable table({"metric", "async_1_ms", "async_2_ms", "async_4_ms", "sync_4_ms",
                  "early_score_share_4"});
  for (GreedyMetric metric : {GreedyMetric::kDpack, GreedyMetric::kDpf, GreedyMetric::kArea}) {
    ScheduleContextStats stats4;
    double a1 = SteadyStateMsPerCycle(metric, true, tasks, kBlocks, kCycles, 1, true);
    double a2 = SteadyStateMsPerCycle(metric, true, tasks, kBlocks, kCycles, 2, true);
    double a4 = SteadyStateMsPerCycle(metric, true, tasks, kBlocks, kCycles, 4, true,
                                      &stats4);
    double s4 = SteadyStateMsPerCycle(metric, true, tasks, kBlocks, kCycles, 4);
    double early_share =
        stats4.tasks_rescored > 0
            ? static_cast<double>(stats4.async_early_scores) /
                  static_cast<double>(stats4.tasks_rescored)
            : 0.0;
    GreedyScheduler named(metric);
    table.NewRow()
        .Add(named.name())
        .Add(FormatDouble(a1))
        .Add(FormatDouble(a2))
        .Add(FormatDouble(a4))
        .Add(FormatDouble(s4))
        .Add(FormatDouble(early_share));
  }
  table.Print("Fig. 5 addendum: per-cycle cost, async per-shard scheduler threads (" +
              std::to_string(num_tasks) + " pending tasks, 5% blocks dirty per cycle)");
}

// --- Deterministic counter dump for the CI regression gate (--json <path>) ----------------
//
// Emits the steady-state engine counters in the same {"benchmarks": [...]} shape as
// google-benchmark's JSON so scripts/check_bench_regression.py can gate both artifacts with
// one parser. Only counters are compared by the gate; the *_ms fields ride along for
// humans. Counters are exact functions of (workload seed, task count, cycle count, engine),
// so they are stable across machines — unlike wall time on shared runners.

bool DumpCountersJson(Scale scale, const std::string& path) {
  double f = ScaleFactor(scale);
  size_t num_tasks = static_cast<size_t>(1000.0 * f);
  if (num_tasks == 0) {
    return true;
  }
  constexpr size_t kBlocks = kSteadyStateBlocks;
  constexpr size_t kCycles = 20;
  std::vector<Task> tasks = SteadyStateTasks(num_tasks);
  struct Leg {
    const char* label;
    size_t shards;
    bool async;
  };
  // The async legs' ring/pin counters are exact (one publish per shard per cycle, zero
  // retries, zero pin failures — PickShardCore only returns allowed cores), so the gate
  // pins the publication protocol itself.
  const Leg legs[] = {
      {"sync", 1, false},
      {"sync", 4, false},
      {"async", 1, true},
      {"async", 4, true},
  };
  std::vector<BenchJsonEntry> entries;
  for (GreedyMetric metric : {GreedyMetric::kDpack, GreedyMetric::kDpf, GreedyMetric::kArea}) {
    GreedyScheduler named(metric);
    for (const Leg& leg : legs) {
      ScheduleContextStats stats;
      double ms = SteadyStateMsPerCycle(metric, true, tasks, kBlocks, kCycles, leg.shards,
                                        leg.async, &stats);
      BenchJsonEntry entry{
          "fig5_steady/" + named.name() + "/" + leg.label +
              "/shards:" + std::to_string(leg.shards),
          {{"wall_ms", ms},
           {"rescored_per_cycle", static_cast<double>(stats.tasks_rescored) / kCycles},
           {"reused_per_cycle", static_cast<double>(stats.tasks_reused) / kCycles},
           {"blocks_refreshed_per_cycle",
            static_cast<double>(stats.blocks_refreshed) / kCycles},
           {"best_alpha_per_cycle",
            static_cast<double>(stats.best_alpha_recomputes) / kCycles},
           {"early_scores_per_cycle",
            static_cast<double>(stats.async_early_scores) / kCycles},
           {"full_recomputes", static_cast<double>(stats.full_recomputes)}}};
      if (leg.async) {
        entry.fields.emplace_back(
            "ring_publishes_per_cycle",
            static_cast<double>(stats.ring_publishes) / kCycles);
        entry.fields.emplace_back("ring_retries",
                                  static_cast<double>(stats.ring_retries));
        entry.fields.emplace_back("pin_failures",
                                  static_cast<double>(stats.pin_failures));
      }
      entries.push_back(std::move(entry));
    }
  }
  return WriteBenchCountersJson(path, entries);
}

std::string ParseJsonPath(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      return argv[i + 1];
    }
  }
  return "";
}

}  // namespace
}  // namespace dpack::bench

int main(int argc, char** argv) {
  using namespace dpack::bench;
  Banner("Fig. 5: scalability under increasing load", "paper §6.2, Q2");
  Scale scale = ParseScale(argc, argv);
  std::string json_path = ParseJsonPath(argc, argv);
  if (!json_path.empty()) {
    // Counter-dump mode (the CI regression gate): only the JSON consumer exists, so skip
    // the human-readable sweeps — they would re-measure the same legs for nobody. A
    // failed dump must fail this step, not the gate step two steps later.
    return DumpCountersJson(scale, json_path) ? 0 : 1;
  }
  Run(scale);
  RunIncrementalComparison(scale);
  RunShardSweep(scale);
  RunAsyncSweep(scale);
  return 0;
}
