// offline_micro: the paper's §6.2 microbenchmark run offline at scale. 20 000 tasks over 200
// fully unlocked blocks; every repetition is one cold ScheduleBatch on a fresh default DPack
// scheduler — the empty-cache shape of a restarted daemon's first cycle. Every task is
// scored from scratch, so the score cache cannot help and engine parallelism can.

#include <memory>
#include <vector>

#include "perfbench/perfbench.h"
#include "perfbench/replay.h"
#include "src/core/scheduler.h"
#include "src/workload/microbenchmark.h"

namespace perfbench {

namespace {

constexpr size_t kTasks = 20'000;
constexpr size_t kBlocks = 200;

// The offline system: kBlocks fully unlocked blocks. With `add_block_s`, times each
// AddBlock — the offline input handed over before a batch (the tasks arrive as its span).
dpack::BlockManager UnlockedBlocks(std::vector<double>* add_block_s = nullptr) {
  dpack::BlockManager blocks(dpack::AlphaGrid::Default(), kEpsG, kDeltaG);
  for (size_t b = 0; b < kBlocks; ++b) {
    Clock::time_point t0 = Clock::now();
    blocks.AddBlock(0.0, /*unlocked=*/true);
    if (add_block_s != nullptr) {
      add_block_s->push_back(SecondsBetween(t0, Clock::now()));
    }
  }
  return blocks;
}

struct Batch {
  std::vector<double> add_block_s;
  double batch_s = 0.0;  // ScheduleBatch.
  double cpu_s = 0.0;    // CPU of ScheduleBatch.
  std::vector<size_t> granted;
  dpack::ScheduleContextStats stats;
  size_t hot_at_end = 0;
  size_t retired_at_end = 0;
  size_t budget_violations = 0;
};

Batch RunBatch(const std::vector<dpack::Task>& tasks, Tracer& tracer) {
  Batch batch;
  dpack::BlockManager blocks = UnlockedBlocks(&batch.add_block_s);
  std::unique_ptr<dpack::Scheduler> scheduler =
      dpack::CreateScheduler(dpack::SchedulerKind::kDpack);

  dpack::Scheduler* engine_owner = scheduler.get();
  if (tracer.enabled()) {
    scheduler = std::make_unique<TracingScheduler>(std::move(scheduler), tracer);
  }
  CpuTimes cpu_before = ReadCpuTimes();
  Clock::time_point t2 = Clock::now();
  {
    ScopedSpan span(tracer, "replay.offline");
    batch.granted = scheduler->ScheduleBatch(tasks, blocks);
  }
  batch.batch_s = SecondsBetween(t2, Clock::now());
  batch.cpu_s = CpuSecondsBetween(cpu_before, ReadCpuTimes());
  if (const dpack::ScheduleContextStats* stats = EngineStats(*engine_owner)) {
    batch.stats = *stats;
  }
  batch.hot_at_end = blocks.hot_count();
  batch.retired_at_end = blocks.retired_count();
  batch.budget_violations = CountBudgetViolations(blocks);
  return batch;
}

void CheckBatch(Report& report, const std::string& label, const Batch& batch,
                const std::vector<size_t>& reference) {
  ++report.attempted;
  if (batch.granted != reference) {
    ++report.failed;
    report.Fail(label + ": grants differ from the recompute reference (" +
                std::to_string(batch.granted.size()) + " vs " +
                std::to_string(reference.size()) + ")");
  }
  if (batch.budget_violations > 0) {
    report.Fail(label + ": " + std::to_string(batch.budget_violations) +
                " blocks exceed their budget at every order");
  }
}

}  // namespace

Report RunOfflineMicro(const Options& options) {
  Report report;
  SetupTimes setup;
  std::unique_ptr<dpack::CurvePool> pool;
  std::vector<dpack::Task> tasks = TimedSetup(&setup, &pool, [&](const dpack::CurvePool& p) {
    dpack::MicrobenchmarkConfig config;
    config.num_tasks = kTasks;
    config.num_blocks = kBlocks;
    config.mu_blocks = 10.0;
    config.sigma_blocks = 5.0;
    config.sigma_alpha = 4.0;
    config.eps_min = 0.001;
    config.seed = options.seed;
    return dpack::GenerateMicrobenchmark(p, config);
  });

  // The correctness reference: the recompute path the differential tests compare against.
  std::vector<size_t> reference;
  {
    dpack::BlockManager blocks = UnlockedBlocks();
    dpack::GreedySchedulerOptions recompute;
    recompute.incremental = false;
    reference = dpack::GreedyScheduler(dpack::GreedyMetric::kDpack, recompute)
                    .ScheduleBatch(tasks, blocks);
  }

  Tracer untraced(false);
  Tracer traced(true);
  std::vector<Batch> plain;
  std::vector<Batch> traced_batches;
  double peak_rss_mb = 0.0;  // Read after the first batch, so it does not grow with run length.
  Clock::time_point start = Clock::now();
  while (KeepMeasuring(start, options.seconds, plain.size(), MinSamplesForTail(0.9))) {
    plain.push_back(RunBatch(tasks, untraced));
    CheckBatch(report, "offline_micro batch", plain.back(), reference);
    peak_rss_mb = peak_rss_mb > 0.0 ? peak_rss_mb : PeakRssMib();
    if (options.trace) {
      traced.set_run(static_cast<uint32_t>(traced_batches.size()));
      traced_batches.push_back(RunBatch(tasks, traced));
      CheckBatch(report, "offline_micro traced batch", traced_batches.back(), reference);
    }
  }
  report.shards = plain.back().stats.shards;

  std::vector<double> batch_s, add_block_s, cpu_s, tasks_per_s;
  for (const Batch& batch : plain) {
    add_block_s.insert(add_block_s.end(), batch.add_block_s.begin(), batch.add_block_s.end());
    batch_s.push_back(batch.batch_s);
    cpu_s.push_back(batch.cpu_s);
    tasks_per_s.push_back(static_cast<double>(kTasks) / batch.batch_s);
  }
  if (!options.trace) {
    report.Add("setup_s", Median(setup.total_s), setup.total_s.size());
    report.Add("tasks_per_s", Median(tasks_per_s), tasks_per_s.size());
    report.AddSummary("cycle_ms", batch_s, 1e3);
    report.AddSummary("submit_ms", add_block_s, 1e3, 0.95);
    report.Add("cpu_s", Median(cpu_s), cpu_s.size());
    report.Add("peak_rss_mb", peak_rss_mb);
    report.Add("tasks_granted", static_cast<double>(reference.size()), plain.size());
    return report;
  }

  AddSetupLayerMetrics(report, setup);
  report.AddSummary("core.schedule_batch_ms", traced.Durations("core.schedule_batch"), 1e3);
  double rescored = 0.0, reused = 0.0, best_alpha = 0.0, refreshed = 0.0;
  std::vector<double> traced_wall;
  for (const Batch& batch : traced_batches) {
    rescored += static_cast<double>(batch.stats.tasks_rescored);
    reused += static_cast<double>(batch.stats.tasks_reused);
    best_alpha += static_cast<double>(batch.stats.best_alpha_recomputes);
    refreshed += static_cast<double>(batch.stats.blocks_refreshed);
    traced_wall.push_back(batch.batch_s);
  }
  double n = static_cast<double>(traced_batches.size());
  report.Add("core.pending_p50", static_cast<double>(kTasks));
  report.Add("core.pending_max", static_cast<double>(kTasks));
  report.Add("core.tasks_rescored_per_cycle", rescored / n, traced_batches.size());
  report.Add("core.tasks_reused_per_cycle", reused / n, traced_batches.size());
  report.Add("core.reuse_ratio", rescored + reused > 0.0 ? reused / (rescored + reused) : 0.0,
             traced_batches.size());
  report.Add("core.best_alpha_recomputes_per_cycle", best_alpha / n, traced_batches.size());
  report.Add("core.shards", static_cast<double>(traced_batches.back().stats.shards));
  report.Add("block.blocks_refreshed_per_cycle", refreshed / n, traced_batches.size());
  report.Add("block.hot_at_end", static_cast<double>(traced_batches.back().hot_at_end));
  report.Add("block.retired_at_end", static_cast<double>(traced_batches.back().retired_at_end));
  if (traced_batches.back().stats.shards != report.shards) {
    report.Fail("offline_micro: traced engine has " +
                std::to_string(traced_batches.back().stats.shards) + " shards, untraced " +
                std::to_string(report.shards));
  }
  AddTraceMetrics(report, traced, traced_wall, batch_s);
  if (!traced.WriteCsv(options.run_dir + "/trace_offline_micro.csv")) {
    report.Note("could not write the span dump");
  }
  return report;
}

}  // namespace perfbench
