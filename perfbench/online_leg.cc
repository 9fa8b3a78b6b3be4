#include "perfbench/online_leg.h"

#include <algorithm>
#include <memory>

#include "src/core/online_scheduler.h"
#include "src/rdp/alpha_grid.h"

namespace perfbench {

OnlineLeg RunOnlineLeg(const dpack::SimConfig& sim, const std::vector<Step>& plan,
                       std::vector<dpack::Task> tasks, Tracer& tracer) {
  dpack::AlphaGridPtr grid = sim.grid != nullptr ? sim.grid : dpack::AlphaGrid::Default();
  dpack::BlockManager blocks(grid, sim.eps_g, sim.delta_g);
  dpack::OnlineSchedulerConfig config;
  config.period = sim.period;
  config.unlock_steps = sim.unlock_steps;
  config.fair_share_n = sim.fair_share_n;
  config.admission_queue_capacity = sim.admission_queue_capacity;

  std::unique_ptr<dpack::Scheduler> scheduler =
      dpack::CreateScheduler(dpack::SchedulerKind::kDpack);
  TracingScheduler* tracing = nullptr;
  if (tracer.enabled()) {
    auto wrapper = std::make_unique<TracingScheduler>(std::move(scheduler), tracer);
    tracing = wrapper.get();
    scheduler = std::move(wrapper);
  }
  dpack::OnlineScheduler online(std::move(scheduler), &blocks, config);
  // The wrapper hides the engine from the OnlineScheduler's own resolution step; repeat it.
  dpack::Scheduler& engine_owner = tracing != nullptr ? tracing->inner() : online.inner();
  if (tracing != nullptr) {
    if (auto* greedy = dynamic_cast<dpack::GreedyScheduler*>(&engine_owner)) {
      greedy->set_num_shards(online.config().num_shards);
      if (online.config().async) {
        greedy->set_async(true);
      }
    }
  }

  OnlineLeg leg;
  CpuTimes cpu_before = ReadCpuTimes();
  leg.record = ReplayInProcess(online, blocks, plan, std::move(tasks), tracer,
                               SpanNames{"replay.online", "core.submit", "core.run_cycle"});
  leg.cpu_s = CpuSecondsBetween(cpu_before, ReadCpuTimes());
  if (const dpack::ScheduleContextStats* stats = EngineStats(engine_owner)) {
    leg.stats = *stats;
    leg.shards = stats->shards;
  }
  leg.hot_at_end = blocks.hot_count();
  leg.retired_at_end = blocks.retired_count();
  leg.budget_violations = CountBudgetViolations(blocks);
  return leg;
}

void AddCoreLayerMetrics(Report& report, const Tracer& tracer,
                         const std::vector<OnlineLeg>& legs) {
  report.AddSummary("core.run_cycle_ms", tracer.Durations("core.run_cycle"), 1e3);
  report.AddSummary("core.schedule_batch_ms", tracer.Durations("core.schedule_batch"), 1e3);
  std::vector<double> self = tracer.SelfTimes("core.run_cycle");
  report.Add("core.cycle_self_ms_p50", Median(self) * 1e3, self.size());
  std::vector<double> submit = tracer.Durations("core.submit");
  report.Add("core.submit_us_p50", Median(submit) * 1e6, submit.size());

  std::vector<double> pending;
  double cycles = 0.0, rescored = 0.0, reused = 0.0, best_alpha = 0.0, refreshed = 0.0;
  for (const OnlineLeg& leg : legs) {
    pending.insert(pending.end(), leg.record.pending.begin(), leg.record.pending.end());
    cycles += static_cast<double>(leg.record.cycle_s.size());
    rescored += static_cast<double>(leg.stats.tasks_rescored);
    reused += static_cast<double>(leg.stats.tasks_reused);
    best_alpha += static_cast<double>(leg.stats.best_alpha_recomputes);
    refreshed += static_cast<double>(leg.stats.blocks_refreshed);
  }
  report.Add("core.pending_p50", Median(pending), pending.size());
  report.Add("core.pending_max",
             pending.empty() ? 0.0 : *std::max_element(pending.begin(), pending.end()),
             pending.size());
  size_t n = static_cast<size_t>(cycles);
  double per_cycle = cycles > 0.0 ? 1.0 / cycles : 0.0;
  report.Add("core.tasks_rescored_per_cycle", rescored * per_cycle, n);
  report.Add("core.tasks_reused_per_cycle", reused * per_cycle, n);
  report.Add("core.reuse_ratio", rescored + reused > 0.0 ? reused / (rescored + reused) : 0.0,
             n);
  report.Add("core.best_alpha_recomputes_per_cycle", best_alpha * per_cycle, n);
  report.Add("block.blocks_refreshed_per_cycle", refreshed * per_cycle, n);
  if (!legs.empty()) {
    report.Add("core.shards", static_cast<double>(legs.back().shards));
    report.Add("block.hot_at_end", static_cast<double>(legs.back().hot_at_end));
    report.Add("block.retired_at_end", static_cast<double>(legs.back().retired_at_end));
  }
}

}  // namespace perfbench
