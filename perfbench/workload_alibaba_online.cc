// alibaba_online: the paper's macrobenchmark (§6.3). 20 000 Alibaba-DP tasks over a 90-block
// arrival window, scheduled online by DPack with T = 1 and N = 50, replayed in virtual time
// (a closed loop: the next event is issued when the previous call returns). The queue grows
// to thousands of pending tasks and every cycle unlocks another 1/N of each block, so cycles
// are rescore-heavy while still reusing part of the score cache: the core engine does
// nearly all the work.

#include <memory>
#include <vector>

#include "perfbench/online_leg.h"
#include "perfbench/perfbench.h"
#include "perfbench/replay.h"
#include "src/core/scheduler.h"
#include "src/sim/sim_driver.h"
#include "src/workload/alibaba.h"

namespace perfbench {

namespace {

constexpr size_t kTasks = 20'000;
constexpr size_t kBlocks = 90;

void CheckLeg(Report& report, const std::string& label, const OnlineLeg& leg,
              const dpack::SimResult& reference) {
  CheckGrantTrace(report, label, leg.record.grant_trace, reference.grant_trace);
  if (leg.record.granted != reference.metrics.allocated()) {
    report.Fail(label + ": granted " + std::to_string(leg.record.granted) + " tasks, reference " +
                std::to_string(reference.metrics.allocated()));
  }
  if (leg.budget_violations > 0) {
    report.Fail(label + ": " + std::to_string(leg.budget_violations) +
                " blocks exceed their budget at every order");
  }
  if (leg.shards != reference.scheduler_stats.shards) {
    report.Fail(label + ": engine resolved " + std::to_string(leg.shards) +
                " shards, the reference run " +
                std::to_string(reference.scheduler_stats.shards));
  }
  report.attempted += leg.record.cycle_s.size();
  report.failed += leg.record.rejected;
}

}  // namespace

Report RunAlibabaOnline(const Options& options) {
  Report report;
  SetupTimes setup;
  std::unique_ptr<dpack::CurvePool> pool;
  std::vector<dpack::Task> tasks = TimedSetup(&setup, &pool, [&](const dpack::CurvePool& p) {
    dpack::AlibabaConfig config;
    config.num_tasks = kTasks;
    config.arrival_span = static_cast<double>(kBlocks);
    config.seed = options.seed;
    return dpack::GenerateAlibabaDp(p, config);
  });

  dpack::SimConfig sim;
  sim.num_blocks = kBlocks;
  sim.record_grant_trace = true;
  // The correctness reference: the event-driven simulator on the same inputs.
  dpack::SimResult reference = dpack::RunOnlineSimulation(
      dpack::CreateScheduler(dpack::SchedulerKind::kDpack), tasks, sim);
  std::vector<Step> plan = PlanReplay(sim, tasks);

  Tracer untraced(false);
  Tracer traced(true);
  std::vector<OnlineLeg> plain_legs;
  std::vector<OnlineLeg> traced_legs;
  double peak_rss_mb = 0.0;  // Read after the first replay, so it does not grow with run length.
  Clock::time_point start = Clock::now();
  size_t samples = 0;
  while (KeepMeasuring(start, options.seconds, samples, MinSamplesForTail(0.9))) {
    plain_legs.push_back(RunOnlineLeg(sim, plan, tasks, untraced));
    CheckLeg(report, "alibaba_online replay", plain_legs.back(), reference);
    samples += plain_legs.back().record.cycle_s.size();
    peak_rss_mb = peak_rss_mb > 0.0 ? peak_rss_mb : PeakRssMib();
    if (options.trace) {
      traced.set_run(static_cast<uint32_t>(traced_legs.size()));
      traced_legs.push_back(RunOnlineLeg(sim, plan, tasks, traced));
      CheckLeg(report, "alibaba_online traced replay", traced_legs.back(), reference);
    }
  }
  report.shards = plain_legs.back().shards;

  if (!options.trace) {
    std::vector<double> tasks_per_s, cpu_s, cycle_s, submit_s;
    for (const OnlineLeg& leg : plain_legs) {
      tasks_per_s.push_back(static_cast<double>(kTasks) / leg.record.wall_s);
      cpu_s.push_back(leg.cpu_s);
      cycle_s.insert(cycle_s.end(), leg.record.cycle_s.begin(), leg.record.cycle_s.end());
      submit_s.insert(submit_s.end(), leg.record.submit_s.begin(), leg.record.submit_s.end());
    }
    report.Add("setup_s", Median(setup.total_s), setup.total_s.size());
    report.Add("tasks_per_s", Median(tasks_per_s), tasks_per_s.size());
    report.AddSummary("cycle_ms", cycle_s, 1e3);
    report.AddSummary("submit_ms", submit_s, 1e3, 0.95);
    report.Add("cpu_s", Median(cpu_s), cpu_s.size());
    report.Add("peak_rss_mb", peak_rss_mb);
    report.Add("tasks_granted", static_cast<double>(plain_legs.back().record.granted),
               plain_legs.size());
    return report;
  }

  AddSetupLayerMetrics(report, setup);
  AddCoreLayerMetrics(report, traced, traced_legs);
  std::vector<double> traced_wall, plain_wall;
  for (const OnlineLeg& leg : traced_legs) {
    traced_wall.push_back(leg.record.wall_s);
  }
  for (const OnlineLeg& leg : plain_legs) {
    plain_wall.push_back(leg.record.wall_s);
  }
  AddTraceMetrics(report, traced, traced_wall, plain_wall);
  if (!traced.WriteCsv(options.run_dir + "/trace_alibaba_online.csv")) {
    report.Note("could not write the span dump");
  }
  return report;
}

}  // namespace perfbench
