// The in-process online leg: a fresh BlockManager and OnlineScheduler over the default DPack
// scheduler, replayed through ReplayInProcess. alibaba_online times it end to end;
// service_remote's traced run uses it as the engine-only baseline of its split.

#ifndef PERFBENCH_ONLINE_LEG_H_
#define PERFBENCH_ONLINE_LEG_H_

#include <cstdint>
#include <vector>

#include "perfbench/perfbench.h"
#include "perfbench/replay.h"
#include "src/core/schedule_context.h"
#include "src/sim/sim_driver.h"

namespace perfbench {

struct OnlineLeg {
  ReplayRecord record;
  double cpu_s = 0.0;                   // CPU of the timed phase.
  dpack::ScheduleContextStats stats;    // Engine counters over the leg (fresh engine).
  uint64_t shards = 0;                  // Resolved engine shape.
  size_t hot_at_end = 0;
  size_t retired_at_end = 0;
  size_t budget_violations = 0;
};

// Replays `tasks` under `sim` (period, unlock steps, budgets, block schedule). With an
// enabled tracer the scheduler is wrapped in a TracingScheduler, and the shard count the
// OnlineScheduler resolved is applied to the wrapped engine exactly as the OnlineScheduler
// applies it to an unwrapped one.
OnlineLeg RunOnlineLeg(const dpack::SimConfig& sim, const std::vector<Step>& plan,
                       std::vector<dpack::Task> tasks, Tracer& tracer);

// The core.* and block.* per-layer metrics from traced online legs.
void AddCoreLayerMetrics(Report& report, const Tracer& tracer,
                         const std::vector<OnlineLeg>& legs);

}  // namespace perfbench

#endif  // PERFBENCH_ONLINE_LEG_H_
