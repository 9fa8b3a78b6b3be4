// In-process replay of an online workload, in RunOnlineSimulation's event order, with every
// Submit and RunCycle timed — plus the forwarding Scheduler that traced runs put around the
// default scheduler to time ScheduleBatch from outside the library.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/bench_stats.h"
#include "src/block/block_manager.h"
#include "src/core/scheduler.h"
#include "src/core/task.h"
#include "src/sim/sim_driver.h"

namespace perfbench {

// One event of the simulation's queue. Kinds are declared in the queue's priority order
// (block arrival, task arrival, scheduling cycle at equal instants).
struct Step {
  enum Kind { kBlock = 0, kTask = 1, kCycle = 2 };
  Kind kind;
  double time;
  size_t task = 0;  // Index into the task vector (kTask only).
};

// RunOnlineSimulation's events for `tasks` under `sim`: block arrivals, task arrivals and
// every cycle instant, ordered by (time, kind) and then insertion order — the event queue's
// (time, priority, sequence) order.
inline std::vector<Step> PlanReplay(const dpack::SimConfig& sim,
                                    const std::vector<dpack::Task>& tasks) {
  std::vector<double> block_schedule = dpack::BlockArrivalSchedule(sim);
  double horizon = dpack::SimulationHorizon(sim, tasks, block_schedule);
  double next_after_horizon = 0.0;
  std::vector<double> cycles = dpack::CycleInstants(sim, horizon, &next_after_horizon);
  std::vector<Step> plan;
  plan.reserve(block_schedule.size() + tasks.size() + cycles.size());
  for (double t : block_schedule) {
    plan.push_back(Step{Step::kBlock, t});
  }
  for (size_t i = 0; i < tasks.size(); ++i) {
    plan.push_back(Step{Step::kTask, tasks[i].arrival_time, i});
  }
  for (double t : cycles) {
    plan.push_back(Step{Step::kCycle, t});
  }
  std::stable_sort(plan.begin(), plan.end(), [](const Step& a, const Step& b) {
    return a.time != b.time ? a.time < b.time : a.kind < b.kind;
  });
  return plan;
}

struct ReplayRecord {
  double wall_s = 0.0;               // The timed phase: the whole event loop.
  std::vector<double> submit_s;      // One per Submit.
  std::vector<double> cycle_s;       // One per RunCycle.
  std::vector<double> pending;       // pending_count() entering each cycle.
  std::vector<std::vector<dpack::TaskId>> grant_trace;
  uint64_t granted = 0;
  uint64_t rejected = 0;             // Submits refused by the admission bound.
};

struct SpanNames {
  const char* replay;
  const char* submit;
  const char* cycle;
};

// Replays `plan` against `driver` (an OnlineScheduler or a GrantService scheduling over
// `blocks`), consuming `tasks`.
template <typename Driver>
ReplayRecord ReplayInProcess(Driver& driver, dpack::BlockManager& blocks,
                             const std::vector<Step>& plan, std::vector<dpack::Task> tasks,
                             Tracer& tracer, const SpanNames& names) {
  ReplayRecord record;
  Clock::time_point start = Clock::now();
  {
    ScopedSpan replay_span(tracer, names.replay);
    for (const Step& step : plan) {
      switch (step.kind) {
        case Step::kBlock:
          blocks.AddBlock(step.time);
          break;
        case Step::kTask: {
          ScopedSpan span(tracer, names.submit);
          Clock::time_point t0 = Clock::now();
          bool accepted = driver.Submit(std::move(tasks[step.task]));
          record.submit_s.push_back(SecondsBetween(t0, Clock::now()));
          record.rejected += accepted ? 0 : 1;
          break;
        }
        case Step::kCycle: {
          record.pending.push_back(static_cast<double>(driver.pending_count()));
          {
            ScopedSpan span(tracer, names.cycle);
            Clock::time_point t0 = Clock::now();
            record.granted += driver.RunCycle(step.time);
            record.cycle_s.push_back(SecondsBetween(t0, Clock::now()));
          }
          record.grant_trace.push_back(driver.last_granted());
          break;
        }
      }
    }
  }
  record.wall_s = SecondsBetween(start, Clock::now());
  return record;
}

// Forwards to the wrapped scheduler, recording each ScheduleBatch as a span (a child of the
// cycle span open around it).
class TracingScheduler : public dpack::Scheduler {
 public:
  TracingScheduler(std::unique_ptr<dpack::Scheduler> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::string name() const override { return inner_->name(); }

  std::vector<size_t> ScheduleBatch(std::span<const dpack::Task> pending,
                                    dpack::BlockManager& blocks) override {
    ScopedSpan span(tracer_, "core.schedule_batch");
    return inner_->ScheduleBatch(pending, blocks);
  }

  dpack::Scheduler& inner() { return *inner_; }

 private:
  std::unique_ptr<dpack::Scheduler> inner_;
  Tracer& tracer_;
};

// Engine counters of a default (greedy) scheduler, or nullptr when it runs no incremental
// engine.
inline const dpack::ScheduleContextStats* EngineStats(dpack::Scheduler& scheduler) {
  auto* greedy = dynamic_cast<dpack::GreedyScheduler*>(&scheduler);
  if (greedy == nullptr || greedy->engine() == nullptr) {
    return nullptr;
  }
  return &greedy->engine()->stats();
}

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
