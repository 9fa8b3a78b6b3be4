// In-process cluster orchestrator reproducing the paper's Kubernetes deployment (§6.4).
//
// Architecture (mirroring PrivateKube's control loop):
//   - clients submit tasks into a thread-safe queue (concurrent with scheduling);
//   - a timekeeper thread advances a virtual clock (wall-paced) and adds privacy blocks;
//   - a scheduler thread wakes every period T (virtual), drains the submission queue,
//     performs simulated state-store round trips per task and per cycle (claim reads, status
//     updates, budget commits), runs the batch scheduling algorithm, and records metrics.
//
// Scheduler runtime is measured in wall-clock seconds and includes the store traffic, which
// dominates — the paper's Q4 observation. Scheduling delay is measured in virtual time and
// excludes scheduler runtime, as in Fig. 8(b).

#ifndef SRC_ORCHESTRATOR_CLUSTER_ORCHESTRATOR_H_
#define SRC_ORCHESTRATOR_CLUSTER_ORCHESTRATOR_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/block/block_manager.h"
#include "src/core/metrics.h"
#include "src/core/online_scheduler.h"
#include "src/core/scheduler.h"
#include "src/core/task.h"
#include "src/orchestrator/checkpoint.h"
#include "src/orchestrator/state_store.h"
#include "src/rdp/alpha_grid.h"

namespace dpack {

struct OrchestratorConfig {
  AlphaGridPtr grid;                 // Defaults to AlphaGrid::Default() when null.
  double eps_g = 10.0;
  double delta_g = 1e-7;
  double period = 5.0;               // Scheduling period T (virtual time units).
  int64_t unlock_steps = 50;         // Unlocking denominator N.
  size_t offline_blocks = 10;        // Blocks present (fully unlocked) at start.
  size_t online_blocks = 20;         // Blocks arriving one per virtual time unit.
  double virtual_unit_wall_ms = 10;  // Wall milliseconds per virtual time unit.
  double store_latency_us = 150.0;   // Simulated API-server round-trip latency.
  uint64_t store_ops_per_task = 3;   // Claim read + status update + budget commit.
  uint64_t store_ops_per_cycle = 4;  // Block list + lease renewal traffic.
  // Shard count for a GreedyScheduler's incremental engine (parallel scoring across this
  // many block/task shards), passed to OnlineSchedulerConfig::num_shards. 0 means auto per
  // ResolveNumShards (src/core/scheduler.h), and the resolved count overrides the shard
  // count the scheduler was constructed with — auto never leaves it as constructed.
  size_t num_shards = 0;
  // When set and the scheduler is a GreedyScheduler, run its incremental engine on the
  // async per-shard scheduler threads (same grants; see src/core/async_schedule_engine.h).
  bool async = false;
  // When > 0, RunOnline/ResumeFrom serialize a full cluster snapshot every this-many
  // cycles and Put it into the run's SimulatedStateStore under kCheckpointKey — the write
  // blocks the scheduler loop for one round trip per 64 KiB chunk, so checkpoint
  // persistence cost lands in the same Q4 overhead accounting as the claim traffic.
  size_t checkpoint_every_cycles = 0;
};

struct OrchestratorRunResult {
  AllocationMetrics metrics;
  uint64_t store_operations = 0;
  double wall_seconds = 0.0;
  size_t cycles = 0;
  // Checkpointing activity of this run (zeros when checkpoint_every_cycles == 0).
  uint64_t checkpoints_taken = 0;
  uint64_t store_bytes_written = 0;
  // The last snapshot persisted during the run, still in its binary wire encoding; empty
  // when no checkpoint was taken. Decode with DecodeSnapshotBinary and hand to ResumeFrom to
  // continue a killed run.
  std::string last_checkpoint;
  // Incremental-engine counters covering exactly this run (zeros when the scheduler does
  // not run on an incremental engine). The engine survives every cycle of the run — and the
  // scheduler survives across runs — so the run-entry snapshot is subtracted to isolate
  // this run's cache behavior. `shards` is the engine's shard count, not a delta.
  ScheduleContextStats scheduler_stats;
};

class ClusterOrchestrator {
 public:
  // The store key checkpoints are persisted under (one key, overwritten per checkpoint —
  // the latest snapshot is the only one recovery needs, as with a compacted etcd key).
  static constexpr const char* kCheckpointKey = "dpack/checkpoint";

  ClusterOrchestrator(std::unique_ptr<Scheduler> scheduler, OrchestratorConfig config);

  // Offline measurement (Fig. 8(a) methodology): all blocks present and unlocked, all of
  // `tasks` submitted up front, one scheduling pass. Returns metrics whose cycle runtime is
  // the wall time of that pass including store traffic.
  OrchestratorRunResult RunOfflinePass(std::vector<Task> tasks);

  // Online run (Fig. 8(b), Tab. 2): spawns timekeeper, producer, and scheduler threads and
  // processes the workload end to end; returns aggregate metrics. Tasks must be sorted by
  // arrival_time (virtual units).
  OrchestratorRunResult RunOnline(std::vector<Task> tasks);

  // Crash recovery (§6.4): continues a killed online run from a snapshot persisted by a
  // previous RunOnline with checkpoint_every_cycles > 0. Restores the block manager, the
  // pending claims, and the cumulative metrics, then resumes the clock at the checkpoint's
  // virtual time; `tasks` must be the full original workload — claims whose arrival time
  // is at or before the checkpoint are the store's responsibility (already granted,
  // pending, or lost in flight mid-submission, exactly as a real API-server crash leaves
  // them), so only later arrivals are replayed. The scheduler's engine caches start cold;
  // the restored state's version invariant makes the first cycle's grants consistent with
  // an uninterrupted run of the same (wall-clock-raced) submission sequence.
  OrchestratorRunResult ResumeFrom(const ClusterSnapshot& snapshot, std::vector<Task> tasks);

  // All run entry points lend the scheduler to the run's online driver and take it back
  // (with its incremental caches invalidated — they are bound to the run's block manager)
  // when the run finishes, so an orchestrator can execute any sequence of runs.

  const OrchestratorConfig& config() const { return config_; }

 private:
  // Shared body of RunOnline and ResumeFrom: `snapshot` == nullptr starts fresh.
  OrchestratorRunResult RunOnlineInternal(const ClusterSnapshot* snapshot,
                                          std::vector<Task> tasks);

  OrchestratorConfig config_;
  std::unique_ptr<Scheduler> scheduler_;
};

}  // namespace dpack

#endif  // SRC_ORCHESTRATOR_CLUSTER_ORCHESTRATOR_H_
