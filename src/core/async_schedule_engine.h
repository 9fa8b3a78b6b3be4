// Async scheduling engine: the ScheduleContext subclass that replaces its fork-join cycle
// with continuously-running shard threads. One persistent scheduler thread per shard waits
// for a dispatch, refreshes its owned blocks, rescores its home tasks, and publishes a
// freshest-heap snapshot; a scheduling cycle then only performs the deterministic N-way heap
// merge + sequential CANRUN walk over the published snapshots.
// Grants are byte-identical to the synchronous engine at any shard count (and hence to
// RecomputeScheduleBatch) — pinned by the async differential traces in
// tests/core/incremental_equivalence_test.cc and raced by tests/core/async_engine_soak_test.
//
// Publication protocol (overrides ScheduleContext::RunPhases; the phase *bodies* are the
// base class's):
//
//   dispatch   The driver thread finishes the sequential prologue (the engine's
//              BlockChangeCursor polls the manager, arrivals are appended and changed ids
//              bucketed by owning shard; the batch is partitioned by home shard), reads the
//              manager's (epoch(), version_tree().total()) clock, and bumps the dispatch
//              sequence. Shard threads wake.
//   refresh    Each thread refreshes its owned blocks in the shared capacity snapshot and
//              solves its dirty owned best-alpha subproblems (phase 2 body), writing only
//              shard-owned entries.
//   early      Before any fence, the thread rescores the home tasks whose inputs it already
//              owns: every task whose requested blocks all live in this shard — and, for
//              DPF, every task, since DPF scores read only total capacities, which are
//              immutable after the (sequential) arrival append. This overlaps scoring with
//              the other shards' refresh work; counted as async_early_scores.
//   fence      A single barrier among the shard threads: every shard's refresh (snapshot
//              entries, dirty flags, best alphas) happens-before every shard's cross-shard
//              scoring reads.
//   late       The thread scores its remaining home tasks (cross-shard block lists) and
//              merges its sorted heap with the cycle's rescored entries (shared
//              MergeScoreHeap).
//   publish    The thread publishes its heap and goes back to waiting. Publication is one
//              push onto the shard's private lock-free SPSC ring (src/common/spsc_ring.h),
//              epoch-stamped with the cycle's dispatch sequence; the push's release store is
//              the publication edge for the heap and counters, so no lock is taken between
//              the fence and the next dispatch.
//   quiesce    The driver's fence: it consumes every shard's publication for this cycle —
//              spin-popping each ring until the frame stamped with this dispatch sequence
//              arrives (acquire-consume) — then re-reads the manager's clock. The window
//              from dispatch to quiesce contains every shard thread's work, and versions
//              only grow, so an unchanged (epoch, total) proves the capacity state the scores
//              were computed from is still the manager's. A stale publication (a frame from
//              another dispatch, or a clock that moved; impossible under the cycle protocol;
//              counted as async_stale_publishes) abandons the cycle to the recompute
//              reference, so grants stay correct even if a caller violates the protocol.
//              The merge + CANRUN walk then run over the published heaps exactly as in the
//              synchronous engine.
//
// Pinning and placement: each shard thread pins itself to an allowed core at startup —
// core s % |cpuset| via src/common/cpu_affinity.h — so a shard's refresh/score working set
// stays on one core, and the heap/merge buffers it grows are first-touched (hence placed)
// by that pinned thread. Pinning is best-effort: a denied cpuset degrades to the unpinned
// engine with stats().pin_failures counting the denials, never an error (the CI-container
// fallback).
//
// Determinism: every score is computed by the same function on bit-identical snapshot state
// as the synchronous engine — the early/late split only reorders score *computation* within
// a shard (generation numbers differ, but generations never influence the merge order, only
// staleness detection). The N-way merge under HeapEntryBefore (a strict total order for
// unique task ids) and the sequential walk are unchanged — rings and pinning change how and
// where heaps are built and moved, never the merge order — so the grant sequence is
// byte-identical for every shard count and thread timing.

#ifndef SRC_CORE_ASYNC_SCHEDULE_ENGINE_H_
#define SRC_CORE_ASYNC_SCHEDULE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "src/common/spsc_ring.h"
#include "src/common/thread_annotations.h"
#include "src/core/schedule_context.h"

namespace dpack {

class AsyncScheduleEngine : public ScheduleContext {
 public:
  // Spawns `num_shards` persistent scheduler threads (>= 1). Same cycle protocol as the
  // synchronous engine; the caller must not run ScheduleBatch concurrently with itself.
  AsyncScheduleEngine(GreedyMetric metric, double eta, size_t num_shards);
  ~AsyncScheduleEngine() override;

 protected:
  bool RunPhases(std::span<const Task> pending, const BlockManager& blocks,
                 uint64_t previous_cycle) override;

 private:
  // A ring frame: its epoch (the dispatch sequence) is the whole message.
  struct Frame {};

  void ShardLoop(size_t s) EXCLUDES(mu_);
  bool AllBlocksHome(const Task& task, size_t s) const;

  // Shard threads that failed to pin (each increments once, at startup, before its first
  // publication — so any completed cycle's quiesce happens-after every increment). The
  // driver re-reads it into stats_.pin_failures after each quiesce.
  std::atomic<uint64_t> pin_failures_{0};

  Mutex mu_;
  CondVar dispatch_cv_;  // Shard threads wait here for a new cycle.
  CondVar barrier_cv_;   // The refresh fence among shard threads.

  // Cycle inputs and progress; all guarded by mu_ (machine-checked). Dispatch and the
  // refresh fence run under mu_; the happens-before edge for the unguarded shared engine
  // state (base-class arrays) back to the driver is the ring push/pop, per the visibility
  // contract in schedule_context.h.
  uint64_t dispatch_seq_ GUARDED_BY(mu_) = 0;
  std::span<const Task> cycle_pending_ GUARDED_BY(mu_);
  const BlockManager* cycle_blocks_ GUARDED_BY(mu_) = nullptr;
  uint64_t cycle_previous_ GUARDED_BY(mu_) = 0;
  // Shards past the refresh + early-score step.
  size_t refresh_done_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;

  // Publication state. Each shard thread produces into its own ring; the driver is
  // the only consumer. ring_done_ is driver-only quiesce scratch, touched by no shard
  // thread.
  std::vector<std::unique_ptr<SpscRing<Frame>>> rings_;
  std::vector<uint8_t> ring_done_;

  // Per shard: home tasks scored before the fence (inputs all shard-owned, or DPF) and
  // after it (cross-shard block lists); each entry is touched only by its own shard thread.
  std::vector<std::vector<size_t>> early_;
  std::vector<std::vector<size_t>> late_;
  std::vector<std::thread> threads_;
};

}  // namespace dpack

#endif  // SRC_CORE_ASYNC_SCHEDULE_ENGINE_H_
