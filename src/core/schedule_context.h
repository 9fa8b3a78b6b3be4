// Incremental scheduling engine (§6.4 Q4 scalability): persists scoring state across
// scheduling cycles instead of recomputing every task's score from scratch, and optionally
// spreads that work across N shards.
//
// The recompute path (`RecomputeScheduleBatch`, the original GreedyScheduler behavior) costs
// O(pending × blocks × orders) per cycle — including DPack's per-(block, order) knapsack
// subproblems — even when almost nothing changed between cycles. In the online steady state
// only a few blocks change per cycle (the ones that received commits or unlocked more
// budget), so most cached scores are still exact. `ScheduleContext` exploits this:
//
//   - Dirty-block detection. `PrivacyBlock::version()` and `BlockManager::epoch()` are
//     monotonic counters bumped on commits, effective unlocks, and block arrivals. The
//     engine's `BlockChangeCursor` (src/block/block_manager.h) polls the manager's version
//     tree once per cycle and reports the arrivals and, separately, exactly the blocks whose
//     version moved; arrivals are appended to an incrementally-maintained CapacitySnapshot
//     and changed entries refreshed.
//     For DPack, a per-block signature over the ids of the pending tasks requesting the
//     block additionally marks membership changes dirty (best alphas depend on the
//     requester set, not just capacity).
//   - Cached scores. Each pending task's score is cached by task id and reused while every
//     input to it is provably unchanged: DPF scores depend only on total capacities (never
//     dirty), Area scores on the available curves of the task's blocks, DPack scores on
//     those curves plus the blocks' cached best-alpha solutions. Only tasks touching dirty
//     blocks (found through a per-block reverse index), new tasks, and tasks whose block
//     list was re-resolved are rescored.
//   - Lazily-revalidated score heap. Scored entries live in a priority structure ordered
//     exactly like the recompute path's sort (score desc, arrival asc, id asc). Because
//     every cycle pops the entire structure (the CANRUN walk visits every pending task), it
//     is kept in fully-sorted array form — which is itself a valid binary max-heap — and
//     each cycle's freshly-rescored entries are sorted and merged in. Stale entries —
//     superseded generations, granted or evicted tasks — are dropped at merge time.
//   - Feasibility memos in the allocation walk. A task whose CANRUN check failed remembers
//     the sum of its blocks' versions at rejection time. Versions are monotone, so an
//     unchanged sum proves every one of its blocks is unchanged — the task is still
//     infeasible and the per-order filter scan is skipped. Commits made earlier in the same
//     walk bump versions and so re-enable the scan, preserving exact recompute semantics.
//
// Sharding. Block g is owned by shard g mod N (round-robin, so owned block g has local
// index g / N) and task i by shard id mod N. A shard refreshes its owned blocks' snapshot
// entries, membership signatures and best alphas (phase 2), then scores its home tasks
// against the shared snapshot and merges its own sorted heap (phase 3). Phase 2 writes only
// shard-owned entries of the shared id-indexed arrays, so neither phase takes a lock. A
// cycle is:
//   1. (sequential) the cursor's poll reports arrivals and changed blocks; new blocks are
//      appended to the snapshot and marked dirty, changed ids are bucketed by owning shard,
//      and the batch is split by home shard.
//   2. (per shard) owned-block refresh, DPack signatures and best-alpha solves.
//   3. (per shard) the reverse-index marking pass over every shard's dirty list, the score
//      pass over home tasks, and the local heap merge.
//   4. (sequential) a deterministic N-way merge of the shard heaps under HeapEntryBefore —
//      a strict total order for unique ids — then the memoized CANRUN walk. With one shard
//      the heap merge emits the allocation order directly.
// Every score is computed by the same function on bit-identical inputs whatever the shard
// count, so the merged order and the grant sequence are the same for every N and thread
// timing (tests/core/incremental_equivalence_test.cc and
// tests/integration/scenario_matrix_test.cc pin it).
//
// How phases 2 and 3 are *driven* is the virtual RunPhases hook: this class runs them as two
// fork-join barriers on a WorkerPool of N - 1 threads (none at one shard, where everything
// runs inline on the caller); AsyncScheduleEngine (src/core/async_schedule_engine.h) runs
// them on persistent per-shard threads. RunPhases implementations must provide:
//   - every shard's phase-2 writes happen-before every shard's phase-3 reads (the pool join
//     here; the refresh fence in the async engine);
//   - all shard state happens-before ScheduleBatch's sequential tail; RunPhases returning
//     is that publication point.
//
// Batches with duplicate task ids fall back to the recompute path (the tie-broken sort is
// not reproducible from id-keyed caches; duplicates share a home shard, so each shard
// detects them locally). RunPhases may also return false — the async engine's
// stale-publication escape hatch — with the same fallback.
//
// The engine lives inside `GreedyScheduler`, whose instance persists across
// `OnlineScheduler::RunCycle` calls — that persistence is what makes the cache pay off.

#ifndef SRC_CORE_SCHEDULE_CONTEXT_H_
#define SRC_CORE_SCHEDULE_CONTEXT_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/block/block_manager.h"
#include "src/common/worker_pool.h"
#include "src/core/efficiency.h"
#include "src/core/task.h"

namespace dpack {

// Greedy allocation metrics shared by DPF / area / DPack / FCFS (§3).
enum class GreedyMetric {
  kDpf,    // Inverse dominant share (fairness-oriented, §3.1).
  kArea,   // Eq. 4: all-order demand area (block-aware, not best-alpha-aware).
  kDpack,  // Eq. 6: demand at each block's best alpha (Alg. 1).
  kFcfs,   // Arrival order.
};

// Grants tasks in `order` whose demands all requested blocks accept, committing as it goes —
// the CANRUN loop of Alg. 1. Infeasible tasks are skipped, never block the later ones: every
// policy, including FCFS, backfills past tasks whose filters reject (which is why FCFS does
// not prioritize low-demand tasks under contention, §6.3). Tasks with an unresolved (empty)
// block list are skipped. The incremental engine layers feasibility memos on the same walk.
std::vector<size_t> AllocateInOrder(std::span<const Task> pending, BlockManager& blocks,
                                    std::span<const size_t> order);

// Reference recompute-everything scheduling pass: snapshot every block, score every pending
// task, sort, allocate. This is the pre-incremental `GreedyScheduler::ScheduleBatch`; the
// differential tests and benchmarks use it as the baseline, and `ScheduleContext` falls back
// to it when a batch has duplicate task ids.
std::vector<size_t> RecomputeScheduleBatch(GreedyMetric metric, double eta,
                                           std::span<const Task> pending,
                                           BlockManager& blocks);

// Counters describing how much work the engine reused vs redid. Monotonic over the context's
// lifetime. Each shard counts its own work, and the engine sums the shards into this struct
// after every cycle, so consumers read one summary regardless of the shard count.
struct ScheduleContextStats {
  uint64_t cycles = 0;                 // ScheduleBatch calls (non-empty batches).
  uint64_t tasks_rescored = 0;         // Scores computed.
  uint64_t tasks_reused = 0;           // Scores served from cache.
  uint64_t blocks_refreshed = 0;       // Snapshot entries refreshed (version changes).
  uint64_t best_alpha_recomputes = 0;  // Per-block best-alpha subproblems solved.
  uint64_t full_recomputes = 0;        // Fallbacks to RecomputeScheduleBatch.
  // Growths of the shards' heap-merge output buffers. The merge buffers persist across
  // cycles, so steady-state cycles perform zero merge allocations — pinned by tests and
  // gated at zero in bench/baseline.json.
  uint64_t merge_allocs = 0;
  uint64_t shards = 1;                 // Shard count of the engine that produced these stats.

  // Async engine (AsyncScheduleEngine) counters; zero for the synchronous engine.
  //   - async_early_scores: rescores a shard thread computed *before* the global refresh
  //     fence, overlapped with the other shards' block refreshes (provably safe: the task's
  //     inputs are entirely shard-owned, or the metric is DPF, whose scores read only total
  //     capacities, which are immutable after arrival).
  //   - async_stale_publishes: published heap snapshots that failed quiesce validation: a
  //     frame from another dispatch, or every frame of a cycle whose manager (epoch,
  //     version total) clock moved between dispatch and quiesce. Expected 0 under the cycle
  //     protocol; any occurrence means a concurrent mutation was caught and the batch fell
  //     back to the recompute reference (grants stay correct).
  //   - async_wasted_rescores: rescores discarded because their cycle's publication was
  //     stale (the work thrown away by a fallback).
  uint64_t async_early_scores = 0;
  uint64_t async_stale_publishes = 0;
  uint64_t async_wasted_rescores = 0;

  // Lock-free publication and pinning counters (AsyncScheduleEngine; zero elsewhere):
  //   - ring_publishes: heap snapshots delivered through the per-shard SPSC rings.
  //     Exactly num_shards per cycle — deterministic, so bench/baseline.json gates it.
  //   - ring_retries: producer-side full-ring retries. Zero by construction (the driver
  //     drains every ring each cycle and a shard publishes once per dispatch); gated at
  //     zero so a protocol regression that makes producers spin is caught.
  //   - pin_failures: shard threads that could not be pinned to their chosen core. A gauge,
  //     not a flow counter — set once per engine at thread startup (idempotently re-read
  //     each cycle), 0 on hosts whose cpuset permits pinning, and excluded from Accumulate/
  //     Delta so the fallback path cannot double- or zero-count it.
  uint64_t ring_publishes = 0;
  uint64_t ring_retries = 0;
  uint64_t pin_failures = 0;

  // Per-shard counters are summed into the run-wide totals above.
  void Accumulate(const ScheduleContextStats& other) {
    tasks_rescored += other.tasks_rescored;
    tasks_reused += other.tasks_reused;
    blocks_refreshed += other.blocks_refreshed;
    best_alpha_recomputes += other.best_alpha_recomputes;
    merge_allocs += other.merge_allocs;
    async_early_scores += other.async_early_scores;
    ring_publishes += other.ring_publishes;
    ring_retries += other.ring_retries;
  }

  // Counters are monotonic over an engine's lifetime; subtracting an earlier snapshot
  // isolates one run's (or one timed loop's) work. `shards` is carried over, not
  // subtracted — it identifies the engine, it is not a counter. The single definition all
  // delta consumers (orchestrator results, bench reports) must share, so a future counter
  // cannot be forgotten in one of them.
  ScheduleContextStats Delta(const ScheduleContextStats& before) const {
    ScheduleContextStats delta = *this;
    delta.cycles -= before.cycles;
    delta.tasks_rescored -= before.tasks_rescored;
    delta.tasks_reused -= before.tasks_reused;
    delta.blocks_refreshed -= before.blocks_refreshed;
    delta.best_alpha_recomputes -= before.best_alpha_recomputes;
    delta.full_recomputes -= before.full_recomputes;
    delta.merge_allocs -= before.merge_allocs;
    delta.async_early_scores -= before.async_early_scores;
    delta.async_stale_publishes -= before.async_stale_publishes;
    delta.async_wasted_rescores -= before.async_wasted_rescores;
    delta.ring_publishes -= before.ring_publishes;
    delta.ring_retries -= before.ring_retries;
    // pin_failures is a gauge (like shards): carried, not subtracted.
    return delta;
  }
};

// Scores one task under `metric` against `snapshot` (and `best_alpha` for DPack). FCFS
// never scores (DPACK_CHECKs). The engine and the grant service's workers both score
// through it, so their scores are bit-identical.
double ScoreGreedyTask(GreedyMetric metric, const Task& task, const CapacitySnapshot& snapshot,
                       std::span<const size_t> best_alpha);

// One scored entry of a score heap.
struct HeapEntry {
  double score = 0.0;
  double arrival = 0.0;
  TaskId id = 0;
  uint64_t generation = 0;
  size_t slot = 0;  // Cache slot index; revalidated via Find when slots have moved.
};

// True if `a` precedes `b` in allocation order (score desc, arrival asc, id asc) — exactly
// the recompute path's sort order. A strict total order for unique task ids, which is what
// makes the N-way heap merges (across shards here, across workers in the grant service)
// deterministic.
bool HeapEntryBefore(const HeapEntry& a, const HeapEntry& b);

// Cached per-task scoring state, keyed by task id.
struct TaskCache {
  double score = 0.0;
  uint64_t generation = 0;  // Matches the live heap entry for this task.
  // Version sum at last CANRUN rejection; ~0 = no memo.
  uint64_t reject_vsum = ~0ULL;
  // Cycle stamp: live iff == current cycle. ~0 = never pending (fresh entry; stamps are
  // small counters, so it matches no cycle); 0 = dead (granted).
  uint64_t last_seen = ~0ULL;
  // Set to the current cycle stamp by the reverse-index marking pass when one of the
  // task's blocks went dirty this cycle — the O(changed) replacement for scanning the
  // task's block list against a dirty bitmap. 0 (the default) matches no cycle.
  uint64_t stale_stamp = 0;
  size_t index = 0;          // Position in the current cycle's batch.
  // Identity of the task's resolved block list, for change detection: the block vector's
  // buffer travels with the task on moves, so an unchanged (pointer, size) pair means an
  // unchanged list under the immutability protocol. Late resolution reallocates (empty ->
  // non-empty) and is therefore always caught.
  const BlockId* blocks_ptr = nullptr;
  size_t blocks_len = 0;
};

// Open-addressing map TaskId -> TaskCache. The engine does a couple of lookups per
// pending task per cycle, which makes std::unordered_map's indirections the bottleneck
// for cheap metrics; a flat linear-probe table keeps the overhead below the recompute
// path's scoring cost. Slot indices are stable except across Reserve/Purge rehashes,
// which the engine tracks to lazily re-resolve heap entries.
class TaskCacheMap {
 public:
  static constexpr size_t kNpos = static_cast<size_t>(-1);

  TaskCacheMap();
  size_t Find(TaskId id) const;  // kNpos when absent.
  // Returns the slot for `id`, inserting a default entry if absent. Requires a prior
  // Reserve covering the insert (so slots never move mid-cycle).
  size_t FindOrInsert(TaskId id);
  TaskCache& at(size_t slot) { return slots_[slot].value; }
  const TaskCache& at(size_t slot) const { return slots_[slot].value; }
  size_t size() const { return size_; }
  // Ensures capacity for `additional` more inserts without rehashing. Returns true if the
  // table rehashed (all slot indices invalidated).
  bool Reserve(size_t additional);
  // Drops every entry whose last_seen != `cycle`. Invalidates slot indices.
  void PurgeNotSeen(uint64_t cycle);

 private:
  struct Slot {
    TaskId id = 0;
    bool used = false;
    TaskCache value;
  };
  size_t Probe(TaskId id) const;
  void Rehash(size_t new_capacity);

  std::vector<Slot> slots_;  // Power-of-two size.
  size_t size_ = 0;
};

class ScheduleContext {
 public:
  // `eta` is DPack's approximation parameter (> 0); `num_shards` >= 1. The worker pool
  // spawns num_shards - 1 threads (the caller is the remaining executor), independent of
  // the core count, so the engine behaves identically — just timesliced — when
  // oversubscribed. One shard spawns no thread.
  explicit ScheduleContext(GreedyMetric metric, double eta = 0.05, size_t num_shards = 1);
  virtual ~ScheduleContext() = default;

  // One scheduling cycle: refreshes dirty state, rescores affected tasks, and allocates in
  // score order, committing grants to `blocks`. Returns indices into `pending` of the
  // granted tasks, in grant order — identical to RecomputeScheduleBatch on the same state.
  //
  // Correct reuse assumes the cycle protocol of OnlineScheduler: between calls, pending
  // tasks are immutable per id (late block resolution excepted — it is detected, because it
  // reallocates the task's block vector), the manager passed each cycle carries the state
  // the previous cycle left (the same manager, or a Clone of it, which keeps epoch and
  // versions), and all block mutation goes through Commit / SetUnlockedFraction / AddBlock
  // so versions advance. Call Invalidate() if any of this is violated (e.g. switching the
  // context to an unrelated manager).
  std::vector<size_t> ScheduleBatch(std::span<const Task> pending, BlockManager& blocks);

  // Drops all cached state; the next cycle rebuilds from scratch.
  void Invalidate();

  GreedyMetric metric() const { return metric_; }
  const ScheduleContextStats& stats() const { return stats_; }

 protected:
  // Subclass constructor: `pool_workers` is the worker-pool thread count (the async engine
  // passes 0 — it brings its own per-shard threads and never touches the pool).
  ScheduleContext(GreedyMetric metric, double eta, size_t num_shards, size_t pool_workers);

  // One shard's slice of the engine: the task-side state of its home tasks plus scratch
  // for its owned blocks' best-alpha subproblems. Counters accumulate into the engine-wide
  // ScheduleContextStats after every cycle.
  struct ShardContext {
    TaskCacheMap cache;
    std::vector<HeapEntry> heap;    // Persistent, fully sorted (live + lazily-stale).
    std::vector<HeapEntry> fresh;   // This cycle's rescored entries, pre-merge.
    std::vector<HeapEntry> merged;  // Scratch for the merge (ping-pong with heap).
    // This cycle's home tasks (batch indices, in batch order), viewing task_indices.
    std::span<const size_t> home;
    std::vector<size_t> task_indices;
    std::vector<std::vector<size_t>> requesters;  // Per owned block (local index), DPack.
    // This cycle's dirty *owned* blocks (capacity or membership), duplicate-free via the
    // shared dirty_stamp_. Written by the owning shard in phase 2 (arrivals are appended
    // sequentially in phase 1); read by every shard's phase-3 marking pass.
    std::vector<BlockId> dirty_ids;
    // This cycle's changed owned blocks, ascending: the shard's bucket of the cursor's
    // changed list, filled in phase 1 (unused at one shard, which reads the list itself).
    std::vector<BlockId> changed_ids;
    // DPack membership bookkeeping for owned blocks, O(touched) per cycle: blocks whose
    // signature was folded this cycle, and blocks whose current signature is non-seed (the
    // only ones that can go dirty by *losing* all requesters).
    std::vector<BlockId> touched_ids;
    std::vector<BlockId> active_ids;
    // Reverse index over *home tasks*: per global block id, the ids of this shard's home
    // tasks requesting it. Tasks are inserted when (re)scored with a new or re-resolved
    // block list — so every live cached score has its entries present — and lazily
    // swap-popped when found dead by the marking pass.
    std::vector<std::vector<TaskId>> rindex;
    uint64_t next_generation = 1;
    bool slots_moved = false;  // Set on rehash/purge; entries re-resolve at next merge.
    bool duplicate = false;    // Home batch contained a repeated task id this cycle.
    ScheduleContextStats partial;  // This cycle's counters; drained after the cycle.
  };

  // Runs phases 2 and 3 for every shard, upholding the visibility contract in the file
  // comment. Returns false to abandon the cycle (all shard-side work discarded, batch
  // recomputed from scratch) — used by the async engine when a published snapshot fails
  // quiesce validation. The base implementation (two fork-join barriers on the worker
  // pool) always returns true.
  virtual bool RunPhases(std::span<const Task> pending, const BlockManager& blocks,
                         uint64_t previous_cycle);

  // Phase 2 body for one shard: refresh owned dirty blocks; DPack signatures + best alphas.
  void SyncShardBlocks(size_t s, const BlockManager& blocks, std::span<const Task> pending);
  // Phase 3 body for one shard: marking pass, score pass over home tasks, local merge.
  void ScoreShardTasks(size_t s, std::span<const Task> pending, uint64_t previous_cycle);
  // Stamps `shard`'s home tasks stale through its reverse index for every block in
  // `dirty_ids` (one source shard's dirty list). Dead index entries (granted, evicted, or
  // purged tasks) are swap-popped as they are met. Touches only `shard`'s own cache and
  // rindex, so a task shard may run it against any source shard's list once that list's
  // phase-2 writes are visible (the pool join / the async refresh fence).
  void MarkStaleShardTasks(ShardContext& shard, std::span<const BlockId> dirty_ids,
                           uint64_t previous_cycle);
  // The score pass over `indices` (home tasks of `shard`, in batch order): per task the
  // reuse-vs-rescore decision, cache update, and fresh-heap append. Returns false at the
  // first id already seen this cycle (duplicate batch: the caller must stop and let
  // ScheduleBatch fall back). Requires a prior cache Reserve covering the cycle's inserts.
  bool ScoreTasks(ShardContext& shard, std::span<const Task> pending,
                  std::span<const size_t> indices, uint64_t previous_cycle);
  // Merges the shard's sorted heap with its rescored entries. With one shard the merge
  // also emits the allocation order, so phase 4 skips its N-way merge.
  void MergeShardHeap(ShardContext& shard);

  // Round-robin block ownership.
  size_t ShardOf(BlockId id) const {
    return static_cast<size_t>(static_cast<uint64_t>(id) % num_shards_);
  }

  GreedyMetric metric_;
  double eta_;
  size_t num_shards_;
  ScheduleContextStats stats_;
  uint64_t cycle_stamp_ = 0;  // Incremented per ScheduleBatch; task cache liveness clock.

  // The engine's position in the manager's change history, and the shared capacity
  // snapshot (created on the first cycle after construction or Invalidate: it needs the
  // manager's grid).
  BlockChangeCursor changes_;
  std::optional<CapacitySnapshot> snapshot_;

  // Shared block-side state, indexed by global block id. During phase 2 every entry is
  // written only by its owning shard.
  // Contiguous version mirror for the allocation walk; its size is the known-block count.
  // Persistent: arrivals append, phase-2 refreshes overwrite changed entries, walk commits
  // update, so it always equals the blocks' current versions between cycles.
  std::vector<uint64_t> version_now_;
  std::vector<uint64_t> dirty_stamp_;    // Per block: cycle stamp when last marked dirty.
  std::vector<uint64_t> member_sig_;     // DPack: per-block requester-set signature.
  std::vector<uint64_t> sig_scratch_;    // Per-cycle signature accumulator (lazily seeded).
  std::vector<uint64_t> touched_stamp_;  // Per block: cycle stamp of last signature fold.
  std::vector<size_t> best_alpha_;       // DPack: cached best order per block.

  std::vector<ShardContext> shards_;
  std::vector<size_t> order_;  // This cycle's allocation order (batch indices).

  // Set by a RunPhases override that returns false (stale publication): how many shard
  // publications failed quiesce validation, and how many rescores that discarded.
  // ScheduleBatch folds them into stats_ on the fallback path and resets them.
  uint64_t pending_stale_publishes_ = 0;
  uint64_t pending_wasted_rescores_ = 0;

 private:
  // Phase 1: poll the cursor, absorb arrivals into the snapshot, bucket changed ids
  // (sequential).
  void SyncArrivals(BlockManager& blocks);
  // Records owned block `id` as dirty this cycle on its owning shard's list, once.
  // Phase-2 callers must own `id`'s shard (disjoint writes); phase 1 calls sequentially.
  void MarkShardDirty(BlockId id);
  // Phase 4: deterministic N-way merge of the shard heaps into order_ (N > 1 only).
  void MergeOrder();
  // The CANRUN walk over order_ with feasibility memos — identical grants to
  // AllocateInOrder on the same order. Sequential: the walk's commits are order-dependent.
  std::vector<size_t> AllocateWithMemos(std::span<const Task> pending, BlockManager& blocks);

  WorkerPool pool_;
  // Home-shard cache entry per batch index, this cycle. Cache slots never move between the
  // score pass and the walk (Reserve runs before, purges after), so the pointers hold.
  std::vector<TaskCache*> cache_of_index_;
  std::vector<size_t> cursor_;  // Per-shard merge cursors (scratch).
};

}  // namespace dpack

#endif  // SRC_CORE_SCHEDULE_CONTEXT_H_
