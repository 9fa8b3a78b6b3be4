#include "src/core/async_schedule_engine.h"

#include "src/common/check.h"
#include "src/common/cpu_affinity.h"

namespace dpack {

AsyncScheduleEngine::AsyncScheduleEngine(GreedyMetric metric, double eta, size_t num_shards)
    : ScheduleContext(metric, eta, num_shards, /*pool_workers=*/0),
      early_(num_shards),
      late_(num_shards) {
  rings_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    rings_.push_back(std::make_unique<SpscRing<Frame>>());
  }
  threads_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    threads_.emplace_back([this, s] { ShardLoop(s); });
  }
}

AsyncScheduleEngine::~AsyncScheduleEngine() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  dispatch_cv_.NotifyAll();
  barrier_cv_.NotifyAll();
  for (std::thread& thread : threads_) {
    thread.join();
  }
}

bool AsyncScheduleEngine::AllBlocksHome(const Task& task, size_t s) const {
  for (BlockId j : task.blocks) {
    if (ShardOf(j) != s) {
      return false;
    }
  }
  return true;
}

void AsyncScheduleEngine::ShardLoop(size_t s) {
  // Pin before any scheduling work (best-effort; see cpu_affinity.h). Running pinned means
  // every buffer this thread grows from here on — its shard's heap, merge scratch, cache —
  // is first-touched from its core, so default first-touch placement keeps the shard's
  // working set local. A denial is counted, never fatal: the loop below is identical
  // pinned or not.
  int core = PickShardCore(s);
  if (core < 0 || !PinCurrentThreadToCore(core)) {
    pin_failures_.fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t seen = 0;
  MutexLock lock(mu_);
  while (true) {
    while (!stop_ && dispatch_seq_ == seen) {
      dispatch_cv_.Wait(mu_);
    }
    if (stop_) {
      return;  // `lock` releases mu_.
    }
    seen = dispatch_seq_;
    std::span<const Task> pending = cycle_pending_;
    const BlockManager* blocks = cycle_blocks_;
    uint64_t previous_cycle = cycle_previous_;
    lock.Unlock();

    // Phase 2 body: refresh owned blocks (shard-owned writes only).
    SyncShardBlocks(s, *blocks, pending);

    // Early score pass, before the refresh fence: tasks whose inputs this shard already
    // owns. DPF reads only total capacities (immutable after the sequential arrival
    // append), so every DPF home task qualifies; for the capacity-aware metrics only tasks
    // whose block list lives entirely in this shard do (their snapshot entries, dirty
    // flags, and best alphas were finalized by this thread's own refresh).
    ShardContext& shard = shards_[s];
    std::vector<size_t>& early = early_[s];
    std::vector<size_t>& late = late_[s];
    early.clear();
    late.clear();
    for (size_t i : shard.home) {
      if (metric_ == GreedyMetric::kDpf || AllBlocksHome(pending[i], s)) {
        early.push_back(i);
      } else {
        late.push_back(i);
      }
    }
    if (metric_ != GreedyMetric::kDpf) {
      // This shard's own dirty list is complete (its refresh above, plus the arrivals the
      // driver appended before dispatch): mark its home tasks stale before the early pass.
      // That covers every early-eligible task — all of its blocks live in this shard, so no
      // foreign dirty list can affect its score. Foreign lists are walked after the fence.
      if (shard.rindex.size() < version_now_.size()) {
        shard.rindex.resize(version_now_.size());
      }
      MarkStaleShardTasks(shard, shard.dirty_ids, previous_cycle);
    }
    shard.slots_moved |= shard.cache.Reserve(shard.home.size());
    uint64_t rescored_before = shard.partial.tasks_rescored;
    // False on a duplicate id: the flag is set and the batch will fall back.
    bool scoring_ok = ScoreTasks(shard, pending, early, previous_cycle);
    shard.partial.async_early_scores += shard.partial.tasks_rescored - rescored_before;

    // Refresh fence: every shard's phase-2 writes must happen-before any cross-shard
    // scoring reads. The last thread through releases the others.
    lock.Lock();
    if (++refresh_done_ == num_shards_) {
      barrier_cv_.NotifyAll();
    } else {
      while (refresh_done_ != num_shards_ && !stop_) {
        barrier_cv_.Wait(mu_);
      }
      if (stop_) {
        return;  // `lock` releases mu_.
      }
    }
    lock.Unlock();

    // Foreign shards' dirty lists are now visible (their phase-2 writes happened-before
    // the fence): finish the marking pass, then the late score pass and local heap merge.
    if (metric_ != GreedyMetric::kDpf) {
      for (size_t src = 0; src < num_shards_; ++src) {
        if (src != s) {
          MarkStaleShardTasks(shard, shards_[src].dirty_ids, previous_cycle);
        }
      }
    }
    if (scoring_ok && ScoreTasks(shard, pending, late, previous_cycle)) {
      MergeShardHeap(shard);
    }

    // Publish: one epoch-stamped push onto this shard's private SPSC ring. The push's
    // release store makes the heap and the counters (incremented before the push) visible
    // to the driver's acquire pop — no lock from the fence to the next dispatch wait. The
    // ring can only be full if a driver stopped draining (a protocol violation); the retry
    // spin is counted so the bench gate would catch it.
    ++shard.partial.ring_publishes;
    while (!rings_[s]->TryPush(seen, Frame{})) {
      ++shard.partial.ring_retries;
      std::this_thread::yield();
    }
    lock.Lock();
  }
}

bool AsyncScheduleEngine::RunPhases(std::span<const Task> pending, const BlockManager& blocks,
                                    uint64_t previous_cycle) {
  // The manager's clock at dispatch; the shard threads only read the manager, so it must
  // be unchanged at quiesce.
  const uint64_t epoch = blocks.epoch();
  const uint64_t total = blocks.version_tree().total();
  uint64_t seq = 0;
  {
    MutexLock lock(mu_);
    cycle_pending_ = pending;
    cycle_blocks_ = &blocks;
    cycle_previous_ = previous_cycle;
    refresh_done_ = 0;
    seq = ++dispatch_seq_;
  }
  dispatch_cv_.NotifyAll();

  // Quiesce: consume every shard's publication for this cycle, then revalidate the clock.
  // Pop each ring until this cycle's frame (epoch == seq) arrives. A frame from any other
  // dispatch is a stale publication — impossible under the cycle protocol, handled exactly
  // like a moved clock: counted, discarded, cycle abandoned below.
  uint64_t stale = 0;
  ring_done_.assign(num_shards_, 0);
  size_t remaining = num_shards_;
  while (remaining > 0) {
    bool progressed = false;
    for (size_t s = 0; s < num_shards_; ++s) {
      if (ring_done_[s] != 0) {
        continue;
      }
      uint64_t frame_seq = 0;
      Frame frame;
      while (rings_[s]->TryPop(&frame_seq, &frame)) {
        progressed = true;
        if (frame_seq == seq) {
          ring_done_[s] = 1;
          --remaining;
          break;
        }
        ++stale;
      }
    }
    if (!progressed) {
      std::this_thread::yield();
    }
  }
  {
    MutexLock lock(mu_);
    cycle_pending_ = {};
    cycle_blocks_ = nullptr;
  }
  // Every shard thread's work lies inside the dispatch-to-quiesce window, and versions
  // only grow, so an unchanged clock proves no shard read a state that has since moved. A
  // moved clock cannot tell which shard it touched: every publication of the cycle is
  // stale.
  if (blocks.epoch() != epoch || blocks.version_tree().total() != total) {
    stale += num_shards_;
  }

  // Every shard published this cycle, and each thread's pin attempt preceded its first
  // publication — so this read is complete once any cycle finishes. Re-read every cycle
  // (idempotent) so the fallback path's stats restore can never lose it for good.
  stats_.pin_failures = pin_failures_.load(std::memory_order_relaxed);

  if (stale > 0) {
    // The manager changed while snapshots were being built — the cycle protocol was
    // violated. Abandon the cycle (ScheduleBatch falls back to the recompute reference) and
    // account for the discarded speculation.
    pending_stale_publishes_ = stale;
    uint64_t wasted = 0;
    for (const ShardContext& shard : shards_) {
      wasted += shard.partial.tasks_rescored;
    }
    pending_wasted_rescores_ = wasted;
    return false;
  }
  return true;
}

}  // namespace dpack
