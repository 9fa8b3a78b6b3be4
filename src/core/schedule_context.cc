#include "src/core/schedule_context.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "src/common/check.h"

namespace dpack {

namespace {

constexpr uint64_t kNoReject = std::numeric_limits<uint64_t>::max();

// Sorts task indices by score descending, breaking ties by arrival time then id so results
// are deterministic. This is the recompute path's ordering; the incremental heaps'
// HeapEntryBefore reproduces it exactly for unique ids.
std::vector<size_t> OrderByScoreDesc(std::span<const Task> pending,
                                     std::span<const double> scores) {
  std::vector<size_t> order(pending.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (scores[a] != scores[b]) {
      return scores[a] > scores[b];
    }
    if (pending[a].arrival_time != pending[b].arrival_time) {
      return pending[a].arrival_time < pending[b].arrival_time;
    }
    return pending[a].id < pending[b].id;
  });
  return order;
}

std::vector<size_t> FcfsOrder(std::span<const Task> pending) {
  std::vector<size_t> order(pending.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (pending[a].arrival_time != pending[b].arrival_time) {
      return pending[a].arrival_time < pending[b].arrival_time;
    }
    return pending[a].id < pending[b].id;
  });
  return order;
}

// DPack requester-set signatures: single-multiply sequence mix (splitmix64-style avalanche
// on the value, then a multiply fold). Sequence-sensitive, so a reordering of the same ids —
// which would change the item order fed to the best-alpha knapsacks — also changes the
// signature.
constexpr uint64_t kMemberSigSeed = 1469598103934665603ULL;
uint64_t MemberSigMix(uint64_t sig, uint64_t value) {
  value *= 0x9E3779B97F4A7C15ULL;
  value ^= value >> 29;
  return (sig ^ value) * 0xBF58476D1CE4E5B9ULL;
}

// The score pass's reuse-vs-rescore decision for one task: a cache entry is only
// trustworthy if the task was pending in the immediately preceding cycle (last_seen) with
// an unchanged block list (the vector buffer travels with the task on moves; reallocation
// on late resolution changes the pointer), and — for the capacity-aware metrics — the
// reverse-index marking pass did not stamp it stale this cycle (DPF scores depend only on
// total capacities, which never change for a fixed block list, so DPF ignores dirtiness).
// Sets `needs_index` when the entry is new or re-resolved — the caller must (re)insert the
// task into the reverse index so future marking passes reach it — and clears the
// feasibility memo in that case.
bool ShouldRescore(TaskCache& cached, const Task& task, GreedyMetric metric,
                   uint64_t previous_cycle, uint64_t cycle_stamp, bool& needs_index) {
  needs_index = cached.last_seen != previous_cycle ||
                cached.blocks_ptr != task.blocks.data() ||
                cached.blocks_len != task.blocks.size();
  if (needs_index) {
    cached.reject_vsum = kNoReject;  // New or re-resolved task: no feasibility memo.
    return true;
  }
  // Live cached entry: trust it unless the reverse-index marking pass stamped it stale
  // this cycle. DPF never goes stale (scores read only total capacities).
  return metric != GreedyMetric::kDpf && cached.stale_stamp == cycle_stamp;
}

// Merges `heap` (persistent, fully sorted) with `fresh` (this cycle's rescored entries)
// under HeapEntryBefore — exactly the reference sort's total order — dropping stale
// entries (superseded generations, granted or evicted tasks) at pop time; when
// `slots_moved`, entries re-resolve their cache slot via Find. The merged live entries
// replace `heap` (via `scratch`), `fresh` is cleared, `slots_moved` reset. When
// `order_out` is non-null, each surviving entry's batch index is appended in merge order.
// `merge_allocs` is incremented when the merge had to grow its output buffer — the
// ping-pong scratch persists across cycles, so steady-state cycles increment it zero times.
void MergeScoreHeap(std::vector<HeapEntry>& heap, std::vector<HeapEntry>& fresh,
                    std::vector<HeapEntry>& scratch, const TaskCacheMap& cache,
                    uint64_t cycle_stamp, bool& slots_moved, uint64_t& merge_allocs,
                    std::vector<size_t>* order_out) {
  std::sort(fresh.begin(), fresh.end(), HeapEntryBefore);
  size_t scratch_capacity = scratch.capacity();
  scratch.clear();
  size_t hi = 0;
  size_t fi = 0;
  while (hi < heap.size() || fi < fresh.size()) {
    bool take_heap;
    if (hi >= heap.size()) {
      take_heap = false;
    } else if (fi >= fresh.size()) {
      take_heap = true;
    } else {
      take_heap = HeapEntryBefore(heap[hi], fresh[fi]);
    }
    if (take_heap) {
      HeapEntry entry = heap[hi++];
      if (slots_moved) {
        size_t slot = cache.Find(entry.id);
        if (slot == TaskCacheMap::kNpos) {
          continue;  // Stale: purged.
        }
        entry.slot = slot;
      }
      const TaskCache& cached = cache.at(entry.slot);
      if (cached.last_seen != cycle_stamp || cached.generation != entry.generation) {
        continue;  // Stale: superseded, granted, or evicted.
      }
      if (order_out != nullptr) {
        order_out->push_back(cached.index);
      }
      scratch.push_back(entry);
    } else {
      const HeapEntry& entry = fresh[fi++];
      if (order_out != nullptr) {
        order_out->push_back(cache.at(entry.slot).index);
      }
      scratch.push_back(entry);
    }
  }
  // dpack-lint: allow(float-equality): size_t buffer-capacity bookkeeping, not a budget double.
  if (scratch.capacity() != scratch_capacity) {
    ++merge_allocs;  // Output buffer grew; steady-state cycles reuse the ping-pong pair.
  }
  heap.swap(scratch);
  fresh.clear();
  slots_moved = false;
}

}  // namespace

std::vector<size_t> AllocateInOrder(std::span<const Task> pending, BlockManager& blocks,
                                    std::span<const size_t> order) {
  std::vector<size_t> granted;
  for (size_t idx : order) {
    const Task& task = pending[idx];
    if (task.blocks.empty()) {
      continue;  // Unresolved block request (no blocks in the system yet).
    }
    bool can_run = true;
    for (BlockId j : task.blocks) {
      if (!blocks.block(j).CanAccept(task.demand)) {
        can_run = false;
        break;
      }
    }
    if (!can_run) {
      continue;
    }
    for (BlockId j : task.blocks) {
      blocks.block(j).Commit(task.demand);
    }
    granted.push_back(idx);
  }
  return granted;
}

std::vector<size_t> RecomputeScheduleBatch(GreedyMetric metric, double eta,
                                           std::span<const Task> pending,
                                           BlockManager& blocks) {
  if (pending.empty()) {
    return {};
  }
  if (metric == GreedyMetric::kFcfs) {
    // The paper's framework runs every policy through the same greedy loop (Alg. 1): FCFS is
    // the arrival-order metric with the same skip-infeasible allocation as the others.
    return AllocateInOrder(pending, blocks, FcfsOrder(pending));
  }

  CapacitySnapshot snapshot(blocks);
  std::vector<double> scores(pending.size(), 0.0);
  switch (metric) {
    case GreedyMetric::kDpf:
      for (size_t i = 0; i < pending.size(); ++i) {
        scores[i] = DpfEfficiency(pending[i], snapshot);
      }
      break;
    case GreedyMetric::kArea:
      for (size_t i = 0; i < pending.size(); ++i) {
        scores[i] = AreaEfficiency(pending[i], snapshot);
      }
      break;
    case GreedyMetric::kDpack: {
      std::vector<size_t> best_alpha = ComputeBestAlphas(pending, snapshot, eta);
      for (size_t i = 0; i < pending.size(); ++i) {
        scores[i] = DpackEfficiency(pending[i], snapshot, best_alpha);
      }
      break;
    }
    case GreedyMetric::kFcfs:
      break;  // Handled above.
  }
  return AllocateInOrder(pending, blocks, OrderByScoreDesc(pending, scores));
}

double ScoreGreedyTask(GreedyMetric metric, const Task& task, const CapacitySnapshot& snapshot,
                       std::span<const size_t> best_alpha) {
  switch (metric) {
    case GreedyMetric::kDpf:
      return DpfEfficiency(task, snapshot);
    case GreedyMetric::kArea:
      return AreaEfficiency(task, snapshot);
    case GreedyMetric::kDpack:
      return DpackEfficiency(task, snapshot, best_alpha);
    case GreedyMetric::kFcfs:
      break;  // FCFS never scores.
  }
  DPACK_CHECK_MSG(false, "unscored metric");
  return 0.0;
}

bool HeapEntryBefore(const HeapEntry& a, const HeapEntry& b) {
  if (a.score != b.score) {
    return a.score > b.score;
  }
  if (a.arrival != b.arrival) {
    return a.arrival < b.arrival;
  }
  return a.id < b.id;
}

// --- TaskCacheMap --------------------------------------------------------------------------

TaskCacheMap::TaskCacheMap() { slots_.resize(1024); }

size_t TaskCacheMap::Probe(TaskId id) const {
  uint64_t h = static_cast<uint64_t>(id) * 0x9E3779B97F4A7C15ULL;
  h ^= h >> 32;
  return static_cast<size_t>(h) & (slots_.size() - 1);
}

size_t TaskCacheMap::Find(TaskId id) const {
  size_t i = Probe(id);
  while (slots_[i].used) {
    if (slots_[i].id == id) {
      return i;
    }
    i = (i + 1) & (slots_.size() - 1);
  }
  return kNpos;
}

size_t TaskCacheMap::FindOrInsert(TaskId id) {
  size_t i = Probe(id);
  while (slots_[i].used) {
    if (slots_[i].id == id) {
      return i;
    }
    i = (i + 1) & (slots_.size() - 1);
  }
  DPACK_CHECK_MSG(2 * (size_ + 1) <= slots_.size(), "TaskCacheMap insert without Reserve");
  slots_[i].used = true;
  slots_[i].id = id;
  slots_[i].value = TaskCache{};
  ++size_;
  return i;
}

bool TaskCacheMap::Reserve(size_t additional) {
  size_t needed = 2 * (size_ + additional + 1);
  if (needed <= slots_.size()) {
    return false;
  }
  size_t capacity = slots_.size();
  while (capacity < needed) {
    capacity *= 2;
  }
  Rehash(capacity);
  return true;
}

void TaskCacheMap::Rehash(size_t new_capacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(new_capacity, Slot{});
  for (Slot& slot : old) {
    if (slot.used) {
      size_t i = Probe(slot.id);
      while (slots_[i].used) {
        i = (i + 1) & (slots_.size() - 1);
      }
      slots_[i] = std::move(slot);
    }
  }
}

void TaskCacheMap::PurgeNotSeen(uint64_t cycle) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size(), Slot{});
  size_ = 0;
  for (Slot& slot : old) {
    if (slot.used && slot.value.last_seen == cycle) {
      size_t i = Probe(slot.id);
      while (slots_[i].used) {
        i = (i + 1) & (slots_.size() - 1);
      }
      slots_[i] = std::move(slot);
      ++size_;
    }
  }
}

// --- ScheduleContext -----------------------------------------------------------------------

ScheduleContext::ScheduleContext(GreedyMetric metric, double eta, size_t num_shards)
    : ScheduleContext(metric, eta, num_shards,
                      /*pool_workers=*/num_shards >= 1 ? num_shards - 1 : 0) {}

ScheduleContext::ScheduleContext(GreedyMetric metric, double eta, size_t num_shards,
                                 size_t pool_workers)
    : metric_(metric),
      eta_(eta),
      num_shards_(num_shards),
      shards_(num_shards),
      pool_(pool_workers) {
  DPACK_CHECK(eta_ > 0.0);
  DPACK_CHECK_MSG(num_shards_ >= 1, "ScheduleContext needs at least one shard");
  stats_.shards = num_shards_;
}

void ScheduleContext::Invalidate() {
  changes_ = BlockChangeCursor{};
  snapshot_.reset();
  version_now_.clear();
  dirty_stamp_.clear();
  member_sig_.clear();
  sig_scratch_.clear();
  touched_stamp_.clear();
  best_alpha_.clear();
  shards_.assign(num_shards_, ShardContext{});
  order_.clear();
  cache_of_index_.clear();
  cursor_.clear();
  cycle_stamp_ = 0;
}

void ScheduleContext::MarkShardDirty(BlockId id) {
  size_t j = static_cast<size_t>(id);
  if (dirty_stamp_[j] != cycle_stamp_) {
    dirty_stamp_[j] = cycle_stamp_;
    shards_[ShardOf(id)].dirty_ids.push_back(id);
  }
}

void ScheduleContext::SyncArrivals(BlockManager& blocks) {
  if (!snapshot_.has_value()) {
    snapshot_.emplace(blocks.grid());
  }
  // The state is tracked by versions, not by manager identity: a Clone of the manager the
  // previous cycle saw carries the same epoch and versions, so the cursor follows it.
  changes_.Poll(blocks);
  size_t count = changes_.known();
  size_t known = changes_.arrived_begin();
  for (ShardContext& shard : shards_) {
    shard.dirty_ids.clear();
  }
  if (num_shards_ > 1) {
    // Bucket the changed ids by owning shard; each bucket stays ascending. One shard
    // refreshes straight from the cursor's list.
    for (ShardContext& shard : shards_) {
      shard.changed_ids.clear();
    }
    for (BlockId g : changes_.changed()) {
      shards_[ShardOf(g)].changed_ids.push_back(g);
    }
  }
  dirty_stamp_.resize(count, 0);
  touched_stamp_.resize(count, 0);
  sig_scratch_.resize(count, kMemberSigSeed);
  for (size_t g = known; g < count; ++g) {
    const PrivacyBlock& b = blocks.block(static_cast<BlockId>(g));
    snapshot_->Append(b.AvailableCurve(), b.capacity());
    version_now_.push_back(b.version());
    member_sig_.push_back(kMemberSigSeed);
    best_alpha_.push_back(0);
    MarkShardDirty(static_cast<BlockId>(g));
  }
}

void ScheduleContext::SyncShardBlocks(size_t s, const BlockManager& blocks,
                                      std::span<const Task> pending) {
  ShardContext& shard = shards_[s];
  // The cursor's poll listed exactly the changed ids — O(changed), via the manager's
  // version tree — so the refresh touches only those snapshot entries. Arrivals were
  // appended fresh (and marked dirty) by SyncArrivals; the changed list never contains them.
  const std::vector<BlockId>& changed =
      num_shards_ == 1 ? changes_.changed() : shard.changed_ids;
  for (BlockId g : changed) {
    const PrivacyBlock& b = blocks.block(g);
    version_now_[static_cast<size_t>(g)] = b.version();
    snapshot_->RefreshAvailable(g, b.AvailableCurve());
    MarkShardDirty(g);
    ++shard.partial.blocks_refreshed;
  }
  if (metric_ != GreedyMetric::kDpack) {
    return;
  }
  // With one shard every block is owned: the ownership test (a modulo per block reference)
  // and the local-index division below are skipped.
  const bool owns_all = num_shards_ == 1;
  // Membership signatures for owned blocks: best alphas depend on the requester set, so a
  // membership change (arrival, grant, eviction) dirties a block even when no capacity
  // changed. Every shard scans the whole batch but mixes only its owned blocks, so the
  // per-block signature streams are the same for every shard count. Touched entries are
  // seeded lazily, and blocks that *lost* all requesters are handled off the owned active
  // list — O(batch refs + prev active), never O(members).
  shard.touched_ids.clear();
  const uint64_t stamp = cycle_stamp_;
  const size_t count = sig_scratch_.size();
  for (const Task& task : pending) {
    for (BlockId j : task.blocks) {
      size_t ji = static_cast<size_t>(j);
      DPACK_CHECK(j >= 0 && ji < count);
      if (!owns_all && ShardOf(j) != s) {
        continue;
      }
      if (touched_stamp_[ji] != stamp) {
        touched_stamp_[ji] = stamp;
        shard.touched_ids.push_back(j);
        sig_scratch_[ji] = kMemberSigSeed;
      }
      sig_scratch_[ji] = MemberSigMix(sig_scratch_[ji], static_cast<uint64_t>(task.id));
    }
  }
  for (BlockId g : shard.active_ids) {
    size_t gi = static_cast<size_t>(g);
    if (touched_stamp_[gi] != cycle_stamp_ && member_sig_[gi] != kMemberSigSeed) {
      member_sig_[gi] = kMemberSigSeed;
      MarkShardDirty(g);
    }
  }
  shard.active_ids.clear();
  for (BlockId g : shard.touched_ids) {
    size_t gi = static_cast<size_t>(g);
    if (sig_scratch_[gi] != member_sig_[gi]) {
      member_sig_[gi] = sig_scratch_[gi];
      MarkShardDirty(g);
    }
    if (member_sig_[gi] != kMemberSigSeed) {
      shard.active_ids.push_back(g);
    }
  }
  // Requester lists and best-alpha subproblems for the dirty owned blocks. Requesters are
  // collected in batch order, matching ComputeBestAlphas' item order exactly.
  if (shard.dirty_ids.empty()) {
    return;
  }
  // Owned block g has local index g / N; shard s owns ceil((count - s) / N) of the known
  // blocks (count > s, since its dirty list is non-empty).
  auto local = [&](BlockId g) {
    return owns_all ? static_cast<size_t>(g) : static_cast<size_t>(g) / num_shards_;
  };
  size_t owned = (count - s + num_shards_ - 1) / num_shards_;
  if (shard.requesters.size() < owned) {
    shard.requesters.resize(owned);
  }
  for (BlockId g : shard.dirty_ids) {
    shard.requesters[local(g)].clear();
  }
  for (size_t i = 0; i < pending.size(); ++i) {
    for (BlockId j : pending[i].blocks) {
      // Ownership first: another shard may be writing its own blocks' dirty stamps.
      if ((owns_all || ShardOf(j) == s) &&
          dirty_stamp_[static_cast<size_t>(j)] == cycle_stamp_) {
        shard.requesters[local(j)].push_back(i);
      }
    }
  }
  // Per-block solves are independent, so dirty-list order (vs member order) is immaterial.
  for (BlockId g : shard.dirty_ids) {
    best_alpha_[static_cast<size_t>(g)] =
        BestAlphaForBlock(pending, shard.requesters[local(g)], snapshot_->available(g), eta_);
    ++shard.partial.best_alpha_recomputes;
  }
}

bool ScheduleContext::ScoreTasks(ShardContext& shard, std::span<const Task> pending,
                                 std::span<const size_t> indices, uint64_t previous_cycle) {
  for (size_t i : indices) {
    const Task& task = pending[i];
    size_t slot = shard.cache.FindOrInsert(task.id);
    TaskCache& cached = shard.cache.at(slot);
    cache_of_index_[i] = &cached;
    if (cached.last_seen == cycle_stamp_) {
      // Duplicate ids map to the same home shard, so local detection covers the batch.
      shard.duplicate = true;
      return false;
    }
    bool needs_index = false;
    bool rescore =
        ShouldRescore(cached, task, metric_, previous_cycle, cycle_stamp_, needs_index);
    cached.last_seen = cycle_stamp_;
    cached.index = i;
    if (!rescore) {
      ++shard.partial.tasks_reused;
      continue;
    }
    if (needs_index && metric_ != GreedyMetric::kDpf) {
      // New or re-resolved block list: register the task in its home shard's reverse index
      // under each requested block (any shard's block — the index is task-sharded), so
      // future dirty blocks reach it. DPF never consults the index.
      for (BlockId j : task.blocks) {
        shard.rindex[static_cast<size_t>(j)].push_back(task.id);
      }
    }
    cached.score = ScoreGreedyTask(metric_, task, *snapshot_, best_alpha_);
    cached.generation = shard.next_generation++;
    cached.blocks_ptr = task.blocks.data();
    cached.blocks_len = task.blocks.size();
    shard.fresh.push_back({cached.score, task.arrival_time, task.id, cached.generation, slot});
    ++shard.partial.tasks_rescored;
  }
  return true;
}

void ScheduleContext::MarkStaleShardTasks(ShardContext& shard,
                                          std::span<const BlockId> dirty_ids,
                                          uint64_t previous_cycle) {
  for (BlockId id : dirty_ids) {
    std::vector<TaskId>& tasks = shard.rindex[static_cast<size_t>(id)];
    for (size_t i = 0; i < tasks.size();) {
      size_t slot = shard.cache.Find(tasks[i]);
      if (slot == TaskCacheMap::kNpos || shard.cache.at(slot).last_seen != previous_cycle) {
        tasks[i] = tasks.back();  // Dead entry (granted, evicted, or purged): prune.
        tasks.pop_back();
        continue;
      }
      shard.cache.at(slot).stale_stamp = cycle_stamp_;
      ++i;
    }
  }
}

void ScheduleContext::ScoreShardTasks(size_t s, std::span<const Task> pending,
                                      uint64_t previous_cycle) {
  ShardContext& shard = shards_[s];
  if (metric_ != GreedyMetric::kDpf) {
    // Every shard's phase-2 dirty list is complete and visible (the pool join): stamp this
    // shard's affected home tasks stale before their reuse-vs-rescore decisions.
    if (shard.rindex.size() < version_now_.size()) {
      shard.rindex.resize(version_now_.size());
    }
    for (size_t src = 0; src < num_shards_; ++src) {
      MarkStaleShardTasks(shard, shards_[src].dirty_ids, previous_cycle);
    }
  }
  shard.slots_moved |= shard.cache.Reserve(shard.home.size());
  if (ScoreTasks(shard, pending, shard.home, previous_cycle)) {
    MergeShardHeap(shard);
  }
}

void ScheduleContext::MergeShardHeap(ShardContext& shard) {
  MergeScoreHeap(shard.heap, shard.fresh, shard.merged, shard.cache, cycle_stamp_,
                 shard.slots_moved, shard.partial.merge_allocs,
                 num_shards_ == 1 ? &order_ : nullptr);
}

void ScheduleContext::MergeOrder() {
  // Deterministic N-way merge of the per-shard heaps (each fully sorted, all entries live
  // this cycle). HeapEntryBefore is a strict total order for unique task ids, so the merged
  // sequence is the unique reference sort order — independent of shard count and timing.
  order_.clear();
  cursor_.assign(num_shards_, 0);
  while (true) {
    size_t best = num_shards_;
    for (size_t s = 0; s < num_shards_; ++s) {
      if (cursor_[s] >= shards_[s].heap.size()) {
        continue;
      }
      if (best == num_shards_ ||
          HeapEntryBefore(shards_[s].heap[cursor_[s]], shards_[best].heap[cursor_[best]])) {
        best = s;
      }
    }
    if (best == num_shards_) {
      break;
    }
    const HeapEntry& entry = shards_[best].heap[cursor_[best]++];
    order_.push_back(shards_[best].cache.at(entry.slot).index);
  }
}

std::vector<size_t> ScheduleContext::AllocateWithMemos(std::span<const Task> pending,
                                                       BlockManager& blocks) {
  // Version sums are monotone (each version only grows), so an unchanged sum proves every
  // requested block unchanged since a task's last rejection: still infeasible, skip the
  // per-order filter scans. Commits made earlier in the walk bump version_now_, so the
  // memo can never mask newly-created contention.
  std::vector<size_t> granted;
  for (size_t idx : order_) {
    const Task& task = pending[idx];
    if (task.blocks.empty()) {
      continue;  // Unresolved block request.
    }
    TaskCache& cached = *cache_of_index_[idx];
    uint64_t vsum = 0;
    for (BlockId j : task.blocks) {
      vsum += version_now_[static_cast<size_t>(j)];
    }
    if (cached.reject_vsum == vsum) {
      continue;
    }
    bool can_run = true;
    for (BlockId j : task.blocks) {
      if (!blocks.block(j).CanAccept(task.demand)) {
        can_run = false;
        break;
      }
    }
    if (!can_run) {
      cached.reject_vsum = vsum;
      continue;
    }
    for (BlockId j : task.blocks) {
      blocks.block(j).Commit(task.demand);
      version_now_[static_cast<size_t>(j)] = blocks.block(j).version();
    }
    cached.last_seen = 0;  // The grant removes the task from the queue.
    granted.push_back(idx);
  }
  return granted;
}

bool ScheduleContext::RunPhases(std::span<const Task> pending, const BlockManager& blocks,
                                uint64_t previous_cycle) {
  // Phase 2: per-shard block refresh (disjoint writes into the shared id-indexed arrays;
  // the pool join publishes them to the scoring phase).
  pool_.ParallelFor(num_shards_, [&](size_t s) { SyncShardBlocks(s, blocks, pending); });
  // Phase 3: per-shard score pass and local heap merge.
  pool_.ParallelFor(num_shards_,
                    [&](size_t s) { ScoreShardTasks(s, pending, previous_cycle); });
  return true;
}

std::vector<size_t> ScheduleContext::ScheduleBatch(std::span<const Task> pending,
                                                   BlockManager& blocks) {
  if (pending.empty()) {
    return {};
  }
  ++stats_.cycles;
  if (metric_ == GreedyMetric::kFcfs) {
    // Arrival order needs no scores, hence no cache: the engine is a pass-through.
    return RecomputeScheduleBatch(metric_, eta_, pending, blocks);
  }

  ScheduleContextStats stats_at_entry = stats_;
  uint64_t previous_cycle = cycle_stamp_;
  ++cycle_stamp_;

  SyncArrivals(blocks);

  // Partition the batch by home shard, sequentially, so each shard can reserve its cache up
  // front (no slot moves mid-cycle). Done before the phases fan out: the score pass reads
  // its shard's home list, and the async engine's threads start from it directly.
  for (ShardContext& shard : shards_) {
    shard.duplicate = false;
  }
  if (num_shards_ == 1) {
    // One shard owns the whole batch, so its home list is 0..n-1: a grow-only identity
    // prefix, not a batch-sized array rewritten every cycle.
    std::vector<size_t>& all = shards_[0].task_indices;
    while (all.size() < pending.size()) {
      all.push_back(all.size());
    }
    shards_[0].home = std::span<const size_t>(all).first(pending.size());
  } else {
    for (ShardContext& shard : shards_) {
      shard.task_indices.clear();
    }
    for (size_t i = 0; i < pending.size(); ++i) {
      uint64_t home = static_cast<uint64_t>(pending[i].id) % num_shards_;
      shards_[static_cast<size_t>(home)].task_indices.push_back(i);
    }
    for (ShardContext& shard : shards_) {
      shard.home = shard.task_indices;
    }
  }
  cache_of_index_.resize(pending.size());
  order_.clear();  // One shard's merge appends the order directly (MergeShardHeap).

  bool phases_ok = RunPhases(pending, blocks, previous_cycle);

  bool duplicate_ids = false;
  for (const ShardContext& shard : shards_) {
    duplicate_ids |= shard.duplicate;
  }
  if (!phases_ok || duplicate_ids) {
    // Duplicates: id-keyed caches cannot reproduce the recompute path's tie-breaking
    // between tasks that share an id. Stale publication (async engine): the cycle's shard
    // work is untrustworthy. Either way, recompute this batch from scratch and start the
    // caches over — grants stay exactly the reference sequence. The partial pass's work is
    // discarded, so its counters are too.
    Invalidate();
    stats_ = stats_at_entry;
    ++stats_.full_recomputes;
    stats_.async_stale_publishes += pending_stale_publishes_;
    stats_.async_wasted_rescores += pending_wasted_rescores_;
    pending_stale_publishes_ = 0;
    pending_wasted_rescores_ = 0;
    return RecomputeScheduleBatch(metric_, eta_, pending, blocks);
  }

  // version_now_ is already current: arrivals appended it, phase 2 overwrote exactly the
  // changed entries (owner-written; published by RunPhases returning), and the previous
  // walk's commits kept it in sync in between — no O(blocks) mirror copy.
  if (num_shards_ > 1) {
    MergeOrder();
  }
  std::vector<size_t> granted = AllocateWithMemos(pending, blocks);

  for (ShardContext& shard : shards_) {
    // Bound cache growth: once dead entries (granted or evicted tasks) dominate — long runs
    // with churn — rebuild keeping only the live ones. Heap entries re-resolve lazily.
    if (shard.cache.size() > 2 * shard.home.size() + 64) {
      shard.cache.PurgeNotSeen(cycle_stamp_);
      shard.slots_moved = true;
    }
    stats_.Accumulate(shard.partial);
    shard.partial = ScheduleContextStats{};
  }
  return granted;
}

}  // namespace dpack
