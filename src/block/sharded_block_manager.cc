#include "src/block/sharded_block_manager.h"

#include "src/common/check.h"

namespace dpack {

ShardedBlockManager::ShardedBlockManager(BlockManager* blocks, size_t num_shards)
    : blocks_(blocks), shards_(num_shards) {
  DPACK_CHECK(blocks_ != nullptr);
  DPACK_CHECK_MSG(num_shards >= 1, "ShardedBlockManager needs at least one shard");
}

size_t ShardedBlockManager::Sync() {
  size_t count = blocks_->block_count();
  DPACK_CHECK_MSG(count >= known_, "blocks disappeared: use a fresh partition per manager");
  for (Shard& shard : shards_) {
    shard.dirty = false;
    shard.changed.clear();
  }
  // Per-shard version-sum deltas accumulated this Sync (applied with one release store
  // each, keeping "shard version == sum of member versions" exact).
  delta_.assign(shards_.size(), 0);

  size_t added = count - known_;
  last_block_version_.resize(count, 0);
  for (size_t g = known_; g < count; ++g) {
    Shard& shard = shards_[ShardOf(static_cast<BlockId>(g))];
    shard.members.push_back(static_cast<BlockId>(g));
    shard.epoch.store(shard.epoch.load(std::memory_order_relaxed) + 1,
                      std::memory_order_release);
    shard.dirty = true;
    // Record the version at absorption (nonzero when the partition was built over a
    // restored manager) so the group drill-down below does not re-report arrivals.
    uint64_t version = blocks_->block(static_cast<BlockId>(g)).version();
    last_block_version_[g] = version;
    delta_[ShardOf(static_cast<BlockId>(g))] += version;
  }
  known_ = count;

  // Drill into groups whose version sum advanced; within them, only blocks whose recorded
  // version moved are changed. O(groups + changed) instead of O(members) per shard.
  const BlockVersionTree& tree = blocks_->version_tree();
  group_seen_.resize(tree.group_count(), 0);
  for (size_t g = 0; g < group_seen_.size(); ++g) {
    uint64_t sum = tree.group_sum(g);
    if (sum == group_seen_[g]) {
      continue;
    }
    group_seen_[g] = sum;
    size_t begin = g << BlockVersionTree::kGroupShift;
    size_t end = std::min(begin + (size_t{1} << BlockVersionTree::kGroupShift), count);
    for (size_t i = begin; i < end; ++i) {
      uint64_t version = blocks_->block(static_cast<BlockId>(i)).version();
      if (version == last_block_version_[i]) {
        continue;
      }
      size_t s = ShardOf(static_cast<BlockId>(i));
      delta_[s] += version - last_block_version_[i];
      last_block_version_[i] = version;
      shards_[s].changed.push_back(static_cast<BlockId>(i));
      shards_[s].dirty = true;
    }
  }

  for (size_t s = 0; s < shards_.size(); ++s) {
    if (delta_[s] != 0) {
      shards_[s].version.store(shards_[s].version.load(std::memory_order_relaxed) + delta_[s],
                               std::memory_order_release);
    }
  }
  return added;
}

}  // namespace dpack
