// Two-level version clock over the block population (ISSUE 6): the root is the sum of all
// block versions, the inner level sums versions per group of 64 consecutive ids. Every
// version bump (Commit, effective unlock) is pushed into the tree by the block itself, so
// changed blocks are located in O(groups + changed) instead of by scanning every block's
// version each cycle. The tree has one reader that drills into it: BlockChangeCursor
// (src/block/block_manager.h), through which the engine, the retirement sweep and the grant
// service's diffs all ask what changed. total() alone is the manager-level clock the async
// engine revalidates at quiesce.
//
// Invariant: group_sum(g) == sum of version() over blocks with id >> kGroupShift == g, and
// total() == sum of all group sums. Versions are monotone, so the sums are monotone and a
// group-sum change is equivalent to "some member's version advanced" — no cancellation is
// possible. BlockManager maintains the invariant across AddBlock, Clone, and Restore
// (restored blocks carry nonzero versions, which are folded into the sums), which makes the
// tree a pure function of block state: identical across engines, clones, and resumed runs.

#ifndef SRC_BLOCK_VERSION_TREE_H_
#define SRC_BLOCK_VERSION_TREE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dpack {

class BlockVersionTree {
 public:
  // 64 blocks per group: at 1M blocks the per-consumer scan is ~16k group sums (one cache
  // line covers 8), and a single dirty block narrows the drill-down to 64 candidates.
  static constexpr size_t kGroupShift = 6;

  static constexpr size_t GroupOf(int64_t id) {
    return static_cast<size_t>(id) >> kGroupShift;
  }

  // Grows the group array to cover `id`. Called on every AddBlock before the block can bump.
  void Track(int64_t id) {
    size_t group = GroupOf(id);
    if (group >= groups_.size()) {
      groups_.resize(group + 1, 0);
    }
  }

  // Records one version bump of block `id`. Requires Track(id) to have been called.
  void OnBump(int64_t id) {
    ++groups_[GroupOf(id)];
    ++total_;
  }

  // Folds a restored block's pre-existing version into the sums (Restore only), keeping the
  // sum-of-versions invariant for managers rebuilt from checkpoints.
  void SeedVersion(int64_t id, uint64_t version) {
    Track(id);
    groups_[GroupOf(id)] += version;
    total_ += version;
  }

  uint64_t total() const { return total_; }
  size_t group_count() const { return groups_.size(); }
  uint64_t group_sum(size_t group) const { return groups_[group]; }

 private:
  std::vector<uint64_t> groups_;
  uint64_t total_ = 0;
};

}  // namespace dpack

#endif  // SRC_BLOCK_VERSION_TREE_H_
