// Registry of live privacy blocks with online arrival and budget unlocking (§3.4).
//
// Storage is a two-tier slab (ISSUE 6): blocks live densely in a hot vector until they are
// retired — provably unable to ever change again (Exhausted() with the full budget
// unlocked) — at which point they compact into a retired slab. A per-id slot table keeps
// block(id) O(1) and id-stable across compaction, so retirement is invisible to every
// consumer that addresses blocks by id: scheduling outcomes, versions, and ids are
// byte-identical whether or not a block has been retired. The hot slab is what scans touch
// (unlock sweeps, refresh drill-downs), so its density is what keeps per-cycle cost
// proportional to the live population, not to history.
//
// Change detection is hierarchical: every version bump is reported to a BlockVersionTree
// (src/block/version_tree.h), and a BlockChangeCursor turns the tree into "which blocks
// arrived or changed since I last looked?" by scanning group sums (64 ids per group)
// instead of every block's version. Every consumer asks through a cursor: the engine's
// refresh, the retirement sweep, and the grant service's replica diffs.

#ifndef SRC_BLOCK_BLOCK_MANAGER_H_
#define SRC_BLOCK_BLOCK_MANAGER_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "src/block/privacy_block.h"
#include "src/block/version_tree.h"

namespace dpack {

// Where a block lives in the two-tier slab: its tier and its dense slot within that tier.
// Captured into checkpoints so a restored manager reproduces the exact layout.
struct BlockPlacement {
  bool retired = false;
  uint64_t slot = 0;
};

class BlockManager;

// One consumer's position in a manager's change history. Each Poll reports what happened
// since the previous one: the blocks that arrived (ids arrived_begin() .. known() - 1; ids
// are dense and arrival-ordered) and, separately, the ascending ids of previously known
// blocks whose version moved. Arrivals are never listed as changed. Polling is
// O(arrivals + groups + 64 x changed groups): only groups whose version sum moved are
// drilled into, and within them only blocks whose version differs from the one this cursor
// recorded. The changed list is a reused member buffer, so steady-state polls allocate
// nothing.
//
// The cursor holds no reference to a manager. Each Poll may pass the manager the previous
// poll saw or any Clone or Restore of it carrying later changes (both keep the epoch, the
// versions and the version tree, which is all the cursor compares). A manager with fewer
// blocks than the cursor knows is rejected by a check. A poll whose report is ignored seeds
// the cursor at the manager's current state.
class BlockChangeCursor {
 public:
  void Poll(const BlockManager& blocks);

  size_t arrived_begin() const { return arrived_begin_; }
  size_t known() const { return version_seen_.size(); }
  const std::vector<BlockId>& changed() const { return changed_; }

 private:
  size_t arrived_begin_ = 0;
  std::vector<uint64_t> version_seen_;  // Per known id: its version at the last poll.
  std::vector<uint64_t> group_seen_;    // Version-tree group sums at the last poll.
  std::vector<BlockId> changed_;
};

class BlockManager {
 public:
  // Blocks created by this manager share `grid` and derive capacity from (eps_g, delta_g).
  BlockManager(AlphaGridPtr grid, double eps_g, double delta_g);

  // The slabs hold blocks by value and the tree is heap-pinned; moving the manager keeps
  // every block's sink pointer valid, but copying must go through Clone() (re-sinks).
  BlockManager(BlockManager&&) = default;
  BlockManager& operator=(BlockManager&&) = default;

  const AlphaGridPtr& grid() const { return grid_; }
  double eps_g() const { return eps_g_; }
  double delta_g() const { return delta_g_; }

  // Adds a new block arriving at `arrival_time`; returns its id (dense, starting at 0).
  // In the online setting the block starts fully locked; UpdateUnlocks opens budget.
  // In the offline setting call with unlocked=true to make the whole budget available.
  BlockId AddBlock(double arrival_time, bool unlocked = false);

  // Adds a block with an explicit per-order capacity curve (must share this manager's grid)
  // instead of the derived (eps_g, delta_g) capacity. Used for synthetic instances.
  BlockId AddBlockWithCapacity(RdpCurve capacity, double arrival_time, bool unlocked = false);

  size_t block_count() const { return slot_of_id_.size(); }
  size_t hot_count() const { return hot_.size(); }
  size_t retired_count() const { return retired_.size(); }

  // References are invalidated by AddBlock* and RetireNewlyExhausted (slab growth and
  // compaction move blocks); hold them only within a scheduling cycle.
  PrivacyBlock& block(BlockId id);
  const PrivacyBlock& block(BlockId id) const;

  bool retired(BlockId id) const;
  BlockPlacement placement_of(BlockId id) const;

  // Monotonic arrival epoch, bumped whenever a block is added. Combined with the per-block
  // versions this gives consumers an exact change signal: if the epoch and every block
  // version are unchanged since the last observation, the manager's capacity state is
  // bit-identical. Clone() preserves the epoch and all versions so a clone's observations
  // remain comparable to the original's.
  uint64_t epoch() const { return epoch_; }

  // The hierarchical version clock: group sums change exactly when a member block's version
  // advances. Consumers diff group sums against their last observation to find changed
  // blocks in O(groups + changed).
  const BlockVersionTree& version_tree() const { return *version_tree_; }

  // Ids of the `n` most recent blocks (or all if fewer exist), most recent last. Ids are
  // dense, so this is O(n) regardless of the total block count, and retirement does not
  // change what it returns.
  std::vector<BlockId> MostRecentBlocks(size_t n) const;

  // Applies the paper's unlocking rule at scheduling time `now`: every block's unlocked
  // fraction becomes min(ceil((now - t_j) / period), unlock_steps) / unlock_steps.
  // Requires period > 0 and unlock_steps >= 1. O(still-unlocking blocks): fully-unlocked
  // blocks leave the work list permanently (the rule is monotone and capped at 1).
  void UpdateUnlocks(double now, double period, int64_t unlock_steps);

  // Retires every hot block that can provably never change again: Exhausted() with the full
  // budget unlocked (so no future unlock or admissible commit can touch it). The candidates
  // are the blocks that arrived or changed since the previous sweep (a cursor poll): a block
  // becomes eligible only through its own commit or effective unlock, so an unchanged block
  // cannot be newly eligible. Retirement order is id order within a sweep, which makes the
  // slab layout a deterministic function of the commit/unlock history (identical across
  // engines and across checkpoint/resume). Returns the number of blocks retired by this
  // sweep.
  size_t RetireNewlyExhausted();

  // Deep copy of the manager and all block states (capacities, consumption, unlocking).
  // Used by schedulers that need to trial-run allocation without committing budget.
  BlockManager Clone() const;

  // Rebuilds a manager from checkpointed state (see src/orchestrator/checkpoint.h):
  // `blocks` must carry dense ids 0..n-1 in order, on `grid`, and `epoch` must equal the
  // block count (the epoch only ever advances on AddBlock*). `placements` (parallel to
  // `blocks`; empty means every block is hot in id order) reproduces the captured slab
  // layout — each tier's slots must form a dense permutation. The result is byte-identical
  // to the captured manager — including the epoch, every block's version, and the
  // hot/retired placement — so change signals observed against the restored manager compare
  // exactly like the original's.
  static BlockManager Restore(AlphaGridPtr grid, double eps_g, double delta_g,
                              uint64_t epoch, std::vector<PrivacyBlock> blocks,
                              std::vector<BlockPlacement> placements = {});

 private:
  static constexpr uint64_t kRetiredTierBit = uint64_t{1} << 63;

  // Moves hot slot `slot` into the retired slab (swap-pop compaction).
  void RetireHotSlot(size_t slot);

  AlphaGridPtr grid_;
  double eps_g_;
  double delta_g_;
  uint64_t epoch_ = 0;
  std::vector<PrivacyBlock> hot_;
  std::vector<PrivacyBlock> retired_;
  // Indexed by id: slot within hot_, or (kRetiredTierBit | slot within retired_).
  std::vector<uint64_t> slot_of_id_;
  // Ids with unlocked_fraction < 1 — UpdateUnlocks' work list. Membership is a set (the
  // unlock rule is per-block and order-independent); ids swap-pop out on reaching 1.
  std::vector<BlockId> unlocking_ids_;
  // The retirement sweep's position in the change history.
  BlockChangeCursor retire_cursor_;
  // Heap-pinned so block sink pointers survive manager moves.
  std::unique_ptr<BlockVersionTree> version_tree_;
};

}  // namespace dpack

#endif  // SRC_BLOCK_BLOCK_MANAGER_H_
