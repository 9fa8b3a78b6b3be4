// Unit pins for BlockChangeCursor, the one reader of the version tree: every consumer of
// "which blocks arrived or changed since I last looked?" (the engine's refresh, the
// retirement sweep, the grant service's replica diffs) trusts these lists to be exact.

#include "src/block/block_manager.h"

#include <gtest/gtest.h>

#include <vector>

namespace dpack {
namespace {

constexpr double kEpsG = 10.0;
constexpr double kDeltaG = 1e-7;

AlphaGridPtr Grid() { return AlphaGrid::Default(); }

RdpCurve Small() {
  return RdpCurve(Grid(), std::vector<double>(Grid()->orders().size(), 0.01));
}

BlockManager ManagerWith(size_t n) {
  BlockManager manager(Grid(), kEpsG, kDeltaG);
  for (size_t i = 0; i < n; ++i) {
    manager.AddBlock(0.0, /*unlocked=*/true);
  }
  return manager;
}

TEST(BlockChangeCursorTest, ArrivalsAreNeverListedAsChanged) {
  BlockManager manager = ManagerWith(3);
  manager.block(1).Commit(Small());  // Bumped before the cursor ever saw it.
  BlockChangeCursor cursor;
  cursor.Poll(manager);
  EXPECT_EQ(cursor.arrived_begin(), 0u);
  EXPECT_EQ(cursor.known(), 3u);
  EXPECT_TRUE(cursor.changed().empty());

  // A later arrival that is bumped before the next poll is still only an arrival, while a
  // bump of a known block in the same group is a change.
  manager.AddBlock(1.0, /*unlocked=*/true);
  manager.block(3).Commit(Small());
  manager.block(0).Commit(Small());
  cursor.Poll(manager);
  EXPECT_EQ(cursor.arrived_begin(), 3u);
  EXPECT_EQ(cursor.known(), 4u);
  EXPECT_EQ(cursor.changed(), (std::vector<BlockId>{0}));

  cursor.Poll(manager);  // Nothing happened since.
  EXPECT_EQ(cursor.arrived_begin(), 4u);
  EXPECT_EQ(cursor.known(), 4u);
  EXPECT_TRUE(cursor.changed().empty());
}

TEST(BlockChangeCursorTest, ChangedIdsAscendAcrossGroups) {
  BlockManager manager = ManagerWith(200);
  BlockChangeCursor cursor;
  cursor.Poll(manager);
  // Bumped out of order, in three different 64-id groups, one of them twice.
  for (BlockId id : {BlockId{130}, BlockId{3}, BlockId{64}, BlockId{130}}) {
    manager.block(id).Commit(Small());
  }
  cursor.Poll(manager);
  EXPECT_EQ(cursor.changed(), (std::vector<BlockId>{3, 64, 130}));
  EXPECT_EQ(cursor.arrived_begin(), 200u);
}

TEST(BlockChangeCursorTest, UnlocksCountAsChanges) {
  BlockManager manager(Grid(), kEpsG, kDeltaG);
  manager.AddBlock(0.0);
  manager.AddBlock(5.0);
  BlockChangeCursor cursor;
  cursor.Poll(manager);
  // Block 0 unlocks a step; block 1 has not arrived yet at t = 1.
  manager.UpdateUnlocks(/*now=*/1.0, /*period=*/1.0, /*unlock_steps=*/4);
  cursor.Poll(manager);
  EXPECT_EQ(cursor.changed(), (std::vector<BlockId>{0}));
}

TEST(BlockChangeCursorTest, CloneReportsOnlyBumpsAfterTheClone) {
  BlockManager manager = ManagerWith(70);
  manager.block(2).Commit(Small());
  BlockChangeCursor cursor;
  cursor.Poll(manager);
  manager.block(65).Commit(Small());
  cursor.Poll(manager);
  ASSERT_EQ(cursor.changed(), (std::vector<BlockId>{65}));

  BlockManager clone = manager.Clone();
  cursor.Poll(clone);
  EXPECT_TRUE(cursor.changed().empty());
  clone.block(2).Commit(Small());
  clone.AddBlock(1.0);
  cursor.Poll(clone);
  EXPECT_EQ(cursor.changed(), (std::vector<BlockId>{2}));
  EXPECT_EQ(cursor.arrived_begin(), 70u);
  EXPECT_EQ(cursor.known(), 71u);
}

TEST(BlockChangeCursorTest, RestoreSeededCursorReportsNothingUntilTheNextBump) {
  BlockManager manager = ManagerWith(100);
  for (BlockId id : {BlockId{5}, BlockId{70}, BlockId{70}}) {
    manager.block(id).Commit(Small());
  }
  std::vector<PrivacyBlock> blocks;
  for (size_t i = 0; i < manager.block_count(); ++i) {
    blocks.push_back(manager.block(static_cast<BlockId>(i)));
  }
  BlockManager restored =
      BlockManager::Restore(Grid(), kEpsG, kDeltaG, manager.epoch(), std::move(blocks));

  // A first poll seeds the cursor: the restored blocks are arrivals, their restored
  // (nonzero) versions are not changes, and nothing is reported until a bump.
  BlockChangeCursor cursor;
  cursor.Poll(restored);
  EXPECT_EQ(cursor.arrived_begin(), 0u);
  EXPECT_EQ(cursor.known(), 100u);
  EXPECT_TRUE(cursor.changed().empty());
  cursor.Poll(restored);
  EXPECT_TRUE(cursor.changed().empty());
  EXPECT_EQ(cursor.arrived_begin(), 100u);

  restored.block(70).Commit(Small());
  cursor.Poll(restored);
  EXPECT_EQ(cursor.changed(), (std::vector<BlockId>{70}));
}

TEST(BlockChangeCursorTest, CursorsOverOneManagerAreIndependent) {
  BlockManager manager = ManagerWith(10);
  BlockChangeCursor first;
  BlockChangeCursor second;
  first.Poll(manager);
  manager.block(4).Commit(Small());
  first.Poll(manager);
  EXPECT_EQ(first.changed(), (std::vector<BlockId>{4}));

  // The second cursor has never looked: everything is an arrival, nothing is changed.
  second.Poll(manager);
  EXPECT_EQ(second.arrived_begin(), 0u);
  EXPECT_EQ(second.known(), 10u);
  EXPECT_TRUE(second.changed().empty());

  manager.block(9).Commit(Small());
  first.Poll(manager);
  EXPECT_EQ(first.changed(), (std::vector<BlockId>{9}));
  manager.block(1).Commit(Small());
  second.Poll(manager);
  EXPECT_EQ(second.changed(), (std::vector<BlockId>{1, 9}));
}

TEST(BlockChangeCursorTest, ManagerThatLostBlocksIsRejected) {
  BlockManager manager = ManagerWith(5);
  BlockManager smaller = ManagerWith(3);
  BlockChangeCursor cursor;
  cursor.Poll(manager);
  EXPECT_DEATH(cursor.Poll(smaller), "blocks disappeared");
}

}  // namespace
}  // namespace dpack
