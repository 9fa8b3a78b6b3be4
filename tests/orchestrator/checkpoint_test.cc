// Property tests for the snapshot codec: randomized cluster states round-trip through the
// binary encoding bit-exactly, and corrupted inputs — truncations, single-bit flips, wrong
// versions, junk, inconsistent structures — are rejected with a diagnostic, never a crash
// (the ASan/UBSan CI leg runs this suite) and never a silently-wrong budget (the encoding
// carries a checksum over the canonical payload).

#include "src/orchestrator/checkpoint.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "src/block/block_manager.h"
#include "src/common/rng.h"
#include "src/core/metrics.h"
#include "src/rdp/rdp_curve.h"

namespace dpack {
namespace {

constexpr double kEpsG = 10.0;
constexpr double kDeltaG = 1e-7;

AlphaGridPtr Grid() { return AlphaGrid::Default(); }

// Builds a randomized but internally consistent cluster state — blocks with committed
// budget and partial unlocks, a pending queue, metrics that balance against it — and
// captures it, exercising CaptureSnapshot itself along the way.
ClusterSnapshot RandomSnapshot(uint64_t seed, size_t num_blocks, size_t num_pending) {
  Rng rng(seed);
  BlockManager blocks(Grid(), kEpsG, kDeltaG);
  RdpCurve capacity = BlockCapacityCurve(Grid(), kEpsG, kDeltaG);
  for (size_t b = 0; b < num_blocks; ++b) {
    blocks.AddBlock(static_cast<double>(b) * 0.5, /*unlocked=*/rng.Bernoulli(0.5));
  }
  blocks.UpdateUnlocks(/*now=*/static_cast<double>(num_blocks), /*period=*/1.0,
                       /*unlock_steps=*/rng.UniformInt(1, 8));
  // Commit random accepted demands so consumed curves and versions are non-trivial.
  for (size_t b = 0; b < num_blocks; ++b) {
    PrivacyBlock& block = blocks.block(static_cast<BlockId>(b));
    for (int attempt = 0; attempt < 3; ++attempt) {
      RdpCurve demand = capacity.Scaled(rng.Uniform(0.01, 0.4));
      if (block.CanAccept(demand)) {
        block.Commit(demand);
      }
    }
  }

  AllocationMetrics metrics;
  std::vector<Task> pending;
  size_t allocated = static_cast<size_t>(rng.UniformInt(0, 5));
  size_t evicted = static_cast<size_t>(rng.UniformInt(0, 3));
  double checkpoint_time = 100.0;
  for (size_t i = 0; i < num_pending + allocated + evicted; ++i) {
    double weight = rng.Uniform(0.5, 4.0);
    bool fair = rng.Bernoulli(0.3);
    metrics.RecordSubmission(weight, fair);
    if (i < allocated) {
      metrics.RecordAllocation(weight, rng.Uniform(0.0, 20.0), fair);
    } else if (i < allocated + evicted) {
      metrics.RecordEviction(weight);
    } else {
      Task task(static_cast<TaskId>(1000 + i), weight, capacity.Scaled(rng.Uniform(0.01, 0.6)));
      task.arrival_time = rng.Uniform(0.0, checkpoint_time);
      task.timeout = rng.Bernoulli(0.5) ? std::numeric_limits<double>::infinity()
                                        : rng.Uniform(1.0, 50.0);
      if (num_blocks > 0 && rng.Bernoulli(0.8)) {
        size_t count = static_cast<size_t>(
            rng.UniformInt(1, static_cast<int64_t>(std::min<size_t>(3, num_blocks))));
        for (size_t idx : rng.SampleWithoutReplacement(num_blocks, count)) {
          task.blocks.push_back(static_cast<BlockId>(idx));
        }
      } else {
        task.num_recent_blocks = static_cast<size_t>(rng.UniformInt(1, 4));
      }
      pending.push_back(std::move(task));
    }
  }
  for (int c = 0; c < 4; ++c) {
    metrics.RecordCycleRuntime(rng.Uniform(1e-5, 1e-2));
  }

  SnapshotMeta meta;
  meta.cycles_completed = static_cast<uint64_t>(rng.UniformInt(1, 200));
  meta.checkpoint_time = checkpoint_time;
  meta.next_cycle_time = checkpoint_time + rng.Uniform(0.0, 5.0);
  meta.period = rng.Uniform(0.5, 5.0);
  meta.unlock_steps = rng.UniformInt(1, 50);
  meta.fair_share_n = rng.UniformInt(1, 50);
  return CaptureSnapshot(blocks, pending, metrics, meta);
}

TEST(CheckpointCodecTest, BinaryRoundTripIsByteIdentical) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    ClusterSnapshot snapshot = RandomSnapshot(seed, 1 + seed % 7, seed % 9);
    ASSERT_EQ(ValidateSnapshot(snapshot), "") << "seed=" << seed;
    std::string encoded = EncodeSnapshotBinary(snapshot);
    SnapshotParseResult parsed = DecodeSnapshotBinary(encoded);
    ASSERT_TRUE(parsed.ok) << "seed=" << seed << ": " << parsed.error;
    // Re-encoding the parsed snapshot reproduces the exact bytes: nothing was lost or
    // renormalized anywhere in the pipeline.
    EXPECT_EQ(EncodeSnapshotBinary(parsed.snapshot), encoded) << "seed=" << seed;
  }
}

TEST(CheckpointCodecTest, JunkInputIsRejectedWithDiagnostic) {
  SnapshotParseResult junk = DecodeSnapshotBinary("not a snapshot at all");
  EXPECT_FALSE(junk.ok);
  EXPECT_FALSE(junk.error.empty());
}

TEST(CheckpointCodecTest, EmptyClusterRoundTrips) {
  // Degenerate content: no blocks, no pending tasks, zero metrics — the snapshot of a
  // freshly started (or fully drained and idle) cluster.
  BlockManager blocks(Grid(), kEpsG, kDeltaG);
  AllocationMetrics metrics;
  SnapshotMeta meta;
  meta.checkpoint_time = 0.0;
  meta.next_cycle_time = 1.0;
  ClusterSnapshot snapshot = CaptureSnapshot(blocks, {}, metrics, meta);
  ASSERT_EQ(ValidateSnapshot(snapshot), "");
  std::string encoded = EncodeSnapshotBinary(snapshot);
  SnapshotParseResult parsed = DecodeSnapshotBinary(encoded);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(EncodeSnapshotBinary(parsed.snapshot), encoded);
  EXPECT_TRUE(parsed.snapshot.blocks.empty());
}

TEST(CheckpointCodecTest, EveryBinaryTruncationIsRejected) {
  ClusterSnapshot snapshot = RandomSnapshot(31, 3, 4);
  std::string encoded = EncodeSnapshotBinary(snapshot);
  for (size_t len = 0; len < encoded.size(); ++len) {
    SnapshotParseResult parsed = DecodeSnapshotBinary(encoded.substr(0, len));
    ASSERT_FALSE(parsed.ok) << "prefix length " << len;
    ASSERT_FALSE(parsed.error.empty()) << "prefix length " << len;
  }
}

TEST(CheckpointCodecTest, EveryBinaryBitFlipIsRejected) {
  ClusterSnapshot snapshot = RandomSnapshot(32, 3, 3);
  std::string encoded = EncodeSnapshotBinary(snapshot);
  for (size_t byte = 0; byte < encoded.size(); ++byte) {
    for (int bit : {0, 3, 7}) {
      std::string corrupted = encoded;
      corrupted[byte] = static_cast<char>(corrupted[byte] ^ (1 << bit));
      SnapshotParseResult parsed = DecodeSnapshotBinary(corrupted);
      ASSERT_FALSE(parsed.ok) << "byte " << byte << " bit " << bit;
      ASSERT_FALSE(parsed.error.empty()) << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(CheckpointCodecTest, WrongVersionIsRejectedWithDiagnostic) {
  ClusterSnapshot snapshot = RandomSnapshot(34, 2, 2);
  std::string encoded = EncodeSnapshotBinary(snapshot);
  encoded[8] = static_cast<char>(kSnapshotFormatVersion + 1);  // Version field (LE) byte 0.
  SnapshotParseResult parsed = DecodeSnapshotBinary(encoded);
  ASSERT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("version"), std::string::npos) << parsed.error;
}

TEST(CheckpointCodecTest, ValidationCatchesInconsistentStates) {
  auto expect_invalid = [](ClusterSnapshot snapshot, const char* what) {
    std::string error = ValidateSnapshot(snapshot);
    EXPECT_FALSE(error.empty()) << what;
    // An invalid snapshot must also never decode: the encoder will happily frame it, but
    // the decoder re-validates.
    SnapshotParseResult parsed = DecodeSnapshotBinary(EncodeSnapshotBinary(snapshot));
    EXPECT_FALSE(parsed.ok) << what;
  };

  ClusterSnapshot base = RandomSnapshot(36, 3, 3);
  ASSERT_EQ(ValidateSnapshot(base), "");

  {
    ClusterSnapshot s = base;
    s.blocks[1].unlocked_fraction = 1.5;
    expect_invalid(std::move(s), "unlocked fraction > 1");
  }
  {
    ClusterSnapshot s = base;
    s.blocks[0].consumed[2] = -0.25;
    expect_invalid(std::move(s), "negative consumed budget");
  }
  {
    ClusterSnapshot s = base;
    s.blocks[0].consumed[0] = std::numeric_limits<double>::quiet_NaN();
    expect_invalid(std::move(s), "NaN consumed budget");
  }
  {
    ClusterSnapshot s = base;
    s.blocks[2].id = 7;
    expect_invalid(std::move(s), "non-dense block ids");
  }
  {
    ClusterSnapshot s = base;
    s.manager_epoch += 1;
    expect_invalid(std::move(s), "epoch out of step with block count");
  }
  {
    ClusterSnapshot s = base;
    s.metrics.allocated = s.metrics.submitted + 1;
    expect_invalid(std::move(s), "allocated > submitted");
  }
  {
    ClusterSnapshot s = base;
    s.metrics.submitted += 1;  // Breaks submitted - allocated - evicted == pending.
    expect_invalid(std::move(s), "counts out of step with the pending queue");
  }
  {
    ClusterSnapshot s = base;
    if (!s.pending.empty()) {
      s.pending[0].blocks.push_back(static_cast<BlockId>(s.blocks.size()));
      expect_invalid(std::move(s), "pending task referencing unknown block");
    }
  }
  {
    ClusterSnapshot s = base;
    s.grid_orders[0] = s.grid_orders[1];  // Not strictly increasing.
    expect_invalid(std::move(s), "non-increasing grid orders");
  }
}

TEST(CheckpointCodecTest, RestoreRebuildsByteIdenticalManager) {
  ClusterSnapshot snapshot = RandomSnapshot(41, 5, 4);
  BlockManager restored = RestoreBlockManager(snapshot);
  EXPECT_EQ(restored.epoch(), snapshot.manager_epoch);
  EXPECT_EQ(restored.block_count(), snapshot.blocks.size());
  EXPECT_EQ(restored.eps_g(), snapshot.eps_g);
  EXPECT_EQ(restored.delta_g(), snapshot.delta_g);
  for (size_t j = 0; j < snapshot.blocks.size(); ++j) {
    const PrivacyBlock& block = restored.block(static_cast<BlockId>(j));
    const SnapshotBlockState& state = snapshot.blocks[j];
    EXPECT_EQ(block.version(), state.version) << "block " << j;
    EXPECT_EQ(block.arrival_time(), state.arrival_time) << "block " << j;
    EXPECT_EQ(block.unlocked_fraction(), state.unlocked_fraction) << "block " << j;
    for (size_t a = 0; a < state.capacity.size(); ++a) {
      EXPECT_EQ(block.capacity().epsilon(a), state.capacity[a]) << "block " << j;
      EXPECT_EQ(block.consumed().epsilon(a), state.consumed[a]) << "block " << j;
    }
  }
  // A re-capture of the restored state is byte-identical to the original snapshot.
  std::vector<Task> pending = RestorePendingTasks(snapshot, restored.grid());
  AllocationMetrics metrics = RestoreMetrics(snapshot.metrics);
  ClusterSnapshot recaptured = CaptureSnapshot(restored, pending, metrics, snapshot.meta);
  EXPECT_EQ(EncodeSnapshotBinary(recaptured), EncodeSnapshotBinary(snapshot));
}

TEST(CheckpointCodecTest, RestoreMetricsReproducesAccessors) {
  ClusterSnapshot snapshot = RandomSnapshot(42, 2, 5);
  AllocationMetrics metrics = RestoreMetrics(snapshot.metrics);
  const SnapshotMetricsState& m = snapshot.metrics;
  EXPECT_EQ(metrics.submitted(), m.submitted);
  EXPECT_EQ(metrics.allocated(), m.allocated);
  EXPECT_EQ(metrics.evicted(), m.evicted);
  EXPECT_EQ(metrics.submitted_weight(), m.submitted_weight);
  EXPECT_EQ(metrics.allocated_weight(), m.allocated_weight);
  EXPECT_EQ(metrics.submitted_fair_share(), m.submitted_fair_share);
  EXPECT_EQ(metrics.allocated_fair_share(), m.allocated_fair_share);
  ASSERT_EQ(metrics.delays().samples(), m.delay_samples);
  RunningStat::State runtime = metrics.cycle_runtime_seconds().state();
  EXPECT_EQ(runtime.count, m.cycle_runtime.count);
  EXPECT_EQ(runtime.mean, m.cycle_runtime.mean);
  EXPECT_EQ(runtime.m2, m.cycle_runtime.m2);
  EXPECT_EQ(runtime.min, m.cycle_runtime.min);
  EXPECT_EQ(runtime.max, m.cycle_runtime.max);
  EXPECT_EQ(runtime.sum, m.cycle_runtime.sum);
}

}  // namespace
}  // namespace dpack
