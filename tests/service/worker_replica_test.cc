// Differential proof of the worker replica's best-alpha memo: a replica kept alive across
// rounds (memoized solves, payloads moved from round to round) must answer every score
// request bit-identically to a fresh replica that is bound and fed the full current state
// just for that request. Driven two ways: by registry scenarios through the online driver,
// and by a small fixed script with one leg per memo-relevant event, where the number of
// best-alpha solves is pinned exactly so the memo cannot silently switch off.

#include "src/service/worker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/block/block_manager.h"
#include "src/core/metrics.h"
#include "src/core/scheduler.h"
#include "src/orchestrator/checkpoint.h"
#include "src/sim/sim_driver.h"
#include "src/workload/curve_pool.h"
#include "src/workload/scenario.h"

namespace dpack {
namespace {

constexpr uint64_t kSeed = 4242;

AlphaGridPtr Grid() { return AlphaGrid::Default(); }

const CurvePool& Pool() {
  static const CurvePool pool(Grid(), BlockCapacityCurve(Grid(), 10.0, 1e-7));
  return pool;
}

BindMsg MakeBind(uint32_t num_shards) {
  BindMsg bind;
  bind.num_workers = 1;
  bind.num_shards = num_shards;
  bind.metric = GreedyMetric::kDpack;
  bind.eta = 0.05;
  bind.alpha_orders = Grid()->orders();
  return bind;
}

// The daemon's diff stream (ServiceScheduler::BroadcastDiffs): new blocks, refreshes of
// blocks whose version advanced, and payloads of tasks not yet sent or whose block-list
// length changed (late resolution). A fresh feeder ships the full current state.
class DiffFeeder {
 public:
  void Feed(WorkerReplica& replica, std::span<const Task> pending, const BlockManager& blocks) {
    BlockUpsertMsg upserts;
    BlockRefreshMsg refreshes;
    for (size_t j = 0; j < blocks.block_count(); ++j) {
      const PrivacyBlock& b = blocks.block(static_cast<BlockId>(j));
      if (j >= last_version_.size()) {
        upserts.entries.push_back({static_cast<int64_t>(j), b.AvailableCurve().epsilons(),
                                   b.capacity().epsilons()});
        last_version_.push_back(b.version());
      } else if (b.version() != last_version_[j]) {
        refreshes.entries.push_back({static_cast<int64_t>(j), b.AvailableCurve().epsilons()});
        last_version_[j] = b.version();
      }
    }
    TaskUpsertMsg tasks;
    std::map<TaskId, size_t> still_pending;
    for (const Task& task : pending) {
      auto it = sent_.find(task.id);
      if (it == sent_.end() || it->second != task.blocks.size()) {
        tasks.entries.push_back(Upsert(task));
      }
      still_pending[task.id] = task.blocks.size();
    }
    sent_ = std::move(still_pending);
    if (!upserts.entries.empty()) replica.ApplyBlockUpsert(upserts);
    if (!refreshes.entries.empty()) replica.ApplyBlockRefresh(refreshes);
    if (!tasks.entries.empty()) replica.ApplyTaskUpsert(tasks);
  }

  static TaskUpsertMsg::Entry Upsert(const Task& task) {
    TaskUpsertMsg::Entry entry;
    entry.id = task.id;
    entry.weight = task.weight;
    entry.arrival_time = task.arrival_time;
    entry.demand = task.demand.epsilons();
    for (BlockId b : task.blocks) entry.blocks.push_back(static_cast<int64_t>(b));
    return entry;
  }

 private:
  std::vector<uint64_t> last_version_;
  std::map<TaskId, size_t> sent_;
};

ScoreRequestMsg Request(uint64_t round, std::span<const Task> pending,
                        std::vector<uint32_t> shards) {
  ScoreRequestMsg request;
  request.round = round;
  for (const Task& task : pending) request.batch_ids.push_back(task.id);
  request.shards = std::move(shards);
  return request;
}

// The memo-free reference: a fresh replica, bound and fed everything, scoring once.
ScoreReplyMsg FreshReply(const BindMsg& bind, const ScoreRequestMsg& request,
                         std::span<const Task> pending, const BlockManager& blocks,
                         uint64_t* solves = nullptr) {
  WorkerReplica fresh;
  fresh.ApplyBind(bind);
  DiffFeeder().Feed(fresh, pending, blocks);
  ScoreReplyMsg reply = fresh.ScoreRound(request);
  if (solves != nullptr) *solves += fresh.best_alpha_solves();
  return reply;
}

void ExpectBitIdentical(const ScoreReplyMsg& memo, const ScoreReplyMsg& fresh,
                        const std::string& label) {
  ASSERT_EQ(memo.round, fresh.round) << label;
  ASSERT_EQ(memo.entries.size(), fresh.entries.size()) << label;
  for (size_t k = 0; k < memo.entries.size(); ++k) {
    const ScoreReplyMsg::Entry& a = memo.entries[k];
    const ScoreReplyMsg::Entry& b = fresh.entries[k];
    EXPECT_EQ(a.id, b.id) << label << " entry " << k;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.score), std::bit_cast<uint64_t>(b.score))
        << label << " task " << a.id << ": " << a.score << " vs " << b.score;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.arrival_time), std::bit_cast<uint64_t>(b.arrival_time))
        << label << " task " << a.id;
  }
}

StateMsg StateOf(const BlockManager& blocks, std::span<const Task> pending) {
  AllocationMetrics metrics;
  SnapshotMeta meta;
  for (const Task& task : pending) {
    metrics.RecordSubmission(task.weight, false);
    meta.checkpoint_time = std::max(meta.checkpoint_time, task.arrival_time);
  }
  meta.next_cycle_time = meta.checkpoint_time;
  StateMsg state;
  state.snapshot = EncodeSnapshotBinary(CaptureSnapshot(blocks, pending, metrics, meta));
  return state;
}

// --- Registry scenarios through the online driver -----------------------------------------

// Wraps the in-process engine: before each cycle it ships the cycle's diffs to one
// long-lived replica and checks that replica's reply against a fresh one, then lets the
// engine grant. The shard set grows twice (as after reassignments), the replica is re-bound
// and re-fed once, and it cold-starts from a State blob once.
class MemoCheckScheduler : public Scheduler {
 public:
  struct Stats {
    uint64_t rounds = 0;
    uint64_t memo_solves = 0;
    uint64_t fresh_solves = 0;
  };

  MemoCheckScheduler(std::string label, Stats* stats)
      : label_(std::move(label)),
        stats_(stats),
        inner_(GreedyMetric::kDpack, GreedySchedulerOptions{.eta = 0.05}) {
    replica_.ApplyBind(bind_);
  }

  std::string name() const override { return "MemoCheck"; }

  std::vector<size_t> ScheduleBatch(std::span<const Task> pending,
                                    BlockManager& blocks) override {
    uint64_t round = ++stats_->rounds;
    if (round == kRebindRound) {
      replica_.ApplyBind(bind_);
      feeder_ = DiffFeeder();
    }
    feeder_.Feed(replica_, pending, blocks);
    if (round == kStateRound) {
      std::string error;
      EXPECT_TRUE(replica_.ApplyState(StateOf(blocks, pending), &error)) << error;
    }
    std::vector<uint32_t> shards = {1};
    if (round >= kFirstGrowthRound) shards = {1, 3};
    if (round >= kSecondGrowthRound) shards = {0, 1, 2, 3};
    ScoreRequestMsg request = Request(round, pending, shards);
    ScoreReplyMsg fresh = FreshReply(bind_, request, pending, blocks, &stats_->fresh_solves);
    std::string label = label_ + " round " + std::to_string(round);
    ExpectBitIdentical(replica_.ScoreRound(request), fresh, label);
    stats_->memo_solves = replica_.best_alpha_solves();
    return inner_.ScheduleBatch(pending, blocks);
  }

  static constexpr uint64_t kFirstGrowthRound = 5;
  static constexpr uint64_t kRebindRound = 9;
  static constexpr uint64_t kSecondGrowthRound = 12;
  static constexpr uint64_t kStateRound = 15;

 private:
  std::string label_;
  Stats* stats_;
  GreedyScheduler inner_;
  BindMsg bind_ = MakeBind(4);
  WorkerReplica replica_;
  DiffFeeder feeder_;
};

TEST(WorkerReplicaTest, MemoizedReplicaMatchesFreshReplicaOnScenarios) {
  uint64_t memo_solves = 0;
  uint64_t fresh_solves = 0;
  for (const std::string& name : ScenarioRegistryNames()) {
    ScenarioWorkload workload = GenerateScenario(Pool(), ScenarioByName(name, kSeed));
    MemoCheckScheduler::Stats stats;
    RunOnlineSimulation(std::make_unique<MemoCheckScheduler>(name, &stats), workload.tasks,
                        workload.sim);
    // Every leg (both growths, the re-bind, the State cold start) must have run.
    EXPECT_GT(stats.rounds, MemoCheckScheduler::kStateRound) << name;
    EXPECT_LE(stats.memo_solves, stats.fresh_solves) << name;
    memo_solves += stats.memo_solves;
    fresh_solves += stats.fresh_solves;
  }
  // The memo has to save work, or it is not on. (trickle_drain changes every needed block
  // every cycle, so it saves nothing there.)
  EXPECT_LT(memo_solves, fresh_solves);
}

// --- A fixed script, one leg per memo event, with exact solve counts ----------------------

class WorkerReplicaScriptTest : public ::testing::Test {
 protected:
  WorkerReplicaScriptTest() : blocks_(Grid(), 10.0, 1e-7) {
    for (int b = 0; b < 5; ++b) blocks_.AddBlock(0.0, /*unlocked=*/true);
    pending_.push_back(MakeTask(0, 0.10, {0, 1}));
    pending_.push_back(MakeTask(1, 0.20, {1, 2}));
    pending_.push_back(MakeTask(2, 0.15, {2}));
    pending_.push_back(MakeTask(3, 0.30, {3}));
    pending_.push_back(MakeTask(4, 0.25, {}));  // Unresolved until the late-resolution leg.
    pending_.push_back(MakeTask(5, 0.05, {4}));
    replica_.ApplyBind(bind_);
  }

  static Task MakeTask(TaskId id, double fraction, std::vector<BlockId> blocks) {
    Task task(id, /*weight=*/1.0 + static_cast<double>(id) / 4.0,
              Pool().capacity().Scaled(fraction));
    task.arrival_time = static_cast<double>(id);
    task.blocks = std::move(blocks);
    return task;
  }

  // One daemon round: ship the diffs, request `shards`, check the reply against a fresh
  // replica, and return how many best-alpha solves the round cost the memoized replica.
  uint64_t Round(std::vector<uint32_t> shards, bool ship_diffs = true) {
    if (ship_diffs) feeder_.Feed(replica_, pending_, blocks_);
    uint64_t before = replica_.best_alpha_solves();
    ScoreRequestMsg request = Request(++round_, pending_, std::move(shards));
    ScoreReplyMsg fresh = FreshReply(bind_, request, pending_, blocks_);
    ExpectBitIdentical(replica_.ScoreRound(request), fresh, "round " + std::to_string(round_));
    return replica_.best_alpha_solves() - before;
  }

  Task& Pending(TaskId id) {
    auto has_id = [id](const Task& task) { return task.id == id; };
    return *std::find_if(pending_.begin(), pending_.end(), has_id);
  }

  BindMsg bind_ = MakeBind(2);
  BlockManager blocks_;
  std::vector<Task> pending_;
  WorkerReplica replica_;
  DiffFeeder feeder_;
  uint64_t round_ = 0;
};

TEST_F(WorkerReplicaScriptTest, EveryMemoEventCostsExactlyItsSolves) {
  // All shards: blocks 0..4 are all needed and all solved once.
  EXPECT_EQ(Round({0, 1}), 5u);
  // Shard 0 only (tasks 0, 2, 4 need blocks 0, 1, 2): every memo still holds.
  EXPECT_EQ(Round({0}), 0u);
  EXPECT_EQ(Round({0}), 0u);

  // Refresh-only: block 1 is needed and re-solved; block 4 is refreshed while not needed.
  blocks_.block(1).Commit(Pool().capacity().Scaled(0.01));
  blocks_.block(4).Commit(Pool().capacity().Scaled(0.01));
  EXPECT_EQ(Round({0}), 1u);

  // Membership, arrival: task 6 joins block 2's requesters.
  pending_.push_back(MakeTask(6, 0.12, {2}));
  EXPECT_EQ(Round({0}), 1u);

  // Membership, grant purge: task 1 leaves blocks 1 and 2. No message ships at all; the
  // requester sequences alone must catch it.
  pending_.erase(pending_.begin() + 1);
  EXPECT_EQ(Round({0}), 2u);

  // Batch order alone: tasks 2 and 6 swap places, so block 2's requester ids keep their
  // count but not their order, which the solve reads.
  std::swap(pending_[1], pending_[5]);
  EXPECT_EQ(Round({0}), 1u);

  // Late resolution: task 4's empty list resolves to block 0, and the daemon re-upserts it.
  Pending(4).blocks = {0};
  EXPECT_EQ(Round({0}), 1u);

  // A re-upserted payload with an unchanged block list: block 2's requester ids are the
  // same, so only the upsert's own invalidation can force the re-solve.
  Pending(2).demand = Pool().capacity().Scaled(0.4);
  replica_.ApplyTaskUpsert(TaskUpsertMsg{{DiffFeeder::Upsert(Pending(2))}});
  EXPECT_EQ(Round({0}), 1u);

  // Shard-set growth after a reassignment: block 3 has not been needed since round 1 and is
  // reused; block 4 was refreshed meanwhile and is re-solved.
  EXPECT_EQ(Round({0, 1}), 1u);

  // Re-bind and full re-feed: everything needed is solved afresh.
  replica_.ApplyBind(bind_);
  feeder_ = DiffFeeder();
  EXPECT_EQ(Round({0, 1}), 5u);

  // Cold start from a State blob replaces the replica, memo included.
  std::string error;
  ASSERT_TRUE(replica_.ApplyState(StateOf(blocks_, pending_), &error)) << error;
  EXPECT_EQ(Round({0, 1}, /*ship_diffs=*/false), 5u);
  EXPECT_EQ(Round({0, 1}), 0u);

  EXPECT_EQ(replica_.best_alpha_solves(), 23u);
}

}  // namespace
}  // namespace dpack
