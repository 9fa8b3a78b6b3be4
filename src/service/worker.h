// Scheduler-worker process logic of the grant service: a curve/task replica maintained from
// the daemon's diff messages, a pure scoring round over it, and the serve loop
// ServiceWorkerMain runs inside each forked worker.
//
// Determinism contract (the service's half of the grant-equivalence invariant): every score
// the worker produces is a pure function of (replica curve bits, the round's batch ids in
// batch order, the requested shard set, the bound metric/eta). The daemon ships curves as
// raw IEEE-754 bits and the worker scores with the very same functions the in-process
// engines call (ScoreGreedyTask, BestAlphaForBlock), so a replica fed the same state
// computes bit-identical scores — whichever worker computes them, and however many times a
// shard is re-requested after a crash. No clocks, no randomness, no unordered iteration
// (std::map only): scripts/dpack_lint.py enforces the same rules here as in src/core.
//
// The replica is incremental, and that does not weaken the contract. Its best-alpha memo
// is an exact cache: a block's solution is reused only while every input BestAlphaForBlock
// reads is unchanged — the block's available curve, the eta, and the requester payloads in
// batch order (see ScoreRound). A reused solution is therefore bit-identical to a fresh
// solve, and a memoized replica answers every request exactly like a fresh replica fed the
// same state (tests/service/worker_replica_test.cc pins this round by round).

#ifndef SRC_SERVICE_WORKER_H_
#define SRC_SERVICE_WORKER_H_

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/efficiency.h"
#include "src/core/task.h"
#include "src/rdp/alpha_grid.h"
#include "src/service/messages.h"
#include "src/service/transport.h"

namespace dpack {

// The worker-side mirror of the cluster state a scoring round reads: a dense-by-id
// CapacitySnapshot (same type the in-process engines score against), the pending-task
// payloads, and the per-block best-alpha memo.
class WorkerReplica {
 public:
  // Bind: fixes the scoring configuration and resets the replica, memo included (a
  // respawned worker is re-bound before being re-fed state).
  void ApplyBind(const BindMsg& msg);

  // New blocks, in id order; ids must extend the replica densely (DPACK_CHECKs — the
  // protocol ships upserts in order and never skips). New blocks start unmemoized.
  void ApplyBlockUpsert(const BlockUpsertMsg& msg);

  // Available-curve refreshes for known blocks; each clears that block's memo.
  void ApplyBlockRefresh(const BlockRefreshMsg& msg);

  // Task payload upserts (new arrivals; re-sent on late block resolution). Each entry
  // clears the memos of the blocks its payload names.
  void ApplyTaskUpsert(const TaskUpsertMsg& msg);

  // Cold start from a checkpoint-codec snapshot blob: restores a byte-identical
  // BlockManager with the recovery subsystem's own codec, rebuilds the curve replica from
  // it, adopts the snapshot's pending queue as the task payloads, and clears the memo.
  // Returns false with *error set on a corrupt/mismatched blob.
  bool ApplyState(const StateMsg& msg, std::string* error);

  // Scores one round: rebuilds the batch from `batch_ids` (every id must be a known
  // payload, and no id may repeat), drops payloads not in the batch (granted or evicted
  // tasks never return), and returns entries for the tasks homed to the requested shards,
  // in batch order.
  // Pure: identical replica state + identical request => bit-identical reply.
  ScoreReplyMsg ScoreRound(const ScoreRequestMsg& msg);

  bool bound() const { return bound_; }
  size_t block_count() const { return snapshot_ ? snapshot_->block_count() : 0; }
  // BestAlphaForBlock calls made over the replica's lifetime (memo misses); monotone.
  uint64_t best_alpha_solves() const { return best_alpha_solves_; }

 private:
  // Forgets every memoized solution and sizes the memo to the replica's block count.
  void ResetMemo();
  void InvalidateMemo(BlockId block);

  bool bound_ = false;
  uint32_t num_shards_ = 1;
  GreedyMetric metric_ = GreedyMetric::kDpack;
  double eta_ = 0.05;
  AlphaGridPtr grid_;
  std::optional<CapacitySnapshot> snapshot_;

  // Task payloads. The previous round's batch owns the payloads it scored, in batch order;
  // `batch_index_` maps its ids (sorted) to positions. Upserts since then wait in
  // `arrivals_` and take precedence over an older payload of the same id. ScoreRound moves
  // the next batch's payloads out of both and drops the rest.
  std::vector<Task> batch_;
  std::vector<std::pair<TaskId, size_t>> batch_index_;
  std::map<TaskId, Task> arrivals_;  // Ordered: no hash order near the scoring path.

  // Best-alpha memo, per block: the solution and the requester id sequence (batch order)
  // the solve read. An empty sequence means no valid memo: a block is solved only when some
  // home task needs it, so a solve always has at least one requester.
  std::vector<size_t> best_alpha_;
  std::vector<std::vector<TaskId>> memo_requesters_;
  uint64_t best_alpha_solves_ = 0;

  // Per-round scratch (persisted to avoid per-round allocation growth).
  std::vector<Task> next_batch_;
  std::vector<std::pair<TaskId, size_t>> next_index_;
  std::vector<uint64_t> needed_stamp_;
  std::vector<std::vector<size_t>> requesters_;
  uint64_t round_stamp_ = 0;
};

// The serve loop: applies daemon messages to a fresh replica until Shutdown (exit 0), ring
// corruption or a protocol violation (exit 2), or a lost daemon (exit 3). Publishes kReady
// after the Bind handshake and kExited before a clean return.
int ServiceWorkerMain(WorkerEndpoint& endpoint);

}  // namespace dpack

#endif  // SRC_SERVICE_WORKER_H_
