// Bounded lock-free single-producer single-consumer ring for in-process snapshot
// publication — the in-memory sibling of the cross-process byte ring in shm_ring.h, and
// deliberately the same cursor discipline: a producer-owned write cursor and a
// consumer-owned read cursor, both monotonically increasing slot counts (never wrapped;
// slot offsets are cursor % capacity), each on its own cache line so the two sides never
// false-share.
//
// Visibility is by construction: TryPush fills the whole slot (epoch + payload) and only
// then publishes the write cursor with a release store; TryPop reads the cursor with an
// acquire load before touching the slot. Everything the producer wrote before a successful
// push — the slot, and any plain memory it filled earlier (a heap snapshot, per-shard
// counters) — therefore happens-before the consumer's pop of that slot. This edge is why
// AsyncScheduleEngine's publication takes no lock: the ring pop is the publication point.
//
// Slots carry an explicit epoch stamp chosen by the producer (the engine uses its cycle's
// dispatch sequence number). A consumer that pops a slot whose epoch is not the one it is
// waiting for has detected a stale publication — a frame from a cycle whose protocol was
// violated — and handles it exactly as the engine's `async_stale_publishes` quiesce check
// demands: count it, discard it, abandon the cycle to the recompute reference.
//
// No syscalls, no waiting: full/empty are returned to the caller, whose loop owns the
// spin/yield policy and the retry counters (see async_schedule_engine.cc; torture-raced by
// tests/common/spsc_ring_test.cc on the TSan CI leg).

#ifndef SRC_COMMON_SPSC_RING_H_
#define SRC_COMMON_SPSC_RING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace dpack {

// `T` must be trivially copyable in spirit (it is memcpy'd into and out of slots by plain
// assignment with no synchronization of its own); `kCapacity` a power of two >= 2. The ring
// never allocates after construction.
template <typename T, size_t kCapacity = 4>
class SpscRing {
  static_assert(kCapacity >= 2 && (kCapacity & (kCapacity - 1)) == 0,
                "capacity must be a power of two >= 2");
  static_assert(std::atomic<uint64_t>::is_always_lock_free,
                "publication cursors must be lock-free");

 public:
  SpscRing() = default;
  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  // Producer side. Publishes one epoch-stamped value; returns false (ring unchanged) when
  // all kCapacity slots hold unconsumed frames. The release store is the publication edge
  // for the slot *and* for every plain write the producer made before the call.
  bool TryPush(uint64_t epoch, const T& value) {
    uint64_t t = tail_.load(std::memory_order_relaxed);
    if (t - head_.load(std::memory_order_acquire) >= kCapacity) {
      return false;
    }
    Slot& slot = slots_[t & (kCapacity - 1)];
    slot.epoch = epoch;
    slot.value = value;
    tail_.store(t + 1, std::memory_order_release);
    return true;
  }

  // Consumer side. Pops the oldest published frame into (*epoch_out, *out); returns false
  // when no frame is published. Epoch validation is the caller's: the ring delivers frames
  // in publication order and never invents or drops one.
  bool TryPop(uint64_t* epoch_out, T* out) {
    uint64_t h = head_.load(std::memory_order_relaxed);
    if (tail_.load(std::memory_order_acquire) == h) {
      return false;
    }
    const Slot& slot = slots_[h & (kCapacity - 1)];
    *epoch_out = slot.epoch;
    *out = slot.value;
    head_.store(h + 1, std::memory_order_release);
    return true;
  }

  // Frames currently published and unconsumed. Exact from either owning thread; racy (but
  // always a valid recent value) from anywhere else.
  size_t size() const {
    return static_cast<size_t>(tail_.load(std::memory_order_acquire) -
                               head_.load(std::memory_order_acquire));
  }
  static constexpr size_t capacity() { return kCapacity; }

 private:
  struct Slot {
    uint64_t epoch = 0;
    T value{};
  };

  // The shm_ring.h Header discipline: cursors on separate cache lines, monotone, never
  // wrapped.
  alignas(64) std::atomic<uint64_t> tail_{0};  // Producer-owned write cursor.
  alignas(64) std::atomic<uint64_t> head_{0};  // Consumer-owned read cursor.
  alignas(64) Slot slots_[kCapacity];
};

}  // namespace dpack

#endif  // SRC_COMMON_SPSC_RING_H_
