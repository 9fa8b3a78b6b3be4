#include "src/common/sleep.h"

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <ctime>

#include "src/common/check.h"

namespace dpack {

namespace {

// The futex syscalls read the doorbell's address as a plain 32-bit word.
static_assert(sizeof(std::atomic<uint32_t>) == sizeof(uint32_t) &&
                  std::atomic<uint32_t>::is_always_lock_free,
              "a doorbell must be a plain 32-bit word for the futex syscall");

struct timespec MicrosToTimespec(unsigned int micros) {
  struct timespec ts = {};
  ts.tv_sec = micros / 1000000u;
  ts.tv_nsec = static_cast<long>(micros % 1000000u) * 1000;
  return ts;
}

}  // namespace

void SleepFullMicros(unsigned int micros) {
  if (micros == 0) {
    return;
  }
  // nanosleep writes the unslept remainder into its second argument on EINTR, so resuming
  // with req = remainder accumulates to the full duration without reading a clock.
  struct timespec req = MicrosToTimespec(micros);
  while (nanosleep(&req, &req) != 0 && errno == EINTR) {
  }
}

bool WaitFdsMicros(std::span<pollfd> fds, unsigned int micros) {
  // The raw syscall, not the libc wrapper: the kernel writes the unslept remainder back into
  // `timeout` (the wrapper hands it a copy), so an EINTR resumes with what is left.
  struct timespec timeout = MicrosToTimespec(micros);
  while (true) {
    long ready = syscall(SYS_ppoll, fds.data(), fds.size(), &timeout, nullptr, 0);
    if (ready >= 0) {
      return ready > 0;
    }
    DPACK_CHECK_MSG(errno == EINTR, "ppoll failed (errno " << errno << ")");
  }
}

void RingBell(std::atomic<uint32_t>* bell) {
  // Release: a waiter that observes the new value also observes what the caller published.
  bell->fetch_add(1, std::memory_order_release);
  // Not FUTEX_PRIVATE_FLAG: the word lives in MAP_SHARED memory and waiters are other
  // processes.
  syscall(SYS_futex, bell, FUTEX_WAKE, INT_MAX, nullptr, nullptr, 0);
}

bool WaitBellMicros(const std::atomic<uint32_t>& bell, uint32_t seen, unsigned int micros) {
  // FUTEX_WAIT_BITSET takes an absolute CLOCK_MONOTONIC deadline, so a wait resumed after
  // EINTR or a spurious wake still ends exactly one step after it began.
  struct timespec deadline = {};
  DPACK_CHECK(clock_gettime(CLOCK_MONOTONIC, &deadline) == 0);
  struct timespec step = MicrosToTimespec(micros);
  deadline.tv_sec += step.tv_sec;
  deadline.tv_nsec += step.tv_nsec;
  if (deadline.tv_nsec >= 1000000000L) {
    deadline.tv_sec += 1;
    deadline.tv_nsec -= 1000000000L;
  }
  while (true) {
    // The kernel compares the word with `seen` atomically against a concurrent RingBell:
    // a ring before this point fails the compare (EAGAIN), a ring after it wakes us.
    long rc = syscall(SYS_futex, &bell, FUTEX_WAIT_BITSET, seen, &deadline, nullptr,
                      FUTEX_BITSET_MATCH_ANY);
    bool moved = bell.load(std::memory_order_acquire) != seen;
    if (moved || (rc != 0 && errno == ETIMEDOUT)) {
      return moved;
    }
    DPACK_CHECK_MSG(rc == 0 || errno == EINTR || errno == EAGAIN,
                    "futex wait failed (errno " << errno << ")");
    // EINTR, or a wake that left the word unchanged: wait out the rest of the step.
  }
}

}  // namespace dpack
