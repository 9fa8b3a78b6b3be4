// Bounded waits for the service's liveness loops: the one module that sleeps, polls file
// descriptors, or waits on a futex (scripts/dpack_lint.py raw-sleep and raw-wait).
//
// Every blocking wait in the service is an iteration budget: `budget` waits of one
// `poll_sleep_us` step each, with no clock read on the scheduling path. budget *
// poll_sleep_us is a lower bound on the deadline, not the deadline: a step that times out
// also pays the kernel's timer slack. In a loop of 1000 timed-out waits on a 4-vCPU Linux
// host, 20/50/200 µs steps took 74/103/258 µs each (nanosleep and the futex wait alike), so
// the default 40000 x 50 µs stall budget lasts about 4.1 s, not 2 s. Each helper here is
// one such step:
//   - SleepFullMicros always takes the whole step (connect retries, full-ring backpressure,
//     shutdown reaping: waits with nothing to block on).
//   - WaitFdsMicros blocks in ppoll until a socket reports a requested event.
//   - WaitBellMicros blocks on a shared 32-bit doorbell word (a futex) until a producer
//     rings it (src/common/shm_ring.h rings it on every push).
// The last two end early when a wake arrives, so a hot wait costs the wake latency, not a
// step. Correctness never depends on a wake: callers re-check their condition after every
// step, so a lost wake costs at most one step and a spurious one costs one re-check.
//
// EINTR never ends a step early as if it had elapsed (the daemon fields SIGCHLD from its
// worker fleet, and a shortened step silently shrinks every budget): nanosleep and the raw
// ppoll syscall resume with the kernel-reported remainder, and the futex wait re-arms the
// same absolute CLOCK_MONOTONIC deadline. That deadline is the only clock this module reads;
// it bounds one step inside the kernel and never reaches a budget or a grant.

#ifndef SRC_COMMON_SLEEP_H_
#define SRC_COMMON_SLEEP_H_

#include <poll.h>

#include <atomic>
#include <cstdint>
#include <span>

namespace dpack {

// Sleeps for the full `micros` microseconds, resuming across EINTR. A no-op for 0.
void SleepFullMicros(unsigned int micros);

// Waits up to `micros` microseconds for any entry of `fds` to report one of its requested
// `events` (poll(2) semantics: revents is filled in, and POLLERR/POLLHUP/POLLNVAL are always
// reported). Returns true if any descriptor is ready, false when the step elapsed. With
// micros == 0 it only checks readiness.
bool WaitFdsMicros(std::span<pollfd> fds, unsigned int micros);

// Bumps the doorbell and wakes every waiter on it, in this or any other process that maps
// the word. Call after the release store that publishes what the wake announces.
void RingBell(std::atomic<uint32_t>* bell);

// Waits up to `micros` microseconds while `bell` still reads `seen`, a value loaded before
// the caller found nothing to consume. Returns true once the bell has moved past `seen`
// (at once for a stale snapshot, so a ring between the load and the wait is never lost),
// false when the step elapsed without a ring.
bool WaitBellMicros(const std::atomic<uint32_t>& bell, uint32_t seen, unsigned int micros);

}  // namespace dpack

#endif  // SRC_COMMON_SLEEP_H_
