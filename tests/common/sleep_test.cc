// The bounded-wait helpers behind every service liveness loop: a wait never ends early
// because a signal landed (EINTR resumes with the remainder, so budget * step stays a real
// deadline), and it does end early when its wake source fires, whether that is a socket
// peer writing or a ring producer in another process ringing the doorbell. A wake that
// raced ahead of the wait (a stale bell snapshot) returns at once, so a lost wake costs
// nothing, and a wake that never comes costs exactly one step.

#include "src/common/sleep.h"

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <string>
#include <vector>

#include "src/common/shm_ring.h"
#include "src/common/subprocess.h"

namespace dpack {
namespace {

using Clock = std::chrono::steady_clock;

// Early wakes are asserted against a step far longer than any scheduling hiccup, so only a
// wait that really sat out its step can fail them.
constexpr unsigned int kLongStepUs = 30'000'000;
constexpr auto kEarly = std::chrono::seconds(10);

double ElapsedMicros(Clock::time_point since) {
  return std::chrono::duration<double, std::micro>(Clock::now() - since).count();
}

volatile sig_atomic_t g_signals = 0;

void CountSignal(int) { g_signals = g_signals + 1; }

// Installs a counting SIGUSR1 handler WITHOUT SA_RESTART (so every blocking syscall it lands
// in fails with EINTR) and forks a child that signals this process every 200 us until killed.
class SignalStorm {
 public:
  SignalStorm() {
    struct sigaction action = {};
    action.sa_handler = CountSignal;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;
    EXPECT_EQ(sigaction(SIGUSR1, &action, &previous_), 0);
    pid_t target = getpid();
    child_ = SpawnChild([target]() {
      // Stops on its own if this process is gone (kill fails), never storming orphaned.
      while (kill(target, SIGUSR1) == 0) {
        SleepFullMicros(200);
      }
      return 0;
    });
    // Let the storm reach us before any timed wait starts.
    for (int i = 0; i < 100000 && g_signals == 0; ++i) {
      SleepFullMicros(100);
    }
    EXPECT_GT(g_signals, 0);
  }
  ~SignalStorm() {
    KillChild(child_, SIGKILL);
    WaitChild(child_);
    sigaction(SIGUSR1, &previous_, nullptr);
  }

 private:
  pid_t child_ = -1;
  struct sigaction previous_ = {};
};

TEST(SleepTest, SignalStormNeverCutsAWaitShort) {
  int pipe_fds[2];
  ASSERT_EQ(pipe(pipe_fds), 0);  // The write end stays open and silent: never readable.
  SignalStorm storm;
  constexpr unsigned int kStepUs = 100'000;

  pollfd never_ready{pipe_fds[0], POLLIN, 0};
  sig_atomic_t before = g_signals;
  Clock::time_point start = Clock::now();
  EXPECT_FALSE(WaitFdsMicros(std::span<pollfd>(&never_ready, 1), kStepUs));
  EXPECT_GE(ElapsedMicros(start), kStepUs);
  EXPECT_GT(g_signals, before) << "no signal landed inside the fd wait";

  std::atomic<uint32_t> silent_bell{7};
  before = g_signals;
  start = Clock::now();
  EXPECT_FALSE(WaitBellMicros(silent_bell, 7, kStepUs));
  EXPECT_GE(ElapsedMicros(start), kStepUs);
  EXPECT_GT(g_signals, before) << "no signal landed inside the bell wait";

  close(pipe_fds[0]);
  close(pipe_fds[1]);
}

TEST(SleepTest, SocketPeerReadinessEndsTheWaitEarly) {
  int pair[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  pollfd readable{pair[0], POLLIN, 0};
  EXPECT_FALSE(WaitFdsMicros(std::span<pollfd>(&readable, 1), 0)) << "ready before a write";

  int peer = pair[1];
  pid_t writer = SpawnChild([peer]() {
    SleepFullMicros(20'000);  // Let the parent block first.
    return write(peer, "x", 1) == 1 ? 0 : 1;
  });
  Clock::time_point start = Clock::now();
  EXPECT_TRUE(WaitFdsMicros(std::span<pollfd>(&readable, 1), kLongStepUs));
  EXPECT_LT(Clock::now() - start, kEarly);
  EXPECT_NE(readable.revents & POLLIN, 0);
  EXPECT_EQ(WaitChild(writer).exit_code, 0);
  close(pair[0]);
  close(pair[1]);
}

TEST(SleepTest, RingPushFromAnotherProcessWakesTheBellWaiter) {
  ShmRegion region(ShmRing::MinBytes() + 4096);
  ShmRing ring(region.data(), region.size(), /*initialize=*/true);
  uint32_t bell = ring.bell();
  std::string out;
  ASSERT_EQ(ring.TryPop(&out), RingPopStatus::kEmpty);

  void* mem = region.data();
  size_t bytes = region.size();
  pid_t producer = SpawnChild([mem, bytes]() {
    ShmRing attached(mem, bytes, /*initialize=*/false);
    SleepFullMicros(20'000);  // Let the parent block first.
    return attached.TryPush("wake") ? 0 : 1;
  });
  Clock::time_point start = Clock::now();
  EXPECT_TRUE(ring.WaitForPush(bell, kLongStepUs));
  EXPECT_LT(Clock::now() - start, kEarly);
  ASSERT_EQ(ring.TryPop(&out), RingPopStatus::kOk);
  EXPECT_EQ(out, "wake");
  EXPECT_EQ(WaitChild(producer).exit_code, 0);
}

TEST(SleepTest, StaleBellSnapshotReturnsAtOnceAndASilentBellCostsOneStep) {
  std::vector<char> mem(ShmRing::MinBytes() + 256, 0);
  ShmRing ring(mem.data(), mem.size(), /*initialize=*/true);

  // The push lands between the snapshot and the wait, with nobody blocked to wake: the
  // wait must notice the moved bell instead of sleeping through the lost wake.
  uint32_t stale = ring.bell();
  ASSERT_TRUE(ring.TryPush("raced"));
  Clock::time_point start = Clock::now();
  EXPECT_TRUE(ring.WaitForPush(stale, kLongStepUs));
  EXPECT_LT(Clock::now() - start, kEarly);

  // No push at all: the wait is exactly one bounded step, never longer than the caller's
  // next liveness check.
  constexpr unsigned int kStepUs = 20'000;
  start = Clock::now();
  EXPECT_FALSE(ring.WaitForPush(ring.bell(), kStepUs));
  EXPECT_GE(ElapsedMicros(start), kStepUs);
  EXPECT_LT(Clock::now() - start, kEarly);
}

}  // namespace
}  // namespace dpack
