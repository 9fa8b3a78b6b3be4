// Seeded raw-sleep violation: bare sleeps outside src/common/sleep.* return early on
// EINTR (usleep) or bypass the one EINTR-safe helper, so an iteration-budget deadline
// silently shrinks. The lint self-test asserts the rule fires on every call form here.

#include <time.h>
#include <unistd.h>

#include <chrono>
#include <thread>

void PollSleep(unsigned int micros) {
  usleep(micros);  // raw-sleep
}

void NanoSleep() {
  struct timespec req = {0, 1000};
  nanosleep(&req, nullptr);  // raw-sleep
}

void ThreadSleep() {
  std::this_thread::sleep_for(std::chrono::microseconds(50));  // raw-sleep
}
