// Seeded raw-wait violation: blocking waits outside src/common/sleep.* bypass the one
// module that keeps a wait step whole across EINTR (the libc ppoll wrapper and a relative
// futex wait both drop the unslept remainder) and bounded by one step. The lint self-test
// asserts the rule fires on every call form here.

#include <linux/futex.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/select.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cstdint>

int PollOne(pollfd* fd) {
  return poll(fd, 1, 1);  // raw-wait
}

int PpollOne(pollfd* fd, const timespec* step) {
  return ppoll(fd, 1, step, nullptr);  // raw-wait
}

int SelectNone(timeval* step) {
  return select(0, nullptr, nullptr, nullptr, step);  // raw-wait
}

int EpollOne(int epfd, epoll_event* event) {
  return epoll_wait(epfd, event, 1, 1);  // raw-wait
}

long FutexWait(uint32_t* word, uint32_t seen, const timespec* step) {
  return syscall(SYS_futex, word, FUTEX_WAIT, seen, step, nullptr, 0);  // raw-wait
}
