// The tenant side of the grant service's socket edge (src/service/net_transport.h): a
// strict request/reply client speaking checksum-framed ServiceMessages, plus the remote
// workload driver that replays the sim driver's exact event order over the wire.
//
// Blocking waits follow the service discipline — iteration budgets of bounded steps, no
// clock reads. A send or reply wait blocks until the socket is writable or readable, for at
// most one poll_sleep_us step (WaitFdsMicros, whose EINTRs resume with the remainder, so a
// signal never shortens a deadline); connect retries sleep the full step. Every failure path
// (daemon gone, corrupt reply, budget exhausted, reply out of sequence) returns false with
// a diagnostic; the client never spins forever on a dead daemon.

#ifndef SRC_SERVICE_CLIENT_H_
#define SRC_SERVICE_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/task.h"
#include "src/service/messages.h"
#include "src/service/net_transport.h"
#include "src/sim/sim_driver.h"

namespace dpack {

struct NetClientConfig {
  size_t max_frame_bytes = 1 << 20;   // Replies beyond this are corruption, not patience.
  // The longest single wait, microseconds: a send or reply wait ends as soon as the socket
  // is ready, a refused connect retries after exactly this long.
  unsigned int poll_sleep_us = 200;
  // Wait steps to spend on connect / a send / a reply before giving up. At the default step
  // this is tens of seconds of daemon silence — a dead daemon, not a slow one.
  uint64_t io_budget = 100000;
};

class ServiceClient {
 public:
  explicit ServiceClient(NetClientConfig config = {});
  ~ServiceClient();

  // Connects to "unix:<path>" / "tcp:<port>" (loopback), retrying on connection-refused
  // within the io budget so a client raced against daemon startup still binds.
  bool Connect(const std::string& address, std::string* error);

  // Submits a batch of tasks arriving at virtual-time instant `now`. On success reports
  // the daemon's admission split (accepted + rejected == tasks.size()).
  bool Submit(double now, const std::vector<Task>& tasks, uint64_t* accepted,
              uint64_t* rejected, std::string* error);

  // Drives one scheduling cycle at instant `now`; *granted receives the grant order.
  bool RunCycle(double now, std::vector<TaskId>* granted, std::string* error);

  // Asks the daemon to stop serving and shut its fleet down (fire and forget: the frame is
  // flushed, there is no reply).
  bool SendShutdown(std::string* error);

  void Close();
  bool connected() const { return socket_ != nullptr && !socket_->dead(); }
  const NetCounters& counters() const { return counters_; }

 private:
  bool SendRequest(const ServiceMessage& message, std::string* error);
  // Waits (budgeted) for the next frame and decodes it. Any transport damage is terminal.
  bool ReceiveReply(ServiceMessage* out, std::string* error);
  // Blocks for at most one poll_sleep_us step until the socket reports `events`.
  void WaitForSocket(short events);

  NetClientConfig config_;
  std::unique_ptr<FrameSocket> socket_;
  NetCounters counters_;
  uint64_t next_seq_ = 1;
};

// What a remotely driven workload run produced; grant_trace is the byte-comparable signal
// to diff against an in-process RunOnlineSimulation of the same workload and config.
struct RemoteRunResult {
  std::vector<std::vector<TaskId>> grant_trace;
  size_t cycles_run = 0;
  uint64_t submitted = 0;
  uint64_t accepted = 0;
  uint64_t rejected = 0;  // Admission-bound refusals observed by this client.
};

// Replays RunOnlineSimulation's event structure over `client`: the same cycle instants
// (CycleInstants over the same horizon), with every task submitted at its arrival instant
// before the first cycle at or after it — batched per distinct arrival time, preserving
// workload order within a batch, which is exactly the event queue's stable
// (time, priority, insertion) order. The daemon applies its block schedule up to each
// instant first, so grants come out byte-identical to the in-process run. Tasks arriving
// after the final cycle are still submitted (they affect pending counts, never grants).
bool RunRemoteWorkload(ServiceClient& client, std::vector<Task> tasks,
                       const SimConfig& config, RemoteRunResult* result, std::string* error);

}  // namespace dpack

#endif  // SRC_SERVICE_CLIENT_H_
