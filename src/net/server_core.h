// The one server skeleton under ingestd's shards and queryd: everything a
// loop-per-core TCP server does that is not protocol.
//
//   listener (BindListener)
//      -> edge-triggered accept loop: fault seam per fd, EMFILE hatch
//      -> ServerHandler::OnAccept: the protocol admits (Adopt), sheds
//         (Shed: one pre-encoded THROTTLE(admission), then close) or
//         hands the fd to another loop
//      -> Adopt: TCP_NODELAY, SO_SNDBUF, BufferedFd, connection table
//      -> ServerHandler::OnData / OnClosed per connection
//
// Around the table the core runs the idle and write-stall sweep, the
// drain (stop accepting, per-connection draining hook, grace timer,
// force-close, stop the loop once the table is empty), the wakeup handler
// for the async-signal-safe stats and drain flags, and the harvest of
// every BufferedFd's I/O statistics into CoreCounters.
//
// What stays protocol-side is exactly what differs: ingest's HELLO peek
// and cross-shard handoff, rate buckets, memory accounting, persist
// breaker and writev reply batching; query's session dispatch and reply
// memory budget; and each side's rule for which closes count as dropped.
//
// Threading: a ServerCore is single-writer under its own role capability
// (DESIGN.md §13). Every hook below runs on the loop thread with the core
// role held; implementations claim their own role at that boundary, and
// claim core_->role() before calling back into the core. Only
// RequestDrain(), RequestStats() and Wakeup() are cross-thread (and
// async-signal-safe).

#ifndef SMETER_NET_SERVER_CORE_H_
#define SMETER_NET_SERVER_CORE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "net/event_loop.h"

namespace smeter::net {

// Parses "host:port" (or ":port" / "port") into options fields.
Status ParseListenAddress(const std::string& address, std::string* host,
                          uint16_t* port);

// Creates a nonblocking listening socket on host:port. With `reuseport`,
// SO_REUSEPORT is set before bind so several loops can own a listener on
// the same address and the kernel spreads accepts across them; a kernel
// that refuses the option surfaces as an error here and the caller falls
// back to one listener. `bound_port` (optional) receives the bound port.
Result<int> BindListener(const std::string& host, uint16_t port,
                         bool reuseport, uint16_t* bound_port);

struct ServerCoreOptions {
  // Fault seam checked on every accepted fd ("net.accept", "query.accept"):
  // a failure drops that one connection, never the server.
  std::string accept_seam;
  // A connection silent for this long is closed (0 disables).
  int64_t idle_timeout_ms = 0;
  // A connection whose output has sat past the high-watermark for this
  // long is closed (0 disables).
  int64_t write_stall_ms = 0;
  // How long open connections get to finish a drain before force-close.
  int64_t drain_grace_ms = 5'000;
  size_t high_watermark = 1u << 20;
  int sndbuf_bytes = 0;  // SO_SNDBUF for adopted fds; 0 = kernel default
  uint32_t throttle_retry_ms = 250;  // hint in the accept-time THROTTLE
};

// What the core counts. Each protocol folds these into its own dumped
// counters struct (IngestCounters, QueryCounters) at snapshot time.
struct CoreCounters {
  uint64_t connections_active = 0;  // gauge: the connection table's size
  uint64_t accept_faults = 0;       // accepts dropped by the fault seam
  uint64_t connections_shed = 0;    // refused at accept (budget or EMFILE)
  uint64_t shed_throttles = 0;      // shed THROTTLE frames fully written
  uint64_t accepts_emfile = 0;      // reserved-fd EMFILE hatch activations
  uint64_t idle_drops = 0;
  uint64_t write_stall_drops = 0;
  // BufferedFd statistics: departed connections plus, in a snapshot, the
  // live ones.
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t backpressure_stalls = 0;
  uint64_t writev_calls = 0;
  uint64_t writev_segments = 0;
};

// One connection in the core's table; protocols derive their
// per-connection state from it.
struct ServerConnection {
  ServerConnection() = default;
  virtual ~ServerConnection() = default;
  ServerConnection(const ServerConnection&) = delete;
  ServerConnection& operator=(const ServerConnection&) = delete;

  uint64_t id = 0;
  std::unique_ptr<BufferedFd> io;
  int64_t last_active_ms = 0;  // refreshed by the core on every OnData
  // Set by the core before it closes a connection itself (idle or
  // write-stall sweep, drain deadline) and by protocols for their own
  // server-initiated closes, so a close rule can tell them from failures.
  bool administrative_close = false;
};

// The protocol half of a server. Hooks run on the loop thread.
class ServerHandler {
 public:
  ServerHandler() = default;
  virtual ~ServerHandler() = default;
  ServerHandler(const ServerHandler&) = delete;
  ServerHandler& operator=(const ServerHandler&) = delete;

  // An accepted fd that passed the accept seam: Adopt it, Shed it, or
  // pass it to another loop.
  virtual void OnAccept(int fd) = 0;
  // Bytes buffered on `conn`; returns how many were consumed.
  virtual size_t OnData(ServerConnection* conn, std::string_view data) = 0;
  // `conn` closed. Afterwards the core harvests its I/O counters and frees
  // it on the next loop pass.
  virtual void OnClosed(ServerConnection* conn, const Status& reason) = 0;
  // The drain began: refuse new work on `conn` (must not close it).
  virtual void OnDraining(ServerConnection* conn) = 0;
  // A stats dump was requested (RequestStats).
  virtual void OnStats() = 0;
  // Every wakeup and once at drain start: adopt whatever other threads
  // queued for this loop (ingest's handoff mailbox).
  virtual void OnMailbox() {}
  // Every sweep pass, after the idle and write-stall police.
  virtual void OnSweep(int64_t /*now_ms*/) {}
};

class ServerCore {
 public:
  // Owns `listen_fd` (-1: this loop accepts nothing) and `loop`;
  // `handler` must outlive the core.
  ServerCore(ServerCoreOptions options, int listen_fd,
             std::unique_ptr<EventLoop> loop, ServerHandler* handler);
  ~ServerCore();

  ServerCore(const ServerCore&) = delete;
  ServerCore& operator=(const ServerCore&) = delete;

  // Wires the acceptor, wakeup handler and sweep into the loop and opens
  // the EMFILE reserve fd. Call once, before Run().
  Status Setup() REQUIRES(role_);
  // Runs the loop until the drain empties the table (or Stop).
  Status Run();

  // Thread- and async-signal-safe (atomic store + eventfd write).
  void RequestDrain();
  void RequestStats();
  void Wakeup() { loop_->Wakeup(); }

  // Registers `conn` (its io and id are filled in here) on `fd` and
  // replays `pending` bytes read elsewhere. False when registration
  // failed; the fd is closed and the connection never existed.
  bool Adopt(int fd, std::unique_ptr<ServerConnection> conn,
             std::string_view pending) REQUIRES(role_);
  // Refuses `fd` before it becomes a connection: one best-effort
  // THROTTLE(admission), then close.
  void Shed(int fd) REQUIRES(role_);
  // Takes `conn` off the table without firing OnClosed and returns its
  // still-open fd plus unread input (the cross-loop handoff).
  BufferedFd::Released Detach(ServerConnection* conn) REQUIRES(role_);
  void BeginDrain() REQUIRES(role_);

  bool draining() const REQUIRES(role_) { return draining_; }
  size_t connection_count() const REQUIRES(role_) {
    return connections_.size();
  }
  // Counters including the live connections' I/O so far.
  CoreCounters Snapshot() const REQUIRES(role_);

  EventLoop* loop() { return loop_.get(); }
  ThreadRole& role() RETURN_CAPABILITY(role_) { return role_; }

 private:
  void OnAcceptable() REQUIRES(role_);
  void ShedBacklogViaReserve() REQUIRES(role_);
  void OnConnectionClosed(ServerConnection* conn, const Status& reason)
      REQUIRES(role_);
  void Retire(ServerConnection* conn) REQUIRES(role_);
  void ScheduleSweep() REQUIRES(role_);
  void Sweep() REQUIRES(role_);
  void FinishDrainIfIdle() REQUIRES(role_);

  const ServerCoreOptions options_;
  ServerHandler* const handler_;
  ThreadRole role_;
  std::unique_ptr<EventLoop> loop_;
  int listen_fd_ GUARDED_BY(role_);
  // EMFILE escape hatch: a slot held open so the acceptor always has one
  // fd to accept-and-refuse with. -1 when even /dev/null was unopenable
  // (retried on the next EMFILE).
  int reserve_fd_ GUARDED_BY(role_) = -1;
  // Pre-encoded accept-time THROTTLE: the shed path must not allocate per
  // flood connection.
  std::string shed_frame_ GUARDED_BY(role_);
  uint64_t next_conn_id_ GUARDED_BY(role_) = 1;
  std::map<uint64_t, std::unique_ptr<ServerConnection>> connections_
      GUARDED_BY(role_);
  // Connections whose on_close fired mid-callback; freed next loop pass.
  std::vector<std::unique_ptr<ServerConnection>> graveyard_
      GUARDED_BY(role_);
  bool reap_scheduled_ GUARDED_BY(role_) = false;
  bool draining_ GUARDED_BY(role_) = false;
  bool stopped_ GUARDED_BY(role_) = false;
  CoreCounters counters_ GUARDED_BY(role_);

  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> stats_requested_{false};
};

}  // namespace smeter::net

#endif  // SMETER_NET_SERVER_CORE_H_
