// The query daemon: one epoll loop serving the query wire protocol
// (query_wire.h) over an ArchiveStore.
//
// Architecture (one connection, left to right):
//
//   ServerCore (server_core.h: listener, accept, connection table,
//               idle sweep, drain — the skeleton ingestd's shards share)
//          -> DecodeFrameView (same CRC32C framing as ingest)
//          -> QuerySession (pure protocol state machine)
//          -> ArchiveStore (partition segment packs, hot current table
//             — possibly the live ingest daemon's)
//
// One loop thread is deliberate: the read path is dominated by file reads
// the page cache absorbs, and aggregates over whole partitions read only
// each pack's small directory. Sharding the query loop the way ingest is sharded
// is future work the shared core and the single-writer capability model
// already permit.
//
// Overload protection reuses the ingest THROTTLE vocabulary:
//   * admission: over `max_connections` (or out of fds), a new connection
//     gets one pre-encoded THROTTLE(scope=admission) and an immediate
//     close.
//   * memory: a reply that would push a connection's buffered bytes over
//     `memory_budget` is replaced by THROTTLE(scope=memory) and the
//     connection is closed after flush — a slow reader cannot make the
//     server buffer unbounded range scans.
//   * idle: connections silent past `idle_timeout_ms` are swept.
//
// Drain (SIGTERM) and stats (SIGUSR1) mirror IngestServer: RequestDrain()
// and RequestStatsDump() are thread- and async-signal-safe; drain stops
// accepting, lets in-flight queries finish for `drain_grace_ms`, then
// force-closes (closes the server makes itself never count as
// connections_dropped). `exit_after_queries` drains automatically after
// N queries so tests and soak jobs run the real daemon to a deterministic
// end.

#ifndef SMETER_NET_QUERY_SERVER_H_
#define SMETER_NET_QUERY_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "core/archive_store.h"
#include "net/query_session.h"
#include "net/query_wire.h"
#include "net/server_core.h"

namespace smeter::net {

struct QueryServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 binds an ephemeral port (see QueryServer::port)
  std::string store_dir;
  // Where the hot current table lives; empty = store_dir. Point this at a
  // live ingest daemon's archive dir to serve fresh point lookups.
  std::string current_dir;
  std::string auth_token;
  // A connection silent for this long is closed (0 disables the sweep).
  int64_t idle_timeout_ms = 30'000;
  // Output-buffer backpressure high-watermark per connection.
  size_t high_watermark = 1u << 20;
  // --- overload protection (0 = the mechanism is off) ---
  // Admitted-connection budget; over it, accepts are shed with a
  // THROTTLE(scope=admission).
  int max_connections = 0;
  // Per-connection buffered-bytes ceiling; a reply that would exceed it
  // becomes a THROTTLE(scope=memory) and the connection closes.
  size_t memory_budget = 0;
  // Baseline retry_after_ms hint in THROTTLE frames.
  uint32_t throttle_retry_ms = 250;
  // Server-side ceiling on one range scan (clamps client max_symbols).
  uint32_t max_scan_symbols = kMaxWireRangeSymbols;
  // Drain automatically after this many queries (0 = never); deterministic
  // exits for tests and soak jobs.
  uint64_t exit_after_queries = 0;
  // How long in-flight connections get to finish a drain before being
  // force-closed.
  int64_t drain_grace_ms = 5'000;
};

// Monotonic counters dumped by SIGUSR1 and snapshotted at exit. Every
// uint64_t field must appear in ToJson() — tools/lint_invariants.py's
// counters-dumped rule enforces it.
struct QueryCounters {
  uint64_t connections_accepted = 0;
  uint64_t connections_active = 0;  // gauge
  uint64_t connections_dropped = 0;  // protocol/decode/io failures
  uint64_t connections_shed = 0;     // refused at accept (admission)
  uint64_t frames_in = 0;
  uint64_t frames_out = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t decode_errors = 0;
  uint64_t queries_point = 0;
  uint64_t queries_range = 0;
  uint64_t queries_aggregate = 0;
  uint64_t throttles_sent = 0;
  uint64_t memory_throttled = 0;
  uint64_t idle_drops = 0;
  // Read-path gauges mirrored from the ArchiveStore at snapshot time.
  uint64_t segments_read = 0;
  uint64_t current_refreshes = 0;

  std::string ToJson() const;
};

class QueryServer : private ServerHandler {
 public:
  // Opens the store, binds and listens, creates the loop.
  static Result<std::unique_ptr<QueryServer>> Create(
      QueryServerOptions options);
  ~QueryServer() override;

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  // Serves until drained/stopped.
  Status Run();

  // Thread- and async-signal-safe: begin a graceful drain.
  void RequestDrain();
  // Thread- and async-signal-safe: write the counters JSON to stats_out.
  void RequestStatsDump();

  // The bound port (useful when options.port was 0).
  uint16_t port() const { return port_; }
  // Counters snapshot. Owner-only: call after Run() returned (or before
  // it starts).
  QueryCounters counters() const REQUIRES(role_);
  // Completed stats dumps; lets tests await an in-flight SIGUSR1 dump.
  uint64_t stats_dumps() const { return stats_dumps_.load(); }
  // Where RequestStatsDump() writes; defaults to std::cerr. Owner-only.
  void set_stats_out(std::ostream* out) REQUIRES(role_) { stats_out_ = out; }
  // The store being served (owner-only; tests inspect read counters).
  ArchiveStore* store() REQUIRES(role_) { return store_.get(); }

  ThreadRole& role() RETURN_CAPABILITY(role_) { return role_; }

 private:
  struct Connection;

  explicit QueryServer(QueryServerOptions options);

  // ServerHandler: hooks that touch server state claim role_ and forward
  // to the annotated members below.
  void OnAccept(int fd) override;
  size_t OnData(ServerConnection* conn, std::string_view data) override;
  void OnClosed(ServerConnection* conn, const Status& reason) override;
  void OnDraining(ServerConnection* conn) override;
  void OnStats() override;

  size_t HandleData(Connection* conn, std::string_view data)
      REQUIRES(role_);
  void CloseConnection(Connection* conn, Status reason) REQUIRES(role_);
  void SendReplies(Connection* conn, const std::vector<Frame>& replies)
      REQUIRES(role_);
  QueryCounters LiveSnapshot() const REQUIRES(role_);

  QueryServerOptions options_;
  uint16_t port_ = 0;
  ThreadRole role_;
  std::ostream* stats_out_;
  // Declared before core_: open sessions hold the store, so the core (and
  // its connection table) is destroyed first.
  std::unique_ptr<ArchiveStore> store_;
  std::unique_ptr<ServerCore> core_;
  QueryCounters counters_ GUARDED_BY(role_);
  std::atomic<uint64_t> stats_dumps_{0};
};

}  // namespace smeter::net

#endif  // SMETER_NET_QUERY_SERVER_H_
