// The aggregation-server ingestion daemon: N independent per-core epoll
// shards that speak the symbolic wire protocol with thousands of meters
// and stream completed sessions into one durable v3 archive.
//
// Architecture (one connection, left to right):
//
//   ServerCore (server_core.h: per-shard SO_REUSEPORT listener, accept,
//               connection table, sweeps, drain — shared with queryd)
//          -> HELLO peek: hash(meter id) pins the connection to its home
//             shard; a connection accepted elsewhere is handed off fd +
//             buffered bytes through the target shard's mailbox (eventfd
//             wakeup) before any frame is consumed
//          -> BufferedFd (edge-triggered read/write buffers, backpressure)
//          -> DecodeFrameView (length-prefixed, crc32c-checked, zero-copy:
//             payloads are views into the receive buffer)
//          -> Session (per-meter protocol state machine; SYMBOL_BATCH is
//             validated in one vectorizable sweep and bulk-appended)
//          -> per-event acks coalesce into one scatter-gather writev
//          -> ArchiveSink (atomic table/symbols files + per-shard manifest
//             append log, unioned at Finalize/resume/fsck)
//
// Sharding model: `threads` shards, each one ServerCore on its own thread
// with its own listener (SO_REUSEPORT spreads accepts), connection table,
// and counters. A meter's HELLO hash-pins its connection to shard
// ShardForMeter(meter, threads), so a Session has exactly one writer
// thread for its whole life and reconnects always land on the same shard
// — the single-writer rule stays machine-checked per shard (DESIGN.md
// §13/§14). Where SO_REUSEPORT is unavailable (or force_single_acceptor
// is set), shard 0 owns the only listener and deals fds round-robin
// through the same mailbox; the HELLO peek then re-homes them by hash.
//
// Connections are kept alive after GOODBYE_ACK: the session resets to
// ExpectHello so one TCP connection can carry many meters back-to-back
// (loadgen --connections). Follow-on sessions stay on the connection's
// shard; correctness never depends on placement (the sink deduplicates by
// meter across shards), only locality does.
//
// Failure containment: a torn frame, a bad table, an out-of-order batch,
// or a mid-stream disconnect quarantines THAT session — the shard sends
// the closing status ack, drops the connection, counts it, and keeps
// serving. The `net.accept` fault seam drops individual accepts the same
// way. The daemon only exits on Stop()/drain.
//
// Drain (SIGTERM/SIGINT path): RequestDrain() is thread- and
// async-signal-safe; every shard then stops accepting, refuses new HELLOs
// with kDraining, gives in-flight sessions `drain_grace_ms` to finish,
// force-closes stragglers, and stops its loop. Run() joins the shard
// threads, finalizes the sink once (sorted manifest + quality.json), and
// returns. RequestStatsDump() (SIGUSR1) aggregates every shard's counters
// into one JSON blob {"shards":[...],"total":{...}} without stopping.

#ifndef SMETER_NET_INGEST_SERVER_H_
#define SMETER_NET_INGEST_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "net/archive_sink.h"
#include "net/server_core.h"
#include "net/session.h"
#include "net/wire.h"

namespace smeter::net {

struct IngestServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 binds an ephemeral port (see IngestServer::port)
  std::string archive_dir;
  bool resume = false;  // carry prior manifest records (crash restart)
  std::string auth_token;
  // Shard (event-loop thread) count; clamped to [1, 64]. Each shard gets
  // its own SO_REUSEPORT listener unless force_single_acceptor is set.
  int threads = 1;
  // Fallback topology: only shard 0 listens and deals accepted fds
  // round-robin to the shards through the handoff mailboxes. Chosen
  // automatically when SO_REUSEPORT is unavailable; tests force it to
  // drill the handoff path deterministically.
  bool force_single_acceptor = false;
  // A connection silent for this long is closed (0 disables the sweep).
  int64_t idle_timeout_ms = 30'000;
  // Output-buffer backpressure high-watermark per connection.
  size_t high_watermark = 1u << 20;
  // --- overload protection (0 = the mechanism is off) ---
  //
  // Global admitted-connection budget across all shards. A connection
  // over budget is shed at accept time: one best-effort THROTTLE frame
  // (scope=admission) and an immediate close.
  int max_connections = 0;
  // Per-shard admitted-connection cap, enforced where the connection is
  // adopted (in single-acceptor mode the deal happens before adoption, so
  // the cap binds on the shard that would host the connection).
  int max_connections_per_shard = 0;
  // Global ingest-memory budget in bytes: the sum over all connections of
  // userspace read/write buffers plus in-flight (unpersisted) session
  // samples. A SYMBOL_BATCH that would land while usage is over budget
  // gets a THROTTLE (scope=memory) and the connection is dropped so its
  // buffers free immediately.
  size_t memory_budget = 0;
  // Per-meter session-start rate limit, in HELLOs per second per meter
  // (token bucket, burst = max(1, rate_limit)). The bucket lives on the
  // meter's home shard, so reconnects and handoffs see one bucket.
  double rate_limit = 0;
  // Drop a connection whose output buffer has sat past the backpressure
  // high-watermark (the peer is not draining its acks) for this long.
  int64_t write_stall_ms = 0;
  // Baseline retry_after_ms hint in THROTTLE frames; rate-limit throttles
  // compute a tighter hint from the token deficit instead.
  uint32_t throttle_retry_ms = 250;
  // SO_SNDBUF for accepted connections (0 = kernel default). Bounding the
  // kernel's send buffer makes the write-stall deadline testable: a
  // non-reading peer then backs the output up into BufferedFd quickly.
  int sndbuf_bytes = 0;
  // Cadence of the ENOSPC circuit breaker's disk-space probes.
  int64_t probe_interval_ms = 200;
  // How long draining sessions get to finish before being force-closed.
  int64_t drain_grace_ms = 5'000;
  // Drain automatically once this many DISTINCT meters have completed a
  // session in this run (0 = never); lets tests and soak jobs run the real
  // binary to a deterministic end. The completion set is shared across
  // shards. Records carried from a prior run via --resume do not count by
  // themselves — a resumed server waits until every counted meter has been
  // (re-)acknowledged this run, so it cannot drain before slow
  // reconnecting meters get their duplicate acks.
  uint64_t exit_after_households = 0;
  // Per-session protocol limits (auth_token/draining are overwritten).
  SessionOptions session;
};

// Monotonic counters, aggregated across shards on SIGUSR1 and at exit.
// Plain uint64_t: each shard mutates only its own copy on its own loop
// thread; cross-shard reads go through snapshots.
struct IngestCounters {
  uint64_t sessions_accepted = 0;
  uint64_t sessions_active = 0;
  uint64_t sessions_completed = 0;
  uint64_t sessions_dropped = 0;  // protocol/decode/io failures + timeouts
  uint64_t frames_in = 0;
  uint64_t frames_out = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t decode_errors = 0;
  uint64_t backpressure_stalls = 0;
  uint64_t handoffs_in = 0;   // connections adopted from another shard
  uint64_t handoffs_out = 0;  // connections re-homed to another shard
  uint64_t acks_batched = 0;  // reply frames coalesced into writev batches
  uint64_t writev_calls = 0;
  uint64_t writev_segments = 0;
  uint64_t households_persisted = 0;
  uint64_t symbols_persisted = 0;
  // Overload-protection counters (PR 8). Every field here must appear in
  // ToJson(): tools/lint_invariants.py's counters-dumped rule enforces it.
  uint64_t connections_shed = 0;   // refused at accept (budget or EMFILE)
  uint64_t accepts_emfile = 0;     // reserved-fd EMFILE hatch activations
  uint64_t throttles_sent = 0;     // THROTTLE frames sent, all scopes
  uint64_t rate_limited = 0;       // HELLOs refused by the token bucket
  uint64_t memory_throttled = 0;   // batches refused by the memory budget
  uint64_t idle_drops = 0;         // connections dropped by idle timeout
  uint64_t write_stall_drops = 0;  // dropped by the write-stall deadline
  uint64_t persists_paused = 0;    // persists deferred while circuit open
  uint64_t circuit_opens = 0;      // disk-full trips of the breaker
  uint64_t ingest_memory_bytes = 0;  // gauge: tracked buffer+batch bytes

  // Field-wise sum (the gauges sessions_active and ingest_memory_bytes
  // included: live totals).
  void Add(const IngestCounters& other);
  std::string ToJson() const;
};

// Stable meter -> shard pinning hash (FNV-1a over the meter id). Exposed
// so tests and capacity tooling can predict a meter's home shard; changing
// this function reshuffles the whole fleet's shard affinity.
uint64_t MeterShardHash(std::string_view meter_id);
int ShardForMeter(std::string_view meter_id, int shards);

class IngestShard;

class IngestServer {
 public:
  // Binds and listens (one socket per shard, or one total in
  // single-acceptor mode), opens the archive sink with one stripe per
  // shard, creates the per-shard event loops.
  static Result<std::unique_ptr<IngestServer>> Create(
      IngestServerOptions options);
  ~IngestServer();

  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  // Serves until drained/stopped: runs shard 0 on the calling thread and
  // shards 1..N-1 on their own threads, joins them all, then finalizes the
  // archive. Returns the first fatal error (a shard loop or finalize
  // failure), OK on a clean drain. Claims the server role for its
  // duration: the calling thread owns all cross-shard state until Run()
  // returns.
  Status Run();

  // Thread- and async-signal-safe: begin a graceful drain on every shard.
  // The only methods callable while other threads run the server.
  void RequestDrain();
  // Thread- and async-signal-safe: collect every shard's counters and
  // write one aggregated JSON blob to `stats_out`.
  void RequestStatsDump();

  // The bound port (useful when options.port was 0).
  uint16_t port() const { return port_; }
  int shard_count() const { return static_cast<int>(shards_.size()); }
  // Aggregate counters across shards. Owner-only: call after Run()
  // returned (or before it starts).
  IngestCounters counters() const REQUIRES(role_);
  // One shard's counters, same ownership contract.
  IngestCounters shard_counters(int shard) const REQUIRES(role_);
  // Completed aggregate stats dumps (each SIGUSR1 increments this once the
  // JSON hit stats_out); lets tests await an in-flight dump.
  uint64_t stats_dumps() const { return stats_dumps_.load(); }
  // Where RequestStatsDump() writes; defaults to std::cerr. Owner-only:
  // call before handing the server to its loop threads, or after Run()
  // returned.
  void set_stats_out(std::ostream* out) REQUIRES(role_) { stats_out_ = out; }

  // The server's owner capability (the thread calling Run(); tests claim
  // it around setup and post-run assertions). Per-shard state is guarded
  // by each shard's own role.
  ThreadRole& role() RETURN_CAPABILITY(role_) { return role_; }

 private:
  friend class IngestShard;

  explicit IngestServer(IngestServerOptions options);

  // Shard -> server upcalls (thread-safe; called from shard loop threads).
  //
  // Records a completed meter in the shared this-run set; returns true
  // when exit_after_households just tripped (the calling shard drains
  // itself synchronously, the server wakes the rest).
  bool NoteCompleted(const std::string& meter);
  // One shard's stats snapshot for an in-flight SIGUSR1 dump; the last
  // shard to publish writes the aggregate blob.
  void PublishStats(int shard, const IngestCounters& snapshot);
  // Global admission budget (options.max_connections). TryAdmit charges
  // one slot and refuses (without charging) when the budget is exhausted;
  // every admitted connection releases exactly once when it dies on
  // whichever shard hosts it then (handoffs carry the charge along).
  bool TryAdmit();
  void ReleaseAdmission();
  // Global ingest-memory gauge (options.memory_budget): shards fold their
  // per-connection tracked deltas in and read the fleet-wide total.
  void AddMemoryUsage(int64_t delta);
  int64_t memory_usage() const { return memory_usage_.load(); }

  IngestShard* shard(int index) { return shards_[size_t(index)].get(); }
  ArchiveSink* sink() { return sink_.get(); }
  const IngestServerOptions& options() const { return options_; }

  IngestServerOptions options_;
  uint16_t port_ = 0;
  std::unique_ptr<ArchiveSink> sink_;
  std::vector<std::unique_ptr<IngestShard>> shards_;
  ThreadRole role_;
  std::ostream* stats_out_;

  // Shared across shards: meters acknowledged in THIS run (fresh persists
  // and duplicate acks, not failed persists) — the completion set behind
  // options_.exit_after_households.
  Mutex completed_mutex_;
  std::set<std::string> completed_this_run_ GUARDED_BY(completed_mutex_);
  bool drain_triggered_ GUARDED_BY(completed_mutex_) = false;

  // In-flight SIGUSR1 aggregation: slots fill as shards publish; the last
  // one prints.
  Mutex stats_mutex_;
  std::vector<std::optional<IngestCounters>> pending_stats_
      GUARDED_BY(stats_mutex_);
  std::atomic<uint64_t> stats_dumps_{0};

  // Shared overload gauges (lock-free: shards touch these on their hot
  // paths). admitted_ counts live connections fleet-wide; memory_usage_
  // sums every shard's tracked per-connection bytes.
  std::atomic<int64_t> admitted_{0};
  std::atomic<int64_t> memory_usage_{0};
};

}  // namespace smeter::net

#endif  // SMETER_NET_INGEST_SERVER_H_
