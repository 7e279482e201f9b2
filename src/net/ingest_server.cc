#include "net/ingest_server.h"

#include <unistd.h>

#include <algorithm>
#include <iostream>
#include <sstream>
#include <thread>
#include <utility>

namespace smeter::net {
namespace {

// Reply frames queued per epoll event before one scatter-gather flush;
// matches BufferedFd::SendVec's single-writev segment budget.
constexpr size_t kReplyFlushBatch = 64;

}  // namespace

uint64_t MeterShardHash(std::string_view meter_id) {
  // FNV-1a. Stability matters: reconnecting meters must land on the same
  // shard across runs, and the per-shard sink stripes rely on it for
  // locality (never for correctness).
  uint64_t hash = 1469598103934665603ull;
  for (char c : meter_id) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

int ShardForMeter(std::string_view meter_id, int shards) {
  if (shards <= 1) return 0;
  return static_cast<int>(MeterShardHash(meter_id) %
                          static_cast<uint64_t>(shards));
}

void IngestCounters::Add(const IngestCounters& other) {
  sessions_accepted += other.sessions_accepted;
  sessions_active += other.sessions_active;
  sessions_completed += other.sessions_completed;
  sessions_dropped += other.sessions_dropped;
  frames_in += other.frames_in;
  frames_out += other.frames_out;
  bytes_in += other.bytes_in;
  bytes_out += other.bytes_out;
  decode_errors += other.decode_errors;
  backpressure_stalls += other.backpressure_stalls;
  handoffs_in += other.handoffs_in;
  handoffs_out += other.handoffs_out;
  acks_batched += other.acks_batched;
  writev_calls += other.writev_calls;
  writev_segments += other.writev_segments;
  households_persisted += other.households_persisted;
  symbols_persisted += other.symbols_persisted;
  connections_shed += other.connections_shed;
  accepts_emfile += other.accepts_emfile;
  throttles_sent += other.throttles_sent;
  rate_limited += other.rate_limited;
  memory_throttled += other.memory_throttled;
  idle_drops += other.idle_drops;
  write_stall_drops += other.write_stall_drops;
  persists_paused += other.persists_paused;
  circuit_opens += other.circuit_opens;
  ingest_memory_bytes += other.ingest_memory_bytes;
}

std::string IngestCounters::ToJson() const {
  std::ostringstream out;
  out << "{\n"
      << "  \"sessions_accepted\": " << sessions_accepted << ",\n"
      << "  \"sessions_active\": " << sessions_active << ",\n"
      << "  \"sessions_completed\": " << sessions_completed << ",\n"
      << "  \"sessions_dropped\": " << sessions_dropped << ",\n"
      << "  \"frames_in\": " << frames_in << ",\n"
      << "  \"frames_out\": " << frames_out << ",\n"
      << "  \"bytes_in\": " << bytes_in << ",\n"
      << "  \"bytes_out\": " << bytes_out << ",\n"
      << "  \"decode_errors\": " << decode_errors << ",\n"
      << "  \"backpressure_stalls\": " << backpressure_stalls << ",\n"
      << "  \"handoffs_in\": " << handoffs_in << ",\n"
      << "  \"handoffs_out\": " << handoffs_out << ",\n"
      << "  \"acks_batched\": " << acks_batched << ",\n"
      << "  \"writev_calls\": " << writev_calls << ",\n"
      << "  \"writev_segments\": " << writev_segments << ",\n"
      << "  \"households_persisted\": " << households_persisted << ",\n"
      << "  \"symbols_persisted\": " << symbols_persisted << ",\n"
      << "  \"connections_shed\": " << connections_shed << ",\n"
      << "  \"accepts_emfile\": " << accepts_emfile << ",\n"
      << "  \"throttles_sent\": " << throttles_sent << ",\n"
      << "  \"rate_limited\": " << rate_limited << ",\n"
      << "  \"memory_throttled\": " << memory_throttled << ",\n"
      << "  \"idle_drops\": " << idle_drops << ",\n"
      << "  \"write_stall_drops\": " << write_stall_drops << ",\n"
      << "  \"persists_paused\": " << persists_paused << ",\n"
      << "  \"circuit_opens\": " << circuit_opens << ",\n"
      << "  \"ingest_memory_bytes\": " << ingest_memory_bytes << "\n"
      << "}";
  return out.str();
}

// --- IngestShard ------------------------------------------------------------
//
// One core's worth of the daemon: a ServerCore (loop, optional listener,
// connection table) plus the ingest protocol state — all single-writer on
// the shard's loop thread. Cross-shard traffic happens through exactly two
// thread-safe doors: the handoff mailbox (mutex + eventfd wakeup) and the
// server-level upcalls (NoteCompleted/PublishStats).
class IngestShard : private ServerHandler {
 public:
  IngestShard(IngestServer* server, int index, int listen_fd,
              std::unique_ptr<EventLoop> loop, bool deal_round_robin)
      : server_(server),
        index_(index),
        deal_round_robin_(deal_round_robin),
        core_(CoreOptions(server->options()), listen_fd, std::move(loop),
              this) {}

  ~IngestShard() override {
    // Handoffs that arrived after this shard stopped never became
    // connections; close their fds (and return their admission charges)
    // so nothing leaks.
    MutexLock lock(handoff_mutex_);
    for (const Handoff& handoff : handoff_queue_) {
      ::close(handoff.fd);
      server_->ReleaseAdmission();
    }
  }

  IngestShard(const IngestShard&) = delete;
  IngestShard& operator=(const IngestShard&) = delete;

  // Called by the creating thread before any shard thread starts.
  Status Setup() {
    ScopedThreadRole core_owner(core_.role());
    return core_.Setup();
  }

  // The shard thread's main. A loop failure drains the whole server so
  // Run() can join.
  Status Run() {
    Status status = core_.Run();
    if (!status.ok()) server_->RequestDrain();
    return status;
  }

  // Thread- and async-signal-safe (atomic store + eventfd write).
  void RequestDrain() { core_.RequestDrain(); }
  void RequestStats() { core_.RequestStats(); }

  // Thread-safe: queues a connection (fd + bytes its source shard already
  // read) for adoption on this shard's loop thread.
  void EnqueueHandoff(int fd, std::string pending) {
    {
      MutexLock lock(handoff_mutex_);
      handoff_queue_.push_back(Handoff{fd, std::move(pending)});
    }
    core_.Wakeup();
  }

  // Owner-only snapshot (after the shard thread joined, or before it
  // started).
  IngestCounters SnapshotCountersOwned() {
    ScopedThreadRole owner(role_);
    return LiveSnapshot();
  }

 private:
  struct Connection : ServerConnection {
    Session session;
    // Home shard decided (the HELLO peek ran, or the first frame was not a
    // parseable HELLO and the connection stays here).
    bool pinned = false;
    // Sessions finished on this connection (keep-alive multiplexing); an
    // EOF at ExpectHello after a completed session is a clean end, not a
    // drop.
    uint64_t completed = 0;
    // Bytes this connection currently charges against the global
    // ingest-memory budget (userspace buffers + unpersisted samples);
    // kept in sync by UpdateTrackedMemory.
    size_t tracked_bytes = 0;

    explicit Connection(SessionOptions session_options)
        : session(std::move(session_options)) {}
  };

  struct Handoff {
    int fd = -1;
    std::string pending;
  };

  static ServerCoreOptions CoreOptions(const IngestServerOptions& options) {
    ServerCoreOptions core;
    core.accept_seam = "net.accept";
    core.idle_timeout_ms = options.idle_timeout_ms;
    core.write_stall_ms = options.write_stall_ms;
    core.drain_grace_ms = options.drain_grace_ms;
    core.high_watermark = options.high_watermark;
    core.sndbuf_bytes = options.sndbuf_bytes;
    core.throttle_retry_ms = options.throttle_retry_ms;
    return core;
  }

  // --- ServerHandler hooks: each claims the shard role and forwards ------

  void OnAccept(int fd) override {
    ScopedThreadRole owner(role_);
    // Admission control: over the global budget, the connection gets a
    // THROTTLE and an immediate close — a clean refusal the client can
    // back off from, instead of a SYN backlog it can't read.
    if (!server_->TryAdmit()) {
      ScopedThreadRole core_owner(core_.role());
      core_.Shed(fd);
      return;
    }
    ++counters_.sessions_accepted;
    if (deal_round_robin_) {
      // Single-acceptor fallback: deal raw fds round-robin before any
      // byte is read; the receiving shard's HELLO peek re-homes the
      // connection by meter hash if the deal missed.
      const int target = static_cast<int>(
          next_deal_++ % static_cast<uint64_t>(server_->shard_count()));
      if (target != index_) {
        ++counters_.handoffs_out;
        server_->shard(target)->EnqueueHandoff(fd, std::string());
        return;
      }
    }
    AdoptConnection(fd, {}, /*via_handoff=*/false);
  }

  size_t OnData(ServerConnection* conn, std::string_view data) override {
    ScopedThreadRole owner(role_);
    return HandleData(static_cast<Connection*>(conn), data);
  }

  void OnClosed(ServerConnection* conn, const Status& reason) override {
    (void)reason;
    ScopedThreadRole owner(role_);
    Connection* ingest = static_cast<Connection*>(conn);
    ScopedThreadRole writer(ingest->session.writer_role());
    server_->ReleaseAdmission();
    ReleaseTrackedMemory(ingest);
    const Session::State state = ingest->session.state();
    const bool clean_end =
        state == Session::State::kComplete ||
        (state == Session::State::kExpectHello && ingest->completed > 0);
    if (!clean_end) {
      // Disconnected mid-stream, protocol violation, timed out, or torn
      // frame — nothing persisted; the meter reconnects and resends.
      ++counters_.sessions_dropped;
    }
  }

  // Sessions that have not said HELLO yet are refused with kDraining;
  // in-flight uploads get drain_grace_ms to finish.
  void OnDraining(ServerConnection* conn) override {
    Connection* ingest = static_cast<Connection*>(conn);
    ScopedThreadRole writer(ingest->session.writer_role());
    ingest->session.SetDraining();
  }

  void OnStats() override {
    ScopedThreadRole owner(role_);
    server_->PublishStats(index_, LiveSnapshot());
  }

  void OnMailbox() override {
    ScopedThreadRole owner(role_);
    std::vector<Handoff> pending;
    {
      MutexLock lock(handoff_mutex_);
      pending.swap(handoff_queue_);
    }
    for (Handoff& handoff : pending) {
      AdoptConnection(handoff.fd, handoff.pending, /*via_handoff=*/true);
    }
  }

  // Rate buckets that have refilled to burst hold no information; prune
  // them so the map only tracks meters currently being limited.
  void OnSweep(int64_t now) override {
    ScopedThreadRole owner(role_);
    const double rate = server_->options().rate_limit;
    if (rate <= 0 || buckets_.empty()) return;
    const double burst = std::max(1.0, rate);
    for (auto it = buckets_.begin(); it != buckets_.end();) {
      const double refill =
          static_cast<double>(now - it->second.last_ms) * rate / 1000.0;
      if (it->second.tokens + refill >= burst) {
        it = buckets_.erase(it);
      } else {
        ++it;
      }
    }
  }

  // --- protocol ------------------------------------------------------------

  void AdoptConnection(int fd, std::string_view pending, bool via_handoff)
      REQUIRES(role_) {
    ScopedThreadRole core_owner(core_.role());
    // Per-shard cap binds where the connection would actually live (after
    // the deal in single-acceptor mode). The global admission charge from
    // accept time is returned on the refusal.
    const int shard_cap = server_->options().max_connections_per_shard;
    if (shard_cap > 0 &&
        core_.connection_count() >= static_cast<size_t>(shard_cap)) {
      core_.Shed(fd);
      server_->ReleaseAdmission();
      return;
    }
    SessionOptions session_options = server_->options().session;
    session_options.auth_token = server_->options().auth_token;
    session_options.draining = core_.draining();
    if (!core_.Adopt(fd,
                     std::make_unique<Connection>(std::move(session_options)),
                     pending)) {
      // Registration failed before on_close could be wired in; the
      // connection never existed, so its admission charge goes back too.
      server_->ReleaseAdmission();
      return;
    }
    if (via_handoff) ++counters_.handoffs_in;
  }

  // Per-meter token bucket (rate = options.rate_limit HELLOs/s, burst =
  // max(1, rate)). Returns false with a retry hint when the meter must
  // wait; the bucket lives on the meter's home shard so reconnects always
  // meet the same bucket.
  bool AllowSession(const std::string& meter, int64_t now_ms,
                    uint32_t* retry_after_ms) REQUIRES(role_) {
    const double rate = server_->options().rate_limit;
    if (rate <= 0) return true;
    const double burst = std::max(1.0, rate);
    auto [it, inserted] =
        buckets_.try_emplace(meter, TokenBucket{burst, now_ms});
    TokenBucket& bucket = it->second;
    if (!inserted) {
      const double refill =
          static_cast<double>(now_ms - bucket.last_ms) * rate / 1000.0;
      bucket.tokens = std::min(burst, bucket.tokens + refill);
      bucket.last_ms = now_ms;
    }
    if (bucket.tokens >= 1.0) {
      bucket.tokens -= 1.0;
      return true;
    }
    // Time until one full token, capped at an hour so a corrupt clock
    // can not produce a forever hint.
    const double deficit_ms = (1.0 - bucket.tokens) / rate * 1000.0;
    *retry_after_ms =
        static_cast<uint32_t>(std::min(deficit_ms, 3.6e6)) + 1;
    return false;
  }

  // Re-measures one connection's ingest-memory charge (userspace buffers
  // plus unpersisted session samples) and folds the delta into the shard
  // gauge and the fleet-wide atomic.
  void UpdateTrackedMemory(Connection* conn) REQUIRES(role_) {
    size_t now_bytes = 0;
    {
      ScopedThreadRole io_owner(conn->io->role());
      if (!conn->io->closed()) now_bytes = conn->io->buffered_bytes();
    }
    {
      ScopedThreadRole writer(conn->session.writer_role());
      now_bytes +=
          conn->session.symbols_received() * sizeof(SymbolicSample);
    }
    const int64_t delta = static_cast<int64_t>(now_bytes) -
                          static_cast<int64_t>(conn->tracked_bytes);
    if (delta != 0) {
      server_->AddMemoryUsage(delta);
      tracked_memory_ += delta;
      conn->tracked_bytes = now_bytes;
    }
  }

  // Returns a departing connection's whole memory charge (close and
  // handoff both end its tenancy on this shard).
  void ReleaseTrackedMemory(Connection* conn) REQUIRES(role_) {
    if (conn->tracked_bytes == 0) return;
    server_->AddMemoryUsage(-static_cast<int64_t>(conn->tracked_bytes));
    tracked_memory_ -= static_cast<int64_t>(conn->tracked_bytes);
    conn->tracked_bytes = 0;
  }

  // Pushes back on an established connection: a THROTTLE in place of the
  // awaited ack, then close — dropping the connection is what actually
  // frees the buffers the budgets protect.
  void ThrottleConnection(Connection* conn, ThrottleScope scope,
                          uint32_t retry_after_ms, std::string message)
      REQUIRES(role_) {
    ThrottlePayload payload;
    payload.retry_after_ms = retry_after_ms;
    payload.scope = scope;
    payload.message = std::move(message);
    QueueReply(MakeThrottle(payload));
    ++counters_.throttles_sent;
    FlushReplies(conn);
    ScopedThreadRole io_owner(conn->io->role());
    if (!conn->io->closed()) {
      conn->io->CloseAfterFlush(
          InternalError("throttled: " + ThrottleScopeName(scope)));
    }
  }

  // While the sink's ENOSPC circuit is open, poll MaybeProbe on a timer.
  // The probe interval is enforced inside the sink, so several shards
  // polling concurrently still cost one probe write per interval; the
  // timer stops the first time the circuit reads closed.
  void ScheduleDiskProbe() REQUIRES(role_) {
    if (probe_scheduled_) return;
    probe_scheduled_ = true;
    EventLoop* loop = core_.loop();
    ScopedThreadRole loop_owner(loop->role());
    loop->RunAfter(server_->options().probe_interval_ms, [this] {
      ScopedThreadRole owner(role_);
      probe_scheduled_ = false;
      if (!server_->sink()->MaybeProbe(EventLoop::NowMs())) {
        ScheduleDiskProbe();
      }
    });
  }

  // Feeds `data` to the connection's frame decoder; returns bytes
  // consumed. The hot path: zero-copy frame views straight out of the
  // receive buffer, replies coalesced into one writev per event.
  size_t HandleData(Connection* conn, std::string_view data)
      REQUIRES(role_) {
    // On this shard's loop thread, the shard is the one writer of the
    // connection's session and the one driver of its BufferedFd.
    ScopedThreadRole writer(conn->session.writer_role());
    ScopedThreadRole io_owner(conn->io->role());

    if (!conn->pinned) {
      // HELLO peek: decide this connection's home shard before consuming
      // anything, so a re-homed connection travels with its bytes intact.
      const DecodeViewResult peek = DecodeFrameView(data);
      if (peek.outcome == DecodeResult::Outcome::kNeedMore) return 0;
      if (peek.outcome == DecodeResult::Outcome::kFrame &&
          peek.frame.type == FrameType::kHello &&
          server_->shard_count() > 1) {
        Frame hello;
        hello.type = FrameType::kHello;
        hello.payload.assign(peek.frame.payload);
        if (Result<HelloPayload> parsed = ParseHello(hello); parsed.ok()) {
          const int target =
              ShardForMeter(parsed->meter_id, server_->shard_count());
          if (target != index_) {
            HandoffConnection(conn, target);
            return 0;  // the bytes travel with the fd
          }
        }
      }
      // Anything else (decode error, non-HELLO opener, unparseable HELLO)
      // stays here; the normal loop below produces the protocol error.
      conn->pinned = true;
    }

    size_t consumed = 0;
    std::vector<Frame> replies;
    while (consumed < data.size()) {
      DecodeViewResult decoded = DecodeFrameView(data.substr(consumed));
      if (decoded.outcome == DecodeResult::Outcome::kNeedMore) break;
      if (decoded.outcome == DecodeResult::Outcome::kError) {
        // A torn or corrupted frame: tell the meter why, then quarantine
        // this connection. The stream is unrecoverable past this point,
        // so consume everything.
        ++counters_.decode_errors;
        FailConnection(conn, WireStatus::kBadFrame, decoded.error);
        return data.size();
      }
      consumed += decoded.consumed;
      ++counters_.frames_in;
      // Overload interception runs here at the shard, before the Session
      // sees the frame, so the protocol state machine stays pure (no
      // clocks, no budgets). By this point the connection is pinned, so
      // the rate bucket consulted is the meter's home-shard bucket.
      if (decoded.frame.type == FrameType::kHello &&
          server_->options().rate_limit > 0) {
        Frame hello;
        hello.type = FrameType::kHello;
        hello.payload.assign(decoded.frame.payload);
        if (Result<HelloPayload> parsed = ParseHello(hello); parsed.ok()) {
          uint32_t retry_after_ms = 0;
          if (!AllowSession(parsed->meter_id, EventLoop::NowMs(),
                            &retry_after_ms)) {
            ++counters_.rate_limited;
            ThrottleConnection(conn, ThrottleScope::kRate, retry_after_ms,
                               "per-meter session rate limit");
            return data.size();
          }
        }
        // An unparseable HELLO falls through; the session produces the
        // protocol error ack.
      }
      if (decoded.frame.type == FrameType::kSymbolBatch &&
          server_->options().memory_budget > 0) {
        UpdateTrackedMemory(conn);
        if (static_cast<uint64_t>(std::max<int64_t>(
                server_->memory_usage(), 0)) +
                decoded.frame.payload.size() >
            server_->options().memory_budget) {
          ++counters_.memory_throttled;
          ThrottleConnection(conn, ThrottleScope::kMemory,
                             server_->options().throttle_retry_ms,
                             "ingest memory budget exceeded");
          return data.size();
        }
      }
      replies.clear();
      conn->session.OnWireFrame(decoded.frame, &replies);
      for (const Frame& reply : replies) QueueReply(reply);
      if (conn->session.state() == Session::State::kFailed) {
        FlushReplies(conn);
        if (!conn->io->closed()) {
          conn->io->CloseAfterFlush(conn->session.error());
        }
        return data.size();
      }
      if (conn->session.state() == Session::State::kComplete) {
        if (!FinishSession(conn)) return data.size();
        // Keep-alive: the session reset to ExpectHello and the client may
        // have pipelined the next meter's HELLO already — keep decoding.
      }
      if (reply_bytes_.size() >= kReplyFlushBatch) FlushReplies(conn);
      if (conn->io->closed()) return data.size();
    }
    FlushReplies(conn);
    UpdateTrackedMemory(conn);
    if (conn->io->closed()) return data.size();
    return consumed;
  }

  void QueueReply(const Frame& frame) REQUIRES(role_) {
    reply_bytes_.push_back(EncodeFrame(frame));
    ++counters_.frames_out;
  }

  // Sends every queued reply in one scatter-gather writev (SendVec buffers
  // whatever the socket refuses).
  void FlushReplies(Connection* conn) REQUIRES(role_) {
    if (reply_bytes_.empty()) return;
    ScopedThreadRole io_owner(conn->io->role());
    if (conn->io->closed()) {
      reply_bytes_.clear();
      return;
    }
    reply_views_.clear();
    reply_views_.reserve(reply_bytes_.size());
    for (const std::string& bytes : reply_bytes_) {
      reply_views_.push_back(bytes);
    }
    if (reply_views_.size() > 1) counters_.acks_batched += reply_views_.size();
    (void)conn->io->SendVec(reply_views_.data(), reply_views_.size());
    reply_bytes_.clear();
  }

  // Detaches the connection and mails fd + unread bytes to its home
  // shard. Must run before any frame is consumed or reply queued (HELLO
  // peek time), so no output can be stranded here.
  void HandoffConnection(Connection* conn, int target) REQUIRES(role_) {
    BufferedFd::Released released;
    {
      ScopedThreadRole core_owner(core_.role());
      released = core_.Detach(conn);
    }
    ++counters_.handoffs_out;
    // The memory charge moves with the connection (the target re-measures
    // on adoption); the global admission charge just stays put — it is
    // still one live connection.
    ReleaseTrackedMemory(conn);
    server_->shard(target)->EnqueueHandoff(released.fd,
                                           std::move(released.pending_in));
  }

  // Persists (or duplicate-acks) a completed session and queues the
  // GOODBYE_ACK. Returns true when the connection stays open for another
  // session (keep-alive), false when the caller must stop feeding it.
  bool FinishSession(Connection* conn) REQUIRES(role_) {
    ScopedThreadRole writer(conn->session.writer_role());
    ScopedThreadRole io_owner(conn->io->role());
    Session& session = conn->session;
    const std::string meter = session.meter_id();
    AckPayload ack;
    bool completed = false;
    ArchiveSink* sink = server_->sink();
    if (sink->AlreadyPersisted(meter)) {
      // Crash/reconnect re-upload: the archive already holds this meter
      // durably; acknowledge without rewriting.
      ack.status = WireStatus::kOk;
      ack.message = "duplicate";
      ++counters_.sessions_completed;
      completed = true;
    } else {
      const bool circuit_was_open = sink->circuit_open();
      Result<SymbolicSeries> series = session.TakeSeries();
      const uint64_t symbols = series.ok() ? series->size() : 0;
      Status persisted =
          series.ok() ? sink->Persist(meter, session.table_blob(), *series,
                                      session.quality(), index_)
                      : series.status();
      if (persisted.ok()) {
        ack.status = WireStatus::kOk;
        ack.message = "persisted";
        ++counters_.sessions_completed;
        ++counters_.households_persisted;
        counters_.symbols_persisted += symbols;
        completed = true;
      } else if (IsDiskFullStatus(persisted)) {
        // Disk exhaustion: withhold the success ack entirely and push
        // back with a THROTTLE instead of a kServerError ack — the upload
        // is fine, the server is (temporarily) not. The circuit breaker
        // keeps later sessions off the full disk and the probe timer
        // reopens intake; atomic writes guarantee no torn artifact
        // exists, so the meter's eventual retry persists cleanly (and a
        // kill during this paused window converges via fsck + resume).
        if (!circuit_was_open && sink->circuit_open()) {
          ++counters_.circuit_opens;
        }
        ++counters_.persists_paused;
        ScheduleDiskProbe();
        ThrottleConnection(conn, ThrottleScope::kDisk,
                           server_->options().throttle_retry_ms,
                           "archive paused: " + persisted.message());
        return false;
      } else {
        // Persist failed (disk fault seam): the meter must know its
        // upload is NOT durable, so the GOODBYE_ACK carries the error and
        // the session counts as dropped, not completed.
        ack.status = WireStatus::kServerError;
        ack.message = persisted.message();
      }
    }
    QueueReply(MakeAck(FrameType::kGoodbyeAck, ack));
    ScopedThreadRole core_owner(core_.role());
    bool keep_alive;
    if (core_.draining()) {
      // No next session during drain: flush the ack and close.
      FlushReplies(conn);
      if (!conn->io->closed()) conn->io->CloseAfterFlush(Status::Ok());
      keep_alive = false;
    } else {
      // Connection keep-alive: back to ExpectHello so the same socket can
      // carry the next meter (loadgen --connections). Follow-on sessions
      // stay on this shard; the sink's cross-stripe dedup keeps that
      // correct regardless of the next meter's hash.
      session.Reset();
      ++conn->completed;
      keep_alive = true;
    }
    // Exit-after trigger counts DISTINCT meters acknowledged this run
    // across all shards, not sink totals: on a --resume restart the sink
    // starts out holding every carried record, and draining on that total
    // let the server finalize before slow reconnecting meters got their
    // duplicate acks (the old ASan soak flake). Draining synchronously on
    // the tripping shard keeps the single-shard tests deterministic.
    if (completed && server_->NoteCompleted(meter)) {
      FlushReplies(conn);
      core_.BeginDrain();
      server_->RequestDrain();
    }
    return keep_alive && !conn->io->closed();
  }

  void FailConnection(Connection* conn, WireStatus status, Status error)
      REQUIRES(role_) {
    ScopedThreadRole io_owner(conn->io->role());
    AckPayload ack;
    ack.status = status;
    ack.message = error.message();
    QueueReply(MakeAck(FrameType::kGoodbyeAck, ack));
    FlushReplies(conn);
    if (!conn->io->closed()) conn->io->CloseAfterFlush(std::move(error));
  }

  IngestCounters LiveSnapshot() REQUIRES(role_) {
    IngestCounters snapshot = counters_;
    CoreCounters core;
    {
      ScopedThreadRole core_owner(core_.role());
      core = core_.Snapshot();
    }
    snapshot.sessions_active = core.connections_active;
    snapshot.sessions_dropped += core.accept_faults;
    snapshot.connections_shed = core.connections_shed;
    snapshot.accepts_emfile = core.accepts_emfile;
    snapshot.throttles_sent += core.shed_throttles;
    snapshot.idle_drops = core.idle_drops;
    snapshot.write_stall_drops = core.write_stall_drops;
    snapshot.bytes_in = core.bytes_in;
    snapshot.bytes_out = core.bytes_out;
    snapshot.backpressure_stalls = core.backpressure_stalls;
    snapshot.writev_calls = core.writev_calls;
    snapshot.writev_segments = core.writev_segments;
    snapshot.ingest_memory_bytes =
        static_cast<uint64_t>(std::max<int64_t>(tracked_memory_, 0));
    return snapshot;
  }

  IngestServer* const server_;
  const int index_;
  const bool deal_round_robin_;
  ThreadRole role_;
  ServerCore core_;

  uint64_t next_deal_ GUARDED_BY(role_) = 0;
  // Per-meter session-rate buckets (options.rate_limit); pruned when full.
  struct TokenBucket {
    double tokens = 0;
    int64_t last_ms = 0;
  };
  std::map<std::string, TokenBucket> buckets_ GUARDED_BY(role_);
  // This shard's share of the global ingest-memory gauge.
  int64_t tracked_memory_ GUARDED_BY(role_) = 0;
  bool probe_scheduled_ GUARDED_BY(role_) = false;
  IngestCounters counters_ GUARDED_BY(role_);
  // Per-event reply batch scratch (strings own the encoded frames until
  // the writev; views are rebuilt per flush).
  std::vector<std::string> reply_bytes_ GUARDED_BY(role_);
  std::vector<std::string_view> reply_views_ GUARDED_BY(role_);

  Mutex handoff_mutex_;
  std::vector<Handoff> handoff_queue_ GUARDED_BY(handoff_mutex_);
};

// --- IngestServer -----------------------------------------------------------

IngestServer::IngestServer(IngestServerOptions options)
    : options_(std::move(options)), stats_out_(&std::cerr) {}

IngestServer::~IngestServer() = default;

Result<std::unique_ptr<IngestServer>> IngestServer::Create(
    IngestServerOptions options) {
  if (options.archive_dir.empty()) {
    return InvalidArgumentError("ingest server needs an archive directory");
  }
  if (options.max_connections < 0 || options.max_connections_per_shard < 0 ||
      options.rate_limit < 0 || options.write_stall_ms < 0 ||
      options.sndbuf_bytes < 0) {
    return InvalidArgumentError(
        "overload limits must be non-negative (0 disables)");
  }
  if (options.probe_interval_ms < 1) {
    return InvalidArgumentError("probe interval must be positive");
  }
  options.threads = std::clamp(options.threads, 1, 64);
  const int threads = options.threads;
  bool single_acceptor = options.force_single_acceptor || threads == 1;

  std::vector<int> listeners(static_cast<size_t>(threads), -1);
  uint16_t port = 0;
  Result<int> first =
      BindListener(options.host, options.port, !single_acceptor, &port);
  if (!first.ok() && !single_acceptor) {
    // SO_REUSEPORT unavailable: fall back to the single-acceptor deal.
    single_acceptor = true;
    first = BindListener(options.host, options.port, false, &port);
  }
  if (!first.ok()) return first.status();
  listeners[0] = *first;
  if (!single_acceptor) {
    for (int i = 1; i < threads; ++i) {
      Result<int> fd = BindListener(options.host, port, true, nullptr);
      if (!fd.ok()) {
        for (int j = 1; j < i; ++j) {
          ::close(listeners[static_cast<size_t>(j)]);
          listeners[static_cast<size_t>(j)] = -1;
        }
        single_acceptor = true;
        break;
      }
      listeners[static_cast<size_t>(i)] = *fd;
    }
  }
  auto close_unowned = [&listeners] {
    for (int& fd : listeners) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
  };

  Result<std::unique_ptr<ArchiveSink>> sink =
      ArchiveSink::Open(options.archive_dir, options.resume, threads,
                        options.probe_interval_ms);
  if (!sink.ok()) {
    close_unowned();
    return sink.status();
  }

  std::unique_ptr<IngestServer> server(new IngestServer(std::move(options)));
  server->port_ = port;
  server->sink_ = std::move(sink.value());
  {
    MutexLock lock(server->stats_mutex_);
    server->pending_stats_.resize(static_cast<size_t>(threads));
  }
  for (int i = 0; i < threads; ++i) {
    Result<std::unique_ptr<EventLoop>> loop = EventLoop::Create();
    if (!loop.ok()) {
      close_unowned();
      return loop.status();
    }
    const bool deal = single_acceptor && threads > 1 && i == 0;
    server->shards_.push_back(std::make_unique<IngestShard>(
        server.get(), i, listeners[static_cast<size_t>(i)],
        std::move(loop.value()), deal));
    listeners[static_cast<size_t>(i)] = -1;  // the shard owns it now
    if (Status status = server->shards_.back()->Setup(); !status.ok()) {
      close_unowned();
      return status;
    }
  }
  return server;
}

Status IngestServer::Run() {
  // The calling thread owns the cross-shard state until Run() returns;
  // each shard thread owns its shard's state via the shard role.
  ScopedThreadRole owner(role_);
  const size_t n = shards_.size();
  std::vector<Status> results(n);
  std::vector<std::thread> threads;
  threads.reserve(n > 0 ? n - 1 : 0);
  for (size_t i = 1; i < n; ++i) {
    threads.emplace_back(
        [this, i, &results] { results[i] = shards_[i]->Run(); });
  }
  results[0] = shards_[0]->Run();
  for (std::thread& thread : threads) thread.join();
  Status exit_status = sink_->Finalize();
  for (const Status& result : results) {
    if (exit_status.ok() && !result.ok()) exit_status = result;
  }
  return exit_status;
}

void IngestServer::RequestDrain() {
  for (const std::unique_ptr<IngestShard>& shard : shards_) {
    shard->RequestDrain();
  }
}

void IngestServer::RequestStatsDump() {
  for (const std::unique_ptr<IngestShard>& shard : shards_) {
    shard->RequestStats();
  }
}

IngestCounters IngestServer::counters() const {
  IngestCounters total;
  for (const std::unique_ptr<IngestShard>& shard : shards_) {
    total.Add(shard->SnapshotCountersOwned());
  }
  return total;
}

IngestCounters IngestServer::shard_counters(int shard) const {
  return shards_[static_cast<size_t>(shard)]->SnapshotCountersOwned();
}

bool IngestServer::TryAdmit() {
  const int budget = options_.max_connections;
  const int64_t now = admitted_.fetch_add(1) + 1;
  if (budget > 0 && now > budget) {
    admitted_.fetch_sub(1);
    return false;
  }
  return true;
}

void IngestServer::ReleaseAdmission() { admitted_.fetch_sub(1); }

void IngestServer::AddMemoryUsage(int64_t delta) {
  memory_usage_.fetch_add(delta);
}

bool IngestServer::NoteCompleted(const std::string& meter) {
  // The set only feeds the exit_after threshold; skip the bookkeeping
  // entirely for a run-forever daemon so it cannot grow without bound.
  if (options_.exit_after_households == 0) return false;
  MutexLock lock(completed_mutex_);
  completed_this_run_.insert(meter);
  if (drain_triggered_) return false;
  if (completed_this_run_.size() >= options_.exit_after_households) {
    drain_triggered_ = true;
    return true;
  }
  return false;
}

void IngestServer::PublishStats(int shard, const IngestCounters& snapshot) {
  std::vector<IngestCounters> per_shard;
  {
    MutexLock lock(stats_mutex_);
    pending_stats_[static_cast<size_t>(shard)] = snapshot;
    for (const std::optional<IngestCounters>& slot : pending_stats_) {
      if (!slot.has_value()) return;  // still waiting on another shard
    }
    per_shard.reserve(pending_stats_.size());
    for (std::optional<IngestCounters>& slot : pending_stats_) {
      per_shard.push_back(*slot);
      slot.reset();
    }
  }
  // Last shard in: emit the whole dump as one JSON blob.
  IngestCounters total;
  for (const IngestCounters& counters : per_shard) total.Add(counters);
  std::ostringstream out;
  out << "{\n\"shards\": [\n";
  for (size_t i = 0; i < per_shard.size(); ++i) {
    if (i > 0) out << ",\n";
    out << per_shard[i].ToJson();
  }
  out << "\n],\n\"total\": " << total.ToJson() << "\n}";
  (*stats_out_) << out.str() << "\n" << std::flush;
  stats_dumps_.fetch_add(1);
}

}  // namespace smeter::net
