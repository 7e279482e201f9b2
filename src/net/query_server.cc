#include "net/query_server.h"

#include <unistd.h>

#include <iostream>
#include <sstream>
#include <utility>

#include "net/wire.h"

namespace smeter::net {

std::string QueryCounters::ToJson() const {
  std::ostringstream out;
  out << "{\n"
      << "  \"connections_accepted\": " << connections_accepted << ",\n"
      << "  \"connections_active\": " << connections_active << ",\n"
      << "  \"connections_dropped\": " << connections_dropped << ",\n"
      << "  \"connections_shed\": " << connections_shed << ",\n"
      << "  \"frames_in\": " << frames_in << ",\n"
      << "  \"frames_out\": " << frames_out << ",\n"
      << "  \"bytes_in\": " << bytes_in << ",\n"
      << "  \"bytes_out\": " << bytes_out << ",\n"
      << "  \"decode_errors\": " << decode_errors << ",\n"
      << "  \"queries_point\": " << queries_point << ",\n"
      << "  \"queries_range\": " << queries_range << ",\n"
      << "  \"queries_aggregate\": " << queries_aggregate << ",\n"
      << "  \"throttles_sent\": " << throttles_sent << ",\n"
      << "  \"memory_throttled\": " << memory_throttled << ",\n"
      << "  \"idle_drops\": " << idle_drops << ",\n"
      << "  \"segments_read\": " << segments_read << ",\n"
      << "  \"current_refreshes\": " << current_refreshes << "\n"
      << "}";
  return out.str();
}

struct QueryServer::Connection : ServerConnection {
  QuerySession session;

  Connection(ArchiveStore* store, QuerySessionOptions options)
      : session(store, std::move(options)) {}
};

QueryServer::QueryServer(QueryServerOptions options)
    : options_(std::move(options)), stats_out_(&std::cerr) {}

QueryServer::~QueryServer() = default;

Result<std::unique_ptr<QueryServer>> QueryServer::Create(
    QueryServerOptions options) {
  if (options.store_dir.empty()) {
    return InvalidArgumentError("query server needs a store directory");
  }
  auto server = std::unique_ptr<QueryServer>(
      new QueryServer(std::move(options)));
  const QueryServerOptions& opts = server->options_;
  ArchiveStoreOptions store_options;
  store_options.current_dir = opts.current_dir;
  Result<std::unique_ptr<ArchiveStore>> store =
      ArchiveStore::Open(opts.store_dir, store_options);
  if (!store.ok()) return store.status();
  server->store_ = std::move(*store);
  Result<int> fd = BindListener(opts.host, opts.port, /*reuseport=*/false,
                                &server->port_);
  if (!fd.ok()) return fd.status();
  Result<std::unique_ptr<EventLoop>> loop = EventLoop::Create();
  if (!loop.ok()) {
    ::close(*fd);
    return loop.status();
  }
  ServerCoreOptions core;
  core.accept_seam = "query.accept";
  core.idle_timeout_ms = opts.idle_timeout_ms;
  core.drain_grace_ms = opts.drain_grace_ms;
  core.high_watermark = opts.high_watermark;
  core.throttle_retry_ms = opts.throttle_retry_ms;
  ServerHandler* handler = server.get();
  server->core_ = std::make_unique<ServerCore>(std::move(core), *fd,
                                               std::move(*loop), handler);
  ScopedThreadRole core_owner(server->core_->role());
  SMETER_RETURN_IF_ERROR(server->core_->Setup());
  return server;
}

Status QueryServer::Run() { return core_->Run(); }

void QueryServer::RequestDrain() { core_->RequestDrain(); }

void QueryServer::RequestStatsDump() { core_->RequestStats(); }

QueryCounters QueryServer::counters() const { return LiveSnapshot(); }

QueryCounters QueryServer::LiveSnapshot() const {
  QueryCounters snapshot = counters_;
  CoreCounters core;
  {
    ScopedThreadRole core_owner(core_->role());
    core = core_->Snapshot();
  }
  snapshot.connections_active = core.connections_active;
  snapshot.connections_dropped += core.accept_faults;
  snapshot.connections_shed = core.connections_shed;
  snapshot.throttles_sent += core.shed_throttles;
  snapshot.idle_drops = core.idle_drops;
  snapshot.bytes_in = core.bytes_in;
  snapshot.bytes_out = core.bytes_out;
  snapshot.segments_read = store_->segments_read();
  snapshot.current_refreshes = store_->current_refreshes();
  return snapshot;
}

void QueryServer::OnStats() {
  ScopedThreadRole self(role_);
  (*stats_out_) << LiveSnapshot().ToJson() << "\n" << std::flush;
  stats_dumps_.fetch_add(1);
}

void QueryServer::OnAccept(int fd) {
  ScopedThreadRole self(role_);
  ScopedThreadRole core_owner(core_->role());
  if (options_.max_connections > 0 &&
      core_->connection_count() >=
          static_cast<size_t>(options_.max_connections)) {
    core_->Shed(fd);
    return;
  }
  ++counters_.connections_accepted;
  QuerySessionOptions session_options;
  session_options.auth_token = options_.auth_token;
  session_options.max_scan_symbols = options_.max_scan_symbols;
  session_options.draining = core_->draining();
  (void)core_->Adopt(fd,
                     std::make_unique<Connection>(store_.get(),
                                                  std::move(session_options)),
                     {});
}

size_t QueryServer::OnData(ServerConnection* conn, std::string_view data) {
  ScopedThreadRole self(role_);
  return HandleData(static_cast<Connection*>(conn), data);
}

size_t QueryServer::HandleData(Connection* conn, std::string_view data) {
  ScopedThreadRole writer(conn->session.writer_role());
  ScopedThreadRole io_owner(conn->io->role());
  size_t consumed = 0;
  std::vector<Frame> replies;
  while (consumed < data.size()) {
    DecodeViewResult decoded = DecodeFrameView(data.substr(consumed));
    if (decoded.outcome == DecodeResult::Outcome::kNeedMore) break;
    if (decoded.outcome == DecodeResult::Outcome::kError) {
      // A torn or corrupted frame: the stream is unrecoverable past this
      // point, so answer and quarantine the connection.
      ++counters_.decode_errors;
      SendReplies(conn, {MakeQueryAck({WireStatus::kBadFrame,
                                       decoded.error.message()})});
      CloseConnection(conn, decoded.error);
      return data.size();
    }
    consumed += decoded.consumed;
    ++counters_.frames_in;
    const uint8_t type = static_cast<uint8_t>(decoded.frame.type);
    if (type == static_cast<uint8_t>(QueryFrameType::kPointQuery)) {
      ++counters_.queries_point;
    } else if (type == static_cast<uint8_t>(QueryFrameType::kRangeQuery)) {
      ++counters_.queries_range;
    } else if (type ==
               static_cast<uint8_t>(QueryFrameType::kAggregateQuery)) {
      ++counters_.queries_aggregate;
    }
    Frame frame;
    frame.type = decoded.frame.type;
    frame.payload.assign(decoded.frame.payload);
    replies.clear();
    conn->session.OnFrame(frame, &replies);
    SendReplies(conn, replies);
    if (conn->session.state() == QuerySession::State::kFailed) {
      CloseConnection(conn, conn->session.error());
      return data.size();
    }
    if (conn->io->closed()) return data.size();
    if (options_.exit_after_queries > 0 &&
        counters_.queries_point + counters_.queries_range +
                counters_.queries_aggregate >=
            options_.exit_after_queries) {
      ScopedThreadRole core_owner(core_->role());
      if (!core_->draining()) {
        core_->BeginDrain();
        return data.size();
      }
    }
  }
  if (conn->io->closed()) return data.size();
  return consumed;
}

void QueryServer::SendReplies(Connection* conn,
                              const std::vector<Frame>& replies) {
  ScopedThreadRole io_owner(conn->io->role());
  if (replies.empty() || conn->io->closed()) return;
  std::string batch;
  for (const Frame& reply : replies) {
    batch += EncodeFrame(reply);
    ++counters_.frames_out;
  }
  // Memory knob: a reply burst that would blow the per-connection budget
  // becomes a THROTTLE and the connection closes — the server never
  // buffers an unbounded scan for a reader that is not draining it.
  if (options_.memory_budget > 0 &&
      conn->io->buffered_bytes() + batch.size() > options_.memory_budget) {
    ++counters_.memory_throttled;
    ++counters_.throttles_sent;
    ThrottlePayload throttle;
    throttle.retry_after_ms = options_.throttle_retry_ms;
    throttle.scope = ThrottleScope::kMemory;
    throttle.message = "reply exceeds the query memory budget";
    (void)conn->io->Send(EncodeFrame(MakeThrottle(throttle)));
    conn->administrative_close = true;
    CloseConnection(
        conn, FailedPreconditionError("query memory budget exceeded"));
    return;
  }
  if (Status status = conn->io->Send(batch); !status.ok()) {
    CloseConnection(conn, status);
  }
}

void QueryServer::CloseConnection(Connection* conn, Status reason) {
  ScopedThreadRole io_owner(conn->io->role());
  if (conn->io->closed()) return;
  conn->io->CloseAfterFlush(std::move(reason));
}

void QueryServer::OnClosed(ServerConnection* conn, const Status& reason) {
  ScopedThreadRole self(role_);
  // Idle sweeps, drain deadlines and memory throttles are the server's own
  // closes and have their own counters.
  if (!reason.ok() && !conn->administrative_close) {
    ++counters_.connections_dropped;
  }
}

void QueryServer::OnDraining(ServerConnection* conn) {
  Connection* query = static_cast<Connection*>(conn);
  ScopedThreadRole writer(query->session.writer_role());
  query->session.SetDraining();
}

}  // namespace smeter::net
