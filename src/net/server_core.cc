#include "net/server_core.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <utility>

#include "common/fault_injection.h"
#include "net/wire.h"

namespace smeter::net {
namespace {

// Adds one connection's BufferedFd statistics to `counters`.
void AddIo(ServerConnection* conn, CoreCounters* counters) {
  ScopedThreadRole io_owner(conn->io->role());
  counters->bytes_in += conn->io->bytes_in();
  counters->bytes_out += conn->io->bytes_out();
  counters->backpressure_stalls += conn->io->stalls();
  counters->writev_calls += conn->io->writev_calls();
  counters->writev_segments += conn->io->writev_segments();
}

}  // namespace

Status ParseListenAddress(const std::string& address, std::string* host,
                          uint16_t* port) {
  std::string host_part = "127.0.0.1";
  std::string port_part = address;
  const size_t colon = address.rfind(':');
  if (colon != std::string::npos) {
    if (colon > 0) host_part = address.substr(0, colon);
    port_part = address.substr(colon + 1);
  }
  if (port_part.empty()) {
    return InvalidArgumentError("missing port in '" + address + "'");
  }
  char* end = nullptr;
  const unsigned long value = std::strtoul(port_part.c_str(), &end, 10);
  if (end == port_part.c_str() || *end != '\0' || value > 65535) {
    return InvalidArgumentError("bad port '" + port_part + "' in '" +
                                address + "'");
  }
  *host = host_part;
  *port = static_cast<uint16_t>(value);
  return Status::Ok();
}

Result<int> BindListener(const std::string& host, uint16_t port,
                         bool reuseport, uint16_t* bound_port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return ErrnoError("socket");
  const int enable = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  if (reuseport &&
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &enable, sizeof(enable)) !=
          0) {
    Status status = ErrnoError("setsockopt(SO_REUSEPORT)");
    ::close(fd);
    return status;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return InvalidArgumentError("bad listen host '" + host + "'");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status status = ErrnoError("bind " + host + ":" + std::to_string(port));
    ::close(fd);
    return status;
  }
  if (::listen(fd, SOMAXCONN) != 0) {
    Status status = ErrnoError("listen");
    ::close(fd);
    return status;
  }
  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
        0) {
      Status status = ErrnoError("getsockname");
      ::close(fd);
      return status;
    }
    *bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

ServerCore::ServerCore(ServerCoreOptions options, int listen_fd,
                       std::unique_ptr<EventLoop> loop,
                       ServerHandler* handler)
    : options_(std::move(options)),
      handler_(handler),
      loop_(std::move(loop)),
      listen_fd_(listen_fd) {}

ServerCore::~ServerCore() {
  ScopedThreadRole owner(role_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (reserve_fd_ >= 0) ::close(reserve_fd_);
}

Status ServerCore::Setup() {
  ThrottlePayload shed;
  shed.retry_after_ms = options_.throttle_retry_ms;
  shed.scope = ThrottleScope::kAdmission;
  shed.message = ThrottleScopeName(shed.scope) + " limit; retry later";
  shed_frame_ = EncodeFrame(MakeThrottle(shed));
  {
    // Setup-time claim of the loop role, released before loop_->Run()
    // claims it for the loop's lifetime.
    ScopedThreadRole loop_owner(loop_->role());
    if (listen_fd_ >= 0) {
      SMETER_RETURN_IF_ERROR(
          loop_->Add(listen_fd_, EPOLLIN | EPOLLET, [this](uint32_t) {
            ScopedThreadRole self(role_);
            OnAcceptable();
          }));
    }
    loop_->SetWakeupHandler([this] {
      ScopedThreadRole self(role_);
      handler_->OnMailbox();
      if (stats_requested_.exchange(false)) handler_->OnStats();
      if (drain_requested_.exchange(false)) BeginDrain();
    });
  }
  // Reserved fd for the EMFILE escape hatch: when accept4 hits the fd
  // limit, this slot is briefly freed so the backlog can be accepted and
  // refused instead of spinning on a level that never clears.
  reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  ScheduleSweep();
  return Status::Ok();
}

Status ServerCore::Run() { return loop_->Run(); }

void ServerCore::RequestDrain() {
  drain_requested_.store(true);
  loop_->Wakeup();
}

void ServerCore::RequestStats() {
  stats_requested_.store(true);
  loop_->Wakeup();
}

void ServerCore::OnAcceptable() {
  while (listen_fd_ >= 0) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // Fd exhaustion: the listener is edge-triggered, so leaving the
        // backlog unaccepted would wedge the acceptor (no new edge until a
        // new connection arrives). Burn the reserved fd to accept and
        // refuse the backlog cleanly.
        ShedBacklogViaReserve();
      }
      // EAGAIN ends the edge; other transient accept failures must never
      // kill the daemon — the peer retries.
      return;
    }
    // Fault seam: a dropped accept costs one connection, not the server.
    if (Status fault = fault::Check(options_.accept_seam); !fault.ok()) {
      ::close(fd);
      ++counters_.accept_faults;
      continue;
    }
    handler_->OnAccept(fd);
  }
}

// The EMFILE escape hatch: free the reserved fd, accept-and-refuse the
// backlog until it drains (each shed close frees the slot the next accept
// uses), then re-arm the reserve. Without this, an fd-exhausted
// edge-triggered acceptor never sees another readable edge for the
// connections already queued, and the listener is silently wedged until
// a new peer shows up.
void ServerCore::ShedBacklogViaReserve() {
  ++counters_.accepts_emfile;
  if (reserve_fd_ < 0) {
    // The reserve itself could not be (re)opened under pressure; try again
    // now — if even that fails the backlog must wait for a slot.
    reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    if (reserve_fd_ < 0) return;
  }
  ::close(reserve_fd_);
  reserve_fd_ = -1;
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN: backlog drained; EMFILE: the slot vanished
    }
    Shed(fd);
  }
  reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
}

void ServerCore::Shed(int fd) {
  // A fresh socket's send buffer always has room for the handful of
  // bytes, so the refusal usually reaches the peer; a blocked send just
  // drops the hint — the refusal is the close itself.
  const ssize_t n = ::send(fd, shed_frame_.data(), shed_frame_.size(),
                           MSG_DONTWAIT | MSG_NOSIGNAL);
  if (n == static_cast<ssize_t>(shed_frame_.size())) {
    ++counters_.shed_throttles;
  }
  ::close(fd);
  ++counters_.connections_shed;
}

bool ServerCore::Adopt(int fd, std::unique_ptr<ServerConnection> conn,
                       std::string_view pending) {
  const int enable = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
  if (const int sndbuf = options_.sndbuf_bytes; sndbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
  }
  ServerConnection* raw = conn.get();
  raw->id = next_conn_id_++;
  raw->last_active_ms = EventLoop::NowMs();
  raw->io = std::make_unique<BufferedFd>(
      loop_.get(), fd,
      BufferedFd::Callbacks{
          [this, raw](std::string_view data) {
            ScopedThreadRole self(role_);
            raw->last_active_ms = EventLoop::NowMs();
            return handler_->OnData(raw, data);
          },
          [this, raw](const Status& reason) {
            ScopedThreadRole self(role_);
            OnConnectionClosed(raw, reason);
          }},
      options_.high_watermark);
  ScopedThreadRole io_owner(raw->io->role());
  // On failure the BufferedFd destructor closes the fd.
  if (Status status = raw->io->Register(); !status.ok()) return false;
  connections_.emplace(raw->id, std::move(conn));
  if (!pending.empty()) {
    // Replay what another loop already read: edge-triggered epoll shows
    // no edge for bytes that left the socket elsewhere.
    raw->io->InjectInput(pending);
    raw->io->Pump();
  }
  return true;
}

BufferedFd::Released ServerCore::Detach(ServerConnection* conn) {
  BufferedFd::Released released;
  {
    ScopedThreadRole io_owner(conn->io->role());
    released = conn->io->ReleaseFd();
  }
  Retire(conn);
  return released;
}

void ServerCore::OnConnectionClosed(ServerConnection* conn,
                                    const Status& reason) {
  handler_->OnClosed(conn, reason);
  Retire(conn);
  if (draining_) FinishDrainIfIdle();
}

// Folds a departing connection's I/O statistics into the counters and
// parks it: on_close can fire while the connection's own BufferedFd
// callbacks are on the stack, so destruction waits for the next loop pass.
void ServerCore::Retire(ServerConnection* conn) {
  AddIo(conn, &counters_);
  auto it = connections_.find(conn->id);
  if (it != connections_.end()) {
    graveyard_.push_back(std::move(it->second));
    connections_.erase(it);
  }
  if (reap_scheduled_) return;
  reap_scheduled_ = true;
  ScopedThreadRole loop_owner(loop_->role());
  loop_->RunAfter(0, [this] {
    ScopedThreadRole self(role_);
    reap_scheduled_ = false;
    graveyard_.clear();
    if (draining_) FinishDrainIfIdle();
  });
}

CoreCounters ServerCore::Snapshot() const {
  CoreCounters snapshot = counters_;
  snapshot.connections_active = connections_.size();
  for (const auto& [id, conn] : connections_) AddIo(conn.get(), &snapshot);
  return snapshot;
}

// Sweep cadence: half the tightest enabled deadline, floored at 100 ms; no
// sweep when both deadlines are off.
void ServerCore::ScheduleSweep() {
  int64_t tightest = options_.idle_timeout_ms;
  const int64_t stall = options_.write_stall_ms;
  if (stall > 0 && (tightest <= 0 || stall < tightest)) tightest = stall;
  if (tightest <= 0) return;
  ScopedThreadRole loop_owner(loop_->role());
  loop_->RunAfter(std::max<int64_t>(tightest / 2, 100), [this] {
    ScopedThreadRole self(role_);
    Sweep();
  });
}

// One pass of the per-connection deadline police: the write-stall deadline
// (peer stopped draining its replies past the high-watermark) and the idle
// timeout (peer stopped talking). A stalled connection is also idle by
// definition (paused reads see no activity), so the stall check runs first
// and claims the drop.
void ServerCore::Sweep() {
  const int64_t idle_timeout = options_.idle_timeout_ms;
  const int64_t stall_timeout = options_.write_stall_ms;
  const int64_t now = EventLoop::NowMs();
  std::vector<std::pair<uint64_t, bool>> victims;  // (id, stalled)
  for (const auto& [id, conn] : connections_) {
    ScopedThreadRole io_owner(conn->io->role());
    const int64_t stalled_since = conn->io->stalled_since_ms();
    if (stall_timeout > 0 && stalled_since > 0 &&
        now - stalled_since > stall_timeout) {
      victims.emplace_back(id, true);
    } else if (idle_timeout > 0 &&
               now - conn->last_active_ms > idle_timeout) {
      victims.emplace_back(id, false);
    }
  }
  for (const auto& [id, stalled] : victims) {
    auto it = connections_.find(id);
    if (it == connections_.end()) continue;
    ++(stalled ? counters_.write_stall_drops : counters_.idle_drops);
    it->second->administrative_close = true;
    ScopedThreadRole io_owner(it->second->io->role());
    it->second->io->Close(InternalError(
        stalled ? "write-stall deadline" : "idle timeout"));
  }
  handler_->OnSweep(now);
  if (!draining_) ScheduleSweep();
}

void ServerCore::BeginDrain() {
  if (draining_) return;
  draining_ = true;
  if (listen_fd_ >= 0) {
    // Stop accepting: new peers get connection-refused and retry later.
    ScopedThreadRole loop_owner(loop_->role());
    (void)loop_->Remove(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Mailbox stragglers become connections now so the protocol refuses
  // them cleanly instead of stranding open fds.
  handler_->OnMailbox();
  for (const auto& [id, conn] : connections_) handler_->OnDraining(conn.get());
  {
    ScopedThreadRole loop_owner(loop_->role());
    loop_->RunAfter(options_.drain_grace_ms, [this] {
      ScopedThreadRole self(role_);
      std::vector<uint64_t> remaining;
      for (const auto& [id, conn] : connections_) remaining.push_back(id);
      for (uint64_t id : remaining) {
        auto it = connections_.find(id);
        if (it == connections_.end()) continue;
        it->second->administrative_close = true;
        ScopedThreadRole io_owner(it->second->io->role());
        it->second->io->Close(InternalError("drain deadline"));
      }
      FinishDrainIfIdle();
    });
  }
  FinishDrainIfIdle();
}

void ServerCore::FinishDrainIfIdle() {
  if (!draining_ || stopped_ || !connections_.empty()) return;
  stopped_ = true;
  ScopedThreadRole loop_owner(loop_->role());
  loop_->Stop();
}

}  // namespace smeter::net
