#include "net/framed_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

namespace smeter::net {

Status FramedClient::Connect(const std::string& host, uint16_t port,
                             int64_t timeout_ms) {
  CloseFd();
  in_.clear();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return ErrnoError("socket");
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  const int enable = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  Status status;
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    status = InvalidArgumentError("bad host '" + host + "'");
  } else if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)) != 0) {
    status = ErrnoError("connect " + host + ":" + std::to_string(port));
  }
  if (!status.ok()) CloseFd();
  return status;
}

Status FramedClient::SendFrame(const Frame& frame) {
  const std::string bytes = EncodeFrame(frame);
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = ::write(fd_, bytes.data() + sent, bytes.size() - sent);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    return ErrnoError("write");
  }
  return Status::Ok();
}

Result<Frame> FramedClient::RecvFrame() {
  for (;;) {
    DecodeResult decoded = DecodeFrame(in_);
    if (decoded.outcome == DecodeResult::Outcome::kFrame) {
      in_.erase(0, decoded.consumed);
      return std::move(decoded.frame);
    }
    if (decoded.outcome == DecodeResult::Outcome::kError) {
      return decoded.error;
    }
    char chunk[16 * 1024];
    ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n > 0) {
      in_.append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) return InternalError("server closed the connection");
    if (errno == EINTR) continue;
    return ErrnoError("read");
  }
}

void FramedClient::Abort() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
    CloseFd();
  }
}

void FramedClient::CloseFd() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace smeter::net
