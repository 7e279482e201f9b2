// Seeded violation for lint_invariants.py --self-test: a private accept
// loop and a private blocking connect outside the shared server core and
// framed client must trip `one-server-skeleton`. Never compiled.

#include <sys/socket.h>

namespace smeter {

int AcceptOne(int listen_fd) {
  return ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK);
}

int DialOne(int fd, const sockaddr* addr, socklen_t len) {
  return ::connect(fd, addr, len);
}

}  // namespace smeter
