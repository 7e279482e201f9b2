// The one blocking client transport for the CRC32C-framed wire (wire.h):
// connect with socket timeouts, send a frame, receive a frame, abort.
// The load generator, the spool uploader and the query client all talk
// through it; their conversations and fault seams stay with them.

#ifndef SMETER_NET_FRAMED_CLIENT_H_
#define SMETER_NET_FRAMED_CLIENT_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "net/wire.h"

namespace smeter::net {

class FramedClient {
 public:
  FramedClient() = default;
  ~FramedClient() { CloseFd(); }

  FramedClient(const FramedClient&) = delete;
  FramedClient& operator=(const FramedClient&) = delete;

  // (Re)connects to host:port (TCP_NODELAY), dropping any previous
  // connection and half-decoded input; not connected() after a failure.
  // `timeout_ms` bounds every later send and receive: a silent server
  // fails the call.
  Status Connect(const std::string& host, uint16_t port, int64_t timeout_ms);
  Status SendFrame(const Frame& frame);
  // Blocks until one whole frame arrived; a torn or corrupt frame, EOF or
  // a timeout is an error.
  Result<Frame> RecvFrame();
  // Abrupt teardown, mid-frame if need be — a dying client.
  void Abort();
  bool connected() const { return fd_ >= 0; }

 private:
  void CloseFd();

  int fd_ = -1;
  std::string in_;
};

}  // namespace smeter::net

#endif  // SMETER_NET_FRAMED_CLIENT_H_
