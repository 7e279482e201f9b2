// Blocking client for the query protocol (query_wire.h): one TCP
// connection, one QUERY_HELLO handshake, then synchronous request/response
// pairs. This is the counterpart the CLI `smeter query` subcommand, the
// integration tests, and the query storm driver all share.
//
// Error surface:
//   * Transport and framing failures return the underlying Status.
//   * A THROTTLE frame in place of a response becomes a
//     FailedPreconditionError carrying the scope and retry hint — the
//     caller decides whether to back off or give up.
//   * A per-query non-kOk WireStatus is NOT an error at this layer: the
//     result payload is returned as parsed (status + message populated,
//     values canonical-zero) so callers can tell "meter unknown"
//     (kNotFound) from "malformed request" without string matching.

#ifndef SMETER_NET_QUERY_CLIENT_H_
#define SMETER_NET_QUERY_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "core/time_series.h"
#include "net/framed_client.h"
#include "net/query_wire.h"

namespace smeter::net {

struct QueryClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::string auth_token;
  // Socket send/receive timeout; a silent server fails the call.
  int64_t timeout_ms = 5'000;
};

class QueryClient {
 public:
  // Connects and completes the QUERY_HELLO handshake. A draining or
  // unauthorized refusal surfaces as the handshake QueryAck's status
  // mapped onto a Status error.
  static Result<std::unique_ptr<QueryClient>> Connect(
      QueryClientOptions options);
  ~QueryClient();

  QueryClient(const QueryClient&) = delete;
  QueryClient& operator=(const QueryClient&) = delete;

  // Latest symbol for one meter (hot current-table lookup).
  Result<PointResultPayload> Point(const std::string& meter_id);

  // Symbols for one meter over [start, end) at `level` (0 = native).
  Result<RangeResultPayload> Range(const std::string& meter_id,
                                   const TimeRange& range, int level,
                                   uint32_t max_symbols);

  // Fleet-wide histogram over [start, end) at `level`.
  Result<AggregateResultPayload> Aggregate(const TimeRange& range,
                                           int level);

  uint64_t requests_sent() const { return next_request_id_ - 1; }

 private:
  explicit QueryClient(QueryClientOptions options);

  // Sends `request` and returns the response frame, surfacing THROTTLE
  // frames and session-fatal QueryAcks as errors.
  Result<Frame> RoundTrip(const Frame& request, uint8_t expect_type);

  QueryClientOptions options_;
  FramedClient transport_;
  uint64_t next_request_id_ = 1;
};

}  // namespace smeter::net

#endif  // SMETER_NET_QUERY_CLIENT_H_
