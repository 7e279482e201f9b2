#include "net/query_client.h"

#include <utility>

#include "net/wire.h"

namespace smeter::net {

QueryClient::QueryClient(QueryClientOptions options)
    : options_(std::move(options)) {}

QueryClient::~QueryClient() = default;

Result<std::unique_ptr<QueryClient>> QueryClient::Connect(
    QueryClientOptions options) {
  auto client =
      std::unique_ptr<QueryClient>(new QueryClient(std::move(options)));
  SMETER_RETURN_IF_ERROR(client->transport_.Connect(
      client->options_.host, client->options_.port,
      client->options_.timeout_ms));
  QueryHelloPayload hello;
  hello.protocol_version = kQueryProtocolVersion;
  hello.auth_token = client->options_.auth_token;
  Result<Frame> ack_frame = client->RoundTrip(
      MakeQueryHello(hello),
      static_cast<uint8_t>(QueryFrameType::kQueryAck));
  if (!ack_frame.ok()) return ack_frame.status();
  Result<QueryAckPayload> ack = ParseQueryAck(*ack_frame);
  if (!ack.ok()) return ack.status();
  if (ack->status != WireStatus::kOk) {
    return FailedPreconditionError(
        "handshake refused (" + std::string(WireStatusName(ack->status)) +
        "): " + ack->message);
  }
  return client;
}

Result<Frame> QueryClient::RoundTrip(const Frame& request,
                                     uint8_t expect_type) {
  SMETER_RETURN_IF_ERROR(transport_.SendFrame(request));
  Result<Frame> response = transport_.RecvFrame();
  if (!response.ok()) return response.status();
  const uint8_t type = static_cast<uint8_t>(response->type);
  if (type == expect_type) return response;
  if (response->type == FrameType::kThrottle) {
    Result<ThrottlePayload> throttle = ParseThrottle(*response);
    if (!throttle.ok()) return throttle.status();
    return FailedPreconditionError(
        "server throttled (scope=" + ThrottleScopeName(throttle->scope) +
        ", retry_after_ms=" + std::to_string(throttle->retry_after_ms) +
        "): " + throttle->message);
  }
  if (type == static_cast<uint8_t>(QueryFrameType::kQueryAck)) {
    // A QueryAck in place of a typed result is the server refusing the
    // request and (for fatal statuses) quarantining the session.
    Result<QueryAckPayload> ack = ParseQueryAck(*response);
    if (!ack.ok()) return ack.status();
    return FailedPreconditionError(
        "server refused the query (" +
        std::string(WireStatusName(ack->status)) + "): " + ack->message);
  }
  return InternalError("unexpected response frame type " +
                       std::to_string(type));
}

Result<PointResultPayload> QueryClient::Point(const std::string& meter_id) {
  PointQueryPayload query;
  query.request_id = next_request_id_++;
  query.meter_id = meter_id;
  Result<Frame> response =
      RoundTrip(MakePointQuery(query),
                static_cast<uint8_t>(QueryFrameType::kPointResult));
  if (!response.ok()) return response.status();
  Result<PointResultPayload> result = ParsePointResult(*response);
  if (!result.ok()) return result.status();
  if (result->request_id != query.request_id) {
    return InternalError("response request_id " +
                         std::to_string(result->request_id) +
                         " does not match " +
                         std::to_string(query.request_id));
  }
  return result;
}

Result<RangeResultPayload> QueryClient::Range(const std::string& meter_id,
                                              const TimeRange& range,
                                              int level,
                                              uint32_t max_symbols) {
  RangeQueryPayload query;
  query.request_id = next_request_id_++;
  query.meter_id = meter_id;
  query.start = range.begin;
  query.end = range.end;
  query.level = static_cast<uint8_t>(level);
  query.max_symbols = max_symbols;
  Result<Frame> response =
      RoundTrip(MakeRangeQuery(query),
                static_cast<uint8_t>(QueryFrameType::kRangeResult));
  if (!response.ok()) return response.status();
  Result<RangeResultPayload> result = ParseRangeResult(*response);
  if (!result.ok()) return result.status();
  if (result->request_id != query.request_id) {
    return InternalError("response request_id " +
                         std::to_string(result->request_id) +
                         " does not match " +
                         std::to_string(query.request_id));
  }
  return result;
}

Result<AggregateResultPayload> QueryClient::Aggregate(
    const TimeRange& range, int level) {
  AggregateQueryPayload query;
  query.request_id = next_request_id_++;
  query.start = range.begin;
  query.end = range.end;
  query.level = static_cast<uint8_t>(level);
  Result<Frame> response =
      RoundTrip(MakeAggregateQuery(query),
                static_cast<uint8_t>(QueryFrameType::kAggregateResult));
  if (!response.ok()) return response.status();
  Result<AggregateResultPayload> result = ParseAggregateResult(*response);
  if (!result.ok()) return result.status();
  if (result->request_id != query.request_id) {
    return InternalError("response request_id " +
                         std::to_string(result->request_id) +
                         " does not match " +
                         std::to_string(query.request_id));
  }
  return result;
}

}  // namespace smeter::net
