// The query protocol spoken by `smeter queryd`: read-side frames riding
// the same length-prefixed CRC32C framing as the ingest protocol
// (EncodeFrame/DecodeFrame are type-agnostic, so both protocols share one
// frame layer). Query frame types live at 32+ so the two type spaces can
// never collide; an ingest session that receives one refuses it with a
// typed kUnsupported ack, and vice versa — neither daemon can be desynced
// by a client speaking the other protocol.
//
// Conversation (client = reader, server = queryd):
//   QUERY_HELLO(version, auth)             -> QUERY_ACK(status)
//   POINT_QUERY(id, meter)                 -> POINT_RESULT(id, ...)
//   RANGE_QUERY(id, meter, window, level)  -> RANGE_RESULT(id, ...)
//   AGG_QUERY(id, window, level)           -> AGG_RESULT(id, ...)
//   (repeat any mix; THROTTLE may replace any reply under overload)
//
// Every request carries a client-chosen request_id echoed verbatim in the
// reply, so a pipelining client can match results without counting frames.
// Per-query failures (unknown meter, bad level) come back as a result
// frame with a non-kOk WireStatus — the connection survives. Only protocol
// violations (undecodable payload, query before hello) fail the session.
//
// The codecs below are strict inverses, closed under fuzzing
// (tests/fuzz/fuzz_query.cc), and bounds-checked with the same limits as
// the ingest codecs (kMaxWireString, kMaxWireTimestamp, kMaxFramePayload).
//
// This layer is pure: no sockets, no I/O, no global state.

#ifndef SMETER_NET_QUERY_WIRE_H_
#define SMETER_NET_QUERY_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/wire.h"

namespace smeter::net {

// Query protocol revision carried by QUERY_HELLO.
inline constexpr uint16_t kQueryProtocolVersion = 1;

// Hard cap on the symbols one RANGE_RESULT may carry: 1M symbols is 2 MB
// of payload, inside kMaxFramePayload with header room to spare. Servers
// clamp, parsers enforce.
inline constexpr uint32_t kMaxWireRangeSymbols = 1u << 20;

enum class QueryFrameType : uint8_t {
  kQueryHello = 32,
  kQueryAck = 33,  // hello ack and per-connection error ack
  kPointQuery = 34,
  kPointResult = 35,
  kRangeQuery = 36,
  kRangeResult = 37,
  kAggregateQuery = 38,
  kAggregateResult = 39,
};

// True iff `type` is one of the query frame types above.
bool IsQueryFrameType(uint8_t type);

struct QueryHelloPayload {
  uint16_t protocol_version = kQueryProtocolVersion;
  std::string auth_token;  // may be empty (server decides)
};

struct QueryAckPayload {
  WireStatus status = WireStatus::kOk;
  std::string message;  // empty on kOk
};

struct PointQueryPayload {
  uint64_t request_id = 0;
  std::string meter_id;  // must satisfy IsValidMeterId
};

struct PointResultPayload {
  uint64_t request_id = 0;
  WireStatus status = WireStatus::kOk;
  std::string message;  // empty on kOk
  // Valid only when status == kOk:
  int64_t timestamp = 0;
  uint8_t level = 1;
  uint16_t symbol = 0;  // alphabet index, or kWireGapSymbol
};

struct RangeQueryPayload {
  uint64_t request_id = 0;
  std::string meter_id;
  int64_t start = 0;  // window [start, end), |t| <= kMaxWireTimestamp
  int64_t end = 0;
  uint8_t level = 0;  // 0 = the meter's native level
  uint32_t max_symbols = kMaxWireRangeSymbols;  // in (0, cap]
};

struct RangeResultPayload {
  uint64_t request_id = 0;
  WireStatus status = WireStatus::kOk;
  std::string message;
  // Valid only when status == kOk:
  int64_t start_timestamp = 0;
  int64_t step_seconds = 0;
  uint8_t level = 1;
  uint8_t truncated = 0;  // 1 when the server hit max_symbols
  std::vector<uint16_t> symbols;  // indices at `level`, or kWireGapSymbol
};

struct AggregateQueryPayload {
  uint64_t request_id = 0;
  int64_t start = 0;  // window [start, end)
  int64_t end = 0;
  uint8_t level = 1;  // requested alphabet level, [1, kMaxSymbolLevel]
};

struct AggregateResultPayload {
  uint64_t request_id = 0;
  WireStatus status = WireStatus::kOk;
  std::string message;
  // Valid only when status == kOk:
  uint8_t level = 1;
  uint64_t meters = 0;
  uint64_t meters_coarser = 0;
  uint64_t windows = 0;
  uint64_t gaps = 0;
  uint32_t rollup_partitions = 0;   // served from pack directories alone
  uint32_t scanned_partitions = 0;  // edge partitions whose blobs were read
  std::vector<uint64_t> histogram;  // size 2^level when ok, else empty
};

Frame MakeQueryHello(const QueryHelloPayload& payload);
Frame MakeQueryAck(const QueryAckPayload& payload);
Frame MakePointQuery(const PointQueryPayload& payload);
Frame MakePointResult(const PointResultPayload& payload);
Frame MakeRangeQuery(const RangeQueryPayload& payload);
Frame MakeRangeResult(const RangeResultPayload& payload);
Frame MakeAggregateQuery(const AggregateQueryPayload& payload);
Frame MakeAggregateResult(const AggregateResultPayload& payload);

Result<QueryHelloPayload> ParseQueryHello(const Frame& frame);
Result<QueryAckPayload> ParseQueryAck(const Frame& frame);
Result<PointQueryPayload> ParsePointQuery(const Frame& frame);
Result<PointResultPayload> ParsePointResult(const Frame& frame);
Result<RangeQueryPayload> ParseRangeQuery(const Frame& frame);
Result<RangeResultPayload> ParseRangeResult(const Frame& frame);
Result<AggregateQueryPayload> ParseAggregateQuery(const Frame& frame);
Result<AggregateResultPayload> ParseAggregateResult(const Frame& frame);

}  // namespace smeter::net

#endif  // SMETER_NET_QUERY_WIRE_H_
