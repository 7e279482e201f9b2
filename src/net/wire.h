// Length-prefixed binary wire protocol between meters and the ingestion
// daemon (the paper's deployment model, Section 2 / Figure 2: "the lookup
// table is built once at the sensor level and then sent to the aggregation
// server before starting to send the symbolic data").
//
// Frame layout (little-endian):
//   payload_len  u32   bytes of payload after the 9-byte frame header
//   type         u8    FrameType
//   crc          u32   crc32c over the type byte followed by the payload
//   payload      payload_len bytes
//
// Every frame carries its own CRC32C, so a torn TCP stream, a damaged
// middlebox, or a hostile peer is detected at the frame boundary — the
// receiver either gets the exact bytes the sender framed or a kDataLoss
// error, never a silently wrong symbol. payload_len is bounded by
// kMaxFramePayload before any allocation, so a corrupt length can not ask
// the server for gigabytes.
//
// Conversation (client = meter, server = ingestd):
//   HELLO(meter id, auth token)        -> HELLO_ACK(status)
//   TABLE_ANNOUNCE(version, table)     -> TABLE_ACK(status)
//   SYMBOL_BATCH(seq, t0, step, syms)  -> BATCH_ACK(seq, status)   (repeat)
//   PING(nonce)                        -> PONG(nonce)        (any time after
//                                                             HELLO)
//   GOODBYE(quality counts)            -> GOODBYE_ACK(status), then close
//
// Every server reply carries an explicit WireStatus; a non-kOk status on
// any ack fails the session (the server also closes it). The payload
// codecs below are strict — trailing bytes, truncated fields, and
// out-of-range enums are errors — so Encode/Parse are exact inverses and
// the pair is closed under fuzzing (see tests/fuzz/fuzz_wire.cc).
//
// This layer is pure: no sockets, no I/O, no global state.

#ifndef SMETER_NET_WIRE_H_
#define SMETER_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace smeter::net {

// Protocol revision spoken by this tree; HELLO carries the client's.
// v2 adds the THROTTLE push-back frame. The server still accepts v1
// clients; a v1 peer that receives a THROTTLE treats it as an unknown
// frame and drops the connection, which degrades to the same observable
// outcome (refused, retry later) without the retry_after_ms hint.
inline constexpr uint16_t kProtocolVersion = 2;

// Hard ceiling on one frame's payload. A serialized lookup table is a few
// KB and a symbol batch a few KB, so 4 MiB is generous headroom while
// keeping a corrupt or hostile length harmless.
inline constexpr uint32_t kMaxFramePayload = 1u << 22;

// Bytes before the payload: u32 len + u8 type + u32 crc.
inline constexpr size_t kFrameHeaderBytes = 9;

// On-wire symbol value standing for the GAP (missing window) symbol.
// Value symbols are their alphabet index (< 2^12, see kMaxSymbolLevel).
inline constexpr uint16_t kWireGapSymbol = 0xffff;

enum class FrameType : uint8_t {
  kHello = 1,
  kHelloAck = 2,
  kTableAnnounce = 3,
  kTableAck = 4,
  kSymbolBatch = 5,
  kBatchAck = 6,
  kPing = 7,
  kPong = 8,
  kGoodbye = 9,
  kGoodbyeAck = 10,
  // Server push-back (v2): "not now — retry in retry_after_ms". Sent in
  // place of the ack the client was waiting for (or as the only frame on
  // a shed connection, immediately before close). Carries the overload
  // scope so clients and operators can tell a flood from a full disk.
  kThrottle = 11,
};

// True for the types above. Forward compatibility: an unknown type byte is
// NOT a decode error — DecodeFrame hands a CRC-valid frame of any type to
// the caller, and the session refuses it with a typed kUnsupported ack
// while keeping the connection usable. A v2 server therefore survives a
// v3 client probing a future frame type instead of desyncing on it; the
// CRC (computed over type byte + payload) still guarantees the unknown
// frame was framed intact, so skipping it cannot lose stream sync.
bool IsKnownFrameType(uint8_t type);

// Status code carried by every server reply.
enum class WireStatus : uint8_t {
  kOk = 0,
  kBadFrame = 1,      // unparseable payload
  kBadState = 2,      // frame legal but not in this session state
  kUnauthorized = 3,  // HELLO rejected (token/version)
  kBadTable = 4,      // TABLE_ANNOUNCE failed CRC or parse
  kOutOfOrder = 5,    // batch timestamps rewind or misalign
  kBadBatch = 6,      // batch internally inconsistent (level, symbols)
  kDraining = 7,      // server is shutting down; retry elsewhere/later
  kServerError = 8,   // persistence or internal failure
  // The request's frame type is from a future protocol revision this peer
  // does not speak. The refusal is per-frame: the connection and session
  // state survive, so an old server and a new client can negotiate down
  // instead of desyncing (see IsKnownFrameType).
  kUnsupported = 9,
  // Query protocol (query_wire.h): the meter or window has no data. Never
  // sent by the ingest daemon; per-query, the connection survives.
  kNotFound = 10,
};

std::string WireStatusName(WireStatus status);

// One decoded frame: the type byte plus the raw payload (already
// CRC-verified by DecodeFrame).
struct Frame {
  FrameType type = FrameType::kHello;
  std::string payload;

  friend bool operator==(const Frame& a, const Frame& b) {
    return a.type == b.type && a.payload == b.payload;
  }
};

// Serializes one frame (header + CRC + payload).
std::string EncodeFrame(const Frame& frame);

// Outcome of one DecodeFrame call over a byte buffer.
struct DecodeResult {
  enum class Outcome {
    kFrame,     // `frame` holds the next frame; `consumed` bytes are done
    kNeedMore,  // buffer holds a valid prefix; read more bytes
    kError,     // stream is unrecoverable at this point (see `error`)
  };
  Outcome outcome = Outcome::kNeedMore;
  Frame frame;
  size_t consumed = 0;
  Status error;
};

// Decodes the first frame of `buffer`. kError covers an oversized or
// zero-confidence length field (kInvalidArgument) and a CRC mismatch
// (kDataLoss); a short buffer is kNeedMore, never an error, so a streaming
// reader can accumulate bytes. An unknown (future) frame type that passes
// its CRC decodes as kFrame — refusing it is session policy, not framing
// policy (see IsKnownFrameType).
DecodeResult DecodeFrame(std::string_view buffer);

// Zero-copy decoded frame: `payload` points INTO the caller's receive
// buffer (already CRC-verified), valid only until that buffer mutates.
// The server's hot path decodes views straight out of the BufferedFd ring
// so a SYMBOL_BATCH never pays a per-frame payload copy.
struct FrameView {
  FrameType type = FrameType::kHello;
  std::string_view payload;
};

struct DecodeViewResult {
  DecodeResult::Outcome outcome = DecodeResult::Outcome::kNeedMore;
  FrameView frame;
  size_t consumed = 0;
  Status error;
};

// Identical validation and outcomes to DecodeFrame (which is a thin
// copying wrapper over this), minus the payload copy.
DecodeViewResult DecodeFrameView(std::string_view buffer);

// --- typed payloads ---------------------------------------------------------
//
// Every payload struct has a Make* builder (returns a ready-to-encode
// Frame) and a strict Parse* that errors (kInvalidArgument) on truncation,
// trailing bytes, or field values outside the domain. Strings are u16
// length-prefixed and capped at kMaxWireString; the builders clamp longer
// strings to that cap so every frame a Make* produces parses.

inline constexpr size_t kMaxWireString = 1024;

// Timestamp/step bounds enforced by ParseSymbolBatch. ±2^53 seconds is
// ~285 million years around the epoch, and one step is capped at 2^31
// seconds (~68 years), so all server-side cadence arithmetic
// (start + step * windows, with windows bounded by kMaxFramePayload and
// the per-session symbol cap) stays far inside int64 — a hostile batch
// can not drive the session into signed-overflow UB.
inline constexpr int64_t kMaxWireTimestamp = int64_t{1} << 53;
inline constexpr int64_t kMaxWireStepSeconds = int64_t{1} << 31;

// True iff `meter_id` is safe to use verbatim as an archive file stem and
// a fleet.manifest record: non-empty, at most kMaxWireString bytes, every
// byte in [A-Za-z0-9_.-], and not made of dots only. The charset excludes
// '/', '\', NUL, and newlines, so a hostile HELLO can neither traverse
// out of the archive directory nor forge manifest records.
bool IsValidMeterId(std::string_view meter_id);

struct HelloPayload {
  uint16_t protocol_version = kProtocolVersion;
  std::string meter_id;    // must satisfy IsValidMeterId
  std::string auth_token;  // may be empty (server decides)
};

struct AckPayload {  // HELLO_ACK, TABLE_ACK, GOODBYE_ACK
  WireStatus status = WireStatus::kOk;
  std::string message;  // empty on kOk
};

struct TableAnnouncePayload {
  uint32_t table_version = 1;
  // LookupTable::Serialize() bytes, crc32c footer included; the server
  // validates the footer via Deserialize before accepting.
  std::string table_blob;
};

struct SymbolBatchPayload {
  uint64_t seq = 0;           // 1-based, strictly consecutive per session
  int64_t start_timestamp = 0;
  int64_t step_seconds = 0;   // > 0
  uint8_t level = 1;          // bits per symbol, [1, kMaxSymbolLevel]
  // Symbol alphabet indices (< 2^level), or kWireGapSymbol for GAP.
  std::vector<uint16_t> symbols;  // non-empty
};

// Zero-copy SYMBOL_BATCH header: `symbols` points at `count` little-endian
// u16 values inside the frame payload. Header fields are fully validated
// (level/step/timestamp ranges, count vs payload size) but the symbol
// values are NOT range-checked here — the session's ingest loop does that
// in one vectorizable pass instead of a per-symbol cursor walk
// (ParseSymbolBatch, the copying parser, still checks every symbol).
struct SymbolBatchView {
  uint64_t seq = 0;
  int64_t start_timestamp = 0;
  int64_t step_seconds = 0;
  uint8_t level = 1;
  uint32_t count = 0;
  const unsigned char* symbols = nullptr;

  uint16_t symbol(uint32_t i) const {
    return static_cast<uint16_t>(
        static_cast<uint16_t>(symbols[2 * i]) |
        (static_cast<uint16_t>(symbols[2 * i + 1]) << 8));
  }
};

Result<SymbolBatchView> ParseSymbolBatchView(const FrameView& frame);

struct BatchAckPayload {
  uint64_t seq = 0;
  WireStatus status = WireStatus::kOk;
  std::string message;
};

struct PingPayload {
  uint64_t nonce = 0;
};

// Which overload mechanism produced a THROTTLE. Parsed strictly: any
// value outside [kAdmission, kDisk] is a kInvalidArgument.
enum class ThrottleScope : uint8_t {
  kAdmission = 1,  // connection budget exceeded or fd exhaustion shed
  kRate = 2,       // per-meter token bucket empty
  kMemory = 3,     // global ingest-memory budget exceeded
  kDisk = 4,       // archive sink circuit open (ENOSPC/EDQUOT)
};

std::string ThrottleScopeName(ThrottleScope scope);

struct ThrottlePayload {
  uint32_t retry_after_ms = 0;  // 0 = "soon"; client adds its own jitter
  ThrottleScope scope = ThrottleScope::kAdmission;
  std::string message;  // human-readable detail, may be empty
};

struct GoodbyePayload {
  // The client's own EncodeQuality counts; the server cross-checks them
  // against the symbols it received before persisting.
  uint64_t windows_valid = 0;
  uint64_t windows_partial = 0;
  uint64_t windows_gap = 0;
};

Frame MakeHello(const HelloPayload& payload);
Frame MakeAck(FrameType type, const AckPayload& payload);
Frame MakeTableAnnounce(const TableAnnouncePayload& payload);
Frame MakeSymbolBatch(const SymbolBatchPayload& payload);
Frame MakeBatchAck(const BatchAckPayload& payload);
Frame MakePing(uint64_t nonce);
Frame MakePong(uint64_t nonce);
Frame MakeGoodbye(const GoodbyePayload& payload);
Frame MakeThrottle(const ThrottlePayload& payload);

Result<HelloPayload> ParseHello(const Frame& frame);
Result<AckPayload> ParseAck(const Frame& frame);  // any of the three acks
// OK when `frame` is an ack of `type` carrying kOk; otherwise an error
// naming what arrived (the clients' conversation check).
Status ExpectOkAck(const Frame& frame, FrameType type);
Result<TableAnnouncePayload> ParseTableAnnounce(const Frame& frame);
Result<SymbolBatchPayload> ParseSymbolBatch(const Frame& frame);
Result<BatchAckPayload> ParseBatchAck(const Frame& frame);
Result<PingPayload> ParsePing(const Frame& frame);  // kPing or kPong
Result<GoodbyePayload> ParseGoodbye(const Frame& frame);
Result<ThrottlePayload> ParseThrottle(const Frame& frame);

}  // namespace smeter::net

#endif  // SMETER_NET_WIRE_H_
