#include "net/wire.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/io.h"
#include "core/symbol.h"
#include "net/wire_codec.h"

namespace smeter::net {
namespace {

// Byte-level writers and the strict Reader live in wire_codec.h, shared
// with the query-protocol codec (query_wire.cc).
using wire_internal::PutI64;
using wire_internal::PutString;
using wire_internal::PutU16;
using wire_internal::PutU32;
using wire_internal::PutU64;
using wire_internal::PutU8;
using wire_internal::Reader;

Status ExpectType(const Frame& frame, FrameType want, const char* name) {
  if (frame.type != want) {
    return InvalidArgumentError(std::string("frame is not a ") + name);
  }
  return Status::Ok();
}

uint32_t FrameCrc(uint8_t type, std::string_view payload) {
  const char type_byte = static_cast<char>(type);
  uint32_t crc = io::Crc32c(std::string_view(&type_byte, 1));
  return io::Crc32c(payload, crc);
}

}  // namespace

bool IsValidMeterId(std::string_view meter_id) {
  if (meter_id.empty() || meter_id.size() > kMaxWireString) return false;
  bool all_dots = true;
  for (char c : meter_id) {
    const bool allowed = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                         (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                         c == '-';
    if (!allowed) return false;
    if (c != '.') all_dots = false;
  }
  // "." and ".." (and longer dot runs) are path components, not names.
  return !all_dots;
}

bool IsKnownFrameType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kHello) &&
         type <= static_cast<uint8_t>(FrameType::kThrottle);
}

std::string WireStatusName(WireStatus status) {
  switch (status) {
    case WireStatus::kOk: return "ok";
    case WireStatus::kBadFrame: return "bad_frame";
    case WireStatus::kBadState: return "bad_state";
    case WireStatus::kUnauthorized: return "unauthorized";
    case WireStatus::kBadTable: return "bad_table";
    case WireStatus::kOutOfOrder: return "out_of_order";
    case WireStatus::kBadBatch: return "bad_batch";
    case WireStatus::kDraining: return "draining";
    case WireStatus::kServerError: return "server_error";
    case WireStatus::kUnsupported: return "unsupported";
    case WireStatus::kNotFound: return "not_found";
  }
  return "unknown";
}

std::string EncodeFrame(const Frame& frame) {
  std::string out;
  out.reserve(kFrameHeaderBytes + frame.payload.size());
  PutU32(out, static_cast<uint32_t>(frame.payload.size()));
  PutU8(out, static_cast<uint8_t>(frame.type));
  PutU32(out, FrameCrc(static_cast<uint8_t>(frame.type), frame.payload));
  out += frame.payload;
  return out;
}

DecodeViewResult DecodeFrameView(std::string_view buffer) {
  DecodeViewResult result;
  if (buffer.size() < kFrameHeaderBytes) {
    result.outcome = DecodeResult::Outcome::kNeedMore;
    return result;
  }
  uint32_t payload_len = 0;
  for (int i = 0; i < 4; ++i) {
    payload_len |= static_cast<uint32_t>(static_cast<uint8_t>(buffer[i]))
                   << (8 * i);
  }
  if (payload_len > kMaxFramePayload) {
    result.outcome = DecodeResult::Outcome::kError;
    result.error = InvalidArgumentError(
        "frame payload length " + std::to_string(payload_len) +
        " exceeds the " + std::to_string(kMaxFramePayload) + " byte cap");
    return result;
  }
  // No frame-type gate here: a CRC-valid frame of an unknown (future) type
  // decodes fine and the session layer refuses it with kUnsupported, so
  // the stream stays in sync across protocol revisions.
  const uint8_t type = static_cast<uint8_t>(buffer[4]);
  if (buffer.size() < kFrameHeaderBytes + payload_len) {
    result.outcome = DecodeResult::Outcome::kNeedMore;
    return result;
  }
  uint32_t wire_crc = 0;
  for (int i = 0; i < 4; ++i) {
    wire_crc |= static_cast<uint32_t>(static_cast<uint8_t>(buffer[5 + i]))
                << (8 * i);
  }
  std::string_view payload = buffer.substr(kFrameHeaderBytes, payload_len);
  if (FrameCrc(type, payload) != wire_crc) {
    result.outcome = DecodeResult::Outcome::kError;
    result.error = DataLossError("frame CRC mismatch (type " +
                                 std::to_string(type) + ", " +
                                 std::to_string(payload_len) +
                                 " payload bytes)");
    return result;
  }
  result.outcome = DecodeResult::Outcome::kFrame;
  result.frame.type = static_cast<FrameType>(type);
  result.frame.payload = payload;
  result.consumed = kFrameHeaderBytes + payload_len;
  return result;
}

DecodeResult DecodeFrame(std::string_view buffer) {
  DecodeViewResult view = DecodeFrameView(buffer);
  DecodeResult result;
  result.outcome = view.outcome;
  result.consumed = view.consumed;
  result.error = std::move(view.error);
  if (view.outcome == DecodeResult::Outcome::kFrame) {
    result.frame.type = view.frame.type;
    result.frame.payload = std::string(view.frame.payload);
  }
  return result;
}

// --- typed payloads ---------------------------------------------------------

Frame MakeHello(const HelloPayload& payload) {
  Frame frame;
  frame.type = FrameType::kHello;
  PutU16(frame.payload, payload.protocol_version);
  PutString(frame.payload, payload.meter_id);
  PutString(frame.payload, payload.auth_token);
  return frame;
}

Result<HelloPayload> ParseHello(const Frame& frame) {
  SMETER_RETURN_IF_ERROR(ExpectType(frame, FrameType::kHello, "HELLO"));
  Reader reader(frame.payload);
  HelloPayload hello;
  Result<uint16_t> version = reader.TakeU16();
  if (!version.ok()) return version.status();
  hello.protocol_version = *version;
  Result<std::string> meter = reader.TakeString(kMaxWireString);
  if (!meter.ok()) return meter.status();
  hello.meter_id = std::move(*meter);
  Result<std::string> token = reader.TakeString(kMaxWireString);
  if (!token.ok()) return token.status();
  hello.auth_token = std::move(*token);
  SMETER_RETURN_IF_ERROR(reader.ExpectExhausted());
  // The meter id becomes an archive file stem and a manifest record, so
  // the strict parser refuses anything outside [A-Za-z0-9_.-] (path
  // separators, "..", control bytes) before the session layer sees it.
  if (!IsValidMeterId(hello.meter_id)) {
    return InvalidArgumentError(
        "HELLO meter id is empty, all dots, or has bytes outside "
        "[A-Za-z0-9_.-]");
  }
  return hello;
}

Frame MakeAck(FrameType type, const AckPayload& payload) {
  Frame frame;
  frame.type = type;
  PutU8(frame.payload, static_cast<uint8_t>(payload.status));
  PutString(frame.payload, payload.message);
  return frame;
}

Result<AckPayload> ParseAck(const Frame& frame) {
  if (frame.type != FrameType::kHelloAck &&
      frame.type != FrameType::kTableAck &&
      frame.type != FrameType::kGoodbyeAck) {
    return InvalidArgumentError("frame is not an ack");
  }
  Reader reader(frame.payload);
  AckPayload ack;
  Result<uint8_t> status = reader.TakeU8();
  if (!status.ok()) return status.status();
  if (*status > static_cast<uint8_t>(WireStatus::kNotFound)) {
    return InvalidArgumentError("unknown wire status " +
                                std::to_string(*status));
  }
  ack.status = static_cast<WireStatus>(*status);
  Result<std::string> message = reader.TakeString(kMaxWireString);
  if (!message.ok()) return message.status();
  ack.message = std::move(*message);
  SMETER_RETURN_IF_ERROR(reader.ExpectExhausted());
  return ack;
}

Status ExpectOkAck(const Frame& frame, FrameType type) {
  if (frame.type != type) {
    return InternalError("expected ack type " +
                         std::to_string(static_cast<int>(type)) + ", got " +
                         std::to_string(static_cast<int>(frame.type)));
  }
  Result<AckPayload> ack = ParseAck(frame);
  if (!ack.ok()) return ack.status();
  if (ack->status != WireStatus::kOk) {
    return InternalError(std::string("server refused: [") +
                         WireStatusName(ack->status) + "] " + ack->message);
  }
  return Status::Ok();
}

Frame MakeTableAnnounce(const TableAnnouncePayload& payload) {
  Frame frame;
  frame.type = FrameType::kTableAnnounce;
  PutU32(frame.payload, payload.table_version);
  PutU32(frame.payload, static_cast<uint32_t>(payload.table_blob.size()));
  frame.payload += payload.table_blob;
  return frame;
}

Result<TableAnnouncePayload> ParseTableAnnounce(const Frame& frame) {
  SMETER_RETURN_IF_ERROR(
      ExpectType(frame, FrameType::kTableAnnounce, "TABLE_ANNOUNCE"));
  Reader reader(frame.payload);
  TableAnnouncePayload announce;
  Result<uint32_t> version = reader.TakeU32();
  if (!version.ok()) return version.status();
  announce.table_version = *version;
  Result<uint32_t> blob_len = reader.TakeU32();
  if (!blob_len.ok()) return blob_len.status();
  if (*blob_len != reader.remaining()) {
    return InvalidArgumentError("table blob length disagrees with payload");
  }
  announce.table_blob =
      std::string(frame.payload.substr(frame.payload.size() - *blob_len));
  return announce;
}

Frame MakeSymbolBatch(const SymbolBatchPayload& payload) {
  Frame frame;
  frame.type = FrameType::kSymbolBatch;
  PutU64(frame.payload, payload.seq);
  PutI64(frame.payload, payload.start_timestamp);
  PutI64(frame.payload, payload.step_seconds);
  PutU8(frame.payload, payload.level);
  PutU32(frame.payload, static_cast<uint32_t>(payload.symbols.size()));
  for (uint16_t symbol : payload.symbols) PutU16(frame.payload, symbol);
  return frame;
}

Result<SymbolBatchView> ParseSymbolBatchView(const FrameView& frame) {
  if (frame.type != FrameType::kSymbolBatch) {
    return InvalidArgumentError("frame is not a SYMBOL_BATCH");
  }
  Reader reader(frame.payload);
  SymbolBatchView batch;
  Result<uint64_t> seq = reader.TakeU64();
  if (!seq.ok()) return seq.status();
  batch.seq = *seq;
  Result<int64_t> start = reader.TakeI64();
  if (!start.ok()) return start.status();
  batch.start_timestamp = *start;
  Result<int64_t> step = reader.TakeI64();
  if (!step.ok()) return step.status();
  batch.step_seconds = *step;
  Result<uint8_t> level = reader.TakeU8();
  if (!level.ok()) return level.status();
  batch.level = *level;
  if (batch.level < 1 || batch.level > kMaxSymbolLevel) {
    return InvalidArgumentError("batch level " + std::to_string(batch.level) +
                                " outside [1, " +
                                std::to_string(kMaxSymbolLevel) + "]");
  }
  if (batch.step_seconds <= 0 || batch.step_seconds > kMaxWireStepSeconds) {
    return InvalidArgumentError(
        "batch step " + std::to_string(batch.step_seconds) +
        " outside (0, " + std::to_string(kMaxWireStepSeconds) + "]");
  }
  if (batch.start_timestamp < -kMaxWireTimestamp ||
      batch.start_timestamp > kMaxWireTimestamp) {
    return InvalidArgumentError(
        "batch start timestamp " + std::to_string(batch.start_timestamp) +
        " outside ±" + std::to_string(kMaxWireTimestamp));
  }
  Result<uint32_t> count = reader.TakeU32();
  if (!count.ok()) return count.status();
  if (*count == 0) return InvalidArgumentError("empty symbol batch");
  if (reader.remaining() != static_cast<size_t>(*count) * 2) {
    return InvalidArgumentError("symbol count disagrees with payload size");
  }
  batch.count = *count;
  // The remaining payload IS the symbol array; hand out a pointer instead
  // of cursoring through it so the caller can scan it in bulk.
  batch.symbols = reinterpret_cast<const unsigned char*>(
      frame.payload.data() + (frame.payload.size() - reader.remaining()));
  return batch;
}

Result<SymbolBatchPayload> ParseSymbolBatch(const Frame& frame) {
  Result<SymbolBatchView> view =
      ParseSymbolBatchView({frame.type, frame.payload});
  if (!view.ok()) return view.status();
  SymbolBatchPayload batch;
  batch.seq = view->seq;
  batch.start_timestamp = view->start_timestamp;
  batch.step_seconds = view->step_seconds;
  batch.level = view->level;
  const uint32_t alphabet = 1u << batch.level;
  batch.symbols.reserve(view->count);
  for (uint32_t i = 0; i < view->count; ++i) {
    const uint16_t symbol = view->symbol(i);
    if (symbol != kWireGapSymbol && symbol >= alphabet) {
      return InvalidArgumentError("symbol " + std::to_string(symbol) +
                                  " outside the level-" +
                                  std::to_string(batch.level) + " alphabet");
    }
    batch.symbols.push_back(symbol);
  }
  return batch;
}

Frame MakeBatchAck(const BatchAckPayload& payload) {
  Frame frame;
  frame.type = FrameType::kBatchAck;
  PutU64(frame.payload, payload.seq);
  PutU8(frame.payload, static_cast<uint8_t>(payload.status));
  PutString(frame.payload, payload.message);
  return frame;
}

Result<BatchAckPayload> ParseBatchAck(const Frame& frame) {
  SMETER_RETURN_IF_ERROR(
      ExpectType(frame, FrameType::kBatchAck, "BATCH_ACK"));
  Reader reader(frame.payload);
  BatchAckPayload ack;
  Result<uint64_t> seq = reader.TakeU64();
  if (!seq.ok()) return seq.status();
  ack.seq = *seq;
  Result<uint8_t> status = reader.TakeU8();
  if (!status.ok()) return status.status();
  if (*status > static_cast<uint8_t>(WireStatus::kNotFound)) {
    return InvalidArgumentError("unknown wire status " +
                                std::to_string(*status));
  }
  ack.status = static_cast<WireStatus>(*status);
  Result<std::string> message = reader.TakeString(kMaxWireString);
  if (!message.ok()) return message.status();
  ack.message = std::move(*message);
  SMETER_RETURN_IF_ERROR(reader.ExpectExhausted());
  return ack;
}

Frame MakePing(uint64_t nonce) {
  Frame frame;
  frame.type = FrameType::kPing;
  PutU64(frame.payload, nonce);
  return frame;
}

Frame MakePong(uint64_t nonce) {
  Frame frame;
  frame.type = FrameType::kPong;
  PutU64(frame.payload, nonce);
  return frame;
}

Result<PingPayload> ParsePing(const Frame& frame) {
  if (frame.type != FrameType::kPing && frame.type != FrameType::kPong) {
    return InvalidArgumentError("frame is not a PING/PONG");
  }
  Reader reader(frame.payload);
  PingPayload ping;
  Result<uint64_t> nonce = reader.TakeU64();
  if (!nonce.ok()) return nonce.status();
  ping.nonce = *nonce;
  SMETER_RETURN_IF_ERROR(reader.ExpectExhausted());
  return ping;
}

Frame MakeGoodbye(const GoodbyePayload& payload) {
  Frame frame;
  frame.type = FrameType::kGoodbye;
  PutU64(frame.payload, payload.windows_valid);
  PutU64(frame.payload, payload.windows_partial);
  PutU64(frame.payload, payload.windows_gap);
  return frame;
}

std::string ThrottleScopeName(ThrottleScope scope) {
  switch (scope) {
    case ThrottleScope::kAdmission: return "admission";
    case ThrottleScope::kRate: return "rate";
    case ThrottleScope::kMemory: return "memory";
    case ThrottleScope::kDisk: return "disk";
  }
  return "unknown";
}

Frame MakeThrottle(const ThrottlePayload& payload) {
  Frame frame;
  frame.type = FrameType::kThrottle;
  PutU32(frame.payload, payload.retry_after_ms);
  PutU8(frame.payload, static_cast<uint8_t>(payload.scope));
  PutString(frame.payload, payload.message);
  return frame;
}

Result<ThrottlePayload> ParseThrottle(const Frame& frame) {
  SMETER_RETURN_IF_ERROR(
      ExpectType(frame, FrameType::kThrottle, "THROTTLE"));
  Reader reader(frame.payload);
  ThrottlePayload throttle;
  Result<uint32_t> retry = reader.TakeU32();
  if (!retry.ok()) return retry.status();
  throttle.retry_after_ms = *retry;
  Result<uint8_t> scope = reader.TakeU8();
  if (!scope.ok()) return scope.status();
  if (*scope < static_cast<uint8_t>(ThrottleScope::kAdmission) ||
      *scope > static_cast<uint8_t>(ThrottleScope::kDisk)) {
    return InvalidArgumentError("unknown throttle scope " +
                                std::to_string(*scope));
  }
  throttle.scope = static_cast<ThrottleScope>(*scope);
  Result<std::string> message = reader.TakeString(kMaxWireString);
  if (!message.ok()) return message.status();
  throttle.message = std::move(*message);
  SMETER_RETURN_IF_ERROR(reader.ExpectExhausted());
  return throttle;
}

Result<GoodbyePayload> ParseGoodbye(const Frame& frame) {
  SMETER_RETURN_IF_ERROR(ExpectType(frame, FrameType::kGoodbye, "GOODBYE"));
  Reader reader(frame.payload);
  GoodbyePayload goodbye;
  Result<uint64_t> valid = reader.TakeU64();
  if (!valid.ok()) return valid.status();
  goodbye.windows_valid = *valid;
  Result<uint64_t> partial = reader.TakeU64();
  if (!partial.ok()) return partial.status();
  goodbye.windows_partial = *partial;
  Result<uint64_t> gap = reader.TakeU64();
  if (!gap.ok()) return gap.status();
  goodbye.windows_gap = *gap;
  SMETER_RETURN_IF_ERROR(reader.ExpectExhausted());
  return goodbye;
}

}  // namespace smeter::net
