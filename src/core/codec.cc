#include "core/codec.h"

#include <algorithm>
#include <cstring>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/io.h"

namespace smeter {
namespace {

constexpr char kMagic[4] = {'S', 'M', 'S', 'Y'};
constexpr uint8_t kVersionGapless = 1;
constexpr uint8_t kVersionWithGaps = 2;
constexpr uint8_t kVersionFramed = 3;
constexpr size_t kHeaderBytes = 4 + 1 + 1 + 4 + 8 + 8;
// v3: the 26-byte header above plus its CRC32C.
constexpr size_t kFramedHeaderBytes = kHeaderBytes + 4;
// v3 block header: sync marker, first_slot, slot_count, payload_len, crc.
constexpr char kSyncMarker[4] = {'\xF5', 'S', 'M', 'B'};
constexpr size_t kBlockHeaderBytes = 4 + 4 + 4 + 4 + 4;
// High bit of the stored slot_count: set iff the payload opens with a gap
// bitmap. Gapless blocks omit the bitmap entirely, so a year of clean
// 15-minute data pays only the 20-byte header per block, not an extra
// bit per slot. kMaxBlockSlots is far below 2^31, so the flag can never
// collide with a real count.
constexpr uint32_t kBlockHasBitmap = 0x80000000u;

// Slot states while reassembling a v3 series. Non-negative values are
// symbol indices.
constexpr int32_t kUnfilledSlot = -1;  // block damaged or missing -> GAP
constexpr int32_t kGapSlot = -2;       // explicit GAP from the gap bitmap

void AppendLittleEndian(std::string& out, uint64_t value, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

uint64_t ReadLittleEndian(std::string_view blob, size_t offset, int bytes) {
  uint64_t value = 0;
  for (int i = 0; i < bytes; ++i) {
    value |= static_cast<uint64_t>(
                 static_cast<unsigned char>(blob[offset + static_cast<size_t>(i)]))
             << (8 * i);
  }
  return value;
}

// Checks the pack preconditions shared by every wire version and reports
// the (constant) timestamp step, 0 for a single-sample series.
Status ValidateFixedCadence(const SymbolicSeries& series, int64_t* step_out) {
  if (series.empty()) {
    return FailedPreconditionError("cannot pack an empty series");
  }
  if (series.size() > UINT32_MAX) {
    return InvalidArgumentError("series too long for the wire format");
  }
  int64_t step = 0;
  if (series.size() > 1) {
    if (__builtin_sub_overflow(series[1].timestamp, series[0].timestamp,
                               &step)) {
      return InvalidArgumentError("timestamp span overflows int64");
    }
    if (step <= 0) {
      return InvalidArgumentError("non-increasing timestamps");
    }
    for (size_t i = 2; i < series.size(); ++i) {
      int64_t delta = 0;
      if (__builtin_sub_overflow(series[i].timestamp, series[i - 1].timestamp,
                                 &delta) ||
          delta != step) {
        return InvalidArgumentError(
            "irregular cadence at index " + std::to_string(i) +
            "; pack gapless segments separately");
      }
    }
  }
  *step_out = step;
  return Status::Ok();
}

// Optional gap bitmap + bit-packed value symbols for series slots
// [first, first + slot_count). The bitmap is emitted only when the block
// actually contains a GAP (`has_gaps`, signalled to the reader via the
// kBlockHasBitmap bit of the stored slot_count); a gapless block is pure
// value payload. The bit accumulator starts fresh so the block decodes
// with no outside state.
std::string PackBlockPayload(const SymbolicSeries& series, size_t first,
                             size_t slot_count, bool has_gaps) {
  std::string out;
  const int level = series.level();
  if (has_gaps) {
    uint8_t bitmap_byte = 0;
    int bits_in_byte = 0;
    for (size_t i = first; i < first + slot_count; ++i) {
      bitmap_byte = static_cast<uint8_t>(
          (bitmap_byte << 1) | (series[i].symbol.is_gap() ? 1u : 0u));
      if (++bits_in_byte == 8) {
        out.push_back(static_cast<char>(bitmap_byte));
        bitmap_byte = 0;
        bits_in_byte = 0;
      }
    }
    if (bits_in_byte > 0) {
      out.push_back(static_cast<char>(bitmap_byte << (8 - bits_in_byte)));
    }
  }
  uint32_t accumulator = 0;
  int bits_held = 0;
  for (size_t i = first; i < first + slot_count; ++i) {
    if (series[i].symbol.is_gap()) continue;
    accumulator = (accumulator << level) | series[i].symbol.index();
    bits_held += level;
    while (bits_held >= 8) {
      bits_held -= 8;
      out.push_back(static_cast<char>((accumulator >> bits_held) & 0xff));
    }
  }
  if (bits_held > 0) {
    out.push_back(static_cast<char>((accumulator << (8 - bits_held)) & 0xff));
  }
  return out;
}

struct V3Header {
  int level = 0;
  size_t count = 0;
  Timestamp start = 0;
  int64_t step = 0;
};

// Validates the 30-byte framed header (magic and version already checked by
// the caller). CRC failure is kDataLoss; a field that the CRC vouches for
// but that makes no sense is kInvalidArgument (the encoder never wrote it).
Status ParseV3Header(std::string_view blob, V3Header* header) {
  if (blob.size() < kFramedHeaderBytes) {
    return DataLossError("v3 blob shorter than framed header");
  }
  const uint32_t want_crc =
      static_cast<uint32_t>(ReadLittleEndian(blob, kHeaderBytes, 4));
  const uint32_t have_crc =
      io::Crc32c(std::string_view(blob.data(), kHeaderBytes));
  if (have_crc != want_crc) {
    return DataLossError("v3 header checksum mismatch");
  }
  header->level = static_cast<int>(static_cast<unsigned char>(blob[5]));
  if (header->level < 1 || header->level > kMaxSymbolLevel) {
    return InvalidArgumentError("level out of range");
  }
  header->count = static_cast<size_t>(ReadLittleEndian(blob, 6, 4));
  header->start = static_cast<Timestamp>(ReadLittleEndian(blob, 10, 8));
  header->step = static_cast<int64_t>(ReadLittleEndian(blob, 18, 8));
  if (header->count == 0) return InvalidArgumentError("empty payload");
  if (header->count > 1 && header->step <= 0) {
    return InvalidArgumentError("non-positive step");
  }
  if (header->count > 1) {
    int64_t span = 0;
    int64_t last = 0;
    if (__builtin_mul_overflow(header->step,
                               static_cast<int64_t>(header->count - 1),
                               &span) ||
        __builtin_add_overflow(header->start, span, &last)) {
      return InvalidArgumentError("timestamp range overflows int64");
    }
  }
  return Status::Ok();
}

// Parses the v3 block at `offset`, handing each decoded slot to
// `emit(slot_index, value)` (value is a symbol index or kGapSlot). Every
// check runs before the first emit, so a failing block emits nothing.
// `expected_first` pins the contiguity rule for the strict reader; salvage
// passes SIZE_MAX to accept any in-range placement. Damage (bad sync, bad
// CRC, bytes missing) is kDataLoss; CRC-clean nonsense is kInvalidArgument.
template <typename Emit>
Status ParseV3Block(std::string_view blob, size_t offset,
                    const V3Header& header, size_t expected_first,
                    Emit&& emit, size_t* end_offset, size_t* slots_done) {
  if (blob.size() < offset || blob.size() - offset < kBlockHeaderBytes) {
    return DataLossError("truncated block header");
  }
  if (std::memcmp(blob.data() + offset, kSyncMarker, sizeof(kSyncMarker)) !=
      0) {
    return DataLossError("missing sync marker");
  }
  const auto first_slot =
      static_cast<size_t>(ReadLittleEndian(blob, offset + 4, 4));
  const auto raw_slot_count =
      static_cast<uint32_t>(ReadLittleEndian(blob, offset + 8, 4));
  const bool has_bitmap = (raw_slot_count & kBlockHasBitmap) != 0;
  const auto slot_count =
      static_cast<size_t>(raw_slot_count & ~kBlockHasBitmap);
  const auto payload_len =
      static_cast<size_t>(ReadLittleEndian(blob, offset + 12, 4));
  const auto want_crc =
      static_cast<uint32_t>(ReadLittleEndian(blob, offset + 16, 4));
  if (payload_len > blob.size() - offset - kBlockHeaderBytes) {
    return DataLossError("block payload runs past end of blob");
  }
  uint32_t crc =
      io::Crc32c(std::string_view(blob.data() + offset + 4, 12));
  crc = io::Crc32c(
      std::string_view(blob.data() + offset + kBlockHeaderBytes, payload_len),
      crc);
  if (crc != want_crc) {
    return DataLossError("block checksum mismatch");
  }
  // The CRC holds, so from here every failure means a malformed encoding.
  if (slot_count == 0 || slot_count > kMaxBlockSlots) {
    return InvalidArgumentError("slot count out of range");
  }
  if (first_slot > header.count || slot_count > header.count - first_slot) {
    return InvalidArgumentError("block slots exceed series count");
  }
  if (expected_first != SIZE_MAX && first_slot != expected_first) {
    return InvalidArgumentError(
        "non-contiguous block: first slot " + std::to_string(first_slot) +
        ", expected " + std::to_string(expected_first));
  }
  const size_t bitmap_bytes = has_bitmap ? (slot_count + 7) / 8 : 0;
  if (payload_len < bitmap_bytes) {
    return InvalidArgumentError("payload shorter than gap bitmap");
  }
  const char* payload = blob.data() + offset + kBlockHeaderBytes;
  size_t gaps = 0;
  if (has_bitmap) {
    for (size_t i = 0; i < slot_count; ++i) {
      const auto byte = static_cast<unsigned char>(payload[i / 8]);
      gaps += (byte >> (7 - i % 8)) & 1u;
    }
    if (gaps == 0) {
      // The encoder only sets kBlockHasBitmap when the block has a GAP;
      // an all-zero bitmap is a non-canonical encoding it never wrote.
      return InvalidArgumentError("gap bitmap present but empty");
    }
    if (slot_count % 8 != 0) {
      const auto last = static_cast<unsigned char>(payload[bitmap_bytes - 1]);
      if ((last & ((1u << (8 - slot_count % 8)) - 1u)) != 0) {
        return InvalidArgumentError("nonzero padding in gap bitmap");
      }
    }
  }
  const size_t values = slot_count - gaps;
  const size_t expected_payload =
      bitmap_bytes +
      (values * static_cast<size_t>(header.level) + 7) / 8;
  if (payload_len != expected_payload) {
    return InvalidArgumentError("block payload size mismatch: have " +
                                std::to_string(payload_len) + ", want " +
                                std::to_string(expected_payload));
  }
  uint32_t accumulator = 0;
  int bits_held = 0;
  size_t byte_index = bitmap_bytes;
  const uint32_t mask = (1u << header.level) - 1;
  for (size_t i = 0; i < slot_count; ++i) {
    if (has_bitmap &&
        ((static_cast<unsigned char>(payload[i / 8]) >> (7 - i % 8)) & 1u)) {
      emit(first_slot + i, kGapSlot);
      continue;
    }
    while (bits_held < header.level) {
      accumulator =
          (accumulator << 8) |
          static_cast<unsigned char>(payload[byte_index++]);
      bits_held += 8;
    }
    emit(first_slot + i, static_cast<int32_t>(
                             (accumulator >> (bits_held - header.level)) &
                             mask));
    bits_held -= header.level;
  }
  *end_offset = offset + kBlockHeaderBytes + payload_len;
  *slots_done = slot_count;
  return Status::Ok();
}

// Turns the reassembled slot array into a series; kUnfilledSlot and
// kGapSlot both materialize as GAP symbols.
Result<SymbolicSeries> BuildSeriesFromSlots(const V3Header& header,
                                            const std::vector<int32_t>& slots) {
  SymbolicSeries series(header.level);
  for (size_t i = 0; i < slots.size(); ++i) {
    const Timestamp ts =
        header.start + static_cast<int64_t>(i) * header.step;
    if (slots[i] < 0) {
      SMETER_RETURN_IF_ERROR(series.Append({ts, Symbol::Gap(header.level)}));
      continue;
    }
    Result<Symbol> symbol =
        Symbol::Create(header.level, static_cast<uint32_t>(slots[i]));
    if (!symbol.ok()) return symbol.status();
    SMETER_RETURN_IF_ERROR(series.Append({ts, symbol.value()}));
  }
  return series;
}

// Checks shared by every reader before the version byte selects a grammar.
Status CheckMagic(std::string_view blob) {
  if (blob.size() < kHeaderBytes) {
    return InvalidArgumentError("blob shorter than header");
  }
  if (std::memcmp(blob.data(), kMagic, sizeof(kMagic)) != 0) {
    return InvalidArgumentError("bad magic");
  }
  return Status::Ok();
}

// Strict v3 reader: blocks must tile [0, count) in order and the blob must
// end exactly at the final block. Each slot goes to `emit` as
// ParseV3Block hands it over.
template <typename Emit>
Status ReadFramed(std::string_view blob, const V3Header& header,
                  Emit&& emit) {
  size_t offset = kFramedHeaderBytes;
  size_t cursor = 0;
  size_t block_index = 0;
  while (cursor < header.count) {
    size_t end_offset = 0;
    size_t slots_done = 0;
    Status parsed = ParseV3Block(blob, offset, header, cursor, emit,
                                 &end_offset, &slots_done);
    if (!parsed.ok()) {
      return Status(parsed.code(),
                    "v3 block " + std::to_string(block_index) +
                        " at offset " + std::to_string(offset) + ": " +
                        parsed.message());
    }
    cursor += slots_done;
    offset = end_offset;
    ++block_index;
  }
  if (offset != blob.size()) {
    return InvalidArgumentError("trailing bytes after final v3 block");
  }
  return Status::Ok();
}

Result<SymbolicSeries> UnpackFramed(std::string_view blob) {
  V3Header header;
  SMETER_RETURN_IF_ERROR(ParseV3Header(blob, &header));
  std::vector<int32_t> slots(header.count, kUnfilledSlot);
  SMETER_RETURN_IF_ERROR(ReadFramed(
      blob, header, [&](size_t slot, int32_t value) { slots[slot] = value; }));
  return BuildSeriesFromSlots(header, slots);
}

}  // namespace

int64_t PackedPayloadBits(size_t count, int level) {
  return static_cast<int64_t>(count) * level;
}

size_t PackedSizeBytes(size_t count, int level) {
  size_t payload_bits = count * static_cast<size_t>(level);
  return kHeaderBytes + (payload_bits + 7) / 8;
}

size_t PackedSizeBytesWithGaps(size_t count, size_t gaps, int level) {
  size_t payload_bits = (count - gaps) * static_cast<size_t>(level);
  return kHeaderBytes + (count + 7) / 8 + (payload_bits + 7) / 8;
}

Result<std::string> PackSymbolicSeries(const SymbolicSeries& series) {
  int64_t step = 0;
  SMETER_RETURN_IF_ERROR(ValidateFixedCadence(series, &step));
  const size_t gaps = series.GapCount();

  std::string out;
  out.reserve(gaps == 0
                  ? PackedSizeBytes(series.size(), series.level())
                  : PackedSizeBytesWithGaps(series.size(), gaps,
                                            series.level()));
  out.append(kMagic, sizeof(kMagic));
  out.push_back(static_cast<char>(gaps == 0 ? kVersionGapless
                                            : kVersionWithGaps));
  out.push_back(static_cast<char>(series.level()));
  AppendLittleEndian(out, static_cast<uint32_t>(series.size()), 4);
  AppendLittleEndian(out, static_cast<uint64_t>(series[0].timestamp), 8);
  AppendLittleEndian(out, static_cast<uint64_t>(step), 8);

  if (gaps > 0) {
    // Version 2: presence bitmap (MSB-first, bit set = GAP), then the value
    // symbols only — a gap has no alphabet index to pack.
    uint8_t bitmap_byte = 0;
    int bits_in_byte = 0;
    for (const SymbolicSample& s : series) {
      bitmap_byte = static_cast<uint8_t>(
          (bitmap_byte << 1) | (s.symbol.is_gap() ? 1u : 0u));
      if (++bits_in_byte == 8) {
        out.push_back(static_cast<char>(bitmap_byte));
        bitmap_byte = 0;
        bits_in_byte = 0;
      }
    }
    if (bits_in_byte > 0) {
      out.push_back(
          static_cast<char>(bitmap_byte << (8 - bits_in_byte)));
    }
  }

  // MSB-first bit packing of the value symbols.
  uint32_t accumulator = 0;
  int bits_held = 0;
  const int level = series.level();
  for (const SymbolicSample& s : series) {
    if (s.symbol.is_gap()) continue;
    accumulator = (accumulator << level) | s.symbol.index();
    bits_held += level;
    while (bits_held >= 8) {
      bits_held -= 8;
      out.push_back(static_cast<char>((accumulator >> bits_held) & 0xff));
    }
  }
  if (bits_held > 0) {
    out.push_back(
        static_cast<char>((accumulator << (8 - bits_held)) & 0xff));
  }
  return out;
}

Result<std::string> PackSymbolicSeriesFramed(const SymbolicSeries& series,
                                             size_t max_block_slots) {
  if (max_block_slots == 0 || max_block_slots > kMaxBlockSlots) {
    return InvalidArgumentError("max_block_slots out of range");
  }
  int64_t step = 0;
  SMETER_RETURN_IF_ERROR(ValidateFixedCadence(series, &step));

  std::string out;
  out.append(kMagic, sizeof(kMagic));
  out.push_back(static_cast<char>(kVersionFramed));
  out.push_back(static_cast<char>(series.level()));
  AppendLittleEndian(out, static_cast<uint32_t>(series.size()), 4);
  AppendLittleEndian(out, static_cast<uint64_t>(series[0].timestamp), 8);
  AppendLittleEndian(out, static_cast<uint64_t>(step), 8);
  AppendLittleEndian(out, io::Crc32c(std::string_view(out.data(), out.size())),
                     4);

  for (size_t first = 0; first < series.size(); first += max_block_slots) {
    const size_t slot_count =
        std::min(max_block_slots, series.size() - first);
    bool has_gaps = false;
    for (size_t i = first; i < first + slot_count && !has_gaps; ++i) {
      has_gaps = series[i].symbol.is_gap();
    }
    const std::string payload =
        PackBlockPayload(series, first, slot_count, has_gaps);
    std::string fields;
    AppendLittleEndian(fields, static_cast<uint32_t>(first), 4);
    AppendLittleEndian(
        fields,
        static_cast<uint32_t>(slot_count) | (has_gaps ? kBlockHasBitmap : 0u),
        4);
    AppendLittleEndian(fields, static_cast<uint32_t>(payload.size()), 4);
    uint32_t crc = io::Crc32c(fields);
    crc = io::Crc32c(payload, crc);
    out.append(kSyncMarker, sizeof(kSyncMarker));
    out += fields;
    AppendLittleEndian(out, crc, 4);
    out += payload;
  }
  return out;
}

Result<SymbolicSeries> UnpackSymbolicSeries(const std::string& blob) {
  SMETER_RETURN_IF_ERROR(CheckMagic(blob));
  uint8_t version = static_cast<uint8_t>(blob[4]);
  if (version == kVersionFramed) return UnpackFramed(blob);
  if (version != kVersionGapless && version != kVersionWithGaps) {
    return UnimplementedError("unsupported version " +
                              std::to_string(version));
  }
  int level = static_cast<int>(static_cast<unsigned char>(blob[5]));
  if (level < 1 || level > kMaxSymbolLevel) {
    return InvalidArgumentError("level out of range");
  }
  size_t count = static_cast<size_t>(ReadLittleEndian(blob, 6, 4));
  Timestamp start = static_cast<Timestamp>(ReadLittleEndian(blob, 10, 8));
  int64_t step = static_cast<int64_t>(ReadLittleEndian(blob, 18, 8));
  if (count == 0) return InvalidArgumentError("empty payload");
  if (count > 1 && step <= 0) {
    return InvalidArgumentError("non-positive step");
  }
  // An adversarial (start, step, count) triple can push the last timestamp
  // past int64 — reject the blob instead of overflowing (UB) below.
  if (count > 1) {
    int64_t span = 0;
    int64_t last = 0;
    if (__builtin_mul_overflow(step, static_cast<int64_t>(count - 1), &span) ||
        __builtin_add_overflow(start, span, &last)) {
      return InvalidArgumentError("timestamp range overflows int64");
    }
  }
  // Version 2 carries a presence bitmap between the header and the payload;
  // decode it (and the gap count it implies) before sizing the payload.
  std::vector<bool> is_gap;
  size_t gaps = 0;
  size_t payload_start = kHeaderBytes;
  if (version == kVersionWithGaps) {
    const size_t bitmap_bytes = (count + 7) / 8;
    if (blob.size() < kHeaderBytes + bitmap_bytes) {
      return InvalidArgumentError("blob shorter than gap bitmap");
    }
    is_gap.resize(count);
    for (size_t i = 0; i < count; ++i) {
      const auto byte = static_cast<unsigned char>(
          blob[kHeaderBytes + i / 8]);
      const bool gap = ((byte >> (7 - i % 8)) & 1u) != 0;
      is_gap[i] = gap;
      gaps += gap ? 1 : 0;
    }
    // Trailing pad bits of the final bitmap byte must be zero — anything
    // else is a malformed (or ambiguous) encoding.
    if (count % 8 != 0) {
      const auto last = static_cast<unsigned char>(
          blob[kHeaderBytes + bitmap_bytes - 1]);
      if ((last & ((1u << (8 - count % 8)) - 1u)) != 0) {
        return InvalidArgumentError("nonzero padding in gap bitmap");
      }
    }
    if (gaps == 0) {
      // A gapless series packs as version 1; a version-2 blob claiming no
      // gaps is not something the encoder emits.
      return InvalidArgumentError("version 2 blob with empty gap bitmap");
    }
    payload_start = kHeaderBytes + bitmap_bytes;
  }
  size_t expected = version == kVersionWithGaps
                        ? PackedSizeBytesWithGaps(count, gaps, level)
                        : PackedSizeBytes(count, level);
  if (blob.size() != expected) {
    return InvalidArgumentError("payload size mismatch: have " +
                                std::to_string(blob.size()) + ", want " +
                                std::to_string(expected));
  }

  SymbolicSeries series(level);
  uint32_t accumulator = 0;
  int bits_held = 0;
  size_t byte_index = payload_start;
  const uint32_t mask = (1u << level) - 1;
  for (size_t i = 0; i < count; ++i) {
    const Timestamp ts = start + static_cast<int64_t>(i) * step;
    if (version == kVersionWithGaps && is_gap[i]) {
      SMETER_RETURN_IF_ERROR(series.Append({ts, Symbol::Gap(level)}));
      continue;
    }
    while (bits_held < level) {
      accumulator = (accumulator << 8) |
                    static_cast<unsigned char>(blob[byte_index++]);
      bits_held += 8;
    }
    uint32_t index = (accumulator >> (bits_held - level)) & mask;
    bits_held -= level;
    Result<Symbol> symbol = Symbol::Create(level, index);
    if (!symbol.ok()) return symbol.status();
    SMETER_RETURN_IF_ERROR(series.Append({ts, symbol.value()}));
  }
  return series;
}

Status FoldFramedSeries(std::string_view blob, TimeRange range, int level,
                        SlotCounts* counts) {
  SMETER_CHECK(level >= 0 && level <= kMaxSymbolLevel);
  SMETER_CHECK_EQ(counts->histogram.size(),
                  level == 0 ? size_t{0} : size_t{1} << level);
  SMETER_RETURN_IF_ERROR(CheckMagic(blob));
  if (static_cast<uint8_t>(blob[4]) != kVersionFramed) {
    return DataLossError("not a v3 framed blob (version " +
                         std::to_string(static_cast<uint8_t>(blob[4])) +
                         ")");
  }
  V3Header header;
  SMETER_RETURN_IF_ERROR(ParseV3Header(blob, &header));
  if (level == 0) {
    level = header.level;
    counts->histogram.assign(size_t{1} << level, 0);
  }
  // The level is judged after the blocks, so a damaged blob reports its
  // damage first, exactly as UnpackSymbolicSeries would.
  const bool level_ok = level <= header.level;
  const int shift = level_ok ? header.level - level : 0;
  SMETER_RETURN_IF_ERROR(
      ReadFramed(blob, header, [&](size_t slot, int32_t value) {
        // The header check guarantees start + slot * step cannot overflow.
        if (!level_ok || !range.Contains(header.start +
                                         static_cast<int64_t>(slot) *
                                             header.step)) {
          return;
        }
        ++counts->windows;
        if (value == kGapSlot) {
          ++counts->gaps;
        } else {
          ++counts->histogram[static_cast<uint32_t>(value) >> shift];
        }
      }));
  if (!level_ok) {
    return InvalidArgumentError("fold level " + std::to_string(level) +
                                " is finer than the native level " +
                                std::to_string(header.level));
  }
  return Status::Ok();
}

Result<SymbolicSeries> SalvageSymbolicSeries(const std::string& blob,
                                             SalvageSummary* summary) {
  if (blob.size() < kHeaderBytes ||
      std::memcmp(blob.data(), kMagic, sizeof(kMagic)) != 0) {
    return DataLossError("not a recognizable symbol blob");
  }
  if (static_cast<uint8_t>(blob[4]) != kVersionFramed) {
    return InvalidArgumentError(
        "salvage requires a v3 framed blob; v1/v2 have no block checksums");
  }
  V3Header header;
  SMETER_RETURN_IF_ERROR(ParseV3Header(blob, &header));

  std::vector<int32_t> slots(header.count, kUnfilledSlot);
  size_t recovered_blocks = 0;
  const std::string_view sync(kSyncMarker, sizeof(kSyncMarker));
  size_t pos = kFramedHeaderBytes;
  // Re-lock onto the stream at every sync marker: a block that checks out
  // places itself via its own first_slot field, so damage in one block
  // never shifts the slots recovered from its neighbors.
  while (pos < blob.size()) {
    const size_t found = blob.find(sync.data(), pos, sync.size());
    if (found == std::string::npos) break;
    size_t end_offset = 0;
    size_t slots_done = 0;
    Status parsed = ParseV3Block(
        blob, found, header, SIZE_MAX,
        [&](size_t slot, int32_t value) { slots[slot] = value; }, &end_offset,
        &slots_done);
    if (parsed.ok()) {
      ++recovered_blocks;
      pos = end_offset;
    } else {
      // Not a real block (or a damaged one): resume the scan one byte in,
      // so a sync marker later in this region is still found.
      pos = found + 1;
    }
  }

  if (summary != nullptr) {
    size_t recovered_slots = 0;
    for (int32_t slot : slots) {
      recovered_slots += slot == kUnfilledSlot ? 0 : 1;
    }
    summary->total_slots = header.count;
    summary->recovered_slots = recovered_slots;
    summary->lost_slots = header.count - recovered_slots;
    summary->recovered_blocks = recovered_blocks;
  }
  return BuildSeriesFromSlots(header, slots);
}

}  // namespace smeter
