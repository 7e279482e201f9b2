// Bit-packed wire format for symbolic series — the §2.3 numbers made
// concrete: a day of 16-symbol / 15-minute data must serialize to 384 bits
// of payload (48 bytes) plus a fixed-size header.
//
// Layout (little-endian):
//   magic   "SMSY"            4 bytes
//   version u8                (1 = gapless, 2 = with GAP symbols)
//   level   u8                bits per symbol
//   count   u32               number of symbols (gaps included)
//   start   i64               timestamp of the first symbol
//   step    i64               seconds between consecutive symbols
//   gapmap  ceil(count/8) bytes, MSB-first, bit set = GAP   (version 2 only)
//   payload ceil(values*level/8) bytes, value symbols packed MSB-first,
//           where values = count minus the gap positions
//
// A gapless series always packs as version 1 (bit-identical to the
// pre-GAP format); a series containing GAP symbols packs as version 2.
//
// Only fixed-cadence series are packable; a missing window must be an
// explicit GAP symbol (the gap-aware pipeline emits those), not an absent
// timestamp. Pack rejects irregular series — send those as separate
// segments.
//
// Version 3 — the crash-safe framed format (PackSymbolicSeriesFramed):
//   header  the 26 bytes above with version = 3,
//           followed by u32 crc32c of those 26 bytes   (30 bytes total)
//   blocks  each covering a contiguous run of slots:
//     sync        4 bytes  F5 'S' 'M' 'B'  (resynchronization marker)
//     first_slot  u32      index of the block's first slot
//     slot_count  u32      low 31 bits: slots in this block
//                          (1..kMaxBlockSlots); high bit set iff the
//                          payload opens with a gap bitmap
//     payload_len u32      bytes of payload that follow the CRC
//     crc         u32      crc32c over the 12 field bytes + payload
//     payload     gap bitmap (ceil(slot_count/8), MSB-first, set = GAP)
//                 — present only when the block contains a GAP; gapless
//                 blocks skip it so clean data pays just the 20-byte
//                 header per block —
//                 then value symbols bit-packed MSB-first, `level` bits
//                 each; the bit accumulator resets at every block edge so
//                 blocks decode independently
//   Blocks tile [0, count) in order with no gaps or trailing bytes.
//
// Every byte of a v3 blob is covered by a checksum, so UnpackSymbolicSeries
// pinpoints the damaged block (index and byte offset) instead of returning
// garbage, and SalvageSymbolicSeries re-locks onto the sync markers to
// recover every intact block, representing the destroyed slots as GAP runs.
// FoldFramedSeries runs the same strict parse but counts slots straight
// into a histogram, for the store's aggregates.

#ifndef SMETER_CORE_CODEC_H_
#define SMETER_CORE_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/symbolic_series.h"

namespace smeter {

// Slots per v3 block unless the caller asks otherwise: small enough that a
// damaged block loses at most ~43 hours of 15-minute data, large enough
// that the 20-byte block header is noise (~1% overhead at level 4 on
// gapless data, which omits the per-block gap bitmap).
inline constexpr size_t kDefaultBlockSlots = 4096;
// Hard ceiling on slot_count; a larger value in a block header is damage.
inline constexpr size_t kMaxBlockSlots = 32768;

// Serializes a fixed-cadence symbolic series. Errors on an empty series or
// non-constant timestamp spacing (a single-sample series is fine, with
// `step` recorded as 0).
Result<std::string> PackSymbolicSeries(const SymbolicSeries& series);

// Serializes as the checksummed v3 framed format. Same cadence rules as
// PackSymbolicSeries. `max_block_slots` caps slots per block
// (1..kMaxBlockSlots); the default suits archive files, tests use small
// blocks to exercise many frames.
Result<std::string> PackSymbolicSeriesFramed(
    const SymbolicSeries& series, size_t max_block_slots = kDefaultBlockSlots);

// Parses a blob produced by PackSymbolicSeries or PackSymbolicSeriesFramed
// (the version byte selects the grammar). Validates magic, version, level
// range, and payload size; for v3 additionally verifies the header CRC and
// every block CRC, failing with StatusCode::kDataLoss naming the damaged
// block and its byte offset.
Result<SymbolicSeries> UnpackSymbolicSeries(const std::string& blob);

// Slot tallies of one series clipped to a time range, at one level.
struct SlotCounts {
  uint64_t windows = 0;  // slots in range, GAPs included
  uint64_t gaps = 0;     // GAP slots in range
  // Value slots per symbol at the fold level (size 2^level): a native
  // symbol counts in bucket index >> (native - level), the prefix fold.
  std::vector<uint64_t> histogram;
};

// Adds the slots of the v3 `blob` whose timestamps fall in `range` to
// `counts`, at `level`, without materializing the series: the same
// header/block parse and every check UnpackSymbolicSeries runs (header
// CRC, each block CRC, block tiling, trailing bytes), with the same status
// codes. A blob of another version is kDataLoss (store segments are always
// v3); a `level` finer than the blob's native level is kInvalidArgument,
// judged after the blocks. Contract (checked): 1 <= level <=
// kMaxSymbolLevel and counts->histogram.size() == 2^level. On error
// `counts` may hold part of the blob's tally.
Status FoldFramedSeries(std::string_view blob, TimeRange range, int level,
                        SlotCounts* counts);

// What SalvageSymbolicSeries managed to recover.
struct SalvageSummary {
  size_t total_slots = 0;      // count from the (verified) header
  size_t recovered_slots = 0;  // slots covered by blocks that passed CRC
  size_t lost_slots = 0;       // slots returned as GAP because their block
                               // was damaged (total - recovered)
  size_t recovered_blocks = 0;
};

// Best-effort recovery for a damaged v3 blob: verifies the header, then
// scans for sync markers and decodes every block whose checksum holds,
// returning a full-length series in which slots from damaged or missing
// blocks are GAP symbols. Errors (kDataLoss) only when the header itself is
// too damaged to trust — without level/count/start/step there is no
// timebase to rebuild onto. Also accepts an undamaged v3 blob, returning
// the same series as UnpackSymbolicSeries.
Result<SymbolicSeries> SalvageSymbolicSeries(const std::string& blob,
                                             SalvageSummary* summary = nullptr);

// Payload bits for `count` symbols at `level` bits each (the §2.3 figure,
// excluding the header).
int64_t PackedPayloadBits(size_t count, int level);

// Total wire size in bytes (header + payload) for a gapless (version 1)
// blob.
size_t PackedSizeBytes(size_t count, int level);

// Total wire size in bytes for a version-2 blob of `count` slots of which
// `gaps` are GAP symbols (header + gap bitmap + value payload).
size_t PackedSizeBytesWithGaps(size_t count, size_t gaps, int level);

}  // namespace smeter

#endif  // SMETER_CORE_CODEC_H_
