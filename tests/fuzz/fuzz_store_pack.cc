// Fuzz harness for the store's partition pack (core/archive_store.h,
// p<id>/segments.pack). Two attack surfaces, selected by the first input
// byte:
//
//   * raw bytes through ParseSegmentPack — an accepted pack must describe
//     strictly ascending meters whose blobs tile the rest of the file and
//     whose directory summaries add up, and must rebuild (summaries
//     included) to exactly the input bytes (the layout has one encoding
//     per pack); every blob it locates then goes through the fold, which
//     must refuse or count, never crash;
//   * a fuzz-built pack of real v3 segments (summarized from the series)
//     and raw byte blobs (with fuzz-chosen summaries), then up to three
//     bit flips and an optional truncation. Undamaged, it must parse back
//     to what was written, and each real segment's directory summary must
//     equal FoldFramedSeries over the blob's full range at its native
//     level; an accepted damaged pack must have the original directory
//     (CRC32C catches every error of three bits or fewer).
//
// Crash conditions (beyond sanitizer reports): any closure mismatch, a
// summary that disagrees with its segment's fold, or a damaged directory
// that parses as a different one.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/archive_store.h"
#include "core/codec.h"
#include "core/symbol.h"
#include "core/symbolic_series.h"
#include "fuzz_input.h"

namespace smeter {
namespace {

using fuzz::FuzzInput;

constexpr TimeRange kAllTime = {INT64_MIN, INT64_MAX};

// An entry's summary, decoded at its native level.
SlotCounts Summary(const PackEntry& entry) {
  SlotCounts counts;
  counts.histogram.assign(size_t{1} << entry.level, 0);
  AddPackSummary(entry, entry.level, &counts);
  return counts;
}

void FoldEveryBlob(const std::string& pack,
                   const std::vector<PackEntry>& entries) {
  for (const PackEntry& entry : entries) {
    SlotCounts counts;
    (void)FoldFramedSeries(
        std::string_view(pack).substr(static_cast<size_t>(entry.offset),
                                      static_cast<size_t>(entry.size)),
        kAllTime, 0, &counts);
  }
}

void FuzzParse(const std::string& pack) {
  Result<std::vector<PackEntry>> entries =
      ParseSegmentPack(pack, pack.size());
  if (!entries.ok()) {
    SMETER_CHECK(entries.status().code() == StatusCode::kDataLoss);
    return;
  }
  std::vector<PackSegment> segments;
  uint64_t next = entries->empty() ? pack.size() : entries->front().offset;
  for (const PackEntry& entry : *entries) {
    SMETER_CHECK(!entry.meter.empty());
    SMETER_CHECK(segments.empty() || segments.back().meter < entry.meter);
    SMETER_CHECK_EQ(entry.offset, next);
    SMETER_CHECK_LE(entry.size, pack.size() - entry.offset);
    next = entry.offset + entry.size;
    PackSegment segment;
    segment.meter = std::string(entry.meter);
    segment.blob = pack.substr(static_cast<size_t>(entry.offset),
                               static_cast<size_t>(entry.size));
    segment.summary = Summary(entry);
    SMETER_CHECK_EQ(segment.summary.windows, entry.windows);
    SMETER_CHECK_EQ(segment.summary.gaps, entry.gaps);
    segments.push_back(std::move(segment));
  }
  SMETER_CHECK_EQ(next, pack.size());
  // BuildSegmentPack checks each summary adds up, so this also holds the
  // parser to that rule.
  SMETER_CHECK(BuildSegmentPack(segments) == pack);
  FoldEveryBlob(pack, *entries);
}

// A real v3 segment: a fuzz-shaped series at a fuzz level, summarized from
// the series itself (not from the fold the differential compares with).
PackSegment SeriesSegment(FuzzInput& in) {
  const int level = in.TakeIntInRange(1, kMaxSymbolLevel);
  const int count = in.TakeIntInRange(1, 300);
  const int gap_every = in.TakeIntInRange(0, 9);
  SymbolicSeries series(level);
  for (int i = 0; i < count; ++i) {
    const uint32_t index =
        static_cast<uint32_t>(in.TakeUint64() % (uint64_t{1} << level));
    const Symbol symbol = gap_every > 0 && i % gap_every == 0
                              ? Symbol::Gap(level)
                              : Symbol::Create(level, index).value();
    SMETER_CHECK(series.Append({int64_t{i} * 900, symbol}).ok());
  }
  PackSegment segment;
  segment.blob =
      PackSymbolicSeriesFramed(
          series, static_cast<size_t>(in.TakeIntInRange(1, 64)))
          .value();
  const std::vector<size_t> histogram = series.Histogram();
  segment.summary.histogram.assign(histogram.begin(), histogram.end());
  segment.summary.windows = series.size();
  segment.summary.gaps = series.GapCount();
  return segment;
}

// Up to 2^60, so that nine of them still add up inside 64 bits.
uint64_t TakeCount(FuzzInput& in) {
  return in.TakeUint64() >> (4 + in.TakeByte() % 60);
}

// Raw bytes with a fuzz-chosen summary that adds up.
PackSegment RawSegment(FuzzInput& in) {
  PackSegment segment;
  segment.blob =
      in.TakeString(static_cast<size_t>(in.TakeIntInRange(0, 300)));
  const int level = in.TakeIntInRange(1, kMaxSymbolLevel);
  segment.summary.histogram.assign(size_t{1} << level, 0);
  for (int i = in.TakeIntInRange(0, 8); i > 0; --i) {
    segment.summary.histogram[static_cast<size_t>(
        in.TakeUint64() % segment.summary.histogram.size())] += TakeCount(in);
  }
  segment.summary.gaps = TakeCount(in);
  segment.summary.windows = segment.summary.gaps;
  for (uint64_t n : segment.summary.histogram) segment.summary.windows += n;
  return segment;
}

void FuzzDamage(FuzzInput& in) {
  std::vector<PackSegment> segments;
  std::vector<bool> real;
  const int count = in.TakeIntInRange(0, 12);
  std::string name = "m";
  for (int i = 0; i < count; ++i) {
    // Strictly ascending names: extend or bump the previous one.
    if (in.TakeByte() % 2 == 0 && name.size() < kMaxPackMeterName) {
      name.push_back(static_cast<char>('a' + in.TakeByte() % 26));
    } else {
      name.back() = static_cast<char>(name.back() + 1);
    }
    real.push_back(in.TakeByte() % 2 == 0);
    segments.push_back(real.back() ? SeriesSegment(in) : RawSegment(in));
    segments.back().meter = name;
  }
  const std::string pack = BuildSegmentPack(segments);
  Result<std::vector<PackEntry>> clean = ParseSegmentPack(pack, pack.size());
  SMETER_CHECK(clean.ok());
  SMETER_CHECK_EQ(clean->size(), segments.size());
  for (size_t i = 0; i < segments.size(); ++i) {
    const PackEntry& entry = (*clean)[i];
    SMETER_CHECK(entry.meter == segments[i].meter);
    SMETER_CHECK(pack.compare(static_cast<size_t>(entry.offset),
                              static_cast<size_t>(entry.size),
                              segments[i].blob) == 0);
    SMETER_CHECK(Summary(entry) == segments[i].summary);
    if (!real[i]) continue;
    SlotCounts folded;
    SMETER_CHECK(FoldFramedSeries(segments[i].blob, kAllTime, 0, &folded)
                     .ok());
    SMETER_CHECK(Summary(entry) == folded);
  }

  std::string damaged = pack;
  const int flips = in.TakeIntInRange(0, 3);
  for (int f = 0; f < flips && !damaged.empty(); ++f) {
    const size_t pos = static_cast<size_t>(
        in.TakeIntInRange(0, static_cast<int>(damaged.size()) - 1));
    damaged[pos] = static_cast<char>(static_cast<unsigned char>(damaged[pos]) ^
                                     (1u << (in.TakeByte() % 8)));
  }
  if (in.TakeByte() % 3 == 0) {
    damaged.resize(static_cast<size_t>(
        in.TakeIntInRange(0, static_cast<int>(damaged.size()))));
  }
  Result<std::vector<PackEntry>> reread =
      ParseSegmentPack(damaged, damaged.size());
  if (!reread.ok()) {
    SMETER_CHECK(reread.status().code() == StatusCode::kDataLoss);
    return;
  }
  // Accepted: the directory is the one written (damage, if any, sits in
  // the blob bytes, which carry their own checksums).
  SMETER_CHECK_EQ(reread->size(), clean->size());
  for (size_t i = 0; i < clean->size(); ++i) {
    SMETER_CHECK((*reread)[i].meter == (*clean)[i].meter);
    SMETER_CHECK_EQ((*reread)[i].offset, (*clean)[i].offset);
    SMETER_CHECK_EQ((*reread)[i].size, (*clean)[i].size);
    SMETER_CHECK(Summary((*reread)[i]) == segments[i].summary);
  }
  FoldEveryBlob(damaged, *reread);
}

}  // namespace
}  // namespace smeter

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  smeter::fuzz::FuzzInput in(data, size);
  if (in.TakeByte() % 2 == 0) {
    smeter::FuzzParse(in.TakeRemainingString());
  } else {
    smeter::FuzzDamage(in);
  }
  return 0;
}
