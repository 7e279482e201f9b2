// Fuzz harness for the store's partition pack (core/archive_store.h,
// p<id>/segments.pack). Two attack surfaces, selected by the first input
// byte:
//
//   * raw bytes through ParseSegmentPack — an accepted pack must describe
//     strictly ascending meters whose blobs tile the rest of the file, and
//     must rebuild to exactly the input bytes (the layout has one encoding
//     per pack); every blob it locates then goes through the fold, which
//     must refuse or count, never crash;
//   * a fuzz-built pack, then up to three bit flips and an optional
//     truncation — an accepted damaged pack must have the original
//     directory (CRC32C catches every error of three bits or fewer), and
//     an undamaged one must parse back to what was written.
//
// Crash conditions (beyond sanitizer reports): any closure mismatch, or a
// damaged directory that parses as a different one.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/archive_store.h"
#include "core/codec.h"
#include "fuzz_input.h"

namespace smeter {
namespace {

using fuzz::FuzzInput;

using Segments = std::vector<std::pair<std::string, std::string>>;

void FoldEveryBlob(const std::string& pack,
                   const std::vector<PackEntry>& entries) {
  for (const PackEntry& entry : entries) {
    SlotCounts counts;
    counts.histogram.assign(2, 0);
    (void)FoldFramedSeries(
        std::string_view(pack).substr(static_cast<size_t>(entry.offset),
                                      static_cast<size_t>(entry.size)),
        {INT64_MIN, INT64_MAX}, 1, &counts);
  }
}

void FuzzParse(const std::string& pack) {
  Result<std::vector<PackEntry>> entries =
      ParseSegmentPack(pack, pack.size());
  if (!entries.ok()) {
    SMETER_CHECK(entries.status().code() == StatusCode::kDataLoss);
    return;
  }
  Segments segments;
  uint64_t next = entries->empty() ? pack.size() : entries->front().offset;
  for (const PackEntry& entry : *entries) {
    SMETER_CHECK(!entry.meter.empty());
    SMETER_CHECK(segments.empty() || segments.back().first < entry.meter);
    SMETER_CHECK_EQ(entry.offset, next);
    SMETER_CHECK_LE(entry.size, pack.size() - entry.offset);
    next = entry.offset + entry.size;
    segments.emplace_back(
        std::string(entry.meter),
        pack.substr(static_cast<size_t>(entry.offset),
                    static_cast<size_t>(entry.size)));
  }
  SMETER_CHECK_EQ(next, pack.size());
  SMETER_CHECK(BuildSegmentPack(segments) == pack);
  FoldEveryBlob(pack, *entries);
}

void FuzzDamage(FuzzInput& in) {
  Segments segments;
  const int count = in.TakeIntInRange(0, 12);
  std::string name = "m";
  for (int i = 0; i < count; ++i) {
    // Strictly ascending names: extend or bump the previous one.
    if (in.TakeByte() % 2 == 0 && name.size() < kMaxPackMeterName) {
      name.push_back(static_cast<char>('a' + in.TakeByte() % 26));
    } else {
      name.back() = static_cast<char>(name.back() + 1);
    }
    segments.emplace_back(
        name, in.TakeString(static_cast<size_t>(in.TakeIntInRange(0, 300))));
  }
  const std::string pack = BuildSegmentPack(segments);
  Result<std::vector<PackEntry>> clean = ParseSegmentPack(pack, pack.size());
  SMETER_CHECK(clean.ok());
  SMETER_CHECK_EQ(clean->size(), segments.size());
  for (size_t i = 0; i < segments.size(); ++i) {
    SMETER_CHECK((*clean)[i].meter == segments[i].first);
    SMETER_CHECK(pack.compare(static_cast<size_t>((*clean)[i].offset),
                              static_cast<size_t>((*clean)[i].size),
                              segments[i].second) == 0);
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
