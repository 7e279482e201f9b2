// Tests for the partitioned archive store: build determinism, partition
// slicing, rollup byte-identity, retention, the hot current table, crash
// convergence through every store.* fault seam, and the hierarchy property
// the rollup design rests on — coarsening an encoded series to level k is
// exactly symbol-prefix truncation of the finer encoding, GAPs included.

#include "core/archive_store.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/io.h"
#include "core/codec.h"
#include "core/fsck.h"
#include "core/symbolic_series.h"
#include "testutil.h"

namespace smeter {
namespace {

namespace fs = std::filesystem;

Symbol Sym(int level, uint32_t index) {
  return Symbol::Create(level, index).value();
}

// A deterministic series at `level`: `n` samples from `start` with the
// given step, every `gap_every`-th sample a GAP (0 = no gaps).
SymbolicSeries MakeSymbolSeries(int level, Timestamp start, int64_t step,
                                size_t n, uint64_t seed,
                                size_t gap_every = 0) {
  SymbolicSeries series(level);
  uint64_t state = seed * 0x9e3779b97f4a7c15ull + 1;
  for (size_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    Symbol symbol =
        (gap_every > 0 && i % gap_every == gap_every - 1)
            ? Symbol::Gap(level)
            : Sym(level, static_cast<uint32_t>((state >> 33) %
                                               (1u << level)));
    EXPECT_TRUE(
        series.Append({start + static_cast<Timestamp>(i) * step, symbol})
            .ok());
  }
  return series;
}

// Writes <dir>/<meter>.symbols for each entry (the v3 framed archive the
// store builder consumes).
void WriteArchive(const std::string& dir,
                  const std::map<std::string, SymbolicSeries>& meters) {
  fs::create_directories(dir);
  for (const auto& [meter, series] : meters) {
    auto blob = PackSymbolicSeriesFramed(series);
    ASSERT_TRUE(blob.ok()) << blob.status().ToString();
    ASSERT_TRUE(io::AtomicWriteFile(dir + "/" + meter + ".symbols", *blob)
                    .ok());
  }
}

// Relative path -> file bytes for every regular file under `dir`.
std::map<std::string, std::string> SnapshotDir(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    files[fs::relative(entry.path(), dir).generic_string()] =
        io::ReadFileToString(entry.path().string()).value();
  }
  return files;
}

std::string Scratch(const std::string& name) {
  std::string root = smeter::testing::TempPath("archive_store_" + name);
  fs::remove_all(root);
  fs::create_directories(root);
  return root;
}

// A three-meter fleet spanning four day-partitions, gaps included.
std::map<std::string, SymbolicSeries> TestFleet(int level = 4) {
  std::map<std::string, SymbolicSeries> fleet;
  fleet.emplace("house_a", MakeSymbolSeries(level, 900, 900, 320, 11, 7));
  fleet.emplace("house_b",
                MakeSymbolSeries(level, 86'400 + 450, 900, 220, 22, 0));
  fleet.emplace("house_c", MakeSymbolSeries(level, 0, 1800, 160, 33, 13));
  return fleet;
}

// --- plain-function units --------------------------------------------------

TEST(ArchiveStoreUnits, PartitionIdFloorsNegatives) {
  EXPECT_EQ(PartitionIdFor(0, 86'400), 0);
  EXPECT_EQ(PartitionIdFor(86'399, 86'400), 0);
  EXPECT_EQ(PartitionIdFor(86'400, 86'400), 1);
  EXPECT_EQ(PartitionIdFor(-1, 86'400), -1);
  EXPECT_EQ(PartitionIdFor(-86'400, 86'400), -1);
  EXPECT_EQ(PartitionIdFor(-86'401, 86'400), -2);
}

TEST(ArchiveStoreUnits, PartitionDirNameRoundTrip) {
  int64_t id = 0;
  EXPECT_TRUE(IsPartitionDirName("p0", &id));
  EXPECT_EQ(id, 0);
  EXPECT_TRUE(IsPartitionDirName("p-3", &id));
  EXPECT_EQ(id, -3);
  EXPECT_FALSE(IsPartitionDirName("q7", nullptr));
  EXPECT_FALSE(IsPartitionDirName("p", nullptr));
  EXPECT_FALSE(IsPartitionDirName("p1x", nullptr));
}

TEST(ArchiveStoreUnits, FoldHistogramMergesPrefixBuckets) {
  // Level 3 -> level 1: buckets [0..3] fold into 0, [4..7] into 1.
  std::vector<uint64_t> fine = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<uint64_t> folded = FoldHistogram(fine, 3, 1);
  ASSERT_EQ(folded.size(), 2u);
  EXPECT_EQ(folded[0], 1u + 2 + 3 + 4);
  EXPECT_EQ(folded[1], 5u + 6 + 7 + 8);
  // Identity fold.
  EXPECT_EQ(FoldHistogram(fine, 3, 3), fine);
}

TEST(ArchiveStoreUnits, RollupRowRecordRoundTrips) {
  RollupRow row;
  row.meter = "house_a";
  row.level = 5;
  row.start = 1234;
  row.step = 900;
  row.windows = 96;
  row.gaps = 3;
  row.histogram.assign(32, 0);
  row.histogram[7] = 41;
  row.histogram[31] = 52;
  auto parsed = ParseRollupRow(RollupRowRecord(row));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(*parsed == row);
  EXPECT_FALSE(ParseRollupRow("not json").has_value());
  EXPECT_FALSE(ParseRollupRow("{\"meter\":\"x\"}").has_value());
}

TEST(ArchiveStoreUnits, CurrentRecordJsonRoundTrips) {
  CurrentRecord record;
  record.meter = "house_b";
  record.timestamp = 999'000;
  record.level = 4;
  record.symbol = kStoreGapSymbol;
  auto parsed = ParseCurrentRecord(CurrentRecordJson(record));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->meter, record.meter);
  EXPECT_EQ(parsed->timestamp, record.timestamp);
  EXPECT_EQ(parsed->level, record.level);
  EXPECT_EQ(parsed->symbol, record.symbol);
  EXPECT_FALSE(ParseCurrentRecord("{}").has_value());
}

// --- the hierarchy property (satellite: coarsen == prefix truncation) ------

TEST(HierarchyProperty, CoarsenIsPrefixTruncationThroughTheCodec) {
  // Encode at the deepest level, decode, coarsen to every k — the result
  // must be exactly per-symbol prefix truncation of what was packed, with
  // GAPs surviving as GAPs at every level.
  SymbolicSeries native =
      MakeSymbolSeries(kMaxSymbolLevel, 0, 900, 400, 77, 9);
  auto blob = PackSymbolicSeriesFramed(native);
  ASSERT_TRUE(blob.ok());
  auto decoded = UnpackSymbolicSeries(*blob);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), native.size());
  for (int k = kMaxSymbolLevel; k >= 1; --k) {
    auto coarse = decoded->Coarsen(k);
    ASSERT_TRUE(coarse.ok());
    ASSERT_EQ(coarse->size(), native.size());
    for (size_t i = 0; i < native.size(); ++i) {
      const Symbol fine = native[i].symbol;
      const Symbol got = (*coarse)[i].symbol;
      ASSERT_EQ((*coarse)[i].timestamp, native[i].timestamp);
      if (fine.is_gap()) {
        // GAP propagation: a gap stays a gap under truncation.
        ASSERT_TRUE(got.is_gap()) << "k=" << k << " i=" << i;
        continue;
      }
      ASSERT_FALSE(got.is_gap());
      // Prefix truncation == dropping the low (n - k) bits.
      ASSERT_EQ(got.index(),
                fine.index() >> (kMaxSymbolLevel - k))
          << "k=" << k << " i=" << i;
    }
  }
}

TEST(HierarchyProperty, FoldedHistogramMatchesCoarseEncoding) {
  // The rollup shortcut: folding the native histogram must agree with
  // decoding and re-encoding at the coarser level, gaps excluded from
  // buckets but preserved in GapCount.
  SymbolicSeries native = MakeSymbolSeries(8, 0, 900, 512, 41, 5);
  for (int k = 8; k >= 1; --k) {
    auto coarse = native.Coarsen(k);
    ASSERT_TRUE(coarse.ok());
    EXPECT_EQ(FoldHistogram(native.Histogram(), 8, k),
              coarse->Histogram())
        << "k=" << k;
    EXPECT_EQ(coarse->GapCount(), native.GapCount());
  }
}

// --- build / open / scan / aggregate ---------------------------------------

TEST(ArchiveStoreBuild, BuildsPartitionsIndexRollupsAndCurrent) {
  const std::string root = Scratch("build");
  WriteArchive(root + "/archive", TestFleet());
  auto report = BuildArchiveStore(root + "/archive", root + "/store");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->meters, 3u);
  EXPECT_EQ(report->meters_skipped, 0u);
  EXPECT_EQ(report->partitions, 4u);
  EXPECT_GT(report->segments_written, 0u);

  auto store = ArchiveStore::Open(root + "/store");
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->partitions().size(), 4u);
  for (const PartitionInfo& partition : (*store)->partitions()) {
    EXPECT_TRUE(fs::exists(root + "/store/p" +
                           std::to_string(partition.id) + "/" +
                           kRollupTableFile));
  }
  // The current table has one row per meter, the last sample of each.
  EXPECT_EQ((*store)->CurrentMeters(), 3u);
  auto latest = (*store)->Latest("house_a");
  ASSERT_TRUE(latest.ok());
  auto fleet = TestFleet();
  const SymbolicSeries& a = fleet.at("house_a");
  EXPECT_EQ(latest->timestamp, a[a.size() - 1].timestamp);
}

TEST(ArchiveStoreBuild, RebuildIsByteIdentical) {
  const std::string root = Scratch("deterministic");
  WriteArchive(root + "/archive", TestFleet());
  ASSERT_TRUE(BuildArchiveStore(root + "/archive", root + "/s1").ok());
  ASSERT_TRUE(BuildArchiveStore(root + "/archive", root + "/s2").ok());
  EXPECT_EQ(SnapshotDir(root + "/s1"), SnapshotDir(root + "/s2"));
}

TEST(ArchiveStoreBuild, UnparseableMeterIsSkippedNotFatal) {
  const std::string root = Scratch("skip");
  WriteArchive(root + "/archive", TestFleet());
  ASSERT_TRUE(
      io::AtomicWriteFile(root + "/archive/broken.symbols", "garbage").ok());
  auto report = BuildArchiveStore(root + "/archive", root + "/store");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->meters, 3u);
  EXPECT_EQ(report->meters_skipped, 1u);
}

TEST(ArchiveStoreScan, NativeScanMatchesTheSourceSeries) {
  const std::string root = Scratch("scan");
  auto fleet = TestFleet();
  WriteArchive(root + "/archive", fleet);
  ASSERT_TRUE(BuildArchiveStore(root + "/archive", root + "/store").ok());
  auto store = ArchiveStore::Open(root + "/store");
  ASSERT_TRUE(store.ok());

  const SymbolicSeries& source = fleet.at("house_a");
  auto scan = (*store)->Scan("house_a",
                             {0, source[source.size() - 1].timestamp + 1},
                             /*level=*/0, /*max_symbols=*/100'000);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->level, source.level());
  EXPECT_FALSE(scan->truncated);
  ASSERT_EQ(scan->symbols.size(), source.size());
  EXPECT_EQ(scan->start_timestamp, source[0].timestamp);
  for (size_t i = 0; i < source.size(); ++i) {
    const Symbol symbol = source[i].symbol;
    const uint16_t expect =
        symbol.is_gap() ? kStoreGapSymbol
                        : static_cast<uint16_t>(symbol.index());
    ASSERT_EQ(scan->symbols[i], expect) << "i=" << i;
  }
}

TEST(ArchiveStoreScan, CoarseScanIsPrefixTruncation) {
  const std::string root = Scratch("coarse");
  auto fleet = TestFleet(6);
  WriteArchive(root + "/archive", fleet);
  ASSERT_TRUE(BuildArchiveStore(root + "/archive", root + "/store").ok());
  auto store = ArchiveStore::Open(root + "/store");
  ASSERT_TRUE(store.ok());

  const SymbolicSeries& source = fleet.at("house_c");
  const TimeRange range = {0, source[source.size() - 1].timestamp + 1};
  for (int k = 1; k <= 6; ++k) {
    auto scan = (*store)->Scan("house_c", range, k, 100'000);
    ASSERT_TRUE(scan.ok()) << "k=" << k << ": " << scan.status().ToString();
    EXPECT_EQ(scan->level, k);
    ASSERT_EQ(scan->symbols.size(), source.size());
    for (size_t i = 0; i < source.size(); ++i) {
      const Symbol symbol = source[i].symbol;
      const uint16_t expect =
          symbol.is_gap()
              ? kStoreGapSymbol
              : static_cast<uint16_t>(symbol.index() >> (6 - k));
      ASSERT_EQ(scan->symbols[i], expect) << "k=" << k << " i=" << i;
    }
  }
  // Finer than native is refused; unknown meters are not found.
  EXPECT_FALSE((*store)->Scan("house_c", range, 7, 100).ok());
  auto missing = (*store)->Scan("nobody", range, 0, 100);
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(ArchiveStoreScan, TruncationStopsAtMaxSymbols) {
  const std::string root = Scratch("truncate");
  auto fleet = TestFleet();
  WriteArchive(root + "/archive", fleet);
  ASSERT_TRUE(BuildArchiveStore(root + "/archive", root + "/store").ok());
  auto store = ArchiveStore::Open(root + "/store");
  ASSERT_TRUE(store.ok());
  auto scan = (*store)->Scan("house_a", {0, 10'000'000}, 0, 10);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->truncated);
  EXPECT_EQ(scan->symbols.size(), 10u);
}

TEST(ArchiveStoreAggregate, FoldedRollupsMatchBruteForce) {
  const std::string root = Scratch("aggregate");
  auto fleet = TestFleet(5);
  WriteArchive(root + "/archive", fleet);
  ASSERT_TRUE(BuildArchiveStore(root + "/archive", root + "/store").ok());
  auto store = ArchiveStore::Open(root + "/store");
  ASSERT_TRUE(store.ok());

  // A window covering whole partitions only: served purely from rollups.
  const TimeRange range = {0, 4 * kSecondsPerDay};
  for (int k = 1; k <= 5; ++k) {
    auto aggregate = (*store)->Aggregate(range, k);
    ASSERT_TRUE(aggregate.ok()) << aggregate.status().ToString();
    EXPECT_EQ(aggregate->level, k);
    EXPECT_EQ(aggregate->meters, 3u);
    EXPECT_EQ(aggregate->meters_coarser, 0u);
    EXPECT_GT(aggregate->rollup_partitions, 0u);
    EXPECT_EQ(aggregate->scanned_partitions, 0u);

    // Brute force from the source series.
    std::vector<uint64_t> expect(1u << k, 0);
    uint64_t windows = 0, gaps = 0;
    for (const auto& [meter, series] : fleet) {
      for (const SymbolicSample& sample : series) {
        if (sample.timestamp < range.begin ||
            sample.timestamp >= range.end) {
          continue;
        }
        ++windows;
        if (sample.symbol.is_gap()) {
          ++gaps;
          continue;
        }
        ++expect[sample.symbol.index() >> (5 - k)];
      }
    }
    EXPECT_EQ(aggregate->windows, windows) << "k=" << k;
    EXPECT_EQ(aggregate->gaps, gaps) << "k=" << k;
    EXPECT_EQ(aggregate->histogram, expect) << "k=" << k;
  }

  // A ragged window forces edge partitions through the segment-scan path;
  // totals must still match brute force.
  const TimeRange ragged = {40'000, 3 * kSecondsPerDay + 20'000};
  auto aggregate = (*store)->Aggregate(ragged, 3);
  ASSERT_TRUE(aggregate.ok());
  EXPECT_GT(aggregate->scanned_partitions, 0u);
  std::vector<uint64_t> expect(8, 0);
  uint64_t windows = 0, gaps = 0;
  for (const auto& [meter, series] : fleet) {
    for (const SymbolicSample& sample : series) {
      if (sample.timestamp < ragged.begin ||
          sample.timestamp >= ragged.end) {
        continue;
      }
      ++windows;
      if (sample.symbol.is_gap()) {
        ++gaps;
      } else {
        ++expect[sample.symbol.index() >> 2];
      }
    }
  }
  EXPECT_EQ(aggregate->windows, windows);
  EXPECT_EQ(aggregate->gaps, gaps);
  EXPECT_EQ(aggregate->histogram, expect);
}

// --- rollups, retention, current table -------------------------------------

TEST(ArchiveStoreRollups, RebuildIsByteIdenticalToBuild) {
  const std::string root = Scratch("rollup_rebuild");
  WriteArchive(root + "/archive", TestFleet());
  ASSERT_TRUE(BuildArchiveStore(root + "/archive", root + "/store").ok());
  std::map<std::string, std::string> before;
  for (const auto& entry :
       fs::recursive_directory_iterator(root + "/store")) {
    if (entry.path().filename() != kRollupTableFile) continue;
    before[entry.path().string()] =
        io::ReadFileToString(entry.path().string()).value();
    fs::remove(entry.path());
  }
  ASSERT_FALSE(before.empty());
  auto rebuilt = RebuildRollups(root + "/store");
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(*rebuilt, before.size());
  for (const auto& [path, bytes] : before) {
    EXPECT_EQ(io::ReadFileToString(path).value(), bytes) << path;
  }
}

TEST(ArchiveStoreRetention, DropsWholePartitionsBeforeCutoff) {
  const std::string root = Scratch("retention");
  WriteArchive(root + "/archive", TestFleet());
  ASSERT_TRUE(BuildArchiveStore(root + "/archive", root + "/store").ok());
  auto dropped = DropPartitionsBefore(root + "/store", kSecondsPerDay);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(*dropped, 1u);
  EXPECT_FALSE(fs::exists(root + "/store/p0"));
  auto store = ArchiveStore::Open(root + "/store");
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->partitions().size(), 3u);
  // Data before the cutoff is gone; later data still serves.
  auto early = (*store)->Scan("house_a", {0, kSecondsPerDay}, 0, 1000);
  EXPECT_FALSE(early.ok());
  auto later = (*store)->Scan(
      "house_a", {kSecondsPerDay, 4 * kSecondsPerDay}, 0, 1000);
  EXPECT_TRUE(later.ok());
}

TEST(ArchiveStoreCurrent, LiveLogAppendsRefreshLatest) {
  const std::string root = Scratch("current");
  WriteArchive(root + "/archive", TestFleet());
  ASSERT_TRUE(BuildArchiveStore(root + "/archive", root + "/store").ok());
  auto store = ArchiveStore::Open(root + "/store");
  ASSERT_TRUE(store.ok());
  auto before = (*store)->Latest("house_a");
  ASSERT_TRUE(before.ok());

  // A live writer (the ingest daemon) appends a fresher row; the store
  // notices on the next lookup without reopening.
  auto writer = CurrentTableWriter::Open(root + "/store");
  ASSERT_TRUE(writer.ok());
  CurrentRecord fresh;
  fresh.meter = "house_a";
  fresh.timestamp = before->timestamp + 900;
  fresh.level = 4;
  fresh.symbol = 9;
  ASSERT_TRUE((*writer)->Update(fresh).ok());
  ASSERT_TRUE((*writer)->Close().ok());

  auto after = (*store)->Latest("house_a");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->timestamp, fresh.timestamp);
  EXPECT_EQ(after->symbol, 9);
  EXPECT_GT((*store)->current_refreshes(), 0u);

  // A compaction that rewrites current.tab to the same size with other
  // content (house_b's symbol swapped for one of equal width) must still
  // be seen: the store tracks each file's signature, not a byte total.
  const std::string tab = root + "/store/" + kCurrentTableFile;
  auto log = io::ReadAppendLog(tab);
  ASSERT_TRUE(log.ok());
  std::vector<std::string> records;
  uint16_t swapped = 0;
  for (const std::string& record : log->records) {
    auto parsed = ParseCurrentRecord(record);
    ASSERT_TRUE(parsed.has_value());
    if (parsed->meter == "house_b") {
      ASSERT_NE(parsed->symbol, kStoreGapSymbol);
      parsed->symbol = static_cast<uint16_t>(
          parsed->symbol < 10 ? (parsed->symbol + 1) % 10
                              : 10 + (parsed->symbol - 9) % 6);
      swapped = parsed->symbol;
    }
    records.push_back(CurrentRecordJson(*parsed));
  }
  const std::string rewritten = io::BuildAppendLog(records);
  ASSERT_EQ(rewritten.size(), fs::file_size(tab));
  ASSERT_NE(rewritten, io::ReadFileToString(tab).value());
  auto before_b = (*store)->Latest("house_b");
  ASSERT_TRUE(before_b.ok());
  ASSERT_NE(before_b->symbol, swapped);
  ASSERT_TRUE(io::AtomicWriteFile(tab, rewritten).ok());
  auto after_b = (*store)->Latest("house_b");
  ASSERT_TRUE(after_b.ok());
  EXPECT_EQ(after_b->symbol, swapped);
}

// --- crash convergence through the fault seams -----------------------------

TEST(ArchiveStoreFaults, KilledBuildConvergesOnRerun) {
  // Fail each store.* write seam at several call numbers; the interrupted
  // build leaves only atomic artifacts, and a clean rerun produces a store
  // byte-identical to one never interrupted.
  const std::string root = Scratch("kill_build");
  auto fleet = TestFleet();
  WriteArchive(root + "/archive", fleet);
  ASSERT_TRUE(BuildArchiveStore(root + "/archive", root + "/clean").ok());
  const std::map<std::string, std::string> want =
      SnapshotDir(root + "/clean");

  int trial = 0;
  const std::map<std::string, std::vector<int>> seam_calls = {
      {"store.segment.write", {1, 2}},
      {"store.rollup.write", {1, 2}},
      {"store.index.write", {1}},  // the index is one atomic write
  };
  for (const auto& [seam, calls] : seam_calls) {
    for (int call : calls) {
      const std::string store_dir =
          root + "/store_" + std::to_string(trial++);
      {
        fault::ScopedFaultPlan plan(
            {fault::FaultRule::FailCalls(seam, call, call)});
        auto killed = BuildArchiveStore(root + "/archive", store_dir);
        ASSERT_FALSE(killed.ok()) << seam << " call " << call;
      }
      auto report = BuildArchiveStore(root + "/archive", store_dir);
      ASSERT_TRUE(report.ok()) << seam << " call " << call;
      EXPECT_EQ(SnapshotDir(store_dir), want) << seam << " call " << call;
    }
  }
}

TEST(ArchiveStoreFaults, SegmentReadFailureSurfacesWithoutCorruption) {
  const std::string root = Scratch("read_seam");
  WriteArchive(root + "/archive", TestFleet());
  ASSERT_TRUE(BuildArchiveStore(root + "/archive", root + "/store").ok());
  auto store = ArchiveStore::Open(root + "/store");
  ASSERT_TRUE(store.ok());
  {
    fault::ScopedFaultPlan plan(
        {fault::FaultRule::FailCalls("store.segment.read", 1, 1)});
    auto scan = (*store)->Scan("house_a", {0, 10'000'000}, 0, 1000);
    EXPECT_FALSE(scan.ok());
  }
  // The store object survives an injected read failure.
  auto scan = (*store)->Scan("house_a", {0, 10'000'000}, 0, 1000);
  EXPECT_TRUE(scan.ok());

  // Real damage: flip a byte inside house_b's record in partition 1's
  // pack. fsck names the partition and the meter; --repair cuts the record
  // out of the pack, keeps its bytes beside it and drops the stale rollup;
  // store-rollup then brings the store back to clean.
  const std::string pack_path =
      root + "/store/p1/" + std::string(kSegmentPackFile);
  std::string pack = io::ReadFileToString(pack_path).value();
  auto entries = ParseSegmentPack(pack, pack.size());
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  std::string damaged_blob;
  size_t kept_segments = 0;
  for (const PackEntry& entry : *entries) {
    if (entry.meter != "house_b") {
      ++kept_segments;
      continue;
    }
    const size_t at = static_cast<size_t>(entry.offset + entry.size - 1);
    pack[at] = static_cast<char>(pack[at] ^ 0x40);
    damaged_blob = pack.substr(static_cast<size_t>(entry.offset),
                               static_cast<size_t>(entry.size));
  }
  ASSERT_FALSE(damaged_blob.empty());
  ASSERT_TRUE(io::AtomicWriteFile(pack_path, pack).ok());

  auto found = FsckArchive(root + "/store", FsckOptions{});
  ASSERT_TRUE(found.ok());
  bool named = false;
  for (const FsckIssue& issue : found->issues) {
    if (issue.kind == "corrupt_segment") {
      EXPECT_EQ(issue.path, "p1/" + std::string(kSegmentPackFile));
      EXPECT_NE(issue.detail.find("house_b"), std::string::npos)
          << issue.detail;
      named = true;
    }
  }
  EXPECT_TRUE(named);
  EXPECT_EQ(FsckExitCode(*found), 4);

  FsckOptions repair;
  repair.repair = true;
  auto repaired = FsckArchive(root + "/store", repair);
  ASSERT_TRUE(repaired.ok());
  bool stale_flagged = false;
  for (const FsckIssue& issue : repaired->issues) {
    EXPECT_TRUE(issue.repaired) << issue.kind << " " << issue.detail;
    if (issue.kind == "stale_rollup" && issue.path == "p1/rollup.tab") {
      stale_flagged = true;
    }
  }
  EXPECT_TRUE(stale_flagged);
  EXPECT_EQ(FsckExitCode(*repaired), 1);
  EXPECT_EQ(io::ReadFileToString(pack_path + ".house_b.corrupt").value(),
            damaged_blob);
  const std::string rewritten = io::ReadFileToString(pack_path).value();
  auto kept = ParseSegmentPack(rewritten, rewritten.size());
  ASSERT_TRUE(kept.ok()) << kept.status().ToString();
  EXPECT_EQ(kept->size(), kept_segments);
  for (const PackEntry& entry : *kept) EXPECT_NE(entry.meter, "house_b");
  EXPECT_FALSE(fs::exists(root + "/store/p1/" + kRollupTableFile));

  ASSERT_TRUE(RebuildRollups(root + "/store").ok());
  auto clean = FsckArchive(root + "/store", FsckOptions{});
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(clean->clean()) << FsckReportToJson(*clean);
}

TEST(ArchiveStoreFaults, CurrentAppendSeamDegradesNotDies) {
  const std::string root = Scratch("current_seam");
  fs::create_directories(root + "/store");
  auto writer = CurrentTableWriter::Open(root + "/store");
  ASSERT_TRUE(writer.ok());
  CurrentRecord record;
  record.meter = "m";
  record.timestamp = 1;
  record.level = 1;
  record.symbol = 0;
  {
    fault::ScopedFaultPlan plan(
        {fault::FaultRule::FailCalls("store.current.append", 1, 1)});
    EXPECT_FALSE((*writer)->Update(record).ok());
  }
  record.timestamp = 2;
  EXPECT_TRUE((*writer)->Update(record).ok());
  ASSERT_TRUE((*writer)->Close().ok());
}

}  // namespace
}  // namespace smeter
