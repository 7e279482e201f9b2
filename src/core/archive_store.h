// The partitioned symbolic archive store: the read path over the v3
// framed archive the ingest daemon and encode-fleet write.
//
// A store directory is derived data, rebuilt deterministically from an
// archive directory (per-meter .table/.symbols + fleet.manifest):
//
//   <store>/store.index        append log (io framing, per-record CRC32C):
//                              one JSON header record {"format","psec"}
//                              then one JSON record per partition
//   <store>/p<id>/segments.pack
//                              every meter's slice of that time partition,
//                              each re-packed as a v3 framed blob (every
//                              byte checksummed), in one file: magic "SMPK",
//                              u32 directory length, a directory sorted by
//                              meter (LEB128 count; per entry u8 name
//                              length, name, LEB128 blob length), a CRC32C
//                              over all of that, then the blobs back to
//                              back in directory order. One atomic write
//                              per partition
//   <store>/p<id>/rollup.tab   append log of per-meter JSON rollup rows
//   <store>/current.tab        append log: compacted "latest symbol per
//                              meter" table
//   <store>/current.log        append log: incremental current-value
//                              updates from a live ingest daemon
//
// Partitioning: partition id = floor(timestamp / partition_seconds), so a
// partition covers [id*P, (id+1)*P). Retention is dropping whole partition
// directories and rewriting the index — no per-record deletes, no
// compaction.
//
// Rollups lean on the paper's hierarchy invariant (Section 4): a symbol at
// level k is the k-bit prefix of the same window's symbol at any finer
// level, and a GAP coarsens to a GAP. A rollup row therefore stores only
// the native-level histogram; the histogram at every coarser level k is a
// fold (bucket j at level L sums into bucket j >> (L-k)), bit-identical to
// re-encoding the raw values at level k. No decode, no raw data, no
// per-level storage.
//
// Queries (ArchiveStore):
//   Latest()    — hot current table, refreshed from current.log so a live
//                 ingest daemon's appends are visible without reopening
//   Scan()      — per-meter range scan at a requested level: per
//                 overlapping partition, the pack's directory and then only
//                 the meter's blob (pread), prefix truncation to the
//                 requested level, missing partitions gap-filled so the
//                 cadence grid never silently skips time
//   Aggregate() — fleet-wide histogram over a window: partitions fully
//                 inside the window are served from rollup rows (one file
//                 per partition, no segment reads); a partial edge
//                 partition is one pack read, each meter's blob folded
//                 straight into the histogram (FoldFramedSeries), clipped
//                 to the window
//
// Fault seams: store.segment.write (one per pack), store.rollup.write,
// store.index.write (builder), store.segment.read (query path, once per
// segment), store.current.append (ingest-time current-table update). Each
// is exercised by a test — tools/lint_invariants.py enforces that.
//
// A store of the per-meter .seg layout that preceded the packs is refused
// at Open ("rebuild with store-build"); rerunning store-build writes its
// packs.
//
// Concurrency: ArchiveStore is single-threaded (the query daemon runs one
// loop thread); CurrentTable::Update is mutex-guarded because ingest
// shards call it concurrently.

#ifndef SMETER_CORE_ARCHIVE_STORE_H_
#define SMETER_CORE_ARCHIVE_STORE_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/io.h"
#include "common/status.h"
#include "common/sync.h"
#include "core/symbolic_series.h"
#include "core/time_series.h"

namespace smeter {

// File names inside a store directory.
inline constexpr char kStoreIndexFile[] = "store.index";
inline constexpr char kCurrentTableFile[] = "current.tab";
inline constexpr char kCurrentLogFile[] = "current.log";
inline constexpr char kRollupTableFile[] = "rollup.tab";
// Partition directory prefix: "p" + decimal partition id.
inline constexpr char kPartitionDirPrefix[] = "p";
// The one segment pack inside a partition directory.
inline constexpr char kSegmentPackFile[] = "segments.pack";
// Longest meter name a pack directory entry holds (u8 length);
// BuildArchiveStore skips meters with longer names.
inline constexpr size_t kMaxPackMeterName = 255;

// On-store u16 encoding of the GAP symbol in Scan results and current
// records (value symbols are their alphabet index, < 2^12).
inline constexpr uint16_t kStoreGapSymbol = 0xffff;

// True iff `name` looks like a partition directory ("p<decimal id>",
// possibly negative). Exposed for fsck's store walk.
bool IsPartitionDirName(const std::string& name,
                        int64_t* id_out = nullptr);

// Partition id covering `timestamp` for the given partition length.
// Floor division, so pre-epoch timestamps land in negative partitions
// instead of sharing partition 0 with the first post-epoch day.
int64_t PartitionIdFor(Timestamp timestamp, int64_t partition_seconds);

// Folds a native-level histogram down to `to_level` by bucket-prefix
// summation — the storage-side mirror of Symbol::Coarsen. Contract
// (checked): hist.size() == 2^from_level, 1 <= to_level <= from_level.
std::vector<uint64_t> FoldHistogram(const std::vector<uint64_t>& hist,
                                    int from_level, int to_level);

// One segment of a partition pack, as its directory records it.
struct PackEntry {
  std::string_view meter;  // points into the bytes the pack was parsed from
  uint64_t offset = 0;     // of the v3 blob, from the start of the pack
  uint64_t size = 0;       // blob bytes
};

// Serializes one partition pack from (meter, v3 blob) pairs. Contract
// (checked): meters strictly ascending, 1..kMaxPackMeterName bytes each.
std::string BuildSegmentPack(
    const std::vector<std::pair<std::string, std::string>>& segments);

// Parses and checks a pack's directory. `head` holds at least the pack's
// first bytes through the directory CRC (the whole pack is fine);
// `file_size` is the pack's full size. kDataLoss on a bad magic, a torn
// directory, a directory CRC mismatch, a malformed or unsorted entry, or
// blob lengths that do not exactly fill the rest of the file. The blobs
// themselves are not read; each carries its own v3 checksums.
Result<std::vector<PackEntry>> ParseSegmentPack(std::string_view head,
                                                uint64_t file_size);

// One per-meter, per-partition rollup row. Histogram is at the meter's
// native level; coarser levels are FoldHistogram away.
struct RollupRow {
  std::string meter;
  int level = 1;
  Timestamp start = 0;      // first slot timestamp in the partition
  int64_t step = 0;         // slot cadence (0 for a single-slot segment,
                            // matching the packed header convention)
  uint64_t windows = 0;     // total slots, gaps included
  uint64_t gaps = 0;        // GAP slots
  std::vector<uint64_t> histogram;  // size 2^level, value symbols only

  friend bool operator==(const RollupRow& a, const RollupRow& b) {
    return a.meter == b.meter && a.level == b.level && a.start == b.start &&
           a.step == b.step && a.windows == b.windows && a.gaps == b.gaps &&
           a.histogram == b.histogram;
  }
};

// JSON (de)serialization of one rollup row; the record travels inside the
// append-log framing. Deterministic field order, so rebuilt rollup tables
// are byte-identical to incrementally built ones.
std::string RollupRowRecord(const RollupRow& row);
std::optional<RollupRow> ParseRollupRow(const std::string& record);

// One partition's index entry.
struct PartitionInfo {
  int64_t id = 0;
  Timestamp start = 0;  // id * partition_seconds
  Timestamp end = 0;    // (id + 1) * partition_seconds
  uint64_t meters = 0;  // segments in the partition
  uint64_t segment_bytes = 0;
};

// The "latest symbol per meter" hot-table record.
struct CurrentRecord {
  std::string meter;
  Timestamp timestamp = 0;
  int level = 1;
  uint16_t symbol = 0;  // alphabet index, or kStoreGapSymbol

  friend bool operator==(const CurrentRecord& a, const CurrentRecord& b) {
    return a.meter == b.meter && a.timestamp == b.timestamp &&
           a.level == b.level && a.symbol == b.symbol;
  }
};

std::string CurrentRecordJson(const CurrentRecord& record);
std::optional<CurrentRecord> ParseCurrentRecord(const std::string& record);

// Ingest-side writer for the hot current table: appends one record per
// completed session to <dir>/current.log (fsynced, CRC-framed), so a
// query daemon reading the same directory sees new values without any
// shared state. Thread-safe (ingest shards complete sessions
// concurrently).
class CurrentTableWriter {
 public:
  // Creates <dir>/current.log (empty framed log) if absent and opens it
  // for appending.
  static Result<std::unique_ptr<CurrentTableWriter>> Open(
      const std::string& dir);

  // Appends one update. Fault seam: store.current.append. A failure is
  // reported but must degrade, not kill ingest — the current table is
  // derived data, rebuilt by the next store-build.
  Status Update(const CurrentRecord& record);

  Status Close();

 private:
  explicit CurrentTableWriter(const std::string& dir);

  const std::string log_path_;
  Mutex mutex_;
  // Non-copyable writer lives behind optional so Open can build in place.
  std::optional<io::AppendLogWriter> log_ GUARDED_BY(mutex_);
};

struct StoreBuildOptions {
  // Partition length in seconds; kSecondsPerDay for daily partitions,
  // 30 * kSecondsPerDay for the coarse monthly layout.
  int64_t partition_seconds = kSecondsPerDay;
  // v3 block size for re-packed segments.
  size_t max_block_slots = 4096;
};

struct StoreBuildReport {
  size_t meters = 0;
  size_t partitions = 0;
  uint64_t segments_written = 0;
  uint64_t segment_bytes = 0;
  // Meters whose .symbols blob failed to parse; skipped, not fatal (the
  // archive's own fsck handles them).
  size_t meters_skipped = 0;
};

// Builds (or deterministically rebuilds) a store from an archive
// directory. Reads every <meter>.symbols under `archive_dir`, slices each
// series into partitions, writes one segment pack per partition, then the
// per-partition rollup tables, the index, and the compacted current table.
// All writes are atomic and the output is a pure function of the archive
// contents, so a build killed at any point converges to the identical
// store when re-run.
Result<StoreBuildReport> BuildArchiveStore(
    const std::string& archive_dir, const std::string& store_dir,
    const StoreBuildOptions& options = {});

// Recomputes every partition's rollup.tab from its segment pack —
// byte-identical to what BuildArchiveStore wrote (the convergence drill
// CI verifies). Returns the number of rollup tables rewritten.
Result<size_t> RebuildRollups(const std::string& store_dir);

// Retention: removes every partition whose whole range ends at or before
// `cutoff` and rewrites the index. Returns partitions dropped.
Result<size_t> DropPartitionsBefore(const std::string& store_dir,
                                    Timestamp cutoff);

// A point-lookup result.
struct PointValue {
  Timestamp timestamp = 0;
  int level = 1;
  uint16_t symbol = 0;  // kStoreGapSymbol for a GAP
};

// A range-scan result: a fixed-cadence run of u16 symbols at the
// requested level starting at start_timestamp.
struct RangeScanResult {
  Timestamp start_timestamp = 0;
  int64_t step_seconds = 0;
  int level = 1;
  std::vector<uint16_t> symbols;
  bool truncated = false;  // hit the caller's max_symbols cap
};

// A fleet-wide aggregate over a time window.
struct FleetAggregate {
  int level = 1;
  uint64_t meters = 0;          // meters contributing >= 1 window
  uint64_t meters_coarser = 0;  // excluded: native level coarser than the
                                // requested one (cannot be refined)
  uint64_t windows = 0;         // total windows, gaps included
  uint64_t gaps = 0;
  std::vector<uint64_t> histogram;  // size 2^level
  // Observability: how the aggregate was served.
  uint32_t rollup_partitions = 0;   // served from rollup rows alone
  uint32_t scanned_partitions = 0;  // edge partitions that needed segments
};

// Identity of one version of a file — (inode, size, mtime) — as the store
// uses it to tell whether a file it read has changed since.
struct FileSignature {
  bool exists = false;
  uint64_t inode = 0;
  int64_t size = 0;
  int64_t mtime_ns = 0;
  friend bool operator==(const FileSignature& a, const FileSignature& b) {
    return a.exists == b.exists && a.inode == b.inode && a.size == b.size &&
           a.mtime_ns == b.mtime_ns;
  }
};

struct ArchiveStoreOptions {
  // Where the current table lives; empty means the store directory
  // itself. A query daemon co-serving a live ingest points this at the
  // ingest daemon's current-table directory.
  std::string current_dir;
};

// Read-only view over a store directory. Partitions and rollups are the
// static snapshot the last BuildArchiveStore produced; the current table
// is re-read from current.log whenever the log grows, so point lookups
// track a live ingest daemon.
class ArchiveStore {
 public:
  static Result<std::unique_ptr<ArchiveStore>> Open(
      const std::string& store_dir, const ArchiveStoreOptions& options = {});

  // The cached pack directories hold views into the store's own buffers.
  ArchiveStore(const ArchiveStore&) = delete;
  ArchiveStore& operator=(const ArchiveStore&) = delete;

  const std::vector<PartitionInfo>& partitions() const { return partitions_; }
  int64_t partition_seconds() const { return partition_seconds_; }
  const std::string& dir() const { return dir_; }

  // Latest symbol for `meter` from the hot current table (refreshing from
  // current.log first). NotFound when the meter has never reported.
  Result<PointValue> Latest(const std::string& meter);

  // The meter's symbols in [range.begin, range.end) at `level` (0 = the
  // meter's native level; otherwise must be <= native). Missing
  // partitions inside the covered span are returned as GAP runs so the
  // cadence grid stays intact. At most `max_symbols` symbols are
  // returned; the result is flagged truncated beyond that. NotFound when
  // no partition holds any data for the meter in range.
  Result<RangeScanResult> Scan(const std::string& meter, TimeRange range,
                               int level, size_t max_symbols);

  // Fleet-wide aggregate over [range.begin, range.end) at `level` in
  // [1, kMaxSymbolLevel]. Partitions fully covered by the range are
  // folded from rollup rows; an edge partition's pack is read once and
  // each meter's blob folded, clipped to the range.
  Result<FleetAggregate> Aggregate(TimeRange range, int level);

  // Number of distinct meters in the current table (after refresh);
  // operator/stats surface.
  size_t CurrentMeters();

  // Cumulative read-path counters (for stats dumps and tests).
  uint64_t segments_read() const { return segments_read_; }
  uint64_t current_refreshes() const { return current_refreshes_; }

 private:
  ArchiveStore(std::string dir, std::string current_dir,
               int64_t partition_seconds,
               std::vector<PartitionInfo> partitions);

  // One pack directory Scan has read, valid while the pack keeps the
  // signature it was read at.
  struct PackDirectory {
    int64_t partition_id = 0;
    FileSignature signature;
    std::string head;                // the pack through its directory CRC
    std::vector<PackEntry> entries;  // views into `head`
    uint64_t last_used = 0;          // 0: empty slot
  };
  // Directories of this many partitions at most stay parsed, enough for a
  // week-long Scan over daily partitions.
  static constexpr size_t kPackDirectorySlots = 8;

  // Re-reads current.tab + current.log when either file's (inode, size,
  // mtime) signature changed.
  Status RefreshCurrent();
  // Loads (and caches) one partition's rollup rows.
  Result<const std::vector<RollupRow>*> Rollups(int64_t partition_id);
  // The directory of the pack open as `fd`: from the slots when its
  // signature still matches, else read (prefix, then directory) and parsed
  // into the least recently used slot.
  Result<const PackDirectory*> PackDirectoryFor(
      int64_t partition_id, int fd, const FileSignature& signature,
      const std::string& path);
  // Reads one segment out of the partition's pack (the directory, then
  // only that blob, by pread) and unpacks it; NotFound when the meter has
  // no segment in the partition. Fault seam: store.segment.read.
  Result<SymbolicSeries> ReadSegment(int64_t partition_id,
                                     const std::string& meter);
  std::string PartitionDir(int64_t partition_id) const;
  std::string PackPath(int64_t partition_id) const;

  const std::string dir_;
  const std::string current_dir_;
  int64_t partition_seconds_;
  std::vector<PartitionInfo> partitions_;  // sorted by id
  std::map<int64_t, std::vector<RollupRow>> rollup_cache_;
  std::map<std::string, CurrentRecord> current_;
  // current.tab and current.log as of the last refresh.
  std::array<FileSignature, 2> current_seen_;
  // Fixed size (never reallocated, so entries' views stay valid).
  std::vector<PackDirectory> pack_directories_ =
      std::vector<PackDirectory>(kPackDirectorySlots);
  uint64_t directory_clock_ = 0;
  uint64_t segments_read_ = 0;
  uint64_t current_refreshes_ = 0;
};

}  // namespace smeter

#endif  // SMETER_CORE_ARCHIVE_STORE_H_
