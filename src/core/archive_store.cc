#include "core/archive_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cerrno>
#include <filesystem>
#include <iterator>
#include <string_view>
#include <utility>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/string_util.h"
#include "core/codec.h"
#include "core/symbol.h"

namespace smeter {
namespace {

namespace fs = std::filesystem;

std::string JsonEscape(const std::string& value) {
  std::string out;
  for (char c : value) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::optional<std::string> JsonStringField(const std::string& record,
                                           const std::string& key) {
  const std::string marker = "\"" + key + "\":\"";
  size_t start = record.find(marker);
  if (start == std::string::npos) return std::nullopt;
  start += marker.size();
  std::string value;
  for (size_t i = start; i < record.size(); ++i) {
    if (record[i] == '\\' && i + 1 < record.size()) {
      value.push_back(record[++i]);
    } else if (record[i] == '"') {
      return value;
    } else {
      value.push_back(record[i]);
    }
  }
  return std::nullopt;
}

std::optional<int64_t> JsonIntField(const std::string& record,
                                    const std::string& key) {
  const std::string marker = "\"" + key + "\":";
  size_t start = record.find(marker);
  if (start == std::string::npos) return std::nullopt;
  start += marker.size();
  size_t end = start;
  while (end < record.size() &&
         (std::isdigit(static_cast<unsigned char>(record[end])) ||
          record[end] == '-')) {
    ++end;
  }
  if (end == start) return std::nullopt;
  Result<int64_t> parsed = ParseInt(record.substr(start, end - start));
  if (!parsed.ok()) return std::nullopt;
  return *parsed;
}

// The bracketed uint64 list of a histogram field, e.g. "h":[1,0,3].
std::optional<std::vector<uint64_t>> JsonUintListField(
    const std::string& record, const std::string& key) {
  const std::string marker = "\"" + key + "\":[";
  size_t pos = record.find(marker);
  if (pos == std::string::npos) return std::nullopt;
  pos += marker.size();
  std::vector<uint64_t> values;
  std::string digits;
  for (; pos < record.size(); ++pos) {
    const char c = record[pos];
    if (std::isdigit(static_cast<unsigned char>(c))) {
      digits.push_back(c);
      continue;
    }
    if (c == ',' || c == ']') {
      if (!digits.empty()) {
        Result<int64_t> parsed = ParseInt(digits);
        if (!parsed.ok() || *parsed < 0) return std::nullopt;
        values.push_back(static_cast<uint64_t>(*parsed));
        digits.clear();
      } else if (c == ',') {
        return std::nullopt;  // ",," or "[," — malformed
      }
      if (c == ']') return values;
      continue;
    }
    return std::nullopt;  // anything else inside the list is malformed
  }
  return std::nullopt;  // unterminated list
}

// The store-index header record, first in store.index.
std::string IndexHeaderRecord(int64_t partition_seconds) {
  return "{\"format\":1,\"psec\":" + std::to_string(partition_seconds) + "}";
}

std::string PartitionRecord(const PartitionInfo& info) {
  return "{\"partition\":" + std::to_string(info.id) +
         ",\"start\":" + std::to_string(info.start) +
         ",\"end\":" + std::to_string(info.end) +
         ",\"meters\":" + std::to_string(info.meters) +
         ",\"segment_bytes\":" + std::to_string(info.segment_bytes) + "}";
}

std::optional<PartitionInfo> ParsePartitionRecord(const std::string& record) {
  std::optional<int64_t> id = JsonIntField(record, "partition");
  std::optional<int64_t> start = JsonIntField(record, "start");
  std::optional<int64_t> end = JsonIntField(record, "end");
  std::optional<int64_t> meters = JsonIntField(record, "meters");
  std::optional<int64_t> bytes = JsonIntField(record, "segment_bytes");
  if (!id || !start || !end || !meters || !bytes || *meters < 0 ||
      *bytes < 0) {
    return std::nullopt;
  }
  PartitionInfo info;
  info.id = *id;
  info.start = *start;
  info.end = *end;
  info.meters = static_cast<uint64_t>(*meters);
  info.segment_bytes = static_cast<uint64_t>(*bytes);
  return info;
}

Status EnsureDir(const std::string& dir) {
  std::error_code error;
  fs::create_directories(dir, error);
  if (error) {
    return InternalError("cannot create " + dir + ": " + error.message());
  }
  return Status::Ok();
}

// --- segment pack ----------------------------------------------------------
//
//   magic "SMPK" | u32le directory bytes | directory | u32le crc32c of all
//   the bytes before it | the v3 blobs back to back, in directory order
//
// The directory is a LEB128 entry count, then per entry a u8 meter-name
// length, the name, and the LEB128 blob length; names strictly ascend.
// Blob offsets are the prefix sums of the lengths after the CRC, and the
// lengths fill the file exactly. Blobs carry their own header and block
// CRCs, so the pack adds no per-record checksum.

constexpr char kPackMagic[4] = {'S', 'M', 'P', 'K'};
constexpr size_t kPackPrefixBytes = sizeof(kPackMagic) + 4;
constexpr size_t kPackCrcBytes = 4;

void AppendU32Le(std::string& out, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xffu));
  }
}

uint32_t ReadU32Le(std::string_view bytes, size_t offset) {
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(static_cast<unsigned char>(
                 bytes[offset + static_cast<size_t>(i)]))
             << (8 * i);
  }
  return value;
}

void AppendLeb128(std::string& out, uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
}

// Reads a minimal-length LEB128 value of at most 64 bits from
// bytes[*pos, end); false on a value that runs past `end`, overflows, or
// has a redundant zero final byte (so every pack has one encoding).
bool ReadLeb128(std::string_view bytes, size_t end, size_t* pos,
                uint64_t* value) {
  *value = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (*pos >= end) return false;
    const auto byte = static_cast<unsigned char>(bytes[(*pos)++]);
    const uint64_t bits = byte & 0x7fu;
    if (shift == 63 && bits > 1) return false;
    *value |= bits << shift;
    if ((byte & 0x80u) == 0) return byte != 0 || shift == 0;
  }
  return false;
}

// Bytes from the start of a pack to the end of its directory CRC, read
// from the fixed prefix; the pack's blobs start there.
Result<uint64_t> PackHeadBytes(std::string_view head) {
  if (head.size() < kPackPrefixBytes) {
    return DataLossError("pack shorter than its header");
  }
  if (std::string_view(head.data(), sizeof(kPackMagic)) !=
      std::string_view(kPackMagic, sizeof(kPackMagic))) {
    return DataLossError("bad pack magic");
  }
  return kPackPrefixBytes + uint64_t{ReadU32Le(head, sizeof(kPackMagic))} +
         kPackCrcBytes;
}

// Identity of one version of a file: any rewrite in place, append or
// atomic replace (new inode) changes it.
FileSignature SignatureOf(const struct stat& st) {
  FileSignature signature;
  signature.exists = true;
  signature.inode = static_cast<uint64_t>(st.st_ino);
  signature.size = static_cast<int64_t>(st.st_size);
  signature.mtime_ns =
      int64_t{st.st_mtim.tv_sec} * 1'000'000'000 + st.st_mtim.tv_nsec;
  return signature;
}

// Closes a descriptor on scope exit.
class ScopedFd {
 public:
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd() {
    if (fd_ >= 0) ::close(fd_);
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;
  int get() const { return fd_; }

 private:
  int fd_;
};

// Appends bytes [offset, offset + size) of `fd` to `out`.
Status PreadAppend(int fd, uint64_t offset, uint64_t size,
                   const std::string& path, std::string* out) {
  const size_t base = out->size();
  out->resize(base + size);
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::pread(fd, out->data() + base + done, size - done,
                              static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return ErrnoError("cannot read " + path);
    if (n == 0) {
      return DataLossError("pack shorter than its directory says: " + path);
    }
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

// The slot cadence a packed segment would record: the slice-local step, or
// 0 for a single-slot segment (matching the codec header convention, so
// rollups rebuilt from unpacked segments are bit-identical).
int64_t SliceStep(const SymbolicSeries& slice) {
  if (slice.size() < 2) return 0;
  return slice[1].timestamp - slice[0].timestamp;
}

RollupRow RollupFromSlice(const std::string& meter,
                          const SymbolicSeries& slice) {
  RollupRow row;
  row.meter = meter;
  row.level = slice.level();
  row.start = slice.empty() ? 0 : slice[0].timestamp;
  row.step = SliceStep(slice);
  row.windows = slice.size();
  row.gaps = slice.GapCount();
  std::vector<size_t> hist = slice.Histogram();
  row.histogram.assign(hist.begin(), hist.end());
  return row;
}

// Lists the meters of an archive directory: every *.symbols stem, sorted,
// so the build order (and therefore every store byte) is deterministic.
Result<std::vector<std::string>> ListArchiveMeters(
    const std::string& archive_dir) {
  std::error_code error;
  if (!fs::is_directory(archive_dir, error) || error) {
    return NotFoundError("not a directory: " + archive_dir);
  }
  std::vector<std::string> meters;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(archive_dir, error)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    const std::string suffix = ".symbols";
    if (name.size() <= suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    meters.push_back(name.substr(0, name.size() - suffix.size()));
  }
  if (error) {
    return InternalError("cannot walk " + archive_dir + ": " +
                         error.message());
  }
  std::sort(meters.begin(), meters.end());
  return meters;
}

// Lists the partition ids present on disk (p<id> directories), sorted.
Result<std::vector<int64_t>> ListPartitionDirs(const std::string& store_dir) {
  std::error_code error;
  if (!fs::is_directory(store_dir, error) || error) {
    return NotFoundError("not a directory: " + store_dir);
  }
  std::vector<int64_t> ids;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(store_dir, error)) {
    if (!entry.is_directory()) continue;
    int64_t id = 0;
    if (IsPartitionDirName(entry.path().filename().string(), &id)) {
      ids.push_back(id);
    }
  }
  if (error) {
    return InternalError("cannot walk " + store_dir + ": " + error.message());
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

// Builds rollup.tab bytes from rows (sorted by meter for determinism).
std::string BuildRollupLog(std::vector<RollupRow> rows) {
  std::sort(rows.begin(), rows.end(),
            [](const RollupRow& a, const RollupRow& b) {
              return a.meter < b.meter;
            });
  std::vector<std::string> records;
  records.reserve(rows.size());
  for (const RollupRow& row : rows) {
    records.push_back(RollupRowRecord(row));
  }
  return io::BuildAppendLog(records);
}

}  // namespace

std::string BuildSegmentPack(
    const std::vector<std::pair<std::string, std::string>>& segments) {
  std::string directory;
  AppendLeb128(directory, segments.size());
  for (size_t i = 0; i < segments.size(); ++i) {
    const std::string& meter = segments[i].first;
    SMETER_CHECK(!meter.empty() && meter.size() <= kMaxPackMeterName);
    SMETER_CHECK(i == 0 || segments[i - 1].first < meter);
    directory.push_back(static_cast<char>(meter.size()));
    directory += meter;
    AppendLeb128(directory, segments[i].second.size());
  }
  SMETER_CHECK_LE(directory.size(), size_t{UINT32_MAX});
  std::string out(kPackMagic, sizeof(kPackMagic));
  AppendU32Le(out, static_cast<uint32_t>(directory.size()));
  out += directory;
  AppendU32Le(out, io::Crc32c(out));
  for (const auto& segment : segments) out += segment.second;
  return out;
}

Result<std::vector<PackEntry>> ParseSegmentPack(std::string_view head,
                                                uint64_t file_size) {
  Result<uint64_t> head_bytes = PackHeadBytes(head);
  if (!head_bytes.ok()) return head_bytes.status();
  if (*head_bytes > file_size || *head_bytes > head.size()) {
    return DataLossError("torn pack directory");
  }
  const size_t crc_at = static_cast<size_t>(*head_bytes) - kPackCrcBytes;
  if (io::Crc32c(head.substr(0, crc_at)) != ReadU32Le(head, crc_at)) {
    return DataLossError("pack directory checksum mismatch");
  }
  size_t pos = kPackPrefixBytes;
  uint64_t count = 0;
  // Every entry takes at least two bytes, so a count beyond half the
  // directory is damage, caught before anything is allocated from it.
  if (!ReadLeb128(head, crc_at, &pos, &count) ||
      count > (crc_at - kPackPrefixBytes) / 2) {
    return DataLossError("malformed pack entry count");
  }
  std::vector<PackEntry> entries;
  entries.reserve(static_cast<size_t>(count));
  uint64_t offset = *head_bytes;
  for (uint64_t i = 0; i < count; ++i) {
    const size_t name_size =
        pos < crc_at ? static_cast<unsigned char>(head[pos++]) : 0;
    if (name_size == 0 || name_size > crc_at - pos) {
      return DataLossError("malformed pack entry " + std::to_string(i));
    }
    PackEntry entry;
    entry.meter = std::string_view(head.data() + pos, name_size);
    pos += name_size;
    if (!ReadLeb128(head, crc_at, &pos, &entry.size) ||
        entry.size > file_size - offset) {
      return DataLossError("pack entry " + std::to_string(i) +
                           " runs past the end of the pack");
    }
    if (!entries.empty() && entries.back().meter >= entry.meter) {
      return DataLossError("pack directory is not sorted by meter");
    }
    entry.offset = offset;
    offset += entry.size;
    entries.push_back(entry);
  }
  if (pos != crc_at) {
    return DataLossError("trailing bytes in pack directory");
  }
  if (offset != file_size) {
    return DataLossError("pack has bytes after its last segment");
  }
  return entries;
}

bool IsPartitionDirName(const std::string& name, int64_t* id_out) {
  const std::string prefix = kPartitionDirPrefix;
  if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix)) {
    return false;
  }
  const std::string digits = name.substr(prefix.size());
  size_t i = digits[0] == '-' ? 1 : 0;
  if (i >= digits.size()) return false;
  for (; i < digits.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(digits[i]))) return false;
  }
  Result<int64_t> parsed = ParseInt(digits);
  if (!parsed.ok()) return false;
  if (id_out != nullptr) *id_out = *parsed;
  return true;
}

int64_t PartitionIdFor(Timestamp timestamp, int64_t partition_seconds) {
  SMETER_CHECK_GT(partition_seconds, 0);
  int64_t q = timestamp / partition_seconds;
  if (timestamp % partition_seconds != 0 && timestamp < 0) --q;
  return q;
}

std::vector<uint64_t> FoldHistogram(const std::vector<uint64_t>& hist,
                                    int from_level, int to_level) {
  SMETER_CHECK_GE(to_level, 1);
  SMETER_CHECK_LE(to_level, from_level);
  SMETER_CHECK_EQ(hist.size(), size_t{1} << from_level);
  const int shift = from_level - to_level;
  std::vector<uint64_t> folded(size_t{1} << to_level, 0);
  for (size_t i = 0; i < hist.size(); ++i) {
    folded[i >> shift] += hist[i];
  }
  return folded;
}

std::string RollupRowRecord(const RollupRow& row) {
  std::string out = "{\"meter\":\"" + JsonEscape(row.meter) +
                    "\",\"level\":" + std::to_string(row.level) +
                    ",\"start\":" + std::to_string(row.start) +
                    ",\"step\":" + std::to_string(row.step) +
                    ",\"windows\":" + std::to_string(row.windows) +
                    ",\"gaps\":" + std::to_string(row.gaps) + ",\"hist\":[";
  for (size_t i = 0; i < row.histogram.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += std::to_string(row.histogram[i]);
  }
  out += "]}";
  return out;
}

std::optional<RollupRow> ParseRollupRow(const std::string& record) {
  std::optional<std::string> meter = JsonStringField(record, "meter");
  std::optional<int64_t> level = JsonIntField(record, "level");
  std::optional<int64_t> start = JsonIntField(record, "start");
  std::optional<int64_t> step = JsonIntField(record, "step");
  std::optional<int64_t> windows = JsonIntField(record, "windows");
  std::optional<int64_t> gaps = JsonIntField(record, "gaps");
  std::optional<std::vector<uint64_t>> hist =
      JsonUintListField(record, "hist");
  if (!meter || !level || !start || !step || !windows || !gaps || !hist) {
    return std::nullopt;
  }
  if (*level < 1 || *level > kMaxSymbolLevel ||
      hist->size() != (size_t{1} << *level) || *windows < 0 || *gaps < 0 ||
      *gaps > *windows) {
    return std::nullopt;
  }
  RollupRow row;
  row.meter = std::move(*meter);
  row.level = static_cast<int>(*level);
  row.start = *start;
  row.step = *step;
  row.windows = static_cast<uint64_t>(*windows);
  row.gaps = static_cast<uint64_t>(*gaps);
  row.histogram = std::move(*hist);
  return row;
}

std::string CurrentRecordJson(const CurrentRecord& record) {
  return "{\"meter\":\"" + JsonEscape(record.meter) +
         "\",\"ts\":" + std::to_string(record.timestamp) +
         ",\"level\":" + std::to_string(record.level) +
         ",\"symbol\":" + std::to_string(record.symbol) + "}";
}

std::optional<CurrentRecord> ParseCurrentRecord(const std::string& record) {
  std::optional<std::string> meter = JsonStringField(record, "meter");
  std::optional<int64_t> ts = JsonIntField(record, "ts");
  std::optional<int64_t> level = JsonIntField(record, "level");
  std::optional<int64_t> symbol = JsonIntField(record, "symbol");
  if (!meter || !ts || !level || !symbol) return std::nullopt;
  if (*level < 1 || *level > kMaxSymbolLevel || *symbol < 0 ||
      *symbol > kStoreGapSymbol ||
      (*symbol != kStoreGapSymbol && *symbol >= (int64_t{1} << *level))) {
    return std::nullopt;
  }
  CurrentRecord out;
  out.meter = std::move(*meter);
  out.timestamp = *ts;
  out.level = static_cast<int>(*level);
  out.symbol = static_cast<uint16_t>(*symbol);
  return out;
}

// --- CurrentTableWriter -----------------------------------------------------

CurrentTableWriter::CurrentTableWriter(const std::string& dir)
    : log_path_(dir + "/" + kCurrentLogFile) {}

Result<std::unique_ptr<CurrentTableWriter>> CurrentTableWriter::Open(
    const std::string& dir) {
  SMETER_RETURN_IF_ERROR(EnsureDir(dir));
  const std::string path = dir + "/" + kCurrentLogFile;
  std::error_code error;
  if (!fs::exists(path, error)) {
    SMETER_RETURN_IF_ERROR(io::AtomicWriteFile(path, io::BuildAppendLog({})));
  }
  Result<io::AppendLogWriter> log = io::AppendLogWriter::OpenForAppend(path);
  if (!log.ok()) return log.status();
  auto writer = std::unique_ptr<CurrentTableWriter>(
      new CurrentTableWriter(dir));
  MutexLock lock(writer->mutex_);
  writer->log_.emplace(std::move(*log));
  return writer;
}

Status CurrentTableWriter::Update(const CurrentRecord& record) {
  SMETER_FAULT_POINT("store.current.append");
  MutexLock lock(mutex_);
  if (!log_.has_value()) {
    return FailedPreconditionError("current log is closed");
  }
  return log_->Append(CurrentRecordJson(record));
}

Status CurrentTableWriter::Close() {
  MutexLock lock(mutex_);
  if (!log_.has_value()) return Status::Ok();
  Status closed = log_->Close();
  log_.reset();
  return closed;
}

// --- builder ----------------------------------------------------------------

Result<StoreBuildReport> BuildArchiveStore(const std::string& archive_dir,
                                           const std::string& store_dir,
                                           const StoreBuildOptions& options) {
  if (options.partition_seconds <= 0) {
    return InvalidArgumentError("partition_seconds must be positive");
  }
  Result<std::vector<std::string>> meters = ListArchiveMeters(archive_dir);
  if (!meters.ok()) return meters.status();
  SMETER_RETURN_IF_ERROR(EnsureDir(store_dir));

  StoreBuildReport report;
  // Per-partition accumulation: (meter, v3 blob) pairs for the pack, in
  // meter order because the meters are; rollup rows; index stats.
  std::map<int64_t, std::vector<std::pair<std::string, std::string>>> packs;
  std::map<int64_t, std::vector<RollupRow>> rollups;
  std::map<int64_t, PartitionInfo> index;
  std::vector<CurrentRecord> current;

  for (const std::string& meter : *meters) {
    Result<std::string> blob =
        io::ReadFileToString(archive_dir + "/" + meter + ".symbols");
    if (!blob.ok()) {
      ++report.meters_skipped;
      continue;
    }
    Result<SymbolicSeries> series = UnpackSymbolicSeries(*blob);
    if (!series.ok()) {
      ++report.meters_skipped;
      continue;
    }
    if (series->empty() || meter.size() > kMaxPackMeterName) {
      ++report.meters_skipped;
      continue;
    }
    ++report.meters;
    const Timestamp first = (*series)[0].timestamp;
    const Timestamp last = (*series)[series->size() - 1].timestamp;
    const int64_t first_id = PartitionIdFor(first, options.partition_seconds);
    const int64_t last_id = PartitionIdFor(last, options.partition_seconds);
    for (int64_t id = first_id; id <= last_id; ++id) {
      TimeRange range;
      range.begin = id * options.partition_seconds;
      range.end = (id + 1) * options.partition_seconds;
      SymbolicSeries slice = series->Slice(range);
      if (slice.empty()) continue;
      Result<std::string> packed =
          PackSymbolicSeriesFramed(slice, options.max_block_slots);
      if (!packed.ok()) return packed.status();
      ++report.segments_written;
      report.segment_bytes += packed->size();
      rollups[id].push_back(RollupFromSlice(meter, slice));
      PartitionInfo& info = index[id];
      info.id = id;
      info.start = range.begin;
      info.end = range.end;
      ++info.meters;
      info.segment_bytes += packed->size();
      packs[id].emplace_back(meter, std::move(*packed));
    }
    CurrentRecord latest;
    latest.meter = meter;
    latest.timestamp = last;
    latest.level = series->level();
    const Symbol& symbol = (*series)[series->size() - 1].symbol;
    latest.symbol = symbol.is_gap()
                        ? kStoreGapSymbol
                        : static_cast<uint16_t>(symbol.index());
    current.push_back(std::move(latest));
  }

  // Every pack is written before any rollup, so a rollup is never older
  // than its partition's pack (fsck's staleness rule).
  for (const auto& [id, segments] : packs) {
    const std::string part_dir =
        store_dir + "/" + kPartitionDirPrefix + std::to_string(id);
    SMETER_RETURN_IF_ERROR(EnsureDir(part_dir));
    SMETER_FAULT_POINT("store.segment.write");
    SMETER_RETURN_IF_ERROR(io::AtomicWriteFile(
        part_dir + "/" + kSegmentPackFile, BuildSegmentPack(segments)));
  }
  for (auto& [id, rows] : rollups) {
    const std::string part_dir =
        store_dir + "/" + kPartitionDirPrefix + std::to_string(id);
    SMETER_FAULT_POINT("store.rollup.write");
    SMETER_RETURN_IF_ERROR(io::AtomicWriteFile(
        part_dir + "/" + kRollupTableFile, BuildRollupLog(std::move(rows))));
  }
  report.partitions = index.size();

  std::vector<std::string> index_records;
  index_records.push_back(IndexHeaderRecord(options.partition_seconds));
  for (const auto& [id, info] : index) {
    index_records.push_back(PartitionRecord(info));
  }
  SMETER_FAULT_POINT("store.index.write");
  SMETER_RETURN_IF_ERROR(io::AtomicWriteFile(
      store_dir + "/" + kStoreIndexFile, io::BuildAppendLog(index_records)));

  // Current table: compacted snapshot (meters already name-sorted), and a
  // fresh empty log — the snapshot supersedes any appended updates.
  std::vector<std::string> current_records;
  current_records.reserve(current.size());
  for (const CurrentRecord& record : current) {
    current_records.push_back(CurrentRecordJson(record));
  }
  SMETER_RETURN_IF_ERROR(
      io::AtomicWriteFile(store_dir + "/" + kCurrentTableFile,
                          io::BuildAppendLog(current_records)));
  SMETER_RETURN_IF_ERROR(io::AtomicWriteFile(
      store_dir + "/" + kCurrentLogFile, io::BuildAppendLog({})));
  return report;
}

Result<size_t> RebuildRollups(const std::string& store_dir) {
  Result<std::vector<int64_t>> ids = ListPartitionDirs(store_dir);
  if (!ids.ok()) return ids.status();
  size_t rebuilt = 0;
  for (int64_t id : *ids) {
    const std::string part_dir =
        store_dir + "/" + kPartitionDirPrefix + std::to_string(id);
    const std::string pack_path = part_dir + "/" + kSegmentPackFile;
    Result<std::string> pack = io::ReadFileToString(pack_path);
    if (!pack.ok()) {
      return DataLossError("partition " + std::to_string(id) + " has no " +
                           kSegmentPackFile + "; rebuild with store-build");
    }
    Result<std::vector<PackEntry>> entries =
        ParseSegmentPack(*pack, pack->size());
    if (!entries.ok()) {
      return DataLossError(pack_path + ": " + entries.status().message());
    }
    std::vector<RollupRow> rows;
    for (const PackEntry& entry : *entries) {
      Result<SymbolicSeries> slice = UnpackSymbolicSeries(
          pack->substr(static_cast<size_t>(entry.offset),
                       static_cast<size_t>(entry.size)));
      if (!slice.ok()) {
        return DataLossError("segment " + pack_path + ":" +
                             std::string(entry.meter) + ": " +
                             slice.status().message());
      }
      rows.push_back(RollupFromSlice(std::string(entry.meter), *slice));
    }
    SMETER_FAULT_POINT("store.rollup.write");
    const std::string rollup_path = part_dir + "/" + kRollupTableFile;
    SMETER_RETURN_IF_ERROR(io::AtomicWriteFile(
        rollup_path, BuildRollupLog(std::move(rows))));
    // Freshness is judged by mtime (fsck's stale_rollup check): a pack
    // carrying a future timestamp (clock skew, restored backup) must not
    // keep a just-rebuilt rollup permanently "stale".
    std::error_code time_error;
    const fs::file_time_type pack_mtime =
        fs::last_write_time(pack_path, time_error);
    if (!time_error) {
      const fs::file_time_type rollup_mtime =
          fs::last_write_time(rollup_path, time_error);
      if (!time_error && pack_mtime > rollup_mtime) {
        fs::last_write_time(rollup_path, pack_mtime, time_error);
      }
    }
    ++rebuilt;
  }
  return rebuilt;
}

Result<size_t> DropPartitionsBefore(const std::string& store_dir,
                                    Timestamp cutoff) {
  Result<io::AppendLogContents> log =
      io::ReadAppendLog(store_dir + "/" + kStoreIndexFile);
  if (!log.ok()) return log.status();
  if (log->records.empty()) {
    return DataLossError("store index has no header record");
  }
  std::optional<int64_t> psec = JsonIntField(log->records[0], "psec");
  if (!psec || *psec <= 0) {
    return DataLossError("store index header is malformed");
  }
  std::vector<std::string> kept;
  kept.push_back(log->records[0]);
  size_t dropped = 0;
  for (size_t i = 1; i < log->records.size(); ++i) {
    std::optional<PartitionInfo> info =
        ParsePartitionRecord(log->records[i]);
    if (!info) continue;  // unparseable entries are dropped from the index
    if (info->end <= cutoff) {
      const std::string part_dir =
          store_dir + "/" + kPartitionDirPrefix + std::to_string(info->id);
      std::error_code error;
      fs::remove_all(part_dir, error);
      if (error) {
        return InternalError("cannot remove " + part_dir + ": " +
                             error.message());
      }
      ++dropped;
      continue;
    }
    kept.push_back(log->records[i]);
  }
  SMETER_FAULT_POINT("store.index.write");
  SMETER_RETURN_IF_ERROR(io::AtomicWriteFile(
      store_dir + "/" + kStoreIndexFile, io::BuildAppendLog(kept)));
  return dropped;
}

// --- ArchiveStore -----------------------------------------------------------

ArchiveStore::ArchiveStore(std::string dir, std::string current_dir,
                           int64_t partition_seconds,
                           std::vector<PartitionInfo> partitions)
    : dir_(std::move(dir)),
      current_dir_(std::move(current_dir)),
      partition_seconds_(partition_seconds),
      partitions_(std::move(partitions)) {}

Result<std::unique_ptr<ArchiveStore>> ArchiveStore::Open(
    const std::string& store_dir, const ArchiveStoreOptions& options) {
  Result<io::AppendLogContents> log =
      io::ReadAppendLog(store_dir + "/" + kStoreIndexFile);
  if (!log.ok()) return log.status();
  if (log->corrupt_midfile) {
    return DataLossError("store index is corrupt mid-file; run fsck");
  }
  if (log->records.empty()) {
    return DataLossError("store index has no header record");
  }
  std::optional<int64_t> psec = JsonIntField(log->records[0], "psec");
  std::optional<int64_t> format = JsonIntField(log->records[0], "format");
  if (!psec || *psec <= 0 || !format || *format != 1) {
    return DataLossError("store index header is malformed");
  }
  std::vector<PartitionInfo> partitions;
  for (size_t i = 1; i < log->records.size(); ++i) {
    std::optional<PartitionInfo> info =
        ParsePartitionRecord(log->records[i]);
    if (!info) {
      return DataLossError("store index record " + std::to_string(i) +
                           " is malformed");
    }
    // Retention may have raced a stale index copy; skip vanished
    // partitions rather than failing every query.
    const std::string part_dir =
        store_dir + "/" + kPartitionDirPrefix + std::to_string(info->id);
    std::error_code error;
    if (!fs::is_directory(part_dir, error)) continue;
    if (!fs::exists(part_dir + "/" + kSegmentPackFile, error)) {
      return DataLossError("partition " + std::to_string(info->id) +
                           " has no " + kSegmentPackFile +
                           "; rebuild with store-build");
    }
    partitions.push_back(*info);
  }
  std::sort(partitions.begin(), partitions.end(),
            [](const PartitionInfo& a, const PartitionInfo& b) {
              return a.id < b.id;
            });
  std::string current_dir =
      options.current_dir.empty() ? store_dir : options.current_dir;
  return std::unique_ptr<ArchiveStore>(new ArchiveStore(
      store_dir, std::move(current_dir), *psec, std::move(partitions)));
}

std::string ArchiveStore::PartitionDir(int64_t partition_id) const {
  return dir_ + "/" + kPartitionDirPrefix + std::to_string(partition_id);
}

Status ArchiveStore::RefreshCurrent() {
  const std::string tab = current_dir_ + "/" + kCurrentTableFile;
  const std::string log = current_dir_ + "/" + kCurrentLogFile;
  // Any change to either file — an append, a same-size rewrite in place,
  // or an atomic replace (new inode) — changes its signature.
  std::array<FileSignature, 2> seen;
  for (size_t i = 0; i < seen.size(); ++i) {
    struct stat st {};
    if (::stat((i == 0 ? tab : log).c_str(), &st) == 0) {
      seen[i] = SignatureOf(st);
    }
  }
  if (current_refreshes_ > 0 && seen == current_seen_) return Status::Ok();
  std::map<std::string, CurrentRecord> fresh;
  for (const std::string& path : {tab, log}) {
    Result<io::AppendLogContents> contents = io::ReadAppendLog(path);
    if (!contents.ok()) {
      if (contents.status().code() == StatusCode::kNotFound) continue;
      return contents.status();
    }
    // A torn tail (ingest killed mid-append) just drops the last update;
    // mid-file corruption is quarantine territory, surface it.
    if (contents->corrupt_midfile) {
      return DataLossError("current table " + path +
                           " is corrupt mid-file; run fsck");
    }
    for (const std::string& record : contents->records) {
      std::optional<CurrentRecord> parsed = ParseCurrentRecord(record);
      if (!parsed) continue;
      auto it = fresh.find(parsed->meter);
      if (it == fresh.end() || parsed->timestamp >= it->second.timestamp) {
        fresh[parsed->meter] = std::move(*parsed);
      }
    }
  }
  current_ = std::move(fresh);
  current_seen_ = seen;
  ++current_refreshes_;
  return Status::Ok();
}

Result<PointValue> ArchiveStore::Latest(const std::string& meter) {
  SMETER_RETURN_IF_ERROR(RefreshCurrent());
  auto it = current_.find(meter);
  if (it == current_.end()) {
    return NotFoundError("meter '" + meter + "' has no current value");
  }
  PointValue value;
  value.timestamp = it->second.timestamp;
  value.level = it->second.level;
  value.symbol = it->second.symbol;
  return value;
}

size_t ArchiveStore::CurrentMeters() {
  Status refreshed = RefreshCurrent();
  if (!refreshed.ok()) return current_.size();
  return current_.size();
}

std::string ArchiveStore::PackPath(int64_t partition_id) const {
  return PartitionDir(partition_id) + "/" + kSegmentPackFile;
}

Result<const ArchiveStore::PackDirectory*> ArchiveStore::PackDirectoryFor(
    int64_t partition_id, int fd, const FileSignature& signature,
    const std::string& path) {
  ++directory_clock_;
  PackDirectory* slot = &pack_directories_[0];
  for (PackDirectory& cached : pack_directories_) {
    if (cached.partition_id == partition_id &&
        cached.signature == signature) {
      cached.last_used = directory_clock_;
      return &cached;
    }
    if (cached.last_used < slot->last_used) slot = &cached;
  }
  // Miss: read the prefix, then the directory, into the least recently
  // used slot. The entries point into slot->head, which is not touched
  // again until the slot is reused.
  *slot = PackDirectory();
  const auto file_size = static_cast<uint64_t>(signature.size);
  SMETER_RETURN_IF_ERROR(PreadAppend(
      fd, 0, std::min<uint64_t>(file_size, kPackPrefixBytes), path,
      &slot->head));
  Result<uint64_t> head_bytes = PackHeadBytes(slot->head);
  if (!head_bytes.ok()) return head_bytes.status();
  if (*head_bytes <= file_size) {
    SMETER_RETURN_IF_ERROR(PreadAppend(fd, slot->head.size(),
                                       *head_bytes - slot->head.size(), path,
                                       &slot->head));
  }
  Result<std::vector<PackEntry>> entries =
      ParseSegmentPack(slot->head, file_size);
  if (!entries.ok()) return entries.status();
  slot->entries = std::move(*entries);
  slot->partition_id = partition_id;
  slot->signature = signature;
  slot->last_used = directory_clock_;
  return slot;
}

Result<SymbolicSeries> ArchiveStore::ReadSegment(int64_t partition_id,
                                                 const std::string& meter) {
  SMETER_FAULT_POINT("store.segment.read");
  const std::string path = PackPath(partition_id);
  ScopedFd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (fd.get() < 0) return NotFoundError("cannot open: " + path);
  struct stat st {};
  if (::fstat(fd.get(), &st) != 0) return ErrnoError("cannot stat " + path);
  Result<const PackDirectory*> directory =
      PackDirectoryFor(partition_id, fd.get(), SignatureOf(st), path);
  if (!directory.ok()) {
    return DataLossError("pack of partition " + std::to_string(partition_id) +
                         ": " + directory.status().message());
  }
  const std::vector<PackEntry>& entries = (*directory)->entries;
  auto entry = std::lower_bound(
      entries.begin(), entries.end(), meter,
      [](const PackEntry& e, const std::string& m) { return e.meter < m; });
  if (entry == entries.end() || entry->meter != meter) {
    return NotFoundError("no segment for '" + meter + "' in partition " +
                         std::to_string(partition_id));
  }
  std::string blob;
  SMETER_RETURN_IF_ERROR(
      PreadAppend(fd.get(), entry->offset, entry->size, path, &blob));
  ++segments_read_;
  Result<SymbolicSeries> series = UnpackSymbolicSeries(blob);
  if (!series.ok()) {
    return DataLossError("segment p" + std::to_string(partition_id) + "/" +
                         kSegmentPackFile + ":" + meter + ": " +
                         series.status().message());
  }
  return series;
}

Result<const std::vector<RollupRow>*> ArchiveStore::Rollups(
    int64_t partition_id) {
  auto cached = rollup_cache_.find(partition_id);
  if (cached != rollup_cache_.end()) return &cached->second;
  Result<io::AppendLogContents> log = io::ReadAppendLog(
      PartitionDir(partition_id) + "/" + kRollupTableFile);
  if (!log.ok()) return log.status();
  if (!log->clean()) {
    return DataLossError("rollup table of partition " +
                         std::to_string(partition_id) +
                         " is damaged; run fsck");
  }
  std::vector<RollupRow> rows;
  for (const std::string& record : log->records) {
    std::optional<RollupRow> row = ParseRollupRow(record);
    if (!row) {
      return DataLossError("rollup row of partition " +
                           std::to_string(partition_id) + " is malformed");
    }
    // Aggregate merges rows with each other and with the pack directory,
    // which needs them in strict meter order, as BuildRollupLog writes them.
    if (!rows.empty() && rows.back().meter >= row->meter) {
      return DataLossError("rollup rows of partition " +
                           std::to_string(partition_id) +
                           " are not sorted by meter");
    }
    rows.push_back(std::move(*row));
  }
  auto [it, inserted] =
      rollup_cache_.emplace(partition_id, std::move(rows));
  (void)inserted;
  return &it->second;
}

Result<RangeScanResult> ArchiveStore::Scan(const std::string& meter,
                                           TimeRange range, int level,
                                           size_t max_symbols) {
  if (range.end <= range.begin) {
    return InvalidArgumentError("empty scan range");
  }
  if (level < 0 || level > kMaxSymbolLevel) {
    return InvalidArgumentError("scan level out of range");
  }
  if (max_symbols == 0) {
    return InvalidArgumentError("max_symbols must be positive");
  }
  const int64_t first_id = PartitionIdFor(range.begin, partition_seconds_);
  const int64_t last_id = PartitionIdFor(range.end - 1, partition_seconds_);

  RangeScanResult result;
  result.level = level;
  bool started = false;
  Timestamp next_expected = 0;
  for (const PartitionInfo& partition : partitions_) {
    if (partition.id < first_id || partition.id > last_id) continue;
    Result<SymbolicSeries> segment = ReadSegment(partition.id, meter);
    if (!segment.ok()) {
      if (segment.status().code() == StatusCode::kNotFound) continue;
      return segment.status();
    }
    SymbolicSeries slice = segment->Slice(range);
    if (slice.empty()) continue;
    if (level == 0) {
      result.level = slice.level();
    } else if (level > slice.level()) {
      return InvalidArgumentError(
          "requested level " + std::to_string(level) +
          " is finer than the meter's native level " +
          std::to_string(slice.level()));
    } else if (level < slice.level()) {
      Result<SymbolicSeries> coarse = slice.Coarsen(level);
      if (!coarse.ok()) return coarse.status();
      slice = std::move(*coarse);
    }
    const int64_t step = SliceStep(slice);
    if (!started) {
      result.start_timestamp = slice[0].timestamp;
      result.step_seconds = step;
      started = true;
    } else if (result.step_seconds == 0) {
      result.step_seconds = step != 0
                                ? step
                                : slice[0].timestamp - next_expected + 0;
    }
    // A hole between partitions (dropped or never-written segment) is
    // returned as GAP slots so the grid stays contiguous.
    if (started && result.step_seconds > 0 &&
        !result.symbols.empty()) {
      while (next_expected < slice[0].timestamp &&
             result.symbols.size() < max_symbols) {
        result.symbols.push_back(kStoreGapSymbol);
        next_expected += result.step_seconds;
      }
    }
    for (const SymbolicSample& sample : slice) {
      if (result.symbols.size() >= max_symbols) {
        result.truncated = true;
        return result;
      }
      result.symbols.push_back(
          sample.symbol.is_gap()
              ? kStoreGapSymbol
              : static_cast<uint16_t>(sample.symbol.index()));
      next_expected = sample.timestamp + (result.step_seconds > 0
                                              ? result.step_seconds
                                              : step);
    }
  }
  if (!started) {
    return NotFoundError("meter '" + meter + "' has no data in range");
  }
  return result;
}

Result<FleetAggregate> ArchiveStore::Aggregate(TimeRange range, int level) {
  if (range.end <= range.begin) {
    return InvalidArgumentError("empty aggregate range");
  }
  if (level < 1 || level > kMaxSymbolLevel) {
    return InvalidArgumentError("aggregate level out of range");
  }
  FleetAggregate aggregate;
  aggregate.level = level;
  SlotCounts counts;
  counts.histogram.assign(size_t{1} << level, 0);
  // Distinct meter names, kept sorted and unique by merging each
  // partition's (sorted) run in; the views point into the cached rollup
  // rows, which outlive this call.
  std::vector<std::string_view> meters;
  std::vector<std::string_view> coarser;
  std::vector<std::string_view> run_meters;
  std::vector<std::string_view> run_coarser;
  std::vector<std::string_view> merged;
  auto merge_run = [&merged](std::vector<std::string_view>& into,
                             const std::vector<std::string_view>& run) {
    merged.clear();
    std::set_union(into.begin(), into.end(), run.begin(), run.end(),
                   std::back_inserter(merged));
    into.swap(merged);
  };
  for (const PartitionInfo& partition : partitions_) {
    if (partition.end <= range.begin || partition.start >= range.end) {
      continue;
    }
    const bool covered =
        partition.start >= range.begin && partition.end <= range.end;
    Result<const std::vector<RollupRow>*> rollups = Rollups(partition.id);
    if (!rollups.ok()) return rollups.status();
    run_meters.clear();
    run_coarser.clear();
    if (covered) {
      ++aggregate.rollup_partitions;
      for (const RollupRow& row : **rollups) {
        if (row.level < level) {
          run_coarser.push_back(row.meter);
          continue;
        }
        run_meters.push_back(row.meter);
        counts.windows += row.windows;
        counts.gaps += row.gaps;
        const std::vector<uint64_t> folded =
            FoldHistogram(row.histogram, row.level, level);
        for (size_t i = 0; i < folded.size(); ++i) {
          counts.histogram[i] += folded[i];
        }
      }
    } else {
      // Edge partition: only part of it is inside the window, so the
      // rollup row over-counts. Read the pack once and fold each meter's
      // blob, clipped to the window, walking the rows and the directory
      // together (both sorted by meter).
      ++aggregate.scanned_partitions;
      Result<std::string> pack = io::ReadFileToString(PackPath(partition.id));
      if (!pack.ok()) return pack.status();
      Result<std::vector<PackEntry>> entries =
          ParseSegmentPack(*pack, pack->size());
      if (!entries.ok()) {
        return DataLossError("pack of partition " +
                             std::to_string(partition.id) + ": " +
                             entries.status().message());
      }
      auto entry = entries->begin();
      for (const RollupRow& row : **rollups) {
        if (row.level < level) {
          run_coarser.push_back(row.meter);
          continue;
        }
        SMETER_FAULT_POINT("store.segment.read");
        while (entry != entries->end() && entry->meter < row.meter) ++entry;
        if (entry == entries->end() || entry->meter != row.meter) continue;
        ++segments_read_;
        const uint64_t windows_before = counts.windows;
        Status folded = FoldFramedSeries(
            std::string_view(*pack).substr(static_cast<size_t>(entry->offset),
                                           static_cast<size_t>(entry->size)),
            range, level, &counts);
        if (!folded.ok()) {
          return DataLossError("segment p" + std::to_string(partition.id) +
                               "/" + kSegmentPackFile + ":" + row.meter +
                               ": " + folded.message());
        }
        if (counts.windows > windows_before) run_meters.push_back(row.meter);
      }
    }
    merge_run(meters, run_meters);
    merge_run(coarser, run_coarser);
  }
  // A meter counts as coarser only if it contributed nowhere.
  aggregate.meters = meters.size();
  aggregate.meters_coarser = static_cast<uint64_t>(
      coarser.size() -
      static_cast<size_t>(std::count_if(
          coarser.begin(), coarser.end(), [&meters](std::string_view m) {
            return std::binary_search(meters.begin(), meters.end(), m);
          })));
  aggregate.windows = counts.windows;
  aggregate.gaps = counts.gaps;
  aggregate.histogram = std::move(counts.histogram);
  return aggregate;
}

}  // namespace smeter
