#include "core/archive_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
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

// Removes every entry of `dir` but `keep`, so a partition directory holds
// exactly what this build wrote: a rebuild in place over an older store
// (a file of another layout, a repair's quarantined blob, a killed
// build's temporary) then leaves the same tree a fresh build does.
Status RemoveAllBut(const std::string& dir, const std::string& keep) {
  std::error_code error;
  std::vector<fs::path> stale;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, error)) {
    if (entry.path().filename() != keep) stale.push_back(entry.path());
  }
  for (const fs::path& path : stale) {
    if (error) break;
    fs::remove_all(path, error);
  }
  if (error) {
    return InternalError("cannot clear " + dir + ": " + error.message());
  }
  return Status::Ok();
}

// --- segment pack ----------------------------------------------------------
//
//   magic "SMP2" | u32le directory bytes | directory | u32le crc32c of all
//   the bytes before it | the v3 blobs back to back, in directory order
//
// The directory is a LEB128 entry count, then per entry a u8 meter-name
// length, the name, the LEB128 blob length, and the segment's summary:
// LEB128 native level, windows, gaps, then 2^level LEB128 value-slot
// counts. Names strictly ascend. Blob offsets are the prefix sums of the
// lengths after the CRC, and the lengths fill the file exactly. Blobs carry
// their own header and block CRCs, so the pack adds no per-record checksum.

constexpr char kPackMagic[4] = {'S', 'M', 'P', '2'};
// The packs that preceded directory summaries (aggregates then read a
// per-partition table of JSON rows beside the pack).
constexpr char kOlderPackMagic[4] = {'S', 'M', 'P', 'K'};
constexpr size_t kPackPrefixBytes = sizeof(kPackMagic) + 4;
constexpr size_t kPackCrcBytes = 4;
// The smallest directory entry: name length, a one-byte name, blob length,
// level, windows, gaps and two histogram counts, one byte each.
constexpr size_t kMinPackEntryBytes = 8;
constexpr TimeRange kAllTime = {INT64_MIN, INT64_MAX};

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

// Reads a summary's `buckets` value-slot counts from bytes[*pos, end) and
// checks that they account for exactly `values` slots. The common case,
// every count below 128, is one byte per bucket and is summed without
// decoding.
bool ReadHistogram(std::string_view bytes, size_t end, size_t buckets,
                   uint64_t values, size_t* pos) {
  if (end - *pos >= buckets) {
    uint64_t sum = 0;
    uint8_t high_bits = 0;
    for (char c : bytes.substr(*pos, buckets)) {
      sum += static_cast<uint8_t>(c);
      high_bits |= static_cast<uint8_t>(c);
    }
    if ((high_bits & 0x80u) == 0) {
      *pos += buckets;
      return sum == values;
    }
  }
  for (size_t bucket = 0; bucket < buckets; ++bucket) {
    uint64_t count = 0;
    if (!ReadLeb128(bytes, end, pos, &count) || count > values) return false;
    values -= count;
  }
  return values == 0;
}

// Bytes from the start of a pack to the end of its directory CRC, read
// from the fixed prefix; the pack's blobs start there.
Result<uint64_t> PackHeadBytes(std::string_view head) {
  if (head.size() < kPackPrefixBytes) {
    return DataLossError("pack shorter than its header");
  }
  if (IsOlderSegmentPack(head)) {
    return DataLossError(
        "pack predates directory summaries; rebuild with store-build");
  }
  if (head.substr(0, sizeof(kPackMagic)) !=
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
// 0 for a single-slot segment (matching the codec header convention).
int64_t SliceStep(const SymbolicSeries& slice) {
  if (slice.size() < 2) return 0;
  return slice[1].timestamp - slice[0].timestamp;
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

// Merges the sorted, duplicate-free `run` into the sorted, duplicate-free
// `names`. Names already present (the common case: the same fleet in every
// partition) are only compared; new ones are copied in. `scratch` is
// reused storage.
void MergeNames(const std::vector<std::string_view>& run,
                std::vector<std::string>* names,
                std::vector<std::string>* scratch) {
  if (std::includes(names->begin(), names->end(), run.begin(), run.end())) {
    return;
  }
  scratch->clear();
  scratch->reserve(names->size() + run.size());
  auto name = names->begin();
  for (std::string_view next : run) {
    while (name != names->end() && *name < next) {
      scratch->push_back(std::move(*name++));
    }
    if (name != names->end() && *name == next) {
      scratch->push_back(std::move(*name++));
    } else {
      scratch->emplace_back(next);
    }
  }
  std::move(name, names->end(), std::back_inserter(*scratch));
  names->swap(*scratch);
}

}  // namespace

std::string BuildSegmentPack(const std::vector<PackSegment>& segments) {
  std::string directory;
  AppendLeb128(directory, segments.size());
  for (size_t i = 0; i < segments.size(); ++i) {
    const PackSegment& segment = segments[i];
    SMETER_CHECK(!segment.meter.empty() &&
                 segment.meter.size() <= kMaxPackMeterName);
    SMETER_CHECK(i == 0 || segments[i - 1].meter < segment.meter);
    directory.push_back(static_cast<char>(segment.meter.size()));
    directory += segment.meter;
    AppendLeb128(directory, segment.blob.size());
    const SlotCounts& summary = segment.summary;
    const size_t buckets = summary.histogram.size();
    SMETER_CHECK(buckets >= 2 && buckets <= (size_t{1} << kMaxSymbolLevel) &&
                 std::has_single_bit(buckets));
    AppendLeb128(directory, static_cast<uint64_t>(std::countr_zero(buckets)));
    AppendLeb128(directory, summary.windows);
    AppendLeb128(directory, summary.gaps);
    uint64_t total = summary.gaps;
    for (uint64_t count : summary.histogram) {
      AppendLeb128(directory, count);
      total += count;
    }
    SMETER_CHECK_EQ(total, summary.windows);
  }
  SMETER_CHECK_LE(directory.size(), size_t{UINT32_MAX});
  std::string out(kPackMagic, sizeof(kPackMagic));
  AppendU32Le(out, static_cast<uint32_t>(directory.size()));
  out += directory;
  AppendU32Le(out, io::Crc32c(out));
  for (const PackSegment& segment : segments) out += segment.blob;
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
  // A count beyond what the directory could hold at the smallest entry
  // size is damage, caught before anything is allocated from it.
  if (!ReadLeb128(head, crc_at, &pos, &count) ||
      count > (crc_at - kPackPrefixBytes) / kMinPackEntryBytes) {
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
    uint64_t level = 0;
    if (!ReadLeb128(head, crc_at, &pos, &level) || level < 1 ||
        level > kMaxSymbolLevel ||
        !ReadLeb128(head, crc_at, &pos, &entry.windows) ||
        !ReadLeb128(head, crc_at, &pos, &entry.gaps) ||
        entry.gaps > entry.windows) {
      return DataLossError("malformed summary in pack entry " +
                           std::to_string(i));
    }
    entry.level = static_cast<int>(level);
    const size_t histogram_at = pos;
    if (!ReadHistogram(head, crc_at, size_t{1} << level,
                       entry.windows - entry.gaps, &pos)) {
      return DataLossError("summary of pack entry " + std::to_string(i) +
                           " does not add up");
    }
    entry.histogram = head.substr(histogram_at, pos - histogram_at);
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

bool IsOlderSegmentPack(std::string_view head) {
  return head.substr(0, sizeof(kOlderPackMagic)) ==
         std::string_view(kOlderPackMagic, sizeof(kOlderPackMagic));
}

void AddPackSummary(const PackEntry& entry, int level, SlotCounts* counts) {
  SMETER_CHECK(level >= 1 && level <= entry.level);
  SMETER_CHECK_EQ(counts->histogram.size(), size_t{1} << level);
  counts->windows += entry.windows;
  counts->gaps += entry.gaps;
  // Each level-`level` bucket sums a run of `fold` native buckets, added up
  // in a register before the one store.
  const size_t fold = size_t{1} << (entry.level - level);
  const auto* byte =
      reinterpret_cast<const unsigned char*>(entry.histogram.data());
  if (entry.histogram.size() == fold * counts->histogram.size()) {
    // One byte per native bucket: every count is below 128.
    for (uint64_t& bucket : counts->histogram) {
      uint64_t sum = 0;
      for (size_t i = 0; i < fold; ++i) sum += byte[i];
      byte += fold;
      bucket += sum;
    }
    return;
  }
  // ParseSegmentPack checked that the view holds exactly 2^entry.level
  // well-formed LEB128 values, so they decode without bounds checks.
  for (uint64_t& bucket : counts->histogram) {
    uint64_t sum = 0;
    for (size_t i = 0; i < fold; ++i) {
      uint64_t value = 0;
      int bits = 0;
      unsigned char next = 0;
      do {
        next = *byte++;
        value |= uint64_t{next & 0x7fu} << bits;
        bits += 7;
      } while ((next & 0x80u) != 0);
      sum += value;
    }
    bucket += sum;
  }
  SMETER_CHECK(byte == reinterpret_cast<const unsigned char*>(
                           entry.histogram.data() + entry.histogram.size()));
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
  // Per-partition accumulation: the pack's segments, in meter order
  // because the meters are; index stats.
  std::map<int64_t, std::vector<PackSegment>> packs;
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
      PackSegment segment;
      segment.meter = meter;
      segment.blob = std::move(*packed);
      // The summary is the same fold that serves edge partitions and that
      // fsck checks it against.
      SMETER_RETURN_IF_ERROR(
          FoldFramedSeries(segment.blob, kAllTime, 0, &segment.summary));
      ++report.segments_written;
      report.segment_bytes += segment.blob.size();
      PartitionInfo& info = index[id];
      info.id = id;
      info.start = range.begin;
      info.end = range.end;
      ++info.meters;
      info.segment_bytes += segment.blob.size();
      packs[id].push_back(std::move(segment));
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

  for (const auto& [id, segments] : packs) {
    const std::string part_dir =
        store_dir + "/" + kPartitionDirPrefix + std::to_string(id);
    SMETER_RETURN_IF_ERROR(EnsureDir(part_dir));
    SMETER_FAULT_POINT("store.segment.write");
    SMETER_RETURN_IF_ERROR(io::AtomicWriteFile(
        part_dir + "/" + kSegmentPackFile, BuildSegmentPack(segments)));
    SMETER_RETURN_IF_ERROR(RemoveAllBut(part_dir, kSegmentPackFile));
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
    const std::string pack_path = part_dir + "/" + kSegmentPackFile;
    ScopedFd fd(::open(pack_path.c_str(), O_RDONLY | O_CLOEXEC));
    if (fd.get() < 0) {
      return DataLossError("partition " + std::to_string(info->id) +
                           " has no " + kSegmentPackFile +
                           "; rebuild with store-build");
    }
    // A pack an older store-build wrote is refused here, not misread by
    // the first query; other damage is left to the query and to fsck.
    std::array<char, sizeof(kOlderPackMagic)> magic{};
    const ssize_t got = ::pread(fd.get(), magic.data(), magic.size(), 0);
    if (got > 0 && IsOlderSegmentPack(std::string_view(
                       magic.data(), static_cast<size_t>(got)))) {
      return DataLossError("partition " + std::to_string(info->id) +
                           " has a pack that predates directory summaries; "
                           "rebuild with store-build");
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
  // partition's (sorted) run in, as owned copies.
  std::vector<std::string> meters;
  std::vector<std::string> coarser;
  std::vector<std::string_view> run_meters;
  std::vector<std::string_view> run_coarser;
  std::vector<std::string> merged;
  // An edge partition's blobs, reused across partitions.
  std::string blobs;
  for (const PartitionInfo& partition : partitions_) {
    if (partition.end <= range.begin || partition.start >= range.end) {
      continue;
    }
    const bool covered =
        partition.start >= range.begin && partition.end <= range.end;
    const std::string path = PackPath(partition.id);
    ScopedFd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
    if (fd.get() < 0) {
      if (errno == ENOENT) continue;  // dropped by retention since Open
      return ErrnoError("cannot open " + path);
    }
    struct stat st {};
    if (::fstat(fd.get(), &st) != 0) return ErrnoError("cannot stat " + path);
    Result<const PackDirectory*> directory =
        PackDirectoryFor(partition.id, fd.get(), SignatureOf(st), path);
    if (!directory.ok()) {
      return DataLossError("pack of partition " +
                           std::to_string(partition.id) + ": " +
                           directory.status().message());
    }
    const std::vector<PackEntry>& entries = (*directory)->entries;
    run_meters.clear();
    run_coarser.clear();
    if (covered) {
      // Served from the directory's summaries alone.
      ++aggregate.rollup_partitions;
      for (const PackEntry& entry : entries) {
        if (entry.level < level) {
          run_coarser.push_back(entry.meter);
          continue;
        }
        if (entry.windows > 0) run_meters.push_back(entry.meter);
        AddPackSummary(entry, level, &counts);
      }
    } else {
      // Edge partition: only part of it is inside the window, so the
      // summaries over-count. Read every blob in one pread and fold each,
      // clipped to the window.
      ++aggregate.scanned_partitions;
      const uint64_t first = entries.empty()
                                 ? static_cast<uint64_t>(st.st_size)
                                 : entries.front().offset;
      blobs.clear();
      SMETER_RETURN_IF_ERROR(PreadAppend(
          fd.get(), first, static_cast<uint64_t>(st.st_size) - first, path,
          &blobs));
      for (const PackEntry& entry : entries) {
        if (entry.level < level) {
          run_coarser.push_back(entry.meter);
          continue;
        }
        SMETER_FAULT_POINT("store.segment.read");
        ++segments_read_;
        const uint64_t windows_before = counts.windows;
        Status folded = FoldFramedSeries(
            std::string_view(blobs).substr(
                static_cast<size_t>(entry.offset - first),
                static_cast<size_t>(entry.size)),
            range, level, &counts);
        if (!folded.ok()) {
          return DataLossError("segment p" + std::to_string(partition.id) +
                               "/" + kSegmentPackFile + ":" +
                               std::string(entry.meter) + ": " +
                               folded.message());
        }
        if (counts.windows > windows_before) run_meters.push_back(entry.meter);
      }
    }
    // The run's views point into the directory slot, which a later
    // partition may reuse; MergeNames copies what it keeps.
    MergeNames(run_meters, &meters, &merged);
    MergeNames(run_coarser, &coarser, &merged);
  }
  // A meter counts as coarser only if it contributed nowhere.
  aggregate.meters = meters.size();
  aggregate.meters_coarser = static_cast<uint64_t>(
      coarser.size() -
      static_cast<size_t>(std::count_if(
          coarser.begin(), coarser.end(), [&meters](const std::string& m) {
            return std::binary_search(meters.begin(), meters.end(), m);
          })));
  aggregate.windows = counts.windows;
  aggregate.gaps = counts.gaps;
  aggregate.histogram = std::move(counts.histogram);
  return aggregate;
}

}  // namespace smeter
