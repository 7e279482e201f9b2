#include "data/redd.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <limits>
#include <string_view>
#include <system_error>

#include "common/fault_injection.h"
#include "common/string_util.h"

namespace smeter::data {
namespace {

// Reads the whole channel file in one go, into a buffer sized from fstat so
// a multi-megabyte channel is never regrown while the fleet loads several
// at once. "csv.read" is the fault seam the fleet fault drills inject read
// failures through.
Result<std::string> ReadChannelFile(const std::string& path) {
  SMETER_FAULT_POINT("csv.read");
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return NotFoundError("cannot open file: " + path);
  std::string content;
  struct stat st;
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    content.reserve(static_cast<size_t>(st.st_size));
  }
  char buffer[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return InternalError("I/O error reading: " + path);
    }
    if (n == 0) break;
    content.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return content;
}

// std::from_chars, accepted only when it consumed the whole field without
// error. Everything else (a '+' sign, surrounding whitespace, hex floats,
// range errors, garbage) goes to ParseInt/ParseDouble, which define the
// grammar, the values and the error codes.
template <typename T>
bool FromCharsWhole(std::string_view field, T& out) {
  const char* end = field.data() + field.size();
  auto [ptr, ec] = std::from_chars(field.data(), end, out);
  return ec == std::errc() && ptr == end;
}

// Calls `on_row(row, sample)` for every data row of a channel file's text
// and stops at the first error. The line rules are ParseCsv's: '\n', '\r'
// and "\r\n" terminate lines, blank and '#' lines are skipped, and row
// numbers count data rows only. Fields split on ' ' as Split does; fields
// past the second are ignored. A final row with no line terminator is the
// signature of a truncated write (logger crash mid-record); its fields
// cannot be trusted, so it is dropped rather than failing the channel.
template <typename OnRow>
Status ForEachRow(std::string_view content, const std::string& path,
                  OnRow&& on_row) {
  const size_t n = content.size();
  size_t pos = 0;
  size_t row = 0;
  // The next '\n' at or after `pos` (npos when there is none), found once
  // per '\n' rather than per line, so '\r'-only files stay linear.
  size_t newline = content.find('\n');
  while (pos < n) {
    if (newline < pos) newline = content.find('\n', pos);
    size_t end = std::min(newline, n);
    const size_t cr = content.substr(pos, end - pos).find('\r');
    if (cr != std::string_view::npos) end = pos + cr;
    const bool terminated = end < n;
    const std::string_view line = content.substr(pos, end - pos);
    pos = end;
    if (terminated) {
      ++pos;
      if (content[end] == '\r' && pos < n && content[pos] == '\n') ++pos;
    }

    // A line starting with a digit is neither blank nor a comment; only
    // the rest pay for Trim.
    if (line.empty() || line[0] < '0' || line[0] > '9') {
      const std::string_view trimmed = Trim(line);
      if (trimmed.empty() || trimmed.front() == '#') continue;
    }
    if (!terminated) break;

    const size_t space = line.find(' ');
    if (space == std::string_view::npos) {
      return InvalidArgumentError(path + ": row " + std::to_string(row) +
                                  " has fewer than 2 fields");
    }
    const std::string_view ts_field = line.substr(0, space);
    std::string_view value_field = line.substr(space + 1);
    value_field = value_field.substr(0, value_field.find(' '));

    Sample sample;
    if (!FromCharsWhole(ts_field, sample.timestamp)) {
      Result<int64_t> ts = ParseInt(ts_field);
      if (!ts.ok()) return ts.status();
      sample.timestamp = *ts;
    }
    if (!FromCharsWhole(value_field, sample.value)) {
      Result<double> value = ParseDouble(value_field);
      if (!value.ok()) return value.status();
      sample.value = *value;
    }
    SMETER_RETURN_IF_ERROR(on_row(row, sample));
    ++row;
  }
  return Status::Ok();
}

Status RowError(const std::string& path, size_t row, const Status& cause) {
  return Status(cause.code(), path + ": row " + std::to_string(row) + ": " +
                                  cause.message());
}

}  // namespace

Result<TimeSeries> LoadReddChannel(const std::string& path) {
  Result<std::string> content = ReadChannelFile(path);
  if (!content.ok()) return content.status();
  TimeSeries series;
  SMETER_RETURN_IF_ERROR(
      ForEachRow(*content, path, [&](size_t row, Sample sample) {
        Status appended = series.Append(sample);
        return appended.ok() ? appended : RowError(path, row, appended);
      }));
  return series;
}

Result<TimeSeries> LoadReddHouseMains(const std::string& house_dir) {
  Result<TimeSeries> mains1 = LoadReddChannel(house_dir + "/channel_1.dat");
  if (!mains1.ok()) return mains1.status();
  const std::string path2 = house_dir + "/channel_2.dat";
  Result<std::string> content2 = ReadChannelFile(path2);
  if (!content2.ok()) return content2.status();

  // Merge-join channel_2 against channel_1 on shared timestamps while
  // parsing it, so channel_2 is never held as a series. Channel_2 is still
  // validated to its last row, as TimeSeries::Append would, and its errors
  // take precedence over a failure of the join itself.
  const TimeSeries& a = *mains1;
  TimeSeries total;
  Status joined;
  size_t i = 0;
  Timestamp previous = std::numeric_limits<Timestamp>::min();
  SMETER_RETURN_IF_ERROR(
      ForEachRow(*content2, path2, [&](size_t row, Sample b) {
        if (!std::isfinite(b.value)) {
          return RowError(path2, row, InvalidArgumentError("non-finite value"));
        }
        if (b.timestamp < previous) {
          return RowError(path2, row,
                          InvalidArgumentError("timestamp regresses"));
        }
        previous = b.timestamp;
        if (!joined.ok()) return Status::Ok();
        while (i < a.size() && a[i].timestamp < b.timestamp) ++i;
        if (i < a.size() && a[i].timestamp == b.timestamp) {
          joined = total.Append({b.timestamp, a[i].value + b.value});
          ++i;
        }
        return Status::Ok();
      }));
  if (!joined.ok()) return joined;
  if (total.empty()) {
    return FailedPreconditionError(house_dir +
                                   ": mains channels share no timestamps");
  }
  return total;
}

}  // namespace smeter::data
