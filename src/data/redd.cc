#include "data/redd.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string_view>
#include <system_error>
#include <utility>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/string_util.h"

namespace smeter::data {
namespace {

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

Status RowError(const std::string& path, size_t row, const Status& cause) {
  return Status(cause.code(), path + ": row " + std::to_string(row) + ": " +
                                  cause.message());
}

// One channel file, parsed row by row through a fixed read buffer. The
// line rules are ParseCsv's: '\n', '\r' and "\r\n" terminate lines (a
// "\r\n" reads as '\r' then a blank line), blank and '#' lines are
// skipped, and row numbers count data rows only. Fields split on ' ' as
// Split does; fields past the second are ignored. A final row with no line
// terminator is the signature of a truncated write (logger crash
// mid-record); its fields cannot be trusted, so it is dropped rather than
// failing the channel. Rows are validated as TimeSeries::Append would.
class ChannelReader {
 public:
  ChannelReader(std::string path, size_t buffer_bytes)
      : path_(std::move(path)),
        buffer_bytes_(buffer_bytes),
        buffer_(std::make_unique_for_overwrite<char[]>(buffer_bytes)) {
    SMETER_DCHECK_GT(buffer_bytes, 0u);
  }
  ~ChannelReader() {
    if (fd_ >= 0) ::close(fd_);
  }
  ChannelReader(const ChannelReader&) = delete;
  ChannelReader& operator=(const ChannelReader&) = delete;

  // "csv.read" is the fault seam the fleet fault drills inject read
  // failures through.
  Status Open() {
    SMETER_FAULT_POINT("csv.read");
    fd_ = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd_ < 0) return NotFoundError("cannot open file: " + path_);
    return Status::Ok();
  }

  // Parses the next data row into `sample`. False at the end of the rows
  // or at the first error; Finish() then tells which.
  bool Next(Sample& sample) {
    if (!status_.ok()) return false;
    std::string_view line;
    bool terminated = false;
    while (NextLine(line, terminated)) {
      // A line starting with a digit is neither blank nor a comment; only
      // the rest pay for Trim.
      if (line.empty() || line[0] < '0' || line[0] > '9') {
        const std::string_view trimmed = Trim(line);
        if (trimmed.empty() || trimmed.front() == '#') continue;
      }
      if (!terminated) return false;
      status_ = ParseRow(line, sample);
      if (!status_.ok()) return false;
      previous_ = sample.timestamp;
      ++row_;
      return true;
    }
    return false;
  }

  // The channel's status once Next() has returned false. An I/O error
  // anywhere in the file beats an earlier parse error, as it would if the
  // file were read whole before parsing, so a failed parse reads on to the
  // end of the file.
  Status Finish() {
    if (!status_.ok()) {
      while (Refill()) {
      }
    }
    return io_.ok() ? status_ : io_;
  }

 private:
  // The next line without its terminator. `terminated` is false only for a
  // final line that the end of the file cut off. False once the file is
  // exhausted or unreadable.
  bool NextLine(std::string_view& line, bool& terminated) {
    carry_.clear();
    for (;;) {
      if (pos_ < end_) {
        const char* data = buffer_.get();
        // newline_ is found once per '\n' rather than per line, so
        // '\r'-only files stay linear.
        if (newline_ < pos_) newline_ = Find('\n', pos_, end_);
        const size_t term = Find('\r', pos_, newline_);
        if (term < end_) {
          const std::string_view piece(data + pos_, term - pos_);
          pos_ = term + 1;
          if (carry_.empty()) {
            line = piece;
          } else {
            carry_.append(piece);
            line = carry_;
          }
          terminated = true;
          return true;
        }
        // A line torn by the end of the buffer: carry it to the refill.
        carry_.append(data + pos_, end_ - pos_);
        pos_ = end_;
      }
      if (!Refill()) {
        if (carry_.empty()) return false;
        line = carry_;
        terminated = false;
        return true;
      }
    }
  }

  // Index of the first `c` in buffer_[begin, end), or `end`.
  size_t Find(char c, size_t begin, size_t end) const {
    const void* hit = std::memchr(buffer_.get() + begin, c, end - begin);
    return hit == nullptr
               ? end
               : static_cast<size_t>(static_cast<const char*>(hit) -
                                     buffer_.get());
  }

  bool Refill() {
    if (done_) return false;
    for (;;) {
      const ssize_t n = ::read(fd_, buffer_.get(), buffer_bytes_);
      if (n < 0) {
        if (errno == EINTR) continue;
        io_ = InternalError("I/O error reading: " + path_);
        done_ = true;
        return false;
      }
      if (n == 0) {
        done_ = true;
        return false;
      }
      pos_ = 0;
      end_ = static_cast<size_t>(n);
      newline_ = Find('\n', 0, end_);
      return true;
    }
  }

  Status ParseRow(std::string_view line, Sample& sample) const {
    const size_t space = line.find(' ');
    if (space == std::string_view::npos) {
      return InvalidArgumentError(path_ + ": row " + std::to_string(row_) +
                                  " has fewer than 2 fields");
    }
    const std::string_view ts_field = line.substr(0, space);
    std::string_view value_field = line.substr(space + 1);
    value_field = value_field.substr(0, value_field.find(' '));
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
    if (!std::isfinite(sample.value)) {
      return RowError(path_, row_, InvalidArgumentError("non-finite value"));
    }
    if (sample.timestamp < previous_) {
      return RowError(path_, row_,
                      InvalidArgumentError("timestamp regresses"));
    }
    return Status::Ok();
  }

  const std::string path_;
  const size_t buffer_bytes_;
  std::unique_ptr<char[]> buffer_;
  int fd_ = -1;
  size_t pos_ = 0;      // next unread byte of buffer_
  size_t end_ = 0;      // bytes of buffer_ filled by the last read
  size_t newline_ = 0;  // first '\n' at or after some index <= pos_, or end_
  bool done_ = false;   // end of file reached, or the read failed
  std::string carry_;   // the torn start of the line being read
  size_t row_ = 0;
  Timestamp previous_ = std::numeric_limits<Timestamp>::min();
  Status status_;  // first parse or validation error
  Status io_;      // read error
};

Status ForEachHouseSample(const std::string& house_dir, size_t buffer_bytes,
                          const std::function<Status(Sample)>& on_sample) {
  ChannelReader mains1(house_dir + "/channel_1.dat", buffer_bytes);
  SMETER_RETURN_IF_ERROR(mains1.Open());
  ChannelReader mains2(house_dir + "/channel_2.dat", buffer_bytes);
  const Status opened = mains2.Open();

  // Merge-join the two channels on shared timestamps, one row of each in
  // hand. After the join fails, both channels are still read and validated
  // to the end, because their errors take precedence over the join's (and
  // channel_1's over channel_2's, even over its failure to open).
  Status joined;
  size_t shared = 0;
  Sample a;
  Sample b;
  bool has_a = mains1.Next(a);
  bool has_b = opened.ok() && mains2.Next(b);
  while (has_a && has_b) {
    if (a.timestamp < b.timestamp) {
      has_a = mains1.Next(a);
    } else if (b.timestamp < a.timestamp) {
      has_b = mains2.Next(b);
    } else {
      if (joined.ok()) {
        joined = on_sample({a.timestamp, a.value + b.value});
        ++shared;
      }
      has_a = mains1.Next(a);
      has_b = mains2.Next(b);
    }
  }
  while (has_a) has_a = mains1.Next(a);
  SMETER_RETURN_IF_ERROR(mains1.Finish());
  SMETER_RETURN_IF_ERROR(opened);
  while (has_b) has_b = mains2.Next(b);
  SMETER_RETURN_IF_ERROR(mains2.Finish());
  SMETER_RETURN_IF_ERROR(joined);
  if (shared == 0) {
    return FailedPreconditionError(house_dir +
                                   ": mains channels share no timestamps");
  }
  return Status::Ok();
}

}  // namespace

namespace internal {

Result<TimeSeries> LoadReddChannel(const std::string& path,
                                   size_t read_buffer_bytes) {
  ChannelReader reader(path, read_buffer_bytes);
  SMETER_RETURN_IF_ERROR(reader.Open());
  TimeSeries series;
  Sample sample;
  while (reader.Next(sample)) SMETER_RETURN_IF_ERROR(series.Append(sample));
  SMETER_RETURN_IF_ERROR(reader.Finish());
  return series;
}

Result<TimeSeries> LoadReddHouseMains(const std::string& house_dir,
                                      size_t read_buffer_bytes) {
  TimeSeries total;
  SMETER_RETURN_IF_ERROR(ForEachHouseSample(
      house_dir, read_buffer_bytes,
      [&total](Sample sample) { return total.Append(sample); }));
  return total;
}

}  // namespace internal

Result<TimeSeries> LoadReddChannel(const std::string& path) {
  return internal::LoadReddChannel(path, kReddReadBufferBytes);
}

Status ForEachReddHouseSample(const std::string& house_dir,
                              const std::function<Status(Sample)>& on_sample) {
  return ForEachHouseSample(house_dir, kReddReadBufferBytes, on_sample);
}

Result<TimeSeries> LoadReddHouseMains(const std::string& house_dir) {
  return internal::LoadReddHouseMains(house_dir, kReddReadBufferBytes);
}

}  // namespace smeter::data
