// Test-only oracle for the REDD loader: the original row-materialising
// implementation (ParseCsv into string fields, then ParseInt/ParseDouble
// and TimeSeries::Append per row, then a two-pointer join of the mains).
// The streaming loader in data/redd.cc must agree with it on every input:
// the same ok(), the same status, and bit-identical samples.

#ifndef SMETER_TESTS_DATA_REDD_REFERENCE_H_
#define SMETER_TESTS_DATA_REDD_REFERENCE_H_

#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/csv.h"
#include "common/status.h"
#include "common/string_util.h"
#include "core/time_series.h"

namespace smeter::data::reference {

inline Result<TimeSeries> LoadReddChannel(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return NotFoundError("cannot open file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return InternalError("I/O error reading: " + path);
  CsvOptions csv;
  csv.delimiter = ' ';
  Result<CsvTable> table = ParseCsv(buf.str(), csv);
  if (!table.ok()) return table.status();

  size_t usable_rows = table->rows.size();
  if (table->last_row_unterminated && usable_rows > 0) --usable_rows;

  TimeSeries series;
  for (size_t i = 0; i < usable_rows; ++i) {
    const auto& row = table->rows[i];
    if (row.size() < 2) {
      return InvalidArgumentError(path + ": row " + std::to_string(i) +
                                  " has fewer than 2 fields");
    }
    Result<int64_t> ts = ParseInt(row[0]);
    if (!ts.ok()) return ts.status();
    Result<double> value = ParseDouble(row[1]);
    if (!value.ok()) return value.status();
    Status appended = series.Append({*ts, *value});
    if (!appended.ok()) {
      return Status(appended.code(),
                    path + ": row " + std::to_string(i) + ": " +
                        appended.message());
    }
  }
  return series;
}

inline Result<TimeSeries> LoadReddHouseMains(const std::string& house_dir) {
  Result<TimeSeries> mains1 = LoadReddChannel(house_dir + "/channel_1.dat");
  if (!mains1.ok()) return mains1.status();
  Result<TimeSeries> mains2 = LoadReddChannel(house_dir + "/channel_2.dat");
  if (!mains2.ok()) return mains2.status();

  TimeSeries total;
  size_t i = 0, j = 0;
  const TimeSeries& a = mains1.value();
  const TimeSeries& b = mains2.value();
  while (i < a.size() && j < b.size()) {
    if (a[i].timestamp < b[j].timestamp) {
      ++i;
    } else if (b[j].timestamp < a[i].timestamp) {
      ++j;
    } else {
      SMETER_RETURN_IF_ERROR(
          total.Append({a[i].timestamp, a[i].value + b[j].value}));
      ++i;
      ++j;
    }
  }
  if (total.empty()) {
    return FailedPreconditionError(house_dir +
                                   ": mains channels share no timestamps");
  }
  return total;
}

// Empty when `got` and `want` agree: both failed with the same status, or
// both succeeded with the same samples bit for bit (so -0.0 differs from
// 0.0). Otherwise a description of the first difference.
inline std::string Mismatch(const Result<TimeSeries>& got,
                            const Result<TimeSeries>& want) {
  if (got.ok() != want.ok() || !(got.status() == want.status())) {
    return "status " + got.status().ToString() + " != " +
           want.status().ToString();
  }
  if (!got.ok()) return "";
  if (got->size() != want->size()) {
    return "size " + std::to_string(got->size()) +
           " != " + std::to_string(want->size());
  }
  for (size_t i = 0; i < got->size(); ++i) {
    const Sample& g = (*got)[i];
    const Sample& w = (*want)[i];
    if (g.timestamp != w.timestamp ||
        std::memcmp(&g.value, &w.value, sizeof(double)) != 0) {
      return "sample " + std::to_string(i) + " differs";
    }
  }
  return "";
}

}  // namespace smeter::data::reference

#endif  // SMETER_TESTS_DATA_REDD_REFERENCE_H_
