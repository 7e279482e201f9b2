// Minimal CSV / delimiter-separated-values parsing.
//
// Supports arbitrary single-character delimiters, '#'-prefixed comment
// lines, and blank-line skipping.
// Quoting is not supported: smart-meter exports are purely numeric.

#ifndef SMETER_COMMON_CSV_H_
#define SMETER_COMMON_CSV_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace smeter {

struct CsvOptions {
  char delimiter = ',';
  // Lines starting with this character (after trimming) are skipped.
  // '\0' disables comment handling.
  char comment_char = '#';
  bool skip_blank_lines = true;
};

// A fully-parsed delimiter-separated file.
struct CsvTable {
  std::vector<std::vector<std::string>> rows;
  // True when the final data row had no line terminator — the signature of
  // a truncated write (a crashed logger, a partial download). The row is
  // still parsed; loaders that cannot trust a torn record should drop
  // rows.back() when this is set.
  bool last_row_unterminated = false;

  size_t num_rows() const { return rows.size(); }
};

// Parses `content` (the full text of a file) into rows of string fields.
Result<CsvTable> ParseCsv(const std::string& content,
                          const CsvOptions& options = {});

}  // namespace smeter

#endif  // SMETER_COMMON_CSV_H_
