#include "common/csv.h"

#include "common/string_util.h"

namespace smeter {

Result<CsvTable> ParseCsv(const std::string& content,
                          const CsvOptions& options) {
  CsvTable table;
  // '\n', '\r', and "\r\n" are line *terminators*: "a\n" is one line, and a
  // final unterminated segment ("...\nabc") still counts but is flagged via
  // last_row_unterminated. The empty string has no lines.
  size_t line_start = 0;
  while (line_start < content.size()) {
    size_t line_end = content.find_first_of("\r\n", line_start);
    bool terminated = line_end != std::string::npos;
    if (!terminated) line_end = content.size();
    std::string_view line(content.data() + line_start, line_end - line_start);
    line_start = line_end;
    if (terminated) {
      // Swallow "\r\n" as a single terminator; a lone '\r' or '\n' also
      // ends the line (classic-Mac exports and CRLF files mid-stream both
      // parse the same as Unix line endings).
      ++line_start;
      if (content[line_end] == '\r' && line_start < content.size() &&
          content[line_start] == '\n') {
        ++line_start;
      }
    }

    std::string_view trimmed = Trim(line);
    if (options.skip_blank_lines && trimmed.empty()) continue;
    if (options.comment_char != '\0' && !trimmed.empty() &&
        trimmed.front() == options.comment_char) {
      continue;
    }
    table.rows.push_back(Split(line, options.delimiter));
    table.last_row_unterminated = !terminated;
  }
  return table;
}

}  // namespace smeter
