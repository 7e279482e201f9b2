#include "common/csv.h"

#include <gtest/gtest.h>

#include "testutil.h"

namespace smeter {
namespace {

TEST(CsvTest, ParsesSimpleContent) {
  ASSERT_OK_AND_ASSIGN(CsvTable t, ParseCsv("a,b\n1,2\n"));
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(t.rows[1], (std::vector<std::string>{"1", "2"}));
}

TEST(CsvTest, SkipsCommentsAndBlankLines) {
  ASSERT_OK_AND_ASSIGN(CsvTable t, ParseCsv("# header\n\n1,2\n  \n# x\n3,4"));
  ASSERT_EQ(t.num_rows(), 2u);
}

TEST(CsvTest, HandlesCrlf) {
  ASSERT_OK_AND_ASSIGN(CsvTable t, ParseCsv("1,2\r\n3,4\r\n"));
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.rows[0][1], "2");
}

TEST(CsvTest, SpaceDelimiter) {
  CsvOptions options;
  options.delimiter = ' ';
  ASSERT_OK_AND_ASSIGN(CsvTable t, ParseCsv("1 200.5\n2 300.25\n", options));
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.rows[1][1], "300.25");
}

TEST(CsvTest, NoTrailingNewline) {
  ASSERT_OK_AND_ASSIGN(CsvTable t, ParseCsv("1,2"));
  ASSERT_EQ(t.num_rows(), 1u);
}

TEST(CsvTest, EmptyContent) {
  ASSERT_OK_AND_ASSIGN(CsvTable t, ParseCsv(""));
  EXPECT_EQ(t.num_rows(), 0u);
}

// Found by the fuzz harness: '\n' must terminate lines, not separate them,
// or a write→read round-trip grows a phantom empty row when blank-line
// skipping is disabled.
TEST(CsvTest, TrailingNewlineDoesNotAddARow) {
  CsvOptions options;
  options.skip_blank_lines = false;
  ASSERT_OK_AND_ASSIGN(CsvTable unterminated, ParseCsv("a,b", options));
  ASSERT_OK_AND_ASSIGN(CsvTable terminated, ParseCsv("a,b\n", options));
  EXPECT_EQ(unterminated.num_rows(), 1u);
  EXPECT_EQ(terminated.num_rows(), 1u);
  EXPECT_EQ(unterminated.rows, terminated.rows);
  // An explicitly blank interior line still counts when skipping is off.
  ASSERT_OK_AND_ASSIGN(CsvTable blank, ParseCsv("a,b\n\nc,d\n", options));
  EXPECT_EQ(blank.num_rows(), 3u);
}

TEST(CsvTest, CommentCharDisabled) {
  CsvOptions options;
  options.comment_char = '\0';
  ASSERT_OK_AND_ASSIGN(CsvTable t, ParseCsv("#not,comment\n", options));
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.rows[0][0], "#not");
}

// A final record without a line terminator is the signature of a
// truncated write; the row still parses but the flag lets loaders drop it.
TEST(CsvTest, FlagsTruncatedFinalRecord) {
  ASSERT_OK_AND_ASSIGN(CsvTable torn, ParseCsv("1,2\n3,"));
  ASSERT_EQ(torn.num_rows(), 2u);
  EXPECT_TRUE(torn.last_row_unterminated);
  ASSERT_OK_AND_ASSIGN(CsvTable clean, ParseCsv("1,2\n3,4\n"));
  EXPECT_FALSE(clean.last_row_unterminated);
  // A trailing comment or blank after a terminated data row does not flag:
  // the torn tail is not a data record.
  ASSERT_OK_AND_ASSIGN(CsvTable comment_tail, ParseCsv("1,2\n# partial com"));
  ASSERT_EQ(comment_tail.num_rows(), 1u);
  EXPECT_FALSE(comment_tail.last_row_unterminated);
}

// CRLF appearing mid-file (a file assembled from chunks with mixed line
// endings) must not leave '\r' glued onto field values or split rows
// wrongly.
TEST(CsvTest, MixedLineEndingsMidFile) {
  ASSERT_OK_AND_ASSIGN(CsvTable t, ParseCsv("1,2\r\n3,4\n5,6\r\n7,8"));
  ASSERT_EQ(t.num_rows(), 4u);
  EXPECT_EQ(t.rows[0], (std::vector<std::string>{"1", "2"}));
  EXPECT_EQ(t.rows[2], (std::vector<std::string>{"5", "6"}));
  EXPECT_EQ(t.rows[3], (std::vector<std::string>{"7", "8"}));
  EXPECT_TRUE(t.last_row_unterminated);
}

// Classic-Mac exports terminate lines with a lone '\r'.
TEST(CsvTest, LoneCarriageReturnTerminatesLines) {
  ASSERT_OK_AND_ASSIGN(CsvTable t, ParseCsv("1,2\r3,4\r"));
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.rows[0], (std::vector<std::string>{"1", "2"}));
  EXPECT_EQ(t.rows[1], (std::vector<std::string>{"3", "4"}));
  EXPECT_FALSE(t.last_row_unterminated);
}

TEST(CsvTest, CrLfPairIsOneTerminatorNotTwo) {
  CsvOptions options;
  options.skip_blank_lines = false;
  // "\r\n" must produce one line break; "\n\r" is two breaks (an empty
  // line between them).
  ASSERT_OK_AND_ASSIGN(CsvTable crlf, ParseCsv("a\r\nb\n", options));
  EXPECT_EQ(crlf.num_rows(), 2u);
  ASSERT_OK_AND_ASSIGN(CsvTable lfcr, ParseCsv("a\n\rb\n", options));
  EXPECT_EQ(lfcr.num_rows(), 3u);
}

}  // namespace
}  // namespace smeter
