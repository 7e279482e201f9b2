#include "data/redd.h"

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/redd_reference.h"
#include "testutil.h"

namespace smeter::data {
namespace {

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
}

TEST(ReddChannelTest, ParsesTimestampWattPairs) {
  std::string path = smeter::testing::TempPath("channel.dat");
  WriteFile(path, "1303132929 241.30\n1303132930 245.00\n1303132932 60.5\n");
  ASSERT_OK_AND_ASSIGN(TimeSeries s, LoadReddChannel(path));
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0].timestamp, 1303132929);
  EXPECT_DOUBLE_EQ(s[0].value, 241.30);
  EXPECT_DOUBLE_EQ(s[2].value, 60.5);
}

// A logger killed mid-write leaves a torn final record ("1303132931 2" for
// what would have been "1303132931 250.0"). The torn row's fields look
// numeric, so only the missing terminator betrays it — drop that one row,
// keep the rest of the channel.
TEST(ReddChannelTest, DropsTruncatedFinalRecord) {
  std::string path = smeter::testing::TempPath("torn.dat");
  WriteFile(path, "1303132929 241.30\n1303132930 245.00\n1303132931 2");
  ASSERT_OK_AND_ASSIGN(TimeSeries s, LoadReddChannel(path));
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[1].timestamp, 1303132930);
}

// The torn tail can even be a half-written timestamp with no value field;
// that must not surface as a "fewer than 2 fields" error.
TEST(ReddChannelTest, TruncatedSingleFieldTailIsDroppedNotRejected) {
  std::string path = smeter::testing::TempPath("torn_short.dat");
  WriteFile(path, "1303132929 241.30\n13031329");
  ASSERT_OK_AND_ASSIGN(TimeSeries s, LoadReddChannel(path));
  ASSERT_EQ(s.size(), 1u);
}

TEST(ReddChannelTest, RejectsMalformedRows) {
  std::string path = smeter::testing::TempPath("bad.dat");
  WriteFile(path, "1303132929 241.30\nnot_a_number 10\n");
  EXPECT_FALSE(LoadReddChannel(path).ok());
}

TEST(ReddChannelTest, RejectsShortRows) {
  std::string path = smeter::testing::TempPath("short.dat");
  WriteFile(path, "1303132929\n");
  EXPECT_FALSE(LoadReddChannel(path).ok());
}

TEST(ReddChannelTest, RejectsTimestampRegression) {
  std::string path = smeter::testing::TempPath("regress.dat");
  WriteFile(path, "100 1.0\n99 2.0\n");
  Result<TimeSeries> r = LoadReddChannel(path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("row 1"), std::string::npos);
}

TEST(ReddChannelTest, MissingFileIsNotFound) {
  Result<TimeSeries> r = LoadReddChannel("/no/such/file.dat");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ReddHouseTest, SumsTheTwoMains) {
  std::string dir = smeter::testing::TempPath("house_1");
  ASSERT_EQ(::system(("mkdir -p " + dir).c_str()), 0);
  WriteFile(dir + "/channel_1.dat", "100 10.0\n101 20.0\n102 30.0\n");
  WriteFile(dir + "/channel_2.dat", "100 1.0\n101 2.0\n102 3.0\n");
  ASSERT_OK_AND_ASSIGN(TimeSeries total, LoadReddHouseMains(dir));
  ASSERT_EQ(total.size(), 3u);
  EXPECT_DOUBLE_EQ(total[0].value, 11.0);
  EXPECT_DOUBLE_EQ(total[2].value, 33.0);
}

TEST(ReddHouseTest, AlignsOnSharedTimestampsOnly) {
  std::string dir = smeter::testing::TempPath("house_2");
  ASSERT_EQ(::system(("mkdir -p " + dir).c_str()), 0);
  // Channel 2 misses timestamp 101 and has an extra 103.
  WriteFile(dir + "/channel_1.dat", "100 10.0\n101 20.0\n102 30.0\n");
  WriteFile(dir + "/channel_2.dat", "100 1.0\n102 3.0\n103 4.0\n");
  ASSERT_OK_AND_ASSIGN(TimeSeries total, LoadReddHouseMains(dir));
  ASSERT_EQ(total.size(), 2u);
  EXPECT_EQ(total[0].timestamp, 100);
  EXPECT_EQ(total[1].timestamp, 102);
}

TEST(ReddHouseTest, ErrorsWhenNoOverlap) {
  std::string dir = smeter::testing::TempPath("house_3");
  ASSERT_EQ(::system(("mkdir -p " + dir).c_str()), 0);
  WriteFile(dir + "/channel_1.dat", "100 10.0\n");
  WriteFile(dir + "/channel_2.dat", "200 1.0\n");
  EXPECT_FALSE(LoadReddHouseMains(dir).ok());
}

TEST(ReddHouseTest, MissingChannelIsNotFound) {
  std::string dir = smeter::testing::TempPath("house_4");
  ASSERT_EQ(::system(("mkdir -p " + dir).c_str()), 0);
  WriteFile(dir + "/channel_1.dat", "100 10.0\n");
  Result<TimeSeries> r = LoadReddHouseMains(dir);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

// --- differential oracle ----------------------------------------------------
//
// The streaming loader must agree with the original row-materialising one
// (redd_reference.h) on every input: same ok(), same status, bit-identical
// samples. Every input runs at read-buffer sizes that tear lines, "\r\n"
// pairs and numbers at every offset, and at the production size.

constexpr size_t kBufferSizes[] = {1, 2, 3, 7, 4096, kReddReadBufferBytes};

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Channel texts covering the grammar's corners. Each is also used as
// either mains channel of a house.
const std::vector<std::string>& EdgeCases() {
  static const std::vector<std::string> cases = {
      "",
      "\n\r\n\r",
      "# only a comment\n",
      "100 1.5\n101 2.5\n102 3.5\n",
      "100 1.5\r\n101 2.5\r\n",             // CRLF
      "100 1.5\r101 2.5\r",                 // lone CR
      "100 1.5\n\r101 2.5\n",               // LF CR: a blank line between
      "100 1.5\n101 2",                     // torn tail
      "100 1.5\r\n101 2.5",                 // torn tail after CRLF
      "100 1.5\n10",                        // torn single-field tail
      "100 1.5\n# partial com",             // comment tail
      "100 1.5\n   ",                       // blank tail
      "  # indented comment\n100 1.5\n",
      "100 4.9e-324\n101 2.2250738585072e-310\n",  // subnormal
      "100 2.4703282292062327e-324\n",      // rounds to the least subnormal
      "100 2.4703282292062327e-325\n",      // underflows to zero
      "100 1e-400\n101 -1e-400\n",          // underflow: -0.0 must survive
      "100 -0.0\n101 0.0\n",
      "100 0x1.8p3\n",                      // hex float
      "100 0x10\n",
      "0x10 1.0\n",
      "+100 +5\n",
      "+5 1.0\n",
      "100 +5\n",
      "100 inf\n",
      "100 -infinity\n",
      "100 nan\n",
      "100 nan(123)\n",
      "100 1e400\n",
      "100 -1e400\n",
      "100 1.7976931348623157e308\n101 1.7976931348623158e308\n",
      "100 1.7976931348623159e308\n",
      "100 0.1000000000000000055511151231257827021181583404541015625\n",
      "100 123456789012345678901234567890\n",
      "100 .5\n101 5.\n102 1e5\n103 1E-5\n",
      "100 1e\n",
      "100 .\n",
      "100 -\n",
      "- 1.0\n",
      "9223372036854775807 1\n",            // int64 max
      "-9223372036854775808 1\n",           // int64 min
      "9223372036854775808 1\n",            // int64 overflow
      "-9223372036854775809 1\n",
      "99999999999999999999999 1\n",
      "00100 1.0\n",
      "1.5 1.0\n",
      "100  1.5\n",                         // double space: empty value
      " 100 1.5\n",                         // leading space: empty timestamp
      "100 1.5 \n",                         // trailing space
      "100\t1.5\n",                         // tab-separated: one field
      "100 1.5\t\n",                        // trailing tab
      "100 \t1.5\n",
      "100 1.5 extra fields here\n",        // 3+ fields
      "100\n",
      "100 1.5\n99 2.5\n",                  // timestamp regression
      "100 1.5\n100 2.5\n100 3.5\n",        // duplicate timestamps
      "100 1.5\nnot_a_number 10\n",
      "100 1.5\n101 ten\n",
      "100 1e308\n101 1e308\n",
      std::string("100 1.5\n101\0 2.5\n", 16),
      std::string("100 1.5\0\n", 9),
  };
  return cases;
}

std::string WriteChannel(const std::string& content) {
  std::string path = smeter::testing::TempPath("diff_channel.dat");
  WriteFile(path, content);
  return path;
}

void ExpectChannelMatches(const std::string& content) {
  SCOPED_TRACE(::testing::PrintToString(content));
  std::string path = WriteChannel(content);
  const Result<TimeSeries> want = reference::LoadReddChannel(path);
  EXPECT_EQ(reference::Mismatch(LoadReddChannel(path), want), "");
  for (size_t bytes : kBufferSizes) {
    EXPECT_EQ(reference::Mismatch(internal::LoadReddChannel(path, bytes), want),
              "")
        << "read buffer " << bytes << " B";
  }
}

void ExpectHouseMatches(const std::string& channel_1,
                        const std::string& channel_2) {
  SCOPED_TRACE(::testing::PrintToString(channel_1) + " / " +
               ::testing::PrintToString(channel_2));
  std::string dir = smeter::testing::TempPath("diff_house");
  std::filesystem::create_directories(dir);
  WriteFile(dir + "/channel_1.dat", channel_1);
  WriteFile(dir + "/channel_2.dat", channel_2);
  const Result<TimeSeries> want = reference::LoadReddHouseMains(dir);
  EXPECT_EQ(reference::Mismatch(LoadReddHouseMains(dir), want), "");
  for (size_t bytes : kBufferSizes) {
    EXPECT_EQ(
        reference::Mismatch(internal::LoadReddHouseMains(dir, bytes), want), "")
        << "read buffer " << bytes << " B";
  }
}

TEST(ReddOracleTest, EdgeCases) {
  for (const std::string& content : EdgeCases()) {
    ExpectChannelMatches(content);
  }
  const std::string clean = "100 1.5\n101 2.5\n102 3.5\n";
  for (const std::string& content : EdgeCases()) {
    ExpectHouseMatches(content, clean);
    ExpectHouseMatches(clean, content);
  }
  // The join itself: an overflowing sum, and which error wins when the
  // join fails before channel_2 does.
  ExpectHouseMatches("100 1e308\n", "100 1e308\n");
  ExpectHouseMatches("100 1e308\n101 1\n", "100 1e308\n101 x\n");
  ExpectHouseMatches("100 1e308\n101 1\n", "100 1e308\n99 1\n");
  // Channel_2 keeps being validated after channel_1 runs out.
  ExpectHouseMatches("100 1\n", "100 1\n200 2\n150 3\n");
  ExpectHouseMatches("100 1\n", "100 1\n200 inf\n");
  ExpectHouseMatches("100 1\n100 2\n101 3\n", "100 10\n100 20\n100 30\n");
  ExpectHouseMatches("100 1\n102 2\n104 3\n", "101 1\n103 2\n105 3\n");
  // A missing channel_2 loses to a bad channel_1, even to one whose error
  // comes after rows the join could have used.
  std::string dir = smeter::testing::TempPath("diff_house_missing");
  std::filesystem::create_directories(dir);
  for (const std::string& channel_1 : {clean, clean + "99 1\n"}) {
    WriteFile(dir + "/channel_1.dat", channel_1);
    const Result<TimeSeries> want = reference::LoadReddHouseMains(dir);
    EXPECT_EQ(reference::Mismatch(LoadReddHouseMains(dir), want), "");
    for (size_t bytes : kBufferSizes) {
      EXPECT_EQ(
          reference::Mismatch(internal::LoadReddHouseMains(dir, bytes), want),
          "");
    }
  }
}

// Every fuzz_csv seed, then random channels spliced from grammar
// fragments, so rows mix every terminator, separator and number form in
// one file.
TEST(ReddOracleTest, FuzzCorpusAndRandomSplicesMatch) {
  size_t seeds = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(SMETER_FUZZ_CORPUS_DIR) + "/csv")) {
    const std::string content = ReadAll(entry.path().string());
    ExpectChannelMatches(content);
    // fuzz_csv spends its first three bytes on parse options.
    if (content.size() > 3) ExpectChannelMatches(content.substr(3));
    ++seeds;
  }
  EXPECT_GT(seeds, 0u);

  static const char* const kTimestamps[] = {
      "100", "101", "102", "99", "+103", "0x1", "", "-5", "104 ",
      "9223372036854775807", "9223372036854775808"};
  static const char* const kValues[] = {
      "1.5", "-0.0", "2.5e-320", "1e400", "+7", "0x1p-2", "nan", "",
      "3.25 x", "4\t", "1e", "  6", "5"};
  static const char* const kEnds[] = {"\n", "\r\n", "\r", "\n\n", "\n# c\n",
                                      ""};
  Rng rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    std::string channels[2];
    for (std::string& channel : channels) {
      const uint64_t rows = rng.UniformInt(6);
      for (uint64_t r = 0; r < rows; ++r) {
        channel += kTimestamps[rng.UniformInt(std::size(kTimestamps))];
        channel += rng.Bernoulli(0.9) ? " " : "\t";
        channel += kValues[rng.UniformInt(std::size(kValues))];
        channel += kEnds[rng.UniformInt(std::size(kEnds))];
      }
    }
    ExpectChannelMatches(channels[0]);
    ExpectHouseMatches(channels[0], channels[1]);
  }
}

}  // namespace
}  // namespace smeter::data
