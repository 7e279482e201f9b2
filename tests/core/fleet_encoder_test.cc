#include "core/fleet_encoder.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "data/redd.h"
#include "testutil.h"

namespace smeter {
namespace {

TimeSeries SyntheticTrace(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<double> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) values.push_back(rng.LogNormal(5.0, 1.0));
  return TimeSeries::FromValues(values);
}

std::vector<TimeSeries> SyntheticFleet(size_t households, size_t n) {
  std::vector<TimeSeries> fleet;
  fleet.reserve(households);
  for (size_t h = 0; h < households; ++h) {
    fleet.push_back(SyntheticTrace(100 + h, n));
  }
  return fleet;
}

FleetEncodeOptions SmallOptions() {
  FleetEncodeOptions options;
  options.table.level = 3;
  options.pipeline.window_seconds = 60;
  return options;
}

void ExpectSameEncoding(const HouseholdEncoding& a,
                        const HouseholdEncoding& b) {
  EXPECT_EQ(a.table.separators(), b.table.separators());
  EXPECT_EQ(a.symbols.level(), b.symbols.level());
  EXPECT_EQ(a.symbols.samples(), b.symbols.samples());
}

TEST(FleetEncoderTest, MatchesPerHouseholdPipeline) {
  std::vector<TimeSeries> fleet = SyntheticFleet(4, 600);
  FleetEncodeOptions options = SmallOptions();
  ASSERT_OK_AND_ASSIGN(std::vector<HouseholdEncoding> encoded,
                       EncodeFleet(fleet, options));
  ASSERT_EQ(encoded.size(), fleet.size());
  for (size_t h = 0; h < fleet.size(); ++h) {
    std::vector<double> training;
    for (const Sample& s : fleet[h]) training.push_back(s.value);
    ASSERT_OK_AND_ASSIGN(LookupTable table,
                         LookupTable::Build(training, options.table));
    EXPECT_EQ(encoded[h].table.separators(), table.separators());
    ASSERT_OK_AND_ASSIGN(SymbolicSeries symbols,
                         EncodePipeline(fleet[h], table, options.pipeline));
    EXPECT_EQ(encoded[h].symbols.samples(), symbols.samples()) << "house " << h;
  }
}

TEST(FleetEncoderTest, ParallelMatchesSerialForAnyPoolSize) {
  std::vector<TimeSeries> fleet = SyntheticFleet(7, 400);
  FleetEncodeOptions options = SmallOptions();
  ASSERT_OK_AND_ASSIGN(std::vector<HouseholdEncoding> serial,
                       EncodeFleet(fleet, options, /*pool=*/nullptr));
  for (size_t threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    ASSERT_OK_AND_ASSIGN(std::vector<HouseholdEncoding> parallel,
                         EncodeFleet(fleet, options, &pool));
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t h = 0; h < serial.size(); ++h) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " house=" + std::to_string(h));
      ExpectSameEncoding(parallel[h], serial[h]);
    }
  }
}

TEST(FleetEncoderTest, ZeroAndOneHouseholds) {
  FleetEncodeOptions options = SmallOptions();
  ThreadPool pool(4);
  ASSERT_OK_AND_ASSIGN(std::vector<HouseholdEncoding> none,
                       EncodeFleet({}, options, &pool));
  EXPECT_TRUE(none.empty());
  ASSERT_OK_AND_ASSIGN(
      std::vector<HouseholdEncoding> one,
      EncodeFleet({SyntheticTrace(1, 300)}, options, &pool));
  EXPECT_EQ(one.size(), 1u);
}

TEST(FleetEncoderTest, ErrorNamesLowestFailingHousehold) {
  // Households 2 and 5 are empty; the reported error must name household 2
  // regardless of scheduling, matching what a serial loop would report.
  std::vector<TimeSeries> fleet = SyntheticFleet(8, 200);
  fleet[2] = TimeSeries();
  fleet[5] = TimeSeries();
  FleetEncodeOptions options = SmallOptions();
  for (int round = 0; round < 5; ++round) {
    ThreadPool pool(4);
    Result<std::vector<HouseholdEncoding>> encoded =
        EncodeFleet(fleet, options, &pool);
    ASSERT_FALSE(encoded.ok());
    EXPECT_NE(encoded.status().message().find("household 2"),
              std::string::npos)
        << encoded.status().message();
    EXPECT_EQ(encoded.status().message().find("household 5"),
              std::string::npos)
        << encoded.status().message();
  }
}

TEST(FleetEncoderTest, HistorySecondsLimitsTableTraining) {
  TimeSeries trace = SyntheticTrace(3, 1000);
  FleetEncodeOptions options = SmallOptions();
  options.history_seconds = 250;  // 1 Hz trace -> first 250 samples
  ASSERT_OK_AND_ASSIGN(std::vector<HouseholdEncoding> encoded,
                       EncodeFleet({trace}, options));
  std::vector<double> history;
  for (size_t i = 0; i < 250; ++i) history.push_back(trace[i].value);
  ASSERT_OK_AND_ASSIGN(LookupTable table,
                       LookupTable::Build(history, options.table));
  EXPECT_EQ(encoded[0].table.separators(), table.separators());
  // The whole-trace table differs, proving the slice mattered.
  std::vector<double> all;
  for (const Sample& s : trace) all.push_back(s.value);
  ASSERT_OK_AND_ASSIGN(LookupTable full_table,
                       LookupTable::Build(all, options.table));
  EXPECT_NE(encoded[0].table.separators(), full_table.separators());
}

// --- tolerant path ----------------------------------------------------------

std::vector<FleetInput> SyntheticInputs(size_t households, size_t n) {
  std::vector<FleetInput> inputs;
  for (size_t h = 0; h < households; ++h) {
    inputs.push_back({"house_" + std::to_string(h + 1),
                      SyntheticTrace(100 + h, n)});
  }
  return inputs;
}

// Writes `trace` as a REDD house directory whose mains join back to it
// exactly: channel_1 holds the values (17 significant digits round-trip),
// channel_2 zeros.
void WriteReddHouse(const std::string& dir, const TimeSeries& trace) {
  std::filesystem::create_directories(dir);
  std::ofstream mains1(dir + "/channel_1.dat", std::ios::trunc);
  std::ofstream mains2(dir + "/channel_2.dat", std::ios::trunc);
  char row[64];
  for (const Sample& s : trace) {
    std::snprintf(row, sizeof(row), "%lld %.17g\n",
                  static_cast<long long>(s.timestamp), s.value);
    mains1 << row;
    mains2 << s.timestamp << " 0\n";
  }
}

// The same house streamed from disk by each attempt.
FleetInput StreamedInput(const std::string& name, const std::string& dir) {
  return {.name = name,
          .source = [dir](const std::function<Status(Sample)>& on_sample) {
            return data::ForEachReddHouseSample(dir, on_sample);
          }};
}

void ExpectSameReport(const HouseholdReport& a, const HouseholdReport& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.quality.windows_valid, b.quality.windows_valid);
  EXPECT_EQ(a.quality.windows_partial, b.quality.windows_partial);
  EXPECT_EQ(a.quality.windows_gap, b.quality.windows_gap);
  ASSERT_EQ(a.encoding.has_value(), b.encoding.has_value());
  if (a.encoding.has_value()) {
    EXPECT_EQ(a.encoding->table.Serialize(), b.encoding->table.Serialize());
    ExpectSameEncoding(*a.encoding, *b.encoding);
  }
}

// A 1 Hz trace with a dead hour: values over [0, 600) and [1200, 1800).
TimeSeries GappyTrace(uint64_t seed) {
  Rng rng(seed);
  std::vector<Sample> samples;
  for (int t = 0; t < 600; ++t) samples.push_back({t, rng.LogNormal(5.0, 1.0)});
  for (int t = 1200; t < 1800; ++t) {
    samples.push_back({t, rng.LogNormal(5.0, 1.0)});
  }
  return TimeSeries::FromSamples(std::move(samples)).value();
}

TEST(FleetTolerantTest, BadInputQuarantinesOnlyThatHousehold) {
  std::vector<FleetInput> inputs = SyntheticInputs(3, 400);
  inputs[1].trace = InternalError("disk on fire");
  FleetEncodeOptions options = SmallOptions();
  options.retry.max_retries = 0;
  ASSERT_OK_AND_ASSIGN(std::vector<HouseholdReport> reports,
                       EncodeFleetTolerant(inputs, options));
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_EQ(reports[0].outcome, HouseholdOutcome::kOk);
  EXPECT_EQ(reports[2].outcome, HouseholdOutcome::kOk);
  EXPECT_TRUE(reports[0].encoding.has_value());
  EXPECT_EQ(reports[1].outcome, HouseholdOutcome::kQuarantined);
  EXPECT_FALSE(reports[1].encoding.has_value());
  EXPECT_NE(reports[1].error.message().find("disk on fire"),
            std::string::npos)
      << reports[1].error.message();
  EXPECT_NE(reports[1].error.message().find("house_2"), std::string::npos)
      << reports[1].error.message();
  FleetQualityReport summary = SummarizeFleet(reports);
  EXPECT_EQ(summary.households_ok, 2u);
  EXPECT_EQ(summary.households_quarantined, 1u);
  EXPECT_EQ(summary.total(), 3u);
}

TEST(FleetTolerantTest, TransientFaultRecoversWithinRetryBudget) {
  std::vector<FleetInput> inputs = SyntheticInputs(1, 300);
  FleetEncodeOptions options = SmallOptions();
  options.retry.max_retries = 2;
  std::vector<int64_t> slept;
  options.retry.sleep_ms = [&slept](int64_t ms) { slept.push_back(ms); };
  {
    fault::ScopedFaultPlan plan(
        {fault::FaultRule::FailCalls("fleet.household", 1, 2)});
    ASSERT_OK_AND_ASSIGN(std::vector<HouseholdReport> reports,
                         EncodeFleetTolerant(inputs, options));
    ASSERT_EQ(reports.size(), 1u);
    // Two injected failures then success: attempt 3 lands, so the
    // household survives but is flagged degraded.
    EXPECT_EQ(reports[0].attempts, 3);
    EXPECT_EQ(reports[0].outcome, HouseholdOutcome::kDegraded);
    EXPECT_TRUE(reports[0].error.ok());
    EXPECT_TRUE(reports[0].encoding.has_value());
    // Exponential backoff before retries 1 and 2: 100 ms then 200 ms.
    EXPECT_EQ(slept, (std::vector<int64_t>{100, 200}));
  }

  // A streamed household reads its files inside the attempt, so one failed
  // channel read is retried too, and the retry encodes what a clean run
  // would.
  const std::string dir = smeter::testing::TempPath("fleet_transient_read");
  std::filesystem::remove_all(dir);
  WriteReddHouse(dir, *inputs[0].trace);
  std::vector<FleetInput> streamed = {StreamedInput("house_1", dir)};
  ASSERT_OK_AND_ASSIGN(std::vector<HouseholdReport> clean,
                       EncodeFleetTolerant(streamed, options));
  slept.clear();
  fault::ScopedFaultPlan plan({fault::FaultRule::FailCalls("csv.read", 1, 1)});
  ASSERT_OK_AND_ASSIGN(std::vector<HouseholdReport> reports,
                       EncodeFleetTolerant(streamed, options));
  EXPECT_EQ(plan.InjectedCount("csv.read"), 1u);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].attempts, 2);
  EXPECT_EQ(reports[0].outcome, HouseholdOutcome::kDegraded);
  EXPECT_TRUE(reports[0].error.ok());
  EXPECT_EQ(slept, (std::vector<int64_t>{100}));
  ASSERT_TRUE(reports[0].encoding.has_value());
  ASSERT_TRUE(clean[0].encoding.has_value());
  ExpectSameEncoding(*reports[0].encoding, *clean[0].encoding);
  EXPECT_EQ(reports[0].samples, 300u);
}

TEST(FleetTolerantTest, ExhaustedRetriesQuarantineWithAttemptCount) {
  std::vector<FleetInput> inputs = SyntheticInputs(1, 300);
  FleetEncodeOptions options = SmallOptions();
  options.retry.max_retries = 1;
  options.retry.initial_backoff_ms = 7;
  std::vector<int64_t> slept;
  options.retry.sleep_ms = [&slept](int64_t ms) { slept.push_back(ms); };
  fault::ScopedFaultPlan plan(
      {fault::FaultRule::FailCalls("fleet.household", 1)});
  ASSERT_OK_AND_ASSIGN(std::vector<HouseholdReport> reports,
                       EncodeFleetTolerant(inputs, options));
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].outcome, HouseholdOutcome::kQuarantined);
  EXPECT_EQ(reports[0].attempts, 2);
  EXPECT_FALSE(reports[0].error.ok());
  EXPECT_EQ(slept, (std::vector<int64_t>{7}));
  // Quarantined households contribute no windows to the rollup.
  FleetQualityReport summary = SummarizeFleet(reports);
  EXPECT_EQ(summary.windows_total, 0u);
}

TEST(FleetTolerantTest, GappyTraceIsDegradedWhenGapAware) {
  std::vector<FleetInput> inputs;
  inputs.push_back({"gappy", GappyTrace(9)});
  FleetEncodeOptions options = SmallOptions();
  options.gap_aware = true;
  ASSERT_OK_AND_ASSIGN(std::vector<HouseholdReport> reports,
                       EncodeFleetTolerant(inputs, options));
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].outcome, HouseholdOutcome::kDegraded);
  EXPECT_EQ(reports[0].attempts, 1);
  EXPECT_EQ(reports[0].quality.windows_valid, 20u);
  EXPECT_EQ(reports[0].quality.windows_gap, 10u);
  ASSERT_TRUE(reports[0].encoding.has_value());
  EXPECT_EQ(reports[0].encoding->symbols.GapCount(), 10u);
  EXPECT_EQ(reports[0].encoding->symbols.size(), 30u);
  // Without gap awareness the outage is silently dropped: the household
  // looks clean but the hour of missing windows leaves no trace in the
  // symbol stream or the quality counts.
  options.gap_aware = false;
  ASSERT_OK_AND_ASSIGN(reports, EncodeFleetTolerant(inputs, options));
  EXPECT_EQ(reports[0].outcome, HouseholdOutcome::kOk);
  EXPECT_EQ(reports[0].quality.windows_valid, 20u);
  EXPECT_EQ(reports[0].quality.windows_gap, 0u);
  EXPECT_EQ(reports[0].encoding->symbols.size(), 20u);
}

TEST(FleetTolerantTest, SinkConsumesEncodingAndItsFailuresRetry) {
  std::vector<FleetInput> inputs = SyntheticInputs(2, 300);
  FleetEncodeOptions options = SmallOptions();
  options.retry.max_retries = 1;
  options.retry.sleep_ms = [](int64_t) {};
  int house_1_sink_calls = 0;
  HouseholdSink sink = [&house_1_sink_calls](
                           size_t index, const HouseholdReport& report,
                           const HouseholdEncoding& encoding) -> Status {
    EXPECT_FALSE(report.name.empty());
    EXPECT_GT(encoding.symbols.size(), 0u);
    if (index == 0) {
      // First sink call for house_1 fails; the retry must call it again.
      if (++house_1_sink_calls == 1) return InternalError("sink hiccup");
    }
    return Status();
  };
  ASSERT_OK_AND_ASSIGN(std::vector<HouseholdReport> reports,
                       EncodeFleetTolerant(inputs, options, nullptr, sink));
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(house_1_sink_calls, 2);
  EXPECT_EQ(reports[0].attempts, 2);
  EXPECT_EQ(reports[0].outcome, HouseholdOutcome::kDegraded);
  EXPECT_EQ(reports[1].outcome, HouseholdOutcome::kOk);
  // With a sink, encodings stream out instead of accumulating.
  EXPECT_FALSE(reports[0].encoding.has_value());
  EXPECT_FALSE(reports[1].encoding.has_value());
}

TEST(FleetTolerantTest, RejectsBadRetryOptions) {
  std::vector<FleetInput> inputs = SyntheticInputs(1, 100);
  FleetEncodeOptions options = SmallOptions();
  options.retry.max_retries = -1;
  EXPECT_FALSE(EncodeFleetTolerant(inputs, options).ok());
  options = SmallOptions();
  options.retry.initial_backoff_ms = -5;
  EXPECT_FALSE(EncodeFleetTolerant(inputs, options).ok());
  options = SmallOptions();
  options.retry.backoff_multiplier = 0.5;
  EXPECT_FALSE(EncodeFleetTolerant(inputs, options).ok());
}

TEST(FleetTolerantTest, ParallelReportsMatchSerial) {
  std::vector<FleetInput> inputs = SyntheticInputs(6, 300);
  inputs[3].trace = NotFoundError("no such meter");
  FleetEncodeOptions options = SmallOptions();
  options.gap_aware = true;
  options.retry.max_retries = 0;
  ASSERT_OK_AND_ASSIGN(std::vector<HouseholdReport> serial,
                       EncodeFleetTolerant(inputs, options));
  for (size_t threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    ASSERT_OK_AND_ASSIGN(std::vector<HouseholdReport> parallel,
                         EncodeFleetTolerant(inputs, options, &pool));
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t h = 0; h < serial.size(); ++h) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " house=" + std::to_string(h));
      EXPECT_EQ(parallel[h].name, serial[h].name);
      EXPECT_EQ(parallel[h].outcome, serial[h].outcome);
      EXPECT_EQ(parallel[h].attempts, serial[h].attempts);
      EXPECT_EQ(parallel[h].quality.windows_valid,
                serial[h].quality.windows_valid);
      EXPECT_EQ(parallel[h].quality.windows_gap,
                serial[h].quality.windows_gap);
      EXPECT_EQ(parallel[h].encoding.has_value(),
                serial[h].encoding.has_value());
      if (parallel[h].encoding.has_value()) {
        ExpectSameEncoding(*parallel[h].encoding, *serial[h].encoding);
      }
    }
  }

  // The same fleet as REDD house directories: streamed from disk by each
  // attempt, it must give exactly what the loaded traces give. House 4 has
  // no channel_2 (its load error must match too), and house 6 a dead hour.
  const std::string root = smeter::testing::TempPath("fleet_streamed");
  std::filesystem::remove_all(root);
  std::vector<FleetInput> loaded;
  std::vector<FleetInput> streamed;
  for (size_t h = 0; h < inputs.size(); ++h) {
    const std::string name = "house_" + std::to_string(h + 1);
    const std::string dir = root + "/" + name;
    WriteReddHouse(dir, h == 5 ? GappyTrace(9) : SyntheticTrace(100 + h, 300));
    if (h == 3) std::filesystem::remove(dir + "/channel_2.dat");
    loaded.push_back({name, data::LoadReddHouseMains(dir)});
    streamed.push_back(StreamedInput(name, dir));
  }
  for (bool gap_aware : {true, false}) {
    for (int64_t history : {int64_t{0}, int64_t{172800}}) {
      FleetEncodeOptions streaming = SmallOptions();
      streaming.gap_aware = gap_aware;
      streaming.history_seconds = history;
      streaming.retry.max_retries = 0;
      for (size_t threads : {1, 4}) {
        ThreadPool pool(threads);
        ASSERT_OK_AND_ASSIGN(std::vector<HouseholdReport> want,
                             EncodeFleetTolerant(loaded, streaming, &pool));
        ASSERT_OK_AND_ASSIGN(std::vector<HouseholdReport> got,
                             EncodeFleetTolerant(streamed, streaming, &pool));
        ASSERT_EQ(got.size(), want.size());
        for (size_t h = 0; h < want.size(); ++h) {
          SCOPED_TRACE("gap_aware=" + std::to_string(gap_aware) +
                       " history=" + std::to_string(history) + " threads=" +
                       std::to_string(threads) + " house=" +
                       std::to_string(h));
          ExpectSameReport(got[h], want[h]);
        }
        EXPECT_EQ(got[3].outcome, HouseholdOutcome::kQuarantined);
        EXPECT_EQ(got[0].samples, 300u);
      }
    }
  }
}

TEST(FleetTolerantTest, ProgressCountsMatchTheReports) {
  std::vector<FleetInput> inputs = SyntheticInputs(6, 300);
  inputs[2].trace = InternalError("dead meter");
  FleetEncodeOptions options = SmallOptions();
  options.retry.max_retries = 1;
  options.retry.sleep_ms = [](int64_t) {};
  // One injected transient failure: some household (scheduling-dependent
  // under the pool) burns a retry; the progress totals must still agree
  // with the final reports exactly.
  fault::ScopedFaultPlan plan(
      {fault::FaultRule::FailCalls("fleet.household", 1, 1)});
  ThreadPool pool(3);
  FleetProgress progress;
  ASSERT_OK_AND_ASSIGN(
      std::vector<HouseholdReport> reports,
      EncodeFleetTolerant(inputs, options, &pool, nullptr, &progress));
  ASSERT_EQ(reports.size(), inputs.size());

  FleetProgress::Snapshot snap = progress.Get();
  FleetQualityReport summary = SummarizeFleet(reports);
  EXPECT_EQ(snap.completed, inputs.size());
  EXPECT_EQ(snap.ok, summary.households_ok);
  EXPECT_EQ(snap.degraded, summary.households_degraded);
  EXPECT_EQ(snap.quarantined, summary.households_quarantined);
  EXPECT_EQ(snap.quarantined, 1u);  // only the dead meter
  size_t retries = 0;
  for (const HouseholdReport& r : reports) {
    retries += static_cast<size_t>(r.attempts - 1);
  }
  EXPECT_EQ(snap.retries, retries);
  EXPECT_GE(snap.retries, 1u);  // the injected failure forced at least one
}

TEST(FleetTolerantTest, JsonReportNamesEveryHouseholdAndOutcome) {
  std::vector<FleetInput> inputs = SyntheticInputs(2, 200);
  inputs[1].trace = InternalError("bad \"quote\" in message");
  FleetEncodeOptions options = SmallOptions();
  options.retry.max_retries = 0;
  ASSERT_OK_AND_ASSIGN(std::vector<HouseholdReport> reports,
                       EncodeFleetTolerant(inputs, options));
  std::string json = FleetQualityReportToJson(SummarizeFleet(reports), reports);
  EXPECT_NE(json.find("\"house_1\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"house_2\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ok\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"quarantined\""), std::string::npos) << json;
  // The quote inside the error message must be escaped.
  EXPECT_NE(json.find("bad \\\"quote\\\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"households_quarantined\": 1"), std::string::npos)
      << json;
}

}  // namespace
}  // namespace smeter
