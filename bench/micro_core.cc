// Micro-benchmarks (google-benchmark) for the core encoding path: the
// sensor-side cost story behind Section 2's "analytics on top of it become
// very expensive" motivation.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/random.h"
#include "core/encoder.h"
#include "core/online_encoder.h"
#include "core/quantile.h"
#include "core/codec.h"
#include "core/sax.h"
#include "data/redd.h"

namespace smeter {
namespace {

std::vector<double> BenchValues(size_t n) {
  Rng rng(42);
  std::vector<double> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) values.push_back(rng.LogNormal(5.0, 1.0));
  return values;
}

LookupTable BenchTable(int level) {
  LookupTableOptions options;
  options.method = SeparatorMethod::kMedian;
  options.level = level;
  return LookupTable::Build(BenchValues(10000), options).value();
}

void BM_TableBuild(benchmark::State& state) {
  std::vector<double> values = BenchValues(static_cast<size_t>(state.range(0)));
  LookupTableOptions options;
  options.method = SeparatorMethod::kMedian;
  options.level = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(LookupTable::Build(values, options));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TableBuild)->Arg(1000)->Arg(86400);

void BM_Encode(benchmark::State& state) {
  LookupTable table = BenchTable(static_cast<int>(state.range(0)));
  TimeSeries series = TimeSeries::FromValues(BenchValues(86400));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Encode(series, table));
  }
  state.SetItemsProcessed(state.iterations() * 86400);
}
BENCHMARK(BM_Encode)->Arg(1)->Arg(4)->Arg(8);

void BM_EncodeSingleValue(benchmark::State& state) {
  LookupTable table = BenchTable(4);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Encode(rng.Uniform(0.0, 1000.0)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EncodeSingleValue);

void BM_OnlineEncoderPush(benchmark::State& state) {
  OnlineEncoderOptions options;
  options.warmup_seconds = 900;
  options.window_seconds = 900;
  OnlineEncoder encoder = OnlineEncoder::Create(options).value();
  Rng rng(11);
  Timestamp t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.Push({t++, rng.LogNormal(5.0, 1.0)}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OnlineEncoderPush);

void BM_VerticalSegment(benchmark::State& state) {
  TimeSeries series = TimeSeries::FromValues(BenchValues(86400));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        VerticalSegmentByWindow(series, state.range(0), {}));
  }
  state.SetItemsProcessed(state.iterations() * 86400);
}
BENCHMARK(BM_VerticalSegment)->Arg(900)->Arg(3600);

void BM_EqualFrequencySeparators(benchmark::State& state) {
  std::vector<double> values = BenchValues(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EqualFrequencySeparators(values, 15));
  }
}
BENCHMARK(BM_EqualFrequencySeparators)->Arg(10000)->Arg(172800);

void BM_SaxEncodeDay(benchmark::State& state) {
  TimeSeries series = TimeSeries::FromValues(BenchValues(86400));
  SaxOptions options;
  options.level = 4;
  options.paa_frame = 900;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SaxEncode(series, options));
  }
  state.SetItemsProcessed(state.iterations() * 86400);
}
BENCHMARK(BM_SaxEncodeDay);

void BM_PackDay(benchmark::State& state) {
  LookupTable table = BenchTable(4);
  TimeSeries raw = TimeSeries::FromValues(BenchValues(86400));
  PipelineOptions pipeline;
  pipeline.window_seconds = 900;
  SymbolicSeries day = EncodePipeline(raw, table, pipeline).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(PackSymbolicSeries(day));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(day.size()));
}
BENCHMARK(BM_PackDay);

void BM_UnpackDay(benchmark::State& state) {
  LookupTable table = BenchTable(4);
  TimeSeries raw = TimeSeries::FromValues(BenchValues(86400));
  PipelineOptions pipeline;
  pipeline.window_seconds = 900;
  SymbolicSeries day = EncodePipeline(raw, table, pipeline).value();
  std::string blob = PackSymbolicSeries(day).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(UnpackSymbolicSeries(blob));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(day.size()));
}
BENCHMARK(BM_UnpackDay);

void BM_RunningStatsAdd(benchmark::State& state) {
  Rng rng(13);
  RunningStats stats;
  for (auto _ : state) {
    stats.Add(rng.LogNormal(5.0, 1.0));
  }
  benchmark::DoNotOptimize(stats.count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RunningStatsAdd);

// The REDD channel loader over a simulated 1-day, 1 Hz channel file
// ("timestamp watts" rows, centiwatt precision like REDD's mains), read
// from the page cache: file read + line walk + number parsing.
void BM_LoadReddChannel(benchmark::State& state) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("smeter_bench_channel_" + std::to_string(::getpid()) + ".dat"))
          .string();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    Rng rng(5);
    char row[64];
    for (int64_t t = 0; t < kSecondsPerDay; ++t) {
      int n = std::snprintf(row, sizeof(row), "%lld %.2f\n",
                            static_cast<long long>(1303132929 + t),
                            rng.LogNormal(5.0, 1.0));
      out.write(row, n);
    }
  }
  const int64_t bytes =
      static_cast<int64_t>(std::filesystem::file_size(path));
  for (auto _ : state) {
    Result<TimeSeries> series = data::LoadReddChannel(path);
    if (!series.ok()) {
      state.SkipWithError(series.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(series->size());
  }
  std::filesystem::remove(path);
  state.SetBytesProcessed(state.iterations() * bytes);
  state.SetItemsProcessed(state.iterations() * kSecondsPerDay);
}
BENCHMARK(BM_LoadReddChannel)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace smeter

// run_bench.sh records BM_LoadReddChannel only when this marker says
// release (see micro_parallel.cc).
int main(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("smeter_build_type", "release");
#else
  benchmark::AddCustomContext("smeter_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
