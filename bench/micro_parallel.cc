// Micro-benchmarks for the parallel batch layer: SoA batch kernels vs the
// per-sample scalar path, fleet encoding across thread-pool sizes, and
// parallel vs serial forest training. `run_bench.sh` turns the JSON output
// into BENCH_micro.json.
//
// Note on thread scaling: the fleet/forest numbers only show speedup on
// multi-core hosts; on a single-core container every pool size degenerates
// to serial throughput (the caller lane does all the work) plus a little
// scheduling overhead, which is itself worth measuring.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/io.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/batch_encoder.h"
#include "core/codec.h"
#include "core/encoder.h"
#include "core/fleet_encoder.h"
#include "ml/random_forest.h"

namespace smeter {
namespace {

constexpr size_t kDaySamples = 86400;  // one day at the paper's 1 Hz

std::vector<double> BenchValues(size_t n, uint64_t seed = 42) {
  Rng rng(seed);
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

// The pre-batch per-sample path, exactly what Encode() used to do: one
// scalar lower_bound lookup, one validated SymbolicSeries::Append (level
// check, timestamp-order check, unreserved push_back) per reading.
void BM_EncodeScalar(benchmark::State& state) {
  LookupTable table = BenchTable(static_cast<int>(state.range(0)));
  TimeSeries series = TimeSeries::FromValues(BenchValues(kDaySamples));
  for (auto _ : state) {
    SymbolicSeries out(table.level());
    for (const Sample& s : series) {
      Status append = out.Append({s.timestamp, table.Encode(s.value)});
      benchmark::DoNotOptimize(append);
    }
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kDaySamples));
}
BENCHMARK(BM_EncodeScalar)->Arg(4)->Arg(8);

// Just the scalar table lookup into a preallocated array — isolates the
// descent-kernel speedup from the Result/Append overhead above.
void BM_EncodeScalarLookup(benchmark::State& state) {
  LookupTable table = BenchTable(static_cast<int>(state.range(0)));
  std::vector<double> values = BenchValues(kDaySamples);
  std::vector<Symbol> out(values.size(), Symbol());
  for (auto _ : state) {
    for (size_t i = 0; i < values.size(); ++i) out[i] = table.Encode(values[i]);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kDaySamples));
}
BENCHMARK(BM_EncodeScalarLookup)->Arg(4)->Arg(8);

void BM_EncodeBatch(benchmark::State& state) {
  LookupTable table = BenchTable(static_cast<int>(state.range(0)));
  std::vector<double> values = BenchValues(kDaySamples);
  std::vector<Symbol> out(values.size(), Symbol());
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeBatch(table, values, out.data()));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kDaySamples));
}
BENCHMARK(BM_EncodeBatch)->Arg(4)->Arg(8);

void BM_DecodeBatch(benchmark::State& state) {
  LookupTable table = BenchTable(4);
  std::vector<Symbol> symbols =
      EncodeBatch(table, BenchValues(kDaySamples)).value();
  std::vector<double> out(symbols.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecodeBatch(table, symbols,
                                         ReconstructionMode::kRangeCenter,
                                         out.data()));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kDaySamples));
}
BENCHMARK(BM_DecodeBatch);

// Full fleet pipeline (per-household table build + vertical windows +
// encode) sharded across state.range(0) threads.
void BM_FleetEncode(benchmark::State& state) {
  constexpr size_t kHouses = 8;
  constexpr size_t kSamplesPerHouse = 21600;  // 6 h at 1 Hz
  std::vector<TimeSeries> fleet;
  for (size_t h = 0; h < kHouses; ++h) {
    fleet.push_back(
        TimeSeries::FromValues(BenchValues(kSamplesPerHouse, 100 + h)));
  }
  FleetEncodeOptions options;
  options.table.level = 4;
  options.pipeline.window_seconds = 60;
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeFleet(fleet, options, &pool));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kHouses * kSamplesPerHouse));
}
// Real (wall) time: the pool's work runs on worker threads, so the main
// thread's CPU time would overstate the throughput of every pooled run.
BENCHMARK(BM_FleetEncode)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

ml::Dataset BenchBlobs(size_t per_class) {
  ml::Dataset d =
      ml::Dataset::Create("blobs",
                          {ml::Attribute::Numeric("x"),
                           ml::Attribute::Numeric("y"),
                           ml::Attribute::Nominal("class", {"a", "b"})},
                          2)
          .value();
  Rng rng(17);
  for (size_t i = 0; i < per_class; ++i) {
    (void)d.Add({rng.Gaussian(0.0, 1.0), rng.Gaussian(0.0, 1.0), 0.0});
    (void)d.Add({rng.Gaussian(4.0, 1.0), rng.Gaussian(4.0, 1.0), 1.0});
  }
  return d;
}

// Forest training across pool sizes; Arg(0) is the serial (no pool) path.
// Bags and seeds are pre-drawn, so every variant grows the same forest.
void BM_ForestTrain(benchmark::State& state) {
  ml::Dataset d = BenchBlobs(300);
  ml::RandomForestOptions options;
  options.num_trees = 16;
  options.seed = 3;
  ThreadPool pool(state.range(0) == 0 ? 1 : static_cast<size_t>(state.range(0)));
  options.pool = state.range(0) == 0 ? nullptr : &pool;
  for (auto _ : state) {
    ml::RandomForest forest(options);
    benchmark::DoNotOptimize(forest.Train(d));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(options.num_trees));
}
BENCHMARK(BM_ForestTrain)->Arg(0)->Arg(2)->Arg(4)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

// --- durable-storage kernels ------------------------------------------------

// CRC32C throughput: the per-byte price every atomic write, manifest
// append, and fsck scan now pays. BM_Crc32c is the dispatched entry
// (SSE4.2 where the CPU has it); the software variant pins the slice-by-8
// fallback so the hardware speedup is visible in the report.
std::string BenchBytes(size_t n) {
  Rng rng(23);
  std::string data(n, '\0');
  for (char& c : data) c = static_cast<char>(rng.UniformInt(256));
  return data;
}

void BM_Crc32c(benchmark::State& state) {
  const std::string data = BenchBytes(1 << 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(io::Crc32c(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_Crc32c);

void BM_Crc32cSoftware(benchmark::State& state) {
  const std::string data = BenchBytes(1 << 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(io::Crc32cSoftware(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_Crc32cSoftware);

// Wire-format cost of the checksummed v3 framing vs the legacy pack: a
// year of 15-minute symbols at level 4. The wire_overhead_pct counter is
// the v3 size premium over the v1 blob (sync markers, block headers,
// CRCs); the time delta is the checksum cost on the write path.
SymbolicSeries BenchSymbolSeries(size_t n, int level) {
  Rng rng(7);
  SymbolicSeries series(level);
  for (size_t i = 0; i < n; ++i) {
    Symbol s = Symbol::Create(level, static_cast<uint32_t>(rng.UniformInt(
                                         1u << level)))
                   .value();
    (void)series.Append({static_cast<Timestamp>(i) * 900, s});
  }
  return series;
}

constexpr size_t kYearSlots = 96 * 365;

void BM_PackLegacy(benchmark::State& state) {
  SymbolicSeries series = BenchSymbolSeries(kYearSlots, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PackSymbolicSeries(series));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kYearSlots));
}
BENCHMARK(BM_PackLegacy);

void BM_PackFramed(benchmark::State& state) {
  SymbolicSeries series = BenchSymbolSeries(kYearSlots, 4);
  const size_t legacy_size = PackSymbolicSeries(series).value().size();
  const size_t framed_size = PackSymbolicSeriesFramed(series).value().size();
  for (auto _ : state) {
    benchmark::DoNotOptimize(PackSymbolicSeriesFramed(series));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kYearSlots));
  state.counters["wire_overhead_pct"] =
      100.0 * (static_cast<double>(framed_size) -
               static_cast<double>(legacy_size)) /
      static_cast<double>(legacy_size);
}
BENCHMARK(BM_PackFramed);

// Read-side verification cost: unpack re-checks the header and every
// block CRC on the framed blob.
void BM_UnpackFramed(benchmark::State& state) {
  SymbolicSeries series = BenchSymbolSeries(kYearSlots, 4);
  const std::string blob = PackSymbolicSeriesFramed(series).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(UnpackSymbolicSeries(blob));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kYearSlots));
}
BENCHMARK(BM_UnpackFramed);

}  // namespace
}  // namespace smeter

// run_bench.sh refuses to record numbers unless this compiled-in marker
// says release: the Debian-packaged benchmark *library* is assert-enabled
// (its own library_build_type always reads "debug"), so the marker has to
// come from the translation unit whose kernels are actually being timed.
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
