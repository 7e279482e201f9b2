// Micro-benchmarks for the archive-store read path. `run_bench.sh` merges
// the JSON output into BENCH_micro.json.
//
// The numbers to look for:
//   BM_StorePointLookup/meters:N  -- hot current-table lookups; the
//     per-call cost is dominated by the staleness stat() on current.log,
//     so it should stay flat as the fleet grows.
//   BM_StoreRangeScan/level:L     -- per-meter scan of the whole retained
//     window; level:0 is the native read, level:3 adds prefix truncation.
//     items_per_second counts symbols delivered.
//   BM_StoreAggregate/meters:N/edges:E -- fleet histogram over the window.
//     edges:0 is partition-aligned, so every partition is served from
//     its pack directory's summaries alone (no segment reads); edges:1 is
//     a ragged window whose two edge partitions each read their segment
//     pack once and fold every meter's blob. The gap between the two rows
//     is what the directory summaries buy.
//
// End-to-end serving numbers (framing, the epoll loop, queryd beside live
// uploads) come from perfbench's live_serve workload, not from here.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/io.h"
#include "core/archive_store.h"
#include "core/codec.h"
#include "core/symbolic_series.h"

namespace smeter {
namespace {

constexpr int kNativeLevel = 8;
constexpr int64_t kStepSeconds = 1800;
constexpr int kDays = 3;
constexpr size_t kWindowsPerDay =
    static_cast<size_t>(kSecondsPerDay / kStepSeconds);
constexpr size_t kWindowsPerMeter = kDays * kWindowsPerDay;
constexpr Timestamp kWindowEnd = kDays * kSecondsPerDay;

SymbolicSeries BenchSeries(uint64_t seed) {
  SymbolicSeries series(kNativeLevel);
  uint64_t x = seed * 2654435761ull + 99991;
  Timestamp t = 0;
  for (size_t i = 0; i < kWindowsPerMeter; ++i, t += kStepSeconds) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    Symbol symbol = Symbol::Gap(kNativeLevel);
    if (i % 23 != 9) {
      Result<Symbol> value = Symbol::Create(
          kNativeLevel,
          static_cast<uint32_t>((x >> 33) % (1u << kNativeLevel)));
      SMETER_CHECK(value.ok());
      symbol = *value;
    }
    SMETER_CHECK(series.Append({t, symbol}).ok());
  }
  return series;
}

// A built store over a synthetic fleet, constructed once per meter count
// and shared across benchmarks; directories are removed at process exit.
class StoreFixture {
 public:
  static StoreFixture& Get(size_t meters) {
    static std::map<size_t, std::unique_ptr<StoreFixture>> fixtures;
    std::unique_ptr<StoreFixture>& slot = fixtures[meters];
    if (!slot) slot.reset(new StoreFixture(meters));
    return *slot;
  }

  ~StoreFixture() {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }

  const std::string& store_dir() const { return store_dir_; }
  size_t meters() const { return meters_; }

  static std::string MeterName(size_t i) {
    return "bench_meter_" + std::to_string(i);
  }

 private:
  explicit StoreFixture(size_t meters) : meters_(meters) {
    namespace fs = std::filesystem;
    root_ = (fs::temp_directory_path() /
             ("smeter_bench_query_" + std::to_string(::getpid()) + "_" +
              std::to_string(meters)))
                .string();
    const std::string archive_dir = root_ + "/archive";
    store_dir_ = root_ + "/store";
    std::error_code ec;
    fs::remove_all(root_, ec);
    SMETER_CHECK(fs::create_directories(archive_dir));
    for (size_t m = 0; m < meters_; ++m) {
      Result<std::string> blob =
          PackSymbolicSeriesFramed(BenchSeries(m + 1));
      SMETER_CHECK(blob.ok());
      SMETER_CHECK(io::AtomicWriteFile(
                       archive_dir + "/" + MeterName(m) + ".symbols", *blob)
                       .ok());
    }
    Result<StoreBuildReport> report =
        BuildArchiveStore(archive_dir, store_dir_);
    SMETER_CHECK(report.ok());
    SMETER_CHECK(report->meters == meters_);
  }

  size_t meters_;
  std::string root_;
  std::string store_dir_;
};

void BM_StorePointLookup(benchmark::State& state) {
  StoreFixture& fixture = StoreFixture::Get(
      static_cast<size_t>(state.range(0)));
  Result<std::unique_ptr<ArchiveStore>> store =
      ArchiveStore::Open(fixture.store_dir());
  SMETER_CHECK(store.ok());
  size_t i = 0;
  for (auto _ : state) {
    Result<PointValue> point =
        (*store)->Latest(StoreFixture::MeterName(i++ % fixture.meters()));
    SMETER_CHECK(point.ok());
    benchmark::DoNotOptimize(point->symbol);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_StorePointLookup)->ArgNames({"meters"})->Arg(64)->Arg(512);

void BM_StoreRangeScan(benchmark::State& state) {
  const int level = static_cast<int>(state.range(0));
  StoreFixture& fixture = StoreFixture::Get(64);
  Result<std::unique_ptr<ArchiveStore>> store =
      ArchiveStore::Open(fixture.store_dir());
  SMETER_CHECK(store.ok());
  size_t i = 0;
  size_t symbols = 0;
  for (auto _ : state) {
    Result<RangeScanResult> scan = (*store)->Scan(
        StoreFixture::MeterName(i++ % fixture.meters()),
        TimeRange{0, kWindowEnd}, level, kWindowsPerMeter);
    SMETER_CHECK(scan.ok());
    SMETER_CHECK(scan->symbols.size() == kWindowsPerMeter);
    symbols = scan->symbols.size();
    benchmark::DoNotOptimize(scan->symbols.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(symbols));
}
BENCHMARK(BM_StoreRangeScan)->ArgNames({"level"})->Arg(0)->Arg(3);

void BM_StoreAggregate(benchmark::State& state) {
  StoreFixture& fixture = StoreFixture::Get(
      static_cast<size_t>(state.range(0)));
  const bool ragged = state.range(1) != 0;
  // Aligned: every partition is fully inside the window -> directory
  // summaries only. Ragged: both edge partitions are partial -> pack
  // folds.
  const TimeRange range =
      ragged ? TimeRange{5 * kStepSeconds, kWindowEnd - 7 * kStepSeconds}
             : TimeRange{0, kWindowEnd};
  Result<std::unique_ptr<ArchiveStore>> store =
      ArchiveStore::Open(fixture.store_dir());
  SMETER_CHECK(store.ok());
  uint64_t windows = 0;
  for (auto _ : state) {
    Result<FleetAggregate> aggregate = (*store)->Aggregate(range, 3);
    SMETER_CHECK(aggregate.ok());
    SMETER_CHECK(aggregate->meters == fixture.meters());
    SMETER_CHECK(ragged ? aggregate->scanned_partitions > 0
                        : aggregate->scanned_partitions == 0);
    windows = aggregate->windows;
    benchmark::DoNotOptimize(aggregate->histogram.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(windows));
}
BENCHMARK(BM_StoreAggregate)
    ->ArgNames({"meters", "edges"})
    ->ArgsProduct({{64, 512}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace smeter

// run_bench.sh refuses to record numbers unless this compiled-in marker
// says release (see net_ingest.cc for why google-benchmark's own
// library_build_type cannot be trusted here).
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
