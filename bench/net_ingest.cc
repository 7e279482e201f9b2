// Micro-benchmarks for the ingestion wire path: frame encode/decode,
// symbol-batch payload codec, and the full per-meter session state machine
// (HELLO -> TABLE -> batches -> GOODBYE) at archive-realistic batch sizes.
// `run_bench.sh` merges the JSON output into BENCH_micro.json.
//
// The numbers to look for:
//   BM_EncodeFrame / BM_DecodeFrame -- raw framing + CRC32C cost per frame;
//     bytes_per_second is the wire throughput ceiling of one connection.
//   BM_SymbolBatchCodec             -- typed payload pack/parse round-trip.
//   BM_SessionIngest                -- items_processed counts symbols, so
//     items_per_second is the single-thread ceiling on symbols ingested
//     through the full protocol state machine (seq/cadence checks, gap
//     accounting) before the durable sink even starts.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "core/lookup_table.h"
#include "net/session.h"
#include "net/wire.h"

namespace smeter::net {
namespace {

constexpr int kLevel = 4;
constexpr size_t kBatchSymbols = 64;   // loadgen default ballpark
constexpr size_t kBatchesPerDay = 48;  // one day at 30-min windows is 48
                                       // windows; stream a week per session
constexpr size_t kBatches = 7 * kBatchesPerDay / kBatchSymbols + 6;

std::string BenchTableBlob() {
  std::vector<double> training;
  training.reserve(512);
  for (int i = 0; i < 512; ++i) training.push_back(0.5 * i);
  LookupTableOptions options;
  options.level = kLevel;
  options.method = SeparatorMethod::kMedian;
  Result<LookupTable> table = LookupTable::Build(training, options);
  SMETER_CHECK(table.ok());
  return table->Serialize();
}

SymbolBatchPayload BenchBatch(uint64_t seq, int64_t start) {
  SymbolBatchPayload batch;
  batch.seq = seq;
  batch.start_timestamp = start;
  batch.step_seconds = 1800;
  batch.level = kLevel;
  batch.symbols.reserve(kBatchSymbols);
  for (size_t i = 0; i < kBatchSymbols; ++i) {
    batch.symbols.push_back(
        (i % 17 == 0) ? kWireGapSymbol
                      : static_cast<uint16_t>((seq + i) % (1u << kLevel)));
  }
  return batch;
}

void BM_EncodeFrame(benchmark::State& state) {
  const SymbolBatchPayload batch = BenchBatch(1, 0);
  size_t bytes = 0;
  for (auto _ : state) {
    Frame frame = MakeSymbolBatch(batch);
    std::string encoded = EncodeFrame(frame);
    bytes = encoded.size();
    benchmark::DoNotOptimize(encoded.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatchSymbols));
}
BENCHMARK(BM_EncodeFrame);

void BM_DecodeFrame(benchmark::State& state) {
  const std::string encoded = EncodeFrame(MakeSymbolBatch(BenchBatch(1, 0)));
  for (auto _ : state) {
    DecodeResult result = DecodeFrame(encoded);
    SMETER_CHECK(result.outcome == DecodeResult::Outcome::kFrame);
    benchmark::DoNotOptimize(result.frame.payload.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(encoded.size()));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatchSymbols));
}
BENCHMARK(BM_DecodeFrame);

void BM_SymbolBatchCodec(benchmark::State& state) {
  const Frame frame = MakeSymbolBatch(BenchBatch(1, 0));
  for (auto _ : state) {
    Result<SymbolBatchPayload> parsed = ParseSymbolBatch(frame);
    SMETER_CHECK(parsed.ok());
    benchmark::DoNotOptimize(parsed->symbols.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatchSymbols));
}
BENCHMARK(BM_SymbolBatchCodec);

void BM_SessionIngest(benchmark::State& state) {
  const std::string table_blob = BenchTableBlob();
  // Pre-encode the whole conversation once; the benchmark measures the
  // server side (decode + state machine), not the client's builders.
  std::vector<std::string> conversation;
  conversation.push_back(EncodeFrame(MakeHello({kProtocolVersion, "bench", ""})));
  conversation.push_back(EncodeFrame(MakeTableAnnounce({1, table_blob})));
  uint64_t gaps = 0, valid = 0;
  int64_t start = 0;
  for (size_t b = 1; b <= kBatches; ++b) {
    SymbolBatchPayload batch = BenchBatch(b, start);
    start += static_cast<int64_t>(batch.symbols.size()) * batch.step_seconds;
    for (uint16_t s : batch.symbols) {
      if (s == kWireGapSymbol) ++gaps; else ++valid;
    }
    conversation.push_back(EncodeFrame(MakeSymbolBatch(batch)));
  }
  conversation.push_back(EncodeFrame(MakeGoodbye({valid, 0, gaps})));

  for (auto _ : state) {
    Session session((SessionOptions()));
    // The benchmark thread is the session's single writer.
    ScopedThreadRole writer(session.writer_role());
    std::vector<Frame> replies;
    for (const std::string& bytes : conversation) {
      DecodeResult result = DecodeFrame(bytes);
      SMETER_CHECK(result.outcome == DecodeResult::Outcome::kFrame);
      replies.clear();
      session.OnFrame(result.frame, &replies);
      benchmark::DoNotOptimize(replies.size());
    }
    SMETER_CHECK(session.state() == Session::State::kComplete);
    Result<SymbolicSeries> series = session.TakeSeries();
    SMETER_CHECK(series.ok());
    benchmark::DoNotOptimize(series->size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatches * kBatchSymbols));
  state.counters["batches"] = static_cast<double>(kBatches);
}
BENCHMARK(BM_SessionIngest);

}  // namespace
}  // namespace smeter::net

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
