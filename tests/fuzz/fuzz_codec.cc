// Fuzz harness for the symbolic codec: lookup-table construction over
// arbitrary training data, encode→pack→unpack→decode round-trips, and the
// wire-format parser on raw bytes.
//
// Crash conditions (beyond sanitizer reports): a round-trip that does not
// reproduce the packed symbols, a reconstruction outside the symbol's
// range, a Serialize blob its own Deserialize rejects, or a fold
// (FoldFramedSeries) that disagrees with unpack + slice + histogram.

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/check.h"
#include "core/batch_encoder.h"
#include "core/codec.h"
#include "core/lookup_table.h"
#include "core/symbolic_series.h"
#include "fuzz_input.h"

namespace smeter {
namespace {

using fuzz::FuzzInput;

// Differential oracle for the store's fold: on a v3 blob it must agree
// with UnpackSymbolicSeries + Slice + prefix-coarsened histogram on the
// ok/error code and on every count; any other blob it refuses.
void CheckFoldMatchesUnpack(const std::string& blob, TimeRange range,
                            int level) {
  SlotCounts counts;
  counts.histogram.assign(size_t{1} << level, 0);
  const Status folded = FoldFramedSeries(blob, range, level, &counts);
  Result<SymbolicSeries> series = UnpackSymbolicSeries(blob);
  const bool v3 = blob.size() >= 5 && blob.compare(0, 4, "SMSY") == 0 &&
                  blob[4] == 3;
  if (!v3) {
    SMETER_CHECK(!folded.ok());
    if (series.ok()) SMETER_CHECK(folded.code() == StatusCode::kDataLoss);
    return;
  }
  if (!series.ok()) {
    SMETER_CHECK(!folded.ok());
    SMETER_CHECK(folded.code() == series.status().code());
    return;
  }
  if (level > series->level()) {
    SMETER_CHECK(folded.code() == StatusCode::kInvalidArgument);
    return;
  }
  SMETER_CHECK_OK(folded);
  const SymbolicSeries slice = series->Slice(range);
  SMETER_CHECK_EQ(counts.windows, slice.size());
  SMETER_CHECK_EQ(counts.gaps, slice.GapCount());
  std::vector<uint64_t> expect(size_t{1} << level, 0);
  for (const SymbolicSample& sample : slice) {
    if (sample.symbol.is_gap()) continue;
    Result<Symbol> coarse = sample.symbol.Coarsen(level);
    SMETER_CHECK(coarse.ok());
    ++expect[coarse->index()];
  }
  SMETER_CHECK(counts.histogram == expect);
}

// Raw bytes through the wire-format parser; a successful parse must
// re-pack to a blob that parses to the same series.
void FuzzUnpack(const std::string& blob) {
  // The fold over the whole timeline and over its non-negative half, at
  // every level.
  for (int level = 1; level <= kMaxSymbolLevel; ++level) {
    CheckFoldMatchesUnpack(blob, {INT64_MIN, INT64_MAX}, level);
    CheckFoldMatchesUnpack(blob, {0, INT64_MAX}, level);
  }
  Result<SymbolicSeries> series = UnpackSymbolicSeries(blob);
  if (!series.ok()) return;
  Result<std::string> repacked = PackSymbolicSeries(series.value());
  SMETER_CHECK(repacked.ok());
  Result<SymbolicSeries> again = UnpackSymbolicSeries(repacked.value());
  SMETER_CHECK(again.ok());
  SMETER_CHECK_EQ(again->size(), series->size());
  for (size_t i = 0; i < series->size(); ++i) {
    SMETER_CHECK((*series)[i] == (*again)[i]);
  }
}

// Arbitrary (level, method, training data) through table construction, then
// the full encode→pack→unpack→decode pipeline.
void FuzzTableRoundTrip(FuzzInput& in) {
  // Deliberately includes out-of-range levels and hostile values; those
  // must surface as Status errors, never UB.
  const int level = in.TakeIntInRange(0, kMaxSymbolLevel + 2);
  LookupTableOptions options;
  options.level = level;
  switch (in.TakeByte() % 3) {
    case 0: options.method = SeparatorMethod::kUniform; break;
    case 1: options.method = SeparatorMethod::kMedian; break;
    default: options.method = SeparatorMethod::kDistinctMedian; break;
  }
  const size_t n_train = static_cast<size_t>(in.TakeIntInRange(0, 64));
  std::vector<double> training;
  training.reserve(n_train);
  for (size_t i = 0; i < n_train; ++i) training.push_back(in.TakeDouble());

  Result<LookupTable> table = LookupTable::Build(training, options);
  if (!table.ok()) return;

  // Encode a short series at fixed cadence and round-trip it.
  SymbolicSeries series(table->level());
  const size_t n_values = static_cast<size_t>(in.TakeIntInRange(1, 32));
  Timestamp t = static_cast<Timestamp>(in.TakeIntInRange(0, 1 << 20));
  std::vector<double> readings;
  readings.reserve(n_values);
  for (size_t i = 0; i < n_values; ++i) {
    const double reading = in.TakeDouble();
    readings.push_back(reading);
    Result<Symbol> symbol = table->EncodeChecked(reading);
    if (!symbol.ok()) continue;  // non-finite reading
    SMETER_CHECK_OK(series.Append({t, symbol.value()}));
    t += 900;
  }

  // Batch/scalar oracle: the SoA kernel must stay byte-identical to the
  // scalar lookup. A NaN anywhere must surface as a Status error; any
  // other input (±inf included — Encode clamps, EncodeChecked rejects)
  // must produce exactly the symbols table->Encode would.
  bool has_nan = false;
  for (double v : readings) has_nan = has_nan || std::isnan(v);
  Result<std::vector<Symbol>> batch = EncodeBatch(*table, readings);
  SMETER_CHECK_EQ(batch.ok(), !has_nan);
  if (batch.ok()) {
    SMETER_CHECK_EQ(batch->size(), readings.size());
    for (size_t i = 0; i < readings.size(); ++i) {
      SMETER_CHECK((*batch)[i] == table->Encode(readings[i]));
    }
    Result<std::vector<double>> decoded =
        DecodeBatch(*table, *batch, ReconstructionMode::kRangeMean);
    SMETER_CHECK(decoded.ok());
    for (size_t i = 0; i < batch->size(); ++i) {
      Result<double> scalar =
          table->Reconstruct((*batch)[i], ReconstructionMode::kRangeMean);
      SMETER_CHECK(scalar.ok());
      SMETER_CHECK((*decoded)[i] == scalar.value());
    }
  }
  if (!series.empty()) {
    Result<std::string> packed = PackSymbolicSeries(series);
    SMETER_CHECK(packed.ok());
    Result<SymbolicSeries> unpacked = UnpackSymbolicSeries(packed.value());
    SMETER_CHECK(unpacked.ok());
    SMETER_CHECK_EQ(unpacked->size(), series.size());
    for (size_t i = 0; i < series.size(); ++i) {
      SMETER_CHECK(series[i] == (*unpacked)[i]);
      // Decode side: the representative value must lie in the symbol range.
      Result<double> lo = table->RangeLow(series[i].symbol);
      Result<double> hi = table->RangeHigh(series[i].symbol);
      SMETER_CHECK(lo.ok() && hi.ok());
      Result<double> mid =
          table->Reconstruct(series[i].symbol, ReconstructionMode::kRangeMean);
      SMETER_CHECK(mid.ok());
      if (std::isfinite(lo.value()) && std::isfinite(hi.value())) {
        SMETER_CHECK_LE(lo.value(), mid.value());
        SMETER_CHECK_LE(mid.value(), hi.value());
      }
    }
  }

  // Wire format for the table itself.
  std::string blob = table->Serialize();
  Result<LookupTable> reread = LookupTable::Deserialize(blob);
  SMETER_CHECK(reread.ok());
  SMETER_CHECK_EQ(reread->level(), table->level());
  SMETER_CHECK_EQ(reread->separators().size(), table->separators().size());
}

// Arbitrary text through the lookup-table deserializer.
void FuzzTableDeserialize(const std::string& text) {
  Result<LookupTable> table = LookupTable::Deserialize(text);
  if (!table.ok()) return;
  Result<LookupTable> again = LookupTable::Deserialize(table->Serialize());
  SMETER_CHECK(again.ok());
}

// Expert-provided separators (possibly unsorted / non-finite).
void FuzzFromSeparators(FuzzInput& in) {
  const size_t n = static_cast<size_t>(in.TakeIntInRange(0, 33));
  std::vector<double> seps;
  seps.reserve(n);
  for (size_t i = 0; i < n; ++i) seps.push_back(in.TakeDouble());
  double lo = in.TakeDouble();
  double hi = in.TakeDouble();
  Result<LookupTable> table = LookupTable::FromSeparators(seps, lo, hi);
  if (!table.ok()) return;
  Result<Symbol> s = table->EncodeChecked(in.TakeDouble());
  if (s.ok()) {
    SMETER_CHECK_EQ(s->level(), table->level());
  }
}

// Gap-aware surfaces: a symbol stream with GAP sentinels must survive the
// version-2 wire format bit-exactly, and the gap-tolerant batch kernels
// must agree with the scalar encoder everywhere the scalar path is
// defined — NaN in, GAP out; GAP in, NaN out; nothing else remapped.
void FuzzGappySeries(FuzzInput& in) {
  const int level = in.TakeIntInRange(1, kMaxSymbolLevel);
  const size_t n = static_cast<size_t>(in.TakeIntInRange(1, 48));
  SymbolicSeries series(level);
  Timestamp t = static_cast<Timestamp>(in.TakeIntInRange(0, 1 << 20));
  for (size_t i = 0; i < n; ++i) {
    Symbol s =
        (in.TakeByte() % 4 == 0)
            ? Symbol::Gap(level)
            : Symbol::Create(level, static_cast<uint32_t>(in.TakeIntInRange(
                                        0, (1 << level) - 1)))
                  .value();
    SMETER_CHECK_OK(series.Append({t, s}));
    t += 60;
  }
  Result<std::string> packed = PackSymbolicSeries(series);
  SMETER_CHECK(packed.ok());
  Result<SymbolicSeries> unpacked = UnpackSymbolicSeries(packed.value());
  SMETER_CHECK(unpacked.ok());
  SMETER_CHECK_EQ(unpacked->size(), series.size());
  SMETER_CHECK_EQ(unpacked->GapCount(), series.GapCount());
  for (size_t i = 0; i < series.size(); ++i) {
    SMETER_CHECK(series[i] == (*unpacked)[i]);
  }

  LookupTableOptions options;
  options.level = level;
  options.method = SeparatorMethod::kUniform;
  const size_t n_train = static_cast<size_t>(in.TakeIntInRange(2, 32));
  std::vector<double> training;
  training.reserve(n_train);
  for (size_t i = 0; i < n_train; ++i) training.push_back(in.TakeDouble());
  Result<LookupTable> table = LookupTable::Build(training, options);
  if (!table.ok()) return;

  const size_t n_values = static_cast<size_t>(in.TakeIntInRange(1, 48));
  std::vector<double> values;
  values.reserve(n_values);
  for (size_t i = 0; i < n_values; ++i) {
    values.push_back(in.TakeByte() % 5 == 0
                         ? std::numeric_limits<double>::quiet_NaN()
                         : in.TakeDouble());
  }
  Result<std::vector<Symbol>> gappy = EncodeBatchWithGaps(*table, values);
  SMETER_CHECK(gappy.ok());
  SMETER_CHECK_EQ(gappy->size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    if (std::isnan(values[i])) {
      SMETER_CHECK((*gappy)[i].is_gap());
    } else {
      SMETER_CHECK((*gappy)[i] == table->Encode(values[i]));
    }
  }
  Result<std::vector<double>> decoded =
      DecodeBatch(*table, *gappy, ReconstructionMode::kRangeCenter);
  SMETER_CHECK(decoded.ok());
  for (size_t i = 0; i < values.size(); ++i) {
    SMETER_CHECK_EQ(std::isnan((*decoded)[i]), std::isnan(values[i]));
  }
}

// v3 framing and the salvage oracle: build a valid framed blob, damage it
// with fuzz-chosen bit flips and truncation, then require
//   (a) the strict parser never accepts modified bytes as different data,
//   (b) salvage never fabricates — every slot of a salvaged series is
//       either the original symbol or a GAP standing in for a damaged
//       block, on the original timebase.
void FuzzSalvageOracle(FuzzInput& in) {
  const int level = in.TakeIntInRange(1, kMaxSymbolLevel);
  const size_t n = static_cast<size_t>(in.TakeIntInRange(1, 96));
  const size_t block = static_cast<size_t>(in.TakeIntInRange(1, 32));
  SymbolicSeries series(level);
  Timestamp t = static_cast<Timestamp>(in.TakeIntInRange(0, 1 << 20));
  for (size_t i = 0; i < n; ++i) {
    Symbol s =
        (in.TakeByte() % 4 == 0)
            ? Symbol::Gap(level)
            : Symbol::Create(level, static_cast<uint32_t>(in.TakeIntInRange(
                                        0, (1 << level) - 1)))
                  .value();
    SMETER_CHECK_OK(series.Append({t, s}));
    t += 900;
  }
  Result<std::string> packed = PackSymbolicSeriesFramed(series, block);
  SMETER_CHECK(packed.ok());
  const std::string& blob = packed.value();

  // An undamaged blob must salvage to exactly the original series.
  SalvageSummary clean_summary;
  Result<SymbolicSeries> clean = SalvageSymbolicSeries(blob, &clean_summary);
  SMETER_CHECK(clean.ok());
  SMETER_CHECK_EQ(clean->size(), series.size());
  SMETER_CHECK_EQ(clean_summary.lost_slots, 0u);
  for (size_t i = 0; i < series.size(); ++i) {
    SMETER_CHECK(series[i] == (*clean)[i]);
  }

  // Damage: up to eight bit flips, then possibly a truncation.
  std::string damaged = blob;
  const int flips = in.TakeIntInRange(0, 8);
  for (int f = 0; f < flips; ++f) {
    const size_t pos = static_cast<size_t>(
        in.TakeIntInRange(0, static_cast<int>(damaged.size()) - 1));
    damaged[pos] = static_cast<char>(static_cast<unsigned char>(damaged[pos]) ^
                                     (1u << (in.TakeByte() % 8)));
  }
  if (in.TakeByte() % 4 == 0) {
    damaged = damaged.substr(
        0, static_cast<size_t>(
               in.TakeIntInRange(0, static_cast<int>(damaged.size()))));
  }
  // The fold, on the clean and the damaged blob, over a fuzz-chosen
  // window (possibly ragged, possibly outside the series) and level.
  const int span = static_cast<int>(n) * 900;
  const Timestamp begin =
      series[0].timestamp +
      static_cast<Timestamp>(in.TakeIntInRange(-2 * 900, span + 2 * 900));
  const TimeRange window = {
      begin,
      begin + static_cast<Timestamp>(in.TakeIntInRange(0, span + 4 * 900))};
  const int fold_level = in.TakeIntInRange(1, kMaxSymbolLevel);
  CheckFoldMatchesUnpack(blob, window, fold_level);
  CheckFoldMatchesUnpack(damaged, window, fold_level);
  if (damaged == blob) return;

  // Strict parse: accepting modified bytes is only legal if they decode to
  // the identical series (which a checksummed format cannot produce — so
  // in practice this demands rejection).
  Result<SymbolicSeries> strict = UnpackSymbolicSeries(damaged);
  if (strict.ok()) {
    SMETER_CHECK_EQ(strict->size(), series.size());
    for (size_t i = 0; i < series.size(); ++i) {
      SMETER_CHECK(series[i] == (*strict)[i]);
    }
  }

  // Salvage: errors only when the header is beyond trust; a recovered
  // series is the original with GAPs where blocks were destroyed.
  SalvageSummary summary;
  Result<SymbolicSeries> salvaged = SalvageSymbolicSeries(damaged, &summary);
  if (!salvaged.ok()) return;
  SMETER_CHECK_EQ(salvaged->size(), series.size());
  SMETER_CHECK_EQ(summary.total_slots, series.size());
  SMETER_CHECK_EQ(summary.recovered_slots + summary.lost_slots,
                  summary.total_slots);
  for (size_t i = 0; i < series.size(); ++i) {
    SMETER_CHECK((*salvaged)[i].timestamp == series[i].timestamp);
    SMETER_CHECK((*salvaged)[i].symbol.is_gap() ||
                 (*salvaged)[i].symbol == series[i].symbol);
  }
}

}  // namespace
}  // namespace smeter

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  smeter::fuzz::FuzzInput in(data, size);
  switch (in.TakeByte() % 6) {
    case 0:
      smeter::FuzzUnpack(in.TakeRemainingString());
      break;
    case 1:
      smeter::FuzzTableRoundTrip(in);
      break;
    case 2:
      smeter::FuzzTableDeserialize(in.TakeRemainingString());
      break;
    case 3:
      smeter::FuzzFromSeparators(in);
      break;
    case 4:
      smeter::FuzzGappySeries(in);
      break;
    default:
      smeter::FuzzSalvageOracle(in);
      break;
  }
  return 0;
}
