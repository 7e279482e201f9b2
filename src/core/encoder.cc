#include "core/encoder.h"

#include <limits>
#include <utility>

#include "common/fault_injection.h"
#include "core/batch_encoder.h"

namespace smeter {
namespace {

// Gathers the value column out of the AoS sample layout so the batch
// kernel runs over contiguous doubles.
std::vector<double> ValueColumn(const TimeSeries& series) {
  std::vector<double> values;
  values.reserve(series.size());
  for (const Sample& s : series) values.push_back(s.value);
  return values;
}

// Zips timestamps back onto an encoded symbol column. The inputs come from
// a TimeSeries (timestamps already non-decreasing) and one batch-encode
// call (symbols already at `level`), so FromSamples' validation pass is a
// formality, but it keeps this path on the same contract as Append.
Result<SymbolicSeries> ZipSeries(const TimeSeries& series,
                                 const std::vector<Symbol>& symbols,
                                 int level) {
  std::vector<SymbolicSample> samples;
  samples.reserve(series.size());
  for (size_t i = 0; i < series.size(); ++i) {
    samples.push_back({series[i].timestamp, symbols[i]});
  }
  return SymbolicSeries::FromSamples(level, std::move(samples));
}

}  // namespace

Result<SymbolicSeries> Encode(const TimeSeries& series,
                              const LookupTable& table) {
  std::vector<double> values = ValueColumn(series);
  std::vector<Symbol> symbols(values.size());
  SMETER_RETURN_IF_ERROR(EncodeBatch(table, values, symbols.data()));
  return ZipSeries(series, symbols, table.level());
}

Result<SymbolicSeries> EncodeAtLevel(const TimeSeries& series,
                                     const LookupTable& table, int level) {
  std::vector<double> values = ValueColumn(series);
  std::vector<Symbol> symbols(values.size());
  SMETER_RETURN_IF_ERROR(
      EncodeBatchAtLevel(table, values, level, symbols.data()));
  return ZipSeries(series, symbols, level);
}

Result<TimeSeries> Decode(const SymbolicSeries& series,
                          const LookupTable& table, ReconstructionMode mode) {
  std::vector<Symbol> symbols;
  symbols.reserve(series.size());
  for (const SymbolicSample& s : series) symbols.push_back(s.symbol);
  std::vector<double> values(symbols.size());
  SMETER_RETURN_IF_ERROR(DecodeBatch(table, symbols, mode, values.data()));
  std::vector<Sample> samples;
  samples.reserve(series.size());
  for (size_t i = 0; i < series.size(); ++i) {
    // GAP symbols decode to NaN: the window had no data, so the
    // reconstruction has none either.
    if (series[i].symbol.is_gap()) continue;
    samples.push_back({series[i].timestamp, values[i]});
  }
  return TimeSeries::FromSamples(std::move(samples));
}

Result<SymbolicSeries> EncodePipeline(const TimeSeries& raw,
                                      const LookupTable& table,
                                      const PipelineOptions& options) {
  SMETER_FAULT_POINT("encode.pipeline");
  Result<TimeSeries> aggregated =
      VerticalSegmentByWindow(raw, options.window_seconds, options.window);
  if (!aggregated.ok()) return aggregated.status();
  return Encode(aggregated.value(), table);
}

Result<QualityEncoding> EncodePipelineWithGaps(const TimeSeries& raw,
                                               const LookupTable& table,
                                               const PipelineOptions& options) {
  SMETER_FAULT_POINT("encode.pipeline");
  GapAwareWindowOptions gap_options;
  gap_options.window = options.window;
  Result<std::vector<AggregatedWindow>> windows =
      VerticalSegmentByWindowWithGaps(raw, options.window_seconds,
                                      gap_options);
  if (!windows.ok()) return windows.status();
  return EncodeWindows(*windows, table, /*gap_aware=*/true);
}

Result<QualityEncoding> EncodeWindows(
    const std::vector<AggregatedWindow>& windows, const LookupTable& table,
    bool gap_aware) {
  QualityEncoding out;
  if (!gap_aware) {
    TimeSeries series;
    for (const AggregatedWindow& w : windows) {
      SMETER_RETURN_IF_ERROR(series.Append({w.timestamp, w.value}));
    }
    Result<SymbolicSeries> symbols = Encode(series, table);
    if (!symbols.ok()) return symbols.status();
    out.quality.windows_valid = symbols->size();
    out.symbols = std::move(symbols.value());
    return out;
  }
  std::vector<double> values;
  values.reserve(windows.size());
  for (const AggregatedWindow& w : windows) {
    switch (w.quality) {
      case WindowQuality::kValid:
        ++out.quality.windows_valid;
        values.push_back(w.value);
        break;
      case WindowQuality::kPartial:
        ++out.quality.windows_partial;
        values.push_back(w.value);
        break;
      case WindowQuality::kGap:
        ++out.quality.windows_gap;
        values.push_back(std::numeric_limits<double>::quiet_NaN());
        break;
    }
  }
  std::vector<Symbol> symbols(values.size());
  SMETER_RETURN_IF_ERROR(EncodeBatchWithGaps(table, values, symbols.data()));
  std::vector<SymbolicSample> samples;
  samples.reserve(windows.size());
  for (size_t i = 0; i < windows.size(); ++i) {
    samples.push_back({windows[i].timestamp, symbols[i]});
  }
  Result<SymbolicSeries> series =
      SymbolicSeries::FromSamples(table.level(), std::move(samples));
  if (!series.ok()) return series.status();
  out.symbols = std::move(series.value());
  return out;
}

}  // namespace smeter
