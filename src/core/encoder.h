// Horizontal segmentation (Definition 3): TimeSeries -> SymbolicSeries
// through a LookupTable, and the inverse decoding through the table's
// reconstruction values.
//
// Encode/Decode are thin wrappers over the SoA batch kernels in
// core/batch_encoder.h (gather the value column, EncodeBatch, zip the
// timestamps back); call the kernels directly when the data is already a
// flat array. For many households at once, see core/fleet_encoder.h.
//
// The full paper pipeline "vertical then horizontal" is provided as
// EncodePipeline for convenience; it is exactly
// Encode(VerticalSegmentByWindow(...)). A trace streamed from disk goes
// through a WindowFolder and EncodeWindows instead (see HouseholdEncoder in
// core/fleet_encoder.h); the batch segmentations fold through the same
// WindowFolder, so both routes give the same symbols.

#ifndef SMETER_CORE_ENCODER_H_
#define SMETER_CORE_ENCODER_H_

#include <vector>

#include "common/status.h"
#include "core/lookup_table.h"
#include "core/symbolic_series.h"
#include "core/time_series.h"
#include "core/vertical.h"

namespace smeter {

// Encodes every sample of `series` with `table` at the table's finest level
// (H(S, L) of Definition 3).
Result<SymbolicSeries> Encode(const TimeSeries& series,
                              const LookupTable& table);

// Encodes at a coarser `level` (<= table.level()).
Result<SymbolicSeries> EncodeAtLevel(const TimeSeries& series,
                                     const LookupTable& table, int level);

// Decodes a symbolic series back to real values using `mode`. Symbols must
// not be finer than the table. GAP symbols produce no output sample — the
// reconstructed series simply has a hole at that timestamp, which is the
// honest inverse of a missing window.
Result<TimeSeries> Decode(const SymbolicSeries& series,
                          const LookupTable& table, ReconstructionMode mode);

struct PipelineOptions {
  // Vertical segmentation window; the paper uses 900 (15 min) and 3600 (1 h).
  int64_t window_seconds = 900;
  WindowOptions window;
};

// Vertical then horizontal segmentation in one call.
Result<SymbolicSeries> EncodePipeline(const TimeSeries& raw,
                                      const LookupTable& table,
                                      const PipelineOptions& options);

// Per-trace data-quality summary of a gap-aware encode.
struct EncodeQuality {
  size_t windows_valid = 0;
  size_t windows_partial = 0;  // aggregated below min_coverage
  size_t windows_gap = 0;      // no readings; encoded as GAP symbols
  size_t windows_total() const {
    return windows_valid + windows_partial + windows_gap;
  }
  // Fraction of windows with no data (0 for an empty trace).
  double gap_ratio() const {
    const size_t total = windows_total();
    return total == 0 ? 0.0
                      : static_cast<double>(windows_gap) /
                            static_cast<double>(total);
  }
};

struct QualityEncoding {
  SymbolicSeries symbols;
  EncodeQuality quality;
};

// Gap-aware pipeline: vertical segmentation that keeps every aligned
// window (missing ones become GAP symbols, under-covered ones are encoded
// but counted as partial), then horizontal segmentation. The output always
// has a fixed window cadence, so it packs into one wire blob even when the
// raw trace has outages. Identical to EncodePipeline on a gapless,
// fully-covered trace.
Result<QualityEncoding> EncodePipelineWithGaps(const TimeSeries& raw,
                                               const LookupTable& table,
                                               const PipelineOptions& options);

// The horizontal half of both pipelines, over windows a WindowFolder
// produced. `gap_aware` (windows folded with keep_gaps): GAP windows become
// GAP symbols and partial ones are encoded but counted. Otherwise every
// window is valid, and one whose aggregate is not finite is an error, as
// in VerticalSegmentByWindow.
Result<QualityEncoding> EncodeWindows(
    const std::vector<AggregatedWindow>& windows, const LookupTable& table,
    bool gap_aware);

}  // namespace smeter

#endif  // SMETER_CORE_ENCODER_H_
