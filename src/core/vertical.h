// Vertical segmentation (Definition 2): temporal aggregation of a time
// series, reducing numerosity. The paper uses the average of n consecutive
// values; sum/min/max are provided because Section 2.1 notes any aggregation
// works.
//
// Two interfaces are provided:
//  * count-based — exactly Definition 2: average every `n` consecutive
//    samples, regardless of their timestamps;
//  * window-based — aggregate by wall-clock windows of `window_seconds`,
//    which is what the experiments use ("15 minutes", "1 hour") and what is
//    robust to gaps in real data. A window is emitted only if its coverage
//    (fraction of expected samples present) reaches `min_coverage`.
//    WindowFolder is its streaming form, one sample at a time; both
//    window-based batch functions are loops over it.

#ifndef SMETER_CORE_VERTICAL_H_
#define SMETER_CORE_VERTICAL_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/status.h"
#include "core/time_series.h"

namespace smeter {

enum class Aggregation {
  kMean,  // paper default
  kSum,
  kMin,
  kMax,
};

struct VerticalOptions {
  Aggregation aggregation = Aggregation::kMean;
};

// Definition 2: VA(S, n). Aggregates every `n` consecutive samples into one
// sample stamped with the timestamp of the window's last sample (t_{i*n}).
// A trailing partial window is dropped. Returns InvalidArgument for n == 0.
Result<TimeSeries> VerticalSegmentByCount(const TimeSeries& series, size_t n,
                                          const VerticalOptions& options = {});

struct WindowOptions {
  Aggregation aggregation = Aggregation::kMean;
  // Sampling period of the input, used to compute coverage.
  int64_t sample_period_seconds = 1;
  // Minimum fraction of expected samples a window must contain to be
  // emitted. 0 emits any non-empty window.
  double min_coverage = 0.5;
  // Windows are aligned to multiples of window_seconds from epoch 0 so that
  // day boundaries line up across houses.
};

// Aggregates by aligned wall-clock windows of `window_seconds`. The output
// sample for window [w, w + window_seconds) is stamped with the window end,
// mirroring Definition 2's "timestamp of the last element". Empty or
// under-covered windows produce no output sample (a gap).
Result<TimeSeries> VerticalSegmentByWindow(const TimeSeries& series,
                                           int64_t window_seconds,
                                           const WindowOptions& options = {});

// Per-window data quality for the gap-aware segmentation below.
enum class WindowQuality {
  kValid,    // coverage >= min_coverage
  kPartial,  // some samples, but coverage < min_coverage
  kGap,      // no samples at all
};

// One aligned window of the gap-aware segmentation.
struct AggregatedWindow {
  Timestamp timestamp = 0;  // window end (Definition 2's last-element stamp)
  // Aggregate of the window's samples; NaN when quality == kGap (a window
  // with no readings has no aggregate).
  double value = 0.0;
  WindowQuality quality = WindowQuality::kGap;
  // Fraction of expected samples present, in [0, 1+] (over-dense inputs can
  // exceed 1).
  double coverage = 0.0;
};

struct GapAwareWindowOptions {
  WindowOptions window;
  // Upper bound on the number of emitted windows. The gap-aware path emits
  // EVERY aligned window between the first and last sample, so a trace with
  // two samples eons apart would otherwise allocate without bound — reject
  // it instead. 2^20 windows is ~28 years of 15-minute data.
  size_t max_windows = size_t{1} << 20;
};

// Gap-aware variant of VerticalSegmentByWindow: emits one AggregatedWindow
// for EVERY aligned window from the first sample's window through the last
// sample's window, inclusive — missing stretches appear as explicit
// kGap/kPartial windows instead of silently breaking the cadence. The
// result always has a fixed window_seconds cadence, which is what lets a
// gappy trace round-trip through the wire codec (GAP symbols) without
// splitting into segments.
Result<std::vector<AggregatedWindow>> VerticalSegmentByWindowWithGaps(
    const TimeSeries& series, int64_t window_seconds,
    const GapAwareWindowOptions& options = {});

namespace internal {

// Incrementally combines values under one aggregation mode.
class Accumulator {
 public:
  explicit Accumulator(Aggregation mode) : mode_(mode) {}

  void Reset() {
    count_ = 0;
    sum_ = 0.0;
    min_ = std::numeric_limits<double>::infinity();
    max_ = -std::numeric_limits<double>::infinity();
  }

  void Add(double v) {
    ++count_;
    sum_ += v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }

  size_t count() const { return count_; }

  // Contract: count() > 0. An empty window has no aggregate (mean would be
  // 0/0, min and max would be infinities that Append then rejects
  // confusingly).
  double Value() const;

 private:
  Aggregation mode_;
  size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace internal

// The window-based segmentation one sample at a time: Add() the samples in
// timestamp order, then Finish() once. It holds only the open window's
// aggregate and the windows already closed, never the samples, so a trace
// can be folded straight from disk.
class WindowFolder {
 public:
  // Validates the options as the batch functions do. With `keep_gaps` the
  // output is VerticalSegmentByWindowWithGaps': every aligned window from
  // the first sample's through the last sample's. Without it, it is
  // VerticalSegmentByWindow's: only the windows that reach min_coverage
  // (`options.max_windows` is then unused).
  static Result<WindowFolder> Create(int64_t window_seconds,
                                     const GapAwareWindowOptions& options,
                                     bool keep_gaps);

  // Contract: timestamps are non-decreasing across calls.
  void Add(const Sample& sample);

  // The windows in time order; none for an empty input. With `keep_gaps`,
  // InvalidArgument when more than max_windows windows would be emitted.
  Result<std::vector<AggregatedWindow>> Finish();

 private:
  WindowFolder(int64_t window_seconds, const GapAwareWindowOptions& options,
               bool keep_gaps);
  Timestamp Align(Timestamp t) const;
  uint64_t WindowsThrough(Timestamp ws) const;
  // Closes the open window [window_start_, window_start_ + window_seconds_).
  void Flush();

  int64_t window_seconds_;
  GapAwareWindowOptions options_;
  bool keep_gaps_;
  double expected_;  // samples a fully covered window holds
  internal::Accumulator acc_;
  size_t samples_ = 0;
  Timestamp first_window_ = 0;
  Timestamp last_window_ = 0;
  Timestamp window_start_ = 0;
  // Set once the windows outgrow max_windows: Finish() fails, so the rest
  // only moves last_window_, for the error's count.
  bool too_many_ = false;
  std::vector<AggregatedWindow> windows_;
};

}  // namespace smeter

#endif  // SMETER_CORE_VERTICAL_H_
