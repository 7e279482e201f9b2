#include "core/vertical.h"

#include <limits>
#include <string>
#include <utility>

#include "common/check.h"

namespace smeter {
namespace internal {

double Accumulator::Value() const {
  SMETER_DCHECK_GT(count_, 0u);
  switch (mode_) {
    case Aggregation::kMean:
      return sum_ / static_cast<double>(count_);
    case Aggregation::kSum:
      return sum_;
    case Aggregation::kMin:
      return min_;
    case Aggregation::kMax:
      return max_;
  }
  return sum_;
}

}  // namespace internal

namespace {

Result<std::vector<AggregatedWindow>> FoldWindows(
    const TimeSeries& series, int64_t window_seconds,
    const GapAwareWindowOptions& options, bool keep_gaps) {
  Result<WindowFolder> folder =
      WindowFolder::Create(window_seconds, options, keep_gaps);
  if (!folder.ok()) return folder.status();
  for (const Sample& s : series) folder->Add(s);
  return folder->Finish();
}

}  // namespace

Result<TimeSeries> VerticalSegmentByCount(const TimeSeries& series, size_t n,
                                          const VerticalOptions& options) {
  if (n == 0) return InvalidArgumentError("aggregation count n must be > 0");
  TimeSeries out;
  internal::Accumulator acc(options.aggregation);
  for (size_t i = 0; i < series.size(); ++i) {
    acc.Add(series[i].value);
    if (acc.count() == n) {
      // Definition 2 stamps the aggregate with the last raw timestamp.
      SMETER_RETURN_IF_ERROR(out.Append({series[i].timestamp, acc.Value()}));
      acc.Reset();
    }
  }
  return out;
}

Result<WindowFolder> WindowFolder::Create(int64_t window_seconds,
                                          const GapAwareWindowOptions& options,
                                          bool keep_gaps) {
  if (window_seconds <= 0) {
    return InvalidArgumentError("window_seconds must be > 0");
  }
  if (options.window.sample_period_seconds <= 0) {
    return InvalidArgumentError("sample_period_seconds must be > 0");
  }
  if (options.window.min_coverage < 0.0 || options.window.min_coverage > 1.0) {
    return InvalidArgumentError("min_coverage must be in [0, 1]");
  }
  return WindowFolder(window_seconds, options, keep_gaps);
}

WindowFolder::WindowFolder(int64_t window_seconds,
                           const GapAwareWindowOptions& options,
                           bool keep_gaps)
    : window_seconds_(window_seconds),
      options_(options),
      keep_gaps_(keep_gaps),
      expected_(static_cast<double>(window_seconds) /
                static_cast<double>(options.window.sample_period_seconds)),
      acc_(options.window.aggregation) {}

// Windows align to multiples of window_seconds (floor division for
// possibly-negative timestamps), so day boundaries line up across houses.
Timestamp WindowFolder::Align(Timestamp t) const {
  Timestamp ws = t / window_seconds_ * window_seconds_;
  if (ws > t) ws -= window_seconds_;
  return ws;
}

// Windows from the first sample's through the one starting at `ws`. The
// unsigned difference is exact for any two timestamps in order.
uint64_t WindowFolder::WindowsThrough(Timestamp ws) const {
  return (static_cast<uint64_t>(ws) - static_cast<uint64_t>(first_window_)) /
             static_cast<uint64_t>(window_seconds_) +
         1;
}

void WindowFolder::Add(const Sample& sample) {
  const Timestamp ws = Align(sample.timestamp);
  if (samples_++ == 0) {
    first_window_ = ws;
    window_start_ = ws;
  }
  last_window_ = ws;
  if (too_many_) return;
  if (ws != window_start_) {
    if (keep_gaps_) {
      // Emit every window up to the sample's, the intervening ones as
      // gaps. The count is checked first, so a trace with two samples
      // eons apart is rejected instead of allocated.
      if (WindowsThrough(ws) > options_.max_windows) {
        too_many_ = true;
        windows_ = {};
        return;
      }
      while (window_start_ < ws) {
        Flush();
        window_start_ += window_seconds_;
      }
    } else {
      Flush();
      window_start_ = ws;
    }
  }
  acc_.Add(sample.value);
}

void WindowFolder::Flush() {
  AggregatedWindow w;
  w.timestamp = window_start_ + window_seconds_;
  w.coverage = static_cast<double>(acc_.count()) / expected_;
  if (acc_.count() == 0) {
    w.quality = WindowQuality::kGap;
    w.value = std::numeric_limits<double>::quiet_NaN();
  } else {
    w.quality = (w.coverage + 1e-12 >= options_.window.min_coverage)
                    ? WindowQuality::kValid
                    : WindowQuality::kPartial;
    w.value = acc_.Value();
  }
  if (keep_gaps_ || w.quality == WindowQuality::kValid) windows_.push_back(w);
  acc_.Reset();
}

Result<std::vector<AggregatedWindow>> WindowFolder::Finish() {
  if (samples_ == 0) return std::vector<AggregatedWindow>();
  const uint64_t windows = WindowsThrough(last_window_);
  if (keep_gaps_ && windows > options_.max_windows) {
    return InvalidArgumentError(
        "gap-aware segmentation would emit " + std::to_string(windows) +
        " windows (max " + std::to_string(options_.max_windows) +
        "); the trace is too sparse for this window size");
  }
  Flush();
  return std::move(windows_);
}

Result<TimeSeries> VerticalSegmentByWindow(const TimeSeries& series,
                                           int64_t window_seconds,
                                           const WindowOptions& options) {
  GapAwareWindowOptions fold;
  fold.window = options;
  Result<std::vector<AggregatedWindow>> windows =
      FoldWindows(series, window_seconds, fold, /*keep_gaps=*/false);
  if (!windows.ok()) return windows.status();
  TimeSeries out;
  for (const AggregatedWindow& w : *windows) {
    SMETER_RETURN_IF_ERROR(out.Append({w.timestamp, w.value}));
  }
  return out;
}

Result<std::vector<AggregatedWindow>> VerticalSegmentByWindowWithGaps(
    const TimeSeries& series, int64_t window_seconds,
    const GapAwareWindowOptions& options) {
  return FoldWindows(series, window_seconds, options, /*keep_gaps=*/true);
}

}  // namespace smeter
