#include "core/fleet_encoder.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/fault_injection.h"

namespace smeter {
namespace {

Status AnnotateHousehold(size_t index, const Status& status) {
  return Status(status.code(), "household " + std::to_string(index) + ": " +
                                   status.message());
}

// Cap on the history values reserved up front. A fully sampled span at
// the declared period is reserved once instead of regrown, but a huge
// history_seconds cannot reserve memory its trace may never fill.
constexpr int64_t kMaxHistoryReserve = int64_t{1} << 20;

// One full attempt for one household: injection point, load (streamed or
// the trace's Result), encode, then the sink. Any failing step fails the
// attempt as a unit, so the retry loop re-runs all of it.
Status AttemptHousehold(size_t index, const FleetInput& input,
                        const FleetEncodeOptions& options,
                        const HouseholdSink& sink, HouseholdReport* report,
                        std::optional<HouseholdEncoding>* kept) {
  SMETER_FAULT_POINT("fleet.household");
  HouseholdEncoder encoder(options);
  if (input.source) {
    SMETER_RETURN_IF_ERROR(
        input.source([&encoder](Sample s) { return encoder.Add(s); }));
  } else {
    if (!input.trace.ok()) return input.trace.status();
    for (const Sample& s : *input.trace) SMETER_RETURN_IF_ERROR(encoder.Add(s));
  }
  report->samples = encoder.samples();
  Result<EncodedHousehold> encoded = encoder.Finish();
  if (!encoded.ok()) return encoded.status();
  report->quality = encoded->quality;
  if (sink) {
    SMETER_RETURN_IF_ERROR(sink(index, *report, encoded->encoding));
    kept->reset();
  } else {
    *kept = std::move(encoded.value().encoding);
  }
  return Status::Ok();
}

int64_t BackoffMs(const RetryOptions& retry, int retry_number) {
  double backoff = static_cast<double>(retry.initial_backoff_ms);
  for (int i = 1; i < retry_number; ++i) backoff *= retry.backoff_multiplier;
  return static_cast<int64_t>(backoff);
}

void AppendJsonString(std::string& out, const std::string& value) {
  out.push_back('"');
  for (char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

std::string FormatRatio(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", value);
  return buf;
}

}  // namespace

HouseholdEncoder::HouseholdEncoder(const FleetEncodeOptions& options)
    : options_(options),
      folder_(WindowFolder::Create(options.pipeline.window_seconds,
                                   {options.pipeline.window},
                                   options.gap_aware)) {}

Status HouseholdEncoder::Add(Sample sample) {
  if (!std::isfinite(sample.value)) {
    return InvalidArgumentError("non-finite value");
  }
  if (samples_ > 0 && sample.timestamp < last_) {
    return InvalidArgumentError("timestamp regresses");
  }
  const int64_t history = options_.history_seconds;
  if (samples_ == 0 && history > 0) {
    // Saturates rather than wraps for a history reaching past the last
    // representable second.
    if (__builtin_add_overflow(sample.timestamp, history, &history_end_)) {
      history_end_ = std::numeric_limits<Timestamp>::max();
    }
    const int64_t period = options_.pipeline.window.sample_period_seconds;
    if (period > 0) {
      history_.reserve(static_cast<size_t>(
          std::min(history / period + 1, kMaxHistoryReserve)));
    }
  }
  ++samples_;
  last_ = sample.timestamp;
  if (history <= 0 || sample.timestamp < history_end_) {
    history_.push_back(sample.value);
  }
  if (folder_.ok()) folder_->Add(sample);
  return Status::Ok();
}

Result<EncodedHousehold> HouseholdEncoder::Finish() {
  if (samples_ == 0) return FailedPreconditionError("empty trace");
  if (history_.empty()) {
    return FailedPreconditionError("no training data in the history span");
  }
  Result<LookupTable> table = LookupTable::Build(history_, options_.table);
  if (!table.ok()) return table.status();
  history_ = {};
  SMETER_FAULT_POINT("encode.pipeline");
  if (!folder_.ok()) return folder_.status();
  Result<std::vector<AggregatedWindow>> windows = folder_->Finish();
  if (!windows.ok()) return windows.status();
  Result<QualityEncoding> encoded =
      EncodeWindows(*windows, *table, options_.gap_aware);
  if (!encoded.ok()) return encoded.status();
  const EncodeQuality quality = encoded->quality;
  return EncodedHousehold{
      {std::move(table.value()), std::move(encoded.value().symbols)},
      quality};
}

Result<EncodedHousehold> EncodeHousehold(const TimeSeries& trace,
                                         const FleetEncodeOptions& options) {
  HouseholdEncoder encoder(options);
  for (const Sample& s : trace) SMETER_RETURN_IF_ERROR(encoder.Add(s));
  return encoder.Finish();
}

Result<std::vector<HouseholdEncoding>> EncodeFleet(
    const std::vector<TimeSeries>& households,
    const FleetEncodeOptions& options, ThreadPool* pool) {
  // Slots, not a result vector: HouseholdEncoding is not default
  // constructible (LookupTable has no empty state), and each lane writes
  // only its own disjoint indices.
  std::vector<std::optional<HouseholdEncoding>> slots(households.size());
  auto encode_range = [&](size_t begin, size_t end) -> Status {
    for (size_t h = begin; h < end; ++h) {
      Result<EncodedHousehold> encoded =
          EncodeHousehold(households[h], options);
      if (!encoded.ok()) return AnnotateHousehold(h, encoded.status());
      slots[h] = std::move(encoded.value().encoding);
    }
    return Status::Ok();
  };
  if (pool != nullptr) {
    // Grain 1: one household is already a large work item (a day of 1 Hz
    // data is 86400 samples), so per-chunk overhead is negligible and the
    // finest sharding keeps all lanes busy on uneven trace lengths.
    SMETER_RETURN_IF_ERROR(
        pool->ParallelFor(0, households.size(), 1, encode_range));
  } else {
    SMETER_RETURN_IF_ERROR(encode_range(0, households.size()));
  }
  std::vector<HouseholdEncoding> out;
  out.reserve(households.size());
  for (std::optional<HouseholdEncoding>& slot : slots) {
    out.push_back(std::move(*slot));
  }
  return out;
}

std::string HouseholdOutcomeToString(HouseholdOutcome outcome) {
  switch (outcome) {
    case HouseholdOutcome::kOk:
      return "ok";
    case HouseholdOutcome::kDegraded:
      return "degraded";
    case HouseholdOutcome::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

void FleetProgress::Record(HouseholdOutcome outcome, int attempts) {
  MutexLock lock(mutex_);
  ++counts_.completed;
  switch (outcome) {
    case HouseholdOutcome::kOk:
      ++counts_.ok;
      break;
    case HouseholdOutcome::kDegraded:
      ++counts_.degraded;
      break;
    case HouseholdOutcome::kQuarantined:
      ++counts_.quarantined;
      break;
  }
  if (attempts > 1) counts_.retries += static_cast<size_t>(attempts - 1);
}

FleetProgress::Snapshot FleetProgress::Get() const {
  MutexLock lock(mutex_);
  return counts_;
}

Result<std::vector<HouseholdReport>> EncodeFleetTolerant(
    const std::vector<FleetInput>& inputs, const FleetEncodeOptions& options,
    ThreadPool* pool, const HouseholdSink& sink, FleetProgress* progress) {
  const RetryOptions& retry = options.retry;
  if (retry.max_retries < 0) {
    return InvalidArgumentError("max_retries must be >= 0");
  }
  if (retry.initial_backoff_ms < 0) {
    return InvalidArgumentError("initial_backoff_ms must be >= 0");
  }
  if (retry.backoff_multiplier < 1.0) {
    return InvalidArgumentError("backoff_multiplier must be >= 1.0");
  }
  std::function<void(int64_t)> sleep_ms = retry.sleep_ms;
  if (!sleep_ms) {
    sleep_ms = [](int64_t ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    };
  }

  std::vector<HouseholdReport> reports(inputs.size());
  // The range function never returns an error: every household failure is
  // captured in its own report, so ParallelFor's lowest-failing-chunk
  // contract is never exercised and all households always run.
  auto encode_range = [&](size_t begin, size_t end) -> Status {
    for (size_t h = begin; h < end; ++h) {
      HouseholdReport& report = reports[h];
      report.name = inputs[h].name;
      std::optional<HouseholdEncoding> kept;
      for (int attempt = 1; attempt <= 1 + retry.max_retries; ++attempt) {
        report.attempts = attempt;
        if (attempt > 1) sleep_ms(BackoffMs(retry, attempt - 1));
        Status attempted =
            AttemptHousehold(h, inputs[h], options, sink, &report, &kept);
        if (attempted.ok()) {
          const bool clean = attempt == 1 &&
                             report.quality.windows_partial == 0 &&
                             report.quality.windows_gap == 0;
          report.outcome = clean ? HouseholdOutcome::kOk
                                 : HouseholdOutcome::kDegraded;
          report.error = Status::Ok();
          report.encoding = std::move(kept);
          break;
        }
        report.outcome = HouseholdOutcome::kQuarantined;
        report.error = Status(attempted.code(), "household " + inputs[h].name +
                                                    ": " + attempted.message());
        report.encoding.reset();
      }
      // A quarantined household produced no output; don't let the window
      // counts of a half-succeeded attempt leak into the report.
      if (report.outcome == HouseholdOutcome::kQuarantined) {
        report.quality = EncodeQuality{};
      }
      if (progress != nullptr) {
        progress->Record(report.outcome, report.attempts);
      }
    }
    return Status::Ok();
  };
  if (pool != nullptr) {
    Status st = pool->ParallelFor(0, inputs.size(), 1, encode_range);
    SMETER_CHECK(st.ok());  // encode_range is infallible
  } else {
    Status st = encode_range(0, inputs.size());
    SMETER_CHECK(st.ok());
  }
  return reports;
}

FleetQualityReport SummarizeFleet(
    const std::vector<HouseholdReport>& reports) {
  FleetQualityReport summary;
  for (const HouseholdReport& r : reports) {
    switch (r.outcome) {
      case HouseholdOutcome::kOk:
        ++summary.households_ok;
        break;
      case HouseholdOutcome::kDegraded:
        ++summary.households_degraded;
        break;
      case HouseholdOutcome::kQuarantined:
        ++summary.households_quarantined;
        break;
    }
    if (r.outcome != HouseholdOutcome::kQuarantined) {
      summary.windows_total += r.quality.windows_total();
      summary.windows_gap += r.quality.windows_gap;
    }
  }
  return summary;
}

std::string FleetQualityReportToJson(
    const FleetQualityReport& summary,
    const std::vector<HouseholdReport>& reports) {
  std::string out = "{\n";
  out += "  \"households_ok\": " + std::to_string(summary.households_ok) +
         ",\n";
  out += "  \"households_degraded\": " +
         std::to_string(summary.households_degraded) + ",\n";
  out += "  \"households_quarantined\": " +
         std::to_string(summary.households_quarantined) + ",\n";
  out += "  \"windows_total\": " + std::to_string(summary.windows_total) +
         ",\n";
  out += "  \"windows_gap\": " + std::to_string(summary.windows_gap) + ",\n";
  out += "  \"gap_ratio\": " + FormatRatio(summary.gap_ratio()) + ",\n";
  out += "  \"households\": [\n";
  for (size_t i = 0; i < reports.size(); ++i) {
    const HouseholdReport& r = reports[i];
    out += "    {\"name\": ";
    AppendJsonString(out, r.name);
    out += ", \"outcome\": ";
    AppendJsonString(out, HouseholdOutcomeToString(r.outcome));
    out += ", \"attempts\": " + std::to_string(r.attempts);
    out += ", \"windows_valid\": " + std::to_string(r.quality.windows_valid);
    out += ", \"windows_partial\": " +
           std::to_string(r.quality.windows_partial);
    out += ", \"windows_gap\": " + std::to_string(r.quality.windows_gap);
    out += ", \"gap_ratio\": " + FormatRatio(r.quality.gap_ratio());
    out += ", \"error\": ";
    AppendJsonString(out, r.error.ok() ? "" : r.error.ToString());
    out += i + 1 < reports.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace smeter
