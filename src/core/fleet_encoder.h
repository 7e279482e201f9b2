// Fleet-scale encoding: shards N households across a thread pool, builds
// one lookup table per household (the paper's per-customer tables — each
// sensor learns its own separators from its own history), and runs the
// vertical+horizontal pipeline on every trace.
//
// This is the aggregation-server-side counterpart of the per-sensor
// encoder: the workload Section 1 motivates ("millions of customers"
// emitting 1 Hz data) is embarrassingly parallel across households, so
// throughput scales with the pool size while each household's output stays
// bit-identical to a serial EncodePipeline call.
//
// Two entry points with different failure models:
//   EncodeFleet          — all-or-nothing. Any failing household fails the
//                          run (lowest-indexed failure wins, as a serial
//                          loop would report). Right for benchmarks and
//                          pipelines where partial output is useless.
//   EncodeFleetTolerant  — per-household quarantine. A failing household is
//                          retried with exponential backoff and, if it
//                          never succeeds, quarantined; the other
//                          households encode normally and the run reports
//                          per-household outcomes. Right for ingestion,
//                          where one meter's corrupt file must not discard
//                          a fleet's worth of good data.

#ifndef SMETER_CORE_FLEET_ENCODER_H_
#define SMETER_CORE_FLEET_ENCODER_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "core/encoder.h"
#include "core/lookup_table.h"
#include "core/symbolic_series.h"
#include "core/time_series.h"

namespace smeter {

// Retry policy for EncodeFleetTolerant. An "attempt" is the whole
// per-household unit of work: the load (streamed from FleetInput::source,
// or the trace's Result checked), table build, encode, and the sink
// callback — a transient write failure retries the same way a transient
// read failure does.
struct RetryOptions {
  // Extra attempts after the first failure (0 = fail fast).
  int max_retries = 2;
  // Backoff before retry k (1-based) is initial_backoff_ms *
  // backoff_multiplier^(k-1).
  int64_t initial_backoff_ms = 100;
  double backoff_multiplier = 2.0;
  // Sleep hook, for tests: receives the backoff in milliseconds. Defaults
  // to std::this_thread::sleep_for; inject a recorder to keep tests
  // wall-clock free.
  std::function<void(int64_t)> sleep_ms;
};

struct FleetEncodeOptions {
  // Per-household table construction (Section 2.2 separator learning).
  LookupTableOptions table;
  // Vertical window + encode (Definitions 2 and 3).
  PipelineOptions pipeline;
  // Learn each household's table from only the first `history_seconds` of
  // its trace — the paper trains tables on the first two days and encodes
  // the rest. 0 = learn from the whole trace.
  int64_t history_seconds = 0;
  // Tolerant path only: encode through EncodePipelineWithGaps, so a trace
  // with outages produces GAP symbols (and a degraded outcome) instead of
  // an error.
  bool gap_aware = false;
  // Tolerant path only: retry policy for failing households.
  RetryOptions retry;
};

// One household's encoding: its personal table plus its symbol stream.
struct HouseholdEncoding {
  LookupTable table;
  SymbolicSeries symbols;
};

// A household's encoding plus the quality of its windows.
struct EncodedHousehold {
  HouseholdEncoding encoding;
  EncodeQuality quality;
};

// The one path from a household's raw samples to its table and symbols,
// one sample at a time. It keeps only what the table and the windows
// need: the values of the history span (8 B a sample; all of them when
// history_seconds is 0) and the folded windows, never the trace itself,
// so a household can be encoded straight from disk.
class HouseholdEncoder {
 public:
  explicit HouseholdEncoder(const FleetEncodeOptions& options);

  // Validates `sample` as TimeSeries::Append does, keeps its value if it
  // falls in [first, first + history_seconds), and folds it into its
  // window.
  Status Add(Sample sample);

  // Samples added so far.
  size_t samples() const { return samples_; }

  // Learns the table from the history values and encodes the windows:
  // GAP symbols and a degraded quality when gap_aware, the valid windows
  // only otherwise. Call once.
  Result<EncodedHousehold> Finish();

 private:
  FleetEncodeOptions options_;
  Result<WindowFolder> folder_;
  std::vector<double> history_;
  size_t samples_ = 0;
  Timestamp last_ = 0;
  Timestamp history_end_ = 0;
};

// A whole in-memory trace fed through a HouseholdEncoder.
Result<EncodedHousehold> EncodeHousehold(const TimeSeries& trace,
                                         const FleetEncodeOptions& options);

// Encodes every household, using `pool` to spread households across
// threads (nullptr = serial). Results arrive in input order regardless of
// scheduling. On failure the error names the offending household and is
// deterministic: the lowest-indexed failing household wins, exactly as a
// serial loop would report.
Result<std::vector<HouseholdEncoding>> EncodeFleet(
    const std::vector<TimeSeries>& households,
    const FleetEncodeOptions& options, ThreadPool* pool = nullptr);

// Streams one household's samples, in timestamp order, into `on_sample`
// and returns the first error: e.g. data::ForEachReddHouseSample bound to
// a house directory.
using SampleSource =
    std::function<Status(const std::function<Status(Sample)>& on_sample)>;

// One household heading into the tolerant encoder, either in memory or on
// disk. The trace is a Result so a failed load (unreadable file, malformed
// CSV) flows into the same quarantine machinery as an encode failure,
// instead of aborting before the fleet call.
struct FleetInput {
  std::string name;
  Result<TimeSeries> trace = TimeSeries();
  // When set, `trace` is ignored and every attempt streams the household
  // from here instead, inside its pool lane: a lane then holds two read
  // buffers, the history values and the windows rather than a trace, and
  // a failed read retries like any other failed attempt. (A source, not a
  // path, because core does not link the data loaders.)
  SampleSource source = nullptr;
};

enum class HouseholdOutcome {
  kOk = 0,       // encoded cleanly, no gaps, first attempt
  kDegraded,     // encoded, but with gap/partial windows or after retries
  kQuarantined,  // all attempts failed; no output for this household
};

std::string HouseholdOutcomeToString(HouseholdOutcome outcome);

// Per-household result of a tolerant fleet run.
struct HouseholdReport {
  std::string name;
  HouseholdOutcome outcome = HouseholdOutcome::kQuarantined;
  // Attempts actually made (>= 1; > 1 means retries happened).
  int attempts = 0;
  // The final error for a quarantined household; OK otherwise.
  Status error;
  // Window-quality counts (all-valid unless gap_aware was set).
  EncodeQuality quality;
  // Samples the household's last complete load delivered, even if its
  // encode then failed; 0 if it never loaded (and for carried-over
  // reports, which never load).
  size_t samples = 0;
  // The encoding, present unless quarantined. Absent when a sink consumed
  // the outputs (see HouseholdSink below) to keep fleet-scale memory flat.
  std::optional<HouseholdEncoding> encoding;
};

// Fleet-level rollup of a tolerant run.
struct FleetQualityReport {
  size_t households_ok = 0;
  size_t households_degraded = 0;
  size_t households_quarantined = 0;
  size_t windows_total = 0;
  size_t windows_gap = 0;
  size_t total() const {
    return households_ok + households_degraded + households_quarantined;
  }
  double gap_ratio() const {
    return windows_total == 0 ? 0.0
                              : static_cast<double>(windows_gap) /
                                    static_cast<double>(windows_total);
  }
};

FleetQualityReport SummarizeFleet(const std::vector<HouseholdReport>& reports);

// Renders the fleet report as a stable, human-readable JSON document:
// the rollup counts plus a per-household array with outcome, attempts,
// gap ratio, and the quarantine error message.
std::string FleetQualityReportToJson(
    const FleetQualityReport& summary,
    const std::vector<HouseholdReport>& reports);

// Optional per-household output hook, called once per successful attempt
// (from the encoding thread) with the household's index, its in-progress
// report (name, attempts, and quality are valid; outcome and error are
// finalized only after the sink returns), and the encoding. A non-OK
// return fails that attempt — it retries under the same policy as an
// encode failure. When a sink is provided the encoding is handed to it and
// NOT kept in the report, so a fleet's outputs go to disk as each
// household finishes instead of accumulating in memory (with
// FleetInput::source its inputs come from disk the same way). Sinks run
// concurrently under a pool; they must be thread-safe across distinct
// households.
using HouseholdSink =
    std::function<Status(size_t index, const HouseholdReport& report,
                         const HouseholdEncoding& encoding)>;

// Live progress of a tolerant fleet run. Encoding lanes record each
// household's final outcome as it lands; any other thread (a CLI status
// line, the daemon's stats dump) may snapshot the counts mid-run. All
// mutable state sits behind one annotated mutex, so the cross-thread
// contract is machine-checked (DESIGN.md §13).
class FleetProgress {
 public:
  struct Snapshot {
    size_t completed = 0;    // households with a final outcome
    size_t ok = 0;
    size_t degraded = 0;
    size_t quarantined = 0;
    size_t retries = 0;      // attempts beyond each household's first
  };

  // Called once per household by the encoding lane that finished it.
  void Record(HouseholdOutcome outcome, int attempts) REQUIRES(!mutex_);
  Snapshot Get() const REQUIRES(!mutex_);

 private:
  mutable Mutex mutex_;
  Snapshot counts_ GUARDED_BY(mutex_);
};

// Encodes the fleet with per-household fault isolation: every household
// gets up to 1 + retry.max_retries attempts, failures are quarantined
// rather than propagated, and the run itself only fails on infrastructure
// errors (never on a household's data). Reports arrive in input order.
// `progress`, when non-null, receives one Record per finished household
// and may be polled concurrently from other threads.
Result<std::vector<HouseholdReport>> EncodeFleetTolerant(
    const std::vector<FleetInput>& inputs, const FleetEncodeOptions& options,
    ThreadPool* pool = nullptr, const HouseholdSink& sink = nullptr,
    FleetProgress* progress = nullptr);

}  // namespace smeter

#endif  // SMETER_CORE_FLEET_ENCODER_H_
