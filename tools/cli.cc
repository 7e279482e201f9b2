#include "cli.h"

#include <csignal>
#include <filesystem>
#include <map>
#include <utility>

#include "common/io.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "core/codec.h"
#include "core/encoder.h"
#include "core/entropy.h"
#include "core/fleet_encoder.h"
#include "core/fleet_manifest.h"
#include "core/fsck.h"
#include "core/quantile.h"
#include "core/reconstruction.h"
#include "data/cer.h"
#include "data/generator.h"
#include "data/redd.h"
#include "client/uploader.h"
#include "core/archive_store.h"
#include "net/ingest_server.h"
#include "net/loadgen.h"
#include "net/query_client.h"
#include "net/query_server.h"

namespace smeter::cli {
namespace {

Status MakeDirectories(const std::string& path) {
  std::error_code error;
  std::filesystem::create_directories(path, error);
  if (error) {
    return InternalError("cannot create " + path + ": " + error.message());
  }
  return Status::Ok();
}

// Every producer goes through the durable path: tmp file, fsync, rename,
// directory fsync. Readers of a killed run see old bytes or new bytes,
// never a torn file.
Status WriteFile(const std::string& path, const std::string& content) {
  return io::AtomicWriteFile(path, content);
}

Result<std::string> ReadFile(const std::string& path) {
  return io::ReadFileToString(path);
}

Result<SeparatorMethod> MethodFromName(const std::string& name) {
  if (name == "uniform") return SeparatorMethod::kUniform;
  if (name == "median") return SeparatorMethod::kMedian;
  if (name == "distinctmedian") return SeparatorMethod::kDistinctMedian;
  return InvalidArgumentError(
      "unknown method '" + name +
      "' (expected uniform|median|distinctmedian)");
}

// Loads a meter trace: REDD channel ("<ts> <watts>" lines) or CER.
Result<TimeSeries> LoadTrace(const Flags& flags) {
  Result<std::string> input = flags.Get("input");
  if (!input.ok()) return input.status();
  std::string format = flags.GetOr("format", "redd");
  if (format == "redd") {
    return data::LoadReddChannel(*input);
  }
  if (format == "cer") {
    Result<std::vector<std::pair<int64_t, TimeSeries>>> meters =
        data::LoadCerFile(*input);
    if (!meters.ok()) return meters.status();
    if (meters->empty()) return FailedPreconditionError("no meters in file");
    Result<int64_t> meter = flags.GetInt("meter", meters->front().first);
    if (!meter.ok()) return meter.status();
    for (auto& [id, series] : *meters) {
      if (id == *meter) return std::move(series);
    }
    return NotFoundError("meter " + std::to_string(*meter) + " not in file");
  }
  return InvalidArgumentError("unknown format '" + format +
                              "' (expected redd|cer)");
}

Status CheckNoStrayFlags(const Flags& flags) {
  std::vector<std::string> stray = flags.UnreadFlags();
  if (stray.empty()) return Status::Ok();
  std::string joined;
  for (const std::string& name : stray) {
    if (!joined.empty()) joined += ", ";
    joined += "--" + name;
  }
  return InvalidArgumentError("unknown flag(s): " + joined);
}

// --- subcommands -----------------------------------------------------------

Status CmdSimulate(const Flags& flags, std::ostream& out) {
  data::GeneratorOptions options;
  Result<int64_t> houses = flags.GetInt("houses", 6);
  if (!houses.ok()) return houses.status();
  Result<int64_t> days = flags.GetInt("days", 7);
  if (!days.ok()) return days.status();
  Result<int64_t> seed = flags.GetInt("seed", 42);
  if (!seed.ok()) return seed.status();
  std::string format = flags.GetOr("format", "redd");
  Result<double> outages = flags.GetDouble("outages", 0.4);
  if (!outages.ok()) return outages.status();
  Result<std::string> dir = flags.Get("out");
  if (!dir.ok()) return dir.status();
  SMETER_RETURN_IF_ERROR(CheckNoStrayFlags(flags));

  options.num_houses = static_cast<size_t>(*houses);
  options.duration_seconds = *days * kSecondsPerDay;
  options.seed = static_cast<uint64_t>(*seed);
  options.outages_per_day = *outages;
  if (format == "cer") options.sample_period_seconds = 1800;

  if (format == "redd") {
    for (size_t h = 0; h < options.num_houses; ++h) {
      Result<TimeSeries> series = data::GenerateHouseSeries(h, options);
      if (!series.ok()) return series.status();
      // REDD splits the house total across two mains; emit half into each
      // channel so LoadReddHouseMains reassembles the original.
      std::string mains1, mains2;
      char line[64];
      for (const Sample& s : *series) {
        std::snprintf(line, sizeof(line), "%lld %.2f\n",
                      static_cast<long long>(s.timestamp), s.value / 2.0);
        mains1 += line;
        mains2 += line;
      }
      std::string house_dir =
          *dir + "/house_" + std::to_string(h + 1);
      SMETER_RETURN_IF_ERROR(MakeDirectories(house_dir));
      SMETER_RETURN_IF_ERROR(
          WriteFile(house_dir + "/channel_1.dat", mains1));
      SMETER_RETURN_IF_ERROR(
          WriteFile(house_dir + "/channel_2.dat", mains2));
      out << "wrote " << house_dir << " (" << series->size()
          << " samples)\n";
    }
    return Status::Ok();
  }
  if (format == "cer") {
    std::vector<std::pair<int64_t, TimeSeries>> meters;
    for (size_t h = 0; h < options.num_houses; ++h) {
      Result<TimeSeries> series = data::GenerateHouseSeries(h, options);
      if (!series.ok()) return series.status();
      meters.emplace_back(static_cast<int64_t>(1000 + h),
                          std::move(series.value()));
    }
    Result<std::string> text = data::FormatCer(meters);
    if (!text.ok()) return text.status();
    std::string path = *dir + "/meters.cer";
    SMETER_RETURN_IF_ERROR(MakeDirectories(*dir));
    SMETER_RETURN_IF_ERROR(WriteFile(path, *text));
    out << "wrote " << path << " (" << meters.size() << " meters)\n";
    return Status::Ok();
  }
  return InvalidArgumentError("unknown format '" + format + "'");
}

Status CmdStats(const Flags& flags, std::ostream& out) {
  Result<TimeSeries> trace = LoadTrace(flags);
  if (!trace.ok()) return trace.status();
  SMETER_RETURN_IF_ERROR(CheckNoStrayFlags(flags));
  if (trace->empty()) return FailedPreconditionError("empty trace");
  RunningStats stats;
  for (const Sample& s : *trace) stats.Add(s.value);
  out << "samples        " << stats.count() << "\n";
  out << "span [s]       "
      << trace->back().timestamp - trace->front().timestamp << "\n";
  out << "mean           " << stats.mean() << "\n";
  out << "median         " << stats.Median().value() << "\n";
  out << "distinctmedian " << stats.DistinctMedian().value() << "\n";  // lint: checked: non-empty trace checked above
  out << "min            " << stats.min() << "\n";
  out << "max            " << stats.max() << "\n";
  out << "gaps > 60s     " << trace->FindGaps(60).size() << "\n";
  return Status::Ok();
}

Status CmdLearnTable(const Flags& flags, std::ostream& out) {
  Result<TimeSeries> trace = LoadTrace(flags);
  if (!trace.ok()) return trace.status();
  Result<SeparatorMethod> method =
      MethodFromName(flags.GetOr("method", "median"));
  if (!method.ok()) return method.status();
  Result<int64_t> level = flags.GetInt("level", 4);
  if (!level.ok()) return level.status();
  Result<int64_t> history = flags.GetInt("history-seconds", 0);
  if (!history.ok()) return history.status();
  Result<std::string> output = flags.Get("out");
  if (!output.ok()) return output.status();
  SMETER_RETURN_IF_ERROR(CheckNoStrayFlags(flags));

  TimeSeries training = *trace;
  if (*history > 0 && !trace->empty()) {
    training = trace->Slice(
        {trace->front().timestamp, trace->front().timestamp + *history});
  }
  if (training.empty()) {
    return FailedPreconditionError("no training data in the history span");
  }
  LookupTableOptions options;
  options.method = *method;
  options.level = static_cast<int>(*level);
  Result<LookupTable> table =
      LookupTable::Build(training.Values(), options);
  if (!table.ok()) return table.status();
  SMETER_RETURN_IF_ERROR(WriteFile(*output, table->Serialize()));
  out << "learned " << SeparatorMethodName(*method) << " table, "
      << table->alphabet_size() << " symbols, domain ["
      << table->domain_min() << ", " << table->domain_max() << "] from "
      << training.size() << " samples -> " << *output << "\n";
  return Status::Ok();
}

Result<LookupTable> LoadTable(const Flags& flags) {
  Result<std::string> path = flags.Get("table");
  if (!path.ok()) return path.status();
  Result<std::string> blob = ReadFile(*path);
  if (!blob.ok()) return blob.status();
  return LookupTable::Deserialize(*blob);
}

Status CmdEncode(const Flags& flags, std::ostream& out) {
  Result<TimeSeries> trace = LoadTrace(flags);
  if (!trace.ok()) return trace.status();
  Result<LookupTable> table = LoadTable(flags);
  if (!table.ok()) return table.status();
  Result<int64_t> window = flags.GetInt("window", 900);
  if (!window.ok()) return window.status();
  Result<int64_t> sample_period = flags.GetInt("sample-period", 1);
  if (!sample_period.ok()) return sample_period.status();
  Result<std::string> output = flags.Get("out");
  if (!output.ok()) return output.status();
  Result<bool> framed = flags.GetBool("framed", false);
  if (!framed.ok()) return framed.status();
  SMETER_RETURN_IF_ERROR(CheckNoStrayFlags(flags));

  PipelineOptions pipeline;
  pipeline.window_seconds = *window;
  pipeline.window.sample_period_seconds = *sample_period;
  Result<SymbolicSeries> symbols =
      EncodePipeline(*trace, *table, pipeline);
  if (!symbols.ok()) return symbols.status();
  Result<std::string> blob = *framed ? PackSymbolicSeriesFramed(*symbols)
                                     : PackSymbolicSeries(*symbols);
  if (!blob.ok()) {
    return Status(blob.status().code(),
                  blob.status().message() +
                      " (the trace has gaps; encode gapless spans)");
  }
  SMETER_RETURN_IF_ERROR(WriteFile(*output, *blob));
  double raw_bytes = static_cast<double>(trace->size()) * 8.0;
  out << "encoded " << symbols->size() << " symbols (level "
      << symbols->level() << ") -> " << *output << " (" << blob->size()
      << " bytes; raw was " << raw_bytes << " bytes, "
      << raw_bytes / static_cast<double>(blob->size()) << "x)\n";
  out << "symbol entropy: " << SymbolEntropyBits(*symbols).value() << " of "
      << symbols->level() << " bits\n";
  return Status::Ok();
}

Status CmdDecode(const Flags& flags, std::ostream& out) {
  Result<std::string> input = flags.Get("input");
  if (!input.ok()) return input.status();
  Result<LookupTable> table = LoadTable(flags);
  if (!table.ok()) return table.status();
  std::string mode_name = flags.GetOr("mode", "mean");
  SMETER_RETURN_IF_ERROR(CheckNoStrayFlags(flags));
  ReconstructionMode mode;
  if (mode_name == "mean") {
    mode = ReconstructionMode::kRangeMean;
  } else if (mode_name == "center") {
    mode = ReconstructionMode::kRangeCenter;
  } else {
    return InvalidArgumentError("unknown mode '" + mode_name +
                                "' (expected mean|center)");
  }
  Result<std::string> blob = ReadFile(*input);
  if (!blob.ok()) return blob.status();
  Result<SymbolicSeries> symbols = UnpackSymbolicSeries(*blob);
  if (!symbols.ok()) return symbols.status();
  Result<TimeSeries> decoded = Decode(*symbols, *table, mode);
  if (!decoded.ok()) return decoded.status();
  out << "timestamp,watts\n";
  for (const Sample& s : *decoded) {
    out << s.timestamp << "," << s.value << "\n";
  }
  return Status::Ok();
}

// Loads every household of a fleet: REDD layout (a directory of
// house_<i>/ subdirectories, loaded in parallel on `pool`) or a CER file
// (all meters). Returns one FleetInput per household in a stable order; a
// household whose files are unreadable carries its load error into the
// tolerant encoder (quarantine) instead of failing the whole fleet. A CER
// file that cannot be read at all is a fleet-level error — the households
// inside it cannot even be enumerated.
Result<std::vector<FleetInput>> LoadFleet(const std::string& input,
                                          const std::string& format,
                                          ThreadPool* pool) {
  std::vector<FleetInput> fleet;
  if (format == "redd") {
    for (int h = 1;; ++h) {
      std::string name = "house_" + std::to_string(h);
      if (!std::filesystem::is_directory(input + "/" + name)) break;
      fleet.push_back({std::move(name), TimeSeries()});
    }
    if (fleet.empty()) {
      return NotFoundError("no house_<i> directories under " + input);
    }
    // Each household stores its own Result, so a bad house is still
    // quarantined alone.
    SMETER_RETURN_IF_ERROR(
        pool->ParallelFor(0, fleet.size(), 1, [&](size_t begin, size_t end) {
          for (size_t h = begin; h < end; ++h) {
            fleet[h].trace =
                data::LoadReddHouseMains(input + "/" + fleet[h].name);
          }
          return Status::Ok();
        }));
    return fleet;
  }
  if (format == "cer") {
    Result<std::vector<std::pair<int64_t, TimeSeries>>> meters =
        data::LoadCerFile(input);
    if (!meters.ok()) return meters.status();
    if (meters->empty()) return FailedPreconditionError("no meters in file");
    for (auto& [id, series] : *meters) {
      fleet.push_back({"meter_" + std::to_string(id), std::move(series)});
    }
    return fleet;
  }
  return InvalidArgumentError("unknown format '" + format +
                              "' (expected redd|cer)");
}

// Households already finished by an earlier run, keyed by name (the
// manifest format itself lives in core/fleet_manifest). A missing,
// damaged, or legacy-format manifest simply resumes nothing — or, for a
// torn tail, resumes the valid prefix.
std::map<std::string, HouseholdReport> LoadManifest(
    const std::string& manifest_path) {
  Result<ManifestContents> contents = LoadFleetManifest(manifest_path);
  if (!contents.ok()) return {};
  return CarriedHouseholds(*contents);
}

Status CmdEncodeFleet(const Flags& flags, std::ostream& out) {
  Result<std::string> input = flags.Get("input");
  if (!input.ok()) return input.status();
  std::string format = flags.GetOr("format", "redd");
  Result<std::string> dir = flags.Get("out");
  if (!dir.ok()) return dir.status();
  Result<SeparatorMethod> method =
      MethodFromName(flags.GetOr("method", "median"));
  if (!method.ok()) return method.status();
  Result<int64_t> level = flags.GetInt("level", 4);
  if (!level.ok()) return level.status();
  Result<int64_t> window = flags.GetInt("window", 900);
  if (!window.ok()) return window.status();
  Result<int64_t> sample_period = flags.GetInt("sample-period", 1);
  if (!sample_period.ok()) return sample_period.status();
  Result<int64_t> history = flags.GetInt("history-seconds", 0);
  if (!history.ok()) return history.status();
  Result<int64_t> threads = flags.GetInt("threads", 0);
  if (!threads.ok()) return threads.status();
  Result<bool> resume = flags.GetBool("resume", false);
  if (!resume.ok()) return resume.status();
  Result<bool> gap_aware = flags.GetBool("gap-aware", true);
  if (!gap_aware.ok()) return gap_aware.status();
  Result<int64_t> max_retries = flags.GetInt("max-retries", 2);
  if (!max_retries.ok()) return max_retries.status();
  Result<int64_t> backoff = flags.GetInt("retry-backoff-ms", 100);
  if (!backoff.ok()) return backoff.status();
  SMETER_RETURN_IF_ERROR(CheckNoStrayFlags(flags));
  if (*threads < 0) return InvalidArgumentError("--threads must be >= 0");
  if (*max_retries < 0) {
    return InvalidArgumentError("--max-retries must be >= 0");
  }

  ThreadPool pool(static_cast<size_t>(*threads));
  Result<std::vector<FleetInput>> fleet = LoadFleet(*input, format, &pool);
  if (!fleet.ok()) return fleet.status();

  const std::string manifest_path = *dir + "/fleet.manifest";
  std::map<std::string, HouseholdReport> carried;
  if (*resume) carried = LoadManifest(manifest_path);

  FleetEncodeOptions options;
  options.table.method = *method;
  options.table.level = static_cast<int>(*level);
  options.pipeline.window_seconds = *window;
  options.pipeline.window.sample_period_seconds = *sample_period;
  options.history_seconds = *history;
  options.gap_aware = *gap_aware;
  options.retry.max_retries = static_cast<int>(*max_retries);
  options.retry.initial_backoff_ms = *backoff;

  SMETER_RETURN_IF_ERROR(MakeDirectories(*dir));

  // The households an earlier run didn't finish; everything else is
  // carried over verbatim.
  std::vector<FleetInput> todo;
  std::vector<size_t> todo_index;  // position in the full fleet
  for (size_t h = 0; h < fleet->size(); ++h) {
    if (carried.count((*fleet)[h].name) > 0) continue;
    todo_index.push_back(h);
    todo.push_back(std::move((*fleet)[h]));
  }

  // Seed the manifest with the carried entries, then append each household
  // as it finishes so a killed run leaves a usable checkpoint.
  {
    std::vector<HouseholdReport> seed;
    for (size_t h = 0; h < fleet->size(); ++h) {
      auto it = carried.find((*fleet)[h].name);
      if (it != carried.end()) seed.push_back(it->second);
    }
    SMETER_RETURN_IF_ERROR(WriteFile(manifest_path, BuildManifestLog(seed)));
  }

  Mutex manifest_mutex;
  Result<io::AppendLogWriter> manifest =
      io::AppendLogWriter::OpenForAppend(manifest_path);
  if (!manifest.ok()) return manifest.status();
  HouseholdSink sink = [&](size_t /*index*/, const HouseholdReport& report,
                           const HouseholdEncoding& enc) -> Status {
    SMETER_RETURN_IF_ERROR(WriteFile(*dir + "/" + report.name + ".table",
                                     enc.table.Serialize()));
    Result<std::string> blob = PackSymbolicSeriesFramed(enc.symbols);
    if (!blob.ok()) {
      return Status(blob.status().code(),
                    blob.status().message() +
                        " (encode gapless spans, or use --gap-aware true)");
    }
    SMETER_RETURN_IF_ERROR(
        WriteFile(*dir + "/" + report.name + ".symbols", *blob));
    // Checkpoint only after both files are durably written. The outcome is
    // derived the same way the encoder will finalize it.
    HouseholdReport done = report;
    const bool clean = report.attempts == 1 &&
                       report.quality.windows_partial == 0 &&
                       report.quality.windows_gap == 0;
    done.outcome =
        clean ? HouseholdOutcome::kOk : HouseholdOutcome::kDegraded;
    // Append returns the write/fsync outcome, so a full disk or failed
    // flush fails the household loudly instead of dropping its checkpoint.
    MutexLock lock(manifest_mutex);
    return manifest->Append(ManifestRecord(done));
  };

  Stopwatch watch;
  Result<std::vector<HouseholdReport>> encoded =
      EncodeFleetTolerant(todo, options, &pool, sink);
  if (!encoded.ok()) return encoded.status();
  const double seconds = watch.ElapsedSeconds();
  SMETER_RETURN_IF_ERROR(manifest->Close());

  // Merge carried and fresh reports back into fleet order.
  std::vector<HouseholdReport> reports;
  reports.reserve(fleet->size());
  {
    size_t next_todo = 0;
    for (size_t h = 0; h < fleet->size(); ++h) {
      if (next_todo < todo_index.size() && todo_index[next_todo] == h) {
        reports.push_back(std::move((*encoded)[next_todo]));
        ++next_todo;
      } else {
        reports.push_back(carried.at((*fleet)[h].name));
      }
    }
  }

  // Rewrite the manifest in fleet order (quarantined records included) so
  // a completed run's checkpoint is deterministic.
  SMETER_RETURN_IF_ERROR(
      WriteFile(manifest_path, BuildManifestLog(reports)));

  FleetQualityReport summary = SummarizeFleet(reports);
  SMETER_RETURN_IF_ERROR(WriteFile(
      *dir + "/quality.json", FleetQualityReportToJson(summary, reports)));

  size_t total_symbols = 0;
  size_t total_samples = 0;
  for (const FleetInput& in : todo) {
    if (in.trace.ok()) total_samples += in.trace->size();
  }
  for (const HouseholdReport& r : reports) {
    if (r.outcome == HouseholdOutcome::kQuarantined) {
      out << r.name << ": quarantined after " << r.attempts
          << " attempt(s): " << r.error.ToString() << "\n";
      continue;
    }
    total_symbols += r.quality.windows_total();
    out << r.name << ": " << r.quality.windows_total()
        << " symbols (level " << *level << ") -> " << *dir << "/" << r.name
        << ".{table,symbols}";
    if (carried.count(r.name) > 0) out << " [resumed]";
    if (r.outcome == HouseholdOutcome::kDegraded) {
      out << " [degraded: " << r.quality.windows_gap << " gap, "
          << r.quality.windows_partial << " partial windows]";
    }
    out << "\n";
  }
  out << "fleet: " << reports.size() << " households, " << total_samples
      << " samples -> " << total_symbols << " symbols on "
      << pool.num_threads() << " threads in " << seconds << " s\n";
  out << "quality: " << summary.households_ok << " ok, "
      << summary.households_degraded << " degraded, "
      << summary.households_quarantined << " quarantined -> " << *dir
      << "/quality.json\n";
  return Status::Ok();
}

Status CmdInfo(const Flags& flags, std::ostream& out) {
  Result<std::string> input = flags.Get("input");
  if (!input.ok()) return input.status();
  SMETER_RETURN_IF_ERROR(CheckNoStrayFlags(flags));
  Result<std::string> blob = ReadFile(*input);
  if (!blob.ok()) return blob.status();

  if (Result<SymbolicSeries> symbols = UnpackSymbolicSeries(*blob);
      symbols.ok()) {
    const int version =
        blob->size() > 4 ? static_cast<unsigned char>((*blob)[4]) : 0;
    out << "packed symbolic series (v" << version
        << (version == 3 ? ", framed + checksummed" : "") << ")\n";
    out << "  symbols " << symbols->size() << ", level " << symbols->level()
        << "\n";
    out << "  start " << symbols->samples().front().timestamp << ", end "
        << symbols->samples().back().timestamp << "\n";
    out << "  entropy " << SymbolEntropyBits(*symbols).value() << " bits\n";  // lint: checked: non-empty series printed above
    return Status::Ok();
  }
  if (Result<LookupTable> table = LookupTable::Deserialize(*blob);
      table.ok()) {
    out << "lookup table\n";
    out << "  method " << SeparatorMethodName(table->method()) << ", "
        << table->alphabet_size() << " symbols\n";
    out << "  domain [" << table->domain_min() << ", "
        << table->domain_max() << "]\n";
    out << "  separators:";
    for (double s : table->separators()) out << " " << s;
    out << "\n";
    return Status::Ok();
  }
  return InvalidArgumentError(
      "not a packed symbolic series or serialized lookup table");
}

Status CmdFsck(const Flags& flags, std::ostream& out, int* exit_code) {
  Result<std::string> dir = flags.Get("dir");
  if (!dir.ok()) return dir.status();
  Result<bool> repair = flags.GetBool("repair", false);
  if (!repair.ok()) return repair.status();
  std::string report_path = flags.GetOr("report", "");
  SMETER_RETURN_IF_ERROR(CheckNoStrayFlags(flags));

  FsckOptions options;
  options.repair = *repair;
  Result<FsckReport> report = FsckArchive(*dir, options);
  if (!report.ok()) return report.status();
  const std::string json = FsckReportToJson(*report);
  if (report_path.empty()) {
    out << json;
  } else {
    SMETER_RETURN_IF_ERROR(WriteFile(report_path, json));
    out << "fsck report -> " << report_path << "\n";
  }
  *exit_code = FsckExitCode(*report);
  return Status::Ok();
}

// The running daemon, for the signal handlers. Written on the main thread
// before signals are installed; the handlers only call the two
// async-signal-safe entry points (atomic flag + one eventfd write each).
net::IngestServer* g_ingest_server = nullptr;

void HandleDrainSignal(int) {
  if (g_ingest_server != nullptr) g_ingest_server->RequestDrain();
}

void HandleStatsSignal(int) {
  if (g_ingest_server != nullptr) g_ingest_server->RequestStatsDump();
}

Status CmdIngestd(const Flags& flags, std::ostream& out) {
  Result<std::string> listen = flags.Get("listen");
  if (!listen.ok()) return listen.status();
  Result<std::string> dir = flags.Get("dir");
  if (!dir.ok()) return dir.status();
  Result<bool> resume = flags.GetBool("resume", false);
  if (!resume.ok()) return resume.status();
  std::string auth_token = flags.GetOr("auth-token", "");
  Result<int64_t> idle = flags.GetInt("idle-timeout-ms", 30'000);
  if (!idle.ok()) return idle.status();
  Result<int64_t> grace = flags.GetInt("drain-grace-ms", 5'000);
  if (!grace.ok()) return grace.status();
  Result<int64_t> exit_after = flags.GetInt("exit-after-households", 0);
  if (!exit_after.ok()) return exit_after.status();
  Result<int64_t> watermark = flags.GetInt("high-watermark", 1 << 20);
  if (!watermark.ok()) return watermark.status();
  Result<int64_t> threads = flags.GetInt("threads", 1);
  if (!threads.ok()) return threads.status();
  // Overload-protection knobs; 0 disables each mechanism.
  Result<int64_t> max_conns = flags.GetInt("max-connections", 0);
  if (!max_conns.ok()) return max_conns.status();
  Result<int64_t> max_conns_shard = flags.GetInt("max-connections-per-shard", 0);
  if (!max_conns_shard.ok()) return max_conns_shard.status();
  Result<int64_t> memory_budget = flags.GetInt("memory-budget", 0);
  if (!memory_budget.ok()) return memory_budget.status();
  Result<double> rate_limit = flags.GetDouble("rate-limit", 0);
  if (!rate_limit.ok()) return rate_limit.status();
  Result<int64_t> write_stall = flags.GetInt("write-stall-ms", 0);
  if (!write_stall.ok()) return write_stall.status();
  Result<int64_t> throttle_retry = flags.GetInt("throttle-retry-ms", 250);
  if (!throttle_retry.ok()) return throttle_retry.status();
  Result<int64_t> sndbuf = flags.GetInt("sndbuf-bytes", 0);
  if (!sndbuf.ok()) return sndbuf.status();
  Result<int64_t> probe_interval = flags.GetInt("probe-interval-ms", 200);
  if (!probe_interval.ok()) return probe_interval.status();
  SMETER_RETURN_IF_ERROR(CheckNoStrayFlags(flags));
  if (*exit_after < 0) {
    return InvalidArgumentError("--exit-after-households must be >= 0");
  }
  if (*watermark <= 0) {
    return InvalidArgumentError("--high-watermark must be > 0");
  }
  if (*threads < 1 || *threads > 64) {
    return InvalidArgumentError("--threads must be in [1, 64]");
  }
  if (*throttle_retry < 0 || *throttle_retry > 3'600'000) {
    return InvalidArgumentError("--throttle-retry-ms must be in [0, 3600000]");
  }

  net::IngestServerOptions options;
  SMETER_RETURN_IF_ERROR(
      net::ParseListenAddress(*listen, &options.host, &options.port));
  options.archive_dir = *dir;
  options.resume = *resume;
  options.auth_token = auth_token;
  options.idle_timeout_ms = *idle;
  options.drain_grace_ms = *grace;
  options.exit_after_households = static_cast<uint64_t>(*exit_after);
  options.high_watermark = static_cast<size_t>(*watermark);
  options.threads = static_cast<int>(*threads);
  options.max_connections = static_cast<int>(*max_conns);
  options.max_connections_per_shard = static_cast<int>(*max_conns_shard);
  options.memory_budget = static_cast<size_t>(*memory_budget);
  options.rate_limit = *rate_limit;
  options.write_stall_ms = *write_stall;
  options.throttle_retry_ms = static_cast<uint32_t>(*throttle_retry);
  options.sndbuf_bytes = static_cast<int>(*sndbuf);
  options.probe_interval_ms = *probe_interval;

  Result<std::unique_ptr<net::IngestServer>> server =
      net::IngestServer::Create(std::move(options));
  if (!server.ok()) return server.status();

  out << "ingestd listening on " << (*server)->port() << ", archive "
      << *dir << ", " << (*server)->shard_count() << " shard(s)\n"
      << std::flush;

  // SIGTERM/SIGINT drain gracefully (stop accepting, flush sessions,
  // checkpoint); SIGUSR1 dumps the counters JSON without stopping.
  g_ingest_server = server->get();
  struct sigaction action{};
  action.sa_handler = HandleDrainSignal;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
  action.sa_handler = HandleStatsSignal;
  sigaction(SIGUSR1, &action, nullptr);

  Status status = (*server)->Run();
  g_ingest_server = nullptr;
  // Run() has returned, so this thread is the server's owner again.
  ScopedThreadRole owner((*server)->role());
  out << (*server)->counters().ToJson() << "\n";
  return status;
}

Status CmdLoadgen(const Flags& flags, std::ostream& out, int* exit_code) {
  Result<std::string> connect = flags.Get("connect");
  if (!connect.ok()) return connect.status();
  Result<int64_t> meters = flags.GetInt("meters", 10);
  if (!meters.ok()) return meters.status();
  std::string input = flags.GetOr("input", "");
  std::string auth_token = flags.GetOr("auth-token", "");
  Result<int64_t> concurrency = flags.GetInt("concurrency", 8);
  if (!concurrency.ok()) return concurrency.status();
  Result<int64_t> batch = flags.GetInt("batch-symbols", 512);
  if (!batch.ok()) return batch.status();
  Result<double> rate = flags.GetDouble("rate", 0);
  if (!rate.ok()) return rate.status();
  Result<int64_t> attempts = flags.GetInt("max-attempts", 5);
  if (!attempts.ok()) return attempts.status();
  Result<int64_t> io_timeout = flags.GetInt("io-timeout-ms", 10'000);
  if (!io_timeout.ok()) return io_timeout.status();
  Result<int64_t> connections = flags.GetInt("connections", 0);
  if (!connections.ok()) return connections.status();
  // Durable-spool mode: stage every batch in a crash-safe on-disk spool
  // under --spool-dir, then drain through the client SDK (restart-resume,
  // exactly-once) instead of streaming straight from memory.
  std::string spool_dir = flags.GetOr("spool-dir", "");
  Result<bool> remove_done = flags.GetBool("remove-done", false);
  if (!remove_done.ok()) return remove_done.status();
  // Sensor-side encoding — keep in lockstep with encode-fleet's flags when
  // comparing archives.
  Result<SeparatorMethod> method =
      MethodFromName(flags.GetOr("method", "median"));
  if (!method.ok()) return method.status();
  Result<int64_t> level = flags.GetInt("level", 4);
  if (!level.ok()) return level.status();
  Result<int64_t> window = flags.GetInt("window", 900);
  if (!window.ok()) return window.status();
  Result<int64_t> sample_period = flags.GetInt("sample-period", 1);
  if (!sample_period.ok()) return sample_period.status();
  Result<int64_t> history = flags.GetInt("history-seconds", 0);
  if (!history.ok()) return history.status();
  Result<bool> gap_aware = flags.GetBool("gap-aware", true);
  if (!gap_aware.ok()) return gap_aware.status();
  // Synthetic-fleet shape (ignored with --input).
  Result<int64_t> days = flags.GetInt("days", 1);
  if (!days.ok()) return days.status();
  Result<int64_t> gen_period = flags.GetInt("gen-period", 60);
  if (!gen_period.ok()) return gen_period.status();
  Result<int64_t> seed = flags.GetInt("seed", 42);
  if (!seed.ok()) return seed.status();
  Result<double> outages = flags.GetDouble("outages", 0.4);
  if (!outages.ok()) return outages.status();
  SMETER_RETURN_IF_ERROR(CheckNoStrayFlags(flags));
  if (*meters <= 0) return InvalidArgumentError("--meters must be > 0");
  if (*connections < 0) {
    return InvalidArgumentError("--connections must be >= 0");
  }

  net::LoadgenOptions options;
  SMETER_RETURN_IF_ERROR(
      net::ParseListenAddress(*connect, &options.host, &options.port));
  options.auth_token = auth_token;
  options.input_cer = input;
  options.meters = static_cast<size_t>(*meters);
  options.generator.duration_seconds = *days * kSecondsPerDay;
  options.generator.sample_period_seconds = *gen_period;
  options.generator.seed = static_cast<uint64_t>(*seed);
  options.generator.outages_per_day = *outages;
  options.encode.table.method = *method;
  options.encode.table.level = static_cast<int>(*level);
  options.encode.pipeline.window_seconds = *window;
  options.encode.pipeline.window.sample_period_seconds = *sample_period;
  options.encode.history_seconds = *history;
  options.encode.gap_aware = *gap_aware;
  options.batch_symbols = static_cast<size_t>(*batch);
  options.concurrency = static_cast<size_t>(*concurrency);
  options.batches_per_second = *rate;
  options.max_attempts = static_cast<int>(*attempts);
  options.io_timeout_ms = *io_timeout;
  options.connections = static_cast<size_t>(*connections);

  if (!spool_dir.empty()) {
    Result<client::UplinkReport> report =
        client::RunSpoolFleet(options, spool_dir, *remove_done);
    if (!report.ok()) return report.status();
    out << report->ToJson() << "\n";
    if (report->failed > 0) *exit_code = 1;
    return Status::Ok();
  }

  Result<net::LoadgenReport> report = net::RunLoadgen(options);
  if (!report.ok()) return report.status();
  out << report->ToJson() << "\n";
  // A fleet that did not fully land is a graded failure, like fsck's.
  if (report->meters_failed > 0) *exit_code = 1;
  return Status::Ok();
}

Status CmdUplink(const Flags& flags, std::ostream& out, int* exit_code) {
  Result<std::string> connect = flags.Get("connect");
  if (!connect.ok()) return connect.status();
  Result<std::string> spool_dir = flags.Get("spool-dir");
  if (!spool_dir.ok()) return spool_dir.status();
  std::string auth_token = flags.GetOr("auth-token", "");
  Result<int64_t> concurrency = flags.GetInt("concurrency", 1);
  if (!concurrency.ok()) return concurrency.status();
  Result<int64_t> attempts = flags.GetInt("max-attempts", 5);
  if (!attempts.ok()) return attempts.status();
  Result<int64_t> io_timeout = flags.GetInt("io-timeout-ms", 10'000);
  if (!io_timeout.ok()) return io_timeout.status();
  Result<bool> remove_done = flags.GetBool("remove-done", false);
  if (!remove_done.ok()) return remove_done.status();
  SMETER_RETURN_IF_ERROR(CheckNoStrayFlags(flags));
  if (*concurrency < 1) {
    return InvalidArgumentError("--concurrency must be >= 1");
  }

  client::UploaderOptions options;
  SMETER_RETURN_IF_ERROR(
      net::ParseListenAddress(*connect, &options.host, &options.port));
  options.auth_token = auth_token;
  options.max_attempts = static_cast<int>(*attempts);
  options.io_timeout_ms = *io_timeout;
  options.remove_done = *remove_done;

  Result<client::UplinkReport> report = client::DrainSpoolDir(
      options, *spool_dir, static_cast<size_t>(*concurrency));
  if (!report.ok()) return report.status();
  out << report->ToJson() << "\n";
  // A spool that did not land after all retries is a graded failure: the
  // data is still safe on disk, so the caller should rerun uplink.
  if (report->failed > 0) *exit_code = 1;
  return Status::Ok();
}

Status CmdStoreBuild(const Flags& flags, std::ostream& out) {
  Result<std::string> archive = flags.Get("archive");
  if (!archive.ok()) return archive.status();
  Result<std::string> store = flags.Get("store");
  if (!store.ok()) return store.status();
  Result<int64_t> partition = flags.GetInt("partition-seconds", kSecondsPerDay);
  if (!partition.ok()) return partition.status();
  Result<int64_t> slots = flags.GetInt("max-block-slots", 4096);
  if (!slots.ok()) return slots.status();
  SMETER_RETURN_IF_ERROR(CheckNoStrayFlags(flags));

  StoreBuildOptions options;
  options.partition_seconds = *partition;
  options.max_block_slots = static_cast<size_t>(*slots);
  Result<StoreBuildReport> report =
      BuildArchiveStore(*archive, *store, options);
  if (!report.ok()) return report.status();
  out << "{\n"
      << "  \"meters\": " << report->meters << ",\n"
      << "  \"meters_skipped\": " << report->meters_skipped << ",\n"
      << "  \"partitions\": " << report->partitions << ",\n"
      << "  \"segments_written\": " << report->segments_written << ",\n"
      << "  \"segment_bytes\": " << report->segment_bytes << "\n"
      << "}\n";
  return Status::Ok();
}

Status CmdStoreRollup(const Flags& flags, std::ostream& out) {
  Result<std::string> store = flags.Get("store");
  if (!store.ok()) return store.status();
  SMETER_RETURN_IF_ERROR(CheckNoStrayFlags(flags));
  Result<size_t> partitions = RebuildRollups(*store);
  if (!partitions.ok()) return partitions.status();
  out << "rebuilt rollups in " << *partitions << " partition(s)\n";
  return Status::Ok();
}

Status CmdStoreRetain(const Flags& flags, std::ostream& out) {
  Result<std::string> store = flags.Get("store");
  if (!store.ok()) return store.status();
  Result<int64_t> cutoff = flags.GetInt("cutoff", 0);
  if (!cutoff.ok()) return cutoff.status();
  SMETER_RETURN_IF_ERROR(CheckNoStrayFlags(flags));
  Result<size_t> dropped = DropPartitionsBefore(*store, *cutoff);
  if (!dropped.ok()) return dropped.status();
  out << "dropped " << *dropped << " partition(s) ending at or before "
      << *cutoff << "\n";
  return Status::Ok();
}

// The running query daemon, for the signal handlers (same discipline as
// g_ingest_server: written before signals install, async-signal-safe
// entry points only).
net::QueryServer* g_query_server = nullptr;

void HandleQueryDrainSignal(int) {
  if (g_query_server != nullptr) g_query_server->RequestDrain();
}

void HandleQueryStatsSignal(int) {
  if (g_query_server != nullptr) g_query_server->RequestStatsDump();
}

Status CmdQueryd(const Flags& flags, std::ostream& out) {
  Result<std::string> listen = flags.Get("listen");
  if (!listen.ok()) return listen.status();
  Result<std::string> store = flags.Get("store");
  if (!store.ok()) return store.status();
  std::string current_dir = flags.GetOr("current-dir", "");
  std::string auth_token = flags.GetOr("auth-token", "");
  Result<int64_t> idle = flags.GetInt("idle-timeout-ms", 30'000);
  if (!idle.ok()) return idle.status();
  Result<int64_t> grace = flags.GetInt("drain-grace-ms", 5'000);
  if (!grace.ok()) return grace.status();
  Result<int64_t> exit_after = flags.GetInt("exit-after-queries", 0);
  if (!exit_after.ok()) return exit_after.status();
  Result<int64_t> watermark = flags.GetInt("high-watermark", 1 << 20);
  if (!watermark.ok()) return watermark.status();
  Result<int64_t> max_conns = flags.GetInt("max-connections", 0);
  if (!max_conns.ok()) return max_conns.status();
  Result<int64_t> memory_budget = flags.GetInt("memory-budget", 0);
  if (!memory_budget.ok()) return memory_budget.status();
  Result<int64_t> throttle_retry = flags.GetInt("throttle-retry-ms", 250);
  if (!throttle_retry.ok()) return throttle_retry.status();
  Result<int64_t> max_scan = flags.GetInt(
      "max-scan-symbols", static_cast<int64_t>(net::kMaxWireRangeSymbols));
  if (!max_scan.ok()) return max_scan.status();
  SMETER_RETURN_IF_ERROR(CheckNoStrayFlags(flags));
  if (*exit_after < 0) {
    return InvalidArgumentError("--exit-after-queries must be >= 0");
  }
  if (*watermark <= 0) {
    return InvalidArgumentError("--high-watermark must be > 0");
  }
  if (*max_scan < 1 ||
      *max_scan > static_cast<int64_t>(net::kMaxWireRangeSymbols)) {
    return InvalidArgumentError(
        "--max-scan-symbols must be in [1, " +
        std::to_string(net::kMaxWireRangeSymbols) + "]");
  }
  if (*throttle_retry < 0 || *throttle_retry > 3'600'000) {
    return InvalidArgumentError("--throttle-retry-ms must be in [0, 3600000]");
  }

  net::QueryServerOptions options;
  SMETER_RETURN_IF_ERROR(
      net::ParseListenAddress(*listen, &options.host, &options.port));
  options.store_dir = *store;
  options.current_dir = current_dir;
  options.auth_token = auth_token;
  options.idle_timeout_ms = *idle;
  options.drain_grace_ms = *grace;
  options.exit_after_queries = static_cast<uint64_t>(*exit_after);
  options.high_watermark = static_cast<size_t>(*watermark);
  options.max_connections = static_cast<int>(*max_conns);
  options.memory_budget = static_cast<size_t>(*memory_budget);
  options.throttle_retry_ms = static_cast<uint32_t>(*throttle_retry);
  options.max_scan_symbols = static_cast<uint32_t>(*max_scan);

  Result<std::unique_ptr<net::QueryServer>> server =
      net::QueryServer::Create(std::move(options));
  if (!server.ok()) return server.status();

  out << "queryd listening on " << (*server)->port() << ", store " << *store
      << "\n"
      << std::flush;

  g_query_server = server->get();
  struct sigaction action{};
  action.sa_handler = HandleQueryDrainSignal;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
  action.sa_handler = HandleQueryStatsSignal;
  sigaction(SIGUSR1, &action, nullptr);

  Status status = (*server)->Run();
  g_query_server = nullptr;
  ScopedThreadRole owner((*server)->role());
  out << (*server)->counters().ToJson() << "\n";
  return status;
}

// Prints a symbol list with GAPs spelled out.
void PrintSymbols(const std::vector<uint16_t>& symbols, std::ostream& out) {
  out << "[";
  for (size_t i = 0; i < symbols.size(); ++i) {
    if (i > 0) out << ", ";
    if (symbols[i] == net::kWireGapSymbol) {
      out << "null";
    } else {
      out << symbols[i];
    }
  }
  out << "]";
}

Status CmdQuery(const Flags& flags, std::ostream& out, int* exit_code) {
  Result<std::string> connect = flags.Get("connect");
  if (!connect.ok()) return connect.status();
  Result<std::string> op = flags.Get("op");
  if (!op.ok()) return op.status();
  std::string auth_token = flags.GetOr("auth-token", "");
  Result<int64_t> timeout = flags.GetInt("timeout-ms", 5'000);
  if (!timeout.ok()) return timeout.status();

  net::QueryClientOptions options;
  SMETER_RETURN_IF_ERROR(
      net::ParseListenAddress(*connect, &options.host, &options.port));
  options.auth_token = auth_token;
  options.timeout_ms = *timeout;

  if (*op == "point") {
    Result<std::string> meter = flags.Get("meter");
    if (!meter.ok()) return meter.status();
    SMETER_RETURN_IF_ERROR(CheckNoStrayFlags(flags));
    Result<std::unique_ptr<net::QueryClient>> client =
        net::QueryClient::Connect(std::move(options));
    if (!client.ok()) return client.status();
    Result<net::PointResultPayload> result = (*client)->Point(*meter);
    if (!result.ok()) return result.status();
    if (result->status != net::WireStatus::kOk) {
      out << "{ \"status\": \"" << net::WireStatusName(result->status)
          << "\", \"message\": \"" << result->message << "\" }\n";
      *exit_code = result->status == net::WireStatus::kNotFound ? 4 : 1;
      return Status::Ok();
    }
    out << "{ \"timestamp\": " << result->timestamp
        << ", \"level\": " << static_cast<int>(result->level)
        << ", \"symbol\": ";
    if (result->symbol == net::kWireGapSymbol) {
      out << "null";
    } else {
      out << result->symbol;
    }
    out << " }\n";
    return Status::Ok();
  }

  Result<int64_t> start = flags.GetInt("start", 0);
  if (!start.ok()) return start.status();
  Result<int64_t> end = flags.GetInt("end", 0);
  if (!end.ok()) return end.status();
  Result<int64_t> level = flags.GetInt("level", 0);
  if (!level.ok()) return level.status();

  if (*op == "range") {
    Result<std::string> meter = flags.Get("meter");
    if (!meter.ok()) return meter.status();
    Result<int64_t> max_symbols = flags.GetInt("max-symbols", 1 << 16);
    if (!max_symbols.ok()) return max_symbols.status();
    SMETER_RETURN_IF_ERROR(CheckNoStrayFlags(flags));
    Result<std::unique_ptr<net::QueryClient>> client =
        net::QueryClient::Connect(std::move(options));
    if (!client.ok()) return client.status();
    Result<net::RangeResultPayload> result =
        (*client)->Range(*meter, {*start, *end}, static_cast<int>(*level),
                         static_cast<uint32_t>(*max_symbols));
    if (!result.ok()) return result.status();
    if (result->status != net::WireStatus::kOk) {
      out << "{ \"status\": \"" << net::WireStatusName(result->status)
          << "\", \"message\": \"" << result->message << "\" }\n";
      *exit_code = result->status == net::WireStatus::kNotFound ? 4 : 1;
      return Status::Ok();
    }
    out << "{ \"start\": " << result->start_timestamp
        << ", \"step\": " << result->step_seconds
        << ", \"level\": " << static_cast<int>(result->level)
        << ", \"truncated\": " << (result->truncated != 0 ? "true" : "false")
        << ", \"symbols\": ";
    PrintSymbols(result->symbols, out);
    out << " }\n";
    return Status::Ok();
  }

  if (*op == "aggregate") {
    SMETER_RETURN_IF_ERROR(CheckNoStrayFlags(flags));
    Result<std::unique_ptr<net::QueryClient>> client =
        net::QueryClient::Connect(std::move(options));
    if (!client.ok()) return client.status();
    Result<net::AggregateResultPayload> result = (*client)->Aggregate(
        {*start, *end}, static_cast<int>(*level == 0 ? 1 : *level));
    if (!result.ok()) return result.status();
    if (result->status != net::WireStatus::kOk) {
      out << "{ \"status\": \"" << net::WireStatusName(result->status)
          << "\", \"message\": \"" << result->message << "\" }\n";
      *exit_code = result->status == net::WireStatus::kNotFound ? 4 : 1;
      return Status::Ok();
    }
    out << "{ \"level\": " << static_cast<int>(result->level)
        << ", \"meters\": " << result->meters
        << ", \"meters_coarser\": " << result->meters_coarser
        << ", \"windows\": " << result->windows
        << ", \"gaps\": " << result->gaps
        << ", \"rollup_partitions\": " << result->rollup_partitions
        << ", \"scanned_partitions\": " << result->scanned_partitions
        << ", \"histogram\": [";
    for (size_t i = 0; i < result->histogram.size(); ++i) {
      if (i > 0) out << ", ";
      out << result->histogram[i];
    }
    out << "] }\n";
    return Status::Ok();
  }

  return InvalidArgumentError("unknown --op '" + *op +
                              "' (expected point|range|aggregate)");
}

// Dispatches one subcommand. `exit_code` is the fsck(8)-style process code
// for commands that grade their findings (only fsck today); commands that
// either succeed or fail leave it at 0 and speak through the Status.
Status RunCliWithCode(const std::vector<std::string>& args,
                      std::ostream& out, int* exit_code) {
  *exit_code = 0;
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    out << UsageText();
    return Status::Ok();
  }
  const std::string& command = args[0];
  Result<Flags> flags =
      Flags::Parse(std::vector<std::string>(args.begin() + 1, args.end()));
  if (!flags.ok()) return flags.status();

  if (command == "simulate") return CmdSimulate(*flags, out);
  if (command == "stats") return CmdStats(*flags, out);
  if (command == "learn-table") return CmdLearnTable(*flags, out);
  if (command == "encode") return CmdEncode(*flags, out);
  if (command == "encode-fleet") return CmdEncodeFleet(*flags, out);
  if (command == "decode") return CmdDecode(*flags, out);
  if (command == "info") return CmdInfo(*flags, out);
  if (command == "fsck") return CmdFsck(*flags, out, exit_code);
  if (command == "ingestd") return CmdIngestd(*flags, out);
  if (command == "loadgen") return CmdLoadgen(*flags, out, exit_code);
  if (command == "uplink") return CmdUplink(*flags, out, exit_code);
  if (command == "store-build") return CmdStoreBuild(*flags, out);
  if (command == "store-rollup") return CmdStoreRollup(*flags, out);
  if (command == "store-retain") return CmdStoreRetain(*flags, out);
  if (command == "queryd") return CmdQueryd(*flags, out);
  if (command == "query") return CmdQuery(*flags, out, exit_code);
  return InvalidArgumentError("unknown command '" + command +
                              "'; run `smeter help`");
}

// True for errors where the fix is reading the usage text: an unknown
// subcommand, an unknown/stray flag, or malformed flag syntax.
bool IsUsageError(const Status& status) {
  const std::string& message = status.message();
  return message.find("unknown command") != std::string::npos ||
         message.find("unknown flag(s)") != std::string::npos ||
         message.find("unexpected positional argument") !=
             std::string::npos ||
         message.find("needs a value") != std::string::npos ||
         message.find("duplicate flag") != std::string::npos;
}

}  // namespace

Result<Flags> Flags::Parse(const std::vector<std::string>& args) {
  Flags flags;
  for (size_t i = 0; i < args.size(); ++i) {
    if (!StartsWith(args[i], "--")) {
      return InvalidArgumentError("unexpected positional argument '" +
                                  args[i] + "'");
    }
    if (i + 1 >= args.size()) {
      return InvalidArgumentError("flag " + args[i] + " needs a value");
    }
    std::string name = args[i].substr(2);
    if (flags.values_.count(name) > 0) {
      return InvalidArgumentError("duplicate flag --" + name);
    }
    flags.values_[name] = args[i + 1];
    ++i;
  }
  return flags;
}

bool Flags::Has(const std::string& name) const {
  read_[name] = true;
  return values_.count(name) > 0;
}

Result<std::string> Flags::Get(const std::string& name) const {
  read_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) {
    return InvalidArgumentError("missing required flag --" + name);
  }
  return it->second;
}

std::string Flags::GetOr(const std::string& name,
                         const std::string& fallback) const {
  read_[name] = true;
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

Result<int64_t> Flags::GetInt(const std::string& name,
                              int64_t fallback) const {
  read_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return ParseInt(it->second);
}

Result<double> Flags::GetDouble(const std::string& name,
                                double fallback) const {
  read_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return ParseDouble(it->second);
}

Result<bool> Flags::GetBool(const std::string& name, bool fallback) const {
  read_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  if (it->second == "true" || it->second == "1") return true;
  if (it->second == "false" || it->second == "0") return false;
  return InvalidArgumentError("flag --" + name +
                              " expects true|false, got '" + it->second +
                              "'");
}

std::vector<std::string> Flags::UnreadFlags() const {
  std::vector<std::string> stray;
  for (const auto& [name, value] : values_) {
    auto it = read_.find(name);
    if (it == read_.end() || !it->second) stray.push_back(name);
  }
  return stray;
}

std::string UsageText() {
  return
      "smeter <command> [--flag value]...\n"
      "\n"
      "commands:\n"
      "  simulate     --out DIR [--houses 6] [--days 7] [--seed 42]\n"
      "               [--format redd|cer] [--outages 0.4]\n"
      "  stats        --input FILE [--format redd|cer] [--meter ID]\n"
      "  learn-table  --input FILE --out TABLE [--method median]\n"
      "               [--level 4] [--history-seconds 0] [--format redd|cer]\n"
      "  encode       --input FILE --table TABLE --out SYMBOLS\n"
      "               [--window 900] [--sample-period 1] [--format redd|cer]\n"
      "               [--framed false]   (true = checksummed v3 wire format\n"
      "               with per-block CRC32C and salvage sync markers)\n"
      "  encode-fleet --input DIR|FILE --out DIR [--format redd|cer]\n"
      "               [--method median] [--level 4] [--window 900]\n"
      "               [--sample-period 1] [--history-seconds 0]\n"
      "               [--threads 0]   (0 = one per hardware thread)\n"
      "               [--gap-aware true] [--max-retries 2]\n"
      "               [--retry-backoff-ms 100] [--resume false]\n"
      "               a failing household is retried, then quarantined\n"
      "               (run still exits 0; see <out>/quality.json);\n"
      "               --resume true skips households already recorded in\n"
      "               <out>/fleet.manifest from an interrupted run\n"
      "  decode       --input SYMBOLS --table TABLE [--mode mean|center]\n"
      "  info         --input FILE\n"
      "  fsck         --dir DIR [--repair false] [--report PATH]\n"
      "               verify every checksum in a fleet archive (symbol\n"
      "               blobs, tables, manifest, client .spool files) and\n"
      "               cross-check the manifest against the files on disk;\n"
      "               prints a JSON report.\n"
      "               --repair true quarantines damaged files (<f>.corrupt),\n"
      "               drops their manifest records, truncates torn appends,\n"
      "               and removes stray .tmp files — then run\n"
      "               `encode-fleet --resume true` to re-encode the rest.\n"
      "               exit codes: 0 clean, 1 repaired, 4 unrepaired\n"
      "  ingestd      --listen HOST:PORT --dir ARCHIVE [--resume false]\n"
      "               [--threads 1] [--auth-token T]\n"
      "               [--idle-timeout-ms 30000] [--drain-grace-ms 5000]\n"
      "               [--exit-after-households 0]\n"
      "               [--high-watermark 1048576]\n"
      "               [--max-connections 0] [--max-connections-per-shard 0]\n"
      "               [--memory-budget 0] [--rate-limit 0]\n"
      "               [--write-stall-ms 0] [--throttle-retry-ms 250]\n"
      "               [--sndbuf-bytes 0] [--probe-interval-ms 200]\n"
      "               non-blocking epoll ingestion daemon speaking the\n"
      "               symbolic wire protocol; completed sessions land in\n"
      "               the same v3 archive layout encode-fleet writes.\n"
      "               --threads N runs N per-core epoll shards, each with\n"
      "               its own SO_REUSEPORT listener; connections are pinned\n"
      "               to shards by meter-id hash, and the drained archive\n"
      "               is byte-identical to a --threads 1 run (where\n"
      "               SO_REUSEPORT is unavailable, one listener deals\n"
      "               connections round-robin instead).\n"
      "               --exit-after-households N drains once N distinct\n"
      "               meters complete a session in this run (carried\n"
      "               --resume records count only when re-acknowledged).\n"
      "               SIGTERM/SIGINT drain gracefully; SIGUSR1 dumps one\n"
      "               aggregated per-shard counters JSON to stderr.\n"
      "               overload protection (each knob 0 = off):\n"
      "               --max-connections caps concurrent connections across\n"
      "               all shards (excess accepts are shed with a THROTTLE);\n"
      "               --memory-budget caps total buffered ingest bytes;\n"
      "               --rate-limit caps per-meter sessions/sec (token\n"
      "               bucket); --write-stall-ms drops peers that stop\n"
      "               draining acks; a full disk (ENOSPC) pauses persists\n"
      "               and withholds acks until a space probe (every\n"
      "               --probe-interval-ms) succeeds\n"
      "  loadgen      --connect HOST:PORT [--meters 10] [--input CER_FILE]\n"
      "               [--concurrency 8] [--connections 0]\n"
      "               [--batch-symbols 512] [--rate 0]\n"
      "               [--max-attempts 5] [--auth-token T]\n"
      "               [--method median] [--level 4] [--window 900]\n"
      "               [--sample-period 1] [--history-seconds 0]\n"
      "               [--gap-aware true] [--days 1] [--gen-period 60]\n"
      "               [--seed 42] [--outages 0.4]\n"
      "               replay a simulated (or CER) meter fleet against a\n"
      "               running ingestd over real sockets; exits 1 if any\n"
      "               meter failed to land.\n"
      "               --connections N multiplexes the fleet over N\n"
      "               persistent TCP connections (meter i rides connection\n"
      "               i % N, sessions back-to-back on one socket) instead\n"
      "               of one connection per meter\n"
      "               --spool-dir DIR stages every batch in a crash-safe\n"
      "               on-disk spool first and drains it through the client\n"
      "               SDK: a killed run resumes where it stopped, and a\n"
      "               rerun against the same dir re-sends nothing that\n"
      "               already landed (exactly-once; see also `uplink`)\n"
      "  uplink       --connect HOST:PORT --spool-dir DIR\n"
      "               [--concurrency 1] [--max-attempts 5]\n"
      "               [--io-timeout-ms 10000] [--auth-token T]\n"
      "               [--remove-done false]\n"
      "               drain every *.spool file in DIR into a running\n"
      "               ingestd with retry/backoff (honours THROTTLE\n"
      "               retry-after hints); each delivered spool gets a\n"
      "               durable DONE marker so a rerun skips it, torn spool\n"
      "               tails from a crashed writer are truncated, unsealed\n"
      "               spools are left alone; exits 1 if any spool failed\n"
      "               (safe to rerun).\n"
      "               --remove-done true unlinks each spool once DONE\n"
      "  store-build  --archive DIR --store DIR\n"
      "               [--partition-seconds 86400] [--max-block-slots 4096]\n"
      "               build a time-partitioned query store from a v3 fleet\n"
      "               archive (encode-fleet's or a drained ingestd's): one\n"
      "               p<id>/ directory per partition holding a\n"
      "               segments.pack (every meter's v3 segment behind one\n"
      "               crc-checked directory, written once) and a rollup.tab\n"
      "               of pre-computed per-meter histograms, a crc-checked\n"
      "               store.index, and the hot current.tab of last-known\n"
      "               symbols. Deterministic: rebuilding over the same\n"
      "               archive is byte-identical. A store left by the\n"
      "               older per-meter .seg layout is refused by queryd;\n"
      "               rerunning store-build writes its packs\n"
      "  store-rollup --store DIR\n"
      "               rebuild every partition's rollup.tab from its\n"
      "               segments.pack (after fsck flags stale rollups, or a\n"
      "               killed build); converges to the store-build output\n"
      "  store-retain --store DIR --cutoff TS\n"
      "               drop whole partitions whose window ends at or before\n"
      "               the cutoff timestamp (retention = unlink, no rewrite)\n"
      "  queryd       --listen HOST:PORT --store DIR [--current-dir D]\n"
      "               [--auth-token T] [--idle-timeout-ms 30000]\n"
      "               [--drain-grace-ms 5000] [--exit-after-queries 0]\n"
      "               [--high-watermark 1048576] [--max-connections 0]\n"
      "               [--memory-budget 0] [--throttle-retry-ms 250]\n"
      "               [--max-scan-symbols 1048576]\n"
      "               serve point/range/aggregate queries over a built\n"
      "               store on the same CRC32C framing ingestd speaks.\n"
      "               --current-dir points the hot point-lookup table at a\n"
      "               live ingestd archive for fresh last-known symbols.\n"
      "               SIGTERM/SIGINT drain gracefully; SIGUSR1 dumps the\n"
      "               counters JSON to stderr. overload protection (0 =\n"
      "               off): --max-connections sheds accepts with a\n"
      "               THROTTLE(admission); --memory-budget converts a\n"
      "               reply burst that would exceed the per-connection\n"
      "               buffer into a THROTTLE(memory) and closes;\n"
      "               --max-scan-symbols caps one range scan server-side\n"
      "  query        --connect HOST:PORT --op point|range|aggregate\n"
      "               [--meter M] [--start TS] [--end TS] [--level 0]\n"
      "               [--max-symbols 65536] [--auth-token T]\n"
      "               [--timeout-ms 5000]\n"
      "               one query against a running queryd, result as JSON.\n"
      "               point needs --meter; range needs --meter and the\n"
      "               [--start, --end) window (--level 0 = native, k < n\n"
      "               serves the coarser alphabet by prefix truncation);\n"
      "               aggregate folds the whole fleet's histograms over\n"
      "               the window at --level. exit 4 = no data (not-found),\n"
      "               1 = refused, 0 = served\n"
      "  help\n";
}

Status RunCli(const std::vector<std::string>& args, std::ostream& out) {
  int exit_code = 0;
  Status status = RunCliWithCode(args, out, &exit_code);
  if (status.ok() && exit_code != 0) {
    // Legacy Status-only surface: a graded non-zero result (fsck findings)
    // must not read as success.
    return DataLossError("fsck found issues (exit code " +
                         std::to_string(exit_code) +
                         "); see the JSON report");
  }
  return status;
}

int RunCliExitCode(const std::vector<std::string>& args, std::ostream& out,
                   std::ostream& err) {
  int exit_code = 0;
  Status status = RunCliWithCode(args, out, &exit_code);
  if (!status.ok()) {
    err << "error: " << status.ToString() << "\n";
    // A usage mistake gets the usage text, not just the error: the exit
    // code stays non-zero either way.
    if (IsUsageError(status)) err << "\n" << UsageText();
    return exit_code != 0 ? exit_code : 1;
  }
  return exit_code;
}

}  // namespace smeter::cli
