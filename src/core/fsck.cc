#include "core/fsck.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "common/io.h"
#include "core/archive_store.h"
#include "core/codec.h"
#include "core/fleet_manifest.h"
#include "core/lookup_table.h"

namespace smeter {
namespace {

namespace fs = std::filesystem;

bool EndsWith(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

std::string JsonEscape(const std::string& value) {
  std::string out;
  for (char c : value) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

// Renames a damaged artifact to `<path>.corrupt` so it is out of the
// archive's read path but still available for forensics.
Status QuarantineFile(const std::string& path) {
  std::error_code error;
  fs::rename(path, path + ".corrupt", error);
  if (error) {
    return InternalError("cannot quarantine " + path + ": " +
                         error.message());
  }
  return Status::Ok();
}

Status RemoveFile(const std::string& path) {
  std::error_code error;
  fs::remove(path, error);
  if (error) {
    return InternalError("cannot remove " + path + ": " + error.message());
  }
  return Status::Ok();
}

}  // namespace

Result<FsckReport> FsckArchive(const std::string& dir,
                               const FsckOptions& options) {
  FsckReport report;
  report.dir = dir;
  report.repair_attempted = options.repair;

  std::error_code error;
  if (!fs::is_directory(dir, error) || error) {
    return NotFoundError("not a directory: " + dir);
  }
  std::vector<std::string> names;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, error)) {
    if (entry.is_regular_file()) {
      names.push_back(entry.path().filename().string());
    }
  }
  if (error) {
    return InternalError("cannot walk " + dir + ": " + error.message());
  }
  std::sort(names.begin(), names.end());
  const std::set<std::string> present(names.begin(), names.end());

  auto add_issue = [&](std::string path, std::string kind,
                       std::string detail) -> FsckIssue& {
    FsckIssue issue;
    issue.path = std::move(path);
    issue.kind = std::move(kind);
    issue.detail = std::move(detail);
    report.issues.push_back(std::move(issue));
    return report.issues.back();
  };
  // Runs one repair action and records the outcome on `issue`; a failing
  // repair leaves the issue unrepaired with the failure in `detail`.
  auto repair_with = [&](FsckIssue& issue, const std::string& action,
                         const Status& outcome) {
    if (outcome.ok()) {
      issue.repaired = true;
      issue.action = action;
    } else {
      issue.detail += "; repair failed: " + outcome.message();
    }
  };

  // Households whose artifacts turned out damaged or missing; their
  // manifest records must be dropped so --resume re-encodes them.
  std::set<std::string> dropped_households;

  // --- query-store checks (archive_store.h layout) ---------------------
  // Top-level store files the household loop below must not misread, and
  // that must not make a pure store directory demand a fleet manifest.
  size_t store_files = 0;

  // Checks one append-log-framed store file (store.index,
  // current.tab/.log). Returns the parsed contents when the framing is
  // intact (torn tails included — their valid prefix is usable); damage is
  // reported as `<kind_prefix>_...` issues with truncate/quarantine
  // repairs.
  auto check_append_log =
      [&](const std::string& rel, const std::string& kind_prefix)
      -> std::optional<io::AppendLogContents> {
    const std::string path = dir + "/" + rel;
    ++report.files_checked;
    ++store_files;
    Result<io::AppendLogContents> log = io::ReadAppendLog(path);
    if (!log.ok()) {
      FsckIssue& issue =
          add_issue(rel, "corrupt_" + kind_prefix, log.status().ToString());
      if (options.repair) {
        repair_with(issue, "quarantined", QuarantineFile(path));
      }
      return std::nullopt;
    }
    if (log->corrupt_midfile) {
      FsckIssue& issue =
          add_issue(rel, "corrupt_" + kind_prefix,
                    "record checksum mismatch before the tail");
      if (options.repair) {
        repair_with(issue, "quarantined", QuarantineFile(path));
      }
      return std::nullopt;
    }
    if (log->torn_tail) {
      FsckIssue& issue = add_issue(
          rel, "torn_" + kind_prefix,
          "torn tail after " + std::to_string(log->valid_bytes) +
              " valid bytes (crash mid-append)");
      if (options.repair) {
        repair_with(issue, "truncated",
                    io::TruncateFile(path, log->valid_bytes));
      }
    }
    return std::move(*log);
  };

  if (present.count(kStoreIndexFile) > 0) {
    (void)check_append_log(kStoreIndexFile, "store_index");
  }
  for (const char* current_name : {kCurrentTableFile, kCurrentLogFile}) {
    if (present.count(current_name) > 0) {
      (void)check_append_log(current_name, "current");
    }
  }

  // Partition directories: verify the pack's directory and every segment
  // in it, and hold each directory summary to the segment it describes.
  std::vector<std::pair<int64_t, std::string>> partition_dirs;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, error)) {
    if (!entry.is_directory()) continue;
    int64_t id = 0;
    const std::string name = entry.path().filename().string();
    if (IsPartitionDirName(name, &id)) partition_dirs.emplace_back(id, name);
  }
  std::sort(partition_dirs.begin(), partition_dirs.end());
  for (const auto& [id, pdir] : partition_dirs) {
    ++report.partitions_checked;
    const std::string pack_rel = pdir + "/" + kSegmentPackFile;
    const std::string pack_path = dir + "/" + pack_rel;
    std::error_code pack_error;
    if (!fs::exists(pack_path, pack_error)) {
      // A killed store-build, or a store of the older per-meter .seg
      // layout: the store refuses it until store-build runs again.
      add_issue(pack_rel, "missing_pack",
                "partition has no segment pack; rebuild with store-build");
      continue;
    }
    ++report.files_checked;
    ++store_files;
    Result<std::string> pack = io::ReadFileToString(pack_path);
    Result<std::vector<PackEntry>> entries =
        pack.ok() ? ParseSegmentPack(*pack, pack->size())
                  : Result<std::vector<PackEntry>>(pack.status());
    if (!entries.ok()) {
      if (pack.ok() && IsOlderSegmentPack(*pack)) {
        // A pack an older store-build wrote: intact, just not readable by
        // this one. Left for store-build, like a missing pack.
        add_issue(pack_rel, "missing_pack", entries.status().ToString());
        continue;
      }
      // Without a trusted directory no record can be located: the whole
      // pack goes, and an empty one takes its place so the partition
      // stays readable.
      FsckIssue& issue =
          add_issue(pack_rel, "corrupt_pack", entries.status().ToString());
      if (options.repair) {
        Status quarantined = QuarantineFile(pack_path);
        if (quarantined.ok()) {
          quarantined = io::AtomicWriteFile(pack_path, BuildSegmentPack({}));
        }
        repair_with(issue, "quarantined", quarantined);
      }
      continue;
    }
    // Each record is a whole v3 blob plus its directory summary; a damaged
    // blob, or one its summary misdescribes, is cut out of the pack on
    // repair (record and summary together), its bytes kept beside it for
    // forensics.
    bool partition_clean = true;
    std::vector<PackSegment> kept;
    std::vector<size_t> damaged_issues;
    for (const PackEntry& entry : *entries) {
      PackSegment segment;
      segment.meter = std::string(entry.meter);
      segment.blob.assign(*pack, static_cast<size_t>(entry.offset),
                          static_cast<size_t>(entry.size));
      segment.summary.histogram.assign(size_t{1} << entry.level, 0);
      AddPackSummary(entry, entry.level, &segment.summary);
      // The fold runs the strict v3 parse (and refuses any other version)
      // without building the series, and recomputes the summary.
      SlotCounts folded;
      Status verified = FoldFramedSeries(segment.blob, {INT64_MIN, INT64_MAX},
                                         0, &folded);
      if (verified.ok() && !(folded == segment.summary)) {
        verified = DataLossError(
            "directory summary disagrees with the segment it describes");
      }
      if (verified.ok()) {
        ++report.segments_ok;
        kept.push_back(std::move(segment));
        continue;
      }
      partition_clean = false;
      FsckIssue& issue =
          add_issue(pack_rel, "corrupt_segment",
                    "meter '" + segment.meter + "': " + verified.ToString());
      if (!options.repair) continue;
      const Status quarantined = io::AtomicWriteFile(
          pack_path + "." + segment.meter + ".corrupt", segment.blob);
      repair_with(issue, "quarantined", quarantined);
      if (quarantined.ok()) {
        damaged_issues.push_back(report.issues.size() - 1);
      } else {
        kept.push_back(std::move(segment));  // never drop bytes
      }
    }
    if (!damaged_issues.empty()) {
      const Status rewritten =
          io::AtomicWriteFile(pack_path, BuildSegmentPack(kept));
      if (!rewritten.ok()) {
        for (size_t index : damaged_issues) {
          FsckIssue& issue = report.issues[index];
          issue.repaired = false;
          issue.action.clear();
          issue.detail += "; pack rewrite failed: " + rewritten.message();
        }
      }
    }
    if (partition_clean) ++report.partitions_ok;
  }

  // Spools checked this pass. They are client-side artifacts: a directory
  // of nothing but spools (a client's spool dir fsck'd directly) is not an
  // archive and must not be asked to produce a fleet manifest.
  size_t spool_files = 0;

  for (const std::string& name : names) {
    const std::string path = dir + "/" + name;
    if (EndsWith(name, io::kTmpSuffix)) {
      FsckIssue& issue = add_issue(
          name, "stray_tmp", "leftover scratch file from an interrupted write");
      if (options.repair) repair_with(issue, "removed", RemoveFile(path));
      continue;
    }
    if (EndsWith(name, ".spool")) {
      // Client upload spools parked in the archive dir (or a spool dir
      // fsck'd directly). Triage at the append-log framing level only —
      // record semantics belong to the client SDK, which re-validates on
      // resume. A torn tail is the signature of a crash mid-append: safe
      // to truncate, the client re-spools the lost suffix. Mid-file CRC
      // damage means the file can no longer be trusted as a whole, so it
      // is quarantined like any other corrupt artifact.
      ++report.files_checked;
      ++spool_files;
      Result<io::AppendLogContents> log = io::ReadAppendLog(path);
      if (!log.ok()) {
        FsckIssue& issue =
            add_issue(name, "corrupt_spool", log.status().ToString());
        if (options.repair) {
          repair_with(issue, "quarantined", QuarantineFile(path));
        }
        continue;
      }
      if (log->corrupt_midfile || log->records.empty()) {
        FsckIssue& issue = add_issue(
            name, "corrupt_spool",
            log->corrupt_midfile
                ? "record checksum mismatch before the tail"
                : "no intact records (torn or empty beyond the magic)");
        if (options.repair) {
          repair_with(issue, "quarantined", QuarantineFile(path));
        }
        continue;
      }
      if (log->torn_tail) {
        FsckIssue& issue = add_issue(
            name, "torn_spool",
            "torn tail after " + std::to_string(log->valid_bytes) +
                " valid bytes (crash mid-append)");
        if (options.repair) {
          repair_with(issue, "truncated",
                      io::TruncateFile(path, log->valid_bytes));
        }
        continue;
      }
      ++report.spools_ok;
      continue;
    }
    const bool is_symbols = EndsWith(name, ".symbols");
    const bool is_table = EndsWith(name, ".table");
    if (!is_symbols && !is_table) continue;
    ++report.files_checked;
    const std::string household = name.substr(0, name.rfind('.'));
    Result<std::string> blob = io::ReadFileToString(path);
    Status verified = blob.status();
    if (blob.ok()) {
      if (is_symbols) {
        Result<SymbolicSeries> series = UnpackSymbolicSeries(*blob);
        verified = series.ok() ? Status::Ok() : series.status();
      } else {
        Result<LookupTable> table = LookupTable::Deserialize(*blob);
        verified = table.ok() ? Status::Ok() : table.status();
      }
    }
    if (verified.ok()) {
      if (is_symbols) {
        ++report.symbols_ok;
      } else {
        ++report.tables_ok;
      }
      continue;
    }
    FsckIssue& issue =
        add_issue(name, is_symbols ? "corrupt_symbols" : "corrupt_table",
                  verified.ToString());
    dropped_households.insert(household);
    if (options.repair) {
      repair_with(issue, "quarantined", QuarantineFile(path));
    }
  }

  // The manifest: framing, record CRCs, and the cross-check that every
  // ok/degraded record still has its artifacts on disk.
  const std::string manifest_path =
      dir + "/" + std::string(kFleetManifestFile);
  ManifestContents manifest;
  bool manifest_unusable = false;
  if (present.count(kFleetManifestFile) > 0) {
    ++report.files_checked;
    Result<ManifestContents> loaded = LoadFleetManifest(manifest_path);
    if (!loaded.ok()) {
      manifest_unusable = true;
      FsckIssue& issue = add_issue(kFleetManifestFile, "invalid_manifest",
                                   loaded.status().ToString());
      if (options.repair) {
        repair_with(issue, "rewritten",
                    io::AtomicWriteFile(manifest_path, BuildManifestLog({})));
      }
    } else {
      manifest = std::move(*loaded);
      report.manifest_records = manifest.reports.size();
    }
  } else if (report.files_checked > spool_files + store_files) {
    // Artifacts with no checkpoint at all: resume cannot skip anything.
    FsckIssue& issue =
        add_issue(kFleetManifestFile, "missing_artifact",
                  "archive has artifacts but no manifest");
    manifest_unusable = true;
    if (options.repair) {
      repair_with(issue, "rewritten",
                  io::AtomicWriteFile(manifest_path, BuildManifestLog({})));
    }
  }

  // Leftover per-shard checkpoint logs (fleet.manifest.shard<k>): a
  // sharded ingest daemon was killed before Finalize could union them into
  // the main manifest. Their valid records are merged here (main manifest
  // wins on duplicates) so --repair leaves one authoritative manifest and
  // removes the logs — the same union ArchiveSink::Open(resume) performs.
  std::vector<std::string> shard_logs;
  {
    const std::string shard_prefix =
        std::string(kFleetManifestFile) + ".shard";
    for (const std::string& name : names) {
      if (name.rfind(shard_prefix, 0) == 0) shard_logs.push_back(name);
    }
  }
  std::vector<size_t> shard_issue_index;

  if (!manifest_unusable && !manifest.missing) {
    std::set<std::string> known;
    for (const HouseholdReport& record : manifest.reports) {
      known.insert(record.name);
    }
    for (const std::string& name : shard_logs) {
      ++report.files_checked;
      Result<ManifestContents> contents = LoadFleetManifest(dir + "/" + name);
      size_t merged = 0;
      std::string detail =
          "leftover per-shard checkpoint log from an interrupted sharded "
          "run";
      if (contents.ok()) {
        // Torn/corrupt shard logs contribute their valid prefix, same as
        // the main manifest's resume policy.
        for (const HouseholdReport& record : contents->reports) {
          if (record.outcome == HouseholdOutcome::kQuarantined) continue;
          if (!known.insert(record.name).second) continue;
          manifest.reports.push_back(record);
          ++merged;
        }
        detail += "; " + std::to_string(merged) + " record(s) to merge";
      } else {
        detail += "; unreadable: " + contents.status().message();
      }
      add_issue(name, "shard_manifest", std::move(detail));
      shard_issue_index.push_back(report.issues.size() - 1);
    }
    report.manifest_records = manifest.reports.size();

    for (const HouseholdReport& record : manifest.reports) {
      if (record.outcome == HouseholdOutcome::kQuarantined) continue;
      if (dropped_households.count(record.name) > 0) continue;
      for (const std::string& suffix : {std::string(".table"),
                                        std::string(".symbols")}) {
        if (present.count(record.name + suffix) > 0) continue;
        FsckIssue& issue = add_issue(
            record.name + suffix, "missing_artifact",
            "manifest lists household '" + record.name +
                "' as finished but the file is gone");
        dropped_households.insert(record.name);
        if (options.repair) {
          // The drop itself happens in the manifest rewrite below; record
          // the intent here so the issue reads as handled.
          issue.repaired = true;
          issue.action = "dropped_record";
        }
      }
    }

    FsckIssue* damage_issue = nullptr;
    if (manifest.corrupt_midfile) {
      damage_issue = &add_issue(
          kFleetManifestFile, "corrupt_manifest",
          "record failed its checksum before end-of-file; records after "
          "the damage are untrusted");
    } else if (manifest.torn_tail) {
      damage_issue = &add_issue(
          kFleetManifestFile, "torn_manifest",
          "partial trailing record (interrupted append)");
    }

    if (options.repair) {
      const bool drop_records = !dropped_households.empty();
      const bool merge_shards = !shard_logs.empty();
      if (manifest.corrupt_midfile || drop_records || merge_shards) {
        // Rewrite the log from the surviving records; --resume re-encodes
        // everything that no longer has a trustworthy checkpoint.
        std::vector<HouseholdReport> kept;
        for (const HouseholdReport& record : manifest.reports) {
          if (dropped_households.count(record.name) > 0) continue;
          kept.push_back(record);
        }
        Status rewritten =
            io::AtomicWriteFile(manifest_path, BuildManifestLog(kept));
        if (damage_issue != nullptr) {
          repair_with(*damage_issue, "rewritten", rewritten);
        }
        for (size_t index : shard_issue_index) {
          // A shard log counts as merged only once the unioned manifest is
          // durable and the log is gone.
          FsckIssue& issue = report.issues[index];
          if (rewritten.ok()) {
            repair_with(issue, "merged", RemoveFile(dir + "/" + issue.path));
          } else {
            issue.detail += "; manifest rewrite failed";
          }
        }
        if (!rewritten.ok()) {
          // The dropped_record issues above claimed success; retract.
          for (FsckIssue& issue : report.issues) {
            if (issue.action == "dropped_record") {
              issue.repaired = false;
              issue.action = "";
              issue.detail += "; manifest rewrite failed";
            }
          }
        }
      } else if (manifest.torn_tail) {
        repair_with(*damage_issue, "truncated",
                    io::TruncateFile(manifest_path, manifest.valid_bytes));
      }
    }
  }

  return report;
}

std::string FsckReportToJson(const FsckReport& report) {
  std::string out = "{\"dir\":\"" + JsonEscape(report.dir) + "\"";
  out += ",\"clean\":" + std::string(report.clean() ? "true" : "false");
  out += ",\"files_checked\":" + std::to_string(report.files_checked);
  out += ",\"symbols_ok\":" + std::to_string(report.symbols_ok);
  out += ",\"tables_ok\":" + std::to_string(report.tables_ok);
  out += ",\"spools_ok\":" + std::to_string(report.spools_ok);
  out += ",\"manifest_records\":" + std::to_string(report.manifest_records);
  out += ",\"partitions_checked\":" +
         std::to_string(report.partitions_checked);
  out += ",\"partitions_ok\":" + std::to_string(report.partitions_ok);
  out += ",\"segments_ok\":" + std::to_string(report.segments_ok);
  out += ",\"repair_attempted\":" +
         std::string(report.repair_attempted ? "true" : "false");
  out += ",\"exit_code\":" + std::to_string(FsckExitCode(report));
  out += ",\"issues\":[";
  for (size_t i = 0; i < report.issues.size(); ++i) {
    const FsckIssue& issue = report.issues[i];
    if (i > 0) out += ",";
    out += "{\"path\":\"" + JsonEscape(issue.path) + "\"";
    out += ",\"kind\":\"" + JsonEscape(issue.kind) + "\"";
    out += ",\"detail\":\"" + JsonEscape(issue.detail) + "\"";
    out += ",\"repaired\":" + std::string(issue.repaired ? "true" : "false");
    out += ",\"action\":\"" + JsonEscape(issue.action) + "\"}";
  }
  out += "]}\n";
  return out;
}

int FsckExitCode(const FsckReport& report) {
  if (report.issues.empty()) return 0;
  for (const FsckIssue& issue : report.issues) {
    if (!issue.repaired) return 4;
  }
  return 1;
}

}  // namespace smeter
