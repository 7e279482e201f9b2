// Integrity checker for a fleet archive directory (`smeter fsck`).
//
// Walks one encode-fleet output directory and verifies every artifact the
// durable-storage layer protects:
//
//   fleet.manifest   append-log framing and per-record CRC32C; torn tails
//                    (crash signature) and mid-file corruption are distinct
//   *.symbols        wire-format parse including v3 header/block checksums
//   *.table          lookup-table parse including the v2 crc32c footer
//   *.spool          client upload spools: append-log framing and record
//                    CRC32C (torn tails are truncated, mid-file damage is
//                    quarantined; record semantics stay with the client SDK)
//   *.tmp            stray scratch files from an interrupted AtomicWriteFile
//   cross-check      every ok/degraded manifest record must have its
//                    .table and .symbols on disk
//
// Query-store awareness (archive_store.h layouts, `smeter store-build`):
//
//   store.index      append-log framing and per-record CRC32C; torn tails
//                    are truncated, mid-file damage quarantined (a
//                    store-build rebuilds the index)
//   p<id>/segments.pack
//                    the partition's segment pack: directory CRC and
//                    layout, then a full v3 parse of every record, whose
//                    fold must equal the record's directory summary
//                    (windows, gaps, native-level histogram). A damaged
//                    or misdescribed record (corrupt_segment, naming the
//                    meter) is cut out on repair, record and summary
//                    together: its bytes go to
//                    segments.pack.<meter>.corrupt and the pack is
//                    rewritten without it. A pack whose directory cannot
//                    be trusted (corrupt_pack) is quarantined whole and
//                    replaced by an empty one. A partition with no pack,
//                    or a pack of an older layout (missing_pack: a killed
//                    build, the per-meter .seg files, or a pack without
//                    directory summaries) is left for `store-build`
//   current.tab/.log hot current-table logs (also written by a live
//                    ingestd): framing checks, torn tails truncated,
//                    damage quarantined
//
// In repair mode the fixes are deliberately conservative: quarantine a
// damaged artifact (rename to <file>.corrupt), drop its manifest record,
// truncate a torn manifest tail, rewrite a damaged manifest from its valid
// records, delete stray tmp files. Repair never fabricates data — the
// dropped households are simply re-encoded by `encode-fleet --resume`, so
// repair + resume converges to the archive a clean run would have written.
//
// Exit codes follow fsck(8) conventions:
//   0  clean
//   1  problems found and repaired (run `encode-fleet --resume` next)
//   4  problems found and left unrepaired (or unrepairable)

#ifndef SMETER_CORE_FSCK_H_
#define SMETER_CORE_FSCK_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace smeter {

struct FsckOptions {
  // Fix what can be fixed (quarantine, truncate, rewrite, delete) instead
  // of only reporting.
  bool repair = false;
};

struct FsckIssue {
  std::string path;  // file name relative to the archive directory
  // One of: corrupt_symbols, corrupt_table, torn_manifest,
  // corrupt_manifest, invalid_manifest, missing_artifact, stray_tmp,
  // torn_spool, corrupt_spool, corrupt_pack, missing_pack,
  // corrupt_segment, torn_store_index, corrupt_store_index, torn_current,
  // corrupt_current.
  std::string kind;
  std::string detail;    // human-readable specifics (e.g. which block)
  bool repaired = false;
  std::string action;    // what repair did: quarantined, truncated,
                         // rewritten, removed, dropped_record; empty if
                         // nothing was done
};

struct FsckReport {
  std::string dir;
  size_t files_checked = 0;
  size_t symbols_ok = 0;
  size_t tables_ok = 0;
  size_t spools_ok = 0;
  size_t manifest_records = 0;
  // Query-store findings: a partition is ok when its pack and every
  // segment in it verified against its directory summary.
  size_t partitions_checked = 0;
  size_t partitions_ok = 0;
  size_t segments_ok = 0;
  bool repair_attempted = false;
  std::vector<FsckIssue> issues;

  bool clean() const { return issues.empty(); }
};

// Checks (and with options.repair, repairs) the archive at `dir`. Errors
// only when the directory itself cannot be walked or a repair action
// fails; integrity findings are returned in the report, not as errors.
Result<FsckReport> FsckArchive(const std::string& dir,
                               const FsckOptions& options);

// Machine-readable JSON rendering of a report (single object, stable key
// order, newline-terminated).
std::string FsckReportToJson(const FsckReport& report);

// fsck(8)-style process exit code for `report` (see file comment).
int FsckExitCode(const FsckReport& report);

}  // namespace smeter

#endif  // SMETER_CORE_FSCK_H_
