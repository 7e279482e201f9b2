#!/usr/bin/env bash
# Builds the release preset and runs the parallel micro-benchmarks,
# leaving google-benchmark's JSON report in BENCH_micro.json at the repo
# root. Usage: bench/run_bench.sh [extra benchmark args...]
#
# The acceptance numbers to look for:
#   BM_EncodeBatch vs BM_EncodeScalar  -- SoA kernel speedup (single thread)
#   BM_FleetEncode/1..8                -- household sharding across the pool
#   BM_ForestTrain/0 vs /2 /4         -- serial vs pooled forest training
#                                        (both in real time: pooled work
#                                        runs off the timing thread)
#   BM_LoadReddChannel                -- bytes/s of the streaming REDD
#                                        channel loader over a 1-day file
#   BM_Crc32c vs BM_Crc32cSoftware    -- hardware CRC32C dispatch speedup
#   BM_PackFramed vs BM_PackLegacy    -- checksummed v3 write cost; its
#                                        wire_overhead_pct counter is the
#                                        v3 size premium over the v1 blob
#   BM_SessionIngest                  -- symbols/s through the full wire
#                                        protocol state machine (the
#                                        single-connection ingest ceiling)
#   BM_StoreAggregate/meters:N/edges:0 vs edges:1
#                                     -- fleet aggregate served from rollup
#                                        rows alone (partition-aligned
#                                        window) vs with edge-partition
#                                        pack folds; the gap is what the
#                                        pre-computed rollups buy
#
# End-to-end numbers through the daemons (ingestd uploads, queryd
# point/range/aggregate latency) come from perfbench/run.py, not from
# these kernels.
#
# Query-bench methodology: each store benchmark runs against a synthetic
# fixture store (N meters x 3 daily partitions of level-8 symbols at
# 30-minute cadence, deterministic LCG data, built once per process via
# BuildArchiveStore), so numbers are comparable run to run. On
# single-core hosts the thread-count sweeps collapse to serial
# throughput; the per-sample kernel speedup is machine-independent.
#
# The report is refused unless the smeter code under test was built in
# release mode (NDEBUG): debug-build numbers are garbage. The check reads
# the "smeter_build_type" context key each bench binary embeds at compile
# time, so it cannot drift from what actually ran. (google-benchmark's own
# "library_build_type" is NOT used: Debian ships an assert-enabled
# libbenchmark, so that field reads "debug" even when every timed smeter
# kernel is -O2 + NDEBUG.)

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "${repo_root}"

cmake --preset release >/dev/null
cmake --build build-release --target micro_parallel --target micro_core \
  --target net_ingest --target query -j"$(nproc)"

build-release/bench/micro_parallel \
  --benchmark_out="${repo_root}/BENCH_micro.json" \
  --benchmark_out_format=json \
  --benchmark_repetitions=3 \
  --benchmark_report_aggregates_only=true \
  "$@"

build-release/bench/micro_core \
  --benchmark_filter=BM_LoadReddChannel \
  --benchmark_out="${repo_root}/BENCH_core.json" \
  --benchmark_out_format=json \
  --benchmark_repetitions=3 \
  --benchmark_report_aggregates_only=true \
  "$@"

build-release/bench/net_ingest \
  --benchmark_out="${repo_root}/BENCH_net.json" \
  --benchmark_out_format=json \
  --benchmark_repetitions=3 \
  --benchmark_report_aggregates_only=true \
  "$@"

build-release/bench/query \
  --benchmark_out="${repo_root}/BENCH_query.json" \
  --benchmark_out_format=json \
  --benchmark_repetitions=3 \
  --benchmark_report_aggregates_only=true \
  "$@"

# Merge the loader, net-ingest and query benchmarks into the single
# BENCH_micro.json report, refusing any report whose benchmark library was
# not a release build.
python3 - "${repo_root}/BENCH_micro.json" "${repo_root}/BENCH_core.json" \
  "${repo_root}/BENCH_net.json" "${repo_root}/BENCH_query.json" <<'PY'
import json, sys
micro_path, extra_paths = sys.argv[1], sys.argv[2:]
with open(micro_path) as f:
    micro = json.load(f)
extras = []
for path in extra_paths:
    with open(path) as f:
        extras.append((path, json.load(f)))
for path, report in [(micro_path, micro)] + extras:
    build_type = report.get("context", {}).get("smeter_build_type")
    if build_type != "release":
        sys.exit(
            f"{path}: smeter_build_type is {build_type!r}, not 'release' "
            "-- refusing to record debug-build numbers; run via "
            "bench/run_bench.sh so the release preset is used")
for _, report in extras:
    micro["benchmarks"].extend(report["benchmarks"])
with open(micro_path, "w") as f:
    json.dump(micro, f, indent=2)
PY
rm -f "${repo_root}/BENCH_core.json" "${repo_root}/BENCH_net.json" \
  "${repo_root}/BENCH_query.json"

echo "wrote ${repo_root}/BENCH_micro.json"
