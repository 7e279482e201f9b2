#!/usr/bin/env python3
"""End-to-end benchmark of smeter: the offline paper pipeline, meter uploads
into a live ingestd, and dashboard queries against queryd beside uploads.

Run from the root of a smeter checkout:

    python3 perfbench/run.py --workload offline_fleet --seed 1 --seconds 20 --trace 0

Workloads: offline_fleet, fleet_upload, live_serve (see perfbench/METRICS.md
for why each exists and what every metric means). `--workload all` runs the
three in turn. The script builds `smeter` and the benchmark tool from the
checkout's sources (Release, only those two targets) under
$CARGO_TARGET_DIR (default .bench_build), generates inputs from the seed
(cached per seed in .bench_cache), measures for --seconds, checks every
output, prints a report of the named metrics, appends the result to
.bench_results/history.jsonl tagged with the commit and a host fingerprint,
and prints one JSON object as its last line. With --trace 1 that object
holds the per-layer metrics of a traced run instead of the end-to-end ones.
"""

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
CONFIG = json.loads((BENCH.parent / "BENCHMARK.json").read_text()) \
    if (BENCH.parent / "BENCHMARK.json").exists() else None

# Input shapes (fixed; only the seed varies). The load shape of the upload
# and serve commands (workers, rates, late limit) is fixed in tool.cc.
OFFLINE_HOUSES, OFFLINE_DAYS, OFFLINE_HISTORY_S = 6, 14, 172800
OFFLINE_THREADS = 4  # encode-fleet --threads, mirrored by the tool's oracles
UPLOAD_METERS, UPLOAD_BACKLOG_METERS = 2700, 300    # 1 day / 30-day backlog
STORED_METERS, STORED_DAYS = 500, 28
SETUP_REPEATS = 3
SERVE_RUN_SECONDS = 10  # one live_serve run; see workload_live
UPLOAD_EXTRA_LAUNCHES = 8
DISK_PROBE_WRITES = 200

PROCS = []  # every child started, stopped in main's finally


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def pct(values, p):
    """Nearest-rank percentile (the tool's definition)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, int(-(-p * len(ordered) // 1))))
    return ordered[rank - 1]


def run(argv, timeout=170, check=True):
    """Runs a child to completion; returns (stdout, exit code, stderr)."""
    proc = subprocess.Popen([str(a) for a in argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    PROCS.append(proc)
    try:
        out, err = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if check and proc.returncode != 0:
        die(f"{' '.join(map(str, argv[:2]))} exited {proc.returncode}: "
            f"{err.strip()[-800:]}")
    return out, proc.returncode, err


def run_rusage(argv, out_path):
    """Runs a child with stdout to `out_path`; returns (stdout, wall
    seconds, the child's own peak RSS in MiB)."""
    with open(out_path, "w") as out, open(f"{out_path}.err", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], stdout=out, stderr=err)
        PROCS.append(proc)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        die(f"{argv[1]} exited {proc.returncode}: "
            f"{Path(f'{out_path}.err').read_text()[-800:]}")
    return Path(out_path).read_text(), wall, usage.ru_maxrss / 1024.0


def tree_bytes(path):
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


def count_files(path):
    return sum(len(files) for _, _, files in os.walk(path))


class Daemon:
    """An smeter daemon on an ephemeral port, stopped with SIGTERM."""

    def __init__(self, argv, stderr_path):
        start = time.perf_counter()
        self.stderr_path = stderr_path
        self.proc = subprocess.Popen(
            [str(a) for a in argv], stdout=subprocess.PIPE,
            stderr=open(stderr_path, "w"), text=True)
        PROCS.append(self.proc)
        ready, _, _ = select.select([self.proc.stdout], [], [], 30)
        line = self.proc.stdout.readline() if ready else ""
        if "listening on" not in line:
            self.proc.kill()
            self.proc.wait()
            die(f"{argv[1]} did not start: {line!r} "
                f"{Path(stderr_path).read_text()[-400:]}")
        self.ready_s = time.perf_counter() - start
        self.port = int(line.split()[3].rstrip(","))

    def hwm_mb(self):
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def dump_counters(self):
        """SIGUSR1: the daemon writes its counters JSON to stderr."""
        before = Path(self.stderr_path).read_text().count("{")
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.time() + 10
        while time.time() < deadline:
            text = Path(self.stderr_path).read_text()
            if text.count("{") > before:
                try:
                    return json.JSONDecoder().raw_decode(
                        text, text.rindex("{"))[0]
                except json.JSONDecodeError:
                    pass  # the dump is still being written
            time.sleep(0.02)
        die("no SIGUSR1 counter dump")

    def stop(self):
        """Drains the daemon; returns its exit counter dump."""
        self.proc.send_signal(signal.SIGTERM)
        out, _ = self.proc.communicate(timeout=60)
        if self.proc.returncode != 0:
            die(f"daemon exited {self.proc.returncode}: "
                f"{Path(self.stderr_path).read_text()[-400:]}")
        return json.loads(out[out.index("{"):])


# --- build and fingerprint ---------------------------------------------------

def build():
    if not (ROOT / "src" / "CMakeLists.txt").exists() or \
            not (ROOT / "tools" / "cli.cc").exists():
        die("run from the root of a smeter checkout (src/ and tools/ missing)")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    # One build tree per checkout: when two checkouts share a target
    # directory, neither may reuse a CMake cache that builds the other's
    # sources.
    key = hashlib.sha256(str(BENCH).encode()).hexdigest()[:12]
    build_dir = (ROOT / target / f"perfbench-{key}").resolve()
    build_dir.mkdir(parents=True, exist_ok=True)
    build_log = build_dir / "build.log"
    with open(build_log, "w") as out:
        if not (build_dir / "CMakeCache.txt").exists():
            code = subprocess.call(
                ["cmake", "-S", str(BENCH), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"], stdout=out, stderr=out)
            if code != 0:
                die(f"configure failed; see {build_log}")
        code = subprocess.call(
            ["cmake", "--build", str(build_dir), "--target", "smeter_cli",
             "perfbench_tool", "-j", str(min(4, os.cpu_count() or 1))],
            stdout=out, stderr=out, timeout=850)
        if code != 0:
            die(f"build failed: {build_log.read_text()[-1500:]}")
    return build_dir / "smeter_tools" / "smeter", build_dir / "perfbench_tool"


def fingerprint(build_dir, info):
    cache = (build_dir / "CMakeCache.txt").read_text()
    build_type = next((line.split("=", 1)[1] for line in cache.splitlines()
                       if line.startswith("CMAKE_BUILD_TYPE:")), "")
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.machine())
    return {"cores": os.cpu_count(), "cpu_model": cpu,
            "kernel": platform.release(), "build_type": build_type,
            "ndebug": bool(info["ndebug"]), "compiler": info["compiler"]}


def commit_id():
    """Git SHA when the checkout is a repository, plus a hash of the
    program's sources (src/, tools/) that identifies the code either way."""
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.check_output(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                stderr=subprocess.DEVNULL).strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "tools"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return sha, digest.hexdigest()[:16]


# --- inputs -------------------------------------------------------------------

def cached(workload, seed, make):
    """Input generation, cached per seed (two newest seeds kept)."""
    base = ROOT / ".bench_cache" / workload
    path = base / f"seed-{seed}"
    if not (path / ".done").exists():
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        make(path)
        (path / ".done").write_text("ok\n")
    os.utime(path)
    seeds = sorted(base.iterdir(), key=lambda p: p.stat().st_mtime)
    for old in seeds[:-2]:
        shutil.rmtree(old, ignore_errors=True)
    return path


def settle(ctx):
    """Flushes the dirty pages input generation left and pauses, so the
    measurement starts on a quiet disk, then probes the disk. Nothing is
    deleted from here until the measurement ends: the workloads are
    fsync-bound, and freeing many files makes the filesystem busy with work
    the program did not ask for."""
    os.sync()
    time.sleep(1.0)
    ctx["disk_fsync_us"] = fsync_probe(ctx["work"] / "disk_probe")


def fsync_probe(path):
    """Median microseconds of write + fsync + rename + directory fsync, the
    step AtomicWriteFile repeats. live_serve's set-up (store-build) and the
    upload path are bound by it, and on a shared disk it drifts from run to
    run, so every result records it beside the metrics."""
    path.mkdir()
    dir_fd = os.open(path, os.O_RDONLY)
    times = []
    try:
        for i in range(DISK_PROBE_WRITES):
            start = time.perf_counter()
            fd = os.open(path / "probe.tmp",
                         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            os.write(fd, b"p" * 4096)
            os.fsync(fd)
            os.close(fd)
            os.rename(path / "probe.tmp", path / f"probe{i}")
            os.fsync(dir_fd)
            times.append(time.perf_counter() - start)
    finally:
        os.close(dir_fd)
    return 1e6 * statistics.median(times)


def copy_spools(src, dst, names=None):
    dst.mkdir(parents=True)
    for name in names if names is not None else sorted(os.listdir(src)):
        shutil.copyfile(src / name, dst / name)
    os.sync()  # settle dirty pages so the next fsyncs measure the program


# --- workloads ----------------------------------------------------------------

def fsck_ok(smeter, path):
    report = json.loads(run([smeter, "fsck", "--dir", path], check=False)[0])
    return report.get("exit_code") == 0 and report.get("clean") is True


def offline_pass(smeter, fleet, out):
    """encode-fleet + store-build into a new directory `out`."""
    out.mkdir(parents=True)
    enc_out, enc_s, enc_rss = run_rusage(
        [smeter, "encode-fleet", "--input", fleet, "--out", out / "enc",
         "--format", "redd", "--threads", OFFLINE_THREADS,
         "--history-seconds", OFFLINE_HISTORY_S], out / "encode.out")
    store_out, store_s, store_rss = run_rusage(
        [smeter, "store-build", "--archive", out / "enc", "--store",
         out / "store"], out / "store.out")
    lines = enc_out.splitlines()
    fleet_line = next(l for l in lines if l.startswith("fleet:")).split()
    quality = next(l for l in lines if l.startswith("quality:")).split()
    return {"wall": enc_s + store_s, "samples": int(fleet_line[3]),
            "symbols": int(fleet_line[6]), "quarantined": int(quality[5]),
            "rss": max(enc_rss, store_rss), "store": json.loads(store_out)}


def workload_offline(ctx):
    smeter, tool, work = ctx["smeter"], ctx["tool"], ctx["work"]
    fleet = cached("offline_fleet", ctx["seed"], lambda p: run(
        [smeter, "simulate", "--out", p / "fleet", "--houses", OFFLINE_HOUSES,
         "--days", OFFLINE_DAYS, "--seed", ctx["seed"]])) / "fleet"

    settle(ctx)

    # Set-up: the one-household pipeline (process start, table learning,
    # archive/manifest/store creation), which also warms the caches.
    stage = work / "stage"
    (stage / "fleet").mkdir(parents=True)
    os.symlink(fleet / "house_1", stage / "fleet" / "house_1")
    setups = [offline_pass(smeter, stage / "fleet", stage / f"out{i}")["wall"]
              for i in range(SETUP_REPEATS)]

    passes, attempted, failed = [], 0, 0
    while sum(p["wall"] for p in passes) < ctx["seconds"] or len(passes) < 3:
        out = work / f"out{len(passes)}"
        passes.append(offline_pass(smeter, fleet, out))
        attempted += OFFLINE_HOUSES
        failed += passes[-1]["quarantined"]
    last = passes[-1]
    symbols = last["symbols"]
    walls = [p["wall"] for p in passes]

    # Oracles on the last pass: fsck, and every household's symbols equal
    # an in-process re-encode of its input.
    check = json.loads(run([tool, "offline-check", "--fleet", fleet,
                            "--enc", out / "enc",
                            "--history", OFFLINE_HISTORY_S,
                            "--threads", OFFLINE_THREADS])[0])
    oracle_failures = check["mismatched"] + (check["households"] != OFFLINE_HOUSES)
    oracle_failures += int(check["symbols"] != symbols)
    oracle_failures += int(last["store"]["meters"] != OFFLINE_HOUSES)
    oracle_failures += int(not fsck_ok(smeter, out / "enc"))
    oracle_failures += int(not fsck_ok(smeter, out / "store"))
    failed += oracle_failures
    attempted += 1

    stored = tree_bytes(out / "enc") + tree_bytes(out / "store")
    rates = [p["samples"] / p["wall"] for p in passes]
    rss = statistics.median(p["rss"] for p in passes)
    result = {
        "attempted": attempted, "failed": failed,
        "correct": oracle_failures == 0,
        "metrics": {
            "setup_s": statistics.median(setups),
            "throughput_per_s": statistics.median(rates),
            "op_ms_p50": 1000 * pct(walls, 0.5),
            "op_ms_p99": 1000 * pct(walls, 0.99),
            "stored_bytes_per_symbol": stored / symbols,
            "peak_rss_mb": rss,
        },
        "named": {
            "setup_s": (statistics.median(setups), "s", len(setups)),
            "offline_samples_per_s": (statistics.median(rates), "samples/s",
                                      len(passes)),
            "stored_bytes_per_symbol": (stored / symbols, "B/symbol", 1),
        },
    }
    if ctx["trace"]:
        result["layers"] = trace_offline(ctx, fleet)
    return result


def trace_offline(ctx, fleet):
    """The in-process pass untraced (null trace), then traced: the traced
    pass over the untraced one is the tracing overhead."""
    tool, work = ctx["tool"], ctx["work"]

    def offline_trace(traced):
        return json.loads(run(
            [tool, "offline-trace", "--fleet", fleet, "--out",
             work / "traced", "--history", OFFLINE_HISTORY_S, "--threads",
             OFFLINE_THREADS, "--trace", int(traced),
             "--spans", work / "offline.spans.jsonl"])[0])

    plain = offline_trace(False)
    out = offline_trace(True)
    spans = out["trace"]["spans"]

    def span(name, field="total_ms"):
        return spans.get(name, {}).get(field, 0.0)

    return {
        "data.load_ms": span("data.load"),
        "data.rows": out["rows"],
        "core.table_build_ms": span("core.table_build"),
        "core.encode_ms": span("core.encode"),
        "core.pack_ms": span("core.pack"),
        "core.encode_samples": out["encode_samples"],
        "core.fleet_wall_ms": span("core.fleet_encode"),
        "core.pool_busy_share": out["pool_busy_share"],
        "io.atomic_write_ms_p50": span("io.atomic_write", "p50_ms"),
        "io.atomic_write_ms_p99": span("io.atomic_write", "p99_ms"),
        "io.append_ms_p50": span("io.append", "p50_ms"),
        "io.files_per_meter": count_files(work / "traced" / "enc") / OFFLINE_HOUSES,
        "store.build_ms": span("store.build"),
        "store.segments_written": out["segments_written"],
        "store.segment_bytes": out["segment_bytes"],
        "trace.unattributed_share": out["trace"]["root_self_ms"] /
        max(out["trace"]["root_ms"], 1e-9),
        "trace.overhead_share": out["pass_ms"] / plain["pass_ms"] - 1,
        "trace.spans": sum(s["count"] for s in spans.values()),
    }


def upload_round(ctx, spools, round_dir, trace=False):
    """One fresh ingestd, every spool uploaded once, then the oracles."""
    smeter, tool = ctx["smeter"], ctx["tool"]
    copy_spools(spools, round_dir / "spools")
    daemon = Daemon([smeter, "ingestd", "--listen", "127.0.0.1:0", "--dir",
                     round_dir / "archive", "--threads", 2],
                    round_dir / "ingestd.err")
    argv = [tool, "upload", "--port", daemon.port, "--spools",
            round_dir / "spools"]
    if trace:
        argv += ["--trace", 1, "--spans", round_dir / "upload.spans.jsonl",
                 "--scratch", round_dir / "replay"]
    out = json.loads(run(argv)[0])
    hwm = daemon.hwm_mb()
    counters = daemon.stop()
    verify = json.loads(run([tool, "verify-archive", "--archive",
                             round_dir / "archive", "--spools",
                             round_dir / "spools"])[0])
    bad = int(not fsck_ok(smeter, round_dir / "archive"))
    bad += verify["mismatched"] + int(verify["checked"] != out["delivered"])
    return {"out": out, "setup_s": daemon.ready_s, "hwm": hwm,
            "counters": counters, "oracle_failures": bad,
            "symbols": verify["symbols"],
            "stored_bytes": tree_bytes(round_dir / "archive"),
            "files": count_files(round_dir / "archive")}


def workload_fleet_upload(ctx):
    spools = cached("fleet_upload", ctx["seed"], lambda p: run(
        [ctx["tool"], "prep", "--dir", p / "spools", "--seed", ctx["seed"],
         "--prefix", "fu_", "--meters", UPLOAD_METERS, "--days", 1,
         "--backlog-meters", UPLOAD_BACKLOG_METERS])) / "spools"
    settle(ctx)
    # Set-up is a daemon launch (a few ms), so it is repeated until the
    # median is steady: standalone launches on empty archives, plus one per
    # measured round.
    launches = []
    for i in range(UPLOAD_EXTRA_LAUNCHES):
        daemon = Daemon([ctx["smeter"], "ingestd", "--listen", "127.0.0.1:0",
                         "--dir", ctx["work"] / f"launch{i}", "--threads", 2],
                        ctx["work"] / f"launch{i}.err")
        launches.append(daemon.ready_s)
        daemon.stop()
    rounds, measured = [], 0.0
    while measured < ctx["seconds"] or len(rounds) < SETUP_REPEATS:
        r = upload_round(ctx, spools, ctx["work"] / f"round{len(rounds)}")
        rounds.append(r)
        measured += r["out"]["wall_s"]
        launches.append(r["setup_s"])
        log(f"round {len(rounds)}: {r['out']['delivered'] / r['out']['wall_s']:.0f} meters/s")
    latencies = [x for r in rounds for x in r["out"]["latency_ms"]]
    meters = sum(r["out"]["meters"] for r in rounds)
    delivered = sum(r["out"]["delivered"] for r in rounds)
    oracle = sum(r["oracle_failures"] for r in rounds)
    rates = [r["out"]["delivered"] / r["out"]["wall_s"] for r in rounds]
    setup = statistics.median(launches)
    bytes_per_symbol = statistics.median(
        r["stored_bytes"] / max(r["symbols"], 1) for r in rounds)
    rss = statistics.median(r["hwm"] for r in rounds)
    result = {
        # THROTTLEs and retried connections count as failures too.
        "attempted": meters,
        "failed": meters - delivered + oracle + sum(
            r["out"]["throttled"] + r["out"]["attempts"] - r["out"]["meters"]
            for r in rounds),
        "correct": oracle == 0,
        "metrics": {
            "setup_s": setup,
            "throughput_per_s": statistics.median(rates),
            "op_ms_p50": pct(latencies, 0.5),
            "op_ms_p99": pct(latencies, 0.99),
            "stored_bytes_per_symbol": bytes_per_symbol,
            "peak_rss_mb": rss,
        },
        "named": {
            "setup_s": (setup, "s", len(launches)),
            "upload_meters_per_s": (statistics.median(rates), "meters/s",
                                    len(rounds)),
            "upload_ms_p50": (pct(latencies, 0.5), "ms", len(latencies)),
            "upload_ms_p99": (pct(latencies, 0.99), "ms", len(latencies)),
            "stored_bytes_per_symbol": (bytes_per_symbol, "B/symbol",
                                        len(rounds)),
            "ingestd_rss_mb": (rss, "MiB", len(rounds)),
        },
    }
    if ctx["trace"]:
        traced = upload_round(ctx, spools, ctx["work"] / "traced", trace=True)
        result["layers"] = ingest_layers(traced["out"], traced["counters"])
        result["layers"].update({
            "io.files_per_meter": traced["files"] / traced["out"]["delivered"],
            # Against the round just before it: the disk's speed drifts.
            "trace.overhead_share": rates[-1] /
            (traced["out"]["delivered"] / traced["out"]["wall_s"]) - 1,
        })
        result["failed"] += traced["oracle_failures"]
        result["correct"] = result["correct"] and traced["oracle_failures"] == 0
    return result


def ingest_layers(out, counters):
    """Per-layer metrics of a traced upload (tool `upload`/`serve`)."""
    spans = out["trace"]["spans"]

    def span(name, field="p50_ms", scale=1.0):
        return spans.get(name, {}).get(field, 0.0) * scale

    frames = spans.get("net.session_frame", {})
    writev = counters.get("writev_calls", 0)
    return {
        "io.atomic_write_ms_p50": span("io.atomic_write"),
        "io.atomic_write_ms_p99": span("io.atomic_write", "p99_ms"),
        "io.append_ms_p50": span("io.append"),
        "client.spool_read_ms": span("client.read_spool"),
        "client.upload_ms": span("client.upload"),
        "client.attempts": out.get("attempts", 0),
        "client.throttled": out.get("throttled", 0),
        "net.connect_us": span("net.connect", scale=1000),
        "net.hello_rtt_us": span("net.hello", scale=1000),
        "net.table_rtt_us": span("net.table", scale=1000),
        "net.batch_rtt_us": span("net.batch", scale=1000),
        "net.goodbye_rtt_us_p50": span("net.goodbye", scale=1000),
        "net.goodbye_rtt_us_p99": span("net.goodbye", "p99_ms", 1000),
        "net.session_us_per_frame": 1000 * frames.get("total_ms", 0.0) /
        max(frames.get("count", 0), 1),
        "ingestd.frames_in": counters.get("frames_in", 0),
        "ingestd.bytes_in": counters.get("bytes_in", 0),
        "ingestd.writev_calls": writev,
        "ingestd.acks_batched": counters.get("acks_batched", 0),
        "ingestd.acks_per_writev": counters.get("acks_batched", 0) / max(writev, 1),
        "ingestd.handoffs_in": counters.get("handoffs_in", 0),
        "ingestd.backpressure_stalls": counters.get("backpressure_stalls", 0),
        "ingestd.sessions_dropped": counters.get("sessions_dropped", 0),
        "ingestd.throttles_sent": counters.get("throttles_sent", 0),
        "sink.persist_ms_p50": span("sink.persist"),
        "sink.persist_ms_p99": span("sink.persist", "p99_ms"),
        "sink.bytes_per_meter": out.get("sink_bytes_per_meter", 0),
        "sink.wait_ms_p99": out.get("sink_wait_ms_p99", 0),
        "trace.unattributed_share": out["trace"]["root_self_ms"] /
        max(out["trace"]["root_ms"], 1e-9),
        "trace.spans": sum(s["count"] for s in spans.values()),
    }


def live_inputs(ctx, seconds, runs):
    """Stored and live spools for `runs` serve runs of `seconds` in total,
    each run after its own warm-up with its own new meters."""
    per_run = int(ctx["upload_rate"] * (ctx["warmup_s"] + seconds / runs)) + 1
    live_meters = per_run * runs

    def make(p):
        run([ctx["tool"], "prep", "--dir", p / "stored", "--seed",
             ctx["seed"], "--prefix", "st_", "--meters", STORED_METERS,
             "--days", STORED_DAYS])
        run([ctx["tool"], "prep", "--dir", p / "live", "--seed",
             ctx["seed"] + 100003, "--prefix", "lv_", "--meters", live_meters,
             "--days", 1, "--start-day", STORED_DAYS - 1])

    path = cached("live_serve", f"{ctx['seed']}-{live_meters}", make)
    return path / "stored", path / "live"


def live_setup(ctx, stored, base):
    """Ingest the stored fleet, build the store, restart ingestd --resume and
    start queryd. Returns (ingestd, queryd, seconds, failed checks), timed
    from the first daemon launch to both daemons serving."""
    smeter, tool = ctx["smeter"], ctx["tool"]
    copy_spools(stored, base / "stored_spools")
    start = time.perf_counter()
    first = Daemon([smeter, "ingestd", "--listen", "127.0.0.1:0", "--dir",
                    base / "archive", "--threads", 2], base / "ingestd0.err")
    out = json.loads(run([tool, "upload", "--port", first.port,
                          "--spools", base / "stored_spools"])[0])
    first.stop()
    built = json.loads(run([smeter, "store-build", "--archive",
                            base / "archive", "--store", base / "store"])[0])
    ingestd = Daemon([smeter, "ingestd", "--listen", "127.0.0.1:0", "--dir",
                      base / "archive", "--threads", 2, "--resume", "true"],
                     base / "ingestd.err")
    queryd = Daemon([smeter, "queryd", "--listen", "127.0.0.1:0", "--store",
                     base / "store", "--current-dir", base / "archive"],
                    base / "queryd.err")
    seconds = time.perf_counter() - start
    failures = (out["meters"] - out["delivered"]) + \
        int(built["meters"] != STORED_METERS)
    return ingestd, queryd, seconds, failures


def serve(ctx, ingestd, queryd, stored, live, seconds, trace=None):
    argv = [ctx["tool"], "serve", "--ingest-port", ingestd.port,
            "--query-port", queryd.port, "--stored", stored, "--live", live,
            "--seconds", seconds, "--seed", ctx["seed"]]
    if trace:
        argv += ["--trace", 1] + trace
    return json.loads(run(argv, timeout=seconds + 120)[0])


OPS = ("upload", "point", "range", "aggregate")


def serve_summary(outs):
    """Pools the serve runs `outs`: (latencies by op, done, failed, late
    times, backlog at the end, valid)."""
    lat = {op: [x for out in outs for x in out[f"{op}_ms"]] for op in OPS}
    done = sum(out[f"{op}_done"] for out in outs for op in OPS)
    failed = sum(out[f"{op}_failed"] for out in outs for op in OPS)
    late = [x for out in outs for x in out["late_ms"]]
    backlog = sum(out["backlog_end"] for out in outs)
    # A run whose generator started ops too late, or left ops unsent at the
    # end, was no longer open-loop: it is marked invalid.
    valid = pct(late, 0.99) <= outs[0]["late_limit_ms"] and backlog == 0
    return lat, done, failed, late, backlog, valid


def workload_live(ctx):
    """Set up SETUP_REPEATS times; the last `runs` set-ups each serve one
    run of SERVE_RUN_SECONDS on their own new meters (current.log grows
    through a run, so a longer measurement serves more runs, not longer
    ones), and the latencies of all runs are pooled."""
    if ctx["trace"]:
        return trace_live(ctx)
    seconds = ctx["seconds"]
    runs = min(SETUP_REPEATS, max(1, round(seconds / SERVE_RUN_SECONDS)))
    stored, live = live_inputs(ctx, seconds, runs)
    names = sorted(os.listdir(live))
    per_run = len(names) // runs
    settle(ctx)
    work = ctx["work"]
    setups, oracle, outs, hwms = [], 0, [], []
    for i in range(SETUP_REPEATS):
        base = work / f"s{i}"
        ingestd, queryd, took, bad = live_setup(ctx, stored, base)
        setups.append(took)
        oracle += bad
        r = i - (SETUP_REPEATS - runs)
        if r >= 0:
            copy_spools(live, base / "live_spools",
                        names[r * per_run:(r + 1) * per_run])
            outs.append(serve(ctx, ingestd, queryd, stored,
                              base / "live_spools", seconds / runs))
            hwms.append((ingestd.hwm_mb(), queryd.hwm_mb()))
        ingestd.stop()
        queryd.stop()
        if r >= 0:
            oracle += live_oracles(ctx, base)
    lat, done, failed, late, backlog, valid = serve_summary(outs)
    late_p99 = pct(late, 0.99)
    if not valid:
        log(f"live_serve run INVALID: the generator fell behind (late p99 "
            f"{late_p99:.1f} ms, backlog {backlog})")
    stored_bytes = tree_bytes(base / "archive") + tree_bytes(base / "store")
    symbols = archive_symbols(base / "archive")
    ingest_hwm = max(h[0] for h in hwms)
    query_hwm = max(h[1] for h in hwms)
    named = {"setup_s": (statistics.median(setups), "s", len(setups))}
    for op in OPS:
        named[f"{op}_ms_p50"] = (pct(lat[op], 0.5), "ms", len(lat[op]))
        named[f"{op}_ms_p99"] = (pct(lat[op], 0.99), "ms", len(lat[op]))
    named.update({
        "ingestd_rss_mb": (ingest_hwm, "MiB", len(hwms)),
        "queryd_rss_mb": (query_hwm, "MiB", len(hwms)),
        "gen.late_ms_p99": (late_p99, "ms", len(late)),
        "gen.backlog_end": (backlog, "count", len(outs)),
    })
    return {
        "attempted": done + failed + 1, "failed": failed + oracle,
        "correct": oracle == 0 and failed == 0 and valid,
        "metrics": {
            "setup_s": statistics.median(setups),
            "throughput_per_s": done / sum(out["wall_s"] for out in outs),
            # Point lookups, the dashboard's most frequent query: pooled
            # with range scans (~0.4 ms) the median falls between two
            # modes. Ranges, aggregates and uploads have report lines.
            "op_ms_p50": pct(lat["point"], 0.5),
            "op_ms_p99": pct(lat["point"], 0.99),
            "stored_bytes_per_symbol": stored_bytes / symbols,
            "peak_rss_mb": ingest_hwm + query_hwm,
        },
        "named": named,
    }


def archive_symbols(archive):
    """Symbols durable in an archive: the quality report written at drain."""
    return json.loads((archive / "quality.json").read_text())["windows_total"]


def live_oracles(ctx, base):
    """fsck on archive and store; every acked live meter's .symbols equals
    its spool. Returns the number of failed checks."""
    bad = int(not fsck_ok(ctx["smeter"], base / "archive"))
    bad += int(not fsck_ok(ctx["smeter"], base / "store"))
    for spools in sorted(base.glob("live_spools*")):
        verify = json.loads(run([ctx["tool"], "verify-archive", "--archive",
                                 base / "archive", "--spools", spools])[0])
        bad += verify["mismatched"]
    return bad


def trace_live(ctx):
    """One set-up, then a traced half run and an untraced half run on the
    same daemons, each with its own new meters."""
    seconds = ctx["seconds"]
    stored, live = live_inputs(ctx, seconds, 2)
    settle(ctx)
    half = seconds / 2
    base = ctx["work"] / "s0"
    ingestd, queryd, _, oracle = live_setup(ctx, stored, base)
    names = sorted(os.listdir(live))
    middle = len(names) // 2
    copy_spools(live, base / "live_spools_a", names[:middle])
    copy_spools(live, base / "live_spools_b", names[middle:])
    traced = serve(ctx, ingestd, queryd, stored, base / "live_spools_a", half,
                   ["--spans", base / "serve.spans.jsonl", "--scratch",
                    base / "replay", "--store", base / "store", "--archive",
                    base / "archive"])
    ingest_counters = ingestd.dump_counters()
    query_counters = queryd.dump_counters()
    plain = serve(ctx, ingestd, queryd, stored, base / "live_spools_b", half)
    ingestd.stop()
    queryd.stop()
    oracle += live_oracles(ctx, base)
    traced_lat, done_t, failed_t, late, _, _ = serve_summary([traced])
    plain_lat, done_p, failed_p, _, _, _ = serve_summary([plain])
    late_p99 = pct(late, 0.99)

    spans = traced["trace"]["spans"]

    def us(name, field="p50_ms"):
        return 1000 * spans.get(name, {}).get(field, 0.0)

    points = max(query_counters.get("queries_point", 0), 1)
    reads = query_counters.get("queries_range", 0) + \
        query_counters.get("queries_aggregate", 0)
    partitions = traced["rollup_partitions"] + traced["scanned_partitions"]
    layers = ingest_layers(traced, ingest_counters)
    layers.update({
        "store.latest_us_p50": us("store.latest"),
        "store.latest_us_p99": us("store.latest", "p99_ms"),
        "store.scan_us_p50": us("store.scan"),
        "store.aggregate_us_p50": us("store.aggregate"),
        "store.refresh_share": query_counters.get("current_refreshes", 0) / points,
        "store.rollup_share": traced["rollup_partitions"] / max(partitions, 1),
        "queryd.segments_read": query_counters.get("segments_read", 0),
        "queryd.segments_per_query": query_counters.get("segments_read", 0) /
        max(reads, 1),
        "queryd.serving_us_p50_point": traced["serving_us_p50_point"],
        "queryd.serving_us_p50_range": traced["serving_us_p50_range"],
        "queryd.serving_us_p50_aggregate": traced["serving_us_p50_aggregate"],
        "queryd.frames_in": query_counters.get("frames_in", 0),
        "queryd.bytes_out": query_counters.get("bytes_out", 0),
        "queryd.current_refreshes": query_counters.get("current_refreshes", 0),
        "queryd.throttles_sent": query_counters.get("throttles_sent", 0),
        "queryd.connections_dropped": query_counters.get("connections_dropped", 0),
        "io.files_per_meter": count_files(base / "archive") / len(
            json.loads((base / "archive" / "quality.json").read_text())
            ["households"]),
        "gen.late_ms_p99": late_p99,
        "gen.backlog_end": traced["backlog_end"],
        # Uploads only: query latency grows with current.log over the run,
        # so comparing the two halves' queries would measure that instead.
        "trace.overhead_share": pct(traced_lat["upload"], 0.5) /
        max(pct(plain_lat["upload"], 0.5), 1e-9) - 1,
    })
    failed = failed_t + failed_p + oracle
    return {"attempted": done_t + done_p + failed_t + failed_p + 1,
            "failed": failed, "correct": failed == 0, "metrics": {},
            "named": {}, "layers": layers}


WORKLOADS = {
    "offline_fleet": workload_offline,
    "fleet_upload": workload_fleet_upload,
    "live_serve": workload_live,
}


# --- reporting ----------------------------------------------------------------

def report(name, ctx, result):
    mode = "traced" if ctx["trace"] else "untraced"
    print(f"== {name}: seed {ctx['seed']}, {ctx['seconds']} s, {mode}, "
          f"disk fsync {ctx['disk_fsync_us']:.0f} us ==")
    for metric, (value, unit, samples) in result["named"].items():
        print(f"  {metric:<28} {value:>14.6g} {unit:<10} n={samples}")
    share = result["failed"] / max(result["attempted"], 1)
    print(f"  {'failed_share':<28} {share:>14.6g} {'ratio':<10} "
          f"({result['failed']} of {result['attempted']})")
    for metric, value in sorted(result.get("layers", {}).items()):
        print(f"  {metric:<36} {value:>14.6g}")


def contract_metrics(result, trace):
    section = "per_layer" if trace else "end_to_end"
    source = result.get("layers", {}) if trace else result["metrics"]
    metrics = {}
    for spec in CONFIG[section]:
        value = source.get(spec["name"])
        if value is None:
            if not trace:
                die(f"metric {spec['name']} was not measured")
            value = 0.0  # this workload does not exercise that layer
        metrics[spec["name"]] = {"value": float(value), "unit": spec["unit"]}
    return metrics


def append_history(record):
    path = ROOT / ".bench_results" / "history.jsonl"
    path.parent.mkdir(exist_ok=True)
    with open(path, "a") as out:
        out.write(json.dumps(record) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if CONFIG is None:
        die("BENCHMARK.json not found next to perfbench/")

    smeter, tool = build()
    info = json.loads(run([tool, "info"])[0])
    host = fingerprint(tool.parent, info)
    if not host["ndebug"] or host["build_type"] not in ("Release", "RelWithDebInfo"):
        die(f"refusing to measure a build without NDEBUG: {host}")
    sha, source = commit_id()

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        ctx = {"smeter": smeter, "tool": tool, "seed": args.seed,
               "seconds": args.seconds, "trace": bool(args.trace),
               "upload_rate": info["upload_rate"],
               "warmup_s": info["warmup_s"],
               "work": ROOT / ".bench_work" / f"{name}-{args.seed}-{os.getpid()}"}
        ctx["work"].mkdir(parents=True)
        try:
            result = WORKLOADS[name](ctx)
        finally:
            shutil.rmtree(ctx["work"], ignore_errors=True)
            os.sync()
        report(name, ctx, result)
        metrics = contract_metrics(result, args.trace)
        append_history({
            "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "workload": name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": sha, "source_hash": source,
            "host": host, "disk_fsync_us": ctx["disk_fsync_us"],
            "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in metrics.items()},
            "named": {k: v[0] for k, v in result["named"].items()},
        })
        final["correct"] = final["correct"] and result["correct"]
        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        final["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(f"host {host} commit {sha} source {source}")
    print(json.dumps(final))


if __name__ == "__main__":
    try:
        main()
    finally:
        for proc in PROCS:
            if proc.poll() is None:
                proc.kill()
            try:
                proc.wait(timeout=10)
            except (subprocess.TimeoutExpired, ChildProcessError):
                pass
