#!/usr/bin/env python3
"""Compares two perfbench result histories (.bench_results/history.jsonl).

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

For every workload and end-to-end metric in BENCHMARK.json it prints the
median of each side, the change, and whether the change exceeds the
metric's bound in the worse direction. Runs whose oracles failed or whose
generator fell behind (`correct` false) are dropped with a warning. It
refuses to compare results whose host fingerprints differ (core count, CPU
model, kernel, build type, NDEBUG, compiler) or that measured for different
--seconds, warns when the disk's fsync speed differed between the sides by
more than the largest bound (the fsync-bound metrics then move with the
disk), and exits 1 when any metric regressed beyond its bound.
"""

import json
import statistics
import sys
from pathlib import Path

CONFIG = json.loads((Path(__file__).resolve().parent.parent /
                     "BENCHMARK.json").read_text())


def load(path):
    records = [json.loads(line) for line in Path(path).read_text().splitlines()
               if line.strip()]
    records = [r for r in records if not r["trace"]]
    bad = [r for r in records if not r["correct"]]
    for r in bad:
        print(f"warning: {path}: dropping {r['workload']} seed {r['seed']} "
              f"({r['time']}): not correct", file=sys.stderr)
    return [r for r in records if r["correct"]]


def refuse_mixed(records, key, what):
    values = {json.dumps(r[key], sort_keys=True) for r in records}
    if len(values) > 1:
        sys.exit(f"refusing to compare results from different {what}:\n  " +
                 "\n  ".join(sorted(values)))


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    refuse_mixed(base + new, "host", "hosts or builds")
    refuse_mixed(base + new, "seconds", "run lengths (--seconds)")
    widest = max(spec["bound"] for spec in CONFIG["end_to_end"])
    regressed = False
    for workload in [w["name"] for w in CONFIG["workloads"]]:
        b = [r for r in base if r["workload"] == workload]
        n = [r for r in new if r["workload"] == workload]
        if not b or not n:
            continue
        print(f"{workload}: {len(b)} base runs, {len(n)} new runs")
        db = statistics.median(r["disk_fsync_us"] for r in b)
        dn = statistics.median(r["disk_fsync_us"] for r in n)
        print(f"  {'disk_fsync_us':<26} {db:>14.6g} -> {dn:<14.6g} us")
        if abs(dn / db - 1) > widest:
            print(f"  warning: the disk's fsync speed changed by "
                  f"{dn / db - 1:+.0%}; fsync-bound metrics are not comparable")
        for spec in CONFIG["end_to_end"]:
            name = spec["name"]
            mb = statistics.median(r["metrics"][name] for r in b)
            mn = statistics.median(r["metrics"][name] for r in n)
            change = mn / mb - 1 if mb else 0.0
            worse = change if spec["better"] == "lower" else -change
            flag = "REGRESSED" if worse > spec["bound"] else ""
            regressed = regressed or bool(flag)
            print(f"  {name:<26} {mb:>14.6g} -> {mn:<14.6g} {spec['unit']:<9}"
                  f" {change:+8.2%} (bound {spec['bound']:.0%}) {flag}")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
