#!/usr/bin/env python3
"""Compare two sets of benchmark runs, per workload and metric.

    python3 perfbench/compare.py BASE.txt NEW.txt

Each file holds the stdout of one or more `perfbench/run.py` runs.  Prints
each side's median and quartiles and the change of the medians.  Refuses,
with exit code 2, when the runs do not all carry the same machine
fingerprint: timings from different machines or BLAS settings do not
compare.
"""

from __future__ import annotations

import json
import statistics
import sys


def load(path: str) -> list[dict]:
    """The full records (record + metrics) in a file of run outputs."""
    runs = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("{") and '"record"' in line:
                runs.append(json.loads(line))
    if not runs:
        raise SystemExit(f"{path}: no benchmark records")
    return runs


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 1
    base, new = load(argv[0]), load(argv[1])
    prints = {json.dumps(r["record"]["fingerprint"], sort_keys=True) for r in base + new}
    if len(prints) != 1:
        sys.stderr.write("refused: the runs have different machine fingerprints:\n  " + "\n  ".join(sorted(prints)) + "\n")
        return 2
    print(f"fingerprint {prints.pop()}")
    workloads = sorted({r["record"]["workload"] for r in base + new})
    for w in workloads:
        b = [r["metrics"] for r in base if r["record"]["workload"] == w]
        n = [r["metrics"] for r in new if r["record"]["workload"] == w]
        if not b or not n:
            print(f"{w}: runs on one side only")
            continue
        for name in sorted(set(b[0]) & set(n[0])):
            qb = _quartiles([m[name]["value"] for m in b])
            qn = _quartiles([m[name]["value"] for m in n])
            change = (qn[1] - qb[1]) / qb[1] if qb[1] else float("nan")
            print(
                f"{w:15s} {name:30s} base {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] n={len(b)}"
                f"  new {qn[1]:.6g} [{qn[0]:.6g}, {qn[2]:.6g}] n={len(n)}  change {change:+.1%}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
