#!/usr/bin/env python3
"""ptspec benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a ptspec checkout; the package is imported from its
src/ directory.  One closed-loop client: each run starts fresh interpreters
(perfbench/worker.py), SETUPS of them timed from start to ready, the last of
which runs the workload's op list in passes for T seconds.  Each worker
runs on the CPU that a short probe finds quietest, with the BLAS pool
pinned to BLAS_THREADS threads.  The times of pure-Python work are
reported scaled to a reference machine speed (perfbench/speed.py).

Stdout: a line with the full record (machine fingerprint, samples, op
outcomes), then, as the last line, {"correct", "attempted", "failed",
"metrics"}.  --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones from the boundary tracer.  Exits non-zero, printing no
result, when the checkout has no ptspec sources or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import cases
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Fresh interpreters set up per run; setup_s is their median.
SETUPS = 11
# One BLAS thread: on a small shared machine a second thread makes the dense
# solves far less repeatable, and a pool start-up cost would hide in setup_s.
BLAS_THREADS = "1"
# A worker still running after this long is stopped and the run fails, so
# that every run ends within three minutes.
RUN_BUDGET_S = 150.0
# Probe samples per CPU when choosing the CPU a worker runs on.
PROBE_SAMPLES = 5


def pin_quietest(allowed) -> float:
    """Pin this process, and so the next worker it starts, to the CPU of
    ``allowed`` on which the speed loop runs fastest; return its median
    loop time there.

    On a small virtual machine one vCPU can share its physical core with a
    busy neighbour and run the same work up to twice as slowly, in bursts
    of seconds.  A worker stays on its CPU for its whole life: moving it
    between ops left the next short op with cold caches.
    """
    medians = {}
    for cpu in allowed:
        os.sched_setaffinity(0, {cpu})
        medians[cpu] = statistics.median(speed.reference_s() for _ in range(PROBE_SAMPLES))
    quietest = min(medians, key=medians.get)
    os.sched_setaffinity(0, {quietest})
    return medians[quietest]


def _worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    # A fixed string-hash seed: with a random one per process, the same
    # pure-Python work (import, the NU scan) took up to 15% longer in one
    # process than in the next, which made runs of one build disagree.
    env["PYTHONHASHSEED"] = "0"
    return env


def _start_worker(args, tmpdir, setup_only):
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--tmpdir", tmpdir,
    ] + (["--setup-only"] if setup_only else [])
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_worker_env(), cwd=ROOT)


def _ready_s(proc, t0) -> float:
    """Seconds from t0 until the worker prints READY."""
    if proc.stdout.readline().strip() != "READY":
        raise RuntimeError(f"worker did not become ready (exit {proc.wait()})")
    return time.perf_counter() - t0


def _finish(proc) -> str:
    out = proc.stdout.read()
    code = proc.wait()
    if code != 0:
        raise RuntimeError(f"worker exited with {code}")
    return out


def _stop(proc) -> None:
    """End a worker (SIGTERM first, so it can end its own child) and wait."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdout.close()


def _run_workers(args, tmpdir, allowed):
    """SETUPS workers timed to READY; the last one runs the timed phase.
    Each start follows a timing of the speed loop on the worker's CPU.
    Returns the last worker's record with the set-up samples added."""
    setups = []
    refs = []
    for k in range(SETUPS):
        refs.append(pin_quietest(allowed))
        t0 = time.perf_counter()
        proc = _start_worker(args, tmpdir, k < SETUPS - 1)
        killer = threading.Timer(RUN_BUDGET_S, proc.terminate)
        killer.start()
        try:
            setups.append(_ready_s(proc, t0))
            out = _finish(proc)
        finally:
            killer.cancel()
            _stop(proc)
    lines = out.strip().splitlines()
    record = json.loads(lines[-1] if lines else "")
    record["setup_s_samples"] = setups
    record["setup_ref_s"] = refs
    return record


def _end_to_end(record) -> tuple[dict, dict]:
    """The end-to-end metrics, and the same times unscaled.

    Set-up (imports, mostly) and the timed work of the SPEED_SCALED
    workloads are pure Python; their times are scaled to the reference
    speed (speed.py): each set-up sample by the loop timed just before it,
    the passes and ops by the median loop time of the run.
    """
    passes = [p for p in record["passes"] if not p["traced"]]
    ops = [o for p in passes for o in p["ops"]]
    setups = record["setup_s_samples"]
    unscaled = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_p50_s": statistics.median(o["latency_s"] for o in ops),
    }
    scale = speed.factor([o["ref_s"] for o in ops]) if record["workload"] in cases.SPEED_SCALED else 1.0
    metrics = {
        "setup_s": statistics.median(s * speed.factor([r]) for s, r in zip(setups, record["setup_ref_s"])),
        "wall_s": scale * unscaled["wall_s"],
        "op_p50_s": scale * unscaled["op_p50_s"],
        "peak_rss_mb": record["peak_rss_mb"],
        "fail_frac": sum(o["failed"] for o in ops) / len(ops),
    }
    return metrics, unscaled


def _per_layer(record) -> dict:
    traced = [p for p in record["passes"] if p["traced"]]
    plain = [p for p in record["passes"] if not p["traced"]]
    layers = dict(record["layers"])
    # Cold children's imports when there are any, else the worker's own.
    imports = record["cli_import"][1:] or record["cli_import"]
    layers["cli.import.s"] = statistics.median(s for s, _ in imports)
    layers["cli.import.modules"] = statistics.median(m for _, m in imports)
    layers["cli.output_bytes"] = sum(o["output_bytes"] for p in traced for o in p["ops"]) / len(traced)
    layers["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - statistics.median(
        p["wall_s"] for p in plain
    )
    return layers


def unexpected_failures(ops) -> list:
    """The failed checks of the ops that no known defect accounts for; the
    run is correct only when there are none."""
    return sorted({f"{o['op']}: {why}" for o in ops for why in o["unexpected"]})


def _with_units(values: dict, declared: list) -> dict:
    """Attach the units BENCHMARK.json declares; the names must match it."""
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    return {name: {"value": values[name], "unit": units[name]} for name in sorted(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ptspec", "cli.py")):
        sys.stderr.write(f"no ptspec sources under {ROOT}/src: run from the root of a ptspec checkout\n")
        return 2

    # Unwind on SIGTERM, so that the running worker is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    allowed = sorted(os.sched_getaffinity(0))
    tmpdir = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(tmpdir, exist_ok=True)
    try:
        record = _run_workers(args, tmpdir, allowed)
    except (RuntimeError, OSError, ValueError) as err:
        sys.stderr.write(f"benchmark run failed: {err}\n")
        return 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        parent = os.path.dirname(tmpdir)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.trace:
        metrics = _with_units(_per_layer(record), bench["per_layer"])
    else:
        values, record["unscaled"] = _end_to_end(record)
        metrics = _with_units(values, bench["end_to_end"])
    ops = [o for p in record["passes"] for o in p["ops"]]
    unexpected = unexpected_failures(ops)
    plain = [p for p in record["passes"] if not p["traced"]]
    record["samples"] = {"setup_s": SETUPS, "wall_s": len(plain), "op_p50_s": sum(len(p["ops"]) for p in plain)}
    record["unexpected_failures"] = unexpected
    print(json.dumps({"record": record, "metrics": metrics}, sort_keys=True))
    result = {
        "correct": not unexpected,
        "attempted": len(ops),
        "failed": sum(o["failed"] for o in ops),
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
