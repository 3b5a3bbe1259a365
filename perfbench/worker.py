"""One fresh interpreter of a benchmark run: set up, then run the timed phase.

    python perfbench/worker.py --workload W --seed S --seconds T --trace 0|1 [--setup-only]

Set-up is import, case generation and one warm-up solve; the worker prints
READY when it is done, so the caller can time a fresh interpreter's start to
ready.  The timed phase then runs the workload's op list in passes until
--seconds have elapsed (at least one pass).  With --trace 1, untraced and
traced passes alternate, so tracing overhead is measured in the same
process.  Before each op the worker times speed.reference_s, the
machine's speed at that moment; that time is not in the op's latency.  The
last stdout line is the JSON record of the phase.

The caller sets PYTHONPATH to the checkout's src and pins the BLAS pool.
"""

import sys
import time

# Cold import of the CLI layer first, before anything else loads modules.
_t0 = time.perf_counter()
_m0 = len(sys.modules)
import ptspec.cli  # noqa: E402

CLI_IMPORT_S = time.perf_counter() - _t0
CLI_IMPORT_MODULES = len(sys.modules) - _m0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

from ptspec import nu_engine, wavefunctions  # noqa: E402
from ptspec.errors import PtspecError  # noqa: E402
from ptspec.potentials import default_domain  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import cases  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
COLD_TIMEOUT_S = 60


def _run_cli_inprocess(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = ptspec.cli.main(list(argv))
    return code, out.getvalue()


class Runner:
    """Runs and checks the ops of one workload; records spans when traced."""

    def __init__(self, workload: str, seed: int, tmpdir: str):
        self.workload = workload
        self.seed = seed
        self.all_refs = cases.load_refs()
        self.set_pass(0)
        self.tmpdir = tmpdir
        self.tracer = None
        self.span_lists = []  # one per traced pass (or per traced child process)
        self.cold_imports = []  # (import_s, modules) of traced cold children

    def set_pass(self, index: int) -> None:
        self.ops = cases.op_list(self.workload, self.seed, index)
        self.refs = [self.all_refs[cases.ref_key(self.workload, op)] for op in self.ops]

    # -- one op --------------------------------------------------------
    def _pipeline(self, op, ref):
        spec = cases.pipeline_spec(op)
        res = nu_engine.solve_spectrum_numeric(spec, cases.PIPELINE_N_MAX)
        domain = default_domain(spec)
        problems = cases.check_levels(dict(res.entries), ref)
        for (n, _), trace in zip(res.entries, res.traces):
            try:
                wavefunctions.normalize(wavefunctions.assemble(spec, trace, n), domain)
            except PtspecError as err:
                problems.append(cases.Problem("wf", n, f"wavefunction {n}: {type(err).__name__}: {err}"))
        return problems, 0

    def _cold(self, op, ref):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "ptspec.cli", *op.argv]
            spans_path = None
        else:
            fd, spans_path = tempfile.mkstemp(dir=self.tmpdir, suffix=".json")
            os.close(fd)
            cmd = [sys.executable, os.path.join(HERE, "cold_cli.py"), spans_path, *op.argv]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=COLD_TIMEOUT_S)
        if spans_path is not None:
            with open(spans_path) as fh:
                child = json.load(fh)
            os.unlink(spans_path)
            self.span_lists.append(child["spans"])
            self.cold_imports.append((child["import_s"], child["modules"]))
        return cases.check_cli(op, proc.returncode, proc.stdout, ref), len(proc.stdout.encode())

    def _inprocess(self, op, ref):
        code, out = _run_cli_inprocess(op.argv)
        return cases.check_cli(op, code, out, ref), len(out.encode())

    def run_op(self, i: int) -> dict:
        op, ref = self.ops[i], self.refs[i]
        if self.tracer is not None:
            self.tracer.op_id = i
        # The machine's speed now, timed outside the op's latency.
        ref_s = speed.reference_s()
        t0 = time.perf_counter()
        try:
            if op.case.kind == "pipeline":
                problems, nbytes = self._pipeline(op, ref)
            elif self.workload == "cli-cold":
                problems, nbytes = self._cold(op, ref)
            else:
                problems, nbytes = self._inprocess(op, ref)
        except Exception as err:  # whatever an op raises (a cold child's timeout too), it failed
            problems, nbytes = [cases.Problem("op", None, f"raised {type(err).__name__}: {err}")], 0
        latency = time.perf_counter() - t0
        return {
            "op": op.key,
            "latency_s": latency,
            "ref_s": ref_s,
            "failed": bool(problems),
            "why": [str(p) for p in problems],
            "unexpected": [str(p) for p in cases.unexpected(op, problems)],
            "output_bytes": nbytes,
        }

    # -- passes --------------------------------------------------------
    def run_pass(self, traced: bool) -> dict:
        if traced:
            self.tracer = tracer.Tracer()
            self.tracer.install()
        try:
            ops = [self.run_op(i) for i in range(len(self.ops))]
        finally:
            if traced:
                self.tracer.uninstall()
                self.span_lists.append(self.tracer.spans)
                self.tracer = None
        # The pass's wall time is that of its ops, without the speed loops.
        return {"wall_s": sum(o["latency_s"] for o in ops), "traced": traced, "ops": ops}

    def warm_up(self) -> None:
        op = self.ops[0]
        if op.case.kind == "pipeline":
            nu_engine.solve_spectrum_numeric(cases.pipeline_spec(op), 0)
        elif self.workload == "cli-cold":
            subprocess.run(
                [sys.executable, "-m", "ptspec.cli", *op.argv], capture_output=True, timeout=COLD_TIMEOUT_S
            )
        else:
            argv = list(op.argv)
            argv[argv.index("--N") + 1] = "300"
            _run_cli_inprocess(argv)


def fingerprint(blas_threads: str) -> dict:
    import numpy
    import platform
    import scipy

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            names = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = names[0] if names else cpu
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmpdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    # Unwind on SIGTERM, so that a running cold CLI child is killed too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    runner = Runner(args.workload, args.seed, args.tmpdir)
    runner.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    passes = []
    t0 = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        # A traced run repeats one op list, so that its counts repeat exactly.
        runner.set_pass(0 if args.trace else len(passes))
        passes.append(runner.run_pass(traced))
        if time.perf_counter() - t0 >= args.seconds and (not args.trace or len(passes) >= 2):
            break
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "fingerprint": fingerprint(os.environ.get("OPENBLAS_NUM_THREADS", "")),
        "passes": passes,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "cli_import": [(CLI_IMPORT_S, CLI_IMPORT_MODULES)] + runner.cold_imports,
    }
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        record["layers"] = tracer.summarize(runner.span_lists, len(traced))
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
