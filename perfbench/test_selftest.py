"""Self-test of the benchmark.  From the repository root:

    python3 -m pytest perfbench -q

The traced-run tests start the benchmark twice per workload and take about
three minutes in all.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import cases  # noqa: E402
import compare  # noqa: E402
import run as bench_run  # noqa: E402
import speed  # noqa: E402

# Counts that depend only on the inputs, so two traced runs of one seed
# must give them exactly.
DETERMINISTIC = (
    "oracle.eigensolve.calls",
    "oracle.eigensolve.rows",
    "nu.build_form.calls",
    "potentials.evaluate.points",
    "cli.import.modules",
)


def _run(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=300)


def _outcomes(passes, traced):
    return [[(o["op"], o["failed"], o["why"]) for o in p["ops"]] for p in passes if p["traced"] is traced]


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_traced_counts_repeat_and_tracing_keeps_answers(workload):
    metrics = []
    for _ in range(2):
        proc = _run(workload, 7, 1)
        assert proc.returncode == 0, proc.stderr
        *_, full, last = proc.stdout.strip().splitlines()
        result = json.loads(last)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], json.loads(full)["record"]["unexpected_failures"]
        passes = json.loads(full)["record"]["passes"]
        plain, traced = _outcomes(passes, False), _outcomes(passes, True)
        assert plain and traced
        assert all(p == plain[0] for p in plain + traced)
        metrics.append(result["metrics"])
    for name in DETERMINISTIC:
        assert metrics[0][name]["value"] == metrics[1][name]["value"], name


def test_same_seed_same_inputs_and_every_choice_has_references():
    refs = cases.load_refs()
    for workload in cases.WORKLOADS:
        assert cases.op_list(workload, 3, 2) == cases.op_list(workload, 3, 2)
        for case in cases.CASES[workload]:
            for choice in range(len(case.choices)):
                assert cases.ref_key(workload, cases.make_op(case, choice)) in refs


def test_level_checks_catch_wrong_and_spurious_levels():
    ref = cases.load_refs()["pipeline/mr-deep#2"]
    truth = {n: complex(*t) for n, t in enumerate(ref["truth"])}
    assert cases.check_levels(truth, ref) == []
    assert cases.check_levels({0: truth[0] * (1 + 1e-3)}, ref)
    assert cases.check_levels({3: truth[2]}, ref)  # a bound state the oracle does not have
    assert cases.check_levels({3: complex(ref["resolved_below"] + 0.01)}, ref) == []


def test_recorded_levels_are_checked_where_nothing_converged():
    ref = cases.load_refs()["verify-complex/fig5-mr-pt#1"]
    assert not ref["truth"] and ref["resolved_below"] is None
    recorded = {n: complex(re_v, im_v) for n, re_v, im_v in ref["recorded"]}
    assert cases.check_levels(recorded, ref) == []
    assert cases.check_levels({1: recorded[1] * (1 + 1e-3)}, ref)


@pytest.fixture
def runner(tmp_path, monkeypatch):
    """A benchmark Runner in this process, as worker.py makes one."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    import worker

    def make(workload):
        return worker, worker.Runner(workload, 1, str(tmp_path))

    return make


def _run_case(run, case_id):
    """Run the first op of the case; return its record and the verdict."""
    i = next(k for k, op in enumerate(run.ops) if op.case.id == case_id)
    rec = run.run_op(i)
    return rec, bench_run.unexpected_failures([rec])


def test_wrong_oracle_level_under_a_known_defect_makes_the_run_incorrect(runner, monkeypatch):
    worker, run = runner("verify-complex")
    rec, unexpected = _run_case(run, "fig7-mr-nonpt")
    assert rec["failed"] and not unexpected  # the known formula defect only

    real = worker._run_cli_inprocess

    def shifted_oracle(argv):
        code, out = real(argv)
        out = json.loads(out)
        out["convergence"]["levels"][0]["finest"]["re"] *= 1.01
        return code, json.dumps(out)

    monkeypatch.setattr(worker, "_run_cli_inprocess", shifted_oracle)
    rec, unexpected = _run_case(run, "fig7-mr-nonpt")
    assert any("oracle level 0" in why for why in unexpected), rec


def test_wrong_root_below_a_known_defect_makes_the_run_incorrect(runner, monkeypatch):
    worker, run = runner("pipeline")
    rec, unexpected = _run_case(run, "mr-deep")
    assert rec["failed"] and not unexpected  # roots n >= 3 only

    real = worker.nu_engine.solve_spectrum_numeric

    def shifted_root(spec, n_max):
        res = real(spec, n_max)
        res.entries[0] = (0, res.entries[0][1] * (1 + 1e-3))
        return res

    monkeypatch.setattr(worker.nu_engine, "solve_spectrum_numeric", shifted_root)
    rec, unexpected = _run_case(run, "mr-deep")
    assert any("level 0" in why for why in unexpected), rec


def test_an_op_that_raises_anything_is_an_unexpected_failure(runner, monkeypatch):
    worker, run = runner("pipeline")

    def broken(spec, n_max):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(worker.nu_engine, "solve_spectrum_numeric", broken)
    rec, unexpected = _run_case(run, "mr-deep")
    assert rec["failed"] and any("ZeroDivisionError" in why for why in unexpected)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("pipeline", 1, 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_refuses_different_fingerprints(tmp_path):
    def record(cpu):
        fp = {"nproc": 2, "cpu": cpu, "blas_threads": "1"}
        return json.dumps({"record": {"workload": "pipeline", "fingerprint": fp},
                           "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}})

    base, same, other = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    base.write_text(record("x") + "\n")
    same.write_text(record("x") + "\n")
    other.write_text(record("y") + "\n")
    assert compare.main([str(base), str(same)]) == 0
    assert compare.main([str(base), str(other)]) == 2


def test_pure_python_times_are_scaled_by_the_speed_loop():
    # The loop ran at half the reference speed: pipeline times halve, and
    # verify times stay as measured; each set-up sample has its own loop time.
    ref = speed.REFERENCE_S
    ops = [{"latency_s": t, "ref_s": 2 * ref, "failed": False} for t in (1.0, 2.0, 3.0)]
    def record(workload):
        return {"workload": workload, "passes": [{"traced": False, "wall_s": 6.0, "ops": ops}],
                "peak_rss_mb": 80.0, "setup_s_samples": [1.0, 1.0, 1.0], "setup_ref_s": [ref, 2 * ref, 4 * ref]}

    scaled, unscaled = bench_run._end_to_end(record("pipeline"))
    assert (scaled["wall_s"], scaled["op_p50_s"], scaled["setup_s"]) == (3.0, 1.0, 0.5)
    assert (unscaled["wall_s"], unscaled["op_p50_s"], unscaled["setup_s"]) == (6.0, 2.0, 1.0)
    plain, _ = bench_run._end_to_end(record("verify-real"))
    assert (plain["wall_s"], plain["op_p50_s"], plain["setup_s"]) == (6.0, 2.0, 0.5)
