"""Byte-exact CLI outputs, kept as golden files under tests/golden/.

The cases are every figure preset and README `spectrum` example, a deep
Manning-Rosen well, the PT and q-deformed PT closed forms, a `profile` of
every family/variant pair, `trace` runs of each family (for Manning-Rosen,
levels past the deep well's last bound state too), a NoAdmissibleBranch
exit and the `--form-json` fixture, and `verify` runs
over real-symmetric grids (trig Scarf, hyperbolic PT at q = 1, the deep
Manning-Rosen well) and a complex one (the fig7 non-PT Manning-Rosen).
Each case stores its stdout bytes (`<name>.out`) and its exit code
(`exit_codes.json`).
`test_family_facts` pins the quantization domain, the wall and the continuum
threshold of each family/variant pair as literal values.

Regenerate only for an intended output change, and say so where the change
is recorded:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ptspec.cli import main
from ptspec.oracle import continuum_threshold
from ptspec.families import variant_form
from ptspec.potentials import DomainKind, Family, PotentialSpec, Variant, default_domain

GOLDEN = Path(__file__).parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"
# sigma = s^2 + 1, tau_tilde = s, sigma_tilde = s^2/4: all four branches have Re(tau') > 0
NO_BRANCH_FORM = GOLDEN / "no_admissible_form.json"

_TRIG = ["--family", "trig-scarf", "--A", "-2"]
_HYP_BLIND_SPOT = ["--family", "hyperbolic-scarf", "--V0", "0", "--V1", "4", "--V2", "-3", "--q", "1"]
_MR_DEEP = ["--family", "manning-rosen", "--A", "-40", "--B", "2", "--q", "1"]
_TRIG_PT = ["--family", "trig-scarf", "--variant", "pt", "--A", "-2"]
_TRIG_QPT = ["--family", "trig-scarf", "--variant", "qpt", "--A", "-2", "--q", "2"]
_HYP_PT = ["--family", "hyperbolic-scarf", "--variant", "pt", "--V0", "1", "--V1", "1", "--V2", "1"]
# one profile per family/variant pair; hyperbolic PT in its cosine (q = 1)
# and its ratio (q = 2) form
_PROFILES = {
    "trig_base": _TRIG,
    "trig_pt": _TRIG_PT,
    "trig_qpt_q2": _TRIG_QPT,
    "trig_nonpt": ["--family", "trig-scarf", "--variant", "nonpt", "--A1", "0", "--A2", "3", "--q", "2"],
    "hyp_base": ["--family", "hyperbolic-scarf", "--V0", "10", "--V1", "15", "--V2", "10", "--q", "10"],
    "hyp_pt_q1": [*_HYP_PT, "--q", "1"],
    "hyp_pt_q2": [*_HYP_PT, "--q", "2"],
    "hyp_nonpt": [
        "--family", "hyperbolic-scarf", "--variant", "nonpt", "--V0", "10", "--V1", "15", "--V2", "10", "--q", "10",
    ],
    "mr_base": _MR_DEEP,
    "mr_pt": ["--family", "manning-rosen", "--variant", "pt", "--A", "1", "--B", "1", "--q", "1"],
    "mr_nonpt": ["--family", "manning-rosen", "--variant", "nonpt", "--A", "1", "--B", "1", "--q", "1"],
}

CASES = {
    **{f"spectrum_fig{i}": ["spectrum", "--preset", f"fig{i}"] for i in range(1, 9)},
    "spectrum_readme_trig": ["spectrum", *_TRIG, "--alpha", "1", "--n-max", "3"],
    "spectrum_readme_mr_pt": [
        "spectrum", "--family", "manning-rosen", "--variant", "pt", "--q", "1", "--A", "1", "--B", "1",
    ],
    "spectrum_readme_trig_nonpt": [
        "spectrum", "--family", "trig-scarf", "--variant", "nonpt", "--A1", "0", "--A2", "3", "--q", "2",
    ],
    "spectrum_mr_deep": ["spectrum", *_MR_DEEP],
    "spectrum_trig_pt": ["spectrum", *_TRIG_PT],
    "spectrum_trig_qpt_q2": ["spectrum", *_TRIG_QPT],
    "spectrum_hyp_pt_q2": ["spectrum", *_HYP_PT, "--q", "2"],
    **{f"profile_{name}": ["profile", *argv, "--N", "50"] for name, argv in _PROFILES.items()},
    "trace_readme_hyp": ["trace", "--family", "hyperbolic-scarf", "--V0", "0", "--V1", "5", "--V2", "0", "--q", "1"],
    **{f"trace_trig_n{n}": ["trace", *_TRIG, "--n", str(n)] for n in range(4)},
    **{f"trace_hyp_blind_spot_n{n}": ["trace", *_HYP_BLIND_SPOT, "--n", str(n)] for n in range(3)},
    **{f"trace_mr_deep_n{n}": ["trace", *_MR_DEEP, "--n", str(n)] for n in range(6)},
    "trace_fig4_n0": ["trace", "--preset", "fig4", "--n", "0"],
    "trace_no_admissible_form": ["trace", "--form-json", str(NO_BRANCH_FORM)],
    "verify_trig": ["verify", *_TRIG, "--N", "600"],
    "verify_hyp_pt_q1": ["verify", *_HYP_PT, "--q", "1", "--L", "6", "--N", "300"],
    "verify_mr_deep": ["verify", *_MR_DEEP, "--L", "16", "--N", "400"],
    "verify_fig7": ["verify", "--preset", "fig7", "--N", "400"],
}


def run_case(name: str) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(CASES[name]))
    return code, buf.getvalue().encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_golden(name):
    code, out = run_case(name)
    assert code == json.loads(EXIT_CODES.read_text())[name]
    assert out == (GOLDEN / f"{name}.out").read_bytes()


def test_verify_bytes_do_not_depend_on_blas_threads():
    # the complex oracle makes no BLAS call, so a second BLAS thread must not
    # move the last bits of a level
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-m", "ptspec.cli", *CASES["verify_fig7"]], env=env, capture_output=True, timeout=300
        )
        assert proc.stdout == (GOLDEN / "verify_fig7.out").read_bytes(), f"OPENBLAS_NUM_THREADS={threads}"


def test_every_golden_file_has_a_case():
    stored = {p.stem for p in GOLDEN.glob("*.out")}
    assert stored == set(CASES)
    assert set(json.loads(EXIT_CODES.read_text())) == set(CASES)


_HALF, _FULL, _CELL = DomainKind.HalfLine, DomainKind.FullLine, DomainKind.FiniteInterval
_LN2_2 = 0.34657359027997264  # ln(2)/2, the wall of sinh_q at q = 2
_LN10_2 = 1.151292546497023  # ln(10)/2

# spec, then (kind, left, right, L) of default_domain, the wall and
# continuum_threshold
FAMILY_FACTS = {
    "trig-base": (dict(family=Family.TrigScarf, A=-2.0), (_CELL, 0.0, math.pi, None), 0.0, math.inf),
    "trig-pt": (dict(family=Family.TrigScarf, variant=Variant.PT, A=-2.0), (_HALF, 0.0, 12.0, 12.0), 0.0, 0.0),
    "trig-qpt": (
        dict(family=Family.TrigScarf, variant=Variant.QDeformedPT, A=-2.0, q=2.0),
        (_HALF, _LN2_2, 12.346573590279972, 12.0),
        _LN2_2,
        0.0,
    ),
    "trig-nonpt": (
        dict(family=Family.TrigScarf, variant=Variant.NonPT, A=3j, q=2.0), (_FULL, -12.0, 12.0, 12.0), None, 0.0
    ),
    "hyp-base": (
        dict(family=Family.HyperbolicScarf, V0=10.0, V1=15.0, V2=10.0, q=10.0),
        (_HALF, _LN10_2, 13.151292546497023, 12.0),
        _LN10_2,
        25.0,
    ),
    "hyp-pt": (
        dict(family=Family.HyperbolicScarf, variant=Variant.PT, V0=1.0, V1=1.0, V2=1.0, q=2.0),
        (_FULL, -12.0, 12.0, 12.0),
        None,
        math.inf,
    ),
    "hyp-nonpt": (
        dict(family=Family.HyperbolicScarf, variant=Variant.NonPT, V0=10.0, V1=15 + 15j, V2=10 + 10j, q=10.0),
        (_FULL, -12.0, 12.0, 12.0),
        None,
        25.0,
    ),
    "mr-base": (
        dict(family=Family.ManningRosen, A=-40.0, B=2.0, q=2.0),
        (_HALF, _LN2_2, 12.346573590279972, 12.0),
        _LN2_2,
        -40.0,
    ),
    "mr-base-negative-q": (
        dict(family=Family.ManningRosen, A=10.0, B=1.0, q=-4.0), (_FULL, -12.0, 12.0, 12.0), None, 10.0
    ),
    "mr-pt": (
        dict(family=Family.ManningRosen, variant=Variant.PT, A=1.0, B=1.0, q=1.0),
        (_HALF, 0.0, 12.0, 12.0),
        0.0,
        math.inf,
    ),
    "mr-pt-q2": (
        dict(family=Family.ManningRosen, variant=Variant.PT, A=1.0, B=1.0, q=2.0),
        (_FULL, -12.0, 12.0, 12.0),
        None,
        math.inf,
    ),
    "mr-nonpt": (
        dict(family=Family.ManningRosen, variant=Variant.NonPT, A=1 + 1j, B=1 + 1j, q=1.0),
        (_FULL, -12.0, 12.0, 12.0),
        None,
        -1.0,
    ),
}


@pytest.mark.parametrize("name", sorted(FAMILY_FACTS))
def test_family_facts(name):
    kw, domain, wall, threshold = FAMILY_FACTS[name]
    spec = PotentialSpec(**kw)
    d = default_domain(spec)
    assert (d.kind, d.left, d.right, d.L) == domain
    assert variant_form(spec).wall(spec) == wall
    assert continuum_threshold(spec) == threshold


if __name__ == "__main__":
    codes = {}
    for case in sorted(CASES):
        codes[case], stdout = run_case(case)
        (GOLDEN / f"{case}.out").write_bytes(stdout)
    EXIT_CODES.write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(codes)} golden cases to {GOLDEN}\n")
