"""Byte-exact CLI outputs, kept as golden files under tests/golden/.

The cases are every figure preset and README `spectrum` example, a deep
Manning-Rosen well, and `trace` runs that cover the seeded path, the scan
path (Manning-Rosen, whose closed-form seed has the wrong sign), a
NoAdmissibleBranch exit and the `--form-json` fixture.  Each case stores its
stdout bytes (`<name>.out`) and its exit code (`exit_codes.json`).

Regenerate only for an intended output change, and say so where the change
is recorded:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from ptspec.cli import main

GOLDEN = Path(__file__).parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"
# sigma = s^2 + 1, tau_tilde = s, sigma_tilde = s^2/4: all four branches have Re(tau') > 0
NO_BRANCH_FORM = GOLDEN / "no_admissible_form.json"

_TRIG = ["--family", "trig-scarf", "--A", "-2"]
_HYP_BLIND_SPOT = ["--family", "hyperbolic-scarf", "--V0", "0", "--V1", "4", "--V2", "-3", "--q", "1"]
_MR_DEEP = ["--family", "manning-rosen", "--A", "-40", "--B", "2", "--q", "1"]

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
    "trace_readme_hyp": ["trace", "--family", "hyperbolic-scarf", "--V0", "0", "--V1", "5", "--V2", "0", "--q", "1"],
    **{f"trace_trig_n{n}": ["trace", *_TRIG, "--n", str(n)] for n in range(4)},
    **{f"trace_hyp_blind_spot_n{n}": ["trace", *_HYP_BLIND_SPOT, "--n", str(n)] for n in range(3)},
    **{f"trace_mr_deep_n{n}": ["trace", *_MR_DEEP, "--n", str(n)] for n in range(6)},
    "trace_fig4_n0": ["trace", "--preset", "fig4", "--n", "0"],
    "trace_no_admissible_form": ["trace", "--form-json", str(NO_BRANCH_FORM)],
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


def test_every_golden_file_has_a_case():
    stored = {p.stem for p in GOLDEN.glob("*.out")}
    assert stored == set(CASES)
    assert set(json.loads(EXIT_CODES.read_text())) == set(CASES)


if __name__ == "__main__":
    codes = {}
    for case in sorted(CASES):
        codes[case], stdout = run_case(case)
        (GOLDEN / f"{case}.out").write_bytes(stdout)
    EXIT_CODES.write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(codes)} golden cases to {GOLDEN}\n")
