import json
import math

import numpy as np
import pytest

from ptspec import oracle, spectra
from ptspec.cli import main
from ptspec.potentials import PotentialSpec, default_domain


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSpectrumCommand:
    def test_reference_levels(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--family", "trig-scarf", "--A", "-2", "--alpha", "1", "--n-max", "3")
        assert code == 0
        d = json.loads(out)
        assert [e["re"] for e in d["entries"]] == [4, 9, 16, 25]

    def test_pt_manning_rosen_flag(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--family", "manning-rosen", "--variant", "pt", "--q", "1", "--A", "1", "--B", "1"
        )
        assert code == 0
        assert json.loads(out)["reality_flag"] == "all-real"

    def test_nonpt_trig_verdict(self, capsys):
        code, out, _ = run(
            capsys,
            "spectrum",
            "--family",
            "trig-scarf",
            "--variant",
            "nonpt",
            "--A1",
            "0",
            "--A2",
            "3",
            "--q",
            "2",
        )
        assert code == 0
        d = json.loads(out)
        assert d["conditions"]["verdict"] is True

    def test_strict_warning_exit(self, capsys):
        code, _, err = run(
            capsys, "spectrum", "--family", "trig-scarf", "--variant", "pt", "--A", "1", "--strict"
        )
        assert code == 2
        assert "condition warnings" in err

    def test_csv_projection(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--family", "trig-scarf", "--A", "-2", "--n-max", "1", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[0] == "n,re_E,im_E"

    def test_missing_family_is_usage_error(self, capsys):
        code, _, err = run(capsys, "spectrum", "--A", "-2")
        assert code == 1
        assert "--family" in err

    def test_missing_parameter_names_flag(self, capsys):
        code, _, err = run(capsys, "spectrum", "--family", "manning-rosen", "--q", "1", "--A", "1")
        assert code == 1
        assert "B" in err


class TestProfileCommand:
    @pytest.mark.parametrize("preset", [f"fig{k}" for k in range(1, 9)])
    def test_presets_emit_pole_free_csv(self, capsys, preset):
        code, out, _ = run(capsys, "profile", "--preset", preset, "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,re_V,im_V"
        body = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert body.shape[0] >= 300
        assert np.all(np.isfinite(body))

    def test_fig1_caption_parameters(self, capsys):
        code, out, _ = run(capsys, "profile", "--preset", "fig1")
        d = json.loads(out)
        p = d["spec"]["params"]
        assert (p["V0"]["re"], p["V1"]["re"], p["V2"]["re"], p["q"], p["alpha"]) == (10, 15, 10, 10, 1)

    def test_fig4_caption_parameters(self, capsys):
        code, out, _ = run(capsys, "profile", "--preset", "fig4")
        p = json.loads(out)["spec"]["params"]
        assert (p["A"]["re"], p["B"]["re"], p["q"], p["alpha"]) == (10, 1, -4, 1)

    def test_fig5_has_imaginary_part(self, capsys):
        code, out, _ = run(capsys, "profile", "--preset", "fig5", "--format", "csv")
        body = [ln.split(",") for ln in out.strip().splitlines()[1:]]
        ims = np.array([float(r[2]) for r in body])
        assert np.max(np.abs(ims)) > 0.1

    def test_constant_zero_profile(self, capsys):
        code, out, _ = run(
            capsys, "profile", "--family", "trig-scarf", "--A", "0", "--N", "60", "--format", "csv"
        )
        assert code == 0
        body = [ln.split(",") for ln in out.strip().splitlines()[1:]]
        assert all(float(r[1]) == 0.0 and float(r[2]) == 0.0 for r in body)

    def test_pole_without_skip_errors(self, capsys):
        # Manning-Rosen PT at q=1 has poles at multiples of pi; a 3-point
        # grid on [0, 2 pi] puts its single interior node exactly at pi
        argv = [
            "profile", "--family", "manning-rosen", "--variant", "pt",
            "--q", "1", "--A", "1", "--B", "1",
            "--x-min", "0", "--x-max", str(2 * math.pi), "--N", "51",
        ]
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "--skip-poles" in err
        code2, out, _ = run(capsys, *argv, "--skip-poles", "--format", "csv")
        assert code2 == 0
        assert len(out.strip().splitlines()) >= 40


class TestTraceCommand:
    def test_trig_trace(self, capsys):
        code, out, _ = run(capsys, "trace", "--family", "trig-scarf", "--A", "-2")
        assert code == 0
        d = json.loads(out)
        assert d["chosen_k"] == {"re": 2.0, "im": 0.0}
        assert d["tau_slope"] == {"re": -5.0, "im": 0.0}
        assert len(d["branches"]) == 4

    def test_hyperbolic_aux(self, capsys):
        code, out, _ = run(
            capsys, "trace", "--family", "hyperbolic-scarf", "--V0", "0", "--V1", "5", "--V2", "0", "--q", "1"
        )
        assert code == 0
        d = json.loads(out)
        assert set(d["aux"]) == {"zeta1", "zeta2", "mu"}

    def test_synthetic_fixture_exits_3(self, capsys, tmp_path):
        form = {
            "sigma": [{"re": 1, "im": 0}, {"re": 0, "im": 0}, {"re": 1, "im": 0}],
            "tau_tilde": [{"re": 0, "im": 0}, {"re": 1, "im": 0}, {"re": 0, "im": 0}],
            "sigma_tilde": [{"re": 0, "im": 0}, {"re": 0, "im": 0}, {"re": 0.25, "im": 0}],
        }
        path = tmp_path / "form.json"
        path.write_text(json.dumps(form))
        code, out, _ = run(capsys, "trace", "--form-json", str(path))
        assert code == 3
        d = json.loads(out)
        assert d["error"] == "NoAdmissibleBranch"
        assert len(d["branches"]) == 4
        assert all(b["rejection"] for b in d["branches"])


class TestVerifyCommand:
    def test_trig_reference(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--family", "trig-scarf", "--A", "-2", "--N", "600", "--n-max", "3"
        )
        assert code == 0
        d = json.loads(out)
        assert len(d["match"]["pairs"]) == 4
        assert max(p["rel_err"] for p in d["match"]["pairs"]) < 1e-3
        assert d["conjugation"]["closed"] is True

    def test_pt_repulsive_reports_unmatched(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--family", "trig-scarf", "--variant", "pt", "--A", "1", "--N", "400", "--n-max", "2"
        )
        assert code == 0
        d = json.loads(out)
        assert len(d["match"]["pairs"]) == 0
        assert len(d["match"]["unmatched_formula"]) == 3

    def test_pt_hyperbolic_conjugation_closed(self, capsys):
        # the closed form for this variant is complex-valued while the
        # grid spectrum is real, so the bound check trips (exit 2), but the
        # conjugation report must come out closed
        code, out, _ = run(
            capsys, "verify", "--family", "hyperbolic-scarf", "--variant", "pt",
            "--V0", "1", "--V1", "1", "--V2", "1", "--q", "1", "--N", "300", "--L", "6", "--n-max", "2",
        )
        d = json.loads(out)
        assert d["conjugation"]["closed"] is True
        assert code in (0, 2)

    @pytest.mark.parametrize(
        "argv",
        [
            ("--family", "trig-scarf", "--A", "-2", "--N", "300", "--n-max", "3"),
            (
                "--family", "hyperbolic-scarf", "--variant", "pt",
                "--V0", "1", "--V1", "1", "--V2", "1", "--q", "1", "--N", "300", "--L", "6", "--n-max", "2",
            ),
        ],
        ids=["trig-base", "hyperbolic-pt"],
    )
    def test_matched_oracle_is_a_fresh_dense_solve(self, capsys, argv):
        # verify matches against the convergence study's finest grid; its
        # levels must be bit for bit those of a fresh dense solve of that grid
        _, out, _ = run(capsys, "verify", *argv)
        d = json.loads(out)
        spec = PotentialSpec.from_dict(d["spec"])
        L = float(argv[argv.index("--L") + 1]) if "--L" in argv else 12.0
        eigs = oracle.eigen_complex_dense(oracle.discretize(spec, default_domain(spec, L=L), d["N"]))
        entries = spectra.closed_form_spectrum(spec, int(argv[argv.index("--n-max") + 1])).entries
        fresh = oracle.match_levels(entries, eigs, oracle.continuum_threshold(spec)).to_dict()
        assert d["match"]["pairs"]
        assert json.dumps(d["match"], sort_keys=True) == json.dumps(fresh, sort_keys=True)


class TestDeterminismAndRoundTrip:
    def test_identical_bytes(self, capsys):
        argv = ["spectrum", "--family", "trig-scarf", "--A", "-2", "--n-max", "4"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_spec_roundtrip(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "spectrum", "--family", "manning-rosen", "--variant", "nonpt",
            "--A1", "0", "--A2", "349.5", "--B1", "-174.75", "--q", "1", "--n-max", "3",
        )
        spec_dict = json.loads(out)["spec"]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_dict, sort_keys=True, separators=(",", ":")))
        code2, out2, _ = run(capsys, "spectrum", "--spec-json", str(path), "--n-max", "3")
        assert code2 == 0
        assert json.loads(out2)["spec"] == spec_dict
        assert json.loads(out2)["entries"] == json.loads(out)["entries"]

    def test_out_file_written_atomically(self, capsys, tmp_path):
        dest = tmp_path / "res.json"
        code, _, _ = run(capsys, "spectrum", "--family", "trig-scarf", "--A", "-2", "--out", str(dest))
        assert code == 0
        assert json.loads(dest.read_text())["entries"][0]["re"] == 4.0
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".ptspec-")]
        assert not leftovers


def test_spectrum_trace_and_profile_do_not_load_scipy():
    # only verify needs the oracle, and with it scipy.linalg
    import subprocess
    import sys

    script = """
import contextlib, io, sys
import ptspec.cli
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (
        ["spectrum", "--family", "trig-scarf", "--A", "-2"],
        ["trace", "--family", "manning-rosen", "--A", "-40", "--B", "2", "--q", "1"],
        ["profile", "--preset", "fig1", "--format", "csv"],
    ):
        assert ptspec.cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
