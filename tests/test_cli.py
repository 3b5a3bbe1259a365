import json
import math
from pathlib import Path

import numpy as np
import pytest

from ptspec import oracle, spectra
from ptspec.cli import main, make_parser
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

    @pytest.mark.parametrize("flag", ["--A1", "--A2", "--B1", "--B2"])
    def test_split_coupling_needs_the_nonpt_variant(self, capsys, flag):
        # a coupling given as real and imaginary parts is read only for the
        # non-PT form, whose couplings are complex
        argv = ["spectrum", "--family", "manning-rosen", "--A", "1", "--B", "1", "--q", "2", flag, "0.5"]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"usage error: {flag[:3]}1/{flag[:3]}2 need --variant nonpt\n"

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("A", ["--family", "trig-scarf", "--A", "5", "--A1", "0", "--A2", "3", "--q", "2"]),
            ("B", ["--family", "manning-rosen", "--A1", "1", "--A2", "1", "--B", "7", "--B1", "1", "--B2", "1", "--q", "1"]),
        ],
    )
    def test_real_coupling_beside_its_split_parts_is_refused(self, capsys, name, argv):
        # the split parts replace the real coupling, which would be dropped
        code, out, err = run(capsys, "spectrum", "--variant", "nonpt", *argv, "--n-max", "0")
        assert code == 1 and out == ""
        assert err == f"usage error: --{name} is not read beside --{name}1/--{name}2\n"

    def test_negative_level_count_is_an_error(self, capsys):
        code, out, err = run(capsys, "spectrum", "--family", "trig-scarf", "--A", "-2", "--n-max", "-1")
        assert code == 1 and out == ""
        assert err == "error: n_max must be >= 0\n"

    @pytest.mark.parametrize(
        "flags",
        [
            ("--mass", "0"),
            ("--hbar", "0"),
            ("--period", "0"),
            ("--mass", "-1"),
            ("--A", "nan"),
            ("--alpha", "inf"),
            ("--q", "nan"),
        ],
        ids=" ".join,
    )
    def test_bad_numbers_are_usage_errors(self, capsys, flags):
        # these once raised ZeroDivisionError, or printed NaN/Infinity JSON and exited 0
        argv = ["spectrum", "--family", "trig-scarf", "--A", "-2", *flags]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: ")


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

    @pytest.mark.parametrize("given", [("--x-min", "0.5"), ("--x-max", "2.5"), ("--x-min", "2", "--x-max", "1")])
    def test_window_needs_both_ends_in_order(self, capsys, given):
        code, out, err = run(capsys, "profile", "--family", "trig-scarf", "--A", "-2", *given)
        assert code == 1 and out == ""
        assert err == "usage error: --x-min and --x-max must both be given with x_max > x_min\n"


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

    def test_negative_level_is_refused(self, capsys):
        code, out, err = run(capsys, "trace", "--family", "trig-scarf", "--A", "-2", "--n", "-1")
        assert code == 1
        assert out == ""
        assert err == "error: level n must be >= 0\n"

    def test_hyperbolic_negative_q_is_refused(self, capsys):
        # sigma = s^2 - q and the weight's interval s > sqrt(q) assume q > 0;
        # the refusal names that instead of reporting no admissible branch
        code, out, err = run(
            capsys, "trace", "--family", "hyperbolic-scarf", "--V0", "0", "--V1", "4", "--V2", "1", "--q", "-4"
        )
        assert code == 1
        assert out == ""
        assert err == (
            "error: the hyperbolic Scarf reduction (sigma = s^2 - q on s > sqrt(q)) assumes q > 0, got q = -4\n"
        )

    def test_trace_reads_no_closed_form(self, capsys, monkeypatch):
        argv = ("trace", "--family", "manning-rosen", "--A", "-40", "--B", "2", "--q", "1", "--n", "2")
        before = run(capsys, *argv)

        def forbidden(spec, n_max):
            raise AssertionError("trace read the closed form")

        monkeypatch.setattr(spectra, "closed_form_spectrum", forbidden)
        assert run(capsys, *argv) == before


class TestVerifyCommand:
    def test_grid_on_a_pole_is_a_singular_evaluation(self, capsys):
        # Manning-Rosen PT at q = 1 has poles at multiples of pi; with
        # L = 4 pi both grids of the study (N = 199, 399) put a node on pi.
        # Exit 1, named as a singular evaluation, not as a generic error
        argv = ["verify", "--family", "manning-rosen", "--variant", "pt", "--q", "1", "--A", "1", "--B", "1"]
        code, out, err = run(capsys, *argv, "--L", repr(4 * math.pi), "--N", "399", "--n-max", "2")
        assert code == 1 and out == ""
        assert err.startswith("singular evaluation: grid touches a pole")

    def test_unconverged_eigensolve_exits_3(self, capsys, monkeypatch):
        # one Ehrlich-Aberth sweep leaves the complex grid's roots
        # unconverged: QRNotConverged, exit 3
        monkeypatch.setattr(oracle, "_ABERTH_SWEEPS", 1)
        code, out, err = run(capsys, "verify", "--preset", "fig7", "--N", "100", "--n-max", "2")
        assert code == 3 and out == ""
        assert err.startswith("non-convergence: Ehrlich-Aberth:")

    def test_trig_reference(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--family", "trig-scarf", "--A", "-2", "--N", "600", "--n-max", "3"
        )
        assert code == 0
        d = json.loads(out)
        assert len(d["match"]["pairs"]) == 4
        assert max(p["rel_err"] for p in d["match"]["pairs"]) < 1e-3
        assert d["conjugation"]["closed"] is True

    def test_repeated_grid_size_is_an_error(self, capsys):
        # --N 50 makes the study's grids [50, 50]; that once printed NaN
        # (not JSON) and exited 0
        code, out, err = run(capsys, "verify", "--family", "trig-scarf", "--A", "-2", "--N", "50")
        assert code == 1
        assert out == ""
        assert "repeats a grid size" in err

    @pytest.mark.parametrize(
        "flags,why", [(("--N", "49"), "N must be >= 50"), (("--L", "0"), "right > left"), (("--L", "-3"), "right > left")]
    )
    def test_grid_too_small_or_empty_is_an_error(self, capsys, flags, why):
        argv = ["verify", "--family", "manning-rosen", "--A", "-40", "--B", "2", "--q", "1", *flags]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert why in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--family", "manning-rosen", "--A", "-40", "--B", "2", "--q", "1", "--L", "16", "--N", "400"),
            ("--family", "hyperbolic-scarf", "--variant", "pt", "--V0", "1", "--V1", "1", "--V2", "1", "--q", "1",
             "--L", "6", "--N", "300"),
        ],
        ids=["mr-deep", "hyperbolic-pt"],
    )
    def test_bound_takes_the_matched_level_estimate(self, capsys, argv):
        # pairs come in formula order, tracked levels in eigenvalue order: in
        # the deep well n = 0 matches the third tracked level, and its bound
        # once took the first level's estimate (17.38 instead of 1.618)
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 2
        d = json.loads(out)
        levels = d["convergence"]["levels"]
        est = {(lv["finest"]["re"], lv["finest"]["im"]): lv["err_estimate"] for lv in levels}
        bounds = {f["n"]: f["bound"] for f in d["failures"]}
        assert len(bounds) == len(d["match"]["pairs"])
        for p in d["match"]["pairs"]:
            lam = complex(p["oracle"]["re"], p["oracle"]["im"])
            e = est.get((lam.real, lam.imag), levels[-1]["err_estimate"])
            assert bounds[p["n"]] == max(10.0 * e, 1e-3 * max(abs(lam), 1.0))

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
    def test_matched_oracle_is_a_fresh_solve(self, capsys, argv):
        # verify matches against a window of the convergence study's finest
        # grid, solved by bisection.  Against a fresh dsterf solve of the
        # whole grid it makes the same (n, formula) pairs and unmatched
        # formula levels, with eigenvalues within 8 eps ||H||_max, and its
        # unmatched eigenvalues are that match's, cut to the window
        _, out, _ = run(capsys, "verify", *argv)
        d = json.loads(out)
        got = d["match"]
        spec = PotentialSpec.from_dict(d["spec"])
        L = float(argv[argv.index("--L") + 1]) if "--L" in argv else 12.0
        H = oracle.discretize(spec, default_domain(spec, L=L), d["N"])
        assert H.is_real
        eigs = oracle.eigen_complex_dense(H)
        energies = spectra.closed_form_spectrum(spec, int(argv[argv.index("--n-max") + 1])).energies()
        fresh = oracle.match_levels(list(enumerate(energies)), eigs, oracle.continuum_threshold(spec)).to_dict()
        assert got["pairs"]
        assert [(p["n"], p["formula"]) for p in got["pairs"]] == [(p["n"], p["formula"]) for p in fresh["pairs"]]
        assert got["unmatched_formula"] == fresh["unmatched_formula"]
        top, more = oracle._covering_window(energies)
        window = max(6, int(np.sum(eigs.real <= top)) + more)
        assert len(got["pairs"]) + len(got["unmatched_oracle"]) == window < H.N
        tol = 8.0 * np.finfo(float).eps * (float(np.max(np.abs(H.diagonal))) + 2.0 * abs(H.offdiagonal))
        got_eigs = [p["oracle"] for p in got["pairs"]] + got["unmatched_oracle"]
        fresh_eigs = [p["oracle"] for p in fresh["pairs"]] + fresh["unmatched_oracle"][: len(got["unmatched_oracle"])]
        for a, b in zip(got_eigs, fresh_eigs, strict=True):
            assert abs(complex(a["re"], a["im"]) - complex(b["re"], b["im"])) <= tol


    @pytest.mark.parametrize("preset", ["fig3", "fig5", "fig7"])
    def test_complex_window_matches_as_the_whole_grid(self, capsys, monkeypatch, preset):
        # fig5 has no continuum threshold, fig7 one at -1, fig3 one at 25.
        # verify solves each complex grid for a window that its count proves;
        # a verify that solves every grid whole makes the same (n, formula)
        # pairs, tracked levels and unmatched formula levels, with
        # eigenvalues within 1e-10.  fig3's first-order starts miss its low
        # eigenvalues, so its coarse grid is solved whole, and its finest
        # window proved from the coarse grid's roots
        argv = ("verify", "--preset", preset, "--N", "800", "--n-max", "3")
        _, out, _ = run(capsys, *argv)
        got = json.loads(out)
        assert got["conjugation"]["below"] > got["convergence"]["levels"][-1]["finest"]["re"]
        solve = oracle.eigen_complex_dense
        monkeypatch.setattr(
            oracle,
            "eigen_complex_dense",
            lambda H, certify=True, window=None, starts=None, solves=None: solve(H, certify, solves=solves),
        )
        _, out, _ = run(capsys, *argv)
        whole = json.loads(out)
        conj = whole["conjugation"]
        assert "below" not in conj and conj["real_count"] + 2 * conj["pair_count"] + conj["unpaired"] == 800

        def close(a, b):
            a, b = complex(a["re"], a["im"]), complex(b["re"], b["im"])
            return abs(a - b) <= 1e-10 * max(abs(b), 1.0)

        pairs, ref = got["match"]["pairs"], whole["match"]["pairs"]
        assert pairs and [(p["n"], p["formula"]) for p in pairs] == [(p["n"], p["formula"]) for p in ref]
        assert all(close(p["oracle"], q["oracle"]) for p, q in zip(pairs, ref))
        assert got["match"]["unmatched_formula"] == whole["match"]["unmatched_formula"]
        levels, ref = got["convergence"]["levels"], whole["convergence"]["levels"]
        assert len(levels) == len(ref) > 0
        for lv, rf in zip(levels, ref):
            assert close(lv["finest"], rf["finest"]) and close(lv["extrapolated"], rf["extrapolated"])
            assert lv["flagged"] == rf["flagged"]

    @pytest.mark.parametrize("preset, grids", [("fig7", [200]), ("fig5", [200, 400])])
    def test_the_finest_window_starts_from_the_coarse_roots(self, capsys, monkeypatch, preset, grids):
        # fig7's finest window takes 20 starts, the coarse window's 20 roots,
        # so only the coarse grid takes first-order starts.  fig5's finest
        # window takes more starts than the coarse grid has roots, so it
        # takes first-order ones too
        grid_sizes = []
        start = oracle._aberth_start
        monkeypatch.setattr(oracle, "_aberth_start", lambda d, *args: grid_sizes.append(len(d)) or start(d, *args))
        run(capsys, "verify", "--preset", preset, "--N", "400")
        assert grid_sizes == grids

    def test_a_verify_does_not_depend_on_the_one_before(self, capsys):
        # the coarse roots travel as arguments, so no solve starts from a
        # previous call's grid
        fig7 = ("verify", "--preset", "fig7", "--N", "400")
        trig = ("verify", "--family", "trig-scarf", "--variant", "nonpt", "--A1", "0", "--A2", "3", "--q", "2")
        first = run(capsys, *fig7)
        run(capsys, *trig, "--N", "400")
        assert run(capsys, *fig7) == first


# the verify-real benchmark forms: argv, L of default_domain (None where
# the form's one finite cell fixes the domain)
_REAL_VERIFY = {
    "trig-scarf": (("--family", "trig-scarf", "--A", "-2"), None),
    "hyp-blind-spot": (("--family", "hyperbolic-scarf", "--V0", "0", "--V1", "4", "--V2", "-3", "--q", "1"), 14.0),
    "fig2-pt": (("--family", "hyperbolic-scarf", "--variant", "pt", "--V0", "1", "--V1", "1", "--V2", "1", "--q", "1"), 12.0),
    "mr-deep": (("--family", "manning-rosen", "--A", "-40", "--B", "2", "--q", "1"), 16.0),
}


@pytest.mark.parametrize("name", sorted(_REAL_VERIFY))
def test_real_grid_conjugation_is_that_of_the_full_spectrum(capsys, name):
    # verify no longer solves a real grid whole; its conjugation block, built
    # from N, must be what the scan of the full dsterf spectrum reports
    argv, L = _REAL_VERIFY[name]
    kw = {} if L is None else {"L": L}
    _, out, _ = run(capsys, "verify", *argv, *[f"--L={v}" for v in kw.values()], "--N", "1000", "--n-max", "3")
    d = json.loads(out)
    spec = PotentialSpec.from_dict(d["spec"])
    H = oracle.discretize(spec, default_domain(spec, **kw), 1000)
    assert H.is_real
    scan = oracle.conjugation_pair_check(oracle.eigen_complex_dense(H), tol=1e-8)
    assert d["conjugation"] == scan._asdict()


# every (command, flag) pair that all four commands once declared and this
# command never read: each is now a usage error instead of a silent no-op
_UNREAD_FLAGS = [
    ("spectrum", "--N", "300"), ("spectrum", "--L", "6"), ("spectrum", "--tol", "0.1"), ("spectrum", "--skip-poles"),
    ("verify", "--format", "csv"), ("verify", "--strict"), ("verify", "--skip-poles"),
    ("profile", "--n-max", "3"), ("profile", "--tol", "0.1"), ("profile", "--strict"),
    ("trace", "--n-max", "3"), ("trace", "--N", "300"), ("trace", "--L", "6"), ("trace", "--tol", "0.1"),
    ("trace", "--format", "csv"), ("trace", "--strict"), ("trace", "--skip-poles"),
]


@pytest.mark.parametrize("command,flag", [(c, f) for c, *f in _UNREAD_FLAGS], ids=map(" ".join, _UNREAD_FLAGS))
def test_unread_flag_is_a_usage_error(capsys, command, flag):
    code, out, err = run(capsys, command, "--family", "trig-scarf", "--A", "-2", *flag)
    assert code == 1
    assert out == ""
    assert err == f"usage error: unrecognized arguments: {' '.join(flag)}\n"


@pytest.mark.parametrize("command", ["spectrum", "verify"])
def test_a_flag_prefix_is_a_usage_error(capsys, command):
    # --n is trace's level flag; prefix matching once took it as --n-max
    code, out, err = run(capsys, command, "--family", "trig-scarf", "--A", "-2", "--n", "1")
    assert (code, out) == (1, "")
    assert err == "usage error: unrecognized arguments: --n 1\n"


# any JSON file: a flag is refused before it is read
_JSON = str(Path(__file__).parent / "golden" / "no_admissible_form.json")

# (argv, the flag its source replaces, the source): each was read and then
# dropped, so that the output did not change
_REPLACED_FLAGS = [
    (["spectrum", "--preset", "fig1", "--V1", "99"], "--V1", "--preset"),
    (["verify", "--preset", "fig7", "--variant=pt"], "--variant", "--preset"),
    (["spectrum", "--preset", "fig1", "--spec-json", _JSON], "--spec-json", "--preset"),
    (["profile", "--preset", "fig1", "--N", "100", "--L", "3"], "--N", "--preset"),
    (["profile", "--preset", "fig1", "--skip-poles"], "--skip-poles", "--preset"),
    (["trace", "--spec-json", _JSON, "--family", "trig-scarf"], "--family", "--spec-json"),
    (["trace", "--form-json", _JSON, "--n", "2"], "--n", "--form-json"),
    (["trace", "--form-json", _JSON, "--preset", "fig4"], "--preset", "--form-json"),
    (["spectrum", "--family", "trig-scarf", "--A", "-2", "--alpha", "2", "--period", "3"], "--alpha", "--period"),
    (
        ["profile", "--family", "trig-scarf", "--variant", "pt", "--A", "-2", "--L", "3", "--x-min", "1", "--x-max=2"],
        "--L",
        "--x-min",
    ),
]


@pytest.mark.parametrize("argv,flag,source", _REPLACED_FLAGS, ids=[f"{a[0]} {f} {s}" for a, f, s in _REPLACED_FLAGS])
def test_a_flag_beside_the_source_that_replaces_it_is_a_usage_error(capsys, argv, flag, source):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"usage error: {flag} is not read beside {source}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--preset", "fig7", "--N", "300", "--L", "3", "--n-max", "1", "--tol", "0.1"],
        ["profile", "--preset", "fig1", "--format", "csv", "--x-min", "1", "--x-max", "2"],
        ["spectrum", "--preset", "fig1", "--n-max", "2", "--format", "csv", "--strict"],
    ],
    ids=["verify", "profile", "spectrum"],
)
def test_the_flags_a_preset_leaves_are_read(capsys, argv, tmp_path):
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
    assert "usage error" not in err
    assert code in (0, 2)


@pytest.mark.parametrize("command", ["verify", "profile"])
def test_length_is_refused_for_a_form_on_one_cell(capsys, command):
    # trig Base lives on (0, pi/alpha), so --L was read and then dropped
    code, out, err = run(capsys, command, "--family", "trig-scarf", "--A", "-2", "--L", "6", "--N", "100")
    assert (code, out) == (1, "")
    assert err == "usage error: --L is not read for a form that lives on one finite cell\n"


@pytest.mark.parametrize("n", [1, 20])
def test_profile_samples_exactly_n_points(capsys, n):
    # --N below 50 was once raised to 50 without a word
    code, out, _ = run(capsys, "profile", "--family", "trig-scarf", "--A", "-2", "--N", str(n))
    assert code == 0 and len(json.loads(out)["samples"]) == n


def test_profile_of_no_points_is_refused(capsys):
    code, out, err = run(capsys, "profile", "--family", "trig-scarf", "--A", "-2", "--N", "0")
    assert (code, out, err) == (1, "", "usage error: --N must be >= 1\n")


@pytest.mark.parametrize("tol", ["-1", "-0.5", "nan"])
def test_a_negative_or_nan_tol_is_refused(capsys, tol):
    # both once acted as --tol 0 and exited 0
    code, out, err = run(capsys, "verify", "--family", "trig-scarf", "--A", "-2", "--N", "200", "--tol", tol)
    assert (code, out, err) == (1, "", "usage error: --tol must be >= 0\n")


class TestDeterminismAndRoundTrip:
    def test_identical_bytes(self, capsys):
        argv = ["spectrum", "--family", "trig-scarf", "--A", "-2", "--n-max", "4"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_the_parser_is_built_once(self):
        assert make_parser() is make_parser()

    def test_a_usage_error_leaves_the_next_verify_as_it_was(self, capsys):
        # the parser outlives each call, so a parse that failed half way
        # must leave nothing behind for the next one
        argv = ("verify", "--family", "trig-scarf", "--A", "-2", "--N", "200", "--n-max", "3")
        first = run(capsys, *argv)
        assert first[0] == 0
        assert run(capsys, "verify", "--family", "trig-scarf", "--A", "-2", "--N", "x", "--n", "1")[0] == 1
        assert run(capsys, *argv) == first

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

    def test_period_sets_alpha(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--family", "trig-scarf", "--A", "-2", "--period", "3", "--n-max", "1")
        assert code == 0
        d = json.loads(out)
        assert (d["spec"]["params"]["alpha"], d["spec"]["params"]["period"]) == (math.pi / 3.0, 3.0)
        ka2 = (math.pi / 3.0) ** 2
        assert [e["re"] for e in d["entries"]] == pytest.approx([ka2 * (n + 0.5 + math.sqrt(0.25 + 2 / ka2)) ** 2 for n in (0, 1)])

    def test_spec_json_alpha_must_be_pi_over_period(self, capsys, tmp_path):
        argv = ["spectrum", "--family", "trig-scarf", "--A", "-2", "--period", "3", "--n-max", "1"]
        _, out, _ = run(capsys, *argv)
        spec_dict = json.loads(out)["spec"]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_dict))
        assert run(capsys, "spectrum", "--spec-json", str(path), "--n-max", "1") == (0, out, "")
        spec_dict["params"]["alpha"] = 5.0
        path.write_text(json.dumps(spec_dict))
        assert run(capsys, "spectrum", "--spec-json", str(path)) == (
            1,
            "",
            "error: alpha = 5.0 is not pi/period = 1.0471975511965976 for period = 3.0\n",
        )

    def test_out_file_written_atomically(self, capsys, tmp_path):
        dest = tmp_path / "res.json"
        code, _, _ = run(capsys, "spectrum", "--family", "trig-scarf", "--A", "-2", "--out", str(dest))
        assert code == 0
        assert json.loads(dest.read_text())["entries"][0]["re"] == 4.0
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".ptspec-")]
        assert not leftovers


def test_spectrum_trace_and_profile_do_not_load_scipy():
    # spectrum and trace run on the standard library alone, without
    # dataclasses or inspect; profile adds NumPy; only verify needs the
    # oracle, which loads SciPy's LAPACK extension from its file, with no
    # scipy.linalg package, no scipy._lib and no numpy.f2py
    import subprocess
    import sys

    script = """
import contextlib, io, sys
import ptspec.cli
from ptspec.cli import _PRESETS

def loaded(*tops):
    return sorted(m for m in sys.modules if m.split(".")[0] in tops)

trig = ["spectrum", "--family", "trig-scarf", "--A", "-2", "--q", "2", "--variant"]
with contextlib.redirect_stdout(io.StringIO()):
    assert loaded("numpy", "dataclasses", "inspect") == [], "import ptspec.cli"
    for argv in (
        *(["spectrum", "--preset", p] for p in sorted(_PRESETS)),
        *(trig + [v] for v in ("base", "pt", "qpt", "nonpt")),
        ["spectrum", "--preset", "fig7", "--format", "csv"],
    ):
        assert ptspec.cli.main(argv) == 0, argv
    assert loaded("numpy", "dataclasses", "inspect") == [], "spectrum"
    for argv in (
        ["trace", "--family", "manning-rosen", "--A", "-40", "--B", "2", "--q", "1"],
        ["profile", "--preset", "fig1", "--format", "csv"],
    ):
        assert ptspec.cli.main(argv) == 0, argv
    assert loaded("scipy") == [], "trace and profile"
    assert ptspec.cli.main(["verify", "--family", "trig-scarf", "--A", "-2", "--N", "400"]) == 0
    heavy = ("scipy.linalg", "scipy._lib", "numpy.f2py")
    assert [m for m in loaded("scipy", "numpy") if ".".join(m.split(".")[:2]) in heavy] == [], "verify"
print("ok")
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
    # the module entry point itself, as a user runs it
    argv = [sys.executable, "-X", "importtime", "-m", "ptspec.cli", "spectrum", "--preset", "fig3"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")]
    assert "ptspec.spectra" in imported
    assert [m for m in imported if m.split(".")[0] in ("numpy", "dataclasses", "inspect")] == []


def test_trace_does_not_load_numpy():
    # the NU engine works on tuples of Python complex numbers and its records
    # are NamedTuples, so a trace of each family, of a preset and of a raw
    # form runs without NumPy, dataclasses or inspect
    import subprocess
    import sys

    form = Path(__file__).parent / "golden" / "no_admissible_form.json"
    script = f"""
import contextlib, io, sys
import ptspec.cli

with contextlib.redirect_stdout(io.StringIO()):
    for argv, code in (
        (["trace", "--family", "trig-scarf", "--A", "-2", "--n", "1"], 0),
        (["trace", "--family", "hyperbolic-scarf", "--V0", "0", "--V1", "4", "--V2", "-3", "--q", "1"], 0),
        (["trace", "--family", "manning-rosen", "--A", "-40", "--B", "2", "--q", "1", "--n", "2"], 0),
        (["trace", "--preset", "fig4", "--n", "1"], 0),
        (["trace", "--form-json", {str(form)!r}], 3),
    ):
        assert ptspec.cli.main(argv) == code, argv
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "dataclasses", "inspect"))) or "ok")
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
    # the module entry point itself, as a user runs it
    argv = [sys.executable, "-X", "importtime", "-m", "ptspec.cli", "trace", "--family", "trig-scarf", "--A", "-2"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")]
    assert "ptspec.nu_engine" in imported
    assert [m for m in imported if m.split(".")[0] in ("numpy", "dataclasses", "inspect")] == []
