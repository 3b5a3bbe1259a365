"""Case table, seeded op lists and answer checks for the ptspec benchmark.

Every workload is a fixed list of cases.  A case names one operation (a
CLI command or a library solve) and a short list of coupling choices; the
run's seed draws where each case starts in its choices and successive
passes step through them, so the same seed always gives the same inputs.
Each choice has reference values committed in ``refs.json`` (written by
``make_refs.py``):

* ``truth``: the fine-grid oracle levels of the spec on the op's domain,
  Richardson-extrapolated and kept only where the extrapolation converged
  (empty for the Manning-Rosen PT form, whose potential has poles on the
  real axis, so none converges);
* ``resolved_below``: when the truth holds every level below the continuum
  threshold, the energy below which the op's domain resolves a bound state
  (the threshold minus kappa (2 pi / width)^2); a level claimed below it
  where the oracle finds none counts as a wrong answer;
* ``recorded``: where nothing else is known (the Manning-Rosen PT form),
  the closed-form levels of the commit the references were written from;
* for ``profile``, sampled potential values of that commit.

Checks parse the JSON and compare numbers within the tolerances below, so
new output fields and last-bit float changes pass.  Every check of an op
runs, and each miss is a Problem.  Known defects stay in the op lists and
count as failed ops.  Each case's ``defect`` names the checks it fails (the
levels and eigenfunctions it gets wrong); only those problems are expected.
Any other problem, on any op, makes the run incorrect.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
REFS_PATH = os.path.join(HERE, "refs.json")

# Closed-form energies and pipeline roots against the converged oracle levels.
ENERGY_RTOL = 1e-4
# Oracle levels at the op's own N against the converged levels: the O(h^2)
# discretization error of the coarsest grid used (N=800) stays below this.
ORACLE_RTOL = 2e-3
# Profile samples against the recorded values.
PROFILE_RTOL = 1e-9

WORKLOADS = ("verify-real", "verify-complex", "pipeline", "cli-cold")
# Workloads whose timed work is pure Python (the NU scan, cold imports):
# their wall_s and op_p50_s are scaled to the reference speed (speed.py).
# The verify workloads are dense LAPACK solves, whose time does not follow
# the loop's: scaled, they were no steadier or less steady.
SPEED_SCALED = ("pipeline", "cli-cold")
# Levels n = 0..PIPELINE_N_MAX per pipeline op.
PIPELINE_N_MAX = 5


@dataclass(frozen=True)
class Defect:
    """A known defect of ptspec, and the checks of an op that it fails.

    The claimed levels n in ``levels`` miss the oracle, and eigenfunction
    assembly fails for the levels in ``wf``.  Any other failed check of the
    op is not the defect's and makes the run incorrect: another level, the
    oracle's own levels, an exception, a bad exit code.
    """

    what: str
    levels: tuple = ()
    wf: tuple = ()

    def covers(self, problem) -> bool:
        return problem.n in {"level": self.levels, "wf": self.wf}.get(problem.check, ())


@dataclass(frozen=True)
class Case:
    """One operation of a workload's op list.

    kind is "verify", "spectrum", "trace" or "profile" (one CLI command,
    argv formatted with the drawn choice) or "pipeline" (one library solve
    of the spec built from ``spec`` and the drawn choice).  A case puts
    ``per_pass`` successive choices into each pass.
    """

    id: str
    kind: str
    choices: tuple
    argv: str = ""
    spec: dict = field(default_factory=dict)
    defect: Defect | None = None
    per_pass: int = 1


_A_TRIG = ({"A": -1.8}, {"A": -1.9}, {"A": -2.0}, {"A": -2.1}, {"A": -2.2})
_A_MR_DEEP = ({"A": -38.0}, {"A": -39.0}, {"A": -40.0}, {"A": -41.0}, {"A": -42.0})
_AB_MR_PT = ({"A": 0.9, "B": 0.9}, {"A": 1.0, "B": 1.0}, {"A": 1.1, "B": 1.1})
_MR_3C = Defect("3c: the published Manning-Rosen bracket misses the oracle bound states", levels=(0, 1, 2))
_A2_TRIG_NONPT = ({"A2": 2.8}, {"A2": 2.9}, {"A2": 3.0}, {"A2": 3.1}, {"A2": 3.2})
_TRIG_NONPT_DEFECT = Defect(
    "non-PT trig: the closed form keeps giving levels past n + 1/2 = sqrt(1/4 + A2/q); the oracle has one",
    levels=(2, 3),
)

CASES = {
    # Dense eigvalsh dominates: three real-symmetric solves per verify.
    "verify-real": (
        Case("trig-scarf", "verify", _A_TRIG, argv="verify --family trig-scarf --A {A} --N 3000 --n-max 3"),
        Case(
            "hyp-blind-spot",
            "verify",
            ({"V2": -2.8}, {"V2": -2.9}, {"V2": -3.0}, {"V2": -3.1}, {"V2": -3.2}),
            argv="verify --family hyperbolic-scarf --V0 0 --V1 4 --V2 {V2} --q 1 --L 14 --N 2000 --n-max 3",
            defect=Defect(
                "hyperbolic V2!=0 branch blind spot: the closed form keeps the zeta1 level and adds a spurious one",
                levels=(0, 2, 3),
            ),
        ),
        Case(
            "fig2-pt",
            "verify",
            ({"V": 0.9}, {"V": 1.0}, {"V": 1.1}),
            argv="verify --family hyperbolic-scarf --variant pt --V0 1 --V1 {V} --V2 {V} --q 1 --N 2000 --n-max 3",
            defect=Defect(
                "hyperbolic PT at q=1: the closed form is not the spectrum of the cosine form the oracle solves",
                levels=(0, 1, 2, 3),
            ),
        ),
        Case(
            "mr-deep",
            "verify",
            _A_MR_DEEP,
            argv="verify --family manning-rosen --A {A} --B 2 --q 1 --L 16 --N 2000 --n-max 3",
            defect=_MR_3C,
        ),
    ),
    # Dense general eigvals and the O(n^2) conjugation check dominate.
    "verify-complex": (
        Case(
            "fig5-mr-pt",
            "verify",
            _AB_MR_PT,
            argv="verify --family manning-rosen --variant pt --A {A} --B {B} --q 1 --N 800 --n-max 3",
        ),
        Case(
            "fig7-mr-nonpt",
            "verify",
            ({"A": 0.9}, {"A": 1.0}, {"A": 1.1}),
            argv="verify --family manning-rosen --variant nonpt --A {A} --B {A} --q 1 --N 800 --n-max 3",
            defect=Defect("non-PT Manning-Rosen: the closed form misses the oracle level", levels=(0,)),
        ),
        Case(
            "trig-nonpt",
            "verify",
            _A2_TRIG_NONPT,
            argv="verify --family trig-scarf --variant nonpt --A1 0 --A2 {A2} --q 2 --N 800 --n-max 3",
            defect=_TRIG_NONPT_DEFECT,
        ),
    ),
    # NU pipeline only: seeded secant (trig, hyperbolic) against the
    # 385-point scan (Manning-Rosen), plus eigenfunction assembly per level.
    "pipeline": (
        Case("trig-scarf", "pipeline", _A_TRIG, spec={"family": "trig-scarf"}),
        Case(
            "hyp-v1",
            "pipeline",
            ({"V1": 5.6}, {"V1": 5.8}, {"V1": 6.0}, {"V1": 6.2}, {"V1": 6.4}),
            spec={"family": "hyperbolic-scarf", "V0": 0.0, "V2": 0.0, "q": 1.0},
            defect=Defect(
                "hyperbolic Base: levels below V0+V1 where the oracle has none; assemble raises NonIntegrableWeight",
                levels=(0, 1, 3, 4, 5),
                wf=(0, 1, 2, 3, 4, 5),
            ),
        ),
        Case(
            "mr-deep",
            "pipeline",
            _A_MR_DEEP,
            spec={"family": "manning-rosen", "B": 2.0, "q": 1.0},
            # Every choice in every pass: each pass then does the same scan
            # work whatever the seed, and the median op is a scan, not a
            # ~10 ms secant solve, whose time is mostly timer noise.
            per_pass=5,
            defect=Defect(
                "Manning-Rosen deep well: roots for n>=3 repeat lower levels; assemble raises NonIntegrableWeight",
                levels=(3, 4, 5),
                wf=(3, 4, 5),
            ),
        ),
    ),
    # Fresh `python -m ptspec.cli` processes: cold import dominates.
    "cli-cold": (
        Case("spectrum-trig", "spectrum", _A_TRIG, argv="spectrum --family trig-scarf --A {A} --alpha 1 --n-max 3"),
        Case("spectrum-mr-pt", "spectrum", _AB_MR_PT, argv="spectrum --family manning-rosen --variant pt --q 1 --A {A} --B {B}"),
        Case(
            "spectrum-trig-nonpt",
            "spectrum",
            _A2_TRIG_NONPT,
            argv="spectrum --family trig-scarf --variant nonpt --A1 0 --A2 {A2} --q 2 --n-max 3",
            defect=_TRIG_NONPT_DEFECT,
        ),
        Case(
            "spectrum-mr-deep",
            "spectrum",
            _A_MR_DEEP,
            argv="spectrum --family manning-rosen --A {A} --B 2 --q 1 --n-max 3",
            defect=_MR_3C,
        ),
        Case(
            "trace-hyp",
            "trace",
            ({"V1": 4.5}, {"V1": 5.0}, {"V1": 5.5}),
            argv="trace --family hyperbolic-scarf --V0 0 --V1 {V1} --V2 0 --q 1",
            defect=Defect(
                "hyperbolic Base: the n=0 root lies below V0+V1, where the oracle has no bound state",
                levels=(0,),
            ),
        ),
        Case("trace-trig", "trace", _A_TRIG, argv="trace --family trig-scarf --A {A} --n 1"),
        Case(
            "profile",
            "profile",
            tuple({"preset": f"fig{k}"} for k in range(1, 9)),
            argv="profile --preset {preset} --format csv",
        ),
    ),
}


@dataclass(frozen=True)
class Op:
    """One drawn operation: a case with its choice index and concrete input."""

    case: Case
    choice: int
    argv: tuple = ()
    spec: dict = field(default_factory=dict)

    @property
    def key(self) -> str:
        return f"{self.case.id}#{self.choice}"


def _fmt(value) -> str:
    return repr(float(value)) if isinstance(value, (int, float)) else str(value)


def make_op(case: Case, choice: int) -> Op:
    params = case.choices[choice]
    if case.kind == "pipeline":
        return Op(case, choice, spec={**case.spec, **params})
    argv = tuple(case.argv.format(**{k: _fmt(v) for k, v in params.items()}).split())
    return Op(case, choice, argv=argv)


def pipeline_spec(op: Op):
    """The PotentialSpec a pipeline op solves."""
    from ptspec.potentials import Family, PotentialSpec

    return PotentialSpec(**dict(op.spec, family=Family(op.spec["family"])))


def op_list(workload: str, seed: int, pass_index: int = 0) -> list[Op]:
    """The workload's ops for one pass, ``per_pass`` per case.

    The seed draws each case's first choice; pass k starts k * per_pass
    choices after it, so a run of many passes covers every choice about
    equally.
    The work an op does varies with its couplings (the NU scan builds
    3,600 to 4,150 forms across the Manning-Rosen choices), and one choice
    per run would make the seed, not the program, move the figures.
    """
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for c in CASES[workload]:
        start = rng.randrange(len(c.choices)) + pass_index * c.per_pass
        ops.extend(make_op(c, (start + j) % len(c.choices)) for j in range(c.per_pass))
    return ops


def load_refs() -> dict:
    with open(REFS_PATH) as fh:
        return json.load(fh)


def ref_key(workload: str, op: Op) -> str:
    return f"{workload}/{op.key}"


# ---------------------------------------------------------------- checks


@dataclass(frozen=True)
class Problem:
    """One failed check of an op.

    check is "level" (a claimed level n misses the oracle), "oracle" (the
    oracle's own level n misses the converged level), "wf" (eigenfunction
    assembly of level n failed) or "op" (the op raised, exited 1 or 3, or
    printed output that does not parse; n is None).
    """

    check: str
    n: int | None
    text: str

    def __str__(self) -> str:
        return self.text


def _c(obj) -> complex:
    return complex(obj["re"], obj["im"])


def _close(z: complex, ref: complex, rtol: float) -> bool:
    return abs(z - ref) <= rtol * max(abs(ref), 1.0)


def check_levels(levels: dict, ref: dict) -> list[Problem]:
    """Compare claimed levels {n: E_n} with the references; one Problem per
    level that misses.

    Level n must match truth[n], the n-th converged oracle level sorted by
    real part.  When the truth holds every level below the continuum
    threshold, a level beyond it must not lie where the domain would
    resolve it.  Where no oracle level converged, ``recorded`` holds the
    closed-form levels of the commit the references were written from.
    """
    truth = [complex(*t) for t in ref["truth"]]
    below = ref["resolved_below"]
    recorded = {n: complex(re_v, im_v) for n, re_v, im_v in ref.get("recorded", ())}
    problems = []
    for n in sorted(levels):
        e = levels[n]
        finite = math.isfinite(e.real) and math.isfinite(e.imag)
        if n < len(truth):
            if not finite or not _close(e, truth[n], ENERGY_RTOL):
                problems.append(Problem("level", n, f"level {n}: {e:.6g} vs oracle {truth[n]:.6g}"))
        elif below is not None and e.real < below:
            why = f"level {n}: {e:.6g} is a bound state below {below:.6g}, where the oracle has none"
            problems.append(Problem("level", n, why))
        elif n in recorded and (not finite or not _close(e, recorded[n], ENERGY_RTOL)):
            problems.append(Problem("level", n, f"level {n}: {e:.6g} vs recorded {recorded[n]:.6g}"))
    return problems


def check_verify(out: dict, ref: dict) -> list[Problem]:
    levels = {p["n"]: _c(p["formula"]) for p in out["match"]["pairs"]}
    levels.update({u["n"]: _c(u["formula"]) for u in out["match"]["unmatched_formula"]})
    problems = [Problem(p.check, p.n, "formula " + p.text) for p in check_levels(levels, ref)]
    truth = [complex(*t) for t in ref["truth"]]
    if not truth:
        return problems
    finest = [_c(lv["finest"]) for lv in out["convergence"]["levels"]]
    for i, (lam, t) in enumerate(zip(finest, truth)):
        if not _close(lam, t, ORACLE_RTOL):
            problems.append(Problem("oracle", i, f"oracle level {i}: {lam:.6g} vs converged {t:.6g}"))
    top = max(t.real for t in truth)
    for p in out["match"]["pairs"]:
        lam = _c(p["oracle"])
        if lam.real < top and not any(_close(lam, t, ORACLE_RTOL) for t in truth):
            why = f"oracle level {lam:.6g} matched to n={p['n']} is no converged level"
            problems.append(Problem("oracle", p["n"], why))
    return problems


def check_cli(op: Op, code: int, stdout: str, ref: dict) -> list[Problem]:
    """The checks the CLI op fails; an empty list when its answer is right.

    Exit 1 (usage) and 3 (non-convergence) fail; a verify exit 2 is a
    result, not a failure.
    """
    kind = op.case.kind
    if code not in (0, 2) or (code == 2 and kind != "verify"):
        return [Problem("op", None, f"exit code {code}")]
    try:
        if kind == "profile":
            rows = [line.split(",") for line in stdout.strip().splitlines()[1:]]
            problems = [] if len(rows) == ref["rows"] else [
                Problem("op", None, f"{len(rows)} profile rows, expected {ref['rows']}")
            ]
            for i, x, re_v, im_v in ref["samples"]:
                got = [float(v) for v in rows[i]]
                if not all(_close(complex(g), complex(r), PROFILE_RTOL) for g, r in zip(got, (x, re_v, im_v))):
                    problems.append(Problem("op", None, f"profile row {i}: {rows[i]} vs {(x, re_v, im_v)}"))
            return problems
        out = json.loads(stdout)
        if kind == "verify":
            return check_verify(out, ref)
        if kind == "spectrum":
            return check_levels({e["n"]: complex(e["re"], e["im"]) for e in out["entries"]}, ref)
        if kind == "trace":
            return check_levels({out["notes"]["n"]: _c(out["notes"]["energy"])}, ref)
    except (ValueError, KeyError, IndexError, TypeError) as err:
        return [Problem("op", None, f"unreadable output: {type(err).__name__}: {err}")]
    raise ValueError(f"unknown op kind {kind}")


def unexpected(op: Op, problems: list[Problem]) -> list[Problem]:
    """The problems that the op's known defect does not account for."""
    defect = op.case.defect
    return [p for p in problems if defect is None or not defect.covers(p)]
