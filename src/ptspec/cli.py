"""Command-line entry point.

Commands, each with its own flags.  All four also read the spec flags
(--family --variant --A/--A1/--A2 --B/--B1/--B2 --V0 --V1 --V2 --alpha --q
--period --hbar --mass --preset --spec-json) and --out, by full name only.
They refuse any other flag, and a flag given beside the source that replaces
it: a spec flag beside --preset or --spec-json, --spec-json or profile's --N
--L --skip-poles beside --preset, any flag but --out beside --form-json,
--alpha beside --period, --A beside --A1/--A2, --B beside --B1/--B2, and
--L beside --x-min/--x-max or for a form that lives on one finite cell
(trig Scarf Base), whose walls fix the domain:
  spectrum   closed-form energies for a potential spec
             --n-max --format --strict
  verify     formula-vs-oracle level matching with a convergence bound, by
             `oracle.verify_levels`
             --n-max --N --L --tol
  profile    potential values (CSV) at --N points, incl. the fig1..fig8 presets
             --N --L --format --skip-poles --x-min --x-max
  trace      derivation record (all four branch candidates) as JSON
             --n --form-json

Exit codes: 0 success, 1 usage error, 2 condition warnings under --strict,
3 numerical non-convergence.  JSON is the canonical format; CSV is a
projection.  Outputs are deterministic (sorted keys, no timestamps) and
written atomically.

Dependencies: `spectrum` and `trace` run on the standard library alone and
load no NumPy; `profile` loads NumPy; `verify` loads NumPy and SciPy's
LAPACK extension alone, not the `scipy.linalg` package.  Each command
imports what it needs when it runs.

Potential-spec JSON schema (accepted by --spec-json and embedded in every
output under "spec"): {"family": str, "variant": str, "params": {"A"|"B"|
"V0"|"V1"|"V2": {"re": float, "im": float}|null, "alpha": float,
"q": float|null, "period": float|null}, "constants": {"mass": float,
"hbar": float}}.  Complex values always use the {re, im} pair.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile

from . import spectra
from .errors import NoAdmissibleBranch, PtspecError, QRNotConverged, SingularityError
from .core_math import LowPoly, canonical_json, complex_json
from .families import FAMILIES, Family, Variant
from .potentials import DomainKind, DomainSpec, PotentialSpec, apply_variant, default_domain, evaluate_grid

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_CONDITION = 2
_EXIT_NONCONVERGED = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise _UsageError(message)


_PROFILE_POINTS = 400  # samples in the profile of every preset
_MR_PT = dict(family=Family.ManningRosen, variant=Variant.PT, A=1.0, B=1.0, q=1.0, alpha=1.0)
_MR_NONPT = dict(family=Family.ManningRosen, variant=Variant.NonPT, A=1.0 + 1j, B=1.0 + 1j, q=1.0, alpha=1.0)

# fig1..fig8 presets: caption parameter sets, with the profile window L
_PRESETS = {
    "fig1": (dict(family=Family.HyperbolicScarf, V0=10.0, V1=15.0, V2=10.0, q=10.0, alpha=1.0), 6.0),
    "fig2": (
        dict(family=Family.HyperbolicScarf, variant=Variant.PT, V0=1.0, V1=1.0, V2=1.0, q=1.0, alpha=1.0),
        6.0,
    ),
    "fig3": (
        dict(
            family=Family.HyperbolicScarf,
            variant=Variant.NonPT,
            V0=10.0,
            V1=15.0 * (1 + 1j),
            V2=10.0 * (1 + 1j),
            q=10.0,
            alpha=1.0,
        ),
        4.0,
    ),
    "fig4": (dict(family=Family.ManningRosen, A=10.0, B=1.0, q=-4.0, alpha=1.0), 3.0),
    "fig5": (_MR_PT, 6.0),
    "fig6": (_MR_PT, 6.0),
    "fig7": (_MR_NONPT, 3.0),
    "fig8": (_MR_NONPT, 3.0),
}


def _add_shared(p: argparse.ArgumentParser):
    p.add_argument("--family", choices=[f.value for f in Family])
    p.add_argument("--variant", choices=[v.value for v in Variant], default="base")
    for coupling in ("A", "A1", "A2", "B", "B1", "B2", "V0", "V1", "V2"):
        p.add_argument(f"--{coupling}", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--period", type=float)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--mass", type=float, default=0.5)
    p.add_argument("--out")
    p.add_argument("--preset", choices=sorted(_PRESETS))
    p.add_argument("--spec-json", help="load the potential spec from a JSON file")


# every flag that only some commands read; make_parser names the commands
_OWN_FLAGS = {
    "--n-max": dict(type=int, default=10),
    "--N": dict(type=int, default=3000),
    "--L": dict(type=float, default=12.0),
    "--tol": dict(type=float, default=1e-3),
    "--format": dict(choices=["json", "csv"], default="json"),
    "--strict": dict(action="store_true"),
    "--skip-poles": dict(action="store_true"),
    "--x-min": dict(type=float),
    "--x-max": dict(type=float),
    "--n": dict(type=int, default=0),
    "--form-json": dict(help="trace a raw (sigma, tau_tilde, sigma_tilde) triple"),
}


def _build_spec(args) -> PotentialSpec:
    if args.preset:
        return PotentialSpec(**_PRESETS[args.preset][0])
    if args.spec_json:
        with open(args.spec_json) as fh:
            return PotentialSpec.from_json(fh.read())
    if not args.family:
        raise _UsageError("--family is required (or use --preset/--spec-json)")
    family = Family(args.family)
    variant = Variant(args.variant)
    form = FAMILIES[family].variants.get(variant)

    def split(re_v, p1, p2, name):
        # read only for a form whose couplings are complex; a coupling the
        # family lacks is then refused by PotentialSpec
        if p1 is not None or p2 is not None:
            if form is None or not form.complexified:
                raise _UsageError(f"--{name}1/--{name}2 need --variant nonpt")
            if re_v is not None:
                raise _UsageError(f"--{name} is not read beside --{name}1/--{name}2")
            return complex(p1 or 0.0, p2 or 0.0)
        return re_v

    # an unset flag leaves the spec's default: alpha = 1, or pi/period
    names = ("V0", "V1", "V2", "alpha", "q", "period", "mass", "hbar")
    kw = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    kw.update(family=family, A=split(args.A, args.A1, args.A2, "A"), B=split(args.B, args.B1, args.B2, "B"))
    try:
        if isinstance(kw["A"], complex) or isinstance(kw["B"], complex):  # given as --A1/--A2 or --B1/--B2
            return PotentialSpec(variant=variant, **kw)
        return apply_variant(PotentialSpec(**kw), variant)
    except (ValueError, PtspecError) as err:
        raise _UsageError(str(err)) from err


def _write_out(text: str, out_path: str | None):
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    d = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".ptspec-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    finally:  # after the replace, tmp is gone
        if os.path.exists(tmp):
            os.unlink(tmp)


def _domain(spec: PotentialSpec, L: float, given) -> DomainSpec:
    """default_domain at L; a given --L is refused where the form lives on
    one finite cell, whose walls fix the domain."""
    domain = default_domain(spec, L=L)
    if "--L" in given and domain.kind is DomainKind.FiniteInterval:
        raise _UsageError("--L is not read for a form that lives on one finite cell")
    return domain


def cmd_spectrum(args) -> int:
    spec = _build_spec(args)
    res = spectra.closed_form_spectrum(spec, args.n_max)
    if args.format == "csv":
        lines = ["n,re_E,im_E"]
        for n, e in res.entries:
            lines.append(f"{n},{e.real:.15g},{e.imag:.15g}")
        _write_out("\n".join(lines) + "\n", args.out)
    else:
        _write_out(res.to_json(), args.out)
    if args.strict and res.warnings:
        sys.stderr.write("condition warnings: " + "; ".join(res.warnings) + "\n")
        return _EXIT_CONDITION
    return _EXIT_OK


def cmd_verify(args) -> int:
    from . import oracle  # SciPy's LAPACK routines: only verify needs them

    spec = _build_spec(args)
    domain = _domain(spec, args.L, args.given)
    res = spectra.closed_form_spectrum(spec, args.n_max)
    study, (match,), conj = oracle.verify_levels(spec, domain, args.N, res.entries)
    failures = []
    # a pair matched to a tracked level takes its estimate; exact keys, as both come from eigs_finest
    err_by_value = {lv.value_finest: lv.err_estimate for lv in study.levels}
    fallback = study.levels[-1].err_estimate if study.levels else 0.0
    for n, e_f, lam, rel in match.pairs:
        est = err_by_value.get(lam, fallback)
        bound = max(10.0 * est, args.tol * max(abs(lam), 1.0))
        if abs(e_f - lam) > bound:
            failures.append({"n": n, "abs_err": abs(e_f - lam), "bound": bound})
    matched = match.to_dict()
    conjugation = conj.to_dict()
    if math.isfinite(study.reach):  # the report covers a window of a complex grid
        conjugation["below"] = study.reach
    payload = {
        "spec": spec.to_dict(),
        "domain": {"left": domain.left, "right": domain.right, "kind": domain.kind.value},
        "N": args.N,
        "threshold": matched["threshold"],
        "match": matched,
        "conjugation": conjugation,
        "convergence": study.to_dict(),
        "failures": failures,
    }
    _write_out(canonical_json(payload), args.out)
    if failures:
        sys.stderr.write(f"{len(failures)} matched level(s) outside the convergence bound\n")
        return _EXIT_CONDITION
    return _EXIT_OK


def cmd_profile(args) -> int:
    import numpy as np

    spec = _build_spec(args)
    if args.preset:
        L, npts, skip = _PRESETS[args.preset][1], _PROFILE_POINTS, True
    elif args.N < 1:
        raise _UsageError("--N must be >= 1")
    else:
        L, npts, skip = args.L, args.N, args.skip_poles
    if args.x_min is not None or args.x_max is not None:
        if args.x_min is None or args.x_max is None or not args.x_max > args.x_min:
            raise _UsageError("--x-min and --x-max must both be given with x_max > x_min")
        left, right = args.x_min, args.x_max
    else:
        domain = _domain(spec, L, args.given)
        left, right = domain.left, domain.right
    xs = np.linspace(left, right, npts + 2)[1:-1]
    try:
        xs_kept, vals = evaluate_grid(spec, xs, skip_poles=skip)
    except SingularityError as err:
        sys.stderr.write(f"grid touches a pole ({err}); re-run with --skip-poles\n")
        return _EXIT_USAGE
    if args.format == "json":
        payload = {
            "spec": spec.to_dict(),
            "samples": [{"x": float(x), **complex_json(v)} for x, v in zip(xs_kept, vals)],
        }
        _write_out(canonical_json(payload), args.out)
    else:
        lines = ["x,re_V,im_V"]
        for x, v in zip(xs_kept, vals):
            lines.append(f"{x:.12g},{v.real:.12g},{v.imag:.12g}")
        _write_out("\n".join(lines) + "\n", args.out)
    return _EXIT_OK


def cmd_trace(args) -> int:
    from . import nu_engine  # only trace needs the NU engine

    if args.form_json:
        with open(args.form_json) as fh:
            raw = json.load(fh)
        polys = (LowPoly(*(complex(c["re"], c["im"]) for c in raw[k])) for k in ("sigma", "tau_tilde", "sigma_tilde"))
        form, extra = nu_engine.synthetic_form(*polys), {}
    else:
        spec = _build_spec(args)
        extra = {"spec": spec.to_dict()}
    try:
        trace = nu_engine.select_branch(form) if args.form_json else nu_engine.solve_level(spec, args.n)[1]
    except NoAdmissibleBranch as err:  # the rejected (k, sign) candidates
        branches = [
            {"k": complex_json(c.k), "sign": c.sign, "tau_slope": complex_json(c.tau_slope), "rejection": c.rejection}
            for c in err.candidates
        ]
        payload = {"error": "NoAdmissibleBranch", "reason": str(err), **extra, "branches": branches}
        _write_out(canonical_json(payload), args.out)
        return _EXIT_NONCONVERGED
    _write_out(canonical_json({**nu_engine.trace_to_dict(trace), **extra}), args.out)
    return _EXIT_OK


def _refuse_replaced(args) -> None:
    """Refuse a flag given beside the source that replaces it: --form-json
    replaces every other flag but --out, --preset and --spec-json the spec
    flags, --preset also --spec-json and profile's sampling, --period
    --alpha, and --x-min/--x-max --L."""
    if getattr(args, "form_json", None):
        source, kept = "--form-json", ()
    elif args.preset:
        source = "--preset"
        kept = [f for f in args.flags if args.command != "profile" or f not in ("--N", "--L", "--skip-poles")]
    elif args.spec_json:
        source, kept = "--spec-json", args.flags
    else:
        source, kept = None, args.given
    for flag in args.given:
        if flag not in (source, "--out", *kept):
            raise _UsageError(f"{flag} is not read beside {source}")
    for flag, source in (("--alpha", "--period"), ("--L", "--x-min"), ("--L", "--x-max")):
        if flag in args.given and source in args.given:
            raise _UsageError(f"{flag} is not read beside {source}")


@functools.cache  # built once per process; parse_args leaves it as it was
def make_parser() -> _Parser:
    parser = _Parser(
        prog="ptspec", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter, allow_abbrev=False
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, flags in (
        ("spectrum", cmd_spectrum, ("--n-max", "--format", "--strict")),
        ("verify", cmd_verify, ("--n-max", "--N", "--L", "--tol")),
        ("profile", cmd_profile, ("--N", "--L", "--format", "--skip-poles", "--x-min", "--x-max")),
        ("trace", cmd_trace, ("--n", "--form-json")),
    ):
        p = sub.add_parser(name, allow_abbrev=False)
        _add_shared(p)
        for flag in flags:
            p.add_argument(flag, **_OWN_FLAGS[flag])
        p.set_defaults(func=fn, flags=flags)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = make_parser().parse_args(argv)
        args.given = [a.partition("=")[0] for a in argv if a.startswith("--")]
        _refuse_replaced(args)
        return args.func(args)
    except _UsageError as err:
        sys.stderr.write(f"usage error: {err}\n")
        return _EXIT_USAGE
    except QRNotConverged as err:
        sys.stderr.write(f"non-convergence: {err}\n")
        return _EXIT_NONCONVERGED
    except SingularityError as err:
        sys.stderr.write(f"singular evaluation: {err}\n")
        return _EXIT_USAGE
    except (ValueError, OSError, PtspecError) as err:
        sys.stderr.write(f"error: {err}\n")
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
