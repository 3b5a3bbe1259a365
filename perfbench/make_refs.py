#!/usr/bin/env python3
"""Write perfbench/refs.json: the reference values every benchmark check
compares against.

Run from the repository root, once per change of the case table:

    PYTHONPATH=src python3 perfbench/make_refs.py

For each case choice the truth is the spectrum of ptspec's own
finite-difference Hamiltonian on the op's domain, solved far finer than any
op does (N = 4000, 8000, 16000) with solvers the package does not use
(scipy's tridiagonal Sturm bisection for real grids, sparse shift-invert
Arnoldi seeded from a dense N=800 solve for complex ones) and
Richardson-extrapolated in h^2.  A level is kept only while the two
extrapolations agree to REF_RTOL; the levels kept are a prefix of the
spectrum, so level n stays level n.  When every level below a finite
continuum threshold converged, the spectrum below it is known in full (an
empty list then means no bound state), and ``resolved_below`` records the
energy below which the op's domain can hold a bound state at all.  Where no
level converged and nothing is known, the closed-form levels of the current
commit are recorded instead.
"""

from __future__ import annotations

import io
import json
import math
import os
import sys
from contextlib import redirect_stdout

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import eigs

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import cases  # noqa: E402
from ptspec import cli, oracle, spectra  # noqa: E402
from ptspec.potentials import default_domain  # noqa: E402

GRIDS = (4000, 8000, 16000)
REF_RTOL = 1e-6
MAX_LEVELS = 12
PROFILE_STRIDE = 37
# Closed-form levels recorded where nothing converged (the CLI's default n-max).
RECORDED_N_MAX = 10


def _richardson(e1, e2, h1, h2):
    return (e2 * h1**2 - e1 * h2**2) / (h1**2 - h2**2)


def _real_levels(H, thr, count):
    e = np.full(H.N - 1, H.offdiagonal)
    if math.isfinite(thr):
        vals = eigh_tridiagonal(H.diagonal.real, e, eigvals_only=True, select="v", select_range=(-1e300, thr))
        return vals[:count]
    return eigh_tridiagonal(H.diagonal.real, e, eigvals_only=True, select="i", select_range=(0, count - 1))


def _complex_level(H, guess):
    n = H.N
    off = np.full(n - 1, H.offdiagonal, dtype=complex)
    A = sp.diags([off, H.diagonal.astype(complex), off], [-1, 0, 1], format="csc")
    val = eigs(A, k=1, sigma=guess, which="LM", return_eigenvectors=False)
    return complex(val[0])


def truth_levels(spec, domain):
    """(levels, resolved_below): the converged levels sorted by real part,
    and, when they are every level below the continuum threshold, the
    energy below which the op's domain resolves a bound state (else None)."""
    thr = oracle.continuum_threshold(spec)
    coarse = oracle.discretize(spec, domain, 800)
    if coarse.is_real:
        per_grid = [_real_levels(oracle.discretize(spec, domain, N), thr, MAX_LEVELS) for N in GRIDS]
        count = min(len(v) for v in per_grid)
        series = [[complex(v[i]) for v in per_grid] for i in range(count)]
    else:
        eigs0 = oracle.eigen_complex_dense(coarse, certify=False)
        guesses = [complex(z) for z in eigs0 if z.real < thr][:MAX_LEVELS]
        series = []
        for g in guesses:
            vals = []
            for N in GRIDS:
                g = _complex_level(oracle.discretize(spec, domain, N), vals[-1] if vals else g)
                vals.append(g)
            series.append(vals)
    hs = [(domain.right - domain.left) / (N + 1) for N in GRIDS]
    kept = []
    for vals in series:
        ext_a = _richardson(vals[0], vals[1], hs[0], hs[1])
        ext_b = _richardson(vals[1], vals[2], hs[1], hs[2])
        if abs(ext_b - ext_a) > REF_RTOL * max(abs(ext_b), 1.0):
            break
        kept.append(ext_b)
    kept.sort(key=lambda z: (z.real, z.imag))
    complete = math.isfinite(thr) and len(kept) == len(series) < MAX_LEVELS
    if not complete:
        return [[z.real, z.imag] for z in kept], None
    # A level within kappa (2 pi / W)^2 of the threshold decays over more
    # than W / (2 pi) and is not resolved on a domain of width W.
    resolved_below = thr - spec.kappa * (2.0 * math.pi / (domain.right - domain.left)) ** 2
    return [[z.real, z.imag] for z in kept], resolved_below


def _cli_spec(argv):
    # The CLI's own argv -> spec mapping (variants, complexified couplings),
    # so the reference solves exactly the spec the op's command solves.
    args = cli.make_parser().parse_args(list(argv))
    return args, cli._build_spec(args)


def _profile_ref(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    assert code == 0, argv
    rows = [line.split(",") for line in buf.getvalue().strip().splitlines()[1:]]
    picks = sorted(set(range(0, len(rows), PROFILE_STRIDE)) | {len(rows) - 1})
    return {"rows": len(rows), "samples": [[i] + [float(v) for v in rows[i]] for i in picks]}


def main() -> int:
    refs, memo = {}, {}
    for workload in cases.WORKLOADS:
        for case in cases.CASES[workload]:
            for choice in range(len(case.choices)):
                op = cases.make_op(case, choice)
                key = cases.ref_key(workload, op)
                if case.kind == "profile":
                    refs[key] = _profile_ref(op.argv)
                    continue
                if case.kind == "pipeline":
                    spec = cases.pipeline_spec(op)
                    domain = default_domain(spec)
                else:
                    args, spec = _cli_spec(op.argv)
                    domain = default_domain(spec, L=args.L)
                memo_key = (spec.to_json(), domain)
                if memo_key not in memo:
                    memo[memo_key] = truth_levels(spec, domain)
                truth, resolved_below = memo[memo_key]
                refs[key] = {"spec": spec.to_dict(), "truth": truth, "resolved_below": resolved_below}
                if not truth and resolved_below is None:
                    # No oracle level converged: keep the closed form as it is now.
                    entries = spectra.closed_form_spectrum(spec, RECORDED_N_MAX).entries
                    refs[key]["recorded"] = [[n, e.real, e.imag] for n, e in entries]
                shown = [round(t[0], 6) for t in truth[:5]]
                print(f"{key:34s} resolved_below={resolved_below} truth={shown}", file=sys.stderr)
    with open(cases.REFS_PATH, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
