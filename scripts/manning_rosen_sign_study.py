#!/usr/bin/env python3
"""Sign-convention study for the Manning-Rosen closed form.

The published level bracket is printed with a positive sign, while its
reduced-energy relation makes bound states negative.  This study scans the
coupling A at fixed B, q=1, counts grid-oracle bound states below the
continuum threshold A, and compares the published bracket (both signs) and
the pipeline bracket against the oracle wherever levels exist.

A + 2B >= 0 gives a monotone potential with no well (that includes the
reference point A=-4, B=2, which is exactly marginal), so the designated
sign-resolution parameters have nothing to match; deeper wells resolve the
sign unambiguously.

Usage:
    python scripts/manning_rosen_sign_study.py [--B 2.0] [--L 16] [--N 3200]
"""

import argparse
import sys

import numpy as np

from ptspec import nu_engine, oracle, spectra
from ptspec.potentials import Family, PotentialSpec, default_domain


def study_point(A, B, L, N):
    spec = PotentialSpec(family=Family.ManningRosen, A=A, B=B, q=1.0)
    dom = default_domain(spec, L=L)
    thr = oracle.continuum_threshold(spec)
    # only the bound states are read: bisection for the levels below thr
    eigs = oracle.eigen_complex_dense(oracle.discretize(spec, dom, N), lowest=0, below=thr)
    below = [float(z.real) for z in eigs if z.real < thr]
    res = spectra.closed_form_spectrum(spec, 5)
    finite = [(n, e) for n, e in res.entries if np.isfinite(e.real)]
    plus = oracle.match_levels(finite, eigs, thr)
    minus = oracle.match_levels([(n, -e) for n, e in finite], eigs, thr)
    row = {
        "A": A,
        "bound": len(below),
        "plus_matched": len(plus.pairs),
        "plus_err": plus.max_rel_err if plus.pairs else float("nan"),
        "minus_matched": len(minus.pairs),
        "minus_err": minus.max_rel_err if minus.pairs else float("nan"),
        "pipe_matched": 0,
        "pipe_err": float("nan"),
    }
    if below:
        num = nu_engine.solve_spectrum_numeric(spec, min(5, len(below) - 1))
        pm = oracle.match_levels(num.entries, eigs, thr)
        row["pipe_matched"] = len(pm.pairs)
        row["pipe_err"] = pm.max_rel_err
    return row


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--B", type=float, default=2.0)
    ap.add_argument("--L", type=float, default=16.0)
    ap.add_argument("--N", type=int, default=3200)
    args = ap.parse_args(argv)

    print(f"B={args.B}, q=1, threshold = A; well exists iff A < -2B = {-2*args.B}")
    print(f"{'A':>8} {'bound':>6} {'pub(+)':>14} {'pub(-)':>14} {'pipeline':>14}")
    for A in (-4.0, -6.0, -10.0, -20.0, -40.0, -80.0):
        r = study_point(A, args.B, args.L, args.N)
        print(
            f"{r['A']:8.1f} {r['bound']:6d} "
            f"{r['plus_matched']:3d} @ {r['plus_err']:.1e} "
            f"{r['minus_matched']:3d} @ {r['minus_err']:.1e} "
            f"{r['pipe_matched']:3d} @ {r['pipe_err']:.1e}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
