#!/usr/bin/env python3
"""Formula-vs-oracle verification across the reference parameter matrix.

For each row: closed-form levels, grid-oracle eigenvalues below the
continuum threshold, matched pairs with relative errors, and a Richardson
convergence estimate.  Writes an optional JSON report.

Usage:
    python scripts/verify_matrix.py [--N 2000] [--out report.json]
"""

import argparse
import json
import sys

from ptspec import nu_engine, oracle, spectra
from ptspec.errors import PtspecError
from ptspec.potentials import Family, PotentialSpec, default_domain

MATRIX = [
    ("trig-scarf A=-2", PotentialSpec(family=Family.TrigScarf, A=-2.0), 3, 12.0),
    ("trig-scarf A=-6", PotentialSpec(family=Family.TrigScarf, A=-6.0), 3, 12.0),
    ("trig-scarf box A=0", PotentialSpec(family=Family.TrigScarf, A=0.0), 3, 12.0),
    # the tau'<0 rule keeps the zeta1 branch here while the grid oracle
    # finds the zeta2-branch level; kept as a documented blind spot
    (
        "hyperbolic-scarf well V1=4 V2=-3 (branch blind spot)",
        PotentialSpec(family=Family.HyperbolicScarf, V0=0.0, V1=4.0, V2=-3.0, q=1.0),
        1,
        14.0,
    ),
    (
        "manning-rosen deep A=-40 B=2",
        PotentialSpec(family=Family.ManningRosen, A=-40.0, B=2.0, q=1.0),
        2,
        16.0,
    ),
]


def run_row(label, spec, n_max, L, N):
    dom = default_domain(spec, L=L)
    res = spectra.closed_form_spectrum(spec, n_max)
    # where the published form disagrees with the pipeline, report both
    try:
        num, pipeline_error = nu_engine.solve_spectrum_numeric(spec, n_max), None
    except PtspecError as err:
        num, pipeline_error = None, err
    lists = [res.entries] + ([num.entries] if num else [])
    study, matches, _ = oracle.verify_levels(spec, dom, N, *lists, n_levels=min(4, n_max + 1))
    match = matches[0]
    row = {
        "label": label,
        "spec": spec.to_dict(),
        "threshold": match.to_dict()["threshold"],
        "matched": len(match.pairs),
        "max_rel_err": match.max_rel_err,
        "unmatched_formula": len(match.unmatched_formula),
        "convergence": study.to_dict(),
    }
    if num is not None:
        row["pipeline_matched"] = len(matches[1].pairs)
        row["pipeline_max_rel_err"] = matches[1].max_rel_err
    else:
        row["pipeline_error"] = str(pipeline_error)
    return row


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--N", type=int, default=2000)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    rows = []
    for label, spec, n_max, L in MATRIX:
        row = run_row(label, spec, n_max, L, args.N)
        rows.append(row)
        print(
            f"{label:36s} matched {row['matched']:2d}  "
            f"formula max rel {row['max_rel_err']:.2e}  "
            f"pipeline max rel {row.get('pipeline_max_rel_err', float('nan')):.2e}"
        )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(rows, fh, sort_keys=True, indent=1)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
