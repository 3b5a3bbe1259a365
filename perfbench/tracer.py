"""Span tracing at ptspec's module boundaries, from outside the package.

A Tracer replaces each public function in the namespace that calls it with a
wrapper that records a span: name, start, end, parent span, op id, a size
(points, rows or eigenvalues, where the boundary has one) and whether the
call raised.  ``oracle.evaluate``, for example, is ``potentials.evaluate``
imported by name, so it is wrapped in ``oracle`` as well as in
``potentials``.  Spans stay in memory until ``uninstall``; ``summarize``
turns span lists into the per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
import time


def _points(args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs["x"]
    return getattr(x, "size", 1)


def _rows(args, kwargs, result):
    H = args[0] if args else kwargs["H"]
    return H.N


def _returned(args, kwargs, result):
    return len(result)


# (module, attribute, span name, size of the call): each public function at
# the namespace its callers look it up in.
BOUNDARIES = (
    ("ptspec.potentials", "evaluate", "potentials.evaluate", _points),
    ("ptspec.oracle", "evaluate", "potentials.evaluate", _points),
    ("ptspec.oracle", "discretize", "oracle.discretize", None),
    ("ptspec.oracle", "eigen_complex_dense", "oracle.eigensolve", _rows),
    ("ptspec.oracle", "solve_banded", "oracle.certify", None),
    ("ptspec.oracle", "convergence_study", "oracle.convergence", None),
    ("ptspec.oracle", "match_levels", "oracle.match", None),
    ("ptspec.oracle", "conjugation_pair_check", "oracle.conjugation", None),
    ("ptspec.nu_engine", "solve_spectrum_numeric", "nu.solve_spectrum", None),
    ("ptspec.nu_engine", "solve_level", "nu.solve_level", None),
    ("ptspec.nu_engine", "build_form", "nu.build_form", None),
    ("ptspec.nu_engine", "k_candidates", "nu.k_candidates", None),
    ("ptspec.spectra", "closed_form_spectrum", "spectra.closed_form", None),
    ("ptspec.wavefunctions", "assemble", "wf.assemble", None),
    ("ptspec.wavefunctions", "normalize", "wf.normalize", None),
    ("ptspec.cli", "main", "cli.main", None),
)

# Sizes recorded from the result rather than the arguments.
_RESULT_SIZES = {"oracle.eigensolve": _returned}

# Span tuple fields.
NAME, START, END, PARENT, OP, SIZE, FAILED, OUT = range(8)


class Tracer:
    """Records spans for calls through the wrapped boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_id = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, size):
        out_size = _RESULT_SIZES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, 0, False, 0]
            spans.append(span)
            stack.append(len(spans) - 1)
            result = None
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                if size is not None:
                    span[SIZE] = size(args, kwargs, result)
                if out_size is not None and not span[FAILED]:
                    span[OUT] = out_size(args, kwargs, result)

        return traced

    def install(self) -> None:
        """Wrap every boundary of the ptspec modules already imported (a
        module the caller never imported has no calls to record)."""
        for mod_name, attr, name, size in BOUNDARIES:
            module = sys.modules.get(mod_name)
            if module is None:
                continue
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, size))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)


def _stats(span_lists):
    """Per span name: calls, failed, total s, self s, size, out."""
    out = {}
    for spans in span_lists:
        child_time = [0.0] * len(spans)
        for sp in spans:
            if sp[PARENT] >= 0:
                child_time[sp[PARENT]] += sp[END] - sp[START]
        for i, sp in enumerate(spans):
            st = out.setdefault(sp[NAME], {"calls": 0, "failed": 0, "s": 0.0, "self_s": 0.0, "size": 0, "out": 0})
            dur = sp[END] - sp[START]
            st["calls"] += 1
            st["failed"] += int(sp[FAILED])
            st["s"] += dur
            st["self_s"] += dur - child_time[i]
            st["size"] += sp[SIZE]
            st["out"] += sp[OUT]
    return out


def summarize(span_lists, passes: int) -> dict:
    """Per-layer metrics per pass of the op list, from the spans of every
    traced pass (one list per traced process or pass)."""
    st = _stats(span_lists)

    def get(name, key):
        return st.get(name, {}).get(key, 0) / passes

    solved = get("nu.solve_level", "calls") - get("nu.solve_level", "failed")
    return {
        "oracle.eigensolve.calls": get("oracle.eigensolve", "calls"),
        "oracle.eigensolve.rows": get("oracle.eigensolve", "size"),
        "oracle.eigensolve.s": get("oracle.eigensolve", "self_s"),
        "oracle.eigs_returned": get("oracle.eigensolve", "out"),
        "oracle.certify.banded_solves": get("oracle.certify", "calls"),
        "oracle.certify.s": get("oracle.certify", "s"),
        "oracle.discretize.s": get("oracle.discretize", "s"),
        "oracle.convergence.self_s": get("oracle.convergence", "self_s"),
        "oracle.match.s": get("oracle.match", "s"),
        "oracle.conjugation.s": get("oracle.conjugation", "s"),
        "nu.solve_level.calls": get("nu.solve_level", "calls"),
        "nu.solve_level.s": get("nu.solve_level", "s"),
        "nu.solve_level.failed": get("nu.solve_level", "failed"),
        "nu.build_form.calls": get("nu.build_form", "calls"),
        "nu.k_candidates.calls": get("nu.k_candidates", "calls"),
        "nu.forms_per_level": get("nu.build_form", "calls") / solved if solved else 0.0,
        "potentials.evaluate.calls": get("potentials.evaluate", "calls"),
        "potentials.evaluate.points": get("potentials.evaluate", "size"),
        "potentials.evaluate.s": get("potentials.evaluate", "s"),
        "wf.assemble.s": get("wf.assemble", "s"),
        "wf.normalize.s": get("wf.normalize", "s"),
        "wf.failed": get("wf.assemble", "failed") + get("wf.normalize", "failed"),
        "spectra.closed_form.calls": get("spectra.closed_form", "calls"),
        "spectra.closed_form.s": get("spectra.closed_form", "s"),
        "cli.main.self_s": get("cli.main", "self_s"),
    }
