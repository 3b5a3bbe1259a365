"""Traced stand-in for `python -m ptspec.cli ARGS`, used by the traced
cli-cold passes:

    python perfbench/cold_cli.py SPANS_JSON ARGS...

Times the cold import of ptspec.cli first, then runs the command with the
boundary tracer installed and writes the spans and the import figures to
SPANS_JSON.  Stdout and the exit code are the CLI's own.
"""

import sys
import time

_t0 = time.perf_counter()
_m0 = len(sys.modules)
import ptspec.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0
IMPORT_MODULES = len(sys.modules) - _m0

import json  # noqa: E402
import os  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tr = tracer.Tracer()
    tr.install()
    try:
        code = ptspec.cli.main(argv)
    finally:
        tr.uninstall()
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump({"spans": tr.spans, "import_s": IMPORT_S, "modules": IMPORT_MODULES}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
