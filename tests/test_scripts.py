"""Smoke runs of the study scripts under scripts/: each must exit 0."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = SCRIPTS.parent / "src"


def run_script(name: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("name,args", [("verify_matrix.py", ("--N", "200"))])
def test_script_runs(name, args, tmp_path):
    proc = run_script(name, *args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
