"""perfbench/tracer.py wraps package functions by name; a wrapped name that
the package no longer defines breaks tracing with a KeyError.  Run each
tracer mode once on a small operation and require a clean exit."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polytope_forge

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(polytope_forge.__file__).resolve().parents[1]


@pytest.mark.parametrize("args", [
    ("spans", "cli", "verify", "--list"),
    ("counts", "cli", "verify", "--list"),
    ("spans", "ladder", "--seed", "1"),
], ids=["spans-cli", "counts-cli", "spans-ladder"])
def test_tracer_runs_and_its_operation_exits_0(args):
    run = subprocess.run([sys.executable, str(ROOT / "perfbench" / "tracer.py"), *args],
                         capture_output=True, text=True, cwd=ROOT, timeout=300,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    assert run.returncode == 0, run.stderr
    payload = json.loads(run.stdout)
    assert payload["exit"] == 0 and payload[args[0]], payload.get("stdout")
