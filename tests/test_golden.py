"""Golden outputs: the battery report, the claim list, every certificate and
both SVG presets must stay byte-identical to the SHA-256 digests recorded
in perfbench/reference.json."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polytope_forge
from polytope_forge import cli

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
SRC = Path(polytope_forge.__file__).resolve().parents[1]

COMMANDS = {
    "verify_all": ("verify", "--all", "--format", "json"),
    "verify_list": ("verify", "--list"),
    **{f"build_{target}": ("build", target, "--format", "json")
       for target in ("cube", "hemi", "map", "roli", "enantiomorph", "cover", "mk")},
    "project_coxeter": ("project", "--preset", "coxeter"),
    "project_plane": ("project", "--preset", "plane"),
}


@pytest.fixture(scope="module")
def reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)["sha256"]


def test_golden_commands_cover_the_reference(reference):
    assert set(COMMANDS) == set(reference)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_reference_digest(name, reference, capsys):
    assert cli.main(list(COMMANDS[name])) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == reference[name]


def _process(*args: str) -> subprocess.CompletedProcess:
    """One command in its own interpreter, through the process entry
    `cli.run` as `python -m polytope_forge.cli` starts it.  No PYTHON*
    setting is passed on (PYTHONUNBUFFERED would leave `run` nothing to
    flush), so stdout is block-buffered, as a pipe's is by default."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    return subprocess.run([sys.executable, "-m", "polytope_forge.cli", *args],
                          capture_output=True, timeout=300,
                          env={**env, "PYTHONPATH": str(SRC), "PYTHONIOENCODING": "utf-8"})


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_process_output_matches_reference_digest(name, reference):
    """`run` ends the process with `os._exit` after its flush: no byte of
    the output may be lost."""
    proc = _process(*COMMANDS[name])
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == reference[name]


def test_process_writes_the_whole_certificate_to_out(reference, tmp_path):
    out = tmp_path / "cover.json"
    proc = _process(*COMMANDS["build_cover"], "--out", str(out))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == reference["build_cover"]


@pytest.mark.parametrize("args, message", [
    (("project", "--colors", "9"), b"error: edge colours must be one or more of 1..4"),
    (("build", "tesseract"), b"invalid choice: 'tesseract'"),
], ids=["bad-colours", "argparse"])
def test_process_usage_errors_exit_2(args, message):
    proc = _process(*args)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert message in proc.stderr and b"Traceback" not in proc.stderr
