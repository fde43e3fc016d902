"""Golden outputs: the battery report, the claim list, every certificate and
both SVG presets must stay byte-identical to the SHA-256 digests recorded
in perfbench/reference.json."""

import hashlib
import json
from pathlib import Path

import pytest

from polytope_forge import cli

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

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
