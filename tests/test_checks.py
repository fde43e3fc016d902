"""Build checks fail one way: `check` raises `CheckFailed`, the command line
exits 1 and names the check, and all of it holds under `python -O`."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import polytope_forge
from polytope_forge import cli
from polytope_forge import cubefamily as cf
from polytope_forge import mkconfig as mk
from polytope_forge.groupcore import CheckFailed, Presentation, check

PACKAGE = Path(polytope_forge.__file__).resolve().parent


def _wrong_map_relator(patch):
    """(t0 t1)^8 = 1 becomes (t0 t1)^4 = 1, which the map's involutions break."""
    real = cf.presentation_map_full
    patch(cf, "presentation_map_full", lambda: Presentation(3, tuple(
        (1, 2) * 4 if rel == (1, 2) * 8 else rel for rel in real().relators)))


def _equal_roli_subgroups(patch):
    real = cf._roli_subgroups
    patch(cf, "_roli_subgroups", lambda rot: (real(rot)[0],) * 4)


def _perturbed_pi_display(patch):
    real = cf._SP
    patch(cf, "_SP", lambda text: real(
        "(1,1,1,1)·(4,3,2,1)" if text == "(-1,1,1,1)·(4,3,2,1)" else text))


def _unbarred_sigma1(patch):
    """The atlas hands the enantiomorph sigma1 for sigma1_bar, so its edge
    subgroup <sigma1 sigma2_bar, sigma3_bar> no longer fixes the base edge."""
    real = cf.build_atlas
    patch(cf, "build_atlas", lambda: real()._replace(sigma1_bar=real().sigma1))


def _flipped_j_entry(patch):
    """One sign of the integer pattern sqrt(3)·J flips, so J^2 is not -I."""
    rows = [list(row) for row in mk._J_PATTERN]
    rows[0][1] = -rows[0][1]
    patch(mk, "_J_PATTERN", tuple(map(tuple, rows)))


def _non_central_zeta(patch):
    """The atlas hands the hemi-cube rho0 for the central involution zeta."""
    real = cf.build_atlas
    patch(cf, "build_atlas", lambda: real()._replace(zeta=real().rho0))


def _swapped_table_rows(patch):
    """Rows 1 and 2 of the published coordinate table trade places."""
    real = mk.table_coordinates
    patch(mk, "table_coordinates", lambda: {**real(), 1: real()[2], 2: real()[1]})


# fault -> (injection, command, the check it must name, the cached builds
# between the fault and the command)
FAULTS = {
    "map-relator": (_wrong_map_relator, ["build", "map"], "map.full-presentation",
                    (cf.build_map,)),
    "roli-subgroups": (_equal_roli_subgroups, ["build", "roli"], "roli.stabilizer-orders",
                       (cf.build_roli,)),
    "atlas-display": (_perturbed_pi_display, ["build", "cube"], "atlas.pi-display",
                      (cf.build_atlas, cf.group_cube, cf.build_cube)),
    "mk-j-pattern": (_flipped_j_entry, ["build", "mk"], "mk.j-squares-to-minus-identity",
                     (mk.build_J, mk.build_L, mk.build_configuration)),
    "mk-table-rows": (_swapped_table_rows, ["build", "mk"], "mk.coordinates-match-the-table",
                      (mk.table_coordinates, mk.build_configuration)),
    "hemi-zeta": (_non_central_zeta, ["build", "hemi"], "quotient.element-central",
                  (cf.build_atlas, cf.build_hemi)),
    "enantiomorph-sigma1-bar": (_unbarred_sigma1, ["build", "enantiomorph"],
                                "enantiomorph.edge-stabilizer",
                                (cf.build_enantiomorph, cf.group_rotation_sigma_bar)),
}


def run_fault(fault: str, patch=setattr) -> int:
    """Inject the fault, run its command through `cli.main`, return the exit
    code.  The caches are cleared first, so the build runs under the fault,
    and again after, so no cached value outlives it."""
    inject, argv, _, caches = FAULTS[fault]
    inject(patch)
    for build in caches:
        build.cache_clear()
    try:
        return cli.main(argv)
    finally:
        for build in caches:
            build.cache_clear()


def _optimized(*args: str) -> subprocess.CompletedProcess:
    """Run `python -O` with the package and this directory importable."""
    path = os.pathsep.join([str(PACKAGE.parent), str(Path(__file__).resolve().parent)])
    return subprocess.run([sys.executable, "-O", *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_exits_1_and_names_its_check(fault, monkeypatch, capsys):
    assert run_fault(fault, monkeypatch.setattr) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"check failed: {FAULTS[fault][2]}"), err


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_exits_1_and_names_its_check_under_optimize(fault):
    run = _optimized("-c", "import sys, test_checks; "
                           f"sys.exit(test_checks.run_fault({fault!r}))")
    assert run.returncode == 1, run.stderr
    assert run.stderr.startswith(f"check failed: {FAULTS[fault][2]}"), run.stderr
    assert "Traceback" not in run.stderr


def test_verify_all_under_optimize_prints_the_same_claims(capsys):
    assert cli.main(["verify", "--all"]) == 0
    normal = capsys.readouterr().out.splitlines()
    run = _optimized("-m", "polytope_forge.cli", "verify", "--all")
    assert run.returncode == 0, run.stderr
    optimized = run.stdout.splitlines()
    assert optimized[:-1] == normal[:-1]
    assert optimized[-1].startswith("all claims pass in ")


def test_package_has_no_assert_statement():
    found = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, found


# every check is a plain call `check(ok, name, witness)`: the name is argument 1
_NAMED_CHECKS = {"check": 1}
_CHECK_ID = re.compile(r"[a-z][a-z0-9]*\.[a-z0-9]+(-[a-z0-9]+)*")


def _check_names(tree: ast.AST) -> list:
    """The name argument, as the node passed, of every call to `check`."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = getattr(node.func, "id", getattr(node.func, "attr", None))
        if callee not in _NAMED_CHECKS:
            continue
        pos = _NAMED_CHECKS[callee]
        out.append(node.args[pos] if len(node.args) > pos else next(
            (k.value for k in node.keywords if k.arg == "name"), None))
    return out


def test_check_ids_are_unique_layer_kebab_literals():
    ids, bad = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for arg in _check_names(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str) \
                    and _CHECK_ID.fullmatch(arg.value):
                ids.append(arg.value)
            else:
                bad.append(f"{path.name}:{getattr(arg, 'lineno', '?')}")
    assert not bad, bad
    repeated = sorted({i for i in ids if ids.count(i) > 1})
    assert not repeated, repeated
    # the stabilizer and face-map sites are plain checks like the rest
    assert {"enantiomorph.edge-stabilizer", "enantiomorph.mirror-by-rho0-is-an-isomorphism",
            "atlas.pi-display"} <= set(ids)
    assert len(ids) >= 175


def _calls(tree: ast.AST, name: str) -> list:
    """Every call to the plain name `name` inside tree."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name]


_BUILD_ATLAS = next(fn for fn in ast.walk(ast.parse(
    (PACKAGE / "cubefamily.py").read_text(encoding="utf-8")))
    if isinstance(fn, ast.FunctionDef) and fn.name == "build_atlas")
# (literal, check id) for each `_SP` display literal a check in build_atlas compares against
_ATLAS_DISPLAYS = sorted((sp.args[0].value, call.args[1].value)
                         for call in _calls(_BUILD_ATLAS, "check")
                         for sp in _calls(call.args[0], "_SP"))


def test_every_atlas_display_literal_has_a_fault():
    assert len(_ATLAS_DISPLAYS) == len(_calls(_BUILD_ATLAS, "_SP")) == 13
    assert len({name for _, name in _ATLAS_DISPLAYS}) == 13


@pytest.mark.parametrize("literal, name", _ATLAS_DISPLAYS,
                         ids=[name for _, name in _ATLAS_DISPLAYS])
def test_flipped_atlas_display_names_its_check(literal, name, monkeypatch):
    """The first sign of one display literal flips; build_atlas must fail
    that literal's own check."""
    flipped = "(" + literal[2:] if literal.startswith("(-") else "(-" + literal[1:]
    real = cf._SP
    monkeypatch.setattr(cf, "_SP", lambda text: real(flipped if text == literal else text))
    cf.build_atlas.cache_clear()
    try:
        with pytest.raises(CheckFailed) as exc:
            cf.build_atlas()
    finally:
        cf.build_atlas.cache_clear()
    assert exc.value.name == name


def test_every_check_in_the_package_passes_a_witness():
    bare = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check"
            and len(node.args) < 3 and not any(k.arg == "witness" for k in node.keywords)]
    assert not bare, bare


def test_check_names_its_failure_and_witness():
    check(True, "never.raised")
    with pytest.raises(CheckFailed) as exc:
        check(0, "some.check")
    assert str(exc.value) == exc.value.name == "some.check" and exc.value.witness is None
    with pytest.raises(CheckFailed, match=r"^some\.check: \[1, 'a'\]$"):
        check([], "some.check", [1, "a"])


def test_every_failure_in_the_package_is_a_check():
    """No class subclasses CheckFailed, and only `check` raises it."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside_check = {id(node) for fn in ast.walk(tree)
                        if isinstance(fn, ast.FunctionDef) and fn.name == "check"
                        for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    getattr(base, "id", getattr(base, "attr", None)) == "CheckFailed"
                    for base in node.bases):
                found.append(f"{path.name}:{node.lineno}: class {node.name}")
            elif isinstance(node, ast.Raise) and id(node) not in inside_check \
                    and "CheckFailed" in ast.unparse(node.exc or node):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not found, found
