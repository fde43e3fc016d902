"""Command-line front end: battery, reports, SVG determinism, exit codes."""

import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polytope_forge
from polytope_forge import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(polytope_forge.__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def report():
    return cli.run_claims()


def test_every_claim_passes(report):
    failing = [c.claim_id for c in report.claims if not c.passed]
    assert not failing, failing


def test_claim_ids_are_unique_and_cover_all_criteria(report):
    ids = [c.claim_id for c in report.claims]
    assert len(ids) == len(set(ids))
    assert cli.all_claim_ids() == ids
    assert {c.criterion for c in report.claims} == set(range(1, 10))


def test_report_json_is_deterministic(report):
    again = cli.run_claims()
    assert report.to_json_dict() == again.to_json_dict()


def test_selected_claims_only(monkeypatch):
    sub = cli.run_claims(only={"petrie.count", "map.f-vector"})
    assert sorted(c.claim_id for c in sub.claims) == ["map.f-vector", "petrie.count"]

    def centralizer_scan():
        raise AssertionError("the incidence claim must not need the centralizer of J")

    monkeypatch.setattr("polytope_forge.mkconfig.group_333", centralizer_scan)
    sub = cli.run_claims(only={"mk.incidence-8-8-3"})
    assert [c.claim_id for c in sub.claims] == ["mk.incidence-8-8-3"]
    assert sub.all_passed
    with pytest.raises(KeyError):
        cli.run_claims(only={"no.such-claim"})


def test_claim_line_rendering():
    claim = cli.Claim(claim_id="x.y", criterion=3, expected="1", computed="2",
                      passed=False, note="why")
    assert claim.line().startswith("FAIL [3] x.y")
    rep = cli.Report(claims=[claim], elapsed_seconds=0.0)
    assert not rep.all_passed


# -- projections -----------------------------------------------------------------


def test_isometric_projection_edge_lengths():
    lengths = cli.projected_edge_lengths(cli.coxeter_projection_spec())
    assert len(lengths) == 32
    assert max(lengths) - min(lengths) <= 1e-9
    assert all(abs(l - math.sqrt(2)) < 1e-9 for l in lengths)


def test_plane_positions_up_to_similarity():
    assert cli.plane_positions_fit() <= 1e-9


def test_svg_output_is_pixel_identical_across_runs():
    spec = cli.coxeter_projection_spec()
    assert cli.render_projection(spec) == cli.render_projection(spec)
    plane = cli.plane_projection_spec()
    assert cli.render_projection(plane) == cli.render_projection(plane)


def test_svg_contents():
    svg = cli.render_projection(cli.coxeter_projection_spec())
    assert svg.count("<line") == 32
    assert svg.count("<circle") == 16
    partial = cli.render_projection(cli.coxeter_projection_spec()._replace(colors=(1, 2)))
    assert partial.count("<line") == 16
    plane = cli.render_projection(cli.plane_projection_spec())
    assert plane.count("<circle") == 8
    assert plane.count("<polygon") == 8
    for label in range(8):
        assert f">{label}</text>" in plane


def test_degenerate_specs_rejected():
    with pytest.raises(ValueError):
        cli.coxeter_projection_spec(scale=0.0).validate()
    bad = cli.ProjectionSpec(name="bad",
                             basis=((1.0, 0.0, 0.0, 0.0), (2.0, 0.0, 0.0, 0.0)))
    with pytest.raises(ValueError):
        bad.validate()


# -- the command-line interface ----------------------------------------------------


def test_main_verify_selected_claims(capsys):
    code = cli.main(["verify", "petrie.count"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS [3] petrie.count" in out


def test_main_build_json(tmp_path):
    out = tmp_path / "roli.json"
    code = cli.main(["build", "roli", "--format", "json", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["schema"] == "polytope-forge/1"
    assert data["f_vector"] == [16, 32, 12, 4]
    assert data["classification"] == "chiral"


@pytest.mark.parametrize("target,expect", [
    ("cube", ("f_vector", [16, 32, 24, 8])),
    ("hemi", ("f_vector", [8, 16, 12, 4])),
    ("map", ("full_automorphism_order", 96)),
    ("enantiomorph", ("two_face_chiral_class", "L")),
    ("cover", ("group_order", 768)),
])
def test_main_build_all_targets(tmp_path, target, expect):
    out = tmp_path / f"{target}.json"
    assert cli.main(["build", target, "--format", "json", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    key, value = expect
    assert data["schema"] == "polytope-forge/1"
    assert data[key] == value


def test_main_build_mk_has_no_labeling_option():
    # one labeling exists; the published table is a build check on it
    with pytest.raises(SystemExit) as exc:
        cli.main(["build", "mk", "--seed-labels", "table"])
    assert exc.value.code == 2


def test_main_project(tmp_path):
    out = tmp_path / "plane.svg"
    code = cli.main(["project", "--preset", "plane", "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("<svg")


@pytest.mark.parametrize("colors", ["1,2,3,4", "2", "9"])
def test_main_project_plane_rejects_colors(tmp_path, capsys, colors):
    # the plane preset draws no cube edges: --colors there is a usage error,
    # not an option ignored, and it fails before anything is built
    out = tmp_path / "plane.svg"
    with pytest.raises(SystemExit) as exc:
        cli.main(["project", "--preset", "plane", "--colors", colors, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --colors: not allowed with --preset plane" in err, err
    assert not out.exists()


def test_main_project_coxeter_draws_every_colour_by_default(tmp_path):
    default, explicit = tmp_path / "default.svg", tmp_path / "explicit.svg"
    assert cli.main(["project", "--out", str(default)]) == 0
    assert cli.main(["project", "--colors", "1,2,3,4", "--out", str(explicit)]) == 0
    assert default.read_bytes() == explicit.read_bytes()
    assert default.read_text().count("<line ") == 32


def test_main_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["build", "nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify"])  # needs claim ids or --all
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify-nothing"])
    assert exc.value.code == 2
    code = cli.main(["verify", "no.such-claim"])
    assert code == 2
    for bad in (["--scale", "0"], ["--scale", "nan"], ["--scale", "inf"],
                ["--scale=-inf"], ["--scale=-1"], ["--colors", "1,9"], ["--colors", "9"],
                ["--colors", ","],
                ["--colors", "1,,2"], ["--colors", "1,"], ["--colors", "1,1"],
                ["--colors", "1,1,1,1,2"]):
        assert cli.main(["project", *bad]) == 2, bad
    # --cap must be positive, also where no coset enumeration would read it
    for argv in (["verify", "orders.cube-full", "--cap", "-5"],
                 ["verify", "orders.cube-full", "--cap", "0"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv


@pytest.mark.parametrize("argv", [["build", "cube", "--cap", "3"], ["build", "mk", "--cap", "1"],
                                  ["build", "cube", "--cap", "0"], ["project", "--cap", "1"],
                                  ["project", "--format", "json"]],
                         ids=lambda argv: "-".join(arg.lstrip("-") for arg in argv))
def test_main_rejects_an_option_its_command_does_not_read(argv, capsys):
    # build reads neither --cap nor the battery's config, project neither
    # --cap nor --format: each is a usage error, not an option ignored
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err, err


@pytest.mark.parametrize("scale,width", [("1e308", "inf"), ("1e-320", "0.0")])
def test_main_project_rejects_a_scale_that_breaks_the_view_box(tmp_path, capsys, scale, width):
    out = tmp_path / "x.svg"
    assert cli.main(["project", "--scale", scale, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: scale ") and f"viewBox width {width}" in err, err
    assert str(float(scale)) in err, err
    assert not out.exists()


@pytest.mark.parametrize("preset", ["coxeter", "plane"])
def test_main_project_rejects_a_scale_whose_view_box_misses_the_drawing(
        tmp_path, capsys, preset):
    # at scale 0.01 the one-decimal viewBox is "-0.0 -0.0 0.1 0.1", which
    # leaves the vertices with negative coordinates outside
    out = tmp_path / "x.svg"
    argv = ["project", "--preset", preset, "--out", str(out)]
    assert cli.main([*argv, "--scale", "0.01"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: scale 0.01 gives the SVG viewBox -0.0 -0.0 0.1 0.1"), err
    assert not out.exists()
    assert cli.main([*argv, "--scale", "1"]) == 0
    svg = out.read_text(encoding="utf-8")
    assert 'viewBox="-2.6 -2.6 5.2 5.2"' in svg


def test_main_project_rejects_colours_that_are_not_numbers(capsys):
    assert cli.main(["project", "--colors", "abc"]) == 2
    assert capsys.readouterr().err == "error: edge colours must be one or more of 1..4, got 'abc'\n"


def test_main_unknown_claim_id_message(capsys):
    assert cli.main(["verify", "no.such-claim"]) == 2
    assert capsys.readouterr().err == "error: unknown claim ids: ['no.such-claim']\n"


def test_main_unwritable_out_is_a_usage_error(tmp_path, capsys):
    out = str(tmp_path / "missing" / "out.txt")
    for argv in (["build", "cube"], ["verify", "petrie.count"], ["project"]):
        assert cli.main([*argv, "--out", out]) == 2, argv
        assert capsys.readouterr().err.startswith("error: cannot write"), argv


def test_main_verify_list(capsys, monkeypatch):
    def battery(*args, **kwargs):
        raise AssertionError("listing the claims must not run the battery")

    monkeypatch.setattr(cli, "run_claims", battery)
    code = cli.main(["verify", "--list"])
    out = capsys.readouterr().out.split()
    assert code == 0
    assert out == cli.all_claim_ids()
    assert len(out) == 42 and len(out) == len(set(out))
    assert "petrie.count" in out


@pytest.mark.parametrize("argv", [["--all", "petrie.count"], ["--list", "petrie.count"],
                                  ["--list", "--all"]])
def test_main_verify_rejects_conflicting_selections(argv, capsys, monkeypatch):
    # claim ids, --all and --list each choose what verify does; two at once
    # is a usage error, not one silently ignored
    def battery(*args, **kwargs):
        raise AssertionError("a conflicting selection must not run the battery")

    monkeypatch.setattr(cli, "run_claims", battery)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "not allowed with argument" in err, err


@pytest.mark.parametrize("argv", [["--list", "--cap", "1"], ["--cap", "1", "--list"],
                                  ["--list", "--cap", "1", "--format", "json"]])
def test_main_verify_list_rejects_cap(argv, capsys, monkeypatch):
    # listing enumerates no cosets, so a cap there is a usage error, not an
    # option ignored
    def battery(*args, **kwargs):
        raise AssertionError("listing the claims must not run the battery")

    monkeypatch.setattr(cli, "run_claims", battery)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --cap: not allowed with argument --list" in captured.err, captured.err


def test_main_verify_cap_defaults_to_the_default_cap(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "run_claims",
                        lambda cfg, only=None: seen.append(cfg.cap) or cli.Report([], 0.0))
    assert cli.main(["verify", "orders.cube-full", "--out", os.devnull]) == 0
    assert cli.main(["verify", "orders.cube-full", "--cap", "7", "--out", os.devnull]) == 0
    assert seen == [cli.DEFAULT_CAP, 7]


def test_main_verify_list_honours_out_and_format(tmp_path, capsys):
    ids = cli.all_claim_ids()
    text, as_json = tmp_path / "ids.txt", tmp_path / "ids.json"
    assert cli.main(["verify", "--list", "--out", str(text)]) == 0
    assert cli.main(["verify", "--list", "--format", "json", "--out", str(as_json)]) == 0
    assert capsys.readouterr().out == ""
    assert text.read_text(encoding="utf-8") == "".join(i + "\n" for i in ids)
    assert json.loads(as_json.read_text(encoding="utf-8")) == ids
    assert cli.main(["verify", "--list", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == ids


def test_hemi_and_the_chiral_row_read_tables_not_products(monkeypatch):
    """Once the cube and rotation groups are closed, build_hemi reads the
    quotient by zeta off the cube group's table, and the chiral cosets row
    compares integer tables: neither multiplies group elements much."""
    from polytope_forge import cubefamily as cf
    from polytope_forge.signedperm import SignedPerm

    cf.build_cube(), cf.group_cube(), cf.group_rotation_sigma()
    products = []
    real = SignedPerm.__mul__
    monkeypatch.setattr(SignedPerm, "__mul__", lambda a, b: products.append(b) or real(a, b))
    cf.build_hemi.cache_clear()
    try:
        cf.build_hemi()
    finally:
        cf.build_hemi.cache_clear()
    assert len(products) <= 40
    products.clear()
    assert cli._chiral_full_matches_rotation_group(cli.CliConfig()) \
        == (True, "index 192, distinct images 192")
    assert products == []


def _python(*args: str, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """A fresh interpreter in `_clean_env()`, so that stdout is
    block-buffered, as a pipe's is by default."""
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, timeout=300, env=_clean_env())


def _clean_env() -> dict:
    """This environment with no PYTHON* setting but the path."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    return {**env, "PYTHONPATH": str(SRC)}


@pytest.mark.parametrize("args", [("verify", "--all", "--format", "json"), ("verify", "--list")],
                         ids=["write-in-main", "write-in-the-flush"])
def test_a_closed_stdout_exits_2(args):
    """The report outgrows the stream's buffer and fails in `main`; the
    claim list fails in `run`'s flush.  Either way: exit 2, no traceback."""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _python("-m", "polytope_forge.cli", *args, stdout=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (2, "error: cannot write standard output: Broken pipe\n")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args", [("project", "--colors", "9"), ("build", "nosuch"),
                                  ("project", "--format", "json")],
                         ids=["error-in-main", "argparse-choice", "argparse-option"])
def test_a_closed_stderr_exits_2(args, unbuffered):
    """The error message cannot be written, from `main` or from argparse,
    which ignores the failed write and leaves the message buffered."""
    read, write = os.pipe()
    os.close(read)
    env = {"PYTHONUNBUFFERED": "1"} if unbuffered else {}
    try:
        proc = subprocess.run([sys.executable, "-m", "polytope_forge.cli", *args],
                              stdout=subprocess.PIPE, stderr=write, text=True, timeout=300,
                              env={**_clean_env(), **env})
    finally:
        os.close(write)
    assert (proc.returncode, proc.stdout) == (2, "")


def test_a_profiler_still_writes_its_report():
    """Under a profiler `run` exits normally, so cProfile prints its table
    after the output; an unguarded `os._exit` would drop it."""
    proc = _python("-m", "cProfile", "-m", "polytope_forge.cli", "verify", "--list")
    assert proc.returncode == 0, proc.stderr
    ids = "".join(claim_id + "\n" for claim_id in cli.all_claim_ids())
    assert proc.stdout.startswith(ids)
    assert "function calls" in proc.stdout[len(ids):]


def test_main_leaves_the_collector_on(capsys):
    assert cli.main(["verify", "--list"]) == 0
    assert gc.isenabled()


def test_the_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert scripts == {"polytope-forge": "polytope_forge.cli:run"}
