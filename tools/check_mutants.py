"""Mutation audit of the package's checks: does any test notice when a check
does nothing?

    python3 tools/check_mutants.py [--full] [--only 'groups.*' ...]

Run it from the repository root.  For each `check(condition, "layer.id",
witness)` call in `src/polytope_forge/`, the condition is replaced by `True`
in a copy of `src/`, `tests/`, `perfbench/` and `pyproject.toml`, made once
in a temporary directory, and `pytest -x` runs there; the working tree is
never written.  One JSON line per site goes to standard output: its id,
module and line, `killed` or `survived`, and the first failing test (the
exit code when none is named).  The counts go to standard error at the end.

The fast mode (the default) runs `tests/test_checks.py` and the test file
of the site's module, `tests/test_<module>.py`; `--full` runs `tests/`.
`--only` keeps the sites whose id matches one of its shell patterns, and a
repeated `--only` adds its patterns to the earlier ones.  Sites run one at
a time.  The audit is not part of the test suite.
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "polytope_forge"
_TESTED = ("src", "tests", "perfbench")  # with pyproject.toml, all that the tests read
_FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


class Site(NamedTuple):
    check_id: str
    module: str  # the module's stem, e.g. "cubefamily"
    line: int
    start: int  # byte offsets of the condition in the module's UTF-8 source
    end: int


def check_sites(source: bytes, module: str) -> list[Site]:
    """Every `check(...)` call whose id is a string literal, in source order.
    The AST's column offsets count UTF-8 bytes, so the condition is sliced
    from the bytes, not from the decoded text."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    sites = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check"
                and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)):
            continue
        cond = node.args[0]
        sites.append(Site(node.args[1].value, module, node.lineno,
                          starts[cond.lineno - 1] + cond.col_offset,
                          starts[cond.end_lineno - 1] + cond.end_col_offset))
    return sorted(sites, key=lambda site: site.start)


def mutated(source: bytes, site: Site) -> bytes:
    out = source[:site.start] + b"True" + source[site.end:]
    ast.parse(out)  # a slice off by a byte would not parse
    return out


def run_tests(copy: Path, site: Site, full: bool) -> tuple[str, str | None]:
    """Run pytest -x in the copy; ("killed", first failing test) or
    ("survived", None)."""
    if full:
        targets = ["tests"]
    else:
        own = Path("tests") / f"test_{site.module}.py"
        targets = ["tests/test_checks.py"] + ([str(own)] if (copy / own).exists() else [])
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
         *targets], cwd=copy, capture_output=True, text=True,
        env={**env, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"})
    if proc.returncode == 0:
        return "survived", None
    failed = _FAILED.search(proc.stdout)
    return "killed", failed.group(1) if failed else f"pytest exit {proc.returncode}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--full", action="store_true", help="run all of tests/ per site")
    # no default list: "extend" would add to it, and "*" matches every id
    parser.add_argument("--only", nargs="+", action="extend", metavar="PATTERN",
                        help="shell patterns of the check ids to mutate (default: all)")
    args = parser.parse_args(argv)
    patterns = args.only or ["*"]

    counts = {"killed": 0, "survived": 0}
    with tempfile.TemporaryDirectory(prefix="check-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        for part in _TESTED:
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        shutil.copy2(ROOT / "pyproject.toml", copy)
        for path in sorted((copy / PACKAGE).glob("*.py")):
            source = path.read_bytes()
            for site in check_sites(source, path.stem):
                if not any(fnmatch.fnmatchcase(site.check_id, p) for p in patterns):
                    continue
                path.write_bytes(mutated(source, site))
                try:
                    outcome, first = run_tests(copy, site, args.full)
                finally:
                    path.write_bytes(source)
                counts[outcome] += 1
                print(json.dumps({"id": site.check_id, "module": site.module,
                                  "line": site.line, "outcome": outcome,
                                  "first_failure": first}), flush=True)
    print(f"{counts['killed']} killed, {counts['survived']} survived", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
