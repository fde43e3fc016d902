"""Self-test of the benchmark at its shortest length.

    python3 perfbench/selftest.py

From the repository root.  It checks that

- every workload runs with --seconds 1, traced and untraced, and every
  operation passes the oracle;
- the result line has exactly the keys of the contract, and emits every
  metric that BENCHMARK.json declares for the mode, with the declared unit;
- a deliberately wrong reference digest is reported as a failed
  operation, so the oracle can fail;
- in a directory holding only BENCHMARK.json and perfbench/, the
  benchmark exits nonzero without printing a result.

It takes about three minutes and exits nonzero on the first problem.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def expect(ok: bool, message) -> None:
    """A check that also holds under python -O."""
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(workload: str, trace: int) -> None:
    proc = bench(ROOT, workload, trace)
    expect(proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == RESULT_KEYS, f"result keys {sorted(result)}")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{workload} trace={trace}: {result}\n{proc.stderr}")
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(emitted == declared, f"{workload} trace={trace}: emitted {emitted}, declared {declared}")
    for name, metric in result["metrics"].items():
        expect(isinstance(metric["value"], (int, float)), f"{name}: {metric}")
    print(f"ok  {workload} trace={trace}: {result['attempted']} operations", flush=True)


def check_wrong_digest_fails() -> None:
    good = run.load_reference()
    run.load_reference = lambda: {**good, "verify_all": "0" * 64}
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", "verify-all", "--seed", "1", "--seconds", "1"])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    expect(code == 0 and not result["correct"], result)
    expect(result["failed"] == 1 and result["attempted"] == run.SETUP_SAMPLES + 1, result)
    print("ok  a wrong reference digest is a failed operation", flush=True)


def check_bare_directory_refuses() -> None:
    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=ROOT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(Path(bare), "verify-all", 0)
    expect(proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout))
    print("ok  a directory without the sources gives no result", flush=True)


def main() -> int:
    check_bare_directory_refuses()
    check_wrong_digest_fails()
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_result(workload, trace)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
