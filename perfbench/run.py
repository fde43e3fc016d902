"""Benchmark of polytope-forge: cold CLI commands, the verification
battery and a B_n ladder, with an output oracle for every operation.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0

Run it from the repository root; it needs nothing but the sources under
``src/``.  Every operation is a fresh interpreter started with
``PYTHONPATH=src``, one at a time (a closed loop with one client), on one
CPU.  Its times are normalised to a reference CPU speed by a sensor on
that CPU (see speed.py).  The last line of standard output is the result: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it records the machine and
the per-operation samples.

``--trace 0`` times the workload and reports the end-to-end metrics.
``--trace 1`` runs each operation three more ways (untraced, with spans,
with counters; see tracer.py) plus ``-X importtime``, and reports the
per-layer metrics.  See README.md for what each number means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import re
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import ladder
import speed

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
PYTHON = sys.executable

SETUP_SAMPLES = 5  # at least; one probe precedes every operation
IMPORTTIME_SAMPLES = 3
CLAIM_COUNT = 42
# A run must end within 180 s; an operation still running at this point
# is killed and counted as failed.
HARD_LIMIT_S = 165.0

CLI = (PYTHON, "-m", "polytope_forge.cli")
IMPORT = (PYTHON, "-c", "import polytope_forge.cli")
LADDER = "ladder"

# operation name -> polytope-forge arguments (None for the ladder)
CLI_COMMANDS = {
    "verify_list": ("verify", "--list"),
    "build_cube": ("build", "cube", "--format", "json"),
    "build_hemi": ("build", "hemi", "--format", "json"),
    "build_map": ("build", "map", "--format", "json"),
    "build_roli": ("build", "roli", "--format", "json"),
    "build_enantiomorph": ("build", "enantiomorph", "--format", "json"),
    "build_cover": ("build", "cover", "--format", "json"),
    "build_mk": ("build", "mk", "--format", "json"),
    "project_coxeter": ("project", "--preset", "coxeter"),
    "project_plane": ("project", "--preset", "plane"),
}
WORKLOADS = {
    "verify-all": {"verify_all": ("verify", "--all", "--format", "json")},
    "cli-commands": CLI_COMMANDS,
    "ncube-ladder": {LADDER: None},
}

# span name (tracer.py) -> per-layer metric fed by its self time
SPAN_METRICS = {
    "cli.main": "cli.main_self_s",
    "cli.run_claims": "cli.run_claims_self_s",
    "cli.render_projection": "cli.render_projection_s",
    "groupcore.generate": "groupcore.generate_s",
    "groupcore.enumerate_cosets": "groupcore.enumerate_cosets_s",
    "groupcore.extend_homomorphism": "groupcore.extend_homomorphism_s",
    "groupcore.orbit": "groupcore.stabilizers_s",
    "groupcore.stabilizer": "groupcore.stabilizers_s",
    "groupcore.setwise_stabilizer": "groupcore.stabilizers_s",
    "groupcore.string_condition": "groupcore.conditions_s",
    "groupcore.intersection_condition": "groupcore.conditions_s",
    "polycore.coset_geometry": "polycore.coset_geometry_s",
    "polycore.validate_polytope": "polycore.validate_polytope_s",
    "polycore.classify": "polycore.classify_s",
    "polycore.isomorphic_to": "polycore.isomorphic_to_s",
    "polycore.central_quotient": "polycore.central_quotient_s",
    "polycore.colourful_polytope": "polycore.colourful_polytope_s",
    "polycore.verify_covering": "polycore.verify_covering_s",
    "cubefamily.build_atlas": "cubefamily.build_atlas_s",
    "cubefamily.build_cube": "cubefamily.build_cube_s",
    "cubefamily.build_hemi": "cubefamily.build_hemi_s",
    "cubefamily.build_map": "cubefamily.build_map_s",
    "cubefamily.build_roli": "cubefamily.build_roli_s",
    "cubefamily.build_enantiomorph": "cubefamily.build_enantiomorph_s",
    "cubefamily.build_cover": "cubefamily.build_cover_s",
    "cubefamily.petrie_polygons": "cubefamily.petrie_polygons_s",
    "cubefamily.petrie_polygons_brute_force": "cubefamily.petrie_brute_force_s",
    "mkconfig.group_333": "mkconfig.group_333_s",
    "mkconfig.build_configuration": "mkconfig.build_configuration_s",
    "mkconfig.complexify": "mkconfig.complexify_s",
}
COUNT_METRICS = (
    "signedperm.products", "signedperm.constructed",
    "groupcore.elements_generated", "groupcore.cosets_total",
    "polycore.flags_total", "cubefamily.petrie_constructed",
    "cubefamily.petrie_rejected", "mkconfig.qf_products",
)
# ratio metric -> (numerator count, denominator counts)
RATIO_METRICS = {
    "polycore.incidence_yield": ("polycore.incidence_pairs", ("polycore.incidence_tested",)),
    "cubefamily.cache_hit_ratio": ("cubefamily.cache_hits",
                                   ("cubefamily.cache_hits", "cubefamily.cache_misses")),
    "mkconfig.cache_hit_ratio": ("mkconfig.cache_hits",
                                 ("mkconfig.cache_hits", "mkconfig.cache_misses")),
}
IMPORT_METRICS = ("setup.import_networkx_s", "setup.import_polytope_forge_s")


class SetupError(Exception):
    """The checkout cannot run the program at all; no result is printed."""


@dataclass
class Proc:
    start: float  # perf_counter
    end: float
    exit: int | None
    stdout: bytes
    stderr: bytes
    peak_rss_mb: float

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def spawn(cmd, env: dict, deadline: float) -> Proc:
    """Run one child to completion and return its wall time, output and
    peak resident set size.  A child still alive at `deadline` (a
    perf_counter value) is killed."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks = {proc.stdout: [], proc.stderr: []}
    killed = False
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0 and not killed:
                proc.kill()
                killed = True
            for key, _ in sel.select(timeout=None if killed else remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    # wait4 rather than Popen.wait, for the child's own resource usage
    _, status, usage = os.wait4(proc.pid, 0)
    end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(start=start, end=end, exit=None if killed else proc.returncode,
                stdout=b"".join(chunks[proc.stdout]),
                stderr=b"".join(chunks[proc.stderr]),
                peak_rss_mb=usage.ru_maxrss / 1024)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def load_reference() -> dict:
    with open(BENCH / "reference.json", encoding="utf-8") as handle:
        return json.load(handle)["sha256"]


def ladder_expected(n: int) -> dict:
    order = 2 ** n * math.factorial(n)
    return {"n": n, "order": order, "coset_index": order, "flags": order,
            "f_vector": [math.comb(n, k) * 2 ** (n - k) for k in range(n)],
            "classification": "regular"}


def check_output(op: str, exit_code: int | None, stdout: bytes,
                 reference: dict) -> str | None:
    """None when the operation's output is right, else the reason."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    if op == LADDER:
        try:
            rungs = json.loads(stdout)["rungs"]
        except (ValueError, KeyError, TypeError):
            return "ladder output is not the expected JSON"
        expected = [ladder_expected(n) for n in ladder.RUNGS]
        return None if rungs == expected else f"ladder rungs {rungs} != {expected}"
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != reference[op]:
        return f"sha256 {digest} != reference {reference[op]}"
    if op == "verify_all":
        report = json.loads(stdout)
        ids = [claim["id"] for claim in report["claims"]]
        if not report["all_passed"] or len(set(ids)) != CLAIM_COUNT:
            return "battery did not pass 42 unique claims"
    if op == "verify_list":
        ids = stdout.decode().split()
        if len(set(ids)) != CLAIM_COUNT:
            return "verify --list did not give 42 unique ids"
    return None


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

class Runner:
    """Runs children for one benchmark run and keeps the tally."""

    def __init__(self, seed: int, reference: dict):
        self.seed = seed
        self.reference = reference
        # The caller's PYTHON* settings (PYTHONDONTWRITEBYTECODE, say)
        # would change what a cold start costs, so none are passed on.
        self.env = {key: value for key, value in os.environ.items()
                    if not key.startswith("PYTHON")}
        self.env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(seed % 2 ** 32))
        self.hard_deadline = time.perf_counter() + HARD_LIMIT_S
        self.attempted = 0
        self.failures: list[str] = []

    def command(self, spec, tracer_mode: str | None = None) -> list[str]:
        if spec is None:
            target = ["ladder", "--seed", str(self.seed)]
            plain = [PYTHON, str(BENCH / "ladder.py")] + target[1:]
        else:
            target = ["cli", *spec]
            plain = [*CLI, *spec]
        if tracer_mode is None:
            return plain
        return [PYTHON, str(BENCH / "tracer.py"), tracer_mode, *target]

    def run(self, op: str, spec, tracer_mode: str | None = None) -> tuple[Proc, dict]:
        """Run an operation, plain or under tracer.py, and check its output.
        Returns the process and the tracer's payload (empty for a plain
        run, or when the tracer itself failed)."""
        proc = spawn(self.command(spec, tracer_mode), self.env, self.hard_deadline)
        self.attempted += 1
        payload: dict = {}
        try:
            exit_code, stdout = proc.exit, proc.stdout
            if tracer_mode is not None and proc.exit == 0:
                payload = json.loads(proc.stdout)
                exit_code, stdout = payload["exit"], payload["stdout"].encode()
            problem = check_output(op, exit_code, stdout, self.reference)
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output: {exc!r}"
        if problem:
            self.failures.append(f"{op}: {problem}; stderr: "
                                 f"{proc.stderr.decode(errors='replace')[-500:]}")
        return proc, payload

    def probe_import(self) -> Proc:
        proc = spawn(IMPORT, self.env, self.hard_deadline)
        self.attempted += 1
        if proc.exit != 0:
            self.failures.append("import polytope_forge.cli failed: "
                                 + proc.stderr.decode(errors="replace")[-500:])
        return proc


def measure(workload: str, runner: Runner, rng: random.Random,
            seconds: float, cpu: int) -> tuple[dict, dict]:
    """End-to-end metrics: the workload's operations in shuffled rounds
    until `seconds` have passed, each preceded by a cold set-up probe, so
    that both medians span the whole run.  Every operation runs at least
    once; after that, an operation starts only if its probe and half its
    last time fit before the deadline, so a run overshoots by as much as
    it falls short and lasts `seconds` on average.

    Every time is normalised to the reference speed by the sensor on
    `cpu` (see speed.py); the raw wall times go to the run record."""
    ops = list(WORKLOADS[workload].items())
    setup: list[Proc] = []
    samples: dict[str, list[Proc]] = {op: [] for op, _ in ops}
    with speed.Sensor(cpu) as sensor:
        deadline = time.perf_counter() + seconds
        while True:
            rng.shuffle(ops)
            ran = False
            for op, spec in ops:
                procs = samples[op]
                if procs and (time.perf_counter() + setup[-1].wall_s
                              + procs[-1].wall_s / 2 > deadline):
                    continue
                setup.append(runner.probe_import())
                procs.append(runner.run(op, spec)[0])
                ran = True
            if not ran:
                break
        while len(setup) < SETUP_SAMPLES:
            setup.append(runner.probe_import())
    if sensor.died or not sensor.starts:
        raise SetupError("the speed sensor stopped early")

    def normalised(procs: list[Proc]) -> list[float]:
        return [sensor.normalise(p.start, p.end) for p in procs]

    setup_s = normalised(setup)
    times = {op: normalised(procs) for op, procs in samples.items()}
    medians = {op: statistics.median(t) for op, t in times.items()}
    command_s = math.exp(statistics.fmean(math.log(t) for t in medians.values()))
    peak = max(p.peak_rss_mb for procs in samples.values() for p in procs)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "command_s": (command_s, "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    detail = {
        "speed_readings": len(sensor.starts),
        "setup_samples_s": setup_s,
        "setup_wall_samples_s": [p.wall_s for p in setup],
        "samples_s": times,
        "wall_samples_s": {op: [p.wall_s for p in procs]
                           for op, procs in samples.items()},
        "medians_s": {f"{op}_s": t for op, t in medians.items()},
        "wall_medians_s": {f"{op}_s": statistics.median(p.wall_s for p in procs)
                           for op, procs in samples.items()},
    }
    return metrics, detail


def parse_importtime(stderr: str) -> dict:
    """networkx: cumulative time of its outermost import.  polytope_forge:
    self time of the package's own modules."""
    networkx_us = forge_us = 0
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \| *(\S+)$", line)
        if not m:
            continue
        self_us, cumulative_us, name = int(m[1]), int(m[2]), m[3]
        if name == "networkx":
            networkx_us = max(networkx_us, cumulative_us)
        if name.split(".")[0] == "polytope_forge":
            forge_us += self_us
    return {"setup.import_networkx_s": networkx_us / 1e6,
            "setup.import_polytope_forge_s": forge_us / 1e6}


def self_times(spans: list) -> dict:
    """Per-metric self time: each span's duration minus its children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), covered in zip(spans, child):
        metric = SPAN_METRICS.get(name)
        if metric:
            out[metric] = out.get(metric, 0.0) + (end - start) - covered
    return out


def trace(workload: str, runner: Runner, rng: random.Random) -> tuple[dict, dict]:
    """Per-layer metrics, from one untraced, one span-traced and one
    counting pass over the workload's operations."""
    imports = []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = spawn([PYTHON, "-X", "importtime", *IMPORT[1:]], runner.env,
                     runner.hard_deadline)
        runner.attempted += 1
        if proc.exit != 0:
            runner.failures.append("importtime probe failed")
        imports.append(parse_importtime(proc.stderr.decode(errors="replace")))
    metrics = {name: (statistics.median(sample[name] for sample in imports), "s")
               for name in IMPORT_METRICS}

    ops = list(WORKLOADS[workload].items())
    rng.shuffle(ops)
    untraced = sum(runner.run(op, spec)[0].wall_s for op, spec in ops)

    layer_s = {name: 0.0 for name in set(SPAN_METRICS.values())}
    traced_wall = 0.0
    span_calls: dict[str, int] = {}
    for op, spec in ops:
        proc, payload = runner.run(op, spec, "spans")
        traced_wall += proc.wall_s
        for name, seconds in self_times(payload.get("spans", [])).items():
            layer_s[name] += seconds
        for span in payload.get("spans", []):
            span_calls[span[0]] = span_calls.get(span[0], 0) + 1
    metrics.update({name: (seconds, "s") for name, seconds in layer_s.items()})
    metrics["trace.overhead_s"] = (traced_wall - untraced, "s")

    counts: dict[str, int] = {}
    for op, spec in ops:
        for name, value in runner.run(op, spec, "counts")[1].get("counts", {}).items():
            counts[name] = counts.get(name, 0) + value
    metrics.update({name: (counts.get(name, 0), "count") for name in COUNT_METRICS})
    for name, (num, dens) in RATIO_METRICS.items():
        den = sum(counts.get(d, 0) for d in dens)
        metrics[name] = (counts.get(num, 0) / den if den else 0.0, "ratio")
    detail = {"untraced_wall_s": untraced, "traced_wall_s": traced_wall,
              "span_calls": span_calls, "raw_counts": counts}
    return metrics, detail


# ---------------------------------------------------------------------------
# machine record
# ---------------------------------------------------------------------------

def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from its own .git directory; None when
    the checkout is not a plain git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_record() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
            "python": platform.python_version(), "git_commit": git_commit(),
            "source_sha256": source_digest(), "loadavg_start": os.getloadavg()}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if not (ROOT / "src" / "polytope_forge" / "cli.py").is_file():
            raise SetupError(f"no polytope_forge sources under {ROOT / 'src'}")
        machine = machine_record()
        # Every child runs on one CPU, the one the speed sensor watches.
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        machine["pinned_cpu"] = cpu
        runner = Runner(args.seed, load_reference())
        # compile the bytecode cache once, as an installed package would
        warm = spawn(IMPORT, runner.env, runner.hard_deadline)
        if warm.exit != 0:
            raise SetupError(warm.stderr.decode(errors="replace")[-2000:])
        rng = random.Random(args.seed)
        if args.trace:
            metrics, detail = trace(args.workload, runner, rng)
        else:
            metrics, detail = measure(args.workload, runner, rng, args.seconds, cpu)
    except SetupError as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2

    machine["loadavg_end"] = os.getloadavg()
    failed = len(runner.failures)
    for problem in runner.failures:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "machine": machine,
                      "error_rate": failed / runner.attempted, **detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
