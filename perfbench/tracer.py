"""Instrument polytope_forge from outside and run one operation under it.

    python3 perfbench/tracer.py spans  cli <polytope-forge arguments...>
    python3 perfbench/tracer.py counts cli <polytope-forge arguments...>
    python3 perfbench/tracer.py spans  ladder --seed <n>

Run from the repository root with ``PYTHONPATH=src``.  The package itself
is not modified: after importing it, this script replaces the public entry
points at each layer boundary by wrappers.  A name is replaced in every
``polytope_forge`` module that bound it, because ``from .x import f``
copies the reference and patching only the defining module would miss
those calls.

``spans`` records one span (name, start, end, parent) per wrapped call.
``counts`` records exact counters instead: hot operations such as
``SignedPerm.__mul__`` are far too frequent to time, so they are counted in
this separate pass and their overhead stays out of the span self times.

The operation's own standard output is captured and returned, so the
caller can check it against the same oracle as an uninstrumented run.
The script prints one JSON object: ``exit``, ``stdout`` and either
``spans`` or ``counts``.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import time
from collections import Counter

import polytope_forge.cli as cli
import polytope_forge.cubefamily as cubefamily
import polytope_forge.groupcore as groupcore
import polytope_forge.mkconfig as mkconfig
import polytope_forge.polycore as polycore
import polytope_forge.signedperm as signedperm

# Span name -> (owner, attribute).  The owner is a module or a class; span
# names are the per-layer metric they feed, see run.py.
SPAN_POINTS = {
    "cli.main": (cli, "main"),
    "cli.run_claims": (cli, "run_claims"),
    "cli.render_projection": (cli, "render_projection"),
    "groupcore.generate": (groupcore.ConcreteGroup, "generate"),
    "groupcore.enumerate_cosets": (groupcore, "enumerate_cosets"),
    "groupcore.extend_homomorphism": (groupcore, "extend_homomorphism"),
    "groupcore.orbit": (groupcore, "orbit"),
    "groupcore.stabilizer": (groupcore, "stabilizer"),
    "groupcore.setwise_stabilizer": (groupcore, "setwise_stabilizer"),
    "groupcore.string_condition": (groupcore, "string_condition"),
    "groupcore.intersection_condition": (groupcore, "intersection_condition"),
    "polycore.coset_geometry": (polycore, "coset_geometry"),
    "polycore.validate_polytope": (polycore.RankedIncidenceStructure, "validate_polytope"),
    "polycore.classify": (polycore, "classify"),
    "polycore.isomorphic_to": (polycore.RankedIncidenceStructure, "isomorphic_to"),
    "polycore.central_quotient": (polycore, "central_quotient"),
    "polycore.colourful_polytope": (polycore, "colourful_polytope"),
    "polycore.verify_covering": (polycore, "verify_covering"),
    **{f"cubefamily.{name}": (cubefamily, name) for name in (
        "build_atlas", "build_cube", "build_hemi", "build_map", "build_roli",
        "build_enantiomorph", "build_cover", "petrie_polygons",
        "petrie_polygons_brute_force")},
    "mkconfig.group_333": (mkconfig, "group_333"),
    "mkconfig.build_configuration": (mkconfig, "build_configuration"),
    "mkconfig.complexify": (mkconfig, "complexify"),
}

PACKAGE_MODULES = (cli, cubefamily, groupcore, mkconfig, polycore, signedperm)


def replace(owner, attr: str, make_wrapper) -> None:
    """Wrap owner.attr, and rebind the wrapper wherever a package module
    holds the original under the same name."""
    raw = owner.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make_wrapper(raw.__func__)))
        return
    wrapped = make_wrapper(raw)
    setattr(owner, attr, wrapped)
    if isinstance(owner, type):
        return
    for module in PACKAGE_MODULES:
        if module.__dict__.get(attr) is raw:
            setattr(module, attr, wrapped)


class SpanRecorder:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrapper(self, name: str):
        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                index = len(self.spans)
                parent = self._open[-1] if self._open else -1
                self.spans.append([name, time.perf_counter(), None, parent])
                self._open.append(index)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._open.pop()
                    self.spans[index][2] = time.perf_counter()
            return traced
        return make

    def install(self) -> None:
        for name, (owner, attr) in SPAN_POINTS.items():
            replace(owner, attr, self.wrapper(name))


class CountRecorder:
    """Exact counters taken at the same boundaries as the spans."""

    def __init__(self):
        self.counts: Counter = Counter()
        self._flagged: dict[int, object] = {}

    def _counting(self, key: str):
        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counts[key] += 1
                return fn(*args, **kwargs)
            return counted
        return make

    def _after(self, observe):
        """Wrapper factory that hands each result to observe(args, result)."""
        def make(fn):
            @functools.wraps(fn)
            def observed(*args, **kwargs):
                result = fn(*args, **kwargs)
                observe(args, result)
                return result
            return observed
        return make

    def _petrie(self, fn):
        @functools.wraps(fn)
        def constructed(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except ValueError:
                self.counts["cubefamily.petrie_rejected"] += 1
                raise
            self.counts["cubefamily.petrie_constructed"] += 1
        return constructed

    def _on_generate(self, args, group) -> None:
        self.counts["groupcore.elements_generated"] += len(group)

    def _on_cosets(self, args, table) -> None:
        self.counts["groupcore.cosets_total"] += table.index

    def _on_flags(self, args, flags) -> None:
        struct = args[0]
        if id(struct) not in self._flagged:
            # holding the structure keeps its id from being reused
            self._flagged[id(struct)] = struct
            self.counts["polycore.flags_total"] += len(flags)

    def _on_coset_geometry(self, args, struct) -> None:
        """Incident face pairs against tested pairs sum |F_j||F_k|, from
        the public structure of the result."""
        f = struct.f_vector
        for j in range(struct.rank):
            for k in range(j + 1, struct.rank):
                self.counts["polycore.incidence_tested"] += f[j] * f[k]
                self.counts["polycore.incidence_pairs"] += sum(
                    len(struct.incident_at_rank(ref, k)) for ref in struct.refs(j))

    def install(self) -> None:
        replace(signedperm.SignedPerm, "__mul__", self._counting("signedperm.products"))
        replace(signedperm.SignedPerm, "__init__", self._counting("signedperm.constructed"))
        replace(mkconfig.QF, "__mul__", self._counting("mkconfig.qf_products"))
        replace(mkconfig.QF, "__rmul__", self._counting("mkconfig.qf_products"))
        replace(cubefamily.PetriePolygon, "__init__", self._petrie)
        replace(groupcore.ConcreteGroup, "generate", self._after(self._on_generate))
        replace(groupcore, "enumerate_cosets", self._after(self._on_cosets))
        replace(polycore.RankedIncidenceStructure, "flags", self._after(self._on_flags))
        replace(polycore, "coset_geometry", self._after(self._on_coset_geometry))

    def result(self) -> dict:
        out = dict(self.counts)
        for module in (cubefamily, mkconfig):
            layer = module.__name__.rsplit(".", 1)[1]
            out[f"{layer}.cache_hits"] = out[f"{layer}.cache_misses"] = 0
            for value in vars(module).values():
                # skip caches that the module imported from another one
                if (hasattr(value, "cache_info")
                        and getattr(value, "__module__", None) == module.__name__):
                    info = value.cache_info()
                    out[f"{layer}.cache_hits"] += info.hits
                    out[f"{layer}.cache_misses"] += info.misses
        return out


def main(argv: list[str]) -> int:
    mode, target, rest = argv[0], argv[1], argv[2:]
    recorder = {"spans": SpanRecorder, "counts": CountRecorder}[mode]()
    recorder.install()
    if target == "cli":
        entry = cli.main  # the wrapped entry point, now that it is installed
    elif target == "ladder":
        import ladder
        entry = ladder.run
    else:
        raise SystemExit(f"unknown target {target!r}")

    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        try:
            code = entry(rest)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    data = {"exit": code, "stdout": captured.getvalue()}
    if mode == "spans":
        data["spans"] = recorder.spans
    else:
        data["counts"] = recorder.result()
    sys.stdout.write(json.dumps(data) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
