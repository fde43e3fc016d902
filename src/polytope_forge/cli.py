"""Command-line front end: build the objects, run the verification battery,
emit JSON certificates and SVG projections.

Floating point lives only here (projection rendering and its two 1e-9
checks); everything upstream is exact.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
import time
from collections import namedtuple

from . import cubefamily as cf
from .groupcore import (DEFAULT_CAP, CapExceeded, CheckFailed, Homomorphism, enumerate_cosets,
                        intersection_condition, string_condition)
from .polycore import Classification, isomorphisms

__all__ = [
    "Claim", "Report", "ProjectionSpec", "CliConfig",
    "run_claims", "all_claim_ids", "render_projection",
    "coxeter_projection_spec", "plane_projection_spec", "main", "run",
]

SCHEMA = "polytope-forge/1"
TOL = 1e-9


def _mk():
    """The Möbius–Kantor module, imported on first use: only the `mk.*`
    rows, `build mk` and the plane projection need it.  Callers reach its
    functions through the module, so a function rebound there is the one
    they call."""
    from . import mkconfig
    return mkconfig


class Claim(namedtuple("Claim", "claim_id criterion expected computed passed note",
                       defaults=("",))):
    __slots__ = ()

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return (f"{mark} [{self.criterion}] {self.claim_id}: "
                f"expected {self.expected}, computed {self.computed}"
                + (f" ({self.note})" if self.note else ""))

    def to_json_dict(self) -> dict:
        return {"id": self.claim_id, "criterion": self.criterion,
                "expected": self.expected, "computed": self.computed,
                "passed": self.passed, "note": self.note}


class Report(namedtuple("Report", "claims elapsed_seconds")):
    """The battery's outcome: its claims, in battery order, and the time
    they took."""

    __slots__ = ()

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.claims)

    def to_json_dict(self) -> dict:
        return {
            "object": "verification-battery",
            "claims": [c.to_json_dict() for c in self.claims],
            "all_passed": self.all_passed,
        }


CliConfig = namedtuple("CliConfig", "cap", defaults=(DEFAULT_CAP,))


# ---------------------------------------------------------------------------
# the battery
# ---------------------------------------------------------------------------

class _Row(namedtuple("_Row", "claim_id criterion expected compute note", defaults=("",))):
    """One claim.  `compute(cfg)` gives the computed value; a boolean claim
    expects True and computes a real bool.  When `note` is None the note
    reports on the computed value, and `compute` returns (value, note)."""

    __slots__ = ()


def _evaluate(row: _Row, cfg: CliConfig) -> Claim:
    value, note = row.compute(cfg), row.note
    if note is None:
        value, note = value
    return Claim(claim_id=row.claim_id, criterion=row.criterion,
                 expected=str(row.expected), computed=str(value),
                 passed=str(row.expected) == str(value), note=note)


def _chiral_full_matches_rotation_group(cfg: CliConfig) -> tuple[bool, str]:
    """The coset table of Roli's rotation presentation, renumbered along its
    forward columns, is the action table of <sigma1, sigma2, sigma3>."""
    table = enumerate_cosets(cf.presentation_roli(), (), cap=cfg.cap)
    act = table.forward_action()
    return (act == cf.group_rotation_sigma().table().act,
            f"index {table.index}, distinct images {len(act)}")


def _petrie_class_split(cfg: CliConfig) -> str:
    split = {"R": 0, "L": 0}
    for p in cf.petrie_polygons():
        split[p.chiral_class] += 1
    return f"{split['R']}R/{split['L']}L"


def _petrie_stabilizer_orders(cfg: CliConfig) -> str:
    k = cf.group_petrie_stabilizer()
    k_rot = [g for g in k if g.determinant() == 1]
    return f"{len(k)}/{len(k_rot)}"


def _roli_classification(cfg: CliConfig) -> tuple[bool, str]:
    bundle = cf.build_roli()
    return (bundle.classification is Classification.CHIRAL and bundle.orbit_count == 2,
            f"{bundle.orbit_count} flag orbits, adjacent flags split")


def _mk_unitary_triangle_group(cfg: CliConfig) -> bool:
    g = _mk().group_333()
    return (g["relators_hold"] and g["braid_relation"]
            and g["group_order"] == 24 and g["centralizer_equals_group"]
            and g["presentation_index"] == 24)


def _projection_isometric(cfg: CliConfig) -> tuple[bool, str]:
    lengths = projected_edge_lengths(coxeter_projection_spec())
    spread = max(lengths) - min(lengths)
    return (len(lengths) == 32 and spread <= TOL,
            f"32 projected edges, spread {spread:.2e}")


def _projection_plane_positions(cfg: CliConfig) -> tuple[bool, str]:
    fit = plane_positions_fit()
    return fit <= TOL, f"similarity fit residual {fit:.2e}"


# The only place that declares a claim, in report order.  A row is computed
# only when its claim is selected; the builders it calls are cached.
_CLAIMS: tuple[_Row, ...] = (
    _Row("orders.cube-full", 1, 384, lambda cfg: len(cf.group_cube())),
    _Row("orders.cube-rotation", 1, 192, lambda cfg: len(cf.group_rotation())),
    _Row("orders.map-rotation", 1, 48, lambda cfg: len(cf.group_map_rotation())),
    _Row("orders.map-full", 1, 96,
         lambda cfg: enumerate_cosets(cf.presentation_map_full(), (), cap=cfg.cap).index,
         "trivial-subgroup enumeration of the reflection presentation"),
    _Row("orders.cover-rotation", 1, 384, lambda cfg: len(cf.group_cover_rotation())),
    _Row("orders.cover-full", 1, 768, lambda cfg: len(cf.group_cover())),
    _Row("orders.unitary-triangle", 1, 24, lambda cfg: len(cf.group_unitary())),

    _Row("cosets.map-rotation-over-s1", 2, 6,
         lambda cfg: enumerate_cosets(cf.presentation_map_rotation(), [(1,)],
                                      cap=cfg.cap).index),
    _Row("cosets.chiral-partial-over-s1-s2", 2, 8,
         lambda cfg: enumerate_cosets(cf.presentation_roli(with_chirality_breaker=False),
                                      [(1,), (2,)], cap=cfg.cap).index,
         "bounds the partially presented group by 8*48=384"),
    _Row("cosets.chiral-full-matches-rotation-group", 2, True,
         _chiral_full_matches_rotation_group, None),
    _Row("cosets.unitary-triangle-order", 2, 24,
         lambda cfg: enumerate_cosets(cf.presentation_unitary_triangle(), (),
                                      cap=cfg.cap).index),

    _Row("petrie.brute-force-equals-orbit", 3, True,
         lambda cfg: (tuple(p.vertices for p in cf.petrie_polygons())
                      == tuple(p.vertices for p in cf.petrie_polygons_brute_force())),
         "byte-identical canonical forms"),
    _Row("petrie.count", 3, 24, lambda cfg: len(cf.petrie_polygons())),
    _Row("petrie.class-split", 3, "12R/12L", _petrie_class_split),
    _Row("petrie.window-determinants", 3, True,
         lambda cfg: all(p.det4() == {"R": 8, "L": -8}[p.chiral_class]
                         for p in cf.petrie_polygons()),
         "+8 on class R, -8 on class L"),
    _Row("petrie.stabilizer-orders", 3, "16/16", _petrie_stabilizer_orders,
         "base octagon stabilizer in the full and rotation groups"),

    _Row("map.f-vector", 4, (16, 24, 6), lambda cfg: cf.build_map().structure.f_vector),
    _Row("map.octagon-alternate-labels", 4, True,
         lambda cfg: cf.octagon_label_sets() == frozenset(
             frozenset(s) for s in ((0, 2, 4, 6), (1, 3, 5, 7), (0, 5, 4, 1),
                                    (1, 2, 5, 6), (2, 3, 6, 7), (0, 7, 4, 3))),
         "0246 1357 0541 1256 2367 0743"),
    _Row("map.skeleton-generalized-petersen", 4, True,
         lambda cfg: next(isomorphisms(cf._adjacency(cf.build_map().edges),
                                       cf.gp83_graph()), None) is not None),
    _Row("map.levi-automorphisms", 4, 96, lambda cfg: cf.build_map().levi_automorphism_count),
    _Row("map.regularity-automorphism", 4, True,
         lambda cfg: (isinstance(cf.build_map().regularity_hom, Homomorphism)
                      and cf.build_map().regularity_hom.is_involutory()),
         "s1 -> s1^-1, s2 -> s1^2 s2 extends involutorily"),
    _Row("map.geometric-chirality", 4, True,
         lambda cfg: (not cf.build_map().mu0_preserves_edges
                      and cf.build_map().edge_stabilizer_in_full_group
                      == cf.group_map_rotation().element_set),
         "no orientation-reversing symmetry keeps the edge set"),

    _Row("roli.f-vector", 5, (16, 32, 12, 4), lambda cfg: cf.build_roli().structure.f_vector),
    _Row("roli.stabilizer-orders", 5, (12, 6, 16, 48),
         lambda cfg: cf.build_roli().stabilizer_orders),
    _Row("roli.classification-chiral", 5, True, _roli_classification, None),
    _Row("roli.chirality-witness", 5, True, lambda cfg: cf.build_roli().witness_holds,
         "(s1 s3)^4 is central and nontrivial, (s1^-1 s3)^4 = 1"),
    _Row("roli.vertex-figure-type", 5, (3, 3), lambda cfg: cf.build_roli().type_vector[1:]),

    _Row("cover.string-c-group", 6, True,
         lambda cfg: (string_condition(cf.group_cover())
                      and intersection_condition(cf.group_cover())
                      and len(cf.group_cover()) == 768)),
    _Row("cover.regular-type-833", 6, True,
         lambda cfg: (cf.build_cover().classification is Classification.REGULAR
                      and cf.build_cover().type_vector == (8, 3, 3)
                      and cf.build_cover().flag_count == 768),
         "768 = 2 * 384 flags"),
    _Row("cover.two-to-one-three-coverings", 6, True,
         lambda cfg: all(c.uniform_fiber_size() == 2 and c.is_k_covering for c in
                         (cf.build_cover().covering_right, cf.build_cover().covering_left))),
    _Row("cover.quotient-criterion", 6, True,
         lambda cfg: cf.build_cover().injective_on_tetrahedral,
         "reflection images are injective on the vertex subgroup"),
    _Row("cover.centre", 6, True,
         lambda cfg: (len(cf.build_cover().centre_plus) == 4
                      and cf.build_cover().centre_word_identities),
         "(z,1), (1,z), (z,z) as words in the block generators"),

    # build_J and build_L check these six relations and raise when one fails
    _Row("mk.complex-structure", 7, True,
         lambda cfg: _mk().build_J() is not None and _mk().build_L() is not None,
         "J^2 = -I, J orthogonal, a1 J = b1, a2 J = b2, |a1| = |b1|, a1 . b1 = 0"),
    _Row("mk.incidence-8-8-3", 7, True,
         lambda cfg: (_mk().build_configuration().incidence_row_sums() == (3,) * 8
                      and _mk().build_configuration().incidence_col_sums() == (3,) * 8),
         "8 points, 8 lines, 3 per row and column, exact"),
    _Row("mk.line-167-equation", 7, True,
         lambda cfg: _mk().line_matches_paper(_mk().build_configuration()),
         "r(1-i) z1 + 2 z2 = 2r(1+i), satisfied by exactly 1,6,7"),
    # build_configuration checks every point against the published table
    _Row("mk.coordinate-table", 7, True, lambda cfg: _mk().build_configuration() is not None,
         "literal match"),
    _Row("mk.unitary-triangle-group", 7, True, _mk_unitary_triangle_group,
         "order 24, centralizer of J, presentation index 24"),
    _Row("mk.binary-tetrahedral", 7, True,
         lambda cfg: (cf.binary_tetrahedral_check()["identities_hold"]
                      and cf.binary_tetrahedral_check()["order"] == 24
                      and cf.binary_tetrahedral_check()["normal_in_map_rotation_group"]),
         "a^3 = b^3 = (ab)^2 = central involution; order 24; normal"),

    _Row("colourful.cube-skeleton", 8, True,
         lambda cfg: cf.build_cube().colourful.isomorphic_to(cf.build_cube().structure)),
    _Row("colourful.k44-hemi", 8, True,
         lambda cfg: (cf.build_hemi().colourful.isomorphic_to(cf.build_hemi().structure)
                      and cf.build_hemi().generator_product_order == 4),
         "generator product has order 4 in the quotient"),

    _Row("projection.isometric", 9, True, _projection_isometric, None),
    _Row("projection.plane-positions", 9, True, _projection_plane_positions, None),
)


def run_claims(cfg: CliConfig | None = None, only: set[str] | None = None) -> Report:
    """Compute the claims in `only` (every claim when it is None), in
    battery order.  An unknown id raises KeyError before anything is built."""
    cfg = cfg or CliConfig()
    start = time.perf_counter()
    unknown = set() if only is None else only - set(all_claim_ids())
    if unknown:
        raise KeyError(f"unknown claim ids: {sorted(unknown)}")
    claims = [_evaluate(row, cfg) for row in _CLAIMS
              if only is None or row.claim_id in only]
    return Report(claims=claims, elapsed_seconds=time.perf_counter() - start)


def all_claim_ids() -> list[str]:
    """The claim ids in battery order, read from the table: builds nothing."""
    return [row.claim_id for row in _CLAIMS]


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

class ProjectionSpec(namedtuple("ProjectionSpec", "name basis scale colors labelled_points_only",
                                defaults=(100.0, (1, 2, 3, 4), False))):
    """`basis` is two 4-vectors that span the drawing plane."""

    __slots__ = ()

    def validate(self) -> None:
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be finite and positive, got {self.scale}")
        origin, width = self.view_box
        if not (math.isfinite(float(width)) and float(width) > 0):
            raise ValueError(f"scale {self.scale} gives the SVG viewBox width {width}; "
                             "it must be finite and positive")
        if not self.colors or any(c not in _EDGE_COLOR_NAMES for c in self.colors):
            raise ValueError(f"edge colours must be one or more of 1..4, got {self.colors}")
        if len(set(self.colors)) != len(self.colors):
            raise ValueError(f"edge colours must not repeat, got {self.colors}")
        g00 = sum(x * x for x in self.basis[0])
        g11 = sum(x * x for x in self.basis[1])
        g01 = sum(x * y for x, y in zip(self.basis[0], self.basis[1]))
        if abs(g00 * g11 - g01 * g01) < 1e-12:
            raise ValueError("degenerate projection basis")
        low, high = float(origin), float(origin) + float(width)
        outside = next((c for p in self.drawn_points() for c in self.project(p)
                        if not low <= c * self.scale <= high), None)
        if outside is not None:
            raise ValueError(f"scale {self.scale} gives the SVG viewBox {origin} {origin} "
                             f"{width} {width}, which does not frame the vertex "
                             f"coordinate {outside * self.scale:.6f}")

    @property
    def view_box(self) -> tuple[str, str]:
        """Origin and side of the square SVG viewBox, as written: one decimal."""
        half = 2.6 * self.scale
        return f"{-half:.1f}", f"{2 * half:.1f}"

    def drawn_points(self) -> tuple:
        """The points of 4-space the SVG marks: every vertex of the 4-cube,
        or only the eight labelled ones, in label order."""
        if self.labelled_points_only:
            return cf.point_labels().point_of
        cube = cf.build_cube()
        return tuple(cube.realization[ref] for ref in cube.structure.refs(0))

    def project(self, point) -> tuple[float, float]:
        return (sum(float(x) * b for x, b in zip(point, self.basis[0])),
                sum(float(x) * b for x, b in zip(point, self.basis[1])))


def coxeter_projection_spec(scale: float = 100.0) -> ProjectionSpec:
    """The most symmetric plane: the 16 vertices land on a regular octagon
    and octagram and all projected edges share one length."""
    s = 1 / math.sqrt(2)
    return ProjectionSpec(name="coxeter",
                          basis=((s, 0.5, 0.0, -0.5), (0.0, 0.5, s, 0.5)), scale=scale)


def plane_projection_spec(scale: float = 100.0) -> ProjectionSpec:
    """The plane spanned by the first two rows of the adapted basis; the
    eight labelled vertices form two concentric squares."""
    a1, b1, _, _ = _mk().build_L()
    to_floats = lambda row: tuple(float(x) for x in row)
    return ProjectionSpec(name="plane", basis=(to_floats(a1), to_floats(b1)),
                          scale=scale, labelled_points_only=True)


def projected_edge_lengths(spec: ProjectionSpec) -> list[float]:
    cube = cf.build_cube()
    out = []
    for ref in cube.structure.refs(1):
        a, b = cube.realization[ref]
        xa, ya = spec.project(a)
        xb, yb = spec.project(b)
        out.append(math.hypot(xa - xb, ya - yb))
    return out


def plane_positions_fit() -> float:
    """Residual of the best similarity mapping the expected two-square
    layout onto the projected labelled vertices."""
    spec = plane_projection_spec()
    labeling = cf.point_labels()
    r = math.sqrt(3) - 1
    expected = {0: complex(r, 0), 1: complex(-1, 1), 2: complex(0, r),
                3: complex(-1, -1), 4: complex(-r, 0), 5: complex(1, -1),
                6: complex(0, -r), 7: complex(1, 1)}
    projected = {}
    for label in range(8):
        x, y = spec.project(labeling.point_of[label])
        projected[label] = complex(x, y)
    num = sum(projected[k] * expected[k].conjugate() for k in range(8))
    den = sum(abs(expected[k]) ** 2 for k in range(8))
    w = num / den
    return max(abs(projected[k] - w * expected[k]) for k in range(8))


_EDGE_COLOR_NAMES = {1: "#000000", 2: "#cc0000", 3: "#2222cc", 4: "#009900"}


def render_projection(spec: ProjectionSpec) -> str:
    """Deterministic SVG text for a projection; output depends only on the
    spec (identical strings across runs)."""
    spec.validate()
    s = spec.scale

    def fmt(x: float) -> str:
        value = x * s
        if abs(value) < 5e-7:
            value = 0.0
        return f"{value:.6f}"

    lines = []
    origin, width = spec.view_box
    lines.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{origin} {origin} {width} {width}">')
    lines.append(f'<!-- projection preset: {spec.name} -->')

    if not spec.labelled_points_only:
        cube = cf.build_cube()
        for ref in cube.structure.refs(1):
            a, b = cube.realization[ref]
            color_idx = cf._edge_direction(a, b)
            if color_idx not in spec.colors:
                continue
            xa, ya = spec.project(a)
            xb, yb = spec.project(b)
            lines.append(
                f'<line x1="{fmt(xa)}" y1="{fmt(ya)}" x2="{fmt(xb)}" y2="{fmt(yb)}" '
                f'stroke="{_EDGE_COLOR_NAMES[color_idx]}" stroke-width="2"/>')
        for point in spec.drawn_points():
            x, y = spec.project(point)
            lines.append(f'<circle cx="{fmt(x)}" cy="{fmt(y)}" r="5" fill="#333333"/>')
    else:
        points = spec.drawn_points()
        for line_obj in _mk().build_configuration().lines:
            pts = [spec.project(points[k]) for k in line_obj.points]
            path = " ".join(f"{fmt(x)},{fmt(y)}" for x, y in pts)
            lines.append(
                f'<polygon points="{path}" fill="none" stroke="#bbbbbb" '
                f'stroke-width="1"/>')
        for label, point in enumerate(points):
            x, y = spec.project(point)
            lines.append(f'<circle cx="{fmt(x)}" cy="{fmt(y)}" r="6" fill="#333333"/>')
            lines.append(
                f'<text x="{fmt(x)}" y="{fmt(y)}" dx="9" dy="-9" '
                f'font-size="18">{label}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------

def _mk_certificate() -> dict:
    data = _mk().build_configuration().to_json_dict()
    # build_configuration checks each point against the table row of its own
    # label (mk.coordinates-match-the-table), so the match is literal
    data["table_match"] = {"matches": True, "literal": True, "relabeling": list(range(8))}
    data["unitary_group"] = dict(_mk().group_333())
    return data


# build target -> certificate builder
_BUILDERS = {
    "cube": lambda: cf.build_cube().certificate(),
    "hemi": lambda: cf.build_hemi().certificate(),
    "map": lambda: cf.build_map().certificate(),
    "roli": lambda: cf.build_roli().certificate(),
    "enantiomorph": lambda: cf.build_enantiomorph().certificate(),
    "cover": lambda: cf.build_cover().certificate(),
    "mk": _mk_certificate,
}
_BUILD_TARGETS = tuple(_BUILDERS)

_PRESETS = {"coxeter": coxeter_projection_spec, "plane": plane_projection_spec}


def _write(text: str, out: str | None) -> None:
    """Write to the file `out`, or to standard output when it is not given;
    a file that cannot be written is a usage error."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _json(data, **options) -> str:
    """Indented JSON text.  Only JSON output needs `json`, so it is
    imported here."""
    import json
    return json.dumps(data, indent=2, **options) + "\n"


def _emit(data: dict, fmt: str, out: str | None) -> None:
    """Write a certificate or the battery report, stamped with the schema."""
    data = {**data, "schema": SCHEMA}
    if fmt == "json":
        text = _json(data, sort_keys=True)
    else:
        text = "".join(f"{k}: {v}\n" for k, v in sorted(data.items()))
    _write(text, out)


def _positive_int(text: str) -> int:
    try:
        if int(text) > 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def main(argv: list[str] | None = None) -> int:
    # each subcommand takes only the options it reads
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default=None, help="write output to a file")
    formatted = argparse.ArgumentParser(add_help=False, parents=[output])
    formatted.add_argument("--format", choices=("json", "text"), default="text")

    parser = argparse.ArgumentParser(
        prog="polytope-forge",
        description="exact workbench for the chiral {8,3,3} polytope on the "
                    "4-cube, its regular cover, and the Moebius-Kantor "
                    "configuration")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", parents=[formatted],
                             help="build one object, emit its certificate")
    p_build.add_argument("target", choices=_BUILD_TARGETS)

    p_verify = sub.add_parser("verify", parents=[formatted],
                              help="run the verification battery")
    p_verify.add_argument("--cap", type=_positive_int, default=None,
                          help="cap on the cosets defined by the enumerations of the "
                               "orders.map-full and cosets.* rows (merged ones count "
                               "too: it bounds the work, not the index; default "
                               f"{DEFAULT_CAP}); not with --list")
    # one of: claim ids, --all, --list.  The positional's default must be a
    # value argparse can tell from an empty match, or a bare --all conflicts
    chosen = p_verify.add_mutually_exclusive_group()
    chosen.add_argument("claims", nargs="*", default=[], help="claim ids to run")
    chosen.add_argument("--all", action="store_true", dest="run_all")
    chosen.add_argument("--list", action="store_true", dest="list_ids",
                        help="list claim ids and exit")

    p_project = sub.add_parser("project", parents=[output],
                               help="render an SVG projection")
    p_project.add_argument("--preset", choices=tuple(_PRESETS), default="coxeter")
    p_project.add_argument("--scale", type=float, default=100.0)
    p_project.add_argument("--colors", default=None,
                           help="edge direction classes to draw (default 1,2,3,4); "
                                "not with --preset plane, which draws no cube edges")

    args = parser.parse_args(argv)

    try:
        if args.command == "build":
            _emit(_BUILDERS[args.target](), args.format, args.out)
            return 0

        if args.command == "verify":
            if args.list_ids:
                if args.cap is not None:
                    parser.error("argument --cap: not allowed with argument --list")
                ids = all_claim_ids()
                _write(_json(ids) if args.format == "json"
                       else "".join(claim_id + "\n" for claim_id in ids), args.out)
                return 0
            if not args.run_all and not args.claims:
                parser.error("verify needs claim ids or --all")
            only = set(args.claims) or None
            cap = DEFAULT_CAP if args.cap is None else args.cap
            report = run_claims(CliConfig(cap=cap), only=only)
            if args.format == "json":
                _emit(report.to_json_dict(), "json", args.out)
            else:
                body = "".join(c.line() + "\n" for c in report.claims)
                body += (f"{'all claims pass' if report.all_passed else 'FAILURES'}"
                         f" in {report.elapsed_seconds:.1f}s\n")
                _write(body, args.out)
            if not report.all_passed:
                first = next(c for c in report.claims if not c.passed)
                print(f"first failing claim: {first.claim_id}", file=sys.stderr)
                return 1
            return 0

        if args.command == "project":
            if args.colors is not None and args.preset == "plane":
                parser.error("argument --colors: not allowed with --preset plane")
            spec = _PRESETS[args.preset](scale=args.scale)
            if args.colors is not None:
                try:
                    colors = tuple(int(tok) for tok in args.colors.split(","))
                except ValueError:
                    raise ValueError("edge colours must be one or more of 1..4, "
                                     f"got {args.colors!r}") from None
                spec = spec._replace(colors=colors)
            _write(render_projection(spec), args.out)
            return 0
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (CapExceeded, ValueError, KeyError) as exc:
        # str() of a KeyError is the repr of its message, quotes and all
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    return 2


def _flush(stream) -> bool:
    """Flush `stream`; when its reader has gone, point it at devnull, so
    that no later flush raises, and return False."""
    try:
        stream.flush()
        return True
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        return False


def run() -> None:
    """Process entry of `python -m polytope_forge.cli` and `polytope-forge`:
    `main()` with the cyclic collector off (it would only re-traverse the
    builds' acyclic tables), then an exit without interpreter teardown,
    which frees every module and cached build just before the process ends
    (teardown and collector: a seventh of a cold command, 10-23 ms in
    BENCH_35.json).  That is safe: the package registers no `atexit`
    handler, writes `--out` inside a `with`, and both streams are flushed
    here.  Under a tracer or profiler (cProfile, trace, coverage) the exit
    is normal, so its report is still written.  A closed stdout or stderr
    exits 2, with that stream on devnull so that no later flush raises;
    anything else `main` raises, argparse's `SystemExit` too, propagates,
    after both streams are flushed."""
    gc.disable()
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError as exc:
        code = 2
        try:  # stderr takes the message only when it is stdout that closed
            print(f"error: cannot write standard output: {exc.strerror}", file=sys.stderr,
                  flush=True)
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except BrokenPipeError:
            pass
    finally:  # argparse's SystemExit too: it writes ignoring a closed stream
        if not all([_flush(sys.stdout), _flush(sys.stderr)]):
            code = 2
    monitoring = getattr(sys, "monitoring", None)  # 3.12+: cProfile, coverage's sysmon core
    if sys.gettrace() is None and sys.getprofile() is None and not (
            monitoring and any(map(monitoring.get_tool, range(6)))):
        os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run()
