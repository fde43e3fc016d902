"""The concrete cast: the 4-cube and its symmetry group, Petrie octagons,
the trivalent map of type {8,3} on the cube's vertices, the chiral polytope
of type {8,3,3} living on the same skeleton, its mirror twin, and the
regular double cover realized in E^8 by block matrices.

Every named element is rebuilt from its defining word and cross-checked
against its sign-vector/cycle display at construction time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .groupcore import (
    ConcreteGroup,
    Homomorphism,
    HomomorphismFailure,
    Presentation,
    extend_homomorphism,
    intersection_condition,
    orbit,
    setwise_stabilizer,
    stabilizer,
    string_condition,
    verify_relators,
    witness_pair_inconsistent,
)
from .polycore import (
    Classification,
    ColoredGraph,
    FacePerm,
    RankedIncidenceStructure,
    _check_face_map,
    central_quotient,
    classify,
    colourful_polytope,
    coset_face_action,
    coset_geometry,
    isomorphisms,
    polytope_from_reflections,
    verify_covering,
)
from .signedperm import SignedPerm, block_pair

__all__ = [
    "Atlas", "build_atlas",
    "PetriePolygon", "petrie_polygons", "petrie_polygons_brute_force", "companion",
    "group_cube", "group_rotation", "group_rotation_sigma", "group_map_rotation",
    "group_petrie_stabilizer", "group_cover_rotation", "group_cover", "group_unitary",
    "build_cube", "build_hemi", "build_map", "build_roli", "build_enantiomorph",
    "build_cover", "binary_tetrahedral_check", "geometric_chirality_report",
    "point_labels", "Labeling", "octagon_label_sets",
    "gp83_graph",
    "presentation_map_rotation", "presentation_map_full", "presentation_roli",
    "presentation_cover", "presentation_unitary_triangle",
    "CONFIGURATION_LINES",
]

Point = tuple[int, ...]

_SP = SignedPerm.parse


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(f"atlas consistency failure: {what}")


# ---------------------------------------------------------------------------
# Petrie polygons
# ---------------------------------------------------------------------------

def _edge_direction(a: Point, b: Point) -> int:
    diff = [i for i in range(len(a)) if a[i] != b[i]]
    if len(diff) != 1:
        raise ValueError(f"{a} and {b} are not adjacent")
    return diff[0] + 1


def _det_int(rows) -> int:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det_int(minor)
    return total


def _edges_share_facet(points: list[Point], directions: list[int]) -> bool:
    """Do consecutive edges through `points` lie in a common cube facet?
    A facet pins one coordinate; an inside edge cannot run along it."""
    n = len(points[0])
    for axis in range(1, n + 1):
        if axis in directions:
            continue
        if len({p[axis - 1] for p in points}) == 1:
            return True
    return False


def _canonical_cycle(seq: tuple[Point, ...]) -> tuple[Point, ...]:
    best = None
    n = len(seq)
    for base in (seq, tuple(reversed(seq))):
        for shift in range(n):
            cand = base[shift:] + base[:shift]
            if best is None or cand < best:
                best = cand
    return best


def _cycle_edges(cycle) -> frozenset:
    n = len(cycle)
    return frozenset(tuple(sorted((cycle[k], cycle[(k + 1) % n]))) for k in range(n))


class PetriePolygon:
    """A closed 8-step edge path in which any 3, but no 4, consecutive edges
    lie in a cube facet.  Stored in canonical cyclic form (lexicographically
    least over rotations and both directions)."""

    __slots__ = ("vertices",)

    def __init__(self, vertices: tuple[Point, ...]):
        canon = _canonical_cycle(tuple(tuple(v) for v in vertices))
        object.__setattr__(self, "vertices", canon)
        self._validate()

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("PetriePolygon is immutable")

    def _validate(self) -> None:
        verts = self.vertices
        n = len(verts)
        if len(set(verts)) != n:
            raise ValueError("repeated vertex")
        dirs = self.colors
        for k in range(n):
            window_pts = [verts[(k + t) % n] for t in range(4)]
            window_dirs = [dirs[(k + t) % n] for t in range(3)]
            if not _edges_share_facet(window_pts, window_dirs):
                raise ValueError("three consecutive edges miss every facet")
            window_pts5 = [verts[(k + t) % n] for t in range(5)]
            window_dirs4 = [dirs[(k + t) % n] for t in range(4)]
            if _edges_share_facet(window_pts5, window_dirs4):
                raise ValueError("four consecutive edges share a facet")
        for k in range(n):
            if verts[(k + n // 2) % n] != tuple(-x for x in verts[k]):
                raise ValueError("vertex sequence is not centrally symmetric")
            window = [verts[(k + t) % n] for t in range(4)]
            if abs(_det_int([list(p) for p in window])) == 0:
                raise ValueError("four consecutive vertices are degenerate")

    @property
    def colors(self) -> tuple[int, ...]:
        verts = self.vertices
        n = len(verts)
        return tuple(_edge_direction(verts[k], verts[(k + 1) % n]) for k in range(n))

    def det4(self) -> int:
        return _det_int([list(p) for p in self.vertices[:4]])

    @property
    def chiral_class(self) -> str:
        det = self.det4()
        if det == 8:
            return "R"
        if det == -8:
            return "L"
        raise ValueError(f"unexpected window determinant {det}")

    def vertex_set(self) -> frozenset:
        return frozenset(self.vertices)

    def edge_set(self) -> frozenset:
        return _cycle_edges(self.vertices)

    def transformed(self, g: SignedPerm) -> "PetriePolygon":
        return PetriePolygon(tuple(g.act(v) for v in self.vertices))

    def key(self) -> tuple:
        return self.vertices

    def __eq__(self, other) -> bool:
        return isinstance(other, PetriePolygon) and self.vertices == other.vertices

    def __lt__(self, other: "PetriePolygon") -> bool:
        return self.vertices < other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        return f"PetriePolygon({self.vertices!r})"


def _trace_polygon(start: Point, directions: list[int]) -> PetriePolygon:
    verts = [start]
    for d in directions:
        prev = verts[-1]
        verts.append(prev[:d - 1] + (-prev[d - 1],) + prev[d:])
    assert verts[-1] == start
    return PetriePolygon(tuple(verts[:-1]))


# ---------------------------------------------------------------------------
# atlas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Atlas:
    """Symbol table of the standard named elements, all relation-checked."""

    rho0: SignedPerm
    rho1: SignedPerm
    rho2: SignedPerm
    rho3: SignedPerm
    pi: SignedPerm
    zeta: SignedPerm
    mu0: SignedPerm
    mu1: SignedPerm
    mu2: SignedPerm
    sigma1: SignedPerm
    sigma2: SignedPerm
    sigma3: SignedPerm
    sigma1_bar: SignedPerm
    sigma2_bar: SignedPerm
    sigma3_bar: SignedPerm
    kappa1: SignedPerm
    kappa2: SignedPerm
    kappa3: SignedPerm
    tau0: SignedPerm
    tau1: SignedPerm
    tau2: SignedPerm
    tau3: SignedPerm
    gamma1: SignedPerm
    gamma2: SignedPerm
    v: Point
    v_bar: Point
    w: Point
    base_octagon: PetriePolygon
    base_octagram: PetriePolygon


@lru_cache(maxsize=None)
def build_atlas() -> Atlas:
    ident = SignedPerm.identity(4)
    rho0 = SignedPerm((-1, 1, 1, 1), ident.perm)
    rho1 = SignedPerm.from_cycles(4, [(1, 2)])
    rho2 = SignedPerm.from_cycles(4, [(2, 3)])
    rho3 = SignedPerm.from_cycles(4, [(3, 4)])

    pi = rho0 * rho1 * rho2 * rho3
    _require(pi == _SP("(-1,1,1,1)·(4,3,2,1)"), "pi display")
    _require(pi.order() == 8, "pi has period 8")
    zeta = pi ** 4
    _require(zeta == SignedPerm((-1, -1, -1, -1), ident.perm), "zeta display")
    for g in (rho0, rho1, rho2, rho3):
        _require(zeta * g == g * zeta, "zeta central")

    mu0 = rho0 * rho2 * rho3 * rho2
    _require(mu0 == _SP("(-1,1,1,1)·(2,4)"), "mu0 display")
    mu1 = mu0 * pi
    _require(mu1 == _SP("(1,1,1,1)·(1,4)(2,3)"), "mu1 display")
    _require(mu1 == rho2 * rho3 * rho2 * rho1 * rho2 * rho3, "mu1 word")
    mu2 = rho1 * rho2 * rho0 * rho1
    _require(mu2 == _SP("(1,-1,1,1)·(1,3)"), "mu2 display")

    sigma1 = pi
    sigma2 = rho3 * rho2 * rho1 * rho3
    _require(sigma2 == _SP("(1,1,1,1)·(1,2,4)"), "sigma2 display")
    sigma3 = rho2 * rho3
    _require(sigma3 == _SP("(1,1,1,1)·(2,4,3)"), "sigma3 display")
    _require(sigma1 == (rho0 * rho1) * (rho2 * rho3), "sigma1 as paired rotations")
    _require(sigma2 == (rho3 * rho2) * (rho1 * rho2) * (rho2 * rho3),
             "sigma2 as paired rotations")
    _require(sigma2 * sigma3 == mu1, "sigma2*sigma3 = mu1")

    sigma1_bar = sigma1.inverse()
    _require(sigma1_bar == _SP("(1,1,1,-1)·(1,2,3,4)"), "sigma1_bar display")
    sigma2_bar = sigma1 * sigma1 * sigma2
    _require(sigma2_bar == _SP("(-1,-1,1,1)·(1,3,2)"), "sigma2_bar display")
    sigma3_bar = sigma3

    kappa1 = block_pair(sigma1, sigma1_bar)
    kappa2 = block_pair(sigma2, sigma2_bar)
    kappa3 = block_pair(sigma3, sigma3_bar)
    _require(kappa1 == _SP("(-1,1,1,1,1,1,1,-1)·(4,3,2,1)(5,6,7,8)"), "kappa1 display")
    _require(kappa2 == _SP("(1,1,1,1,-1,-1,1,1)·(1,2,4)(5,7,6)"), "kappa2 display")
    _require(kappa3 == _SP("(1,1,1,1,1,1,1,1)·(2,4,3)(6,8,7)"), "kappa3 display")

    tau0 = SignedPerm.from_cycles(8, [(1, 5), (2, 6), (3, 7), (4, 8)])
    for kap, s, sb in ((kappa1, sigma1, sigma1_bar),
                       (kappa2, sigma2, sigma2_bar),
                       (kappa3, sigma3, sigma3_bar)):
        _require(kap.conjugate(tau0) == block_pair(sb, s),
                 "tau0 swaps the two 4-spaces")
    tau1 = tau0 * kappa1
    tau2 = tau0 * kappa1 * kappa2
    tau3 = tau0 * kappa1 * kappa2 * kappa3
    for t in (tau0, tau1, tau2, tau3):
        _require(t.is_involution(), "tau generators are involutions")

    gamma1 = rho1 * rho2 * rho3 * rho2
    _require(gamma1 == _SP("(1,1,1,1)·(1,4,2)"), "gamma1 display")
    gamma2 = rho2 * rho0 * rho1 * rho0
    _require(gamma2 == _SP("(-1,1,-1,1)·(1,2,3)"), "gamma2 display")

    v = (1, 1, 1, 1)
    v_bar = rho0.act(v)
    _require(v_bar == (-1, 1, 1, 1), "v_bar")
    _require(mu0.act(v) == v_bar, "v*mu0 = v_bar")
    w = (rho1 * rho0 * rho1).act(v)
    _require(w == (1, -1, 1, 1), "w display")
    for s in (sigma2, sigma3):
        _require(s.act(v) == v, "sigma2, sigma3 fix the base vertex")
    _require({p for p in itertools.product((1, -1), repeat=4)
              if sigma2.act(p) == p and sigma3.act(p) == p} == {v, tuple(-x for x in v)},
             "v spans the subspace fixed by sigma2 and sigma3")
    for s in (sigma2_bar, sigma3_bar):
        _require(s.act(v_bar) == v_bar, "barred generators fix v_bar")

    cycle = [v]
    for _ in range(7):
        cycle.append(pi.act(cycle[-1]))
    _require(cycle[1] == (1, 1, 1, -1) and cycle[2] == (1, 1, -1, -1)
             and cycle[3] == (1, -1, -1, -1) and cycle[4] == (-1, -1, -1, -1),
             "octagon vertex cycle")
    base_octagon = PetriePolygon(tuple(cycle))
    base_octagram = _trace_polygon(w, [4, 1, 2, 3, 4, 1, 2, 3])
    _require(base_octagon.vertex_set().isdisjoint(base_octagram.vertex_set()),
             "octagon and octagram are vertex-disjoint")
    _require(base_octagon.transformed(mu2) == base_octagram,
             "mu2 swaps octagon and octagram")
    _require(base_octagon.det4() == 8, "base octagon is right-handed")

    return Atlas(
        rho0=rho0, rho1=rho1, rho2=rho2, rho3=rho3, pi=pi, zeta=zeta,
        mu0=mu0, mu1=mu1, mu2=mu2,
        sigma1=sigma1, sigma2=sigma2, sigma3=sigma3,
        sigma1_bar=sigma1_bar, sigma2_bar=sigma2_bar, sigma3_bar=sigma3_bar,
        kappa1=kappa1, kappa2=kappa2, kappa3=kappa3,
        tau0=tau0, tau1=tau1, tau2=tau2, tau3=tau3,
        gamma1=gamma1, gamma2=gamma2,
        v=v, v_bar=v_bar, w=w,
        base_octagon=base_octagon, base_octagram=base_octagram,
    )


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def group_cube() -> ConcreteGroup:
    a = build_atlas()
    g = ConcreteGroup.generate(
        {"rho0": a.rho0, "rho1": a.rho1, "rho2": a.rho2, "rho3": a.rho3})
    assert len(g) == 384
    return g


@lru_cache(maxsize=None)
def group_rotation() -> ConcreteGroup:
    a = build_atlas()
    g = ConcreteGroup.generate(
        {"r01": a.rho0 * a.rho1, "r12": a.rho1 * a.rho2, "r23": a.rho2 * a.rho3})
    assert len(g) == 192
    return g


@lru_cache(maxsize=None)
def group_rotation_sigma() -> ConcreteGroup:
    a = build_atlas()
    g = ConcreteGroup.generate(
        {"sigma1": a.sigma1, "sigma2": a.sigma2, "sigma3": a.sigma3})
    assert g.element_set == group_rotation().element_set
    return g


@lru_cache(maxsize=None)
def group_rotation_sigma_bar() -> ConcreteGroup:
    a = build_atlas()
    g = ConcreteGroup.generate(
        {"sigma1": a.sigma1_bar, "sigma2": a.sigma2_bar, "sigma3": a.sigma3_bar})
    assert g.element_set == group_rotation().element_set
    return g


@lru_cache(maxsize=None)
def group_map_rotation() -> ConcreteGroup:
    a = build_atlas()
    g = ConcreteGroup.generate({"sigma1": a.sigma1, "sigma2": a.sigma2})
    assert len(g) == 48
    return g


@lru_cache(maxsize=None)
def group_petrie_stabilizer() -> ConcreteGroup:
    a = build_atlas()
    k = setwise_stabilizer(group_cube(), a.base_octagon.vertex_set())
    assert len(k) == 16
    assert a.mu0 in k and a.mu1 in k and a.pi in k
    assert a.mu0.inverse() * a.pi * a.mu0 == a.pi.inverse()  # dihedral
    assert k.element_set == ConcreteGroup.generate(
        {"mu0": a.mu0, "mu1": a.mu1}).element_set
    return k


@lru_cache(maxsize=None)
def group_cover_rotation() -> ConcreteGroup:
    a = build_atlas()
    g = ConcreteGroup.generate(
        {"kappa1": a.kappa1, "kappa2": a.kappa2, "kappa3": a.kappa3})
    assert len(g) == 384
    return g


@lru_cache(maxsize=None)
def group_cover() -> ConcreteGroup:
    a = build_atlas()
    g = ConcreteGroup.generate(
        {"tau0": a.tau0, "tau1": a.tau1, "tau2": a.tau2, "tau3": a.tau3})
    assert len(g) == 768
    return g


@lru_cache(maxsize=None)
def group_unitary() -> ConcreteGroup:
    a = build_atlas()
    g = ConcreteGroup.generate({"gamma1": a.gamma1, "gamma2": a.gamma2})
    assert len(g) == 24
    return g


# ---------------------------------------------------------------------------
# Petrie enumeration
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def petrie_polygons() -> tuple[PetriePolygon, ...]:
    """All Petrie polygons as the symmetry orbit of the base octagon."""
    a = build_atlas()
    polys = {a.base_octagon.transformed(g) for g in group_cube()}
    return tuple(sorted(polys))


@lru_cache(maxsize=None)
def petrie_polygons_brute_force() -> tuple[PetriePolygon, ...]:
    """All Petrie polygons by direct search over closed edge paths."""
    vertices = list(itertools.product((1, -1), repeat=4))
    found: set[PetriePolygon] = set()

    def step(p: Point, axis: int) -> Point:
        return p[:axis - 1] + (-p[axis - 1],) + p[axis:]

    def extend(path: list[Point], dirs: list[int]) -> None:
        for axis in range(1, 5):
            if dirs and axis == dirs[-1]:
                continue
            if len(dirs) >= 3 and axis in dirs[-3:]:
                continue  # four consecutive edges may not repeat a direction
            nxt = step(path[-1], axis)
            if nxt == path[0] and len(path) >= 3:
                try:
                    found.add(PetriePolygon(tuple(path)))
                except ValueError:
                    pass
                continue
            if nxt in path:
                continue
            extend(path + [nxt], dirs + [axis])

    for start in vertices:
        extend([start], [])
    return tuple(sorted(found))


def companion(p: PetriePolygon, polys: tuple[PetriePolygon, ...] | None = None
              ) -> PetriePolygon:
    """The unique polygon of the same chiral class on the complementary
    eight vertices."""
    if polys is None:
        polys = petrie_polygons()
    matches = [q for q in polys
               if q.chiral_class == p.chiral_class
               and q.vertex_set().isdisjoint(p.vertex_set())]
    assert len(matches) == 1, f"companion not unique: {len(matches)}"
    return matches[0]


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------

def presentation_map_rotation() -> Presentation:
    """Two rotations of the {8,3} map: s1^8 = s2^3 = (s1 s2)^2 = (s1^-3 s2)^2 = 1."""
    return Presentation(2, (
        (1,) * 8,
        (2,) * 3,
        (1, 2) * 2,
        (-1, -1, -1, 2) * 2,
    ))


def presentation_map_full() -> Presentation:
    """Full automorphism group of the {8,3} map, on three involutions."""
    return Presentation(3, (
        (1, 1), (2, 2), (3, 3),
        (1, 2) * 8,
        (2, 3) * 3,
        (1, 3) * 2,
        ((2, 1) * 3 + (2, 3)) * 2,
    ))


def presentation_roli(with_chirality_breaker: bool = True) -> Presentation:
    """Rotation presentation of the chiral {8,3,3} polytope; without the
    final relator the enumerated group is twice as large."""
    relators = [
        (1,) * 8,
        (2,) * 3,
        (3,) * 3,
        (1, 2) * 2,
        (2, 3) * 2,
        (1, 2, 3) * 2,
        (-1, -1, -1, 2) * 2,
    ]
    if with_chirality_breaker:
        relators.append((-1, 3) * 4)
    return Presentation(3, tuple(relators))


def presentation_cover(corrected: bool = True) -> Presentation:
    """String presentation of the order-768 cover group.  The published
    relator list contains (t3 t3)^3, surely meant as (t2 t3)^3; both
    readings are available, enumeration uses the corrected one."""
    third = (3, 4) * 3 if corrected else (4, 4) * 3
    return Presentation(4, (
        (1, 1), (2, 2), (3, 3), (4, 4),
        (1, 2) * 8,
        (2, 3) * 3,
        third,
        (1, 3) * 2,
        (1, 4) * 2,
        (2, 4) * 2,
        ((2, 1) * 3 + (2, 3)) * 2,
    ))


def presentation_unitary_triangle() -> Presentation:
    """g1^3 = 1 with the braid relation g1 g2 g1 = g2 g1 g2 (order 24)."""
    return Presentation(2, (
        (1, 1, 1),
        (1, 2, 1, -2, -1, -2),
    ))


# ---------------------------------------------------------------------------
# realization plumbing
# ---------------------------------------------------------------------------

def _face_image(rank: int, face, f):
    """Image of a face of the polygon family under the point map f.  A face
    is a point (rank 0), a sorted vertex pair (1), a canonical vertex cycle
    (2) or a sorted tuple of edges (3)."""
    if rank == 0:
        return f(face)
    if rank == 1:
        return tuple(sorted(map(f, face)))
    if rank == 2:
        return _canonical_cycle(tuple(map(f, face)))
    return tuple(sorted(_face_image(1, e, f) for e in face))


# geometric containment between faces of the polygon family, by rank pair
_FACE_CONTAINS = {
    (0, 1): lambda p, e: p in e,
    (0, 2): lambda p, o: p in o,
    (0, 3): lambda p, m: any(p in e for e in m),
    (1, 2): lambda e, o: e in _cycle_edges(o),
    (1, 3): lambda e, m: e in m,
    (2, 3): lambda o, m: _cycle_edges(o) <= set(m),
}


def _attach_realization(struct: RankedIncidenceStructure, base_faces, image=_face_image,
                        contains=_FACE_CONTAINS) -> None:
    """Attach geometric meaning to a coset structure and confirm that coset
    incidence coincides with geometric containment.  The rank-r face of
    coset key g is image(r, base_faces[r], g.act)."""
    for r, face in enumerate(base_faces):
        for s in struct.subgroups[r].generator_list():
            assert image(r, face, s.act) == face, f"base face at rank {r} not stabilized"
    realization = {}
    for r in range(struct.rank):
        for ref in struct.refs(r):
            realization[ref] = image(r, base_faces[r], struct.key(ref).act)
        assert len({realization[ref] for ref in struct.refs(r)}) == len(struct.refs(r)), \
            f"realization not faithful at rank {r}"
    struct.realization = realization
    for r1 in range(struct.rank):
        for r2 in range(r1 + 1, struct.rank):
            test = contains[(r1, r2)]
            for ra in struct.refs(r1):
                for rb in struct.refs(r2):
                    geo = test(realization[ra], realization[rb])
                    assert geo == struct.incident(ra, rb), \
                        f"incidence/containment mismatch at {(ra, rb)}"


def _realized_face_map(source: RankedIncidenceStructure, target: RankedIncidenceStructure,
                       f) -> dict:
    """Send each face of source to the face of target realized by its image
    under the point map f."""
    face_of = {(ref[0], target.realization[ref]): ref for ref in target.all_refs()}
    return {ref: face_of[(ref[0], _face_image(ref[0], source.realization[ref], f))]
            for ref in source.all_refs()}


def _sigma_face_maps(struct: RankedIncidenceStructure, group: ConcreteGroup):
    return [coset_face_action(struct, g) for g in group.generator_list()]


# ---------------------------------------------------------------------------
# builds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CubeBundle:
    structure: RankedIncidenceStructure
    skeleton: ColoredGraph
    colourful: RankedIncidenceStructure
    classification: Classification
    type_vector: tuple[int, ...]

    def certificate(self) -> dict:
        return {
            "schema": "polytope-forge/1",
            "object": "cube",
            "group_order": len(self.structure.group),
            "f_vector": list(self.structure.f_vector),
            "type_vector": list(self.type_vector),
            "flags": len(self.structure.flags()),
            "classification": self.classification.value,
            "colourful_isomorphic": True,
        }


@lru_cache(maxsize=None)
def build_cube() -> CubeBundle:
    atlas = build_atlas()
    g = group_cube()
    struct = polytope_from_reflections(g)
    assert struct.f_vector == (16, 32, 24, 8)

    base_faces = []
    for r in range(4):
        pts = tuple(sorted(orbit(struct.subgroups[r], atlas.v)))
        base_faces.append(atlas.v if r == 0 else pts)

    def vertex_set_image(rank, face, f):
        return f(face) if rank == 0 else tuple(sorted(map(f, face)))

    def vertex_subset(a, b):
        members = (a,) if isinstance(a[0], int) else a
        return set(members) <= set(b)

    contains = {(r1, r2): vertex_subset for r1 in range(4) for r2 in range(r1 + 1, 4)}
    _attach_realization(struct, base_faces, vertex_set_image, contains)

    edge_colors = {}
    for ref in struct.refs(1):
        a, b = struct.realization[ref]
        edge_colors[frozenset((a, b))] = _edge_direction(a, b)
    skeleton = ColoredGraph(
        vertices=tuple(sorted(struct.realization[ref] for ref in struct.refs(0))),
        edge_colors=edge_colors, d=4)
    colourful = colourful_polytope(skeleton)
    assert colourful.isomorphic_to(struct)

    result = classify(struct, _sigma_face_maps(struct, g))
    assert result.kind is Classification.REGULAR
    return CubeBundle(structure=struct, skeleton=skeleton, colourful=colourful,
                      classification=result.kind, type_vector=struct.schlafli_type())


@dataclass(frozen=True)
class HemiBundle:
    structure: RankedIncidenceStructure
    quotient_group_order: int
    generator_product_order: int
    k44: ColoredGraph
    colourful: RankedIncidenceStructure

    def certificate(self) -> dict:
        return {
            "schema": "polytope-forge/1",
            "object": "hemi",
            "group_order": self.quotient_group_order,
            "f_vector": list(self.structure.f_vector),
            "generator_product_order": self.generator_product_order,
            "skeleton_is_k44": True,
            "colourful_isomorphic": True,
        }


@lru_cache(maxsize=None)
def build_hemi() -> HemiBundle:
    atlas = build_atlas()
    cube = build_cube()
    struct = central_quotient(cube.structure, atlas.zeta)
    assert struct.f_vector == (8, 16, 12, 4)
    qgroup = struct.group
    assert len(qgroup) == 192

    prod = qgroup.identity
    for gen in qgroup.generator_list():
        prod = prod * gen
    prod_order = qgroup.element_order(prod)

    def antipodal(p: Point) -> tuple:
        return tuple(sorted((p, tuple(-x for x in p))))

    edge_colors = {}
    for edge, color in cube.skeleton.edge_colors.items():
        a, b = tuple(edge)
        qedge = frozenset((antipodal(a), antipodal(b)))
        prior = edge_colors.get(qedge)
        assert prior is None or prior == color
        edge_colors[qedge] = color
    k44 = ColoredGraph(
        vertices=tuple(sorted({antipodal(p) for p in cube.skeleton.vertices})),
        edge_colors=edge_colors, d=4)

    # K_{4,4}: far = one vertex's neighbours, near = the rest; each sees the other
    graph = _adjacency(map(tuple, edge_colors))
    far = graph[k44.vertices[0]]
    near = graph.keys() - far
    assert len(far) == len(near) == 4
    assert all(graph[x] == (far if x in near else near) for x in graph)

    colourful = colourful_polytope(k44)
    assert colourful.isomorphic_to(struct)
    return HemiBundle(structure=struct, quotient_group_order=len(qgroup),
                      generator_product_order=prod_order, k44=k44,
                      colourful=colourful)


@dataclass(frozen=True)
class MapBundle:
    structure: RankedIncidenceStructure          # geometric: points/edges/octagons
    structure_cosets: RankedIncidenceStructure   # same thing as a coset geometry
    octagons: tuple[PetriePolygon, ...]
    edges: frozenset
    deleted_edges: frozenset
    levi_automorphism_count: int
    full_automorphism_order: int
    regularity_hom: Homomorphism
    rotation_classification: Classification
    full_classification: Classification
    edge_stabilizer_in_full_group: frozenset
    mu0_preserves_edges: bool

    def certificate(self) -> dict:
        return {
            "schema": "polytope-forge/1",
            "object": "map",
            "f_vector": list(self.structure.f_vector),
            "type_vector": list(self.structure.schlafli_type()),
            "rotation_group_order": 48,
            "full_automorphism_order": self.full_automorphism_order,
            "levi_automorphism_count": self.levi_automorphism_count,
            "geometrically_chiral": not self.mu0_preserves_edges,
            "rotation_classification": self.rotation_classification.value,
            "full_classification": self.full_classification.value,
        }


def _adjacency(edges) -> dict:
    """node -> set of neighbours of the undirected graph with these edges."""
    adj: dict = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


def gp83_graph() -> dict:
    """GP(8,3), the generalized Petersen graph, as node -> set of neighbours."""
    return _adjacency(edge for i in range(8) for edge in (
        (("u", i), ("u", (i + 1) % 8)),
        (("w", i), ("w", (i + 3) % 8)),
        (("u", i), ("w", i))))


@lru_cache(maxsize=None)
def build_map() -> MapBundle:
    atlas = build_atlas()
    rot = group_map_rotation()
    base_edge = tuple(sorted((atlas.v, atlas.v_bar)))

    edges = set(orbit(rot, base_edge, lambda e, g: _face_image(1, e, g.act)))
    assert len(edges) == 24

    octagons = {atlas.base_octagon.transformed(g) for g in rot}
    assert len(octagons) == 6
    assert atlas.base_octagram in octagons
    all_petrie = set(petrie_polygons())
    assert octagons <= all_petrie
    for oct_ in octagons:
        assert oct_.edge_set() <= edges
    for e in edges:
        assert sum(1 for oct_ in octagons if e in oct_.edge_set()) == 2

    cube_edges = {tuple(sorted(e)) for e in build_cube().skeleton.edge_colors}
    deleted = frozenset(cube_edges - edges)
    assert len(deleted) == 8
    assert len({p for e in deleted for p in e}) == 16  # a perfect matching

    points = sorted(itertools.product((1, -1), repeat=4))
    oct_keys = sorted(o.vertices for o in octagons)
    pairs = []
    for e in edges:
        for p in e:
            pairs.append(((0, p), (1, e)))
    for okey in oct_keys:
        for p in okey:
            pairs.append(((0, p), (2, okey)))
        for e in _cycle_edges(okey):
            pairs.append(((1, e), (2, okey)))
    struct = RankedIncidenceStructure(3, [points, sorted(edges), oct_keys], pairs)
    struct.validate_polytope()
    assert struct.f_vector == (16, 24, 6)
    assert struct.schlafli_type() == (8, 3)

    sub0 = rot.subgroup([atlas.sigma2])
    sub1 = rot.subgroup([atlas.sigma1 * atlas.sigma2])
    sub2 = rot.subgroup([atlas.sigma1])
    assert (len(sub0), len(sub1), len(sub2)) == (3, 2, 8)
    cosets = coset_geometry(rot, [sub0, sub1, sub2])
    assert cosets.f_vector == (16, 24, 6)
    _attach_realization(cosets, [atlas.v, base_edge, atlas.base_octagon.vertices])
    _check_face_map(cosets, {ref: struct.ref(ref[0], cosets.realization[ref])
                             for ref in cosets.all_refs()}, struct)

    levi = _adjacency(edges)
    assert next(isomorphisms(levi, gp83_graph()), None) is not None
    aut_count = sum(1 for _ in isomorphisms(levi, levi))
    assert aut_count == 96

    def geo_face_map(g: SignedPerm) -> dict:
        return {ref: struct.ref(ref[0], _face_image(ref[0], struct.key(ref), g.act))
                for ref in struct.all_refs()}

    rot_result = classify(struct, [geo_face_map(atlas.sigma1), geo_face_map(atlas.sigma2)])
    assert rot_result.orbit_count == 2 and rot_result.flag_count == 96

    autos = [FacePerm.from_mapping(struct, mapping) for mapping in struct.automorphisms()]
    assert len(autos) == 96
    full_result = classify(struct, [a.as_mapping() for a in autos])
    assert full_result.kind is Classification.REGULAR

    # the three distinguished involutions: each maps the base flag to one of
    # its adjacent flags; they satisfy the full-group presentation
    base_flag_refs = (struct.ref(0, atlas.v), struct.ref(1, base_edge),
                      struct.ref(2, atlas.base_octagon.vertices))
    base_flag = tuple(i for (_, i) in base_flag_refs)
    flag_pos = {f: True for f in struct.flags()}
    assert base_flag in flag_pos
    t_gens = []
    for j in range(3):
        target = struct.flag_adjacent(base_flag, j)
        assert len(target) == 1
        wanted = target[0]
        hits = [a for a in autos
                if tuple(a.images[r][i] for r, i in enumerate(base_flag)) == wanted]
        assert len(hits) == 1
        t_gens.append(hits[0])
    assert verify_relators(t_gens, presentation_map_full())
    assert len(ConcreteGroup.generate(t_gens, names=["t0", "t1", "t2"])) == 96

    # the same involutions arise as words in the base one and the rotations:
    # t1 = t0 * s1 and t2 = t0 * s1 * s2 as face bijections
    fs1 = FacePerm.from_mapping(struct, geo_face_map(atlas.sigma1))
    fs2 = FacePerm.from_mapping(struct, geo_face_map(atlas.sigma2))
    assert t_gens[1] == t_gens[0] * fs1
    assert t_gens[2] == t_gens[0] * fs1 * fs2

    hom = extend_homomorphism(rot, {
        "sigma1": atlas.sigma1.inverse(),
        "sigma2": atlas.sigma1 * atlas.sigma1 * atlas.sigma2,
    })
    assert isinstance(hom, Homomorphism)
    assert hom.is_involutory()

    full = group_cube()
    stab = setwise_stabilizer(full, edges,
                              lambda e, g: _face_image(1, e, g.act)).element_set
    assert stab == rot.element_set
    assert all(g.determinant() == 1 for g in stab)
    mu0_keeps = {_face_image(1, e, atlas.mu0.act) for e in edges} == edges
    assert not mu0_keeps
    assert {_face_image(1, e, atlas.mu0.act) for e in deleted} != deleted

    return MapBundle(
        structure=struct, structure_cosets=cosets,
        octagons=tuple(sorted(octagons)), edges=frozenset(edges),
        deleted_edges=deleted, levi_automorphism_count=aut_count,
        full_automorphism_order=96, regularity_hom=hom,
        rotation_classification=rot_result.kind,
        full_classification=full_result.kind,
        edge_stabilizer_in_full_group=stab,
        mu0_preserves_edges=mu0_keeps,
    )


@dataclass(frozen=True)
class RoliBundle:
    structure: RankedIncidenceStructure
    stabilizer_orders: tuple[int, int, int, int]
    classification: Classification
    orbit_count: int
    flag_count: int
    type_vector: tuple[int, ...]
    witness_holds: bool
    two_faces_class: str

    def certificate(self) -> dict:
        return {
            "schema": "polytope-forge/1",
            "object": "roli",
            "group_order": 192,
            "f_vector": list(self.structure.f_vector),
            "stabilizer_orders": list(self.stabilizer_orders),
            "type_vector": list(self.type_vector),
            "classification": self.classification.value,
            "flag_orbits": self.orbit_count,
            "flags": self.flag_count,
            "chirality_witness_holds": self.witness_holds,
            "two_face_chiral_class": self.two_faces_class,
        }


def _roli_subgroups(rot_sigma: ConcreteGroup):
    a = build_atlas()
    s1, s2, s3 = a.sigma1, a.sigma2, a.sigma3
    return (
        rot_sigma.subgroup([s2, s3]),
        rot_sigma.subgroup([s1 * s2, s3]),
        rot_sigma.subgroup([s1, s2 * s3]),
        rot_sigma.subgroup([s1, s2]),
    )


@lru_cache(maxsize=None)
def build_roli() -> RoliBundle:
    atlas = build_atlas()
    rot = group_rotation_sigma()
    subs = _roli_subgroups(rot)
    orders = tuple(len(s) for s in subs)
    assert orders == (12, 6, 16, 48)
    assert subs[0].element_set == stabilizer(rot, atlas.v).element_set
    assert subs[2].element_set == setwise_stabilizer(
        rot, atlas.base_octagon.vertex_set()).element_set

    struct = coset_geometry(rot, list(subs))
    assert struct.f_vector == (16, 32, 12, 4)
    assert struct.schlafli_type() == (8, 3, 3)

    map_bundle = build_map()
    base_edge = tuple(sorted((atlas.v, atlas.v_bar)))
    base_facet = tuple(sorted(map_bundle.edges))
    _attach_realization(struct, [atlas.v, base_edge, atlas.base_octagon.vertices,
                                 base_facet])

    polys = petrie_polygons()
    class_r = {p.vertices for p in polys if p.chiral_class == "R"}
    two_faces = {struct.realization[ref] for ref in struct.refs(2)}
    assert two_faces == class_r

    facet_edge_sets = [frozenset(struct.realization[ref]) for ref in struct.refs(3)]
    assert len(facet_edge_sets) == 4
    for m in facet_edge_sets:
        assert len(m) == 24
        assert sum(1 for p in polys if p.edge_set() <= m) == 6
    for p in (p for p in polys if p.chiral_class == "R"):
        assert sum(1 for m in facet_edge_sets if p.edge_set() <= m) == 2

    result = classify(struct, _sigma_face_maps(struct, rot))
    assert result.kind is Classification.CHIRAL

    failure = extend_homomorphism(rot, {
        "sigma1": atlas.sigma1.inverse(),
        "sigma2": atlas.sigma1 * atlas.sigma1 * atlas.sigma2,
        "sigma3": atlas.sigma3,
    })
    assert isinstance(failure, HomomorphismFailure)

    ident = SignedPerm.identity(4)
    witness = ((atlas.sigma1 * atlas.sigma3) ** 4 == atlas.zeta
               and (atlas.sigma1.inverse() * atlas.sigma3) ** 4 == ident
               and atlas.zeta != ident)
    assert witness
    assert witness_pair_inconsistent(
        rot,
        {"sigma1": atlas.sigma1.inverse(),
         "sigma2": atlas.sigma1 * atlas.sigma1 * atlas.sigma2,
         "sigma3": atlas.sigma3},
        ("sigma1", "sigma3") * 4,
        ("sigma1",) * 4,
    )

    return RoliBundle(
        structure=struct, stabilizer_orders=orders,
        classification=result.kind, orbit_count=result.orbit_count,
        flag_count=result.flag_count, type_vector=struct.schlafli_type(),
        witness_holds=witness,
        two_faces_class="R",
    )


@dataclass(frozen=True)
class EnantiomorphBundle:
    structure: RankedIncidenceStructure
    stabilizer_orders: tuple[int, int, int, int]
    two_faces_class: str
    mirror_iso_by_rho0: bool
    sigma_bar_generate_rotation_group: bool
    barred_word_subgroups_note: str

    def certificate(self) -> dict:
        return {
            "schema": "polytope-forge/1",
            "object": "enantiomorph",
            "group_order": 192,
            "f_vector": list(self.structure.f_vector),
            "stabilizer_orders": list(self.stabilizer_orders),
            "two_face_chiral_class": self.two_faces_class,
            "poset_isomorphic_to_roli": self.mirror_iso_by_rho0,
            "note": self.barred_word_subgroups_note,
        }


@lru_cache(maxsize=None)
def build_enantiomorph() -> EnantiomorphBundle:
    """The mirror twin: same 16 vertices and 32 edges, but left-handed
    octagons and mirrored map copies; poset-isomorphic to the right-handed
    polytope via any orientation-reversing cube symmetry."""
    atlas = build_atlas()
    rot = group_rotation_sigma()
    roli = build_roli()
    rho0 = atlas.rho0

    mirror_octagon = atlas.base_octagon.transformed(rho0)
    assert mirror_octagon.chiral_class == "L"
    mirror_facet = _face_image(3, tuple(sorted(build_map().edges)), rho0.act)
    base_edge = tuple(sorted((atlas.v, atlas.v_bar)))

    sub0 = rot.subgroup([atlas.sigma2_bar, atlas.sigma3_bar])
    assert sub0.element_set == stabilizer(rot, atlas.v_bar).element_set
    sub1 = rot.subgroup([atlas.sigma1_bar * atlas.sigma2_bar, atlas.sigma3_bar])
    assert sub1.element_set == setwise_stabilizer(rot, set(base_edge)).element_set
    sub2 = setwise_stabilizer(rot, mirror_octagon.vertex_set())
    sub3 = stabilizer(rot, mirror_facet, lambda m, g: _face_image(3, m, g.act))
    orders = (len(sub0), len(sub1), len(sub2), len(sub3))
    assert orders == (12, 6, 16, 48)

    # the barred generator words reproduce the right-handed rank-2 and
    # rank-3 stabilizers, so the mirrored stabilizers are computed directly
    k = group_petrie_stabilizer()
    barred_rank2 = rot.subgroup([atlas.sigma1_bar, atlas.sigma2_bar * atlas.sigma3_bar])
    assert barred_rank2.element_set == k.element_set
    assert sub2.element_set == frozenset(rho0 * g * rho0 for g in k)

    struct = coset_geometry(rot, [sub0, sub1, sub2, sub3])
    assert struct.f_vector == (16, 32, 12, 4)
    _attach_realization(struct, [atlas.v_bar, base_edge, mirror_octagon.vertices,
                                 mirror_facet])

    for ref in struct.refs(2):
        assert PetriePolygon(struct.realization[ref]).chiral_class == "L"

    # mirroring by rho0 is a poset isomorphism from the right-handed polytope
    _check_face_map(roli.structure, _realized_face_map(roli.structure, struct, rho0.act),
                    struct)

    bar_group = group_rotation_sigma_bar()
    note = ("rank-2/3 subgroups are the rho0-conjugates of the right-handed "
            "stabilizers; the barred generator words regenerate the "
            "right-handed ones")
    return EnantiomorphBundle(
        structure=struct, stabilizer_orders=orders, two_faces_class="L",
        mirror_iso_by_rho0=True,
        sigma_bar_generate_rotation_group=(
            bar_group.element_set == rot.element_set),
        barred_word_subgroups_note=note,
    )


@dataclass(frozen=True)
class CoverBundle:
    structure: RankedIncidenceStructure
    classification: Classification
    flag_count: int
    type_vector: tuple[int, ...]
    string_ok: bool
    intersection_ok: bool
    centre_plus: frozenset
    centre_word_identities: bool
    injective_on_tetrahedral: bool
    covering_right: "object"
    covering_left: "object"
    covering_cube: "object"
    kernel_right: frozenset
    kernel_left: frozenset
    kernel_cube_rotation: frozenset

    def certificate(self) -> dict:
        return {
            "schema": "polytope-forge/1",
            "object": "cover",
            "group_order": 768,
            "rotation_group_order": 384,
            "f_vector": list(self.structure.f_vector),
            "type_vector": list(self.type_vector),
            "classification": self.classification.value,
            "flags": self.flag_count,
            "string_condition": self.string_ok,
            "intersection_condition": self.intersection_ok,
            "centre_order": len(self.centre_plus),
            "centre_word_identities": self.centre_word_identities,
            "quotient_criterion_injective": self.injective_on_tetrahedral,
            "covering_fibers": {
                "right": self.covering_right.uniform_fiber_size(),
                "left": self.covering_left.uniform_fiber_size(),
                "cube": [c[0] for c in self.covering_cube.preimage_counts],
            },
            "three_covering_right": self.covering_right.is_k_covering,
            "three_covering_left": self.covering_left.is_k_covering,
        }


def _project_first(p8):
    return p8[:4]


def _project_second_mirror(p8):
    return (-p8[4],) + p8[5:]


@lru_cache(maxsize=None)
def build_cover() -> CoverBundle:
    atlas = build_atlas()
    t_plus = group_cover_rotation()
    t_full = group_cover()
    taus = t_full.generator_list()

    string_ok = string_condition(taus)
    intersection_ok = intersection_condition(taus)
    assert string_ok and intersection_ok
    assert verify_relators(taus, presentation_cover(corrected=True))

    struct = polytope_from_reflections(t_full)
    assert struct.f_vector == (32, 64, 24, 8)
    assert struct.schlafli_type() == (8, 3, 3)

    bv = atlas.v + atlas.v_bar
    base_edge = tuple(sorted((bv, atlas.tau0.act(bv))))
    oct_cycle = [bv]
    for _ in range(7):
        oct_cycle.append(atlas.kappa1.act(oct_cycle[-1]))
    base_oct = _canonical_cycle(tuple(oct_cycle))
    # struct.subgroups[3] is generated by tau0, tau1, tau2 in that order
    base_facet = tuple(sorted(orbit(struct.subgroups[3], base_edge,
                                    lambda e, g: _face_image(1, e, g.act))))
    assert len(base_facet) == 24
    _attach_realization(struct, [bv, base_edge, base_oct, base_facet])

    result = classify(struct, _sigma_face_maps(struct, t_full))
    assert result.kind is Classification.REGULAR
    assert result.flag_count == 768

    centre_plus = t_plus.centre().element_set
    ident8 = SignedPerm.identity(8)
    z1 = block_pair(atlas.zeta, SignedPerm.identity(4))
    z2 = block_pair(SignedPerm.identity(4), atlas.zeta)
    zz = block_pair(atlas.zeta, atlas.zeta)
    assert centre_plus == {ident8, z1, z2, zz}
    word_ids = ((atlas.kappa1 * atlas.kappa3) ** 4 == z1
                and (atlas.kappa1.inverse() * atlas.kappa3) ** 4 == z2
                and atlas.kappa1 ** 4 == zz)
    assert word_ids
    assert t_full.centre().element_set == {ident8, zz}

    hom = extend_homomorphism(t_full, {
        "tau0": atlas.rho0, "tau1": atlas.rho1,
        "tau2": atlas.rho2, "tau3": atlas.rho3})
    assert isinstance(hom, Homomorphism)
    tetra = t_full.subgroup([atlas.tau1, atlas.tau2, atlas.tau3])
    assert len(tetra) == 24
    injective = hom.is_injective_on(tetra.elements)
    assert injective
    assert frozenset(hom.kernel()) == {ident8, zz}
    assert hom.image_set() == group_cube().element_set

    hom_r = extend_homomorphism(t_plus, {
        "kappa1": atlas.sigma1, "kappa2": atlas.sigma2, "kappa3": atlas.sigma3})
    hom_l = extend_homomorphism(t_plus, {
        "kappa1": atlas.sigma1_bar, "kappa2": atlas.sigma2_bar,
        "kappa3": atlas.sigma3_bar})
    hom_p = extend_homomorphism(t_plus, {
        "kappa1": atlas.rho0 * atlas.rho1, "kappa2": atlas.rho1 * atlas.rho2,
        "kappa3": atlas.rho2 * atlas.rho3})
    for h in (hom_r, hom_l, hom_p):
        assert isinstance(h, Homomorphism)
        assert h.image_set() == group_rotation().element_set
    kernel_r = frozenset(hom_r.kernel())
    kernel_l = frozenset(hom_l.kernel())
    kernel_p = frozenset(hom_p.kernel())
    assert kernel_r == {ident8, z2}
    assert kernel_l == {ident8, z1}
    assert kernel_p == {ident8, zz}

    roli = build_roli()
    bar = build_enantiomorph()

    covering_right = verify_covering(struct, roli.structure, _realized_face_map(
        struct, roli.structure, _project_first))
    covering_left = verify_covering(struct, bar.structure, _realized_face_map(
        struct, bar.structure, _project_second_mirror))
    for report in (covering_right, covering_left):
        assert report.uniform_fiber_size() == 2
        assert report.is_k_covering

    cube = build_cube()
    fm_cube = {}
    for r in range(4):
        canon = cube.structure.coset_canon[r]
        for ref in struct.refs(r):
            fm_cube[ref] = cube.structure.ref(r, canon[hom(struct.key(ref))])
    covering_cube = verify_covering(struct, cube.structure, fm_cube)
    assert [c[0] for c in covering_cube.preimage_counts] == [2, 2, 1, 1]

    return CoverBundle(
        structure=struct, classification=result.kind, flag_count=result.flag_count,
        type_vector=struct.schlafli_type(), string_ok=string_ok,
        intersection_ok=intersection_ok, centre_plus=centre_plus,
        centre_word_identities=word_ids,
        injective_on_tetrahedral=injective,
        covering_right=covering_right, covering_left=covering_left,
        covering_cube=covering_cube,
        kernel_right=kernel_r, kernel_left=kernel_l, kernel_cube_rotation=kernel_p,
    )


def geometric_chirality_report() -> dict:
    """Scan the full symmetry group for elements preserving the map's edge
    set: only rotations qualify, and the candidate mirror symmetry moves
    the deleted-edge matching."""
    atlas = build_atlas()
    bundle = build_map()
    stab = bundle.edge_stabilizer_in_full_group
    non_rotations = [g for g in group_cube() if g.determinant() == -1]
    return {
        "stabilizer_order": len(stab),
        "stabilizer_is_rotational": stab == group_map_rotation().element_set,
        "identity_preserves_edges": group_cube().identity in stab,
        "non_rotations_scanned": len(non_rotations),
        "non_rotation_preserves_edges": any(g in stab for g in non_rotations),
        "mu0_preserves_edges": bundle.mu0_preserves_edges,
        "mu0_preserves_deleted_matching":
            {_face_image(1, e, atlas.mu0.act) for e in bundle.deleted_edges}
            == set(bundle.deleted_edges),
    }


# ---------------------------------------------------------------------------
# binary tetrahedral subgroup of the map's rotation group
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def binary_tetrahedral_check() -> dict:
    atlas = build_atlas()
    rot = group_map_rotation()
    s1, s2 = atlas.sigma1, atlas.sigma2
    a = s1.inverse() * s2 * s1.inverse()
    b = s2 * s1 ** 4
    identities = (a ** 3 == atlas.zeta and b ** 3 == atlas.zeta
                  and (a * b) ** 2 == atlas.zeta)
    sub = ConcreteGroup.generate({"a": a, "b": b})
    normal = all(
        frozenset(g.inverse() * h * g for h in sub) == sub.element_set
        for g in rot)
    centre_ok = rot.centre().element_set == frozenset(
        (rot.identity, s1 ** 4)) and s1 ** 4 == atlas.zeta
    return {
        "identities_hold": identities,
        "order": len(sub),
        "normal_in_map_rotation_group": normal,
        "rotation_centre_generated_by_sigma1_fourth": centre_ok,
    }


# ---------------------------------------------------------------------------
# point labels for the 8_3 configuration
# ---------------------------------------------------------------------------

CONFIGURATION_LINES = tuple(
    frozenset({i, (i + 1) % 8, (i + 3) % 8}) for i in range(8))


@dataclass(frozen=True)
class Labeling:
    point_of: tuple  # label -> point, as a tuple indexed by label
    label_of: dict
    valid_count: int


def _parity(p: Point) -> int:
    return sum(1 for x in p if x < 0) % 2


@lru_cache(maxsize=None)
def point_labels() -> Labeling:
    """Assign labels 0..7 to the eight odd-sign vertices by constraint
    solving: lines are {i, i+1, i+3} mod 8 at the trivalent graph's
    degree-3 line vertices, the base octagon carries 1357 and its companion
    0246, the line 013 sits at (-1,-1,1,1), and label 1 is adjacent to the
    base vertex.  Residual freedom (none remains) would be resolved
    lexicographically."""
    atlas = build_atlas()
    bundle = build_map()
    adjacency: dict[Point, set[Point]] = {}
    for e in bundle.edges:
        a, b = e
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)

    odd = [p for p in adjacency if _parity(p) == 1]
    even = [p for p in adjacency if _parity(p) == 0]
    assert len(odd) == 8 and len(even) == 8

    def alternate_cycle(poly: PetriePolygon) -> list[Point]:
        return [p for p in poly.vertices if _parity(p) == 1]

    oct_odd = alternate_cycle(atlas.base_octagon)
    star_odd = alternate_cycle(atlas.base_octagram)
    nw = (-1, -1, 1, 1)
    lines_set = set(CONFIGURATION_LINES)

    solutions = []
    for rot_o, flip_o in itertools.product(range(4), (False, True)):
        cyc_o = list(reversed(oct_odd)) if flip_o else list(oct_odd)
        cyc_o = cyc_o[rot_o:] + cyc_o[:rot_o]
        for rot_s, flip_s in itertools.product(range(4), (False, True)):
            cyc_s = list(reversed(star_odd)) if flip_s else list(star_odd)
            cyc_s = cyc_s[rot_s:] + cyc_s[:rot_s]
            label_of = {}
            for idx, p in enumerate(cyc_o):
                label_of[p] = (1 + 2 * idx) % 8
            for idx, p in enumerate(cyc_s):
                label_of[p] = (2 * idx) % 8
            triples = {u: frozenset(label_of[q] for q in adjacency[u]) for u in even}
            if set(triples.values()) != lines_set:
                continue
            if len(set(triples.values())) != 8:
                continue
            if triples[nw] != frozenset({0, 1, 3}):
                continue
            if 1 not in triples[atlas.v]:
                continue
            solutions.append(label_of)

    assert solutions, "no labeling satisfies the constraints"
    keyed = sorted(solutions,
                   key=lambda sol: tuple(sol[p] for p in sorted(sol)))
    best = keyed[0]
    point_of = [None] * 8
    for p, lab in best.items():
        point_of[lab] = p
    return Labeling(point_of=tuple(point_of), label_of=dict(best),
                    valid_count=len(solutions))


def octagon_label_sets(labeling: Labeling | None = None) -> frozenset:
    """The alternate-vertex label sets of the map's six octagons."""
    if labeling is None:
        labeling = point_labels()
    bundle = build_map()
    out = set()
    for oct_ in bundle.octagons:
        out.add(frozenset(labeling.label_of[p] for p in oct_.vertices
                          if _parity(p) == 1))
    return frozenset(out)
