"""The concrete cast: the 4-cube and its symmetry group, Petrie octagons,
the trivalent map of type {8,3} on the cube's vertices, the chiral polytope
of type {8,3,3} living on the same skeleton, its mirror twin, and the
regular double cover realized in E^8 by block matrices.

Every named element is rebuilt from its defining word and cross-checked
against its sign-vector/cycle display at construction time.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache

from .groupcore import (
    ConcreteGroup,
    Homomorphism,
    HomomorphismFailure,
    Presentation,
    broken_relator,
    check,
    eval_word,
    extend_homomorphism,
    orbit,
    reach,
)
from .polycore import (
    Classification,
    ColoredGraph,
    CosetGeometry,
    automorphism_count,
    central_quotient,
    classify,
    colourful_polytope,
    coset_face_action,
    face_permutation,
    isomorphisms,
    polytope_from_reflections,
    polytope_from_rotations,
    verify_covering,
)
from .signedperm import SignedPerm, block_pair

__all__ = [
    "Atlas", "build_atlas",
    "PetriePolygon", "petrie_polygons", "petrie_polygons_brute_force",
    "group_cube", "group_rotation", "group_rotation_sigma", "group_map_rotation",
    "group_petrie_stabilizer", "group_cover_rotation", "group_cover", "group_unitary",
    "build_cube", "build_hemi", "build_map", "build_roli", "build_enantiomorph",
    "build_cover", "binary_tetrahedral_check",
    "point_labels", "Labeling", "octagon_label_sets",
    "gp83_graph",
    "presentation_map_rotation", "presentation_map_full", "presentation_roli",
    "presentation_cover", "presentation_unitary_triangle",
    "CONFIGURATION_LINES",
]

Point = tuple[int, ...]

_SP = SignedPerm.parse


# ---------------------------------------------------------------------------
# Petrie polygons
# ---------------------------------------------------------------------------

def _edge_direction(a: Point, b: Point) -> int:
    diff = [i for i in range(len(a)) if a[i] != b[i]]
    if len(diff) != 1:
        raise ValueError(f"{a} and {b} are not adjacent")
    return diff[0] + 1


def _det_int(rows) -> int:
    """Determinant of a 4×4 integer matrix, by Laplace expansion along the
    first two rows: each 2×2 minor of those rows times its complementary
    minor of the last two, with the sign of its columns."""
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = rows
    return ((a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
            - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
            + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
            + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
            - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
            + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0))


def _edges_share_facet(directions) -> bool:
    """Do consecutive edges with these directions lie in a common cube
    facet?  A facet pins one coordinate, and along a run of edges a
    coordinate stays fixed exactly when no edge runs along its axis."""
    return len(set(directions)) < 4


def _canonical_cycle(seq: tuple) -> tuple:
    """The lexicographically least of the rotations of seq and of its
    reverse.  It starts with the least entry, so only the rotations that
    start there are compared."""
    low = min(seq)
    return min(base[i:] + base[:i] for base in (seq, seq[::-1])
               for i, x in enumerate(base) if x == low)


def _cycle_edges(cycle) -> frozenset:
    n = len(cycle)
    return frozenset(tuple(sorted((cycle[k], cycle[(k + 1) % n]))) for k in range(n))


class PetriePolygon(namedtuple("PetriePolygon", "vertices")):
    """A closed 8-step edge path in which any 3, but no 4, consecutive edges
    lie in a cube facet.  Stored in canonical cyclic form (lexicographically
    least over rotations and both directions)."""

    __slots__ = ()

    # __new__ puts the vertices in canonical form and __init__ checks them,
    # so that the images `_image` builds by tuple.__new__ are trusted and
    # only the public constructor validates
    def __new__(cls, vertices: tuple[Point, ...]):
        return tuple.__new__(cls, (_canonical_cycle(tuple(tuple(v) for v in vertices)),))

    def __init__(self, vertices: tuple[Point, ...]):
        verts = self.vertices
        n = len(verts)
        if len(set(verts)) != n:
            raise ValueError("repeated vertex")
        dirs = self.colors
        for k in range(n):
            window = [dirs[(k + t) % n] for t in range(4)]
            if not _edges_share_facet(window[:3]):
                raise ValueError("three consecutive edges miss every facet")
            if _edges_share_facet(window):
                raise ValueError("four consecutive edges share a facet")
        for k in range(n):
            if verts[(k + n // 2) % n] != tuple(-x for x in verts[k]):
                raise ValueError("vertex sequence is not centrally symmetric")
            if _det_int([verts[(k + t) % n] for t in range(4)]) == 0:
                raise ValueError("four consecutive vertices are degenerate")

    @classmethod
    def _make(cls, iterable) -> "PetriePolygon":
        """`_replace` builds through here: validate it too."""
        (vertices,) = iterable
        return cls(vertices)

    @property
    def colors(self) -> tuple[int, ...]:
        verts = self.vertices
        n = len(verts)
        return tuple(_edge_direction(verts[k], verts[(k + 1) % n]) for k in range(n))

    def det4(self) -> int:
        return _det_int(self.vertices[:4])

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

    @classmethod
    def _image(cls, vertices) -> "PetriePolygon":
        """The polygon on these vertices, the image of a Petrie polygon
        under a symmetry of the 4-cube: put in canonical form, not
        validated again."""
        return tuple.__new__(cls, (_canonical_cycle(tuple(vertices)),))

    def transformed(self, g: SignedPerm) -> "PetriePolygon":
        """The image under g.  Every signed permutation of degree 4 is a
        symmetry of the 4-cube, so it maps Petrie polygons to Petrie
        polygons, and the image is not validated again.  Any other degree
        is a `ValueError`."""
        if g.n != 4:
            raise ValueError(f"a symmetry of the 4-cube has degree 4, not {g.n}")
        return PetriePolygon._image(map(g.act, self.vertices))


def _trace_polygon(start: Point, directions: list[int]) -> PetriePolygon:
    verts = [start]
    for d in directions:
        prev = verts[-1]
        verts.append(prev[:d - 1] + (-prev[d - 1],) + prev[d:])
    check(verts[-1] == start, "petrie.traced-path-closes", verts[-1])
    return PetriePolygon(tuple(verts[:-1]))


# ---------------------------------------------------------------------------
# atlas
# ---------------------------------------------------------------------------

class Atlas(namedtuple("Atlas", "rho0 rho1 rho2 rho3 pi zeta mu0 mu1 mu2 sigma1 sigma2 sigma3 "
                                "sigma1_bar sigma2_bar sigma3_bar kappa1 kappa2 kappa3 "
                                "tau0 tau1 tau2 tau3 gamma1 gamma2 v v_bar "
                                "base_octagon base_octagram")):
    """Symbol table of the standard named elements, all relation-checked:
    `SignedPerm`s from rho0 to gamma2, the points v and v_bar, and the
    base octagon and octagram as `PetriePolygon`s."""

    __slots__ = ()


@lru_cache(maxsize=None)
def build_atlas() -> Atlas:
    ident = SignedPerm.identity(4)
    rho0 = SignedPerm((-1, 1, 1, 1), ident.perm)
    rho1 = SignedPerm.from_cycles(4, [(1, 2)])
    rho2 = SignedPerm.from_cycles(4, [(2, 3)])
    rho3 = SignedPerm.from_cycles(4, [(3, 4)])

    pi = rho0 * rho1 * rho2 * rho3
    check(pi == _SP("(-1,1,1,1)·(4,3,2,1)"), "atlas.pi-display", pi)
    check(pi.order() == 8, "atlas.pi-period-8", pi.order())
    zeta = pi ** 4
    check(zeta == SignedPerm((-1, -1, -1, -1), ident.perm), "atlas.zeta-display", zeta)
    moved = next((g for g in (rho0, rho1, rho2, rho3) if zeta * g != g * zeta), None)
    check(moved is None, "atlas.zeta-central", moved)

    mu0 = rho0 * rho2 * rho3 * rho2
    check(mu0 == _SP("(-1,1,1,1)·(2,4)"), "atlas.mu0-display", mu0)
    mu1 = mu0 * pi
    check(mu1 == _SP("(1,1,1,1)·(1,4)(2,3)"), "atlas.mu1-display", mu1)
    word = rho2 * rho3 * rho2 * rho1 * rho2 * rho3
    check(mu1 == word, "atlas.mu1-word", word)
    mu2 = rho1 * rho2 * rho0 * rho1
    check(mu2 == _SP("(1,-1,1,1)·(1,3)"), "atlas.mu2-display", mu2)

    sigma1 = pi
    sigma2 = rho3 * rho2 * rho1 * rho3
    check(sigma2 == _SP("(1,1,1,1)·(1,2,4)"), "atlas.sigma2-display", sigma2)
    sigma3 = rho2 * rho3
    check(sigma3 == _SP("(1,1,1,1)·(2,4,3)"), "atlas.sigma3-display", sigma3)
    paired = (rho0 * rho1) * (rho2 * rho3)
    check(sigma1 == paired, "atlas.sigma1-paired-rotations", paired)
    paired = (rho3 * rho2) * (rho1 * rho2) * (rho2 * rho3)
    check(sigma2 == paired, "atlas.sigma2-paired-rotations", paired)
    product = sigma2 * sigma3
    check(product == mu1, "atlas.sigma2-sigma3-is-mu1", product)

    sigma1_bar = sigma1.inverse()
    check(sigma1_bar == _SP("(1,1,1,-1)·(1,2,3,4)"), "atlas.sigma1-bar-display", sigma1_bar)
    sigma2_bar = sigma1 * sigma1 * sigma2
    check(sigma2_bar == _SP("(-1,-1,1,1)·(1,3,2)"), "atlas.sigma2-bar-display", sigma2_bar)
    sigma3_bar = sigma3

    kappa1 = block_pair(sigma1, sigma1_bar)
    kappa2 = block_pair(sigma2, sigma2_bar)
    kappa3 = block_pair(sigma3, sigma3_bar)
    check(kappa1 == _SP("(-1,1,1,1,1,1,1,-1)·(4,3,2,1)(5,6,7,8)"), "atlas.kappa1-display",
          kappa1)
    check(kappa2 == _SP("(1,1,1,1,-1,-1,1,1)·(1,2,4)(5,7,6)"), "atlas.kappa2-display", kappa2)
    check(kappa3 == _SP("(1,1,1,1,1,1,1,1)·(2,4,3)(6,8,7)"), "atlas.kappa3-display", kappa3)

    tau0 = SignedPerm.from_cycles(8, [(1, 5), (2, 6), (3, 7), (4, 8)])
    bad = next((kap for kap, s, sb in ((kappa1, sigma1, sigma1_bar), (kappa2, sigma2, sigma2_bar),
                                       (kappa3, sigma3, sigma3_bar))
                if kap.conjugate(tau0) != block_pair(sb, s)), None)
    check(bad is None, "atlas.tau0-swaps-the-two-4-spaces", bad)
    tau1 = tau0 * kappa1
    tau2 = tau0 * kappa1 * kappa2
    tau3 = tau0 * kappa1 * kappa2 * kappa3
    bad = next((t for t in (tau0, tau1, tau2, tau3) if not t.is_involution()), None)
    check(bad is None, "atlas.taus-are-involutions", bad)

    gamma1 = rho1 * rho2 * rho3 * rho2
    check(gamma1 == _SP("(1,1,1,1)·(1,4,2)"), "atlas.gamma1-display", gamma1)
    gamma2 = rho2 * rho0 * rho1 * rho0
    check(gamma2 == _SP("(-1,1,-1,1)·(1,2,3)"), "atlas.gamma2-display", gamma2)

    v = (1, 1, 1, 1)
    v_bar = rho0.act(v)
    check(v_bar == (-1, 1, 1, 1), "atlas.v-bar-display", v_bar)
    image = mu0.act(v)
    check(image == v_bar, "atlas.mu0-sends-v-to-v-bar", image)
    w = (rho1 * rho0 * rho1).act(v)
    check(w == (1, -1, 1, 1), "atlas.w-display", w)
    fixed = {p for p in itertools.product((1, -1), repeat=4)
             if sigma2.act(p) == p and sigma3.act(p) == p}
    check(fixed == {v, tuple(-x for x in v)}, "atlas.v-spans-the-fixed-subspace", fixed)
    images = (sigma2_bar.act(v_bar), sigma3_bar.act(v_bar))
    check(images == (v_bar, v_bar), "atlas.barred-generators-fix-v-bar", images)

    cycle = tuple(reach(v, lambda p: [pi.act(p)]))  # v, v·pi, v·pi², …
    check(cycle[1:5] == ((1, 1, 1, -1), (1, 1, -1, -1), (1, -1, -1, -1), (-1, -1, -1, -1)),
          "atlas.octagon-vertex-cycle", cycle)
    base_octagon = PetriePolygon(cycle)
    base_octagram = _trace_polygon(w, [4, 1, 2, 3, 4, 1, 2, 3])
    shared = base_octagon.vertex_set() & base_octagram.vertex_set()
    check(not shared, "atlas.octagon-and-octagram-disjoint", shared)
    image = base_octagon.transformed(mu2)
    check(image == base_octagram, "atlas.mu2-swaps-octagon-and-octagram", image)
    check(base_octagon.det4() == 8, "atlas.base-octagon-right-handed", base_octagon.det4())

    return Atlas(
        rho0=rho0, rho1=rho1, rho2=rho2, rho3=rho3, pi=pi, zeta=zeta,
        mu0=mu0, mu1=mu1, mu2=mu2,
        sigma1=sigma1, sigma2=sigma2, sigma3=sigma3,
        sigma1_bar=sigma1_bar, sigma2_bar=sigma2_bar, sigma3_bar=sigma3_bar,
        kappa1=kappa1, kappa2=kappa2, kappa3=kappa3,
        tau0=tau0, tau1=tau1, tau2=tau2, tau3=tau3,
        gamma1=gamma1, gamma2=gamma2,
        v=v, v_bar=v_bar,
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
    check(len(g) == 384, "groups.cube-order", len(g))
    return g


@lru_cache(maxsize=None)
def group_rotation() -> ConcreteGroup:
    a = build_atlas()
    g = ConcreteGroup.generate(
        {"r01": a.rho0 * a.rho1, "r12": a.rho1 * a.rho2, "r23": a.rho2 * a.rho3})
    check(len(g) == 192, "groups.rotation-order", len(g))
    return g


@lru_cache(maxsize=None)
def group_rotation_sigma() -> ConcreteGroup:
    a = build_atlas()
    g = ConcreteGroup.generate(
        {"sigma1": a.sigma1, "sigma2": a.sigma2, "sigma3": a.sigma3})
    check(g.element_set == group_rotation().element_set, "groups.sigmas-generate-rotations",
          len(g))
    return g


@lru_cache(maxsize=None)
def group_map_rotation() -> ConcreteGroup:
    a = build_atlas()
    g = ConcreteGroup.generate({"sigma1": a.sigma1, "sigma2": a.sigma2})
    check(len(g) == 48, "groups.map-rotation-order", len(g))
    return g


def _stabilizer_fault(group: ConcreteGroup, sub: ConcreteGroup, point, action
                      ) -> tuple | None:
    """None when sub, a subgroup of group, is the stabilizer of point: its
    generators fix the point, so sub lies in the stabilizer, and by
    orbit-stabilizer |sub| * |orbit| = |group| leaves the stabilizer no
    other element.  Otherwise a moving generator (or None) and the two
    sizes."""
    moved = next((g for g in sub.generator_list() if action(point, g) != point), None)
    size = len(orbit(group, point, action))
    return None if moved is None and len(sub) * size == len(group) else (moved, len(sub), size)


@lru_cache(maxsize=None)
def group_petrie_stabilizer() -> ConcreteGroup:
    """The stabilizer of the base octagon's vertex set in the full group:
    the dihedral group <mu0, mu1> of order 16."""
    a = build_atlas()
    k = group_cube().subgroup({"mu0": a.mu0, "mu1": a.mu1})
    check(len(k) == 16, "groups.petrie-stabilizer-order", len(k))
    conjugate = a.mu0.inverse() * a.pi * a.mu0
    check(conjugate == a.pi.inverse(), "groups.petrie-stabilizer-dihedral", conjugate)
    table = _point_table(group_cube(), a.v)
    octagon = frozenset(map(table.index.__getitem__, a.base_octagon.vertices))
    fault = _stabilizer_fault(group_cube(), k, octagon,
                              lambda pts, g: frozenset(map(table.move(g).__getitem__, pts)))
    check(fault is None, "groups.petrie-stabilizer-generated-by-mu0-mu1", fault)
    return k


@lru_cache(maxsize=None)
def group_cover_rotation() -> ConcreteGroup:
    a = build_atlas()
    g = ConcreteGroup.generate(
        {"kappa1": a.kappa1, "kappa2": a.kappa2, "kappa3": a.kappa3})
    check(len(g) == 384, "groups.cover-rotation-order", len(g))
    return g


@lru_cache(maxsize=None)
def group_cover() -> ConcreteGroup:
    a = build_atlas()
    g = ConcreteGroup.generate(
        {"tau0": a.tau0, "tau1": a.tau1, "tau2": a.tau2, "tau3": a.tau3})
    check(len(g) == 768, "groups.cover-order", len(g))
    return g


@lru_cache(maxsize=None)
def group_unitary() -> ConcreteGroup:
    a = build_atlas()
    g = ConcreteGroup.generate({"gamma1": a.gamma1, "gamma2": a.gamma2})
    check(len(g) == 24, "groups.unitary-order", len(g))
    return g


# ---------------------------------------------------------------------------
# Petrie enumeration
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def petrie_polygons() -> tuple[PetriePolygon, ...]:
    """All Petrie polygons as the symmetry orbit of the base octagon, walked
    on the cube group's point table."""
    table = _point_table(group_cube(), build_atlas().v)
    cycles = orbit(group_cube(), table.numbered(2, build_atlas().base_octagon.vertices),
                   table.action(2))
    return tuple(PetriePolygon._image(table.read(2, c)) for c in sorted(cycles))


@lru_cache(maxsize=None)
def petrie_polygons_brute_force() -> tuple[PetriePolygon, ...]:
    """All Petrie polygons by direct search over closed edge paths.  Each
    cycle is traced once: from its least vertex, in the direction whose
    second vertex is the smaller of that vertex's two neighbours."""
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
                if path[1] < path[-1]:
                    try:
                        found.add(PetriePolygon(tuple(path)))
                    except ValueError:
                        pass
                continue
            if nxt < path[0] or nxt in path:
                continue
            extend(path + [nxt], dirs + [axis])

    for start in vertices:
        extend([start], [])
    return tuple(sorted(found))


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


def presentation_cover() -> Presentation:
    """String presentation of the order-768 cover group.  The published
    relator list contains (t3 t3)^3, surely meant as (t2 t3)^3, which is
    the reading here."""
    return Presentation(4, (
        (1, 1), (2, 2), (3, 3), (4, 4),
        (1, 2) * 8,
        (2, 3) * 3,
        (3, 4) * 3,
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
# point tables and realization
# ---------------------------------------------------------------------------

class PointTable:
    """The orbit of a point under a group, numbered in coordinate order, and
    each generator's permutation of the numbers: moves[k][i] is the number
    of points[i] moved by generator k.  It takes one `act` per point and
    generator; every later move is a list lookup.  The numbering keeps the
    order of the points, so a face of numbers is sorted, or a canonical
    cycle, exactly when the face of their points is."""

    __slots__ = ("group", "points", "index", "moves", "_lists")

    def __init__(self, group: ConcreteGroup, seed: Point):
        gens = group.generator_list()
        images = {}

        def step(p: Point) -> list:
            images[p] = [g.act(p) for g in gens]
            return images[p]

        self.group = group
        self.points = tuple(sorted(reach(seed, step)))
        self.index = {p: i for i, p in enumerate(self.points)}
        self.moves = [[self.index[images[p][k]] for p in self.points] for k in range(len(gens))]
        self._lists = dict(zip(gens, self.moves))

    def move(self, g) -> list[int]:
        """The permutation of the numbers by g, an element of the group:
        the generators' lists composed along g's word."""
        moved = self._lists.get(g)
        if moved is None:
            group = self.group
            moved = list(range(len(self.points)))
            for k in group.word(group.table().index[g]):
                step = self.moves[k]
                moved = [step[i] for i in moved]
            self._lists[g] = moved
        return moved

    def action(self, rank: int):
        """The group's action on numbered faces of one rank, as `orbit`
        takes it."""
        return lambda face, g: _face_image(rank, face, self.move(g).__getitem__)

    def numbered(self, rank: int, face):
        """A face of points as a face of their numbers."""
        return _relabel(rank, face, self.index.__getitem__)

    def read(self, rank: int, face):
        """A face of numbers as a face of their points."""
        return _relabel(rank, face, self.points.__getitem__)


@lru_cache(maxsize=None)
def _point_tables(group: ConcreteGroup) -> list[PointTable]:
    """The point tables built for group so far, one per orbit."""
    return []


def _point_table(group: ConcreteGroup, seed: Point) -> PointTable:
    """The table of the orbit of seed under group.  A table numbers its
    orbit in coordinate order, whatever point it was seeded at, so a seed
    that an earlier table of the group numbers shares that table."""
    tables = _point_tables(group)
    table = next((t for t in tables if seed in t.index), None)
    if table is None:
        table = PointTable(group, seed)
        tables.append(table)
    return table


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


def _relabel(rank: int, face, f):
    """The face with each point p replaced by f(p), in place: for an f that
    keeps the order of points, the image of `_face_image` without sorting."""
    if rank == 0:
        return f(face)
    if rank == 3:
        return tuple(tuple(map(f, e)) for e in face)
    return tuple(map(f, face))


# geometric containment between faces of the polygon family, by rank pair
_FACE_CONTAINS = {
    (0, 1): lambda p, e: p in e,
    (0, 2): lambda p, o: p in o,
    (0, 3): lambda p, m: any(p in e for e in m),
    (1, 2): lambda e, o: e in _cycle_edges(o),
    (1, 3): lambda e, m: e in m,
    (2, 3): lambda o, m: _cycle_edges(o) <= set(m),
}


def _closed_cycle(edges) -> tuple:
    """The canonical cycle that edges close, walked from the first edge one
    step per edge at most, each step away from the point just left (back at
    a dead end), so a path, a star or a union of cycles ends the walk too."""
    ends = _adjacency((e[0], e[-1]) for e in edges)
    cycle = [edges[0][0], edges[0][-1]]
    while len(cycle) < len(edges):
        cycle.append(next((q for q in ends[cycle[-1]] if q != cycle[-2]), cycle[-2]))
    check(len(set(cycle)) == len(edges) and _cycle_edges(cycle) == set(edges),
          "realization.two-face-edges-close-a-cycle", cycle)
    return _canonical_cycle(tuple(cycle))


def _realize(struct: CosetGeometry, vertex: Point) -> dict:
    """The geometric meaning of a coset structure, face -> realized face,
    checked to make coset incidence coincide with geometric containment.
    The base faces come from the base vertex by Wythoff's rule (McMullen &
    Schulte, Abstract Regular Polytopes, ch. 5): the base edge is the orbit of
    the vertex under subgroups[1], and the base 2-face and facet are the
    orbit of that edge under subgroups[2] and [3], as the cycle it closes
    and as a sorted edge tuple.  The rank-r face of the coset H g is the
    base face moved by g.  An orbit under H is fixed by H, so of the base
    faces only the vertex is checked to be fixed by H = subgroups[0].  Each
    H is then the whole stabilizer of its base face: an element g that
    fixes it makes the faces H g and H one realized face, so by
    faithfulness g lies in H.

    The work runs on the point table of the base vertex.  With H fixing
    its face, the faces are carried along the walk of the group's action
    table, as `right_cosets` walks it: the face of a coset first met at
    g = p * gens[k] is the face of p's coset moved by generator k's list.
    The checks compare numbered faces, and the faces are read back to
    points at the end."""
    table, subs = _point_table(struct.group, vertex), struct.subgroups
    v = table.index[vertex]
    moved = next((s for s in subs[0].generator_list() if table.move(s)[v] != v), None)
    check(moved is None, "realization.base-faces-stabilized", moved)
    base = [v, tuple(sorted(orbit(subs[1], v, table.action(0))))]
    for r in range(2, struct.rank):
        edges = orbit(subs[r], base[1], table.action(1))
        base.append(_closed_cycle(edges) if r == 2 else tuple(sorted(edges)))
    parent = struct.group.table().parent
    faces = []
    for r, canon in enumerate(struct.canon):
        row = [None] * struct.f_vector[r]
        row[canon[0]] = base[r]
        for c, link in zip(canon, parent):
            if row[c] is None:
                p, k = link
                row[c] = _face_image(r, row[canon[p]], table.moves[k].__getitem__)
        faces.append(row)
    distinct, total = sum(len(set(row)) for row in faces), sum(map(len, faces))
    check(distinct == total, "realization.faithful", (distinct, total))
    # With the base faces stabilized, the realization commutes with the
    # group's right action.  Incidence and containment are both invariant
    # under it, and it is transitive on each rank, so the face holding the
    # identity in each lower rank, against every face above, decides all pairs.
    mismatch = next(((ra, rb) for r1 in range(struct.rank) for r2 in range(r1 + 1, struct.rank)
                     for ra in [(r1, struct.base_flag[r1])] for rb in struct.refs(r2)
                     if _FACE_CONTAINS[(r1, r2)](faces[r1][ra[1]], faces[r2][rb[1]])
                     != struct.incident(ra, rb)), None)
    check(mismatch is None, "realization.incidence-is-containment", mismatch)
    return {(r, c): table.read(r, face) for r, row in enumerate(faces)
            for c, face in enumerate(row)}


def _realized_face_map(source: dict, target: dict, f) -> dict:
    """Send each face of the source realization to the face of the target
    realization that is its image under the point map f."""
    face_of = {(ref[0], face): ref for ref, face in target.items()}
    images = {ref: (ref[0], _face_image(ref[0], face, f)) for ref, face in source.items()}
    stray = next(((ref, image) for ref, image in images.items() if image not in face_of), None)
    check(stray is None, "realization.point-map-sends-faces-to-faces", stray)
    return {ref: face_of[image] for ref, image in images.items()}


def _two_faces_class(realization: dict) -> str:
    """The chiral class of the realized 2-faces, checked to be one class.
    Each is the base octagon moved by a symmetry of the 4-cube, so it is
    not validated again."""
    classes = {PetriePolygon._image(face).chiral_class
               for (rank, _), face in realization.items() if rank == 2}
    check(len(classes) == 1, "realization.two-faces-share-a-chiral-class", classes)
    return classes.pop()


def _sigma_face_maps(struct: CosetGeometry) -> list:
    return [coset_face_action(struct, g) for g in struct.group.generator_list()]


# ---------------------------------------------------------------------------
# builds
# ---------------------------------------------------------------------------

class CubeBundle(namedtuple("CubeBundle", "structure realization skeleton colourful "
                                          "classification flag_count type_vector")):
    __slots__ = ()

    def certificate(self) -> dict:
        return {
            "object": "cube",
            "group_order": len(self.structure.group),
            "f_vector": list(self.structure.f_vector),
            "type_vector": list(self.type_vector),
            "flags": self.flag_count,
            "classification": self.classification.value,
            "colourful_isomorphic": True,
        }


@lru_cache(maxsize=None)
def build_cube() -> CubeBundle:
    atlas = build_atlas()
    g = group_cube()
    struct = polytope_from_reflections(g)
    check(struct.f_vector == (16, 32, 24, 8), "cube.f-vector", struct.f_vector)

    realization = _realize(struct, atlas.v)

    edge_colors = {}
    for ref in struct.refs(1):
        a, b = realization[ref]
        edge_colors[frozenset((a, b))] = _edge_direction(a, b)
    skeleton = ColoredGraph(
        vertices=tuple(sorted(realization[ref] for ref in struct.refs(0))),
        edge_colors=edge_colors, d=4)
    colourful = colourful_polytope(skeleton)
    check(colourful.isomorphic_to(struct), "cube.colourful-isomorphic", colourful.f_vector)

    result = classify(struct)
    check(result.kind is Classification.REGULAR, "cube.regular", result.kind)
    return CubeBundle(structure=struct, realization=realization, skeleton=skeleton,
                      colourful=colourful, classification=result.kind,
                      flag_count=result.flag_count, type_vector=struct.schlafli_type())


class HemiBundle(namedtuple("HemiBundle", "structure quotient_group_order "
                                          "generator_product_order colourful")):
    __slots__ = ()

    def certificate(self) -> dict:
        return {
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
    check(struct.f_vector == (8, 16, 12, 4), "hemi.f-vector", struct.f_vector)
    # the quotient by the centre <zeta> is read off the cube group's table:
    # its elements are the cosets of <zeta>, and a power of rho0 rho1 rho2
    # rho3 is trivial in it when the walk along that word lands in <zeta>
    group = group_cube()
    quotient_order = len(group.right_cosets(group.subgroup([atlas.zeta])))
    centre = {0, group.table().index[atlas.zeta]}
    word = range(len(group.generators))
    prod_order, i = 1, group.walk(0, word)
    while i not in centre:
        prod_order, i = prod_order + 1, group.walk(i, word)

    def antipodal(p: Point) -> tuple:
        return tuple(sorted((p, tuple(-x for x in p))))

    def quotient_edge(edge) -> frozenset:
        return frozenset(map(antipodal, edge))

    cube_colors = cube.skeleton.edge_colors
    edge_colors = {quotient_edge(edge): color for edge, color in cube_colors.items()}
    clash = next((edge for edge, color in cube_colors.items()
                  if edge_colors[quotient_edge(edge)] != color), None)
    check(clash is None, "hemi.antipodal-edges-share-a-colour", clash)
    k44 = ColoredGraph(
        vertices=tuple(sorted({antipodal(p) for p in cube.skeleton.vertices})),
        edge_colors=edge_colors, d=4)

    # K_{4,4}: far = one vertex's neighbours, near = the rest; each sees the other
    graph = _adjacency(map(tuple, edge_colors))
    far = graph[k44.vertices[0]]
    near = graph.keys() - far
    check(len(far) == len(near) == 4, "hemi.k44-sides-of-four", (len(far), len(near)))
    bad = next((x for x in graph if graph[x] != (far if x in near else near)), None)
    check(bad is None, "hemi.k44-complete-bipartite", bad)

    colourful = colourful_polytope(k44)
    check(colourful.isomorphic_to(struct), "hemi.colourful-isomorphic", colourful.f_vector)
    return HemiBundle(structure=struct, quotient_group_order=quotient_order,
                      generator_product_order=prod_order, colourful=colourful)


class MapBundle(namedtuple("MapBundle", "structure octagons edges levi_automorphism_count "
                                        "full_group regularity_hom rotation_classification "
                                        "edge_stabilizer_in_full_group mu0_preserves_edges")):
    """`full_group` is generated by t0, t1, t2."""

    __slots__ = ()

    def certificate(self) -> dict:
        return {
            "object": "map",
            "f_vector": list(self.structure.f_vector),
            "type_vector": list(self.structure.schlafli_type()),
            "rotation_group_order": len(self.structure.group),
            "full_automorphism_order": len(self.full_group),
            "levi_automorphism_count": self.levi_automorphism_count,
            "geometrically_chiral": not self.mu0_preserves_edges,
            "rotation_classification": self.rotation_classification.value,
            # one flag orbit, by the check `map.automorphism-count`
            "full_classification": "regular",
        }


def _adjacency(edges) -> dict:
    """node -> set of neighbours of the undirected graph with these edges."""
    adj: dict = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


def _in_flag(flag: tuple[int, ...]):
    """The face label (rank, whether the face lies in the flag)."""
    faces = set(enumerate(flag))
    return lambda face: (face[0], face in faces)


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

    # the cosets of <sigma2>, <sigma1 sigma2> and <sigma1>
    struct = polytope_from_rotations(rot)
    orders = tuple(map(len, struct.subgroups))
    check(orders == (3, 2, 8), "map.coset-subgroup-orders", orders)
    check(struct.schlafli_type() == (8, 3), "map.type-8-3", struct.schlafli_type())
    # with _realize's faithfulness and containment checks, the realized faces
    # are the map itself: its 24 edges and 6 octagons, every octagon edge a
    # map edge and every edge on two octagons (the diamond) follow from the
    # coset geometry
    realization = _realize(struct, atlas.v)
    edges = {face for (rank, _), face in realization.items() if rank == 1}
    octagons = {PetriePolygon._image(face) for (rank, _), face in realization.items()
                if rank == 2}
    check(atlas.base_octagram in octagons, "map.octagram-is-a-face", atlas.base_octagram)
    stray = octagons - set(petrie_polygons())
    check(not stray, "map.faces-are-petrie-polygons", stray)

    # the edges numbered on the cube group's point table, which moves them
    # by any symmetry of the cube; the cube's edges are the orbit of one
    full = group_cube()
    table = _point_table(full, atlas.v)
    numbered_edges = {table.numbered(1, e) for e in edges}
    cube_edges = set(orbit(full, min(numbered_edges), table.action(1)))
    covered = len({p for e in cube_edges - numbered_edges for p in e})
    check(covered == 16, "map.deleted-edges-perfect-matching", covered)

    levi = _adjacency(edges)
    check(next(isomorphisms(levi, gp83_graph()), None) is not None, "map.levi-graph-is-gp-8-3",
          len(levi))
    aut_count = automorphism_count(levi)
    check(aut_count == 96, "map.levi-automorphisms", aut_count)

    rot_result = classify(struct)
    check(rot_result.orbit_count == 2 and rot_result.flag_count == 96,
          "map.rotation-group-has-two-flag-orbits", rot_result)

    # the three distinguished involutions.  A search with each face labelled
    # by its rank and whether it lies in the flag finds the automorphisms
    # that take the base flag to a given flag.  Automorphisms of a polytope
    # act freely on its flags (McMullen & Schulte, Abstract Regular
    # Polytopes, 2B), so the first hit is the only one: one first-hit
    # search per flag j-adjacent to the base flag
    base_flag = struct.base_flag
    adjacent = [f for j in range(3) for f in struct.flag_adjacent(base_flag, j)]
    hits = [next(isomorphisms(struct._inc, struct._inc, _in_flag(base_flag), _in_flag(f)), None)
            for f in adjacent]
    missing = [f for f, hit in zip(adjacent, hits) if hit is None]
    check(not missing, "map.one-automorphism-per-adjacent-flag", missing)
    t_gens = [face_permutation(struct, hit) for hit in hits]
    broken = broken_relator(t_gens, presentation_map_full())
    check(broken is None, "map.full-presentation", broken)
    # automorphisms of a polytope act freely on its flags, so a group of
    # them with one element per flag is the whole automorphism group, and
    # it has one flag orbit: the map is regular
    full_group = ConcreteGroup.generate(t_gens, names=["t0", "t1", "t2"])
    check(len(full_group) == rot_result.flag_count, "map.automorphism-count",
          (len(full_group), rot_result.flag_count))

    # the same involutions arise as words in the base one and the rotations:
    # t1 = t0 * s1 and t2 = t0 * s1 * s2 as face bijections
    fs1, fs2 = (face_permutation(struct, mapping) for mapping in _sigma_face_maps(struct))
    word = t_gens[0] * fs1
    check(t_gens[1] == word, "map.t1-is-t0-s1", word)
    word = word * fs2
    check(t_gens[2] == word, "map.t2-is-t0-s1-s2", word)

    hom = extend_homomorphism(rot, {
        "sigma1": atlas.sigma1.inverse(),
        "sigma2": atlas.sigma1 * atlas.sigma1 * atlas.sigma2,
    })
    check(isinstance(hom, Homomorphism), "map.regularity-automorphism-extends", hom)
    moved = next((e for e in rot if hom(hom(e)) != e), None)
    check(moved is None, "map.regularity-automorphism-involutory", moved)

    def keeps_edges(g) -> bool:
        move = table.move(g).__getitem__
        return {_face_image(1, e, move) for e in numbered_edges} == numbered_edges

    # edges is a rot-orbit, so every member of a right coset (rot)g moves it
    # as g does: the stabilizer is the union of the cosets whose member keeps it
    stab = frozenset(full.elements[i] for coset in full.right_cosets(rot)
                     if keeps_edges(full.elements[coset[0]]) for i in coset)
    check(stab == rot.element_set, "map.edge-stabilizer-is-the-rotation-group", len(stab))
    bad = next((g for g in stab if g.determinant() != 1), None)
    check(bad is None, "map.edge-stabilizer-rotational", bad)
    mu0_keeps = keeps_edges(atlas.mu0)
    check(not mu0_keeps, "map.mu0-moves-the-edges", atlas.mu0)

    return MapBundle(
        structure=struct, octagons=tuple(sorted(octagons)), edges=frozenset(edges),
        levi_automorphism_count=aut_count,
        full_group=full_group, regularity_hom=hom,
        rotation_classification=rot_result.kind,
        edge_stabilizer_in_full_group=stab,
        mu0_preserves_edges=mu0_keeps,
    )


class RoliBundle(namedtuple("RoliBundle", "structure realization stabilizer_orders "
                                          "classification orbit_count flag_count type_vector "
                                          "witness_holds two_faces_class")):
    __slots__ = ()

    def certificate(self) -> dict:
        return {
            "object": "roli",
            "group_order": len(self.structure.group),
            "f_vector": list(self.structure.f_vector),
            "stabilizer_orders": list(self.stabilizer_orders),
            "type_vector": list(self.type_vector),
            "classification": self.classification.value,
            "flag_orbits": self.orbit_count,
            "flags": self.flag_count,
            "chirality_witness_holds": self.witness_holds,
            "two_face_chiral_class": self.two_faces_class,
        }


@lru_cache(maxsize=None)
def build_roli() -> RoliBundle:
    atlas = build_atlas()
    rot = group_rotation_sigma()
    # the cosets of <s2, s3>, <s1 s2, s3>, <s1, s2 s3> and <s1, s2>
    struct = polytope_from_rotations(rot)
    subs = struct.subgroups
    orders = tuple(map(len, subs))
    check(orders == (12, 6, 16, 48), "roli.stabilizer-orders", orders)
    # the octagon's stabilizer in the full group lies in rot exactly when
    # this holds, and then it is the stabilizer in rot as well
    check(subs[2].element_set == group_petrie_stabilizer().element_set,
          "roli.octagon-stabilizer", len(subs[2]))

    type_vector = struct.schlafli_type()
    check(type_vector == (8, 3, 3), "roli.type-8-3-3", type_vector)

    realization = _realize(struct, atlas.v)

    polys = petrie_polygons()
    two_faces_class = _two_faces_class(realization)
    class_r = {p.vertices for p in polys if p.chiral_class == "R"}
    check(two_faces_class == "R"
          and {realization[ref] for ref in struct.refs(2)} == class_r,
          "roli.two-faces-right-handed", two_faces_class)

    facet_edge_sets = [frozenset(realization[ref]) for ref in struct.refs(3)]
    bad = next((k for k, m in enumerate(facet_edge_sets)
                if len(m) != 24 or sum(p.edge_set() <= m for p in polys) != 6), None)
    check(bad is None, "roli.facets-are-map-copies", bad)
    bad = next((p for p in polys if p.chiral_class == "R"
                and sum(p.edge_set() <= m for m in facet_edge_sets) != 2), None)
    check(bad is None, "roli.octagon-on-two-facets", bad)

    result = classify(struct)
    check(result.kind is Classification.CHIRAL, "roli.chiral", result)

    # the mirror map sigma1 -> sigma1^-1, sigma2 -> sigma1^2 sigma2, sigma3 -> sigma3
    mirror = [atlas.sigma1.inverse(), atlas.sigma1 * atlas.sigma1 * atlas.sigma2, atlas.sigma3]
    failure = extend_homomorphism(rot, dict(zip(rot.generators, mirror)))
    check(isinstance(failure, HomomorphismFailure), "roli.no-mirror-automorphism",
          type(failure).__name__)

    ident = SignedPerm.identity(4)
    powers = ((atlas.sigma1 * atlas.sigma3) ** 4, (atlas.sigma1.inverse() * atlas.sigma3) ** 4)
    witness = powers == (atlas.zeta, ident) and atlas.zeta != ident
    check(witness, "roli.chirality-witness", powers)
    # (sigma1 sigma3)^4 and sigma1^4 are equal, and their mirror images are not
    words = ((1, 3) * 4, (1,) * 4)
    sigma_a, sigma_b = (eval_word(rot.generator_list(), w, ident) for w in words)
    mirror_a, mirror_b = (eval_word(mirror, w, ident) for w in words)
    check(sigma_a == sigma_b and mirror_a != mirror_b,
          "roli.witness-words-certify-the-failure", words)

    return RoliBundle(
        structure=struct, realization=realization, stabilizer_orders=orders,
        classification=result.kind, orbit_count=result.orbit_count,
        flag_count=result.flag_count, type_vector=type_vector,
        witness_holds=witness, two_faces_class=two_faces_class,
    )


class EnantiomorphBundle(namedtuple("EnantiomorphBundle", "structure realization "
                                                          "stabilizer_orders two_faces_class")):
    __slots__ = ()

    def certificate(self) -> dict:
        return {
            "object": "enantiomorph",
            "group_order": len(self.structure.group),
            "f_vector": list(self.structure.f_vector),
            "stabilizer_orders": list(self.stabilizer_orders),
            "two_face_chiral_class": self.two_faces_class,
            "poset_isomorphic_to_roli": True,
            "note": ("rank-2/3 subgroups are the rho0-conjugates of the right-handed "
                     "stabilizers; the barred generator words regenerate the "
                     "right-handed ones"),
        }


@lru_cache(maxsize=None)
def build_enantiomorph() -> EnantiomorphBundle:
    """The mirror twin: Roli's cube conjugated by rho0, on the same 16
    vertices and 32 edges, with left-handed octagons and mirrored map
    copies.  The rotation group has index 2 in the cube group
    (groups.cube-order, groups.rotation-order,
    groups.sigmas-generate-rotations), so rho0 normalizes it, and
    H g -> H^rho0 g^rho0 is an isomorphism of coset geometries from Roli's
    cube onto this one.  The polytope axioms, the f-vector, the type and
    the stabilizer orders carry over from Roli's cube, and are not checked
    again."""
    atlas = build_atlas()
    rot = group_rotation_sigma()
    roli = build_roli()
    rho0 = atlas.rho0

    subs = [rot.subgroup([g.conjugate(rho0) for g in sub.generator_list()])
            for sub in roli.structure.subgroups]
    # the paper's barred description of the vertex and edge subgroups
    barred = [[atlas.sigma2_bar, atlas.sigma3_bar],
              [atlas.sigma1_bar * atlas.sigma2_bar, atlas.sigma3_bar]]
    bad = next((r for r, gens in enumerate(barred)
                if rot.subgroup(gens).element_set != subs[r].element_set), None)
    check(bad is None, "enantiomorph.barred-words-give-the-mirrored-subgroups", bad)
    # the barred generator words reproduce the right-handed octagon stabilizer
    barred_rank2 = rot.subgroup([atlas.sigma1_bar, atlas.sigma2_bar * atlas.sigma3_bar])
    check(barred_rank2.element_set == group_petrie_stabilizer().element_set,
          "enantiomorph.barred-words-give-the-octagon-stabilizer", len(barred_rank2))

    struct = CosetGeometry(rot, subs)
    realization = _realize(struct, atlas.v_bar)
    # the base 2-face is the base octagon mirrored by rho0, a left-handed one
    mirror_octagon = atlas.base_octagon.transformed(rho0)
    check(mirror_octagon.chiral_class == "L"
          and realization[2, struct.base_flag[2]] == mirror_octagon.vertices,
          "enantiomorph.mirror-octagon-left-handed", mirror_octagon.chiral_class)
    two_faces_class = _two_faces_class(realization)
    check(two_faces_class == "L", "enantiomorph.two-faces-left-handed", two_faces_class)
    return EnantiomorphBundle(structure=struct, realization=realization,
                              stabilizer_orders=tuple(map(len, subs)),
                              two_faces_class=two_faces_class)


class CoverBundle(namedtuple("CoverBundle", "structure realization classification flag_count "
                                            "type_vector centre_plus centre_word_identities "
                                            "injective_on_tetrahedral covering_right "
                                            "covering_left covering_cube")):
    __slots__ = ()

    def certificate(self) -> dict:
        return {
            "object": "cover",
            "group_order": len(self.structure.group),
            "rotation_group_order": len(group_cover_rotation()),
            "f_vector": list(self.structure.f_vector),
            "type_vector": list(self.type_vector),
            "classification": self.classification.value,
            "flags": self.flag_count,
            # checked by reflections.string-condition and reflections.intersection-condition
            "string_condition": True,
            "intersection_condition": True,
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
    check(t_plus.element_set <= t_full.element_set and 2 * len(t_plus) == len(t_full),
          "cover.rotation-subgroup-of-index-2", len(t_plus))
    broken = broken_relator(taus, presentation_cover())
    check(broken is None, "cover.presentation", broken)

    struct = polytope_from_reflections(t_full)
    check(struct.f_vector == (32, 64, 24, 8), "cover.f-vector", struct.f_vector)
    type_vector = struct.schlafli_type()
    check(type_vector == (8, 3, 3), "cover.type-8-3-3", type_vector)

    realization = _realize(struct, atlas.v + atlas.v_bar)
    base_facet = realization[3, struct.base_flag[3]]
    check(len(base_facet) == 24, "cover.facet-edge-count", len(base_facet))

    result = classify(struct)
    check(result.kind is Classification.REGULAR and result.flag_count == 768,
          "cover.regular-with-768-flags", result)

    centre_plus = t_plus.centre().element_set
    ident8 = SignedPerm.identity(8)
    z1 = block_pair(atlas.zeta, SignedPerm.identity(4))
    z2 = block_pair(SignedPerm.identity(4), atlas.zeta)
    zz = block_pair(atlas.zeta, atlas.zeta)
    check(centre_plus == {ident8, z1, z2, zz}, "cover.rotation-group-centre", len(centre_plus))
    powers = ((atlas.kappa1 * atlas.kappa3) ** 4, (atlas.kappa1.inverse() * atlas.kappa3) ** 4,
              atlas.kappa1 ** 4)
    word_ids = powers == (z1, z2, zz)
    check(word_ids, "cover.centre-words", powers)
    centre = t_full.centre().element_set
    check(centre == {ident8, zz}, "cover.centre", len(centre))

    hom = extend_homomorphism(t_full, {
        "tau0": atlas.rho0, "tau1": atlas.rho1,
        "tau2": atlas.rho2, "tau3": atlas.rho3})
    check(isinstance(hom, Homomorphism), "cover.reflections-extend-to-the-cube-group", hom)
    tetra = struct.subgroups[0]  # <tau1, tau2, tau3>
    distinct = len({hom(e) for e in tetra})
    injective = distinct == len(tetra)
    check(injective, "cover.quotient-criterion", (distinct, len(tetra)))
    kernel = frozenset(hom.kernel())
    check(kernel == {ident8, zz}, "cover.cube-kernel", kernel)

    hom_r = extend_homomorphism(t_plus, {
        "kappa1": atlas.sigma1, "kappa2": atlas.sigma2, "kappa3": atlas.sigma3})
    # _project_second_mirror negates the first coordinate of the second
    # block, so the left images are the barred sigmas conjugated by rho0
    hom_l = extend_homomorphism(t_plus, {
        "kappa1": atlas.sigma1_bar.conjugate(atlas.rho0),
        "kappa2": atlas.sigma2_bar.conjugate(atlas.rho0),
        "kappa3": atlas.sigma3_bar.conjugate(atlas.rho0)})
    # hom, hom_r and hom_l are onto by their coverings' `covering.onto` below
    bad = next((name for name, h in (("right", hom_r), ("left", hom_l))
                if not isinstance(h, Homomorphism)), None)
    check(bad is None, "cover.rotation-homs-onto-the-rotation-group", bad)
    kernel = frozenset(hom_r.kernel())
    check(kernel == {ident8, z2}, "cover.right-kernel", kernel)
    kernel = frozenset(hom_l.kernel())
    check(kernel == {ident8, z1}, "cover.left-kernel", kernel)

    roli = build_roli()
    bar = build_enantiomorph()

    # the right and cube coverings send the cover's base flag to the base's
    # own, the left one where the realization sends it
    fm_right, covering_right = verify_covering(struct, roli.structure, hom_r,
                                               roli.structure.base_flag)
    realized = _realized_face_map(realization, roli.realization, _project_first)
    bad = next((ref for ref in realized if fm_right[ref] != realized[ref]), None)
    check(bad is None, "cover.right-face-map-is-realized", bad)
    realized = _realized_face_map(realization, bar.realization, _project_second_mirror)
    anchor = [realized[ref][1] for ref in enumerate(struct.base_flag)]
    fm_left, covering_left = verify_covering(struct, bar.structure, hom_l, anchor)
    bad = next((ref for ref in realized if fm_left[ref] != realized[ref]), None)
    check(bad is None, "cover.left-face-map-is-realized", bad)
    check(all(report.uniform_fiber_size() == 2 and report.is_k_covering
              for report in (covering_right, covering_left)),
          "cover.two-to-one-three-coverings", (covering_right, covering_left))

    cube = build_cube()
    _, covering_cube = verify_covering(struct, cube.structure, hom, cube.structure.base_flag)
    check([c[0] for c in covering_cube.preimage_counts] == [2, 2, 1, 1],
          "cover.cube-fibers", covering_cube.preimage_counts)

    return CoverBundle(
        structure=struct, realization=realization, classification=result.kind, flag_count=result.flag_count,
        type_vector=type_vector, centre_plus=centre_plus,
        centre_word_identities=word_ids,
        injective_on_tetrahedral=injective,
        covering_right=covering_right, covering_left=covering_left,
        covering_cube=covering_cube,
    )


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
    # conjugation by each generator keeps sub, so conjugation by every
    # product of generators does, and in a finite group that is every element
    normal = all(frozenset(g.inverse() * h * g for h in sub) == sub.element_set
                 for g in rot.generator_list())
    return {
        "identities_hold": identities,
        "order": len(sub),
        "normal_in_map_rotation_group": normal,
    }


# ---------------------------------------------------------------------------
# point labels for the 8_3 configuration
# ---------------------------------------------------------------------------

CONFIGURATION_LINES = tuple(
    frozenset({i, (i + 1) % 8, (i + 3) % 8}) for i in range(8))


# point_of: label -> point, as a tuple indexed by label; label_of: its inverse
Labeling = namedtuple("Labeling", "point_of label_of")


def _parity(p: Point) -> int:
    return sum(1 for x in p if x < 0) % 2


@lru_cache(maxsize=None)
def point_labels() -> Labeling:
    """Assign labels 0..7 to the eight odd-sign vertices by constraint
    solving: lines are {i, i+1, i+3} mod 8 at the trivalent graph's
    degree-3 line vertices, the base octagon carries 1357 and its companion
    0246, the line 013 sits at (-1,-1,1,1), and label 1 is adjacent to the
    base vertex.  The constraints leave exactly one labeling."""
    atlas = build_atlas()
    bundle = build_map()
    adjacency = _adjacency(bundle.edges)

    odd = [p for p in adjacency if _parity(p) == 1]
    even = [p for p in adjacency if _parity(p) == 0]
    check(len(odd) == len(even) == 8, "labels.eight-of-each-parity", (len(odd), len(even)))

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
            if triples[nw] != frozenset({0, 1, 3}):
                continue
            if 1 not in triples[atlas.v]:
                continue
            solutions.append(label_of)

    check(len(solutions) == 1, "labels.constraints-pin-one-labeling", len(solutions))
    label_of = solutions[0]
    return Labeling(point_of=tuple(sorted(label_of, key=label_of.get)), label_of=label_of)


def octagon_label_sets() -> frozenset:
    """The alternate-vertex label sets of the map's six octagons."""
    labeling = point_labels()
    bundle = build_map()
    out = set()
    for oct_ in bundle.octagons:
        out.add(frozenset(labeling.label_of[p] for p in oct_.vertices
                          if _parity(p) == 1))
    return frozenset(out)
