"""The concrete objects: atlas identities, Petrie machinery, the trivalent
map, the chiral polytope, its mirror, and the cover in E^8."""

import contextlib
import io
import itertools
import math
import os
import random
import subprocess
import sys
from operator import itemgetter
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polytope_forge import cli, groupcore, mkconfig, polycore
from polytope_forge import cubefamily as cf
from polytope_forge.cubefamily import (
    _FACE_CONTAINS,
    CONFIGURATION_LINES,
    PetriePolygon,
    _det_int,
    _edges_share_facet,
    _face_image,
    _realize,
    gp83_graph,
    build_atlas,
    build_cover,
    build_cube,
    build_enantiomorph,
    build_map,
    build_roli,
    group_cover_rotation,
    group_cube,
    group_map_rotation,
    group_petrie_stabilizer,
    group_rotation,
    binary_tetrahedral_check,
    octagon_label_sets,
    petrie_polygons,
    petrie_polygons_brute_force,
    point_labels,
)
from polytope_forge.groupcore import (CheckFailed, ConcreteGroup, check, extend_homomorphism,
                                      intersection_condition, orbit, setwise_stabilizer,
                                      stabilizer, string_condition)
from polytope_forge.polycore import (Classification, CosetGeometry, RankedIncidenceStructure,
                                     face_permutation, isomorphisms)
from polytope_forge.signedperm import SignedPerm, block_pair
from test_checks import clear_build_caches
from test_polycore import _face_map_fault
from test_signedperm import matrix


@pytest.fixture(scope="module")
def atlas():
    return build_atlas()


# -- atlas -----------------------------------------------------------------------


def test_atlas_key_displays(atlas):
    assert atlas.mu0 == SignedPerm.parse("(-1,1,1,1)·(2,4)")
    assert atlas.mu1 == SignedPerm.parse("(1,1,1,1)·(1,4)(2,3)")
    assert atlas.sigma2_bar == SignedPerm.parse("(-1,-1,1,1)·(1,3,2)")
    assert atlas.kappa2 == SignedPerm.parse("(1,1,1,1,-1,-1,1,1)·(1,2,4)(5,7,6)")
    assert atlas.tau0 == SignedPerm.from_cycles(8, [(1, 5), (2, 6), (3, 7), (4, 8)])
    assert atlas.gamma2 == SignedPerm.parse("(-1,1,-1,1)·(1,2,3)")


def test_zeta_is_the_fourth_power_of_the_petrie_symmetry(atlas):
    assert (atlas.rho0 * atlas.rho1 * atlas.rho2 * atlas.rho3) ** 4 == atlas.zeta
    assert atlas.zeta.act((1, -1, 1, 1)) == (-1, 1, -1, -1)


def test_tau_generators_recover_block_rotations(atlas):
    assert atlas.tau0 * atlas.tau1 == atlas.kappa1
    assert atlas.tau1 * atlas.tau2 == atlas.kappa2
    assert atlas.tau2 * atlas.tau3 == atlas.kappa3


def test_tau0_conjugates_each_rotation_to_its_twin(atlas):
    for kap, s, sb in ((atlas.kappa1, atlas.sigma1, atlas.sigma1_bar),
                       (atlas.kappa2, atlas.sigma2, atlas.sigma2_bar),
                       (atlas.kappa3, atlas.sigma3, atlas.sigma3_bar)):
        assert kap.conjugate(atlas.tau0) == block_pair(sb, s)


# -- Petrie polygons ---------------------------------------------------------------


def test_base_octagon_cycle(atlas):
    seq = [atlas.v]
    for _ in range(7):
        seq.append(atlas.pi.act(seq[-1]))
    assert seq[1:5] == [(1, 1, 1, -1), (1, 1, -1, -1), (1, -1, -1, -1),
                        (-1, -1, -1, -1)]
    assert PetriePolygon(tuple(seq)) == atlas.base_octagon


def test_brute_force_enumeration_equals_orbit():
    orbit = petrie_polygons()
    brute = petrie_polygons_brute_force()
    assert len(orbit) == 24
    assert tuple(p.vertices for p in orbit) == tuple(p.vertices for p in brute)


def _brute_force_from_every_start():
    """The earlier search: every cycle traced from each of its vertices, in
    both directions."""
    found = set()

    def step(p, axis):
        return p[:axis - 1] + (-p[axis - 1],) + p[axis:]

    def extend(path, dirs):
        for axis in range(1, 5):
            if dirs and axis == dirs[-1]:
                continue
            if len(dirs) >= 3 and axis in dirs[-3:]:
                continue
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

    for start in itertools.product((1, -1), repeat=4):
        extend([start], [])
    return tuple(sorted(found))


def test_brute_force_traces_each_polygon_once(monkeypatch):
    oracle = _brute_force_from_every_start()
    built = []
    init = PetriePolygon.__init__
    monkeypatch.setattr(PetriePolygon, "__init__",
                        lambda p, vertices: built.append(vertices) or init(p, vertices))
    assert petrie_polygons_brute_force.__wrapped__() == oracle
    assert len(built) == len(oracle) == 24


def test_petrie_orbit_makes_at_most_96_images(monkeypatch):
    expected = petrie_polygons()
    calls = []
    real = cf.orbit
    monkeypatch.setattr(cf, "orbit", lambda group, point, action: real(
        group, point, lambda p, g: calls.append(g) or action(p, g)))
    assert petrie_polygons.__wrapped__() == expected
    assert len(calls) <= 96


def test_transformed_equals_the_validated_polygon(atlas):
    """transformed skips the validation that __init__ runs: its images
    under the cube group's generators and rho0 are the validated polygons
    of the same points."""
    gens = group_cube().generator_list() + [atlas.rho0]
    for p in petrie_polygons():
        for g in gens:
            image = p.transformed(g)
            assert image == PetriePolygon(tuple(map(g.act, p.vertices)))
            assert image.vertices == PetriePolygon(image.vertices).vertices
    with pytest.raises(ValueError, match="degree 4, not 8"):
        atlas.base_octagon.transformed(atlas.tau0)


def _walk(start, directions):
    """The points of the edge walk from start along these axes."""
    points = [start]
    for d in directions:
        p = points[-1]
        points.append(p[:d - 1] + (-p[d - 1],) + p[d:])
    return points


def test_petrie_polygon_rejections(atlas):
    octagon = atlas.base_octagon.vertices
    rejected = {
        # the Gray-code cycle of the facet x4 = +1
        "four consecutive edges share a facet": _walk(atlas.v, [1, 2, 1, 3, 1, 2, 1, 3])[:-1],
        "repeated vertex": (atlas.v, atlas.v_bar, atlas.v, atlas.v_bar),
        "are not adjacent": (octagon[0], octagon[2], octagon[1]) + octagon[3:],
    }
    for message, vertices in rejected.items():
        with pytest.raises(ValueError, match=message):
            PetriePolygon(tuple(vertices))


def _point_window_share_facet(points, directions):
    """The facet test on point windows that the direction test replaced."""
    return any(axis not in directions and len({p[axis - 1] for p in points}) == 1
               for axis in range(1, len(points[0]) + 1))


def test_facet_test_on_directions_matches_point_windows():
    walks = 0
    for start in itertools.product((1, -1), repeat=4):
        for steps in (3, 4):
            for dirs in itertools.product(range(1, 5), repeat=steps):
                assert _edges_share_facet(dirs) == _point_window_share_facet(
                    _walk(start, dirs), dirs)
                walks += 1
    assert walks == 5120


def _laplace_det(rows):
    """Recursive Laplace expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j] * _laplace_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)))


# the 24 permutations of four columns, each with its sign
_SIGNED_PERMUTATIONS = tuple(
    ((-1) ** sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)), p)
    for p in itertools.permutations(range(4)))


def _leibniz_det(rows):
    """Determinant of a 4×4 matrix as a Leibniz sum over the 24 permutations."""
    r0, r1, r2, r3 = rows
    return sum(sign * r0[a] * r1[b] * r2[c] * r3[d]
               for sign, (a, b, c, d) in _SIGNED_PERMUTATIONS)


def test_det_matches_laplace_on_polygon_windows():
    for p in petrie_polygons():
        verts = p.vertices
        for k in range(8):
            window = [verts[(k + t) % 8] for t in range(4)]
            assert _det_int(window) == _laplace_det(window)


@given(st.lists(st.lists(st.integers(-50, 50), min_size=4, max_size=4),
                min_size=4, max_size=4))
def test_det_matches_laplace_on_integer_matrices(rows):
    assert _det_int(rows) == _laplace_det(rows)


def test_det_matches_leibniz_on_polygon_windows():
    for p in petrie_polygons():
        verts = p.vertices
        for k in range(8):
            window = [verts[(k + t) % 8] for t in range(4)]
            assert _det_int(window) == _leibniz_det(window)


@given(st.lists(st.lists(st.integers(-50, 50), min_size=4, max_size=4),
                min_size=4, max_size=4))
def test_det_matches_leibniz_on_integer_matrices(rows):
    assert _det_int(rows) == _leibniz_det(rows)


def test_chiral_class_split_and_determinants():
    polys = petrie_polygons()
    split = {"R": 0, "L": 0}
    for p in polys:
        split[p.chiral_class] += 1
        assert p.det4() == {"R": 8, "L": -8}[p.chiral_class]
    assert split == {"R": 12, "L": 12}


def test_reflection_swaps_chiral_classes(atlas):
    assert atlas.base_octagon.chiral_class == "R"
    assert atlas.base_octagon.transformed(atlas.rho0).chiral_class == "L"


def test_octagram_class_via_rotation(atlas):
    # mu2 is a rotation carrying the octagon to the octagram, so both share
    # one class; the determinant check must agree
    assert atlas.mu2.determinant() == 1
    assert atlas.base_octagon.transformed(atlas.mu2) == atlas.base_octagram
    assert atlas.base_octagram.chiral_class == "R"


def companion(p: PetriePolygon) -> PetriePolygon:
    """The unique polygon of the same chiral class on the complementary
    eight vertices."""
    matches = [q for q in petrie_polygons()
               if q.chiral_class == p.chiral_class
               and q.vertex_set().isdisjoint(p.vertex_set())]
    check(len(matches) == 1, "petrie.companion-unique", len(matches))
    return matches[0]


def test_companion_pairing(atlas):
    assert companion(atlas.base_octagon) == atlas.base_octagram
    for p in petrie_polygons():
        assert companion(companion(p)) == p


def test_companion_commutes_with_rotations(atlas):
    polys = petrie_polygons()
    rot = group_rotation()
    class_r = [p for p in polys if p.chiral_class == "R"]
    for p in class_r:
        for g in rot.generator_list():
            assert companion(p).transformed(g) == companion(p.transformed(g))


def test_every_polygon_has_stabilizer_sixteen():
    full = group_cube()
    rot = group_rotation()
    for p in petrie_polygons():
        assert len(setwise_stabilizer(full, p.vertex_set())) == 16
        assert len(setwise_stabilizer(rot, p.vertex_set())) == 16


def test_petrie_stabilizer_against_setwise_stabilizer(atlas):
    # the build closes <mu0, mu1> and counts it by orbit-stabilizer; the
    # scan of all 384 symmetries is the oracle
    scan = setwise_stabilizer(group_cube(), atlas.base_octagon.vertex_set())
    assert group_petrie_stabilizer().element_set == scan.element_set
    assert list(group_petrie_stabilizer().generators) == ["mu0", "mu1"]


def test_stabilizer_check_names_a_moving_generator_or_a_short_subgroup(atlas):
    rot = group_rotation()
    vertex = lambda p, g: g.act(p)
    assert cf._stabilizer_fault(rot, rot.subgroup([atlas.sigma2, atlas.sigma3]), atlas.v,
                                vertex) is None
    # sigma2 fixes v, but <sigma2> is a quarter of v's stabilizer
    assert cf._stabilizer_fault(rot, rot.subgroup([atlas.sigma2]), atlas.v, vertex) \
        == (None, 3, 16)
    # another vertex's stabilizer has the right order, but moves v
    moving = [g.conjugate(atlas.sigma1) for g in (atlas.sigma2, atlas.sigma3)]
    assert cf._stabilizer_fault(rot, rot.subgroup(moving), atlas.v, vertex) \
        == (moving[0], 12, 16)


def test_petrie_stabilizer_rotations_are_its_determinant_one_part(atlas):
    # the petrie.stabilizer-orders claim filters the full stabilizer by determinant
    rotations = {g for g in group_petrie_stabilizer() if g.determinant() == 1}
    octagon = atlas.base_octagon.vertex_set()
    assert rotations == setwise_stabilizer(group_rotation(), octagon).element_set
    assert len(rotations) == 16


def test_colour_sequences_through_base_vertex_split_by_parity(atlas):
    def parity(seq):
        window = seq[:4]
        assert sorted(window) == [1, 2, 3, 4]
        inversions = sum(1 for i in range(4) for j in range(i + 1, 4)
                         if window[i] > window[j])
        return inversions % 2

    v = atlas.v
    parities = {"R": set(), "L": set()}
    for p in petrie_polygons():
        if v not in p.vertices:
            continue
        idx = p.vertices.index(v)
        seq = p.colors[idx:] + p.colors[:idx]
        parities[p.chiral_class].add(parity(seq))
        rev = tuple(reversed(p.colors[:idx] + p.colors[idx:]))
        parities[p.chiral_class].add(parity(rev))
    # one class runs through even orderings, the other through odd ones
    assert parities["R"] and parities["L"]
    assert parities["R"].isdisjoint(parities["L"])


def test_petrie_symmetry_rotates_invariant_planes_by_45_and_135_degrees(atlas):
    mat = matrix(atlas.pi)

    def dot(x, y):
        return sum(a * b for a, b in zip(x, y))

    s = 1 / math.sqrt(2)
    planes = [
        ([s, 0.5, 0.0, -0.5], [0.0, 0.5, s, 0.5]),
        ([s, -0.5, 0.0, 0.5], [0.0, 0.5, -s, 0.5]),
    ]
    angles = []
    for e1, e2 in planes:
        img = [dot(e1, column) for column in zip(*mat)]  # row vector times matrix
        # the basis is orthonormal; the plane is invariant
        assert abs(dot(e1, e2)) < 1e-12
        resid = [x - dot(img, e1) * a - dot(img, e2) * b
                 for x, a, b in zip(img, e1, e2)]
        assert math.sqrt(dot(resid, resid)) < 1e-9
        angles.append(math.degrees(math.acos(max(-1.0, min(1.0, dot(img, e1))))))
    assert abs(angles[0] - 45.0) < 1e-9
    assert abs(angles[1] - 135.0) < 1e-9


def test_cube_shares_the_face_model():
    bundle = build_cube()
    struct = bundle.structure
    assert {bundle.realization[ref] for ref in struct.refs(0)} == set(
        itertools.product((1, -1), repeat=4))
    squares = [bundle.realization[ref] for ref in struct.refs(2)]
    assert all(len(sq) == 4 and all(sum(x != y for x, y in zip(sq[k - 1], sq[k])) == 1
                                    for k in range(4)) for sq in squares)
    assert len({frozenset(sq) for sq in squares}) == 24
    facets = [bundle.realization[ref] for ref in struct.refs(3)]
    assert all(len(m) == 12 and len({p for e in m for p in e}) == 8 for m in facets)


def _containment_mismatches(struct, realization):
    """The pairs of faces of different ranks whose incidence differs from the
    containment of their realized faces, by scanning every pair."""
    return [(ra, rb) for r1 in range(struct.rank) for r2 in range(r1 + 1, struct.rank)
            for ra in struct.refs(r1) for rb in struct.refs(r2)
            if _FACE_CONTAINS[(r1, r2)](realization[ra], realization[rb])
            != struct.incident(ra, rb)]


def _map_realization(atlas):
    return _realize(build_map().structure, atlas.v)


@pytest.mark.parametrize("build", [build_cube, build_map, build_roli, build_enantiomorph,
                                   build_cover])
def test_realized_containment_is_incidence_on_every_pair(build, atlas):
    # _realize compares one base face per lower rank; the whole scan agrees
    bundle = build()
    realization = _map_realization(atlas) if build is build_map else bundle.realization
    assert _containment_mismatches(bundle.structure, realization) == []


# -- point tables, against the act-based oracles ----------------------------------------


def _edge_image_by_act(edge, g):
    """The edge action of `orbit` as it was before point tables."""
    return _face_image(1, edge, g.act)


def _faces_by_act(struct, base_faces) -> dict:
    """The first two checks of `_realize` and its faces, as they were before
    point tables: each face is its base face moved by the least member of
    its coset with `SignedPerm.act`."""
    moved = next(((r, s) for r, face in enumerate(base_faces)
                  for s in struct.subgroups[r].generator_list()
                  if _face_image(r, face, s.act) != face), None)
    check(moved is None, "realization.base-faces-stabilized", moved)
    realization = {ref: _face_image(ref[0], base_faces[ref[0]], struct.key(ref).act)
                   for ref in struct.all_refs()}
    distinct = len({(ref[0], face) for ref, face in realization.items()})
    check(distinct == len(realization), "realization.faithful", (distinct, len(realization)))
    return realization


def _realize_by_act(struct, base_faces) -> dict:
    """`_realize` as it was before point tables: the oracle of the table walk."""
    realization = _faces_by_act(struct, base_faces)
    mismatch = next(((ra, rb) for r1 in range(struct.rank) for r2 in range(r1 + 1, struct.rank)
                     for ra in [(r1, struct.canon[r1][0])] for rb in struct.refs(r2)
                     if _FACE_CONTAINS[(r1, r2)](realization[ra], realization[rb])
                     != struct.incident(ra, rb)), None)
    check(mismatch is None, "realization.incidence-is-containment", mismatch)
    return realization


def _cycle_by_act(point, g) -> tuple:
    """The canonical cycle of the points p, p·g, p·g², … up to the first
    return to p."""
    points = [point]
    while g.act(points[-1]) != point:
        points.append(g.act(points[-1]))
    return cf._canonical_cycle(tuple(points))


def _base_faces_by_act(build) -> list:
    """The base faces each build handed `_realize` before they were made
    from the base vertex by Wythoff's rule, made by act-based orbits:
    the oracle of Wythoff's faces."""
    atlas = build_atlas()
    base_edge = tuple(sorted((atlas.v, atlas.v_bar)))
    map_edges = tuple(sorted(orbit(group_map_rotation(), base_edge, _edge_image_by_act)))
    if build is build_cube:
        square = _cycle_by_act(atlas.v, atlas.rho0 * atlas.rho1)
        facet = orbit(build_cube().structure.subgroups[3], base_edge, _edge_image_by_act)
        return [atlas.v, base_edge, square, tuple(sorted(facet))]
    if build is build_map:
        return [atlas.v, base_edge, atlas.base_octagon.vertices]
    if build is build_roli:
        return [atlas.v, base_edge, atlas.base_octagon.vertices, map_edges]
    if build is build_enantiomorph:
        return [atlas.v_bar, base_edge, atlas.base_octagon.transformed(atlas.rho0).vertices,
                _face_image(3, map_edges, atlas.rho0.act)]
    bv = atlas.v + atlas.v_bar
    edge = tuple(sorted((bv, atlas.tau0.act(bv))))
    facet = orbit(build_cover().structure.subgroups[3], edge, _edge_image_by_act)
    return [bv, edge, _cycle_by_act(bv, atlas.kappa1), tuple(sorted(facet))]


_REALIZED_BUILDS = [build_cube, build_map, build_roli, build_enantiomorph, build_cover]


@pytest.mark.parametrize("build", _REALIZED_BUILDS)
def test_realization_equals_the_act_based_oracle(build):
    # Wythoff's faces from the base vertex are the faces of the old recipes
    struct = build().structure
    faces = _base_faces_by_act(build)
    oracle = _realize_by_act(struct, faces)
    realization = _realize(struct, faces[0])
    assert realization == oracle
    assert list(realization) == list(oracle)  # the same order of faces too
    if build is not build_map:
        assert build().realization == realization


def test_table_orbits_equal_the_act_based_orbits(atlas):
    base_edge = tuple(sorted((atlas.v, atlas.v_bar)))
    rot, full = group_map_rotation(), group_cube()
    bundle = build_map()
    assert bundle.edges == frozenset(orbit(rot, base_edge, _edge_image_by_act))
    assert bundle.octagons == tuple(sorted(
        orbit(rot, atlas.base_octagon, PetriePolygon.transformed)))
    assert petrie_polygons() == tuple(sorted(
        orbit(full, atlas.base_octagon, PetriePolygon.transformed)))
    assert {tuple(sorted(e)) for e in build_cube().skeleton.edge_colors} \
        == set(orbit(full, base_edge, _edge_image_by_act))
    # the edge stabilizer, by a scan of all 384 symmetries
    assert bundle.edge_stabilizer_in_full_group == frozenset(
        g for g in full if {_edge_image_by_act(e, g) for e in bundle.edges} == bundle.edges)


@pytest.mark.parametrize("group, seed", [
    (group_cube, lambda a: a.v), (group_map_rotation, lambda a: a.v),
    (cf.group_rotation_sigma, lambda a: a.v_bar), (cf.group_cover, lambda a: a.v + a.v_bar)],
    ids=["cube", "map", "rotation-at-v-bar", "cover"])
def test_point_table_moves_every_point_as_act_does(group, seed, atlas):
    group, seed = group(), seed(atlas)
    table = cf._point_table(group, seed)
    assert list(table.points) == sorted(orbit(group, seed))
    assert all(table.index[p] == i for i, p in enumerate(table.points))
    for g in group:
        assert table.move(g) == [table.index[g.act(p)] for p in table.points]


def test_point_table_counts_one_act_per_point_and_generator(monkeypatch, atlas):
    calls = []
    act = SignedPerm.act
    monkeypatch.setattr(SignedPerm, "act", lambda g, p: calls.append(g) or act(g, p))
    table = cf.PointTable(group_cube(), atlas.v)
    assert len(calls) == 16 * 4
    assert table.move(atlas.mu0) and len(calls) == 64  # composed along a word, no act


_COUNT_ACT = """
from polytope_forge import cubefamily, signedperm
calls = 0
act = signedperm.SignedPerm.act
def counted(g, p):
    global calls
    calls += 1
    return act(g, p)
signedperm.SignedPerm.act = counted
cubefamily.build_cover()
print(calls)
"""


def test_build_cover_moves_points_on_tables_not_by_act():
    """build_cover builds the cube, Roli's cube and the enantiomorph too,
    but not the map.  Their point tables take one act per point and
    generator, 240 in all (16 points for 4 and 3 generators, and 32 for
    the cover's 4; the enantiomorph's seed v_bar is in the orbit that
    Roli's table numbers, so it shares that table), and the atlas 49 more.
    Wythoff's rule makes the base faces on the tables, with no act.  One
    realization or orbit moved point by point with act would add hundreds."""
    src = str(Path(cf.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", _COUNT_ACT], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) == 289


def test_a_seed_in_a_numbered_orbit_shares_its_table(atlas):
    # a fresh copy of the rotation group, so no build shares these tables
    group = ConcreteGroup.generate(cf.group_rotation_sigma().generators)
    table = cf._point_table(group, atlas.v)
    assert cf._point_table(group, atlas.v_bar) is table
    assert cf._point_table(group, table.points[-1]) is table
    # another orbit of the same group is numbered on its own
    other = cf._point_table(group, (2, 0, 0, 0))
    assert other.points == tuple(sorted(orbit(group, (2, 0, 0, 0))))
    assert cf._point_tables(group) == [table, other]


def _verdict(struct, vertex) -> str:
    try:
        _realize(struct, vertex)
    except CheckFailed as exc:
        return exc.name
    return "pass"


def _cycle_by_networkx(edges):
    """The canonical cycle that edges close, found by networkx, or None
    when they are not the edges of one cycle."""
    if len(edges) < 3 or any(len(e) != 2 for e in edges):
        return None
    graph = nx.Graph(list(edges))
    if not nx.is_connected(graph) or any(d != 2 for _, d in graph.degree):
        return None
    return cf._canonical_cycle(tuple(u for u, _ in nx.find_cycle(graph)))


def _wythoff_faces_by_act(struct, vertex) -> list:
    """Wythoff's base faces from the vertex, made by act-based orbits, the
    2-face by networkx (None when the edges close no cycle)."""
    subs = struct.subgroups
    faces = [vertex, tuple(sorted(orbit(subs[1], vertex)))]
    for r in range(2, struct.rank):
        edges = orbit(subs[r], faces[1], _edge_image_by_act)
        faces.append(_cycle_by_networkx(edges) if r == 2 else tuple(sorted(edges)))
    return faces


def _full_scan_verdict(struct, vertex) -> str:
    """The verdict on the act-based Wythoff faces, with every base face
    checked to be fixed by its subgroup and every pair of faces compared."""
    faces = _wythoff_faces_by_act(struct, vertex)
    if any(s.act(vertex) != vertex for s in struct.subgroups[0].generator_list()):
        return "realization.base-faces-stabilized"
    if None in faces:
        return "realization.two-face-edges-close-a-cycle"
    try:
        realization = _faces_by_act(struct, faces)
    except CheckFailed as exc:
        return exc.name
    if _containment_mismatches(struct, realization):
        return "realization.incidence-is-containment"
    return "pass"


def _random_subgroup(rng, group, subs, rank: int):
    """A wrong subgroup for the rank: a random conjugate of its own,
    another rank's, or the closure of one or two random elements."""
    kind = rng.randrange(3)
    if kind == 0:
        h = rng.choice(group.elements)
        return group.subgroup([g.conjugate(h) for g in subs[rank].generator_list()])
    if kind == 1:
        return subs[rng.choice([r for r in range(len(subs)) if r != rank])]
    return group.subgroup(rng.sample(group.elements, rng.randint(1, 2)))


def _random_vertex(rng, points):
    """The first point (the base vertex) half the time, else another point
    of its orbit, or a point off it: a multiple of a point, or one with a
    coordinate zeroed."""
    point = rng.choice(points)
    kind = rng.randrange(6)
    if kind < 3:
        return points[0]
    if kind == 3:
        return point
    if kind == 4:
        return tuple(rng.choice((2, -1)) * x for x in point)
    k = rng.randrange(len(point))
    return point[:k] + (0,) + point[k + 1:]


@pytest.mark.parametrize("build", _REALIZED_BUILDS)
def test_realize_on_seeded_random_base_faces_agrees_with_the_full_scan(build):
    """Wythoff's base faces from seeded random vertices, on the base
    vertex's orbit and off it, and random subgroup lists, some of whose
    ranks take a wrong subgroup.  `_realize`, which checks only the vertex
    to be fixed and compares one row of faces, must give the verdict of
    the act-based faces with every face checked to be fixed and every pair
    compared, and the same faces when it passes."""
    rng = random.Random(37)
    true = build().structure
    # a fresh copy of the group, so the points off the orbit number tables
    # that no build shares
    group = ConcreteGroup.generate(true.group.generators)
    vertex = _base_faces_by_act(build)[0]
    points = [vertex] + sorted(set(orbit(group, vertex)) - {vertex})
    verdicts = []
    for _ in range(60):
        subs = list(true.subgroups)
        for r in range(1, true.rank):
            if rng.random() < 0.25:
                subs[r] = _random_subgroup(rng, group, true.subgroups, r)
        struct = CosetGeometry(group, subs)
        v = _random_vertex(rng, points)
        verdict = _verdict(struct, v)
        assert verdict == _full_scan_verdict(struct, v), (v, [len(sub) for sub in subs])
        if verdict == "pass":
            assert _realize(struct, v) == _faces_by_act(struct, _wythoff_faces_by_act(struct, v))
        verdicts.append(verdict)
    assert "pass" in verdicts and len(set(verdicts)) >= 3, sorted(set(verdicts))


def test_realize_ends_the_walk_of_a_two_face_orbit_that_closes_no_cycle(atlas):
    """The cube with its vertex subgroup for the 2-face subgroup: the base
    edge's orbit is the star of the four edges at v, whose far ends have
    no way on.  The walk ends after one step per edge and names its check."""
    subs = build_cube().structure.subgroups
    struct = CosetGeometry(group_cube(), [subs[0], subs[1], subs[0], subs[3]])
    with pytest.raises(CheckFailed) as exc:
        _realize(struct, atlas.v)
    assert exc.value.name == "realization.two-face-edges-close-a-cycle"
    assert len(exc.value.witness) == 4


def test_closed_cycle_walks_at_most_one_step_per_edge():
    star = [(0, 1), (0, 2), (0, 3)]
    path = [(0, 1), (1, 2), (2, 3)]
    two_squares = [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7)]
    for edges in (star, path, two_squares, [(0, 1)], [(0, 1, 2)]):
        with pytest.raises(CheckFailed, match=r"^realization\.two-face-edges-close-a-cycle"):
            cf._closed_cycle(edges)
    assert cf._closed_cycle([(2, 3), (0, 1), (1, 2), (0, 3)]) == (0, 1, 2, 3)


def test_realize_at_the_antipodal_vertex_gives_the_zeta_image(atlas):
    # -v is fixed by the vertex subgroup, and zeta = -I is central, so
    # Wythoff's faces from -v are Roli's moved by zeta
    roli = build_roli()
    antipodal = _realize(roli.structure, atlas.zeta.act(atlas.v))
    assert antipodal == {ref: _face_image(ref[0], face, atlas.zeta.act)
                         for ref, face in roli.realization.items()}


# -- the trivalent map --------------------------------------------------------------


def _hand_built_map(bundle):
    """The map as points, edges and octagons, incident when one contains the
    other, built by hand from the bundle's edges and octagons."""
    points = sorted(itertools.product((1, -1), repeat=4))
    oct_keys = sorted(o.vertices for o in bundle.octagons)
    pairs = [((0, p), (1, e)) for e in bundle.edges for p in e]
    for okey in oct_keys:
        pairs += [((0, p), (2, okey)) for p in okey]
        pairs += [((1, e), (2, okey)) for e in PetriePolygon(okey).edge_set()]
    struct = RankedIncidenceStructure(3, [points, sorted(bundle.edges), oct_keys], pairs)
    struct.validate_polytope()
    return struct


def test_map_cosets_are_the_hand_built_map(atlas):
    bundle = build_map()
    hand = _hand_built_map(bundle)
    assert bundle.structure.isomorphic_to(hand)
    # the realization itself is an isomorphism onto it
    realization = _map_realization(atlas)
    face_map = {ref: (ref[0], hand.faces_by_rank[ref[0]].index(face))
                for ref, face in realization.items()}
    assert _face_map_fault(bundle.structure, face_map, bundle.structure.all_refs(),
                           hand, hand.all_refs()) is None


def test_map_edge_stabilizer_against_setwise_stabilizer():
    bundle = build_map()
    stab = setwise_stabilizer(group_cube(), bundle.edges,
                              lambda e, g: tuple(sorted(g.act(p) for p in e)))
    assert bundle.edge_stabilizer_in_full_group == stab.element_set


def test_map_battery(atlas):
    bundle = build_map()
    assert bundle.structure.f_vector == (16, 24, 6)
    assert len(bundle.edges) == 24
    assert len(bundle.octagons) == 6
    assert atlas.base_octagon in bundle.octagons
    assert atlas.base_octagram in bundle.octagons
    for e in bundle.edges:
        assert sum(1 for o in bundle.octagons if e in o.edge_set()) == 2


def test_map_octagon_alternate_labels():
    expected = {frozenset(s) for s in ((0, 2, 4, 6), (1, 3, 5, 7), (0, 5, 4, 1),
                                       (1, 2, 5, 6), (2, 3, 6, 7), (0, 7, 4, 3))}
    assert octagon_label_sets() == expected


def test_levi_graph_is_generalized_petersen_with_96_automorphisms():
    bundle = build_map()
    levi = nx.Graph(list(bundle.edges))
    assert nx.vf2pp_is_isomorphic(levi, nx.Graph(gp83_graph()))
    assert bundle.levi_automorphism_count == 96


def test_map_is_abstractly_regular_but_geometrically_chiral():
    bundle = build_map()
    assert bundle.rotation_classification is Classification.CHIRAL
    assert bundle.certificate()["full_classification"] == "regular"
    assert len(bundle.full_group) == 96
    assert bundle.regularity_hom.is_involutory()
    assert not bundle.mu0_preserves_edges
    assert bundle.edge_stabilizer_in_full_group == group_map_rotation().element_set


def test_geometric_chirality_report(atlas):
    # only rotations keep the edge set, and mu0 moves the deleted matching
    bundle = build_map()
    stab = bundle.edge_stabilizer_in_full_group
    non_rotations = [g for g in group_cube() if g.determinant() == -1]
    assert len(stab) == 48
    assert stab == group_map_rotation().element_set
    assert group_cube().identity in stab
    assert len(non_rotations) == 192
    assert not any(g in stab for g in non_rotations)
    assert not bundle.mu0_preserves_edges
    deleted = _deleted_edges(bundle)
    assert {_face_image(1, e, atlas.mu0.act) for e in deleted} != deleted


def test_map_involutions_generate_every_automorphism():
    # the build searches only for t0, t1, t2; every automorphism of the
    # map's incidence graph is the oracle
    bundle = build_map()
    struct = bundle.structure
    every = {face_permutation(struct, m) for m in
             isomorphisms(struct._inc, struct._inc, itemgetter(0), itemgetter(0))}
    assert bundle.full_group.element_set == every
    assert list(bundle.full_group.generators) == ["t0", "t1", "t2"]
    assert all(t.inverse() == t for t in bundle.full_group.generator_list())


def test_build_map_lists_no_levi_automorphisms(monkeypatch):
    # the 96 are counted by orbit-stabilizer; the build takes one mapping
    # from the GP(8,3) search and one per flag adjacent to the base flag
    yielded = []

    def counted(*args):
        for mapping in isomorphisms(*args):
            yielded.append(mapping)
            yield mapping

    monkeypatch.setattr(cf, "isomorphisms", counted)
    bundle = cf.build_map.__wrapped__()  # uncached
    assert bundle.levi_automorphism_count == 96
    assert len(yielded) <= 4


def test_build_map_runs_no_flag_search_to_exhaustion(monkeypatch):
    # automorphisms act freely on flags, so the build stops at the first hit
    exhausted = []

    def first_hits(*args):
        yield from isomorphisms(*args)
        exhausted.append(args[2:])  # reached only when a search runs out

    monkeypatch.setattr(cf, "isomorphisms", first_hits)
    bundle = cf.build_map.__wrapped__()  # uncached
    assert len(bundle.full_group) == 96
    assert exhausted == []


def test_no_build_validates_or_calls_coset_geometry(monkeypatch):
    # every build trusts a checked theorem: validate_polytope and
    # coset_geometry stay as the tests' oracles
    calls = []
    validate = RankedIncidenceStructure.validate_polytope
    monkeypatch.setattr(RankedIncidenceStructure, "validate_polytope",
                        lambda self: calls.append("validate_polytope") or validate(self))
    for module in (polycore, cf):
        if hasattr(module, "coset_geometry"):
            real = module.coset_geometry
            monkeypatch.setattr(module, "coset_geometry", lambda *args, real=real: (
                calls.append("coset_geometry") or real(*args)))
    clear_build_caches()
    try:
        for build in (cf.build_cube, cf.build_hemi, cf.build_map, cf.build_roli,
                      cf.build_enantiomorph, cf.build_cover):
            build()
    finally:
        clear_build_caches()
    assert calls == []


def _deleted_edges(bundle) -> set:
    """The cube's edges that the map leaves out, as sorted vertex pairs."""
    return {tuple(sorted(e)) for e in build_cube().skeleton.edge_colors} - bundle.edges


def test_deleted_edges_form_a_perfect_matching(atlas):
    deleted = _deleted_edges(build_map())
    assert len(deleted) == 8
    covered = [p for e in deleted for p in e]
    assert len(covered) == len(set(covered)) == 16
    moved = {tuple(sorted(atlas.mu0.act(p) for p in e)) for e in deleted}
    assert moved != deleted


def test_label_solve_is_unique_and_pins_the_lines(atlas, monkeypatch):
    # the solve passes its check that exactly one labeling meets the constraints
    seen = {}
    real = cf.check

    def recording(ok, name, witness=None):
        seen[name] = (bool(ok), witness)
        real(ok, name, witness)

    monkeypatch.setattr(cf, "check", recording)
    point_labels.cache_clear()
    try:
        lab = point_labels()
        assert seen["labels.constraints-pin-one-labeling"] == (True, 1)
        # no labeling puts the lines {i, i+1, i+2} at the line vertices
        monkeypatch.setattr(cf, "CONFIGURATION_LINES", tuple(
            frozenset({i, (i + 1) % 8, (i + 2) % 8}) for i in range(8)))
        point_labels.cache_clear()
        with pytest.raises(groupcore.CheckFailed,
                           match=r"^labels\.constraints-pin-one-labeling: 0$"):
            point_labels()
    finally:
        point_labels.cache_clear()
    # every line vertex of the trivalent graph sees one of the eight triples
    bundle = build_map()
    adjacency = {}
    for a, b in bundle.edges:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    even = [p for p in adjacency if sum(1 for x in p if x < 0) % 2 == 0]
    triples = {frozenset(lab.label_of[q] for q in adjacency[u]) for u in even}
    assert triples == set(CONFIGURATION_LINES)
    # the north-west line vertex carries the triple 013
    assert frozenset(lab.label_of[q] for q in adjacency[(-1, -1, 1, 1)]) \
        == frozenset({0, 1, 3})
    # label 1 sits next to the base vertex
    assert 1 in {lab.label_of[q] for q in adjacency[atlas.v]}


# -- the chiral polytope -------------------------------------------------------------


def test_roli_battery(atlas):
    bundle = build_roli()
    assert bundle.stabilizer_orders == (12, 6, 16, 48)
    assert bundle.structure.f_vector == (16, 32, 12, 4)
    assert bundle.type_vector == (8, 3, 3)
    assert bundle.classification is Classification.CHIRAL
    assert bundle.flag_count == 384  # two orbits of |rotation group| flags
    assert bundle.witness_holds


def test_roli_two_faces_are_the_right_handed_polygons():
    bundle = build_roli()
    struct = bundle.structure
    polys = {p.vertices: p for p in petrie_polygons()}
    for ref in struct.refs(2):
        assert polys[bundle.realization[ref]].chiral_class == "R"


def test_roli_base_facet_is_the_map():
    bundle = build_roli()
    base_facet = bundle.realization[3, bundle.structure.base_flag[3]]
    assert base_facet == tuple(sorted(build_map().edges))


_BUILT_MAPS = """
from polytope_forge import cubefamily as cf
cf.build_roli(), cf.build_enantiomorph(), cf.build_cover()
print(cf.build_map.cache_info().currsize)
"""


def test_roli_enantiomorph_and_cover_build_no_map():
    src = str(Path(cf.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", _BUILT_MAPS], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "0\n"


def test_roli_facets_share_all_vertices():
    struct = build_roli().structure
    for facet in struct.refs(3):
        assert len(struct.incident_at_rank(facet, 0)) == 16


def test_each_polygon_lies_on_two_map_copies():
    struct = build_roli().structure
    for ref in struct.refs(2):
        assert len(struct.incident_at_rank(ref, 3)) == 2


def test_roli_vertex_sections_are_tetrahedra():
    struct = build_roli().structure
    v = struct.refs(0)[0]
    section = struct.between(v, None)
    counts = [sum(1 for ref in section if ref[0] == r) for r in (1, 2, 3)]
    assert counts == [4, 6, 4]


# -- the mirror twin -----------------------------------------------------------------


def test_enantiomorph_battery(atlas):
    bundle = build_enantiomorph()
    assert bundle.structure.f_vector == (16, 32, 12, 4)
    assert bundle.stabilizer_orders == (12, 6, 16, 48)
    assert bundle.two_faces_class == "L"
    assert bundle.certificate()["poset_isomorphic_to_roli"] is True
    barred = ConcreteGroup.generate([atlas.sigma1_bar, atlas.sigma2_bar, atlas.sigma3_bar])
    assert barred.element_set == group_rotation().element_set


def _enantiomorph_by_stabilizers():
    """The enantiomorph as it was built before it was Roli's cube conjugated
    by rho0: the vertex and edge subgroups from the barred words, each shown
    to be its face's stabilizer by orbit-stabilizer, the octagon and facet
    subgroups as rho0-conjugates, and mirroring by rho0 shown to be a poset
    isomorphism from Roli's cube, face by face."""
    atlas, rot, roli = build_atlas(), cf.group_rotation_sigma(), build_roli()
    rho0 = atlas.rho0
    base_edge = tuple(sorted((atlas.v, atlas.v_bar)))
    mirror_facet = _face_image(3, tuple(sorted(build_map().edges)), rho0.act)
    sub0 = rot.subgroup([atlas.sigma2_bar, atlas.sigma3_bar])
    assert cf._stabilizer_fault(rot, sub0, atlas.v_bar, lambda p, g: g.act(p)) is None
    sub1 = rot.subgroup([atlas.sigma1_bar * atlas.sigma2_bar, atlas.sigma3_bar])
    assert cf._stabilizer_fault(rot, sub1, base_edge,
                                lambda e, g: _face_image(1, e, g.act)) is None
    sub2 = rot.subgroup([g.conjugate(rho0) for g in group_petrie_stabilizer().generator_list()])
    sub3 = rot.subgroup([g.conjugate(rho0) for g in roli.structure.subgroups[3].generator_list()])
    struct = CosetGeometry(rot, [sub0, sub1, sub2, sub3])
    realization = _realize_by_act(struct, [atlas.v_bar, base_edge,
                                           atlas.base_octagon.transformed(rho0).vertices,
                                           mirror_facet])
    mirror = cf._realized_face_map(roli.realization, realization, rho0.act)
    assert _face_map_fault(roli.structure, mirror, roli.structure.all_refs(),
                           struct, struct.all_refs()) is None
    return cf.EnantiomorphBundle(
        structure=struct, realization=realization,
        stabilizer_orders=tuple(map(len, struct.subgroups)),
        two_faces_class=cf._two_faces_class(realization))


def test_enantiomorph_against_the_stabilizer_build():
    bundle, oracle = build_enantiomorph(), _enantiomorph_by_stabilizers()
    struct, expected = bundle.structure, oracle.structure
    assert [sub.element_set for sub in struct.subgroups] \
        == [sub.element_set for sub in expected.subgroups]
    assert struct.faces_by_rank == expected.faces_by_rank
    assert struct.canon == expected.canon
    assert struct._inc == expected._inc
    assert bundle.realization == oracle.realization
    assert bundle.certificate() == oracle.certificate()


def test_enantiomorph_base_faces_are_rolis_mirrored_by_rho0(atlas):
    roli, bar = build_roli(), build_enantiomorph()
    for r, (right, left) in enumerate(zip(roli.structure.base_flag, bar.structure.base_flag)):
        assert bar.realization[r, left] == _face_image(r, roli.realization[r, right],
                                                       atlas.rho0.act)


def test_enantiomorph_two_faces_are_left_handed():
    bundle = build_enantiomorph()
    for ref in bundle.structure.refs(2):
        assert PetriePolygon(bundle.realization[ref]).chiral_class == "L"


def test_enantiomorph_octagon_stabilizer_against_setwise_stabilizer(atlas):
    # the octagon subgroup is the Petrie stabilizer conjugated by rho0; the
    # scan of every rotation against the mirrored octagon is the oracle
    struct = build_enantiomorph().structure
    mirror = atlas.base_octagon.transformed(atlas.rho0).vertex_set()
    scan = setwise_stabilizer(struct.group, mirror)
    assert struct.subgroups[2].element_set == scan.element_set
    assert len(scan) == 16


def test_enantiomorph_facet_stabilizer_against_stabilizer_scan(atlas):
    # the facet subgroup is Roli's conjugated by rho0; the scan of every
    # rotation against the mirrored facet is the oracle
    struct = build_enantiomorph().structure
    mirror_facet = _face_image(3, tuple(sorted(build_map().edges)), atlas.rho0.act)
    scan = stabilizer(struct.group, mirror_facet, lambda m, g: _face_image(3, m, g.act))
    assert struct.subgroups[3].element_set == scan.element_set
    assert len(scan) == 48


def test_any_reflection_induces_the_poset_isomorphism(atlas):
    # the mirror map works with rho1 just as well as with rho0
    right_bundle, left_bundle = build_roli(), build_enantiomorph()
    right, left = right_bundle.structure, left_bundle.structure
    actions = {
        0: lambda obj, g: g.act(obj),
        1: lambda obj, g: tuple(sorted(g.act(p) for p in obj)),
        2: lambda obj, g: PetriePolygon(tuple(g.act(p) for p in obj)).vertices,
        3: lambda obj, g: tuple(sorted(tuple(sorted(g.act(p) for p in e))
                                       for e in obj)),
    }
    lookup = {}
    for r in range(4):
        for ref in left.refs(r):
            lookup[(r, left_bundle.realization[ref])] = ref
    mapping = {}
    for r in range(4):
        for ref in right.refs(r):
            mapping[ref] = lookup[(r, actions[r](right_bundle.realization[ref], atlas.rho1))]
    for a in right.all_refs():
        for b in right.all_refs():
            if a[0] < b[0]:
                assert right.incident(a, b) == left.incident(mapping[a], mapping[b])


# -- the cover -----------------------------------------------------------------------


def test_cover_battery(atlas):
    bundle = build_cover()
    group = bundle.structure.group
    assert string_condition(group) and intersection_condition(group)
    assert bundle.structure.f_vector == (32, 64, 24, 8)
    assert bundle.type_vector == (8, 3, 3)
    assert bundle.classification is Classification.REGULAR
    assert bundle.flag_count == 768
    assert bundle.injective_on_tetrahedral


def test_cover_centre_words(atlas):
    bundle = build_cover()
    ident4 = SignedPerm.identity(4)
    assert bundle.centre_plus == {
        SignedPerm.identity(8),
        block_pair(atlas.zeta, ident4),
        block_pair(ident4, atlas.zeta),
        block_pair(atlas.zeta, atlas.zeta),
    }
    assert bundle.centre_word_identities

    def kernel(images):
        hom = extend_homomorphism(group_cover_rotation(), dict(zip(
            ("kappa1", "kappa2", "kappa3"), images)))
        return frozenset(hom.kernel())

    assert kernel((atlas.sigma1, atlas.sigma2, atlas.sigma3)) == {
        SignedPerm.identity(8), block_pair(ident4, atlas.zeta)}
    assert kernel((atlas.sigma1_bar, atlas.sigma2_bar, atlas.sigma3_bar)) == {
        SignedPerm.identity(8), block_pair(atlas.zeta, ident4)}
    assert kernel((atlas.rho0 * atlas.rho1, atlas.rho1 * atlas.rho2,
                   atlas.rho2 * atlas.rho3)) == {
        SignedPerm.identity(8), block_pair(atlas.zeta, atlas.zeta)}


def test_cover_base_vertex(atlas):
    bundle = build_cover()
    points = {bundle.realization[ref] for ref in bundle.structure.refs(0)}
    assert atlas.v + atlas.v_bar in points
    assert len(points) == 32


def test_coverings_are_two_to_one_three_coverings():
    bundle = build_cover()
    for report in (bundle.covering_right, bundle.covering_left):
        assert report.uniform_fiber_size() == 2
        assert report.isomorphic_on_facets
        assert report.isomorphic_on_vertex_figures


def test_cover_projects_onto_the_cube_with_mixed_fibers():
    bundle = build_cover()
    counts = [row[0] for row in bundle.covering_cube.preimage_counts]
    assert counts == [2, 2, 1, 1]
    assert all(len(set(row)) == 1 for row in bundle.covering_cube.preimage_counts)
    assert not bundle.covering_cube.is_k_covering


def test_roli_flag_count_against_chain_oracle():
    # independent chain count over the realized faces
    bundle = build_roli()
    struct = bundle.structure
    verts = [bundle.realization[ref] for ref in struct.refs(0)]
    edges = [bundle.realization[ref] for ref in struct.refs(1)]
    octs = [bundle.realization[ref] for ref in struct.refs(2)]
    facets = [set(bundle.realization[ref]) for ref in struct.refs(3)]
    count = 0
    for e in edges:
        for v in e:
            for o in octs:
                o_edges = PetriePolygon(o).edge_set()
                if e not in o_edges:
                    continue
                for m in facets:
                    if o_edges <= m:
                        count += 1
    assert count == 384 == len(struct.flags())


def test_binary_tetrahedral_subgroup(atlas):
    report = binary_tetrahedral_check()
    assert report["identities_hold"]
    assert report["order"] == 24
    assert report["normal_in_map_rotation_group"]
    assert report.keys() == {"identities_hold", "order", "normal_in_map_rotation_group"}
    # the centre of the map's rotation group is generated by sigma1^4 = zeta
    s1, s2 = atlas.sigma1, atlas.sigma2
    rot = group_map_rotation()
    assert rot.centre().element_set == frozenset((rot.identity, s1 ** 4))
    assert s1 ** 4 == atlas.zeta
    # the defining identities, spelled out
    a = s1.inverse() * s2 * s1.inverse()
    b = s2 * s1 ** 4
    assert a ** 3 == atlas.zeta and b ** 3 == atlas.zeta
    assert (a * b) ** 2 == atlas.zeta


def _normal_by_generators(group, sub):
    return all(frozenset(g.inverse() * h * g for h in sub) == sub.element_set
               for g in group.generator_list())


def _normal_by_scan(group, sub):
    return all(frozenset(g.inverse() * h * g for h in sub) == sub.element_set
               for g in group)


def test_normality_on_generators_agrees_with_the_scan(atlas):
    rot = group_map_rotation()
    s1, s2 = atlas.sigma1, atlas.sigma2
    tetrahedral = rot.subgroup([s1.inverse() * s2 * s1.inverse(), s2 * s1 ** 4])
    vertex = rot.subgroup([s2])  # a vertex stabilizer, moved by sigma1
    assert _normal_by_generators(rot, tetrahedral) is _normal_by_scan(rot, tetrahedral) is True
    assert _normal_by_generators(rot, vertex) is _normal_by_scan(rot, vertex) is False
    assert binary_tetrahedral_check()["normal_in_map_rotation_group"]


def test_verify_all_scans_no_group_element_by_element(monkeypatch):
    """Stabilizers come from orbit-stabilizer and the map's automorphisms
    from three flag searches, so the scans may all raise.  Closures compose
    point codes, and the hemi-cube's quotient and the chiral cosets row read
    integer tables, so the whole battery makes few SignedPerm products."""
    def scan(*args, **kwargs):
        raise AssertionError("a build scanned a group element by element")

    modules = (cli, cf, groupcore, mkconfig, polycore)
    for name in ("stabilizer", "setwise_stabilizer"):
        for module in modules:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, scan)
    clear_build_caches()
    products = []
    real = SignedPerm.__mul__
    monkeypatch.setattr(SignedPerm, "__mul__", lambda a, b: products.append(b) or real(a, b))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--all"]) == 0
    assert len(products) <= 450
