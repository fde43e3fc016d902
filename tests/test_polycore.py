"""Incidence structures: Wythoff construction, quotients, colourful
polytopes, classification, coverings."""

import collections
import itertools
import math
import os
import random
import subprocess
import sys
from operator import getitem
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polytope_forge
from polytope_forge import polycore
from polytope_forge.cubefamily import (
    _adjacency,
    _project_first,
    _project_second_mirror,
    _realized_face_map,
    _sigma_face_maps,
    build_atlas,
    build_cover,
    build_cube,
    build_enantiomorph,
    build_hemi,
    build_map,
    build_roli,
    gp83_graph,
    group_cube,
    group_cover,
    group_cover_rotation,
    group_rotation_sigma,
)
from polytope_forge.groupcore import (CheckFailed, ConcreteGroup, Homomorphism, check,
                                      extend_homomorphism, intersection_condition, reach)
from polytope_forge.polycore import (
    _coset_decomposition,
    automorphism_count,
    Classification,
    ClassifyResult,
    ColoredGraph,
    CosetGeometry,
    RankedIncidenceStructure,
    central_quotient,
    classify,
    colourful_polytope,
    coset_face_action,
    coset_geometry,
    face_permutation,
    isomorphisms,
    polytope_from_reflections,
    polytope_from_rotations,
    verify_covering,
)
from polytope_forge.signedperm import SignedPerm, block_pair
from test_groupcore import _random_string_group


@pytest.fixture(scope="module")
def atlas():
    return build_atlas()


# -- Wythoff construction ------------------------------------------------------


def _wythoff(group):
    """polytope_from_reflections, with the polytope axioms that it leaves to
    ARP Thm 2E11 checked explicitly."""
    struct = polytope_from_reflections(group)
    struct.validate_polytope()
    return struct


@pytest.mark.parametrize("build", [build_cube, build_cover, build_map, build_roli,
                                   build_enantiomorph, build_hemi])
def test_built_wythoff_polytopes_satisfy_the_axioms(build):
    # each build trusts a theorem whose hypothesis it checks (Wythoff,
    # rotary, central quotient) or conjugates Roli's subgroups by a
    # normalizing element (the enantiomorph); validate_polytope is the oracle
    build().structure.validate_polytope()


@pytest.mark.parametrize("build", [build_cube, build_hemi])
def test_built_colourful_polytopes_satisfy_the_axioms(build):
    build().colourful.validate_polytope()


def _bn_reflections(n, h=None):
    """The reflections of B_n: rho_0 negates coordinate 1, rho_i swaps
    coordinates i and i+1; each conjugated by h when given."""
    rho0 = SignedPerm((-1,) + (1,) * (n - 1), range(1, n + 1))
    swaps = [SignedPerm.from_cycles(n, [(i, i + 1)]) for i in range(1, n)]
    return [g if h is None else g.conjugate(h) for g in [rho0] + swaps]


@pytest.mark.parametrize("n, f_vector", [(3, (8, 12, 6)), (4, (16, 32, 24, 8))])
def test_rotary_ncube_against_the_coset_geometry_oracle(n, f_vector):
    # the rotation subgroup of B_n, sigma_i = rho_{i-1} rho_i
    rho = _bn_reflections(n)
    group = ConcreteGroup.generate([rho[i - 1] * rho[i] for i in range(1, n)],
                                   names=[f"sigma{i}" for i in range(1, n)])
    assert len(group) == 2 ** n * math.factorial(n) // 2
    struct = polytope_from_rotations(group)
    struct.validate_polytope()
    assert struct.f_vector == f_vector
    oracle = coset_geometry(group, struct.subgroups)
    assert struct.faces_by_rank == oracle.faces_by_rank and struct._inc == oracle._inc


def test_rotary_construction_on_seeded_random_groups():
    # s2 = s1^-1 t and s3 = s2^-1 u, with t and u signed involutions, make
    # (s1 s2)^2 = (s2 s3)^2 = 1 hold; every group that passes the
    # rotations.* checks gives a polytope, by the oracle
    rng = random.Random(5)

    def signed(n, involution=False):
        while True:
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            g = SignedPerm([rng.choice((1, -1)) for _ in range(n)], perm)
            if not involution or g * g == SignedPerm.identity(n):
                return g

    outcomes = collections.Counter()
    for _ in range(300):
        n = rng.choice((3, 4))
        sigmas = [signed(n)]
        for _ in range(rng.choice((1, 2))):
            sigmas.append(sigmas[-1].inverse() * signed(n, involution=True))
        group = ConcreteGroup.generate(sigmas)
        try:
            struct = polytope_from_rotations(group)
        except CheckFailed as exc:
            outcomes[exc.name] += 1
            continue
        struct.validate_polytope()
        outcomes[len(sigmas) + 1] += 1
    assert outcomes.keys() == {3, 4, "rotations.generators-nontrivial", "rotations.relations",
                               "rotations.intersection-condition"}, outcomes


def test_rotary_construction_takes_rank_3_or_4(atlas):
    for gens in ([atlas.sigma1], [atlas.sigma1, atlas.sigma2, atlas.sigma3, atlas.pi]):
        with pytest.raises(ValueError, match="2 or 3 generators"):
            polytope_from_rotations(ConcreteGroup.generate(gens))


def test_cube_f_vector():
    assert build_cube().structure.f_vector == (16, 32, 24, 8)


def test_cube_flag_count_against_chain_oracle():
    # oracle: count (vertex, edge, square, cube-facet) chains directly from
    # the sign-vector combinatorics, never touching the structure
    count = 0
    verts = list(itertools.product((1, -1), repeat=4))
    for v in verts:
        for e_axis in range(4):  # edge direction
            for s_axis in range(4):  # second free direction of the square
                if s_axis == e_axis:
                    continue
                for c_axis in range(4):  # third free direction of the facet
                    if c_axis in (e_axis, s_axis):
                        continue
                    count += 1
    assert count == 384
    assert len(build_cube().structure.flags()) == 384


def test_segment_from_single_reflection(atlas):
    g = ConcreteGroup.generate({"r": atlas.rho0})
    struct = _wythoff(g)
    assert struct.rank == 1
    assert struct.f_vector == (2,)
    assert len(struct.flags()) == 2


def test_cover_f_vector_against_coset_count_oracle(atlas):
    t = group_cover()
    taus = t.generator_list()
    expected = []
    for j in range(4):
        rest = [g for i, g in enumerate(taus) if i != j]
        expected.append(len(t) // len(ConcreteGroup.generate(rest)))
    assert expected == [32, 64, 24, 8]
    struct = _wythoff(t)
    assert struct.f_vector == tuple(expected)


def test_coset_geometry_map_f_vector_oracle(atlas):
    # stabilizer orders 3, 2, 8 force 48/3, 48/2, 48/8 faces
    bundle = build_map()
    assert bundle.structure.f_vector == (48 // 3, 48 // 2, 48 // 8)


def test_coset_geometry_agrees_with_reflection_construction():
    g = group_cube()
    gens = g.generator_list()
    subgroups = [g.subgroup([x for i, x in enumerate(gens) if i != j])
                 for j in range(4)]
    direct = coset_geometry(g, subgroups)
    wythoff = _wythoff(g)
    assert direct.faces_by_rank == wythoff.faces_by_rank
    assert all(direct.incident(a, b) == wythoff.incident(a, b)
               for a in direct.all_refs() for b in direct.all_refs()
               if a[0] != b[0])


def _bn_polytope(n, h=None):
    """The n-cube from the reflections of B_n, each conjugated by h when
    given."""
    return _wythoff(ConcreteGroup.generate(_bn_reflections(n, h)))


@pytest.mark.parametrize("n", [3, 4, 5, 2])
def test_ncube_from_reflections_up_to_rank_5(n):
    # _bn_polytope validates every rank up to 5: polytope_from_reflections
    # itself trusts ARP Thm 2E11 and does not
    struct = _bn_polytope(n)
    assert struct.f_vector == tuple(math.comb(n, k) * 2 ** (n - k) for k in range(n))
    assert len(struct.flags()) == 2 ** n * math.factorial(n)
    if n % 2 == 0:
        # the hemi-n-cube: -I is central and pairs off the faces of every rank
        minus_one = SignedPerm((-1,) * n, range(1, n + 1))
        hemi = central_quotient(struct, minus_one)
        assert hemi.f_vector == tuple(f // 2 for f in struct.f_vector)


@pytest.mark.parametrize("make", [
    lambda: build_cube().structure,
    lambda: build_roli().structure,
    lambda: build_map().structure,
    lambda: build_cover().structure,
    lambda: _bn_polytope(3),
], ids=["cube", "roli", "map", "cover", "b3"])
def test_coset_incidence_matches_its_definition(make):
    # faces alpha (rank j) and beta (rank k) are incident iff
    # beta * alpha^-1 lies in the product set H_k * H_j
    struct = make()
    for j in range(struct.rank):
        for k in range(j + 1, struct.rank):
            prod = {a * b for a in struct.subgroups[k].elements
                    for b in struct.subgroups[j].elements}
            expected = {(ra, rb) for ra in struct.refs(j) for rb in struct.refs(k)
                        if struct.key(rb) * struct.key(ra).inverse() in prod}
            actual = {(ra, rb) for ra in struct.refs(j) for rb in struct.refs(k)
                      if struct.incident(ra, rb)}
            assert expected and actual == expected, (j, k)


def _decomposition_by_products(group, sub):
    """The sorted-product routine _coset_decomposition used before the
    action table: element -> least member of its right coset."""
    canon = {}
    for g in group.elements:
        if g not in canon:
            members = sorted(s * g for s in sub.elements)
            canon.update(dict.fromkeys(members, members[0]))
    return sorted(set(canon.values())), canon


_COSET_STRUCTURES = pytest.mark.parametrize("make", [
    lambda: build_cube().structure,
    lambda: build_map().structure,
    lambda: build_roli().structure,
    lambda: build_enantiomorph().structure,  # Roli's subgroups conjugated by rho0
    lambda: build_cover().structure,
    lambda: _bn_polytope(4),
], ids=["cube", "map", "roli", "enantiomorph", "cover", "b4"])


@_COSET_STRUCTURES
def test_coset_decomposition_against_products(make, monkeypatch):
    struct = make()
    group = struct.group
    old = [_decomposition_by_products(group, sub) for sub in struct.subgroups]
    elements = group.generator_list() + list(group.elements[-3:])
    old_actions = [{ref: (ref[0], struct.faces_by_rank[ref[0]].index(
                        old[ref[0]][1][struct.key(ref) * g])) for ref in struct.all_refs()}
                   for g in elements]
    # the integer routines multiply no group elements
    products = []
    monkeypatch.setattr(SignedPerm, "__mul__", lambda a, b: products.append(1))
    for (old_reps, old_canon), sub in zip(old, struct.subgroups):
        reps, canon = _coset_decomposition(group, sub)
        assert reps == old_reps
        assert [reps[c] for c in canon] == [old_canon[g] for g in group.elements]
    assert [coset_face_action(struct, g) for g in elements] == old_actions
    assert products == []


def _decomposition_by_field_tuples(group, sub):
    """The table routine of _coset_decomposition, with each element keyed
    by its fields (n, perm, signs): the order that `<` on elements must
    give."""
    keys = [(e.n, e.perm, e.signs) for e in group.elements]
    elements = group.elements
    coset_of = {min(coset, key=keys.__getitem__): coset for coset in group.right_cosets(sub)}
    reps = sorted(coset_of, key=keys.__getitem__)
    canon = [0] * len(group)
    for face, rep in enumerate(reps):
        for i in coset_of[rep]:
            canon[i] = face
    return [elements[i] for i in reps], canon


@_COSET_STRUCTURES
def test_coset_decomposition_against_the_element_order(make):
    struct = make()
    group = struct.group
    for sub in struct.subgroups:
        assert _coset_decomposition(group, sub) == _decomposition_by_field_tuples(group, sub)


def test_ladder_rung_makes_no_products(monkeypatch):
    # the B_4 rung of the n-cube ladder: closure, the Wythoff construction
    # and classification run on integers once the generators are built
    rho0 = SignedPerm((-1, 1, 1, 1), range(1, 5))
    h = SignedPerm((1, -1, -1, 1), (3, 1, 4, 2))
    gens = [g.conjugate(h) for g in
            [rho0] + [SignedPerm.from_cycles(4, [(i, i + 1)]) for i in range(1, 4)]]
    calls = collections.Counter()
    mul = SignedPerm.__mul__

    def counted(a, b):
        calls["mul"] += 1
        return mul(a, b)

    monkeypatch.setattr(SignedPerm, "__mul__", counted)
    group = ConcreteGroup.generate(gens, names=[f"r{i}" for i in range(4)])
    poly = _wythoff(group)
    result = classify(poly, [coset_face_action(poly, g) for g in gens])
    assert (len(group), poly.f_vector, result.kind) == (384, (16, 32, 24, 8),
                                                         Classification.REGULAR)
    assert calls == {}


def test_coset_face_action_needs_coset_data():
    with pytest.raises(ValueError):
        coset_face_action(build_cube().colourful, group_cube().identity)


def test_classify_needs_coset_data():
    # the colourful cube is the cube's poset, but it carries no base flag
    colourful = build_cube().colourful
    maps = [{ref: ref for ref in colourful.all_refs()}]
    with pytest.raises(ValueError, match="no coset decomposition"):
        classify(colourful, maps)


def test_plain_structures_carry_no_coset_data():
    # coset data lives on CosetGeometry and realizations on the bundles
    for struct in (build_cube().colourful, build_hemi().colourful):
        assert not isinstance(struct, CosetGeometry)
        names = ("group", "subgroups", "canon", "base_flag", "coset_canon", "realization")
        assert [name for name in names if hasattr(struct, name)] == []


def test_roli_coset_geometry_f_vector():
    assert build_roli().structure.f_vector == (16, 32, 12, 4)


def test_degenerate_coset_geometry_rejected(atlas):
    g = ConcreteGroup.generate({"a": atlas.rho0, "b": atlas.rho1})
    sub = g.subgroup([atlas.rho0])
    with pytest.raises(CheckFailed) as exc:
        coset_geometry(g, [sub, sub])
    assert exc.value.name == "polytope.diamond"


# -- flags, classification -----------------------------------------------------


def test_flag_graph_edges_carry_ranks():
    # every flag has exactly one j-adjacent flag for each rank j, and it
    # differs from the flag in the rank-j face alone
    struct = build_cube().structure
    flags = struct.flags()
    assert len(flags) == 384
    for f in flags:
        for j in range(struct.rank):
            (g,) = struct.flag_adjacent(f, j)
            assert g in flags and [k for k in range(struct.rank) if g[k] != f[k]] == [j]


@pytest.mark.parametrize("build", [build_cube, build_hemi, build_map, build_roli,
                                   build_enantiomorph])
def test_flag_adjacency_against_brute_force(build):
    struct = build().structure
    flags = struct.flags()
    for f in flags:
        differ = [(g, [k for k in range(struct.rank) if g[k] != f[k]]) for g in flags]
        for j in range(struct.rank):
            assert struct.flag_adjacent(f, j) == sorted(g for g, ks in differ if ks == [j])


def test_reflection_construction_rejects_bad_generators(atlas):
    # reordering breaks the linear-diagram commutation
    bad = ConcreteGroup.generate(
        {"a": atlas.rho0, "b": atlas.rho2, "c": atlas.rho1})
    with pytest.raises(CheckFailed) as exc:
        polytope_from_reflections(bad)
    assert exc.value.name == "reflections.string-condition"
    assert exc.value.witness == ["a", "b", "c"]
    # non-involutory generators are rejected outright
    with pytest.raises(CheckFailed) as exc:
        polytope_from_reflections(ConcreteGroup.generate({"p": atlas.pi}))
    assert exc.value.name == "reflections.involutions"
    assert exc.value.witness == ("p", atlas.pi)


def test_classification_regular_chiral_other(atlas):
    cube = build_cube().structure
    maps = [coset_face_action(cube, g) for g in group_cube().generator_list()]
    assert classify(cube, maps).kind is Classification.REGULAR

    roli = build_roli().structure
    rmaps = [coset_face_action(roli, g)
             for g in group_rotation_sigma().generator_list()]
    res = classify(roli, rmaps)
    assert res.kind is Classification.CHIRAL and res.orbit_count == 2

    # a single reflection generates far too little: neither regular nor chiral
    tiny = classify(cube, [coset_face_action(cube, atlas.rho0)])
    assert tiny.kind is Classification.OTHER


def _classify_by_face_maps(p, face_maps):
    """The classification before it walked one orbit: every face map checked
    to be an automorphism, every flag sorted into an orbit and every
    adjacent pair of flags tested for the chiral case."""
    for fm in face_maps:
        fault = _face_map_fault(p, fm, p.all_refs(), p, p.all_refs())
        assert fault is None, fault
    tables = [[[fm[(r, i)][1] for i in range(len(keys))] for r, keys in enumerate(p.faces_by_rank)]
              for fm in face_maps]

    def images(flag):
        return [tuple(map(getitem, table, flag)) for table in tables]

    orbit_of = {}
    orbits = 0
    for flag in p.flags():
        if flag not in orbit_of:
            orbit_of.update(dict.fromkeys(reach(flag, images), orbits))
            orbits += 1
    if orbits == 1:
        kind = Classification.REGULAR
    elif orbits == 2 and all(orbit_of[f] != orbit_of[g] for f in p.flags()
                             for j in range(p.rank) for g in p.flag_adjacent(f, j)):
        kind = Classification.CHIRAL
    else:
        kind = Classification.OTHER
    return ClassifyResult(kind=kind, orbit_count=orbits, flag_count=len(p.flags()))


def _own_action(struct):
    return struct, [coset_face_action(struct, g) for g in struct.group.generator_list()]


def _cube_action(*words):
    """The cube under the subgroup generated by these words in rho0..rho3."""
    atlas, cube = build_atlas(), build_cube().structure
    rho = (atlas.rho0, atlas.rho1, atlas.rho2, atlas.rho3)
    gens = [math.prod((rho[k] for k in word[1:]), start=rho[word[0]]) for word in words]
    return cube, [coset_face_action(cube, g) for g in gens]


def _ladder_rung(n):
    """B_n as the n-cube ladder builds it, conjugated by a seeded signed
    permutation."""
    rng = random.Random(n)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return _own_action(_bn_polytope(n, SignedPerm([rng.choice((1, -1)) for _ in range(n)], perm)))


def _map_full_group():
    bundle = build_map()
    refs = bundle.structure.all_refs()
    return bundle.structure, [{ref: refs[p - 1] for ref, p in zip(refs, t.perm)}
                              for t in bundle.full_group.generator_list()]


REG, CHI, OTH = Classification.REGULAR, Classification.CHIRAL, Classification.OTHER


@pytest.mark.parametrize("make,kind,orbits", [
    (lambda: _own_action(build_cube().structure), REG, 1),
    (lambda: _own_action(build_map().structure), CHI, 2),
    (lambda: _own_action(build_roli().structure), CHI, 2),
    (lambda: _own_action(build_enantiomorph().structure), CHI, 2),
    (lambda: _own_action(build_cover().structure), REG, 1),
    (lambda: _ladder_rung(3), REG, 1),
    (lambda: _ladder_rung(4), REG, 1),
    (lambda: _ladder_rung(5), REG, 1),
    (lambda: _own_action(_wythoff(ConcreteGroup.generate({"r": build_atlas().rho0}))), REG, 1),
    (lambda: _own_action(_bn_polytope(2)), REG, 1),
    # the map's t0, t1, t2 generate its full group: what map.automorphism-count implies
    (_map_full_group, REG, 1),
    # no face map: every flag is its own orbit
    (lambda: (build_cube().structure, []), OTH, 384),
    (lambda: _cube_action((0,)), OTH, 192),
    (lambda: _cube_action((0,), (1,)), OTH, 48),
    (lambda: _cube_action((0, 1), (1, 2), (2, 3)), CHI, 2),
    # two orbits, but rho1 keeps 1-adjacent flags in one orbit
    (lambda: _cube_action((1,), (2,), (3,), (0, 1, 0)), OTH, 2),
], ids=["cube", "map-rotations", "roli", "enantiomorph", "cover", "b3", "b4", "b5",
        "segment", "square", "map-full-group", "cube-no-maps", "cube-rho0", "cube-rho0-rho1",
        "cube-rotations", "cube-rho1-rho2-rho3-rho0rho1rho0"])
def test_classify_against_the_face_map_oracle(make, kind, orbits):
    p, face_maps = make()
    result = classify(p, face_maps)
    assert result == _classify_by_face_maps(p, face_maps)
    assert (result.kind, result.orbit_count, result.flag_count) == (kind, orbits, len(p.flags()))
    assert p.base_flag in p.flags()


@pytest.mark.parametrize("make", [
    lambda: build_cube().structure,
    lambda: build_map().structure,
    lambda: build_roli().structure,
    lambda: build_enantiomorph().structure,
    lambda: build_cover().structure,
    lambda: _bn_polytope(3, SignedPerm((1, -1, 1), (3, 1, 2))),
    lambda: _bn_polytope(4),
    lambda: _bn_polytope(5),
], ids=["cube", "map", "roli", "enantiomorph", "cover", "b3", "b4", "b5"])
def test_classify_under_the_group_equals_its_generators_face_maps(make):
    # right multiplication by the group has the base orbit read off canon;
    # the generators' face maps walk the same orbit
    p = make()
    assert classify(p) == classify(p, _sigma_face_maps(p))


@pytest.mark.parametrize("make,kind", [
    (lambda: _own_action(build_cube().structure), REG),
    (lambda: _own_action(build_roli().structure), CHI),
    (lambda: _own_action(build_cover().structure), REG),
    (lambda: _ladder_rung(5), REG),
    (lambda: (build_roli().structure, None), CHI),
    (lambda: (build_cover().structure, None), REG),
], ids=["cube", "roli", "cover", "b5", "roli-group", "cover-group"])
def test_classify_lists_no_flags(make, kind, monkeypatch):
    # flags are counted as chains and only the base orbit is walked
    p, face_maps = make()

    def listed(self):
        raise AssertionError("classify listed the flags")

    monkeypatch.setattr(RankedIncidenceStructure, "flags", listed)
    assert classify(p, face_maps).kind is kind


def test_classify_makes_rank_adjacency_tests(monkeypatch):
    # the chiral test reads the flags adjacent to the base flag, not to every flag
    roli, face_maps = _own_action(build_roli().structure)
    calls = []
    adjacent = RankedIncidenceStructure.flag_adjacent

    def counted(self, flag, j):
        calls.append((flag, j))
        return adjacent(self, flag, j)

    monkeypatch.setattr(RankedIncidenceStructure, "flag_adjacent", counted)
    assert classify(roli, face_maps).kind is Classification.CHIRAL
    assert len(calls) <= roli.rank == 4


def test_face_permutation_is_the_coset_action_as_a_group_element():
    # right multiplication on cosets: g's face map, then h's, is gh's
    struct = build_map().structure
    group = struct.group
    as_perm = lambda g: face_permutation(struct, coset_face_action(struct, g))
    assert struct.f_vector == (16, 24, 6)
    assert as_perm(group.identity) == SignedPerm.identity(46)
    rng = random.Random(25)
    for g, h in zip(rng.sample(group.elements, 10), rng.sample(group.elements, 10)):
        assert as_perm(g) * as_perm(h) == as_perm(g * h)


def test_face_permutation_rejects_a_map_that_is_not_a_bijection():
    struct = build_map().structure
    collapse = {(r, i): (r, 0) for r, i in struct.all_refs()}
    with pytest.raises(ValueError, match="not a permutation"):
        face_permutation(struct, collapse)


def test_face_maps_that_change_rank_are_rejected():
    # read by index alone, this map would be the identity permutation, and
    # classify would count 96 orbits of the map's 96 flags
    struct = build_map().structure
    shift = {(r, i): ((r + 1) % 3, i) for r, i in struct.all_refs()}
    assert len(struct.flags()) == 96
    with pytest.raises(ValueError, match=r"sends \(0, 0\) to \(1, 0\), of another rank"):
        face_permutation(struct, shift)
    with pytest.raises(ValueError, match="of another rank"):
        classify(struct, [shift])


def test_face_maps_that_miss_a_face_are_rejected():
    cube = build_cube().structure
    with pytest.raises(ValueError, match=r"no image of \(0, 1\)"):
        classify(cube, [{(0, 0): (0, 0)}])
    with pytest.raises(ValueError, match=r"no image of \(0, 1\)"):
        face_permutation(cube, {(0, 0): (0, 0)})


def test_coset_face_action_rejects_an_element_outside_the_group():
    foreign = SignedPerm.identity(5)
    with pytest.raises(ValueError, match=r"\(1,1,1,1,1\).* is not in the structure's group"):
        coset_face_action(build_cube().structure, foreign)


def test_schlafli_types():
    assert build_cube().structure.schlafli_type() == (4, 3, 3)
    assert build_map().structure.schlafli_type() == (8, 3)
    assert build_roli().structure.schlafli_type() == (8, 3, 3)


_FACE_MAP_CALLS = """
from polytope_forge import cubefamily as cf
calls = 0
real = cf.coset_face_action
def counted(struct, element):
    global calls
    calls += 1
    return real(struct, element)
cf.coset_face_action = counted
cf.build_cover()
print(calls)
cf.build_map()
print(calls)
"""


def test_build_cover_makes_no_face_map():
    # the cover, the cube and Roli's cube are classified under their own
    # groups; build_map still makes its generators' two face maps
    src = str(Path(polytope_forge.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", _FACE_MAP_CALLS], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["0", "2"]


# -- central quotient ----------------------------------------------------------


def test_hemi_quotient(atlas):
    hemi = build_hemi()
    assert hemi.structure.f_vector == (8, 16, 12, 4)
    assert hemi.quotient_group_order == 192
    assert hemi.generator_product_order == 4


def _central_quotient_by_face_pairs(p, z):
    """The face-pairing quotient: a face and its mate under z are one face,
    keyed by the lesser key, and incident when some members are."""
    face_map = coset_face_action(p, z)
    key = {ref: min(p.key(ref), p.key(face_map[ref])) for ref in p.all_refs()}
    faces_by_rank = [[key[ref] for ref in p.refs(r) if ref <= face_map[ref]]
                     for r in range(p.rank)]
    pairs = {((a[0], key[a]), (b[0], key[b])) for a in p.all_refs() for b in p._inc[a]}
    return RankedIncidenceStructure(p.rank, faces_by_rank, pairs)


@pytest.mark.parametrize("make", [
    lambda a: (build_cube().structure, a.zeta),
    lambda a: (build_cube().structure, group_cube().identity),
    lambda a: (_bn_polytope(2), SignedPerm((-1, -1), (1, 2))),
    lambda a: (_bn_polytope(4, a.pi), a.zeta),
], ids=["hemi-cube", "identity", "hemi-square", "hemi-b4-conjugated"])
def test_central_quotient_against_the_face_pairing_oracle(make, atlas):
    p, z = make(atlas)
    quotient = central_quotient(p, z)
    oracle = _central_quotient_by_face_pairs(p, z)
    assert isinstance(quotient, CosetGeometry) and quotient.group is p.group
    assert quotient.faces_by_rank == oracle.faces_by_rank
    assert quotient._inc == oracle._inc


def test_cover_centre_fixes_exactly_the_octagons_and_facets(atlas):
    # one membership test per rank finds the ranks whose faces z fixes: the
    # first is the witness
    cover = build_cover().structure
    zz = block_pair(atlas.zeta, atlas.zeta)
    with pytest.raises(CheckFailed) as exc:
        central_quotient(cover, zz)
    assert (exc.value.name, exc.value.witness) == ("quotient.acts-freely", (2, cover.canon[2][0]))
    face_map = coset_face_action(cover, zz)
    assert [ref for ref in cover.all_refs() if face_map[ref] == ref] \
        == cover.refs(2) + cover.refs(3)
    assert [j for j, sub in enumerate(cover.subgroups) if zz in sub] == [2, 3]


def test_hemi_cube_is_a_coset_geometry(atlas):
    hemi = build_hemi().structure
    assert isinstance(hemi, CosetGeometry) and hemi.group is group_cube()
    assert [len(sub) for sub in hemi.subgroups] == [48, 24, 32, 96]
    assert all(atlas.zeta in sub for sub in hemi.subgroups)


def test_quotient_by_identity_is_isomorphic(atlas):
    cube = build_cube().structure
    same = central_quotient(cube, group_cube().identity)
    assert same.f_vector == cube.f_vector
    assert same.isomorphic_to(cube)


def test_quotient_by_noncentral_element_rejected(atlas):
    with pytest.raises(CheckFailed) as exc:
        central_quotient(build_cube().structure, atlas.rho0)
    assert exc.value.name == "quotient.element-central" and exc.value.witness == atlas.rho0


def test_quotient_by_face_fixing_involution_rejected(atlas):
    # sign flips of the first two coordinates commute; the first one fixes
    # its own edge-coset in the resulting digon
    flip1 = atlas.rho0
    flip2 = atlas.rho0.conjugate(atlas.rho1)
    digon = _wythoff(ConcreteGroup.generate({"a": flip1, "b": flip2}))
    assert digon.f_vector == (2, 2)
    with pytest.raises(CheckFailed) as exc:
        central_quotient(digon, flip1)
    fixed = exc.value.witness
    assert exc.value.name == "quotient.acts-freely" and fixed[0] == 1
    assert coset_face_action(digon, flip1)[fixed] == fixed


def test_central_quotient_on_seeded_random_string_c_groups():
    # every non-identity central z of each string C-group drawn: a quotient
    # that passes the quotient.* checks is a polytope, by the oracle
    rng = random.Random(1)
    outcomes = collections.Counter()
    for _ in range(400):
        group = _random_string_group(rng)
        if not intersection_condition(group):
            continue
        p = polytope_from_reflections(group)
        for z in group.centre():
            if z == group.identity:
                continue
            try:
                quotient = central_quotient(p, z)
            except CheckFailed as exc:
                outcomes[exc.name] += 1
                continue
            quotient.validate_polytope()
            outcomes["accepted"] += 1
    assert outcomes.keys() == {"accepted", "quotient.acts-freely",
                               "quotient.intersection-condition"}, outcomes


def test_regular_flag_counts_match_group_orders():
    # simply transitive actions: flag count equals the group order
    assert len(build_cube().structure.flags()) == 384
    bundle = build_map()
    assert len(bundle.structure.flags()) == 96 == len(bundle.full_group)


# -- colourful polytopes ---------------------------------------------------------


def test_colourful_cube_is_the_cube():
    cube = build_cube()
    assert cube.colourful.isomorphic_to(cube.structure)


def test_colourful_k44_is_the_hemi_cube():
    hemi = build_hemi()
    assert hemi.colourful.isomorphic_to(hemi.structure)


def test_colourful_single_edge_is_a_segment():
    cg = ColoredGraph(vertices=("a", "b"),
                      edge_colors={frozenset({"a", "b"}): 1}, d=1)
    seg = colourful_polytope(cg)
    assert seg.f_vector == (2,)


def _k44():
    """The hemi-cube's K_{4,4}: the cube's skeleton with antipodal vertices
    identified, each edge keeping its colour."""
    skeleton = build_cube().skeleton

    def antipodal(p):
        return tuple(sorted((p, tuple(-x for x in p))))

    return ColoredGraph(
        vertices=tuple(sorted({antipodal(p) for p in skeleton.vertices})),
        edge_colors={frozenset(map(antipodal, edge)): color
                     for edge, color in skeleton.edge_colors.items()}, d=4)


def _coordinate_cube(n):
    """Q_n on the sign vectors, each edge coloured by the coordinate it flips."""
    vertices = tuple(itertools.product((1, -1), repeat=n))
    return ColoredGraph(vertices=vertices, edge_colors={
        frozenset((v, v[:i] + (-v[i],) + v[i + 1:])): i + 1
        for v in vertices for i in range(n)}, d=n)


@pytest.mark.parametrize("make", [
    lambda: build_cube().skeleton, _k44,
    *(lambda n=n: _coordinate_cube(n) for n in range(2, 6)),
], ids=["cube", "k44", "q2", "q3", "q4", "q5"])
def test_colourful_skeleton_is_the_graph(make):
    # each colour class is a perfect matching, so each one-colour component
    # is one edge: the rank-1 faces are exactly the graph's edges
    cg = make()
    struct = colourful_polytope(cg)
    assert len(cg.edge_colors) == struct.f_vector[1]
    assert {frozenset(comp) for _, comp in struct.faces_by_rank[1]} \
        == set(map(frozenset, cg.edge_colors))


def test_colourful_output_is_simple():
    # a simple d-polytope: every vertex lies on exactly d facets
    struct = build_cube().colourful
    d = struct.rank
    for vref in struct.refs(0):
        assert len(struct.incident_at_rank(vref, d - 1)) == d


def test_improper_colourings_rejected():
    with pytest.raises(CheckFailed) as exc:
        ColoredGraph(vertices=("a", "b", "c", "d"),
                     edge_colors={frozenset({"a", "b"}): 1,
                                  frozenset({"b", "c"}): 1,
                                  frozenset({"c", "d"}): 1,
                                  frozenset({"a", "d"}): 1}, d=1)
    assert exc.value.name == "colouring.colour-once-at-a-vertex"
    # properly coloured but disconnected
    cg = ColoredGraph(vertices=("a", "b", "c", "d"),
                      edge_colors={frozenset({"a", "b"}): 1,
                                   frozenset({"c", "d"}): 1}, d=1)
    with pytest.raises(CheckFailed) as exc:
        colourful_polytope(cg)
    assert exc.value.name == "colouring.graph-connected" and exc.value.witness == 2


# -- coverings -------------------------------------------------------------------


def _face_map_fault(p: RankedIncidenceStructure, fm, faces, q: RankedIncidenceStructure,
                    targets) -> tuple | None:
    """None when fm maps the faces `faces` of p bijectively onto the faces
    `targets` of q, keeping each face's rank, with two faces incident
    exactly when their images are; otherwise (fault, face)."""
    inside, targets = set(faces), set(targets)
    if len(inside) != len(targets) or {fm[a] for a in inside} != targets:
        return "not a bijection", None
    return next((("breaks rank or incidence", a) for a in faces
                 if fm[a][0] != a[0] or {fm[b] for b in p._inc[a] & inside}
                 != q._inc[fm[a]] & targets), None)


def _verify_covering_by_faces(cover: RankedIncidenceStructure, base: RankedIncidenceStructure,
                              face_map) -> polycore.CoveringReport:
    """The face-by-face oracle of `verify_covering`: check a rank- and
    incidence-preserving surjection of proper faces, and report preimage
    counts plus whether the map is isomorphic on every facet and every
    vertex-figure, by comparing their closed sections."""
    check(cover.rank == base.rank, "covering.same-rank", (cover.rank, base.rank))
    refs = cover.all_refs()
    bad = next((ref for ref in refs if ref not in face_map), None)
    check(bad is None, "covering.face-map-covers-every-face", bad)
    bad = next((ref for ref in refs if face_map[ref][0] != ref[0]), None)
    check(bad is None, "covering.face-map-keeps-rank", bad)

    per_face = dict.fromkeys(base.all_refs(), 0)
    for ref in refs:
        per_face[face_map[ref]] += 1
    bad = next((ref for ref, count in per_face.items() if count == 0), None)
    check(bad is None, "covering.onto", bad)
    counts = [tuple(per_face[ref] for ref in base.refs(r)) for r in range(base.rank)]

    bad = next(((a, b) for a in refs for b in cover._inc[a]
                if not base.incident(face_map[a], face_map[b])), None)
    check(bad is None, "covering.keeps-incidence", bad)

    def closed_section(s, a, below: bool) -> list:
        return (s.between(None, a) if below else s.between(a, None)) + [a]

    def isomorphic_on(anchors, below: bool) -> bool:
        return all(_face_map_fault(cover, face_map, closed_section(cover, a, below),
                                   base, closed_section(base, face_map[a], below)) is None
                   for a in anchors)

    return polycore.CoveringReport(
        preimage_counts=tuple(counts),
        isomorphic_on_facets=isomorphic_on(cover.refs(cover.rank - 1), below=True),
        isomorphic_on_vertex_figures=isomorphic_on(cover.refs(0), below=False))


def _identity_hom(group):
    return Homomorphism(group, {e: e for e in group})


def test_identity_covering():
    struct = build_cube().structure
    ident = {ref: ref for ref in struct.all_refs()}
    report = _verify_covering_by_faces(struct, struct, ident)
    assert report.uniform_fiber_size() == 1
    assert report.is_k_covering
    assert verify_covering(struct, struct, _identity_hom(struct.group),
                           struct.base_flag) == (ident, report)


def test_rank_breaking_map_rejected():
    struct = build_cube().structure
    bad = {ref: ref for ref in struct.all_refs()}
    bad[(0, 0)] = (1, 0)
    with pytest.raises(CheckFailed) as exc:
        _verify_covering_by_faces(struct, struct, bad)
    assert exc.value.name == "covering.face-map-keeps-rank" and exc.value.witness == (0, 0)


def test_non_surjective_map_rejected():
    struct = build_cube().structure
    bad = {ref: ref for ref in struct.all_refs()}
    bad[(0, 0)] = (0, 1)
    with pytest.raises(CheckFailed) as exc:
        _verify_covering_by_faces(struct, struct, bad)
    assert exc.value.name == "covering.onto" and exc.value.witness == (0, 0)


def test_covering_that_breaks_incidence_rejected():
    # two vertices trade images: every rank is still covered once
    struct = build_cube().structure
    bad = {ref: ref for ref in struct.all_refs()}
    bad[(0, 0)], bad[(0, 1)] = (0, 1), (0, 0)
    with pytest.raises(CheckFailed) as exc:
        _verify_covering_by_faces(struct, struct, bad)
    a, b = exc.value.witness
    assert exc.value.name == "covering.keeps-incidence" and a == (0, 0)
    assert struct.incident(a, b) and not struct.incident(bad[a], bad[b])


def _cover_homs(a):
    """hom, hom_r and hom_l of `build_cover`."""
    return (extend_homomorphism(group_cover(), {"tau0": a.rho0, "tau1": a.rho1,
                                                "tau2": a.rho2, "tau3": a.rho3}),
            extend_homomorphism(group_cover_rotation(), {
                "kappa1": a.sigma1, "kappa2": a.sigma2, "kappa3": a.sigma3}),
            extend_homomorphism(group_cover_rotation(), {
                "kappa1": a.sigma1_bar.conjugate(a.rho0), "kappa2": a.sigma2_bar.conjugate(a.rho0),
                "kappa3": a.sigma3_bar.conjugate(a.rho0)}))


def _left_anchor(cover=None):
    """Where the realized map onto the enantiomorph sends the cover's base
    flag."""
    cover = cover or build_cover()
    realized = _realized_face_map(cover.realization, build_enantiomorph().realization,
                                  _project_second_mirror)
    return tuple(realized[ref][1] for ref in enumerate(cover.structure.base_flag))


def test_the_three_coverings_equal_the_face_by_face_oracle(atlas):
    cover = build_cover()
    struct = cover.structure
    hom, hom_r, hom_l = _cover_homs(atlas)
    cube, roli, bar = build_cube(), build_roli(), build_enantiomorph()
    cube_index = cube.structure.group.table().index
    by_hom = {ref: (ref[0], cube.structure.canon[ref[0]][cube_index[hom(struct.key(ref))]])
              for ref in struct.all_refs()}
    cases = [
        (roli.structure, hom_r, roli.structure.base_flag,
         _realized_face_map(cover.realization, roli.realization, _project_first),
         cover.covering_right),
        (bar.structure, hom_l, _left_anchor(cover),
         _realized_face_map(cover.realization, bar.realization, _project_second_mirror),
         cover.covering_left),
        (cube.structure, hom, cube.structure.base_flag, by_hom, cover.covering_cube),
    ]
    for base, h, anchor, face_map, report in cases:
        assert verify_covering(struct, base, h, anchor) == (face_map, report)
        assert _verify_covering_by_faces(struct, base, face_map) == report
    assert not cover.covering_cube.isomorphic_on_facets
    assert cover.covering_cube.isomorphic_on_vertex_figures


def _quotient_rotations(group, z) -> list:
    """The images of rho_(i-1) rho_i in group / <z>, for central z: each
    a permutation of the classes {g, g z}, read from the action table."""
    act = group.table().act
    z_word = group.word(group.table().index[z])
    mate = [group.walk(p, z_word) for p in range(len(group))]
    classes = sorted({min(p, q) for p, q in enumerate(mate)})
    number = {c: i + 1 for i, c in enumerate(classes)}
    cls = lambda p: number[min(p, mate[p])]
    return [SignedPerm((1,) * len(classes), [cls(act[act[c][i - 1]][i]) for c in classes])
            for i in range(1, len(group.generators))]


def test_verify_covering_on_seeded_random_rotary_sources():
    """Gamma+ = <rho_(i-1) rho_i> of a random string C-group Gamma, onto the
    rotary geometry of Lambda+ for Lambda = Gamma and Gamma / <z>: the
    shape of build_cover's hom_r and hom_l.  The anchor is the base's own
    flag or two random faces per rank."""
    rng = random.Random(7)
    outcomes = collections.Counter()
    for _ in range(100):
        group = _random_string_group(rng)
        if len(group) > 400 or not intersection_condition(group):
            continue
        cover = polytope_from_reflections(group)
        rho = group.generator_list()
        names = [f"s{i}" for i in range(1, len(rho))]
        plus = ConcreteGroup.generate(dict(zip(names, (a * b for a, b in zip(rho, rho[1:])))))
        targets = [plus.generator_list()] + [_quotient_rotations(group, z)
                                             for z in group.centre() if z != group.identity]
        for images in targets:
            try:
                base = polytope_from_rotations(ConcreteGroup.generate(dict(zip(names, images))))
            except CheckFailed:
                continue
            hom = extend_homomorphism(plus, dict(zip(names, images)))
            assert isinstance(hom, Homomorphism)
            anchors = [base.base_flag] + [tuple(rng.randrange(f) for f in base.f_vector)
                                               for _ in range(2)]
            for anchor in anchors:
                try:
                    face_map, report = verify_covering(cover, base, hom, anchor)
                except CheckFailed as exc:
                    outcomes[exc.name] += 1
                    continue
                assert _verify_covering_by_faces(cover, base, face_map) == report
                outcomes["accepted"] += 1
                outcomes[f"fibre {report.uniform_fiber_size()}"] += 1
    assert outcomes["accepted"] and outcomes["fibre 2"], outcomes
    assert outcomes["covering.anchor-is-a-flag"], outcomes
    assert outcomes["covering.stabilizers-fix-the-anchor"], outcomes


def test_verify_covering_takes_coset_geometries_and_a_face_per_rank():
    cube = build_cube().structure
    hom = _identity_hom(cube.group)
    with pytest.raises(ValueError, match="two coset geometries"):
        verify_covering(build_cube().colourful, cube, hom, (0, 0, 0, 0))
    for anchor in [(0, 0, 0), (0, 0, 0, 8)]:
        with pytest.raises(ValueError, match="names no face"):
            verify_covering(cube, cube, hom, anchor)
    # the cover's rotations are not symmetries of the cube, and the cube's
    # reflections are not rotations of Roli's cube
    with pytest.raises(ValueError, match="is not in the group"):
        verify_covering(cube, cube, _identity_hom(group_cover_rotation()), (0, 0, 0, 0))
    with pytest.raises(ValueError, match="is not in the group"):
        verify_covering(cube, build_roli().structure, hom, (0, 0, 0, 0))


def _triangle(a):
    """The triangle from the reflections rho1, rho2."""
    return polytope_from_reflections(ConcreteGroup.generate({"a": a.rho1, "b": a.rho2}))


def _cyclic_geometry(c):
    """The rank-1 coset geometry of the cyclic group <c> on its elements."""
    group = ConcreteGroup.generate({"c": c})
    return CosetGeometry(group, [group.subgroup([group.identity])])


def _rotary_pair(cycle):
    """<s1, s2> with s1 = s2 = one permutation of four points."""
    c = SignedPerm.from_cycles(4, [cycle])
    return ConcreteGroup.generate({"s1": c, "s2": c})


def _flip_after_identity(a):
    """<s1, s2> with s1 the identity and s2 = rho0: every relation and
    every intersection holds."""
    return ConcreteGroup.generate({"s1": SignedPerm.identity(4), "s2": a.rho0})


def _rotary_geometry(group):
    """The cosets of <s2>, <s1 s2>, <s1>, with no hypothesis checked."""
    s1, s2 = group.generator_list()
    return CosetGeometry(group, [group.subgroup([s2]), group.subgroup([s1 * s2]),
                                 group.subgroup([s1])])


def _digon(a):
    """The digon {2} from two commuting sign flips, and z = rho0 rho1, its
    central involution: it fixes no face, but <rho0, z> = <rho1, z>."""
    digon = polytope_from_reflections(ConcreteGroup.generate(
        {"a": a.rho0, "b": a.rho0.conjugate(a.rho1)}))
    rho0, rho1 = digon.group.generator_list()
    return digon, rho0 * rho1


def _segment(a):
    """The segment {} from rho0, and z = rho0: it fixes neither vertex."""
    return polytope_from_reflections(ConcreteGroup.generate({"r": a.rho0})), a.rho0


def _quotient_geometry(p, z):
    """The cosets of the subgroups H_j<z>, with no hypothesis checked."""
    return CosetGeometry(p.group, [p.group.subgroup(sub.generator_list() + [z])
                                   for sub in p.subgroups])


# a structure that breaks a construction's hypothesis, built without the
# construction -> a function of the atlas that builds it
UNCHECKED = {
    "rotations-intersection": lambda a: _rotary_geometry(_rotary_pair((1, 2, 3, 4))),
    "rotations-relations": lambda a: _rotary_geometry(_rotary_pair((1, 2, 3))),
    "rotations-trivial-sigma": lambda a: _rotary_geometry(_flip_after_identity(a)),
    "quotient-intersection": lambda a: _quotient_geometry(*_digon(a)),
    "quotient-of-the-segment": lambda a: _quotient_geometry(*_segment(a)),
}


@pytest.mark.parametrize("name", sorted(UNCHECKED))
def test_broken_hypothesis_gives_no_polytope(name, atlas):
    # each case of FAILURES that a construction's own check rejects fails
    # the oracle too, when its coset geometry is built directly
    with pytest.raises(CheckFailed) as exc:
        UNCHECKED[name](atlas).validate_polytope()
    assert exc.value.name == "polytope.diamond"


def test_broken_hypotheses_fail_their_checks_under_optimize():
    names = sorted(UNCHECKED)
    code = ("import test_polycore as t\n"
            "from polytope_forge.cubefamily import build_atlas\n"
            "from polytope_forge.groupcore import CheckFailed\n"
            f"for name in {names!r}:\n"
            "    try:\n"
            "        t.FAILURES[name][0](build_atlas())\n"
            "    except CheckFailed as err:\n"
            "        print(err.name, repr(err.witness))\n")
    path = os.pathsep.join([str(Path(polytope_forge.__file__).resolve().parents[1]),
                            str(Path(__file__).resolve().parent)])
    run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert run.returncode == 0, run.stderr
    atlas = build_atlas()
    assert run.stdout.splitlines() == [f"{FAILURES[name][1]} {FAILURES[name][2](atlas)!r}"
                                       for name in names]


# failure -> (what fails, given the atlas; the check it names; its witness)
FAILURES = {
    "rotations-intersection": (
        lambda a: polytope_from_rotations(_rotary_pair((1, 2, 3, 4))),
        "rotations.intersection-condition", lambda a: (["s1"], ["s2"])),
    "rotations-relations": (lambda a: polytope_from_rotations(_rotary_pair((1, 2, 3))),
                            "rotations.relations", lambda a: ["s1", "s2"]),
    "rotations-trivial-sigma": (lambda a: polytope_from_rotations(_flip_after_identity(a)),
                                "rotations.generators-nontrivial", lambda a: ["s1"]),
    "quotient-intersection": (lambda a: central_quotient(*_digon(a)),
                              "quotient.intersection-condition", lambda a: (0, 1)),
    "quotient-of-the-segment": (lambda a: central_quotient(*_segment(a)),
                                "quotient.generators-stay-involutions", lambda a: "r"),
    "edge-outside": (lambda a: ColoredGraph(("a", "b"), {frozenset("ac"): 1}, 1),
                     "colouring.edge-joins-two-vertices", lambda a: frozenset("ac")),
    "colour-2-of-1": (lambda a: ColoredGraph(("a", "b"), {frozenset("ab"): 2}, 1),
                      "colouring.colour-in-range", lambda a: (2, 1)),
    "bare-vertex": (lambda a: ColoredGraph(("a", "b", "c"), {frozenset("ab"): 1}, 1),
                    "colouring.every-colour-at-every-vertex", lambda a: "c"),
    "cube-onto-map": (lambda a: verify_covering(build_cube().structure, build_map().structure,
                                                _identity_hom(group_cube()), (0, 0, 0)),
                      "covering.same-rank", lambda a: (4, 3)),
    "face-unmapped": (lambda a: _verify_covering_by_faces(
                          build_cube().structure, build_cube().structure,
                          {ref: ref for ref in build_cube().structure.all_refs() if ref != (2, 3)}),
                      "covering.face-map-covers-every-face", lambda a: (2, 3)),
    "vertex-stabilizer-on-the-cube": (
        lambda a: verify_covering(build_cube().structure, build_cube().structure,
                                  _identity_hom(build_cube().structure.subgroups[0]),
                                  build_cube().structure.base_flag),
        "covering.transitive-on-faces", lambda a: (0, 0)),
    # transitive on vertices and on edges, but not on the six incident pairs
    "rotations-of-the-triangle": (
        lambda a: verify_covering(_triangle(a), _triangle(a),
                                  _identity_hom(_triangle(a).group.subgroup([a.rho1 * a.rho2])),
                                  _triangle(a).base_flag),
        "covering.transitive-on-faces", lambda a: (0, 1)),
    "roli-anchor-not-a-flag": (
        lambda a: verify_covering(build_cover().structure, build_roli().structure,
                                  _cover_homs(a)[1], (0, 0, 0, 1)),
        "covering.anchor-is-a-flag", lambda a: (1, 3)),
    "cube-rotations-onto-the-cube": (
        lambda a: verify_covering(build_cube().structure, build_cube().structure,
                                  _identity_hom(group_rotation_sigma()),
                                  build_cube().structure.base_flag),
        "covering.onto", lambda a: (192, 384)),
    # a flag of Roli's cube whose stabilizers are not the images of hom_r's
    "roli-wrong-anchor": (
        lambda a: verify_covering(build_cover().structure, build_roli().structure,
                                  _cover_homs(a)[1], (0, 0, 0, 2)),
        "covering.stabilizers-fix-the-anchor", lambda a: (3, 0)),
    # kappa_i -> sigma_i_bar, without the conjugation by rho0 that
    # _project_second_mirror needs
    "left-unconjugated": (
        lambda a: verify_covering(build_cover().structure, build_enantiomorph().structure,
                                  extend_homomorphism(group_cover_rotation(), {
                                      "kappa1": a.sigma1_bar, "kappa2": a.sigma2_bar,
                                      "kappa3": a.sigma3_bar}), _left_anchor()),
        "covering.stabilizers-fix-the-anchor", lambda a: (0, 3)),
    # zeta lies in every face subgroup of the hemi-cube's coset geometry of
    # the cube group, so the cube's own stabilizers are half as large
    "cube-onto-the-hemi-cube": (
        lambda a: verify_covering(build_cube().structure, build_hemi().structure,
                                  _identity_hom(group_cube()),
                                  build_hemi().structure.base_flag),
        "covering.stabilizer-orders", lambda a: (0, 0)),
    "zeta-of-the-cover": (lambda a: central_quotient(build_cube().structure, a.tau0),
                          "quotient.element-in-the-group", lambda a: a.tau0),
    "order-4-centre": (lambda a: central_quotient(_cyclic_geometry(a.sigma1 ** 2),
                                                  a.sigma1 ** 2),
                       "quotient.element-an-involution", lambda a: a.sigma1 ** 2),
    "intersection": (lambda a: polytope_from_reflections(ConcreteGroup.generate(
                         {"a": a.rho0, "b": a.rho1, "c": a.zeta * a.rho0})),
                     "reflections.intersection-condition", lambda a: ["a", "b", "c"]),
}


@pytest.mark.parametrize("failure", sorted(FAILURES))
def test_failure_names_its_check_and_witness(failure, atlas):
    run, name, witness = FAILURES[failure]
    with pytest.raises(CheckFailed) as exc:
        run(atlas)
    assert (exc.value.name, exc.value.witness) == (name, witness(atlas))


# -- polytope axioms on a hand-built poset ---------------------------------------


def test_validate_polytope_diamond_failure():
    # a triangle with one edge removed: the diamond condition fails
    faces = [["a", "b", "c"], ["ab", "bc"]]
    pairs = [((0, "a"), (1, "ab")), ((0, "b"), (1, "ab")),
             ((0, "b"), (1, "bc")), ((0, "c"), (1, "bc"))]
    struct = RankedIncidenceStructure(2, faces, pairs)
    with pytest.raises(CheckFailed) as exc:
        struct.validate_polytope()
    assert exc.value.name == "polytope.diamond"


def test_validate_polytope_accepts_polygon():
    n = 5
    faces = [[f"v{i}" for i in range(n)], [f"e{i}" for i in range(n)]]
    pairs = []
    for i in range(n):
        pairs.append(((0, f"v{i}"), (1, f"e{i}")))
        pairs.append(((0, f"v{(i + 1) % n}"), (1, f"e{i}")))
    struct = RankedIncidenceStructure(2, faces, pairs)
    struct.validate_polytope()
    assert struct.schlafli_type() == (5,)
    assert len(struct.flags()) == 2 * n


def _from_vertex_sets(faces_by_rank):
    """Faces given as sorted vertex tuples; incident when one contains the other."""
    refs = [(r, face) for r, faces in enumerate(faces_by_rank) for face in faces]
    pairs = [(a, b) for a, b in itertools.combinations(refs, 2)
             if a[0] != b[0] and set(a[1]) <= set(b[1])]
    return RankedIncidenceStructure(len(faces_by_rank), faces_by_rank, pairs)


def test_validate_polytope_rejects_face_outside_every_flag():
    # a tetrahedron plus one vertex incident to nothing
    faces = [[(v,) for v in range(5)]] + [
        list(itertools.combinations(range(4), k)) for k in (2, 3)]
    struct = _from_vertex_sets(faces)
    with pytest.raises(CheckFailed) as exc:
        struct.validate_polytope()
    assert exc.value.name == "polytope.chain-in-a-flag"
    assert exc.value.witness == [(0, 4)]


def test_validate_polytope_rejects_empty_rank():
    struct = RankedIncidenceStructure(2, [["a", "b"], []], [])
    with pytest.raises(CheckFailed) as exc:
        struct.validate_polytope()
    assert exc.value.name == "polytope.no-empty-rank"


def test_triangular_prism_is_a_polytope_but_not_equivelar():
    edges = ([(i, (i + 1) % 3) for i in range(3)] + [(3 + i, 3 + (i + 1) % 3) for i in range(3)]
             + [(i, i + 3) for i in range(3)])
    squares = [(i, (i + 1) % 3, i + 3, (i + 1) % 3 + 3) for i in range(3)]
    faces = [[(v,) for v in range(6)], [tuple(sorted(e)) for e in edges],
             [(0, 1, 2), (3, 4, 5)] + [tuple(sorted(q)) for q in squares]]
    struct = _from_vertex_sets(faces)
    struct.validate_polytope()
    assert struct.f_vector == (6, 9, 5)
    with pytest.raises(CheckFailed) as exc:
        struct.schlafli_type()
    assert exc.value.name == "polytope.equivelar" and exc.value.witness == (1, [3, 4])


def _schlafli_type_by_sections(struct):
    """schlafli_type as it was before it counted incidences: every section
    listed and sorted by `sections`."""
    out = []
    for j in range(1, struct.rank):
        values = {sum(1 for ref in mid if ref[0] == j - 1)
                  for _, _, mid in struct.sections(j - 2, j + 1)}
        check(len(values) == 1, "polytope.equivelar", (j, sorted(values)))
        out.append(values.pop())
    return tuple(out)


def _type_or_failure(schlafli_type):
    try:
        return schlafli_type()
    except CheckFailed as exc:
        return exc.name, exc.witness


def _prism(faces_by_rank):
    """The faces, as vertex tuples, of the prism over a polytope given so:
    F x {0}, F x {1} and F x [0, 1], with the vertex (v, s) numbered 2v + s,
    one rank up."""
    n = len(faces_by_rank)
    whole = tuple(sorted({v for (v,) in faces_by_rank[0]}))

    def at(face, ends):
        return tuple(sorted(2 * v + s for v in face for s in ends))

    return [
        [at(f, (s,)) for f in (faces_by_rank[k] if k < n else [whole]) for s in (0, 1)]
        + ([at(f, (0, 1)) for f in faces_by_rank[k - 1]] if k else [])
        for k in range(n + 1)]


def _simplex(n):
    return [list(itertools.combinations(range(n + 1), k + 1)) for k in range(n)]


_SEGMENT = [[(0,), (1,)]]


@pytest.mark.parametrize("make", [
    lambda: build_cube().structure,
    lambda: build_cube().colourful,
    lambda: build_hemi().structure,
    lambda: build_hemi().colourful,
    lambda: build_map().structure,
    lambda: build_roli().structure,
    lambda: build_enantiomorph().structure,
    lambda: build_cover().structure,
    lambda: _bn_polytope(2),
    lambda: _bn_polytope(5),
    lambda: _wythoff(ConcreteGroup.generate({"r": build_atlas().rho0})),
    lambda: _from_vertex_sets(_prism(_SEGMENT)),
    lambda: _from_vertex_sets(_prism(_simplex(2))),
    lambda: _from_vertex_sets(_prism(_simplex(3))),
    lambda: _from_vertex_sets(_prism([[(v,) for v in range(4)],
                                      [(0, 1), (1, 2), (2, 3), (0, 3)]])),
    lambda: _from_vertex_sets(_prism(_prism(_prism(_SEGMENT)))),
], ids=["cube", "cube-colourful", "hemi", "hemi-colourful", "map", "roli", "enantiomorph",
        "cover", "square", "b5", "segment", "segment-prism", "triangular-prism",
        "tetrahedral-prism", "square-prism", "tesseract"])
def test_schlafli_type_against_the_sections_oracle(make):
    struct = make()
    struct.validate_polytope()
    assert _type_or_failure(struct.schlafli_type) == _type_or_failure(
        lambda: _schlafli_type_by_sections(struct))


def test_schlafli_type_of_prisms():
    assert _from_vertex_sets(_prism(_SEGMENT)).schlafli_type() == (4,)
    tesseract = _from_vertex_sets(_prism(_prism(_prism(_SEGMENT))))
    assert tesseract.f_vector == (16, 32, 24, 8) and tesseract.schlafli_type() == (4, 3, 3)
    # triangles and squares: the non-equivelar case, in rank 3 and rank 4
    for struct in map(_from_vertex_sets, (_prism(_simplex(2)), _prism(_simplex(3)))):
        with pytest.raises(CheckFailed) as exc:
            struct.schlafli_type()
        assert exc.value.name == "polytope.equivelar" and exc.value.witness == (1, [3, 4])


def test_schlafli_type_on_seeded_random_incidence_structures():
    # any ranked incidence structure, polytope or not: a section counts the
    # (j-1)-faces incident with both its ends, so the two agree everywhere
    rng = random.Random(42)
    verdicts = collections.Counter()
    for _ in range(400):
        rank = rng.randint(1, 5)
        faces = [list(range(rng.randint(0, 3))) for _ in range(rank)]
        refs = [(r, k) for r, keys in enumerate(faces) for k in keys]
        pairs = [(a, b) for a, b in itertools.combinations(refs, 2)
                 if a[0] != b[0] and rng.random() < 0.7]
        struct = RankedIncidenceStructure(rank, faces, pairs)
        found = _type_or_failure(struct.schlafli_type)
        assert found == _type_or_failure(lambda: _schlafli_type_by_sections(struct))
        if found and found[0] == "polytope.equivelar":
            j = found[1][0]
            verdicts["bottom" if j == 1 else "top" if j == rank - 1 else "middle"] += 1
        else:
            verdicts["type"] += 1
    # types, and failures at sections from the bottom, to the top and between
    assert all(verdicts[k] for k in ("type", "bottom", "top", "middle")), verdicts


def test_validate_polytope_rejects_disconnected_section():
    # two disjoint squares satisfy the diamond condition but not connectivity
    faces = [[f"v{i}" for i in range(8)], [f"e{i}" for i in range(8)]]
    pairs = []
    for i in range(8):
        square, k = divmod(i, 4)
        pairs.append(((0, f"v{i}"), (1, f"e{i}")))
        pairs.append(((0, f"v{4 * square + (k + 1) % 4}"), (1, f"e{i}")))
    struct = RankedIncidenceStructure(2, faces, pairs)
    with pytest.raises(CheckFailed) as exc:
        struct.validate_polytope()
    assert exc.value.name == "polytope.sections-connected"


def _rebuilt(struct, drop=(), add=()):
    """A fresh structure on the same faces, with the incident pairs `drop`
    removed and the pairs `add` added (faces given as refs)."""
    pairs = {frozenset((a, b)) for a in struct.all_refs() for b in struct._inc[a]}
    pairs = (pairs - {frozenset(p) for p in drop}) | {frozenset(p) for p in add}
    return RankedIncidenceStructure(
        struct.rank, struct.faces_by_rank,
        [tuple((ref[0], struct.key(ref)) for ref in sorted(p)) for p in pairs])


def test_validate_polytope_rejects_intransitive_incidence():
    # edge (1, 24) still lies on squares (2, 8) and (2, 16), which both lie
    # on facet (3, 2): without the pair itself the structure is not a poset
    cube = build_cube().structure
    struct = _rebuilt(cube, drop=[((1, 24), (3, 2))])
    with pytest.raises(CheckFailed) as exc:
        struct.validate_polytope()
    assert exc.value.name == "polytope.incidence-transitive"
    assert exc.value.witness == ((1, 24), (2, 8), (3, 2))


def test_constructor_rejects_incidence_with_unknown_face():
    with pytest.raises(ValueError) as exc:
        RankedIncidenceStructure(2, [["a", "b"], ["ab"]],
                                 [((0, "a"), (1, "ab")), ((0, "c"), (1, "ab"))])
    assert exc.value.args == ("incidence names an unknown face", (0, "c"))


def _flag_graph(struct):
    """flag -> the flags adjacent to it: flags that agree away from one rank
    j are j-adjacent, found by grouping the flags on the other ranks."""
    graph = {f: set() for f in struct.flags()}
    for j in range(struct.rank):
        groups = collections.defaultdict(list)
        for f in struct.flags():
            groups[f[:j] + f[j + 1:]].append(f)
        for group in groups.values():
            for f in group:
                graph[f].update(g for g in group if g != f)
    return graph


def _connected(adj):
    """networkx's connectivity of the graph node -> neighbours; an empty
    graph counts as connected."""
    graph = nx.Graph()
    graph.add_nodes_from(adj)
    graph.add_edges_from((a, b) for a in adj for b in adj[a])
    return not adj or nx.is_connected(graph)


def _walk_validate(struct):
    """The polytope check as it was before the local chain axiom, kept as
    an oracle: the chain axiom walks every chain and looks it up in an
    index from each face to the flags that contain it; connectivity is
    networkx's, and it still includes the flag graph, which the package
    no longer checks because strong connectivity implies it."""
    n = struct.rank
    if any(count == 0 for count in struct.f_vector):
        raise CheckFailed("polytope.no-empty-rank", struct.f_vector)
    for r in range(-1, n - 1):
        for lo, hi, mid in struct.sections(r, r + 2):
            if len(mid) != 2:
                raise CheckFailed("polytope.diamond", (lo, hi, mid))

    containing = {ref: set() for ref in struct.all_refs()}
    for idx, flag in enumerate(struct.flags()):
        for ref in enumerate(flag):
            containing[ref].add(idx)

    def walk(chain):
        if chain and not set.intersection(*(containing[ref] for ref in chain)):
            raise CheckFailed("polytope.chain-in-a-flag", chain)
        top = chain[-1][0] if chain else -1
        for cand in sorted(x for x in struct._common(chain) if x[0] > top):
            walk(chain + [cand])

    walk([])

    for lo_rank in range(-1, n - 2):
        for hi_rank in range(lo_rank + 3, n + 1):
            for lo, hi, mid in struct.sections(lo_rank, hi_rank):
                if not _connected({a: struct._inc[a] & set(mid) for a in mid}):
                    raise CheckFailed("polytope.sections-connected", (lo, hi))
    if not _connected(_flag_graph(struct)):
        raise CheckFailed("polytope.flag-graph-connected")


def _failure(validate):
    """The CheckFailed that validate() raises, None when it passes."""
    try:
        validate()
    except CheckFailed as err:
        return err
    return None


def test_local_chain_axiom_against_walk_oracle():
    # perturbed structures: 0-2 incident pairs removed, 0-2 non-incident
    # pairs added.  The walk's rejections are the local check's, with the
    # same axiom, unless intransitive incidence is found first; a structure
    # only the local check rejects is not a poset.
    rng = random.Random(8)
    intransitive = "polytope.incidence-transitive"
    outcomes = collections.Counter()
    for make in (lambda: build_cube().structure, lambda: build_map().structure,
                 lambda: build_roli().structure, lambda: build_enantiomorph().structure):
        base = make()
        refs = base.all_refs()
        incident = sorted((a, b) for a in refs for b in base._inc[a] if a < b)
        for _ in range(40):
            add = set()
            for _ in range(rng.randint(0, 2)):
                a, b = sorted(rng.sample(refs, 2))
                if a[0] != b[0] and not base.incident(a, b):
                    add.add((a, b))
            struct = _rebuilt(base, drop=rng.sample(incident, rng.randint(0, 2)), add=add)
            walk = _failure(lambda: _walk_validate(struct))
            local = _failure(struct.validate_polytope)
            outcome = walk and walk.name, local and local.name
            assert outcome[1] in (outcome[0], intransitive), outcome
            if outcome[1] == intransitive:
                f, g, h = local.witness
                assert f[0] < g[0] < h[0] and struct.incident(f, g) \
                    and struct.incident(g, h) and not struct.incident(f, h)
            outcomes[outcome] += 1
    # the seed reaches each outcome that tells the two checks apart
    assert outcomes[None, None] and outcomes[None, intransitive]
    assert outcomes["polytope.chain-in-a-flag", "polytope.chain-in-a-flag"]


@pytest.mark.parametrize("make", [
    lambda: build_cube().structure,
    lambda: build_hemi().structure,
    lambda: build_map().structure,
    lambda: build_roli().structure,
    lambda: build_enantiomorph().structure,
    lambda: build_cover().structure,
    lambda: build_cube().colourful,
    lambda: build_hemi().colourful,
    lambda: _bn_polytope(3),
    lambda: _bn_polytope(4),
    lambda: _bn_polytope(5),
], ids=["cube", "hemi", "map", "roli", "enantiomorph", "cover", "cube-colourful",
        "hemi-colourful", "b3", "b4", "b5"])
def test_flag_graph_is_connected(make):
    # validate_polytope leaves flag connectivity to strong connectivity
    # (McMullen & Schulte, 2A); networkx confirms it on every structure
    # the builds make
    adj = _flag_graph(make())
    assert adj and _connected(adj)


# -- graph isomorphism, against networkx as an independent oracle ------------------


def _nx_graph(adj, label):
    graph = nx.Graph()
    graph.add_nodes_from((v, {"label": label(v)}) for v in adj)
    graph.add_edges_from((v, w) for v in adj for w in adj[v])
    return graph


def _agree(adj_a, adj_b, label_a=lambda v: None, label_b=lambda v: None) -> int:
    """Check that isomorphisms and vf2pp find the same mappings; return
    their number."""
    ours = {frozenset(m.items()) for m in isomorphisms(adj_a, adj_b, label_a, label_b)}
    theirs = {frozenset(m.items()) for m in nx.vf2pp_all_isomorphisms(
        _nx_graph(adj_a, label_a), _nx_graph(adj_b, label_b), node_label="label")}
    assert ours == theirs
    return len(ours)


def _rank(ref):
    return ref[0]


def test_levi_graph_automorphisms_agree_with_networkx():
    levi = _adjacency(build_map().edges)
    assert _agree(levi, levi) == 96
    assert _agree(levi, gp83_graph()) > 0


def test_map_incidence_automorphisms_agree_with_networkx():
    struct = build_map().structure
    assert _agree(struct._inc, struct._inc, _rank, _rank) == 96
    assert len(list(isomorphisms(struct._inc, struct._inc, _rank, _rank))) == 96


@pytest.mark.parametrize("build", [build_cube, build_hemi])
def test_colourful_and_coset_structures_agree_with_networkx(build):
    bundle = build()
    a, b = bundle.colourful, bundle.structure
    assert next(isomorphisms(a._inc, b._inc, _rank, _rank), None) is not None
    assert nx.vf2pp_is_isomorphic(_nx_graph(a._inc, _rank), _nx_graph(b._inc, _rank),
                                  node_label="label")
    assert a.isomorphic_to(b)


def test_non_isomorphic_cubic_graphs():
    # K_{3,3} and the triangular prism: both cubic on 6 vertices
    k33 = _adjacency((i, j) for i in range(3) for j in range(3, 6))
    prism = _adjacency([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                        (0, 3), (1, 4), (2, 5)])
    assert _agree(k33, prism) == 0
    assert _agree(k33, k33) == 72 and _agree(prism, prism) == 12


def test_labels_must_match():
    hexagon = _adjacency((i, (i + 1) % 6) for i in range(6))
    # adjacent equal labels against opposite equal labels: same label and
    # degree counts, no isomorphism
    runs, spread = (0, 0, 1, 1, 2, 2), (0, 1, 2, 0, 1, 2)
    assert _agree(hexagon, hexagon, runs.__getitem__, spread.__getitem__) == 0
    assert _agree(hexagon, hexagon, runs.__getitem__, (1, 1, 2, 2, 0, 0).__getitem__) == 1
    # a label outside the other graph's labels
    assert _agree(hexagon, hexagon, runs.__getitem__, (0, 0, 1, 1, 2, 3).__getitem__) == 0


@pytest.mark.parametrize("adj, count", [
    (_adjacency(nx.cycle_graph(5).edges), 10),
    (_adjacency(nx.complete_graph(4).edges), 24),
    (_adjacency(nx.petersen_graph().edges), 120),
    (_adjacency(nx.hypercube_graph(3).edges), 48),
    (gp83_graph(), 96),
    (_adjacency(nx.frucht_graph().edges), 1),
    (_adjacency(nx.disjoint_union(nx.cycle_graph(4), nx.cycle_graph(4)).edges), 128),
    ({}, 1),
    ({0: set()}, 1),
], ids=["c5", "k4", "petersen", "3-cube", "gp83", "frucht", "two-c4", "empty", "node"])
def test_automorphism_count_of_known_graphs(adj, count):
    assert automorphism_count(adj) == count
    assert len(list(isomorphisms(adj, adj))) == count


@st.composite
def _small_graphs(draw) -> dict:
    """A graph on at most 7 nodes, each pair an edge or not, so disconnected
    graphs and isolated nodes are drawn too."""
    n = draw(st.integers(0, 7))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    adj = {v: set() for v in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


@settings(deadline=None)  # seven isolated nodes have 5,040 automorphisms to list
@given(_small_graphs())
def test_automorphism_count_agrees_with_enumeration(adj):
    count = automorphism_count(adj)
    assert count == len(list(isomorphisms(adj, adj)))
    if adj:  # vf2pp yields no mapping of the graph without nodes
        graph = _nx_graph(adj, lambda v: None)
        assert count == sum(1 for _ in nx.vf2pp_all_isomorphisms(graph, graph))


def test_automorphism_count_of_the_levi_graph_searches_a_fifth_as_much(monkeypatch):
    # one first-hit search per orbit point, against listing all 96: the
    # count of positions the backtracking expands stands in for its time
    levi = _adjacency(build_map().edges)
    expanded = []
    candidates = polycore._Search.candidates
    monkeypatch.setattr(polycore._Search, "candidates",
                        lambda self, k: expanded.append(k) or candidates(self, k))
    assert sum(1 for _ in isomorphisms(levi, levi)) == 96
    listing = len(expanded)
    expanded.clear()
    assert automorphism_count(levi) == 96
    assert len(expanded) * 5 <= listing, (len(expanded), listing)


def _imported(args: tuple) -> set:
    """Every module a fresh interpreter imports to run `args`, read from
    its -X importtime report."""
    src = str(Path(polytope_forge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-X", "importtime", *args], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return {line.rsplit("|", 1)[1].strip() for line in run.stderr.splitlines()
            if line.startswith("import time:")}


_CLI = ("-m", "polytope_forge.cli")
# every cold command pays for these; only the Möbius–Kantor rows, `build mk`
# and the plane projection need mkconfig, and only JSON output needs json
_NOT_AT_START = {"networkx", "dataclasses", "inspect", "fractions", "decimal",
                 "polytope_forge.mkconfig", "json"}
# mkconfig's arithmetic is on integers: no command builds a Fraction
_NO_FRACTIONS = {"fractions", "decimal"}


@pytest.mark.parametrize("args, absent, present", [
    (("-c", "import polytope_forge.cli"), _NOT_AT_START, set()),
    (("-c", "import polytope_forge.polycore"), {"dataclasses"}, set()),  # the ladder's path
    ((*_CLI, "build", "cube", "--format", "json"), {"polytope_forge.mkconfig"}, {"json"}),
    ((*_CLI, "verify", "--all"), _NO_FRACTIONS | {"json"}, {"polytope_forge.mkconfig"}),
    ((*_CLI, "verify", "--all", "--format", "json"), _NO_FRACTIONS,
     {"polytope_forge.mkconfig", "json"}),
    ((*_CLI, "build", "mk", "--format", "json"), _NO_FRACTIONS,
     {"polytope_forge.mkconfig", "json"}),
    ((*_CLI, "project", "--preset", "plane"), _NO_FRACTIONS | {"json"},
     {"polytope_forge.mkconfig"}),
    ((*_CLI, "verify", "--list"), _NOT_AT_START, set()),
], ids=("import-cli", "import-polycore", "build-cube", "verify-all", "verify-all-json",
        "build-mk-json", "project-plane", "verify-list"))
def test_import_footprint(args, absent, present):
    imported = _imported(args)
    assert not absent & imported, absent & imported
    assert present <= imported, present - imported
