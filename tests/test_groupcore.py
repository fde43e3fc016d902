"""Group engine: closures, centres, orbits, homomorphisms, conditions."""

import collections
import operator
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polytope_forge import cubefamily
from polytope_forge.cubefamily import (
    build_atlas,
    build_hemi,
    group_cover,
    group_cover_rotation,
    group_cube,
    group_map_rotation,
    group_rotation,
    group_rotation_sigma,
    presentation_cover,
    presentation_map_rotation,
)
from polytope_forge.groupcore import (
    _codec,
    _point_decoder,
    _same,
    DEFAULT_CAP,
    ActionTable,
    CapExceeded,
    CheckFailed,
    ConcreteGroup,
    Homomorphism,
    HomomorphismFailure,
    Presentation,
    broken_relator,
    enumerate_cosets,
    eval_word,
    extend_homomorphism,
    intersection_condition,
    orbit,
    setwise_stabilizer,
    stabilizer,
    string_condition,
)
from polytope_forge.polycore import polytope_from_reflections
from polytope_forge.signedperm import SignedPerm, block_pair
from test_checks import clear_build_caches
from test_signedperm import from_points


@pytest.fixture(scope="module")
def atlas():
    return build_atlas()


def test_closure_orders(atlas):
    assert len(group_cube()) == 384
    assert len(group_map_rotation()) == 48
    assert len(ConcreteGroup.generate([SignedPerm.identity(4)])) == 1
    assert len(ConcreteGroup.generate([atlas.gamma1, atlas.gamma2])) == 24


def test_closure_cap(atlas):
    with pytest.raises(CapExceeded):
        ConcreteGroup.generate([atlas.rho0, atlas.rho1, atlas.rho2, atlas.rho3],
                               cap=100)


def test_rotation_group_is_the_positive_determinant_half(atlas):
    rot = group_rotation()
    assert rot.element_set == frozenset(
        g for g in group_cube() if g.determinant() == 1)


def test_centre_of_full_group(atlas):
    centre = group_cube().centre()
    assert centre.element_set == {SignedPerm.identity(4), atlas.zeta}


def test_centre_of_map_rotation_group(atlas):
    centre = group_map_rotation().centre()
    fourth = atlas.sigma1 ** 4
    assert fourth == atlas.zeta
    assert centre.element_set == {SignedPerm.identity(4), fourth}


def test_centre_of_cover_rotation_group(atlas):
    ident4 = SignedPerm.identity(4)
    expected = {
        SignedPerm.identity(8),
        block_pair(atlas.zeta, ident4),
        block_pair(ident4, atlas.zeta),
        block_pair(atlas.zeta, atlas.zeta),
    }
    assert group_cover_rotation().centre().element_set == expected


@pytest.mark.parametrize("make", [group_cube, group_map_rotation, group_cover_rotation,
                                  group_cover])
def test_centre_reads_the_action_table(make, monkeypatch):
    group = make()
    gens = group.generator_list()
    by_products = [z for z in group if all(z * g == g * z for g in gens)]
    calls = []
    product = SignedPerm.__mul__
    monkeypatch.setattr(SignedPerm, "__mul__", lambda a, b: calls.append(b) or product(a, b))
    assert list(group.centre().elements) == by_products
    assert calls == []


def _centre_by_words(group):
    """The former `centre`: g * z as g (a column of the identity's row)
    walked along z's word, rebuilt from the parents for every element."""
    act = group.table().act
    words = map(group.word, range(len(group)))
    central = [z for z, row, word in zip(group.elements, act, words)
               if all(row[k] == group.walk(g, word) for k, g in enumerate(act[0]))]
    return group.subgroup(central)


def _assert_centre_matches_the_words(group):
    centre, oracle = group.centre(), _centre_by_words(group)
    assert centre.elements == oracle.elements and centre.table() == oracle.table()


@pytest.mark.parametrize("make", [
    group_cube, group_rotation, group_rotation_sigma, group_map_rotation,
    cubefamily.group_petrie_stabilizer, group_cover_rotation, group_cover,
    cubefamily.group_unitary, lambda: _bn_group(3), lambda: _bn_group(4),
    lambda: _bn_group(5), lambda: ConcreteGroup.generate({"r": build_atlas().rho0}),
    lambda: ConcreteGroup.generate([SignedPerm.identity(3)]),
], ids=["cube", "rotation", "rotation-sigma", "map-rotation", "petrie-stabilizer",
        "cover-rotation", "cover", "unitary", "b3", "b4", "b5", "segment", "trivial"])
def test_centre_equals_the_word_walk(make):
    _assert_centre_matches_the_words(make())


def test_centre_equals_the_word_walk_on_seeded_random_groups():
    rng = random.Random(38)
    orders = set()
    for _ in range(40):
        group = _random_string_group(rng)
        _assert_centre_matches_the_words(group)
        orders.add(len(group.centre()))
    for _ in range(40):
        n = rng.randint(2, 5)
        group = ConcreteGroup.generate(
            [_random_signed_perm(rng, n) for _ in range(rng.randint(1, 3))])
        _assert_centre_matches_the_words(group)
        orders.add(len(group.centre()))
    assert len(orders) >= 3, orders  # trivial and larger centres are both drawn


def test_orbit_of_base_vertex_is_all_sign_vectors(atlas):
    pts = orbit(group_cube(), atlas.v)
    assert len(pts) == 16
    assert all(set(p) <= {1, -1} for p in pts)


def test_vertex_stabilizer(atlas):
    stab = stabilizer(group_cube(), atlas.v)
    # two oracles: orbit-stabilizer, and the coordinate-permuting subgroup
    assert len(stab) * 16 == 384
    perm_subgroup = ConcreteGroup.generate([atlas.rho1, atlas.rho2, atlas.rho3])
    assert stab.element_set == perm_subgroup.element_set


def test_orbit_of_fixed_point_is_singleton(atlas):
    sub = ConcreteGroup.generate([atlas.sigma2, atlas.sigma3])
    assert orbit(sub, atlas.v) == [atlas.v]


def test_orbit_stabilizer_theorem_across_points(atlas):
    g = group_cube()
    for p in [(1, 1, 1, 1), (1, 1, 1, -1), (1, -1, 1, -1), (-1, -1, -1, -1)]:
        assert len(orbit(g, p)) * len(stabilizer(g, p)) == len(g)


def test_setwise_stabilizer_of_octagon(atlas):
    k = setwise_stabilizer(group_cube(), atlas.base_octagon.vertex_set())
    assert len(k) == 16
    assert atlas.mu0 in k and atlas.mu1 in k
    k_plus = setwise_stabilizer(group_rotation(), atlas.base_octagon.vertex_set())
    assert len(k_plus) == 16  # the stabilizer already sits inside the rotations
    assert setwise_stabilizer(
        group_cube(),
        {p for p in orbit(group_cube(), atlas.v)}).element_set \
        == group_cube().element_set


def test_extend_homomorphism_success_on_map_rotations(atlas):
    hom = extend_homomorphism(group_map_rotation(), {
        "sigma1": atlas.sigma1.inverse(),
        "sigma2": atlas.sigma1 * atlas.sigma1 * atlas.sigma2,
    })
    assert isinstance(hom, Homomorphism)
    assert hom.is_involutory()


def _eval_name_word(images, word, identity):
    e = identity
    for name in word:
        e = e * images[name]
    return e


def _witness_pair_inconsistent(src, images, word_a, word_b) -> bool:
    """Two generator-name words certify a failure: equal in src, unequal
    under the images."""
    if _eval_name_word(src.generators, word_a, src.identity) \
            != _eval_name_word(src.generators, word_b, src.identity):
        return False
    some_image = next(iter(images.values()))
    target_identity = some_image * some_image.inverse()
    return _eval_name_word(images, word_a, target_identity) \
        != _eval_name_word(images, word_b, target_identity)


def test_extend_homomorphism_failure_on_full_rotations(atlas):
    images = {
        "sigma1": atlas.sigma1.inverse(),
        "sigma2": atlas.sigma1 * atlas.sigma1 * atlas.sigma2,
        "sigma3": atlas.sigma3,
    }
    failure = extend_homomorphism(group_rotation_sigma(), images)
    assert isinstance(failure, HomomorphismFailure)
    assert not failure
    # the failure's own witness words really are inconsistent
    assert _witness_pair_inconsistent(group_rotation_sigma(), images,
                                      failure.word_a, failure.word_b)
    # the classical witness pair is accepted too; a pair the images keep
    # equal is not, nor one that differs in the source
    assert _witness_pair_inconsistent(group_rotation_sigma(), images,
                                      ("sigma1", "sigma3") * 4, ("sigma1",) * 4)
    assert not _witness_pair_inconsistent(group_rotation_sigma(), images,
                                          ("sigma3",) * 3, ())
    assert not _witness_pair_inconsistent(group_rotation_sigma(), images,
                                          ("sigma1",) * 4, ("sigma3",) * 4)


def test_extend_homomorphism_identity_assignment(atlas):
    rot = group_map_rotation()
    hom = extend_homomorphism(rot, dict(rot.generators))
    assert isinstance(hom, Homomorphism)
    assert all(hom(e) == e for e in rot)


def _coset_reps(group, sub):
    """One representative per right coset (sub)g, in first-appearance order."""
    return [group.elements[min(coset)] for coset in group.right_cosets(sub)]


def test_coset_reps(atlas):
    g = group_cube()
    g0 = g.subgroup([atlas.rho1, atlas.rho2, atlas.rho3])
    assert len(_coset_reps(g, g0)) == 16
    assert _coset_reps(g, g) == [g.identity]
    rot = group_rotation_sigma()
    facet_sub = rot.subgroup([atlas.sigma1, atlas.sigma2])
    assert len(_coset_reps(rot, facet_sub)) == 4
    with pytest.raises(CheckFailed) as exc:
        _coset_reps(group_map_rotation(), g)
    assert exc.value.name == "group.cosets-of-a-subgroup"
    assert exc.value.witness in g and exc.value.witness not in group_map_rotation()
    # the four reflections close to 384 elements, past the map group's 48:
    # the generators are checked, not the closure
    for foreign in ([atlas.rho0], [atlas.rho0, atlas.rho1, atlas.rho2, atlas.rho3]):
        with pytest.raises(CheckFailed) as exc:
            group_map_rotation().subgroup(foreign)
        assert (exc.value.name, exc.value.witness) == ("group.subgroup-inside", atlas.rho0)


def test_string_condition(atlas):
    def condition(gens):
        return string_condition(ConcreteGroup.generate(gens))

    assert condition([atlas.rho0, atlas.rho1, atlas.rho2, atlas.rho3])
    assert condition([atlas.tau0, atlas.tau1, atlas.tau2, atlas.tau3])
    assert condition([atlas.rho0])
    assert not condition([atlas.rho0, atlas.rho2, atlas.rho1])
    with pytest.raises(ValueError):
        condition([atlas.pi])
    # the group version reads the table: it agrees with products
    for gens in ([atlas.rho0, atlas.rho1, atlas.rho2, atlas.rho3],
                 [atlas.rho0, atlas.rho2, atlas.rho1], [atlas.rho0, atlas.rho2, atlas.rho3]):
        assert condition(gens) is all(
            (gens[i] * gens[j]) ** 2 == SignedPerm.identity(gens[i].n)
            for i in range(len(gens)) for j in range(i + 2, len(gens)))


def test_intersection_condition(atlas):
    assert intersection_condition(
        ConcreteGroup.generate([atlas.rho0, atlas.rho1, atlas.rho2, atlas.rho3]))
    assert intersection_condition(
        ConcreteGroup.generate([atlas.tau0, atlas.tau1, atlas.tau2, atlas.tau3]))
    assert intersection_condition(ConcreteGroup.generate([atlas.rho0]))
    # a frozen counterexample that still satisfies the string condition
    bad = [atlas.rho0, atlas.rho1, atlas.zeta * atlas.rho0]
    assert string_condition(ConcreteGroup.generate(bad))
    assert not intersection_condition(ConcreteGroup.generate(bad))


def test_verify_relators(atlas):
    taus = [atlas.tau0, atlas.tau1, atlas.tau2, atlas.tau3]
    assert broken_relator([atlas.sigma1, atlas.sigma2], presentation_map_rotation()) is None
    assert broken_relator(taus, presentation_cover()) is None
    assert broken_relator([atlas.pi], Presentation(1, ())) is None
    # sigma1 has order 8, so sigma1^2 = 1 is the relator it breaks
    assert broken_relator([atlas.sigma1, atlas.sigma2], Presentation(2, ((1, 1),))) == (1, 1)


def test_presentation_validation():
    with pytest.raises(ValueError):
        Presentation(2, ((1, -1),))  # not freely reduced
    with pytest.raises(ValueError):
        Presentation(2, ((3,),))  # letter out of range


@pytest.mark.parametrize("count", [-1, 1.5, "2", None, True])
def test_presentation_rejects_a_generator_count_that_is_no_count(count):
    with pytest.raises(ValueError, match="not a non-negative int"):
        Presentation(count, ())


@pytest.mark.parametrize("letter", [1.5, True, "1", None, 0, 3])
def test_a_letter_is_a_nonzero_int_within_the_generators(letter):
    """Relators, subgroup words and `_replace` share one letter check; a
    float once failed in enumeration as a KeyError, and True passed as 1."""
    pres = Presentation(2, ((1, 1), (2, 2)))
    for make in (lambda: Presentation(2, ((letter,), (1, 1), (2, 2))),
                 lambda: enumerate_cosets(pres, [(letter,)]),
                 lambda: pres._replace(relators=((letter,),))):
        with pytest.raises(ValueError, match=re.escape(f"letter {letter!r} ")):
            make()


def test_presentation_stores_its_relators_as_tuples():
    pres = Presentation(2, [[1, 1], (2,) * 3, [1, 2] * 2])
    assert pres.relators == ((1, 1), (2, 2, 2), (1, 2, 1, 2))
    assert pres == Presentation(2, ((1, 1), (2, 2, 2), (1, 2, 1, 2)))
    assert hash(pres) == hash(Presentation(2, ((1, 1), (2, 2, 2), (1, 2, 1, 2))))
    # a list relator once reached enumeration and failed there as a TypeError
    assert enumerate_cosets(pres).index == 6


class _QuotientElem:
    """An element of G/<z> for a central involution z, held by a canonical
    representative (the smaller of g, g*z under the element ordering).  Its
    product closure is the oracle for build_hemi, which reads the quotient
    off the cube group's table."""

    __slots__ = ("rep", "z")

    def __init__(self, g, z):
        self.rep, self.z = min(g, g * z), z

    def __mul__(self, other):
        return _QuotientElem(self.rep * other.rep, self.z)

    def inverse(self):
        return _QuotientElem(self.rep.inverse(), self.z)

    def __eq__(self, other):
        return isinstance(other, _QuotientElem) and self.rep == other.rep

    def __hash__(self):
        return hash(("quot", self.rep))

    def __lt__(self, other):
        return self.rep < other.rep


def test_quotient_elements(atlas):
    q = _QuotientElem(atlas.pi, atlas.zeta)
    assert q == _QuotientElem(atlas.pi * atlas.zeta, atlas.zeta)
    assert q * q.inverse() == _QuotientElem(SignedPerm.identity(4), atlas.zeta)
    quotient = ConcreteGroup.generate(
        {name: _QuotientElem(g, atlas.zeta)
         for name, g in group_cube().generators.items()})
    assert len(quotient) == 192 == build_hemi().quotient_group_order
    # the order of rho0 rho1 rho2 rho3 in the quotient, by products
    prod = quotient.identity
    for gen in quotient.generator_list():
        prod = prod * gen
    order, e = 1, prod
    while e != quotient.identity:
        order, e = order + 1, e * prod
    assert order == 4 == build_hemi().generator_product_order


# -- the action table ------------------------------------------------------------


def _bn_group(n):
    """B_n from its Coxeter reflections as signed permutations."""
    rho0 = SignedPerm((-1,) + (1,) * (n - 1), range(1, n + 1))
    swaps = [SignedPerm.from_cycles(n, [(i, i + 1)]) for i in range(1, n)]
    return ConcreteGroup.generate([rho0] + swaps)


@pytest.mark.parametrize("make", [
    lambda: _bn_group(3), lambda: _bn_group(4), lambda: _bn_group(5), group_cover,
], ids=["b3", "b4", "b5", "cover"])
def test_action_table_against_products(make):
    g = make()
    gens = g.generator_list()
    index, act, parent = g.table()
    assert [index[e] for e in g.elements] == list(range(len(g)))
    for i, e in enumerate(g.elements):
        assert [g.elements[j] for j in act[i]] == [e * s for s in gens]
        if i:
            assert parent[i][0] < i
        word = g.word(i)
        assert eval_word(gens, [k + 1 for k in word], g.identity) == e
        assert g.walk(0, word) == i
    assert _table_by_products(g) == g.table()


def _table_by_products(group):
    """The products branch `table()` had for a group built from an element
    list, with its two conditions: the elements are closed under the
    generators, and the generators reach every element from the identity.
    Each element's parent is the first (p, k) with p before it."""
    index = {e: i for i, e in enumerate(group.elements)}
    gens = group.generator_list()
    act = [[index.get(e * g) for g in gens] for e in group.elements]
    parent = [None] * len(group)
    for i, row in enumerate(act):
        for k, j in enumerate(row):
            if j is not None and j > i and parent[j] is None:
                parent[j] = (i, k)
    assert not any(None in row for row in act)
    assert group.elements[0] == group.identity and None not in parent[1:]
    return ActionTable(index, act, parent)


@pytest.mark.parametrize("make", [
    lambda: _bn_group(3), lambda: _bn_group(4), lambda: _bn_group(5), group_cube, group_cover,
    lambda: ConcreteGroup.generate({"r": build_atlas().rho0}),
], ids=["b3", "b4", "b5", "cube", "cover", "segment"])
def test_reflection_subgroups_are_closures_of_their_spans(make):
    group = make()
    full = (1 << len(group.generators)) - 1
    struct = polytope_from_reflections(group)
    struct.validate_polytope()
    for j, sub in enumerate(struct.subgroups):
        assert sub.elements == tuple(group.elements[i] for i in group.span(full & ~(1 << j)))
        assert sub.table() == _table_by_products(sub)


def test_centres_and_stabilizers_are_closures(atlas):
    g = group_cube()
    for make in (group_cube, group_map_rotation, group_cover_rotation, group_cover):
        centre = make().centre()
        assert centre.table() == _table_by_products(centre)
    octagon = frozenset(atlas.base_octagon.vertex_set())
    for stab, fixes in ((stabilizer(g, atlas.v), lambda x: x.act(atlas.v) == atlas.v),
                        (setwise_stabilizer(g, octagon),
                         lambda x: frozenset(map(x.act, octagon)) == octagon)):
        # the closure keeps the group's order of the stabilizing elements
        assert stab.elements == tuple(filter(fixes, g))
        assert stab.table() == _table_by_products(stab)


def _intersection_by_closure(gens):
    """The closure routine intersection_condition used before the table."""
    n = len(gens)
    closures = {0: frozenset([gens[0] * gens[0].inverse()])}
    for mask in range(1, 1 << n):
        sub = [gens[i] for i in range(n) if mask & (1 << i)]
        closures[mask] = ConcreteGroup.generate(sub).element_set
    return closures, all(closures[a] & closures[b] == closures[a & b]
                         for a in range(1 << n) for b in range(a, 1 << n))


@pytest.mark.parametrize("names", [
    ("rho0", "rho1", "rho2", "rho3"), ("tau0", "tau1", "tau2", "tau3"), ("rho0",), "bad",
], ids=["rho", "tau", "rho0", "bad"])
def test_intersection_condition_against_closures(atlas, names, monkeypatch):
    if names == "bad":
        gens = [atlas.rho0, atlas.rho1, atlas.zeta * atlas.rho0]
    else:
        gens = [getattr(atlas, name) for name in names]
    closures, expected = _intersection_by_closure(gens)
    group = ConcreteGroup.generate(gens)
    assert expected is (names != "bad")
    for mask, closure in closures.items():
        assert {group.elements[i] for i in group.span(mask)} == closure
    # the integer condition closes no group of its own
    monkeypatch.setattr(ConcreteGroup, "generate", None)
    assert intersection_condition(group) is expected


def _intersection_on_all_subsets(group):
    """The test intersection_condition made before the interval test of ARP
    2E16: every pair of the 2^n generator subsets."""
    masks = range(1 << len(group.generators))
    spans = [frozenset(group.span(mask)) for mask in masks]
    return all(spans[i] & spans[j] == spans[i & j] for i in masks for j in masks if j >= i)


def _first_failing_width(group):
    """The fewest generators g_i..g_j whose end intervals <g_i..g_{j-1}> and
    <g_{i+1}..g_j> do not meet in <g_{i+1}..g_{j-1}>; None when none fails."""
    n = len(group.generators)
    span = lambda a, b: frozenset(group.span((1 << b) - (1 << a)))  # <g_a..g_{b-1}>
    for width in range(2, n + 1):
        for i in range(n - width + 1):
            j = i + width - 1
            if span(i, j) & span(i + 1, j + 1) != span(i + 1, j):
                return width
    return None


# every group the tests hand to polytope_from_reflections, up to conjugacy
_WYTHOFF_INPUTS = {
    "segment": lambda a: ConcreteGroup.generate({"r": a.rho0}),
    "digon": lambda a: ConcreteGroup.generate({"a": a.rho0, "b": a.rho0.conjugate(a.rho1)}),
    **{f"b{n}": lambda a, n=n: _bn_group(n) for n in range(2, 6)},
    "cube": lambda a: group_cube(),
    "cover": lambda a: group_cover(),
}


@pytest.mark.parametrize("name", sorted(_WYTHOFF_INPUTS))
def test_interval_test_agrees_with_all_subsets_on_wythoff_inputs(name, atlas, monkeypatch):
    group = _WYTHOFF_INPUTS[name](atlas)
    n = len(group.generators)
    assert _intersection_on_all_subsets(group)
    spanned = []
    span = ConcreteGroup.span
    monkeypatch.setattr(ConcreteGroup, "span",
                        lambda self, mask: spanned.append(mask) or span(self, mask))
    assert intersection_condition(group) is True
    # each non-empty proper interval of generators is spanned once, the whole group never
    intervals = {(1 << b) - (1 << a) for a in range(n) for b in range(a + 1, n + 1)
                 if b - a < n}
    assert sorted(m for m in spanned if m) == sorted(intervals)


def _random_involution(degree, rng):
    """A signed permutation of order two: random signs and a random number
    of disjoint swaps, the two points of a swap sharing one sign."""
    while True:
        points = rng.sample(range(1, degree + 1), degree)
        perm = list(range(1, degree + 1))
        signs = [rng.choice((1, -1)) for _ in range(degree)]
        swaps = rng.randint(0, degree // 2)
        for a, b in zip(points[:2 * swaps:2], points[1:2 * swaps:2]):
            perm[a - 1], perm[b - 1], signs[b - 1] = b, a, signs[a - 1]
        g = SignedPerm(signs, perm)
        if g.is_involution():
            return g


def _random_string_group(rng):
    """Rank 3 or 4, degree 4 to 6: each new involution commutes with every
    earlier one but the last."""
    degree, gens = rng.randint(4, 6), []
    for _ in range(rng.randint(3, 4)):
        g = _random_involution(degree, rng)
        while any(g * h != h * g for h in gens[:-1]):
            g = _random_involution(degree, rng)
        gens.append(g)
    return ConcreteGroup.generate(gens)


def test_interval_test_agrees_with_all_subsets_on_random_string_groups():
    rng = random.Random(24)
    widths = collections.Counter()
    for _ in range(100):
        group = _random_string_group(rng)
        assert string_condition(group)
        expected = _intersection_on_all_subsets(group)
        assert intersection_condition(group) is expected
        width = _first_failing_width(group)
        assert (width is None) is expected
        widths[width] += 1
    # the sample passes, and fails first at equal neighbours and at wider intervals
    assert widths[None] and widths[2] and widths[3] + widths[4], widths


def test_interval_test_needs_the_string_condition(atlas):
    not_string = ConcreteGroup.generate([atlas.rho0, atlas.rho2, atlas.rho1])
    assert not string_condition(not_string)
    with pytest.raises(ValueError, match="string condition"):
        intersection_condition(not_string)
    with pytest.raises(ValueError, match="involutions"):
        intersection_condition(ConcreteGroup.generate([atlas.rho0, atlas.pi]))


def _coset_reps_by_products(group, sub):
    """The product routine that found coset representatives before the table."""
    reps, covered = [], set()
    for g in group.elements:
        if g not in covered:
            reps.append(g)
            covered.update(s * g for s in sub.elements)
    return reps


def test_coset_reps_against_products(atlas):
    g = group_cube()
    rot = group_rotation_sigma()
    k = setwise_stabilizer(g, atlas.base_octagon.vertex_set())
    for group, sub in ((g, g.subgroup([atlas.rho1, atlas.rho2, atlas.rho3])),
                       (k, k.subgroup([atlas.mu0])),
                       (g, stabilizer(g, atlas.v)),
                       (g, setwise_stabilizer(g, atlas.base_octagon.vertex_set())),
                       (rot, rot.subgroup([atlas.sigma1, atlas.sigma2])),
                       (g, g)):
        assert _coset_reps(group, sub) == _coset_reps_by_products(group, sub)


# -- closure on codes ------------------------------------------------------------


def _closure_by_products(generators, cap=DEFAULT_CAP, names=None):
    """The closure loop of ConcreteGroup.generate before it closed signed
    permutations as point tuples: every product is an element product."""
    if isinstance(generators, dict):
        named = dict(generators)
    else:
        gens = list(generators)
        if names is None:
            names = [f"g{i}" for i in range(len(gens))]
        named = dict(zip(names, gens))
    gen_list = list(named.values())
    identity = gen_list[0] * gen_list[0].inverse()
    elements = [identity]
    index = {identity: 0}
    act = []
    parent = [None]
    for i, e in enumerate(elements):
        row = []
        for k, g in enumerate(gen_list):
            prod = e * g
            j = index.get(prod)
            if j is None:
                j = index[prod] = len(elements)
                elements.append(prod)
                parent.append((i, k))
                if len(elements) > cap:
                    raise CapExceeded(f"closure exceeded cap={cap}; wrong generators?")
            row.append(j)
        act.append(row)
    return elements, named, ActionTable(index, act, parent)


def _assert_closure_matches(generators, cap=DEFAULT_CAP, names=None):
    group = ConcreteGroup.generate(generators, cap=cap, names=names)
    elements, named, table = _closure_by_products(generators, cap=cap, names=names)
    assert list(group.elements) == elements
    assert group.identity == elements[0]
    assert group.generators == named
    assert group.table() == table
    assert list(group.table().index) == elements  # the same insertion order
    return group


def _random_signed_perm(rng, n, support=None):
    """A random signed permutation of 1..n moving only the coordinates in
    `support` (all of them by default)."""
    support = list(range(1, n + 1)) if support is None else sorted(support)
    image = support[:]
    rng.shuffle(image)
    perm = list(range(1, n + 1))
    signs = [1] * n
    for a, b in zip(support, image):
        perm[a - 1] = b
        signs[a - 1] = rng.choice((1, -1))
    return SignedPerm(signs, perm)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_closure_against_products_on_bn(n):
    rho0 = SignedPerm((-1,) + (1,) * (n - 1), range(1, n + 1))
    gens = [rho0] + [SignedPerm.from_cycles(n, [(i, i + 1)]) for i in range(1, n)]
    assert len(_assert_closure_matches(gens, names=[f"r{i}" for i in range(n)])) \
        == 2 ** n * [1, 1, 2, 6, 24, 120][n]


def test_closure_against_products_on_every_build_group():
    calls = []
    real = ConcreteGroup.generate.__func__

    def spy(cls, generators, cap=DEFAULT_CAP, names=None):
        calls.append((generators, cap, names))
        return real(cls, generators, cap, names)

    builds = (cubefamily.build_cube, cubefamily.build_map, cubefamily.build_roli,
              cubefamily.build_enantiomorph, cubefamily.build_cover, cubefamily.build_hemi)
    clear_build_caches()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ConcreteGroup, "generate", classmethod(spy))
            for build in builds:
                build()
    finally:
        clear_build_caches()
    kinds = set()
    for generators, cap, names in calls:
        group = _assert_closure_matches(generators, cap=cap, names=names)
        kinds.add(type(group.identity))
        # every build closure composes byte codes
        assert _codec(group.generator_list())[2] is bytes.translate
    assert kinds == {SignedPerm}
    assert len(calls) >= 10


def test_closure_against_products_on_random_degree_8_sets():
    rng = random.Random(2026)
    for _ in range(50):
        # at most four coordinates move, so the group has order <= 384
        support = rng.sample(range(1, 9), rng.randint(1, 4))
        h = _random_signed_perm(rng, 8)
        gens = [_random_signed_perm(rng, 8, support).conjugate(h)
                for _ in range(rng.randint(1, 3))]
        _assert_closure_matches(gens, cap=400)


def test_closure_cap_and_degree_errors_match_products():
    gens = _bn_group(3).generator_list()
    for cap in range(1, 50):
        outcomes = []
        for close in (ConcreteGroup.generate, _closure_by_products):
            try:
                close(gens, cap=cap)
                outcomes.append(None)
            except CapExceeded as err:
                outcomes.append(str(err))
        assert outcomes[0] == outcomes[1], cap
        assert (outcomes[0] is None) is (cap >= 48)
    for mixed in ([SignedPerm.identity(3), SignedPerm.identity(4)],
                  [SignedPerm.from_cycles(4, [(1, 2)]), SignedPerm.from_cycles(5, [(1, 2)])]):
        with pytest.raises(ValueError, match="dimension mismatch"):
            ConcreteGroup.generate(mixed)
        with pytest.raises(ValueError, match="dimension mismatch"):
            _closure_by_products(mixed)
    # past 128 coordinates the points no longer fit a byte: closure falls
    # back to products, with the same result
    wide = [SignedPerm.from_cycles(129, [(1, 129)]), SignedPerm.from_cycles(129, [(1, 2)])]
    assert len(_assert_closure_matches(wide)) == 6
    assert len(_assert_closure_matches([SignedPerm.from_cycles(128, [(1, 128)])])) == 2


def _assert_decodes_as_from_points(g):
    """The translate decoder of g's degree reads g's byte code as
    `from_points` reads its point tuple, field by field."""
    decoded = _point_decoder(g.n)(bytes(g.points()))
    oracle = from_points(g.points())
    assert decoded == oracle == g and type(decoded) is SignedPerm
    assert tuple(map(type, decoded)) == (int, tuple, tuple) and hash(decoded) == hash(g)


@pytest.mark.parametrize("n", [1, 2, 5, 127, 128])
def test_point_decoder_matches_from_points(n):
    # at n = 128 the 2n points fill all 256 entries of a table: no pad
    rng = random.Random(n)
    elements = [SignedPerm.identity(n), SignedPerm((-1,) * n, range(n, 0, -1))]
    elements += [_random_signed_perm(rng, n) for _ in range(20)]
    for g in elements:
        _assert_decodes_as_from_points(g)
    # each sign pattern's tuple is built once
    decode, code = _point_decoder(n), bytes(elements[1].points())
    assert decode(code).signs is decode(code).signs


@given(st.integers(1, 128).flatmap(lambda n: st.tuples(
    st.permutations(range(1, n + 1)), st.lists(st.sampled_from((1, -1)), min_size=n,
                                                max_size=n))))
def test_point_decoder_matches_from_points_on_any_degree(perm_and_signs):
    perm, signs = perm_and_signs
    _assert_decodes_as_from_points(SignedPerm(signs, perm))


def test_degree_129_takes_the_generic_codec():
    wide = [SignedPerm.from_cycles(129, [(1, 129)])]
    assert _codec(wide) == (_same, _same, operator.mul, _same)
    assert _codec([SignedPerm.identity(128)])[3] is _point_decoder(128)


def _extension_by_products(src, images):
    """extend_homomorphism before it composed point tuples: the mapping, or
    the two failure words."""
    names = list(src.generators)
    some_image = next(iter(images.values()))
    _, act, parent = src.table()
    image = [some_image * some_image.inverse()] + [None] * (len(src) - 1)
    for i, row in enumerate(act):
        for k, j in enumerate(row):
            img = image[i] * images[names[k]]
            if parent[j] == (i, k):
                image[j] = img
            elif image[j] != img:
                return (tuple(names[c] for c in src.word(i)) + (names[k],),
                        tuple(names[c] for c in src.word(j)))
    return dict(zip(src.elements, image))


def test_extend_homomorphism_against_products(atlas):
    rot = group_rotation_sigma()
    cases = [
        (group_map_rotation(), {"sigma1": atlas.sigma1.inverse(),
                                "sigma2": atlas.sigma1 * atlas.sigma1 * atlas.sigma2}),
        (rot, {"sigma1": atlas.sigma1.inverse(),
               "sigma2": atlas.sigma1 * atlas.sigma1 * atlas.sigma2,
               "sigma3": atlas.sigma3}),
        (rot, dict(zip(rot.generators, [atlas.sigma3, atlas.sigma2, atlas.sigma1]))),
        (group_cover(), {"tau0": atlas.rho0, "tau1": atlas.rho1,
                         "tau2": atlas.rho2, "tau3": atlas.rho3}),
        (group_cover(), {"tau0": atlas.rho3, "tau1": atlas.rho2,
                         "tau2": atlas.rho1, "tau3": atlas.rho0}),
        (group_cube(), {name: _QuotientElem(g, atlas.zeta)
                        for name, g in group_cube().generators.items()}),
    ]
    # images of two degrees still fail on the first product between them
    mixed = {"rho0": atlas.rho0, "rho1": atlas.rho1, "rho2": atlas.rho2,
             "rho3": block_pair(atlas.rho3, atlas.rho3)}
    for extend in (extend_homomorphism, _extension_by_products):
        with pytest.raises(ValueError, match="dimension mismatch"):
            extend(group_cube(), mixed)
    outcomes = set()
    for src, images in cases:
        expected = _extension_by_products(src, images)
        got = extend_homomorphism(src, images)
        if isinstance(expected, dict):
            assert isinstance(got, Homomorphism) and got.mapping == expected
        else:
            assert isinstance(got, HomomorphismFailure)
            assert (got.word_a, got.word_b) == expected
            assert _witness_pair_inconsistent(src, images, got.word_a, got.word_b)
        outcomes.add(type(got))
    assert outcomes == {Homomorphism, HomomorphismFailure}


def test_one_order_for_group_elements(atlas):
    rng = random.Random(7)
    perms = [_random_signed_perm(rng, rng.randint(1, 8)) for _ in range(200)]
    cube = group_cube()
    quotients = [_QuotientElem(g, atlas.zeta) for g in rng.sample(cube.elements, 100)]
    for xs, key in ((perms, tuple), (quotients, lambda q: tuple(q.rep))):
        assert sorted(xs) == sorted(xs, key=key)
