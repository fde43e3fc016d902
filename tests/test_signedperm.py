"""Signed permutation algebra against its matrix semantics."""

import copy
import pickle
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polytope_forge.cubefamily import build_atlas, group_cube
from polytope_forge.signedperm import SignedPerm, _cycles_to_image, block_pair


def matrix(g):
    """The n x n matrix diag(signs) * P(perm): row i holds its sign in
    column perm[i]."""
    rows = []
    for i in range(g.n):
        row = [0] * g.n
        row[g.perm[i] - 1] = g.signs[i]
        rows.append(tuple(row))
    return tuple(rows)


def from_points(points):
    """The signed permutation whose `points()` are `points`: the image table
    of a signed permutation, such as a product of two."""
    n = len(points) // 2
    head = points[:n]
    return SignedPerm([1 if p < n else -1 for p in head], [p % n + 1 for p in head])


def matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n))


signed_perms = st.builds(
    lambda perm, signs: SignedPerm(signs, perm),
    st.permutations(list(range(1, 5))),
    st.tuples(*[st.sampled_from((1, -1))] * 4),
)


@pytest.fixture(scope="module")
def atlas():
    return build_atlas()


def test_petrie_symmetry_display(atlas):
    assert atlas.pi == atlas.rho0 * atlas.rho1 * atlas.rho2 * atlas.rho3
    assert atlas.pi == SignedPerm.parse("(-1,1,1,1)·(4,3,2,1)")
    assert matrix(atlas.pi) == (
        (0, 0, 0, -1), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))


def test_compose_identity_is_neutral(atlas):
    ident = SignedPerm.identity(4)
    for g in (atlas.pi, atlas.mu0, atlas.sigma2):
        assert g * ident == g
        assert ident * g == g


def test_petrie_symmetry_has_period_eight(atlas):
    power = atlas.pi
    for _ in range(7):
        power = power * atlas.pi
    assert power == SignedPerm.identity(4)
    assert atlas.pi.order() == 8


@given(a=signed_perms, b=signed_perms)
def test_composition_matches_matrix_product(a, b):
    assert matrix(a * b) == matmul(matrix(a), matrix(b))


def test_composition_matches_matrix_product_inside_the_big_group():
    rng = random.Random(7)
    elements = list(group_cube())
    for _ in range(200):
        a, b = rng.choice(elements), rng.choice(elements)
        assert matrix(a * b) == matmul(matrix(a), matrix(b))


def test_inverse_of_identity():
    ident = SignedPerm.identity(4)
    assert ident.inverse() == ident


def test_inverse_of_petrie_symmetry_by_repeated_composition(atlas):
    # independent oracle: the seventh power, accumulated step by step
    seventh = atlas.pi
    for _ in range(6):
        seventh = seventh * atlas.pi
    assert atlas.pi.inverse() == seventh
    assert atlas.pi * atlas.pi.inverse() == SignedPerm.identity(4)


def test_reflections_are_involutions(atlas):
    for g in (atlas.rho0, atlas.rho1, atlas.rho2, atlas.rho3):
        assert g.inverse() == g
        assert g.is_involution()


@given(g=signed_perms)
def test_inverse_cancels(g):
    ident = SignedPerm.identity(4)
    assert g * g.inverse() == ident
    assert g.inverse() * g == ident


def test_action_on_base_vertex(atlas):
    assert atlas.pi.act((1, 1, 1, 1)) == (1, 1, 1, -1)
    assert atlas.sigma2.act((1, 1, 1, 1)) == (1, 1, 1, 1)
    assert SignedPerm.identity(4).act((1, -1, 1, -1)) == (1, -1, 1, -1)


def test_action_is_compatible_with_composition(atlas):
    rng = random.Random(11)
    elements = list(group_cube())
    points = [tuple(rng.choice((1, -1)) for _ in range(4)) for _ in range(8)]
    for _ in range(100):
        a, b = rng.choice(elements), rng.choice(elements)
        for p in points:
            assert b.act(a.act(p)) == (a * b).act(p)


def test_determinants(atlas):
    assert atlas.rho0.determinant() == -1
    assert SignedPerm.identity(4).determinant() == 1
    # oracle: a product of four reflections multiplies four -1 determinants
    expected = 1
    for g in (atlas.rho0, atlas.rho1, atlas.rho2, atlas.rho3):
        expected *= g.determinant()
    assert atlas.pi.determinant() == expected == 1


def test_determinant_is_a_homomorphism():
    rng = random.Random(3)
    elements = list(group_cube())
    for _ in range(200):
        a, b = rng.choice(elements), rng.choice(elements)
        assert (a * b).determinant() == a.determinant() * b.determinant()


def test_conjugation(atlas):
    negate_second = SignedPerm((1, -1, 1, 1), SignedPerm.identity(4).perm)
    assert atlas.rho0.conjugate(atlas.rho1) == negate_second
    assert atlas.pi.conjugate(SignedPerm.identity(4)) == atlas.pi
    for h in list(group_cube())[:50]:
        assert atlas.zeta.conjugate(h) == atlas.zeta


def test_block_pair_displays(atlas):
    assert block_pair(atlas.sigma1, atlas.sigma1_bar) == SignedPerm.parse(
        "(-1,1,1,1,1,1,1,-1)·(4,3,2,1)(5,6,7,8)")
    ident4 = SignedPerm.identity(4)
    assert block_pair(ident4, ident4) == SignedPerm.identity(8)
    assert (atlas.kappa1 * atlas.kappa3) ** 4 == block_pair(atlas.zeta, ident4)


def test_block_pair_is_an_embedding(atlas):
    rng = random.Random(5)
    elements = list(group_cube())
    for _ in range(100):
        a, b, c, d = (rng.choice(elements) for _ in range(4))
        assert block_pair(a, b) * block_pair(c, d) == block_pair(a * c, b * d)


def test_text_round_trip():
    rng = random.Random(9)
    for g in rng.sample(list(group_cube()), 40):
        assert SignedPerm.parse(str(g)) == g
    g8 = build_atlas().kappa2
    assert SignedPerm.parse(str(g8)) == g8


@given(a=signed_perms, b=signed_perms)
def test_point_tuples_compose_as_the_product(a, b):
    # +i is point i-1 and -i point n+i-1; entry p of points() is p's image
    n = a.n
    signed = [i for i in range(1, n + 1)] + [-i for i in range(1, n + 1)]
    for p, q in zip(signed, a.points()):
        image = a.act(tuple(1 if j == abs(p) else 0 for j in range(1, n + 1)))
        k = next(j for j, x in enumerate(image) if x)
        assert q == (k if p * image[k] > 0 else n + k)
    product = tuple(map(b.points().__getitem__, a.points()))
    assert product == (a * b).points()
    decoded = from_points(product)
    assert decoded == a * b and (decoded.signs, decoded.perm) == ((a * b).signs, (a * b).perm)
    assert hash(decoded) == hash(a * b)
    assert from_points(SignedPerm.identity(n).points()) == SignedPerm.identity(n)


def test_dimension_mismatch_rejected(atlas):
    with pytest.raises(ValueError):
        atlas.pi * atlas.kappa1
    with pytest.raises(ValueError):
        atlas.pi.act((1, 1, 1, 1, 1, 1, 1, 1))


def test_products_and_inverses_match_the_public_constructor():
    # products and inverses skip the validity checks; over all of B_4 each
    # one equals the signed permutation the checked constructor builds
    b4 = group_cube().elements
    for a in b4:
        for g in [a.inverse()] + [a * b for b in b4]:
            rebuilt = SignedPerm(g.signs, g.perm)
            assert (g.signs, g.perm) == (rebuilt.signs, rebuilt.perm)
            assert type(g.signs) is type(g.perm) is tuple and hash(g) == hash(rebuilt)


def test_invalid_constructions_rejected():
    for signs, perm in [((1, 1, 1, 2), (1, 2, 3, 4)), ((1, 0, 1, 1), (1, 2, 3, 4)),
                        ((1, 1, 1, 1), (1, 2, 2, 4)), ((1, 1, 1, 1), (0, 1, 2, 3)),
                        ((1, 1, 1, 1), (2, 3, 4, 5)), ((1, 1, 1), (1, 2, 3, 4))]:
        with pytest.raises(ValueError):
            SignedPerm(signs, perm)
    for text in ["garbage", "", "()", "(1,1)", "(1,1)·", "(1,1)(1,2)", "(1,1)·(1,2",
                 "(1,1)·1,2)", "(1,1)·(1,2) (3,4)", "(1,1)·(1,2)x", "((1,1))·(1,2)",
                 "(1,1)·((1,2))", "(1,1)··(1,2)", "(1,1)+(1,2)", "x(1,1)·(1,2)",
                 "(1,1)·(1,2))", "(1,1)·(1,(2)", "()·()", "(1,1)·(1,3)", "(1,2)·()"]:
        with pytest.raises(ValueError):
            SignedPerm.parse(text)


# what `SignedPerm.parse` matched before it read the text without `re`
_ELEMENT_PATTERN = r"^\(([^()]*)\)\s*[·*]\s*((?:\([^()]*\))+|\(\))$"


def _parse_by_pattern(text):
    m = re.match(_ELEMENT_PATTERN, text.strip())
    if not m:
        raise ValueError(f"cannot parse signed permutation {text!r}")
    signs = tuple(int(tok) for tok in m.group(1).split(","))
    cycles = [tuple(int(tok) for tok in cyc.split(","))
              for cyc in re.findall(r"\(([^()]*)\)", m.group(2)) if cyc.strip()]
    return SignedPerm(signs, _cycles_to_image(len(signs), cycles))


def _parsed_or_rejected(parse, text):
    try:
        return parse(text)
    except ValueError:
        return ValueError


def test_parse_accepts_and_rejects_what_the_pattern_did():
    # seeded edits of printed elements: a token inserted, deleted or
    # swapped for another, white space around the pieces, or both
    rng = random.Random(17)
    tokens = ["(", ")", ",", "·", "*", " ", "\t", "\n", "-1", "1", "2", "3", "x", ")(", "()"]
    elements = [g for g in group_cube()] + [build_atlas().kappa2, SignedPerm.identity(3)]
    outcomes = {True: 0, False: 0}
    for _ in range(3000):
        text = str(rng.choice(elements)).replace("·", rng.choice(["·", "*", " · ", "\t*"]))
        for _ in range(rng.randint(0, 2)):
            k = rng.randrange(len(text) + 1)
            edit = rng.randrange(3)
            text = (text[:k] + (rng.choice(tokens) if edit else "")
                    + text[k + (edit != 1):])
        text = rng.choice(["", " ", "\n"]) + text + rng.choice(["", " ", "\n", "\t "])
        found = _parsed_or_rejected(SignedPerm.parse, text)
        assert found == _parsed_or_rejected(_parse_by_pattern, text), text
        outcomes[found is not ValueError] += 1
    assert min(outcomes.values()) > 500, outcomes


def test_copy_deepcopy_and_pickle_round_trip(atlas):
    for g in (atlas.pi, atlas.kappa2, SignedPerm.identity(1)):
        for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert twin == g and type(twin) is SignedPerm
            assert (twin.n, twin.perm, twin.signs) == (g.n, g.perm, g.signs)
            assert twin * g.inverse() == SignedPerm.identity(g.n)


def test_tuple_operations_are_no_group_operations(atlas):
    g, h = atlas.pi, atlas.sigma2
    for bad in (lambda: 2 * g, lambda: g * 2, lambda: g + h, lambda: g + (1,),
                lambda: (1,) + g, lambda: sum([g], ())):
        with pytest.raises(TypeError):
            bad()


def test_make_and_replace_validate(atlas):
    g = atlas.pi
    assert g._replace(signs=(1, 1, 1, 1)) == SignedPerm((1, 1, 1, 1), g.perm)
    assert SignedPerm._make(g) == g
    for fields in ({"n": 5}, {"n": 3}, {"signs": (1, 1, 1, 2)}, {"perm": (1, 1, 2, 3)},
                   {"perm": (1, 2, 3)}):
        with pytest.raises(ValueError):
            g._replace(**fields)
    with pytest.raises(ValueError):
        SignedPerm._make((4, (1, 2, 3), (1, 1, 1)))


def test_order_equality_and_hash_are_the_records():
    # elements sort as the tuple of their fields, and the record's equality
    # and hash are the fields' ones
    elements = list(group_cube())
    random.Random(4).shuffle(elements)
    assert sorted(elements) == sorted(elements, key=tuple)
    assert all(tuple(g) == (g.n, g.perm, g.signs) and hash(g) == hash(tuple(g))
               for g in elements)
    assert len(set(elements)) == 384
