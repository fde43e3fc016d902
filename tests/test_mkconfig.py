"""Exact field arithmetic and the configuration of eight points and lines."""

import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polytope_forge import mkconfig as mk
from polytope_forge.cubefamily import build_atlas, group_cube, group_unitary, point_labels
from polytope_forge.groupcore import CheckFailed, ConcreteGroup
from polytope_forge.mkconfig import ONE, QF, ZERO
from test_signedperm import matrix


def _qf(a=0, b=0, c=0, d=0) -> QF:
    """The QF with these rational parts.  Over the lcm of the reduced
    denominators the numerators share no factor with it, so the stored
    tuple is in lowest terms."""
    parts = [Fraction(x) for x in (a, b, c, d)]
    den = math.lcm(*(x.denominator for x in parts))
    return mk._exact((*(x.numerator * (den // x.denominator) for x in parts), den))


def _parts(x) -> tuple:
    """The four parts of a QF, read from `_q`, or of its oracle, as
    `Fraction`s."""
    if isinstance(x, QF):
        *nums, den = x._q
        return tuple(Fraction(n, den) for n in nums)
    return (x.a, x.b, x.c, x.d)


# n/d in [-20, 20] with d <= 12, drawn as integers: st.fractions draws far slower
rationals = st.integers(1, 12).flatmap(
    lambda d: st.integers(-20 * d, 20 * d).map(lambda n: Fraction(n, d)))
field_elements = st.builds(_qf, rationals, rationals, rationals, rationals)


def _lift(point) -> tuple[QF, ...]:
    return tuple(QF(x) for x in point)


def _norm(x: QF) -> Fraction:
    """The product of x's four conjugates, which lies in Q."""
    n1 = x * x.conj_i()
    a, *rest = _parts(n1 * n1.conj_sqrt3())
    assert rest == [0, 0, 0], rest
    return a


def _apply_complex(z: QF, u) -> tuple[QF, ...]:
    """(x + iy) u = x*u + y*(uJ), with x, y in Q(sqrt(3))."""
    a, b, c, d = _parts(z)
    x, y = _qf(a, b), _qf(c, d)
    return mk.vec_add(mk.scalar_mul(x, u),
                      mk.scalar_mul(y, mk.row_times_matrix(u, mk.build_J())))


def _decode_table() -> tuple[tuple[int, ...], ...]:
    """The ambient cube vertex of each published table row, z1 a1 + z2 a2."""
    a1, _, a2, _ = mk.build_L()
    point_of = []
    for label in range(8):
        z1, z2 = mk.table_coordinates()[label]
        ambient = mk.vec_add(_apply_complex(z1, a1), _apply_complex(z2, a2))
        assert all(x in (ONE, -ONE) for x in ambient), label
        point_of.append(tuple(x._q[0] for x in ambient))
    assert len(set(point_of)) == 8
    return tuple(point_of)


def _configuration_relabelings() -> list[tuple[int, ...]]:
    """Every permutation of the labels 0..7 that maps the line system onto
    itself, found by filtering all 8! permutations."""
    lines = set(mk.CONFIGURATION_LINES)
    return [perm for perm in itertools.permutations(range(8))
            if {frozenset(perm[i] for i in line) for line in lines} == lines]


# -- the field -------------------------------------------------------------------


class _FractionQF:
    """The former `QF`, one `Fraction` per part: the oracle for the integer
    representation."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a=0, b=0, c=0, d=0):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "c", Fraction(c))
        object.__setattr__(self, "d", Fraction(d))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("_FractionQF is immutable")

    # constructors
    @classmethod
    def sqrt3(cls) -> "_FractionQF":
        return cls(0, 1)

    @classmethod
    def i(cls) -> "_FractionQF":
        return cls(0, 0, 1)

    @classmethod
    def r(cls) -> "_FractionQF":
        """sqrt(3) - 1, the inner-square radius."""
        return cls(-1, 1)

    @staticmethod
    def _coerce(x) -> "_FractionQF":
        if isinstance(x, _FractionQF):
            return x
        if isinstance(x, (int, Fraction)):
            return _FractionQF(x)
        return NotImplemented

    # ring operations
    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _FractionQF(self.a + other.a, self.b + other.b,
                  self.c + other.c, self.d + other.d)

    __radd__ = __add__

    def __neg__(self):
        return _FractionQF(-self.a, -self.b, -self.c, -self.d)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.a, self.b, self.c, self.d
        e, f, g, h = other.a, other.b, other.c, other.d
        return _FractionQF(
            a * e + 3 * b * f - c * g - 3 * d * h,
            a * f + b * e - c * h - d * g,
            a * g + c * e + 3 * (b * h + d * f),
            a * h + d * e + b * g + c * f,
        )

    __rmul__ = __mul__

    def conj_i(self) -> "_FractionQF":
        """The automorphism i -> -i."""
        return _FractionQF(self.a, self.b, -self.c, -self.d)

    def conj_sqrt3(self) -> "_FractionQF":
        """The automorphism sqrt(3) -> -sqrt(3)."""
        return _FractionQF(self.a, -self.b, self.c, -self.d)

    def inverse(self) -> "_FractionQF":
        n1 = self * self.conj_i()
        n = (n1 * n1.conj_sqrt3()).a
        if n == 0:
            raise ZeroDivisionError("_FractionQF division by zero")
        return self.conj_i() * n1.conj_sqrt3() * _FractionQF(Fraction(1, 1) / n)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def is_zero(self) -> bool:
        return self.a == self.b == self.c == self.d == 0

    def is_real(self) -> bool:
        return self.c == self.d == 0

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c, self.d))

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * 3 ** 0.5

    def __repr__(self) -> str:
        return f"QF({self.a}, {self.b}, {self.c}, {self.d})"


def _canonical(x: QF) -> bool:
    """Four numerators over a positive denominator, sharing no factor."""
    *_, den = x._q
    return den > 0 and math.gcd(*x._q) == 1


@given(x=field_elements, y=field_elements)
def test_arithmetic_agrees_with_the_fraction_oracle(x, y):
    ox, oy = (_FractionQF(*_parts(v)) for v in (x, y))
    pairs = [(x + y, ox + oy), (x - y, ox - oy), (x * y, ox * oy), (-x, -ox),
             (x.conj_i(), ox.conj_i()), (x.conj_sqrt3(), ox.conj_sqrt3()),
             (x + 2, ox + 2), (3 * y, 3 * oy), (_qf(Fraction(1, 3)) * y, Fraction(1, 3) * oy)]
    if not y.is_zero():
        pairs += [(y.inverse(), oy.inverse()), (x / y, ox / oy)]
    for new, old in pairs:
        assert _canonical(new)
        assert _parts(new) == _parts(old)
        assert (repr(new), float(new)) == (repr(old), float(old))
        assert (new.is_zero(), new.is_real()) == (old.is_zero(), old.is_real())
    assert (x == y) == (ox == oy) and (x == x.conj_i()) == (ox == ox.conj_i())
    assert _parts(x) == _parts(ox)


def test_equal_values_are_stored_alike():
    half_third = _qf(Fraction(1, 2), 0, Fraction(1, 3))
    ways = [QF(3, 0, 2) / 6,
            QF(1) / 2 + QF.i() / 3,
            QF(3, 0, 2) * _qf(Fraction(1, 6)),
            (half_third * QF.r()) * QF.r().inverse(),
            half_third + QF.sqrt3() - QF.sqrt3()]
    for x in ways:
        assert x == half_third and hash(x) == hash(half_third) and _canonical(x)
        assert _parts(x) == (Fraction(1, 2), 0, Fraction(1, 3), 0)
    zeros = [QF(), QF(5) / 7 - QF(10) / 14, half_third * 0,
             QF.sqrt3() / 6 + (-QF.sqrt3()) / 6]
    assert all(z._q == (0, 0, 0, 0, 1) and z == ZERO and z.is_zero() for z in zeros)
    assert len({hash(z) for z in zeros}) == 1
    assert {x: None for x in ways}.keys() == {half_third}


def test_only_a_qf_equals_a_qf():
    # an int or Fraction that compared equal would have to hash as the QF
    for x, part in ((QF(1), 1), (QF(1) / 2, Fraction(1, 2)), (ZERO, 0)):
        assert x != part and part != x
        assert part not in {x} and x not in {part}
        assert _qf(part) == x and hash(_qf(part)) == hash(x)


@pytest.mark.parametrize("part", [0.1, "1/3", 1j, None, 0.5, Fraction(1, 2)])
def test_parts_must_be_rational(part):
    """A part or an operand that is no `int` is a `TypeError`, from either
    side: `Fraction(1, 3) * QF(1)` as much as `QF(Fraction(1, 2))`."""
    with pytest.raises(TypeError, match=f"^QF parts are int, not {type(part).__name__}$"):
        QF(part)
    with pytest.raises(TypeError):
        QF(1, 0, part)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(QF.sqrt3(), part)
        with pytest.raises(TypeError):
            op(part, QF.sqrt3())


def test_arithmetic_builds_no_fraction(monkeypatch):
    x, y = _qf(Fraction(1, 2), -3, Fraction(2, 7), 1), _qf(-1, Fraction(5, 3), 0, 2)
    made, half = [], Fraction(1, 2)
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    # every Fraction is built through its class's __new__, wherever it is imported
    monkeypatch.setattr(Fraction, "__new__", counted)
    assert Fraction(1, 2) == half and len(made) == 1  # the patch counts
    made.clear()
    results = [x + y, -x, x - y, x * y, y * x, x.conj_i(), y.conj_sqrt3(),
               x == y, x == x, (x - x).is_zero(), x.is_zero(), x.is_real(),
               x.part_strings(), repr(y), QF(3, -1) * 2]
    assert made == [] and len(results) == 15


def test_part_strings_print_as_fractions_do():
    # every part n/d in [-20, 20] with d <= 12, each beside three seeded
    # random ones, and products of neighbours, whose denominators pass 12
    singles = sorted({Fraction(n, d) for d in range(1, 13) for n in range(-20 * d, 20 * d + 1)})
    rng = random.Random(38)
    values = [_qf(*rng.sample(singles, 3), x) for x in singles]
    values += [x * y for x, y in zip(values, values[1:])]
    for x in values:
        assert x.part_strings() == tuple(map(str, _parts(x)))
        assert repr(x) == "QF({}, {}, {}, {})".format(*_parts(x))


@given(x=field_elements, y=field_elements, z=field_elements)
def test_multiplication_is_associative(x, y, z):
    assert (x * y) * z == x * (y * z)


@given(x=field_elements, y=field_elements, z=field_elements)
def test_multiplication_distributes(x, y, z):
    assert x * (y + z) == x * y + x * z


@given(x=field_elements, y=field_elements)
def test_conjugations_are_ring_automorphisms(x, y):
    assert (x * y).conj_i() == x.conj_i() * y.conj_i()
    assert (x * y).conj_sqrt3() == x.conj_sqrt3() * y.conj_sqrt3()
    assert (x + y).conj_i() == x.conj_i() + y.conj_i()
    assert x.conj_i().conj_i() == x


@given(x=field_elements, y=field_elements)
def test_norm_is_multiplicative(x, y):
    assert _norm(x * y) == _norm(x) * _norm(y)


@given(x=field_elements)
def test_inverse(x):
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x * x.inverse() == ONE


def test_field_constants():
    r = QF.r()
    assert r * r == QF(4) - 2 * QF.sqrt3()
    assert QF.i() * QF.i() == QF(-1)
    assert QF.sqrt3() * QF.sqrt3() == QF(3)


# -- the complex structure ----------------------------------------------------------


def _qf_mat_mul(p, q):
    return tuple(tuple(sum((p[r][t] * q[t][c] for t in range(4)), ZERO) for c in range(4))
                 for r in range(4))


def test_j_squares_to_minus_identity():
    # the build checks M·M = -3I over the integers; here J·J = -I in the field
    j = mk.build_J()
    identity = tuple(tuple(ONE if a == b else ZERO for b in range(4)) for a in range(4))
    assert _qf_mat_mul(j, j) == tuple(tuple(-x for x in row) for row in identity)
    assert _qf_mat_mul(j, tuple(zip(*j))) == identity
    assert j == tuple(tuple(x * QF.sqrt3().inverse() for x in row) for row in mk._J_PATTERN)


def test_j_sends_basis_rows_to_their_partners():
    a1, b1, a2, b2 = mk.build_L()
    j = mk.build_J()
    assert mk.row_times_matrix(a1, j) == b1
    assert mk.row_times_matrix(a2, j) == b2


def test_i_of_i_u_is_minus_u():
    i = QF.i()
    for point in [(1, 1, 1, 1), (1, -1, 1, -1), (2, 0, 3, -1)]:
        u = _lift(point)
        twice = _apply_complex(i, _apply_complex(i, u))
        assert twice == tuple(-x for x in u)


def test_basis_orthogonality_relations():
    a1, b1, a2, b2 = mk.build_L()
    assert mk.dot(a1, a1) == mk.dot(b1, b1)
    assert mk.dot(a1, b1) == ZERO
    assert mk.dot(a1, a2) == ZERO
    # a rational rescaling keeps every orthogonality relation
    scaled = [mk.scalar_mul(QF(3) / 7, row) for row in (a1, b1, a2, b2)]
    assert mk.dot(scaled[0], scaled[1]) == ZERO
    assert mk.dot(scaled[0], scaled[0]) == mk.dot(scaled[1], scaled[1])


# -- complexification -----------------------------------------------------------------


def test_complexify_basis_vector():
    a1 = mk.build_L()[0]
    z1, z2 = mk.complexify(a1)
    assert z1 == ONE and z2 == ZERO


def test_complexify_labelled_points():
    labeling = point_labels()
    r = QF.r()
    i = QF.i()
    z1, z2 = mk.complexify(labeling.point_of[0])
    assert (z1, z2) == (r, ONE - i)
    z1n, z2n = mk.complexify(labeling.point_of[4])
    assert (z1n, z2n) == (-r, -ONE + i)


@given(a=rationals, b=rationals)
def test_complexify_is_complex_linear(a, b):
    scalar = _qf(a, 0, b, 0)
    u = _lift((1, 1, 1, -1))
    w = _lift((1, -1, 1, 1))
    lhs = mk.complexify(mk.vec_add(u, _apply_complex(scalar, w)))
    zu = mk.complexify(u)
    zw = mk.complexify(w)
    rhs = (zu[0] + scalar * zw[0], zu[1] + scalar * zw[1])
    assert lhs == rhs


# -- the configuration -----------------------------------------------------------------


@pytest.fixture(scope="module")
def config():
    return mk.build_configuration()


def test_incidence_matrix(config):
    assert config.incidence_row_sums() == (3,) * 8
    assert config.incidence_col_sums() == (3,) * 8
    assert {ln.points for ln in config.lines} == {
        tuple(sorted(line)) for line in mk.CONFIGURATION_LINES}


def test_each_line_contains_exactly_its_three_points(config):
    for line in config.lines:
        on = [p.label for p in config.points if line.contains(p)]
        assert tuple(on) == line.points


def test_vertex_zero_lies_on_line_013(config):
    line = next(ln for ln in config.lines if ln.points == (0, 1, 3))
    assert line.contains(config.points[0])


def test_line_167_equation_matches_display(config):
    assert mk.line_matches_paper(config)


def test_coordinate_table_matches_literally(config):
    table = mk.table_coordinates()
    assert [(p.z1, p.z2) for p in config.points] == [table[k] for k in range(8)]


def test_published_last_row_is_the_antipode_of_point_three():
    # the printed table labels its final row 0; decoding the coordinates
    # shows it is the negation of point 3, hence point 7
    table = mk.table_coordinates()
    z1, z2 = table[7]
    assert (z1, z2) == (-table[3][0], -table[3][1])
    decoded = _decode_table()
    assert decoded[7] == tuple(-x for x in decoded[3])


def test_table_decodes_to_the_solved_labeling():
    assert _decode_table() == point_labels().point_of


def test_central_symmetry(config):
    # label k+4 carries the antipode of label k, with negated coordinates
    for k in range(4):
        p, q = config.points[k], config.points[k + 4]
        assert q.ambient == tuple(-x for x in p.ambient)
        assert q.z1 == -p.z1 and q.z2 == -p.z2


def test_plane_shadows(config):
    # projections to z2 = 0, as exact (real, imaginary) pairs
    shadows = {(_qf(*_parts(p.z1)[:2]), _qf(*_parts(p.z1)[2:])) for p in config.points}
    r = QF.r()
    expected = set()
    for s in (1, -1):
        expected.add((QF(s) * r, ZERO))
        expected.add((ZERO, QF(s) * r))
        for t in (1, -1):
            expected.add((QF(s), QF(t)))
    assert shadows == expected


def test_mutually_inscribed_in_three_ways(config):
    # construction already asserts this; re-run the check standalone
    mk._check_mutually_inscribed(config)


def test_relabelings_form_a_group_of_order_48():
    relabelings = _configuration_relabelings()
    assert len(relabelings) == 48
    perms = set(relabelings)
    for p in list(perms)[:8]:
        for q in list(perms)[:8]:
            assert tuple(p[q[i]] for i in range(8)) in perms


# -- the unitary triangle group ----------------------------------------------------------


def test_group_333_report():
    report = mk.group_333()
    assert report["gamma1_order_3"]
    assert report["gamma2_order_3"]  # a consequence of the braid relation
    assert report["braid_relation"]
    assert report["relators_hold"]
    assert report["group_order"] == 24
    assert report["centralizer_order"] == 24
    assert report["centralizer_equals_group"]
    assert report["presentation_index"] == 24


def test_gamma1_is_an_unsigned_three_cycle():
    atlas = build_atlas()
    assert atlas.gamma1.signs == (1, 1, 1, 1)
    assert atlas.gamma1.cycles() == ((1, 4, 2),)


def test_j_commutes_with_exactly_the_triangle_group():
    report = mk.group_333()
    assert report["centralizer_equals_group"]


def test_group_333_makes_no_field_product(monkeypatch):
    expected = mk.group_333()
    count = [0]
    real = QF.__mul__

    def counted(self, other):
        count[0] += 1
        return real(self, other)

    monkeypatch.setattr(QF, "__mul__", counted)
    monkeypatch.setattr(QF, "__rmul__", counted)
    assert QF.sqrt3() * 2 == 2 * QF.sqrt3() and count[0] == 2  # the patch counts
    count[0] = 0
    mk.group_333.cache_clear()
    try:
        assert mk.group_333() == expected
    finally:
        mk.group_333.cache_clear()
    assert count[0] == 0


def _commutes(g, m) -> bool:
    """Does g = diag(e)·P(mu) commute with m?  Row i of gm is e_i·m[(i)mu],
    and row i of mg is m[i] acted on by g.  The scan of every cube
    symmetry with it is the oracle of group_333's orbit–stabilizer count."""
    return all(tuple(e * x for x in m[p - 1]) == g.act(m[i])
               for i, (e, p) in enumerate(zip(g.signs, g.perm)))


def test_commutation_test_agrees_with_integer_products():
    # K = sqrt(3) J has entries 0 and +-1: g commutes with J exactly when
    # the integer products gK and Kg agree.
    j = mk.build_J()
    scaled = [[x * QF.sqrt3() for x in row] for row in j]
    assert all(x in (ZERO, ONE, -ONE) for row in scaled for x in row)
    k = [[x._q[0] for x in row] for row in scaled]

    def mul(p, q):
        return [[sum(p[r][t] * q[t][c] for t in range(4)) for c in range(4)]
                for r in range(4)]

    group = group_cube()
    commuting = [g for g in group if mul(matrix(g), k) == mul(k, matrix(g))]
    assert len(group) == 384 and len(commuting) == 24
    assert k == [list(row) for row in mk._J_PATTERN]
    for g in group:
        assert _commutes(g, j) == (g in commuting), g
    # group_333 counts on the integer pattern; the scans are its oracle
    report = mk.group_333()
    assert report["centralizer_order"] == len(commuting)
    assert report["centralizer_equals_group"]
    assert set(commuting) == {g for g in group if _commutes(g, mk._J_PATTERN)}
    assert set(commuting) == group_unitary().element_set


def test_conjugation_is_the_matrix_product_and_m_has_16_conjugates():
    m = [list(row) for row in mk._J_PATTERN]

    def mul(p, q):
        return [[sum(p[r][t] * q[t][c] for t in range(4)) for c in range(4)]
                for r in range(4)]

    group = group_cube()
    for g in group:
        conjugate = mul(mul(matrix(g), m), matrix(g.inverse()))
        assert [list(row) for row in mk._conjugate(mk._J_PATTERN, g)] == conjugate, g
        assert (mk._conjugate(mk._J_PATTERN, g) == mk._J_PATTERN) == _commutes(g, mk._J_PATTERN)
    # orbit–stabilizer: 384 symmetries, 16 conjugates, a centralizer of 24
    conjugates = {mk._conjugate(mk._J_PATTERN, g) for g in group}
    assert len(conjugates) == 16 and len(group) // len(conjugates) == 24


@pytest.mark.parametrize("generators", [("gamma1", "rho0"), ("gamma1",)],
                         ids=["order-24-moving-m", "order-3-fixing-m"])
def test_group_333_tells_a_wrong_group_from_the_centralizer(generators, monkeypatch):
    """<gamma1, rho0> has the centralizer's order, but rho0 does not
    commute with M; <gamma1> commutes with M, but is too small."""
    atlas = build_atlas()
    wrong = ConcreteGroup.generate([getattr(atlas, name) for name in generators])
    monkeypatch.setattr(mk, "group_unitary", lambda: wrong)
    mk.group_333.cache_clear()
    try:
        report = mk.group_333()
    finally:
        mk.group_333.cache_clear()
    assert report["centralizer_order"] == 24
    assert not report["centralizer_equals_group"]


def test_cross_polytope():
    # the eight labelled vertices are pairwise opposite or orthogonal, and
    # are exactly the odd-parity vertices of the ambient 4-cube
    labeling = point_labels()
    pts = [labeling.point_of[k] for k in range(8)]
    for p, q in itertools.combinations(pts, 2):
        assert sum(x * y for x, y in zip(p, q)) in (0, -4)
    odd = {p for p in itertools.product((1, -1), repeat=4)
           if sum(1 for x in p if x < 0) % 2 == 1}
    assert set(pts) == odd
    assert pts[0] == tuple(-x for x in pts[4])
    assert sum(x * y for x, y in zip(pts[0], pts[1])) == 0


def test_point_checks_name_a_broken_configuration(config):
    mk._check_cross_polytope_and_shadows(config)
    # labels 4..7 rotated by one: 0 and 4 are no longer antipodes
    rotated = config._replace(points=config.points[:4] + config.points[5:]
                              + config.points[4:5])
    with pytest.raises(CheckFailed, match=r"^mk\.labels-k-and-k-plus-4-antipodal"):
        mk._check_cross_polytope_and_shadows(rotated)


def test_collinearity_guard():
    labeling = point_labels()
    pts = []
    for label in (0, 1, 2):
        z1, z2 = mk.complexify(labeling.point_of[label])
        pts.append(mk.MKPoint(label=label, ambient=labeling.point_of[label],
                              z1=z1, z2=z2))
    with pytest.raises(CheckFailed) as exc:
        mk._line_through(*pts)  # 0, 1, 2 are not collinear
    assert exc.value.name == "mk.points-collinear" and exc.value.witness == (0, 1, 2)
