"""The Moebius-Kantor configuration 8_3, realized exactly.

The ambient space is E^4 with a complex structure J (an orthogonal matrix
with J^2 = -I); scalar multiplication (a+ib)u = au + b(uJ) turns E^4 into
C^2.  J and its centralizer are checked on an integer matrix; all other
arithmetic happens in the 4-dimensional Q-algebra Q(sqrt(3), i) =
{a + b*sqrt(3) + c*i + d*i*sqrt(3)}; there is no floating point and no
epsilon anywhere in this module.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .cubefamily import (
    CONFIGURATION_LINES,
    build_atlas,
    group_cube,
    group_unitary,
    point_labels,
    presentation_unitary_triangle,
)
from .groupcore import broken_relator, check, enumerate_cosets, orbit
from .records import record

__all__ = [
    "QF",
    "build_J",
    "build_L",
    "complexify",
    "MKPoint",
    "MKLine",
    "Configuration",
    "build_configuration",
    "table_coordinates",
    "group_333",
]


class QF:
    """An element (a + b*sqrt(3) + c*i + d*i*sqrt(3)) / den, stored as four
    integer numerators over one positive denominator in lowest terms, so
    equal values are equal tuples.  It is made from four `int` parts, over
    den = 1; division gives the other denominators."""

    __slots__ = ("_q",)  # (a, b, c, d, den): the parts are a/den .. d/den

    def __init__(self, a=0, b=0, c=0, d=0):
        for x in (a, b, c, d):
            if not isinstance(x, int):
                raise TypeError(f"QF parts are int, not {type(x).__name__}")
        _set(self, "_q", (a, b, c, d, 1))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("QF is immutable")

    # constructors
    @classmethod
    def sqrt3(cls) -> "QF":
        return cls(0, 1)

    @classmethod
    def i(cls) -> "QF":
        return cls(0, 0, 1)

    @classmethod
    def r(cls) -> "QF":
        """sqrt(3) - 1, the inner-square radius."""
        return cls(-1, 1)

    @staticmethod
    def _coerce(x) -> "QF":
        if isinstance(x, QF):
            return x
        if isinstance(x, int):
            return QF(x)
        return NotImplemented

    # ring operations
    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d, m = self._q
        e, f, g, h, n = other._q
        if m == n:
            return _reduced(a + e, b + f, c + g, d + h, m)
        return _reduced(a * n + e * m, b * n + f * m, c * n + g * m, d * n + h * m, m * n)

    def __neg__(self):
        a, b, c, d, m = self._q
        return _exact((-a, -b, -c, -d, m))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d, m = self._q
        e, f, g, h, n = other._q
        return _reduced(
            a * e + 3 * (b * f - d * h) - c * g,
            a * f + b * e - c * h - d * g,
            a * g + c * e + 3 * (b * h + d * f),
            a * h + d * e + b * g + c * f,
            m * n,
        )

    __rmul__ = __mul__

    def conj_i(self) -> "QF":
        """The automorphism i -> -i."""
        a, b, c, d, m = self._q
        return _exact((a, b, -c, -d, m))

    def conj_sqrt3(self) -> "QF":
        """The automorphism sqrt(3) -> -sqrt(3)."""
        a, b, c, d, m = self._q
        return _exact((a, -b, c, -d, m))

    def inverse(self) -> "QF":
        n1 = self * self.conj_i()
        # the norm num/den is |x|^2 |x'|^2 for x' = x.conj_sqrt3(), so num >= 0
        num, _, _, _, den = (n1 * n1.conj_sqrt3())._q
        if num == 0:
            raise ZeroDivisionError("QF division by zero")
        return self.conj_i() * n1.conj_sqrt3() * _exact((den, 0, 0, 0, num))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def is_zero(self) -> bool:
        return self._q[:4] == (0, 0, 0, 0)

    def is_real(self) -> bool:
        return self._q[2] == self._q[3] == 0

    def real_imag(self) -> tuple["QF", "QF"]:
        """(x, y) in Q(sqrt(3)) with self = x + i*y."""
        a, b, c, d, m = self._q
        return _reduced(a, b, 0, 0, m), _reduced(c, d, 0, 0, m)

    def __eq__(self, other) -> bool:
        # only a QF equals a QF, so equal values hash alike
        if not isinstance(other, QF):
            return NotImplemented
        return self._q == other._q

    def __hash__(self) -> int:
        return hash(self._q)

    def part_strings(self) -> tuple[str, str, str, str]:
        """Each part as "n" or "n/d" in lowest terms."""
        *nums, den = self._q
        out = []
        for n in nums:
            g = math.gcd(n, den)
            out.append(str(n // g) if g == den else f"{n // g}/{den // g}")
        return tuple(out)

    def __float__(self) -> float:
        """The real part a/den + b/den * sqrt(3); each int / int quotient is
        correctly rounded."""
        a, b, _, _, m = self._q
        return a / m + b / m * 3 ** 0.5

    def __repr__(self) -> str:
        return f"QF({', '.join(self.part_strings())})"


_set = object.__setattr__


def _exact(q: tuple[int, int, int, int, int]) -> QF:
    """The QF stored as q, which is already in lowest terms."""
    x = object.__new__(QF)
    _set(x, "_q", q)
    return x


def _reduced(a: int, b: int, c: int, d: int, den: int) -> QF:
    """(a + b*sqrt(3) + c*i + d*i*sqrt(3)) / den for den > 0, in lowest terms."""
    g = math.gcd(a, b, c, d, den)
    if g == 1:
        return _exact((a, b, c, d, den))
    return _exact((a // g, b // g, c // g, d // g, den // g))


ZERO = QF(0)
ONE = QF(1)

Vec4 = tuple[QF, QF, QF, QF]
Mat4 = tuple[Vec4, Vec4, Vec4, Vec4]


def dot(u: Vec4, v: Vec4) -> QF:
    total = ZERO
    for x, y in zip(u, v):
        total = total + x * y
    return total


def vec_add(u, v):
    return tuple(x + y for x, y in zip(u, v))


def scalar_mul(s: QF, u):
    return tuple(s * x for x in u)


def row_times_matrix(u, m: Mat4):
    return tuple(
        sum((u[i] * m[i][j] for i in range(4)), ZERO) for j in range(4))


# M = sqrt(3)·J.  Every entry of J is 0 or +-1/sqrt(3), so this integer
# matrix carries J's algebra (M·M = -3I is J^2 = -I, M·M^T = 3I is J
# orthogonal) and its centralizer: g commutes with J exactly when with M.
_J_PATTERN = ((0, 1, -1, -1), (-1, 0, -1, 1), (1, 1, 0, 1), (1, -1, -1, 0))


@lru_cache(maxsize=None)
def build_J() -> Mat4:
    """The complex structure J = M/sqrt(3) = M·sqrt(3)/3, M = _J_PATTERN:
    orthogonal with J^2 = -I, both checked on M over the integers."""
    m = _J_PATTERN
    square = tuple(tuple(sum(m[r][t] * m[t][c] for t in range(4)) for c in range(4))
                   for r in range(4))
    check(square == tuple(tuple(-3 * (r == c) for c in range(4)) for r in range(4)),
          "mk.j-squares-to-minus-identity", square)
    gram = tuple(tuple(sum(x * y for x, y in zip(row, other)) for other in m) for row in m)
    check(gram == tuple(tuple(3 * (r == c) for c in range(4)) for r in range(4)),
          "mk.j-orthogonal", gram)
    return tuple(tuple(_reduced(0, x, 0, 0, 3) for x in row) for row in m)


@lru_cache(maxsize=None)
def build_L() -> Mat4:
    """Rows a1, b1, a2, b2: an orthogonal basis adapted to J; the first two
    rows span the projection plane, the last two its orthogonal complement."""
    f = QF.sqrt3() / 6  # 1/(2*sqrt(3))
    t = QF(2) + QF.sqrt3()
    s3 = QF.sqrt3()
    rows = (
        scalar_mul(f, (s3, QF(-1), QF(1), -t)),
        scalar_mul(f, (QF(-1), t, s3, QF(-1))),
        scalar_mul(f, (QF(-1), -s3, t, QF(1))),
        scalar_mul(f, (t, QF(1), QF(1), s3)),
    )
    a1, b1, a2, b2 = rows
    gram1 = (dot(a1, a1), dot(b1, b1), dot(a1, b1))
    check(gram1[0] == gram1[1] and gram1[2] == ZERO, "mk.a1-b1-orthogonal-pair", gram1)
    gram2 = (dot(a2, a2), dot(b2, b2), dot(a2, b2))
    check(gram2[0] == gram2[1] and gram2[2] == ZERO, "mk.a2-b2-orthogonal-pair", gram2)
    cross = tuple(dot(x, y) for x in (a1, b1) for y in (a2, b2))
    check(cross == (ZERO,) * 4, "mk.plane-orthogonal-to-its-complement", cross)
    j = build_J()
    images = (row_times_matrix(a1, j), row_times_matrix(a2, j))
    check(images == (b1, b2), "mk.basis-adapted-to-j", images)
    return rows


@lru_cache(maxsize=None)
def _inverse_norms() -> tuple[QF, QF, QF, QF]:
    """1 / (x . x) for each row x of build_L()."""
    return tuple(dot(x, x).inverse() for x in build_L())


def _complex(x: QF, y: QF) -> QF:
    """x + i*y for x, y in Q(sqrt(3))."""
    a, b, _, _, m = x._q
    c, d, _, _, n = y._q
    return _reduced(a * n, b * n, c * m, d * m, m * n)


def complexify(point) -> tuple[QF, QF]:
    """Coordinates (z1, z2) of a vector in the C-basis a1, a2."""
    u = tuple(x if isinstance(x, QF) else QF(x) for x in point)
    a1, b1, a2, b2 = rows = build_L()
    x1, y1, x2, y2 = (dot(u, x) * inv for x, inv in zip(rows, _inverse_norms()))
    check(all(part.is_real() for part in (x1, y1, x2, y2)), "mk.complexify-parts-real",
          (x1, y1, x2, y2))
    z1, z2 = _complex(x1, y1), _complex(x2, y2)
    # z1 a1 + z2 a2, since build_L checks a1 J = b1 and a2 J = b2
    recon = vec_add(vec_add(scalar_mul(x1, a1), scalar_mul(y1, b1)),
                    vec_add(scalar_mul(x2, a2), scalar_mul(y2, b2)))
    check(recon == u, "mk.complexify-reconstructs-the-point", u)
    return z1, z2


# ---------------------------------------------------------------------------
# the configuration
# ---------------------------------------------------------------------------

# ambient: the point of E^4; z1, z2: its complex coordinates, as QFs
MKPoint = record("MKPoint", "label ambient z1 z2")


class MKLine(record("MKLine", "coeff_z1 coeff_z2 rhs points")):
    """The line coeff_z1 * z1 + coeff_z2 * z2 = rhs through the three
    labels of `points`."""

    __slots__ = ()

    def contains(self, p: MKPoint) -> bool:
        return (self.coeff_z1 * p.z1 + self.coeff_z2 * p.z2 - self.rhs).is_zero()


class Configuration(record("Configuration", "points lines incidence")):
    __slots__ = ()

    def incidence_row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.incidence)

    def incidence_col_sums(self) -> tuple[int, ...]:
        return tuple(sum(row[j] for row in self.incidence) for j in range(8))

    def to_json_dict(self) -> dict:
        def qf(x: QF):
            return list(x.part_strings())

        return {
            "object": "moebius-kantor",
            "points": [{"label": p.label, "ambient": list(p.ambient),
                        "z1": qf(p.z1), "z2": qf(p.z2)} for p in self.points],
            "lines": [{"points": list(ln.points), "coeff_z1": qf(ln.coeff_z1),
                       "coeff_z2": qf(ln.coeff_z2), "rhs": qf(ln.rhs)}
                      for ln in self.lines],
            "incidence": [list(row) for row in self.incidence],
        }


def _line_through(p: MKPoint, q: MKPoint, s: MKPoint) -> MKLine:
    dz1 = q.z1 - p.z1
    dz2 = q.z2 - p.z2
    ez1 = s.z1 - p.z1
    ez2 = s.z2 - p.z2
    check((dz1 * ez2 - dz2 * ez1).is_zero(), "mk.points-collinear",
          (p.label, q.label, s.label))
    coeff_z1, coeff_z2 = dz2, -dz1
    rhs = coeff_z1 * p.z1 + coeff_z2 * p.z2
    return MKLine(coeff_z1=coeff_z1, coeff_z2=coeff_z2, rhs=rhs,
                  points=tuple(sorted((p.label, q.label, s.label))))


@lru_cache(maxsize=None)
def table_coordinates() -> dict[int, tuple[QF, QF]]:
    """The published complex coordinates, r = sqrt(3) - 1, which
    build_configuration checks the solved points against.  The final row is
    labelled 0 in print but is forced to be point 7 by central symmetry."""
    r = QF.r()
    i = QF.i()
    return {
        0: (r, ONE - i),
        1: (-ONE + i, r),
        2: (r * i, -ONE - i),
        3: (-ONE - i, -(r * i)),
        4: (-r, -ONE + i),
        5: (ONE - i, -r),
        6: (-(r * i), ONE + i),
        7: (ONE + i, r * i),
    }


@lru_cache(maxsize=None)
def build_configuration() -> Configuration:
    """Points, lines and the 8x8 incidence matrix of the configuration, on
    the labels solved from the trivalent graph; each point's coordinates
    are checked against the published table."""
    points = []
    for label, ambient in enumerate(point_labels().point_of):
        z1, z2 = complexify(ambient)
        points.append(MKPoint(label=label, ambient=ambient, z1=z1, z2=z2))
    table = table_coordinates()
    mismatch = next((p.label for p in points if (p.z1, p.z2) != table[p.label]), None)
    check(mismatch is None, "mk.coordinates-match-the-table", mismatch)

    lines = []
    for triple in CONFIGURATION_LINES:
        a, b, c = sorted(triple)
        line = _line_through(points[a], points[b], points[c])
        on_line = [p.label for p in points if line.contains(p)]
        check(on_line == [a, b, c], "mk.line-meets-only-its-points", ([a, b, c], on_line))
        lines.append(line)
    lines.sort(key=lambda ln: ln.points)

    incidence = tuple(
        tuple(1 if p in ln.points else 0 for p in range(8)) for ln in lines)
    config = Configuration(points=tuple(points), lines=tuple(lines),
                           incidence=incidence)
    check(config.incidence_row_sums() == config.incidence_col_sums() == (3,) * 8,
          "mk.incidence-8-8-3", config.incidence)
    _check_mutually_inscribed(config)
    _check_cross_polytope_and_shadows(config)
    return config


def _check_mutually_inscribed(config: Configuration) -> None:
    """The quadrangles 0246 and 1357 inscribe each other; the same holds for
    the other two companion pairings."""
    line_sets = {frozenset(ln.points) for ln in config.lines}
    pairings = (((0, 2, 4, 6), (1, 3, 5, 7)),
                ((0, 5, 4, 1), (2, 3, 6, 7)),
                ((1, 2, 5, 6), (0, 7, 4, 3)))

    def inscribed(quad, other) -> bool:
        """Each side of quad lies on one line, whose third point is in other."""
        for k in range(4):
            edge = {quad[k], quad[(k + 1) % 4]}
            matches = [ln for ln in line_sets if edge <= ln]
            if len(matches) != 1 or not (matches[0] - edge) <= set(other):
                return False
        return True

    unmet = next(((quad, other) for quad_a, quad_b in pairings
                  for quad, other in ((quad_a, quad_b), (quad_b, quad_a))
                  if not inscribed(quad, other)), None)
    check(unmet is None, "mk.quadrangles-mutually-inscribed", unmet)


def _check_cross_polytope_and_shadows(config: Configuration) -> None:
    """Labels k and k+4 are antipodes with negated coordinates; the eight
    points are the odd-parity vertices of the 4-cube and pairwise opposite
    or orthogonal; projected to z2 = 0 they form the squares (+-r, 0),
    (0, +-r) and (+-1, +-1)."""
    pts = config.points
    unpaired = next((k for k in range(4)
                     if pts[k + 4].ambient != tuple(-x for x in pts[k].ambient)
                     or (pts[k + 4].z1, pts[k + 4].z2) != (-pts[k].z1, -pts[k].z2)), None)
    check(unpaired is None, "mk.labels-k-and-k-plus-4-antipodal", unpaired)
    ambient = [p.ambient for p in pts]
    odd = {v for v in itertools.product((1, -1), repeat=4) if v.count(-1) % 2 == 1}
    check(set(ambient) == odd
          and all(sum(x * y for x, y in zip(p, q)) in (0, -4)
                  for p, q in itertools.combinations(ambient, 2)),
          "mk.points-form-a-cross-polytope", ambient)
    r = QF.r()
    shadows = {p.z1.real_imag() for p in pts}
    squares = ({(r, ZERO), (-r, ZERO), (ZERO, r), (ZERO, -r)}
               | {(QF(s), QF(t)) for s in (1, -1) for t in (1, -1)})
    check(shadows == squares, "mk.plane-shadows-two-squares", shadows)


def paper_line_coefficients() -> tuple[QF, QF, QF]:
    """The displayed equation of the line through points 1, 6, 7:
    r(1-i) z1 + 2 z2 = 2r(1+i)."""
    r = QF.r()
    i = QF.i()
    return (r * (ONE - i), QF(2), QF(2) * r * (ONE + i))


def line_matches_paper(config: Configuration) -> bool:
    """Is the computed line through 1, 6, 7 proportional to the displayed
    equation (and satisfied by exactly those three points)?"""
    target = next(ln for ln in config.lines if ln.points == (1, 6, 7))
    pa, pb, pc = paper_line_coefficients()
    triples = ((target.coeff_z1, pa), (target.coeff_z2, pb), (target.rhs, pc))
    for (x1, y1), (x2, y2) in itertools.combinations(triples, 2):
        if not (x1 * y2 - y1 * x2).is_zero():
            return False
    for label in range(8):
        point = config.points[label]
        satisfied = (pa * point.z1 + pb * point.z2 - pc).is_zero()
        if satisfied != (label in (1, 6, 7)):
            return False
    return True


# ---------------------------------------------------------------------------
# the unitary triangle group and the centralizer of J
# ---------------------------------------------------------------------------

def _conjugate(m: Mat4, g) -> Mat4:
    """g·m·g^-1 for g = diag(e)·P(mu): row r of gm is e_r·m[(r)mu], so its
    entry (r, c) is e_r·e_c·m[(r)mu][(c)mu]."""
    e, mu = g.signs, g.perm
    return tuple(tuple(e[r] * e[c] * m[mu[r] - 1][mu[c] - 1] for c in range(4))
                 for r in range(4))


@lru_cache(maxsize=None)
def group_333() -> dict:
    """The symmetry group of the complex polygon spanned by the eight
    points: generated by two period-3 elements satisfying the braid
    relation, of order 24, and equal to the centralizer of J in the full
    cube group.  The centralizer is the stabilizer of J's integer pattern M
    under conjugation, of order 384 over the size of M's orbit; the group's
    generators fix M, so it is the centralizer when the orders agree."""
    atlas = build_atlas()
    g1, g2 = atlas.gamma1, atlas.gamma2
    ident = atlas.rho0 * atlas.rho0
    braid = g1 * g2 * g1 == g2 * g1 * g2
    group = group_unitary()

    cube = group_cube()
    centralizer_order = len(cube) // len(orbit(cube, _J_PATTERN, _conjugate))
    inside = all(_conjugate(_J_PATTERN, g) == _J_PATTERN for g in group.generator_list())

    pres = presentation_unitary_triangle()
    table = enumerate_cosets(pres, subgroup_words=(), cap=10_000)

    return {
        "gamma1_order_3": g1 ** 3 == ident,
        "gamma2_order_3": g2 ** 3 == ident,
        "braid_relation": braid,
        "relators_hold": broken_relator([g1, g2], pres) is None,
        "group_order": len(group),
        "centralizer_order": centralizer_order,
        "centralizer_equals_group": inside and len(group) == centralizer_order,
        "presentation_index": table.index,
    }
