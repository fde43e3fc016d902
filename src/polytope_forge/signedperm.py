"""Signed permutations of {1..n} with exact semantics.

An element is the record (n, perm, signs): its degree n, a permutation mu
of {1..n} held as an image table, and a sign vector e in {+1,-1}^n.  The
record corresponds to the n x n matrix diag(e) * P(mu), where P(mu) has a
1 in row i, column (i)mu.  Points are row vectors acting on the right, so
composition reads left to right: (p)(a*b) = ((p)a)b and
matrix(a*b) = matrix(a) @ matrix(b).  Elements hash, compare and sort as
the tuple of their fields (n, perm, signs).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence

__all__ = [
    "SignedPerm",
    "block_pair",
]

def _cycles_to_image(n: int, cycles: Iterable[Sequence[int]]) -> tuple[int, ...]:
    image = list(range(1, n + 1))
    for cycle in cycles:
        if len(cycle) <= 1:
            continue
        for a, b in zip(cycle, tuple(cycle[1:]) + (cycle[0],)):
            if not 1 <= a <= n:
                raise ValueError(f"cycle entry {a} outside 1..{n}")
            image[a - 1] = b
    seen = set(image)
    if len(seen) != n:
        raise ValueError(f"cycles {cycles!r} do not describe a permutation")
    return tuple(image)


class SignedPerm(namedtuple("SignedPerm", "n perm signs")):
    """A signed permutation matrix in sign-vector * permutation form."""

    __slots__ = ()

    # __new__ stores the fields and __init__ checks them, so that the
    # records built by tuple.__new__ (products, inverses, decoded codes) are
    # trusted and only the public constructor validates.
    def __new__(cls, signs: Sequence[int], perm: Sequence[int]):
        perm = tuple(perm)
        return tuple.__new__(cls, (len(perm), perm, tuple(signs)))

    def __init__(self, signs: Sequence[int], perm: Sequence[int]):
        signs, perm = self.signs, self.perm
        if len(signs) != len(perm):
            raise ValueError("sign vector and permutation lengths differ")
        if any(s not in (1, -1) for s in signs):
            raise ValueError(f"signs must be +-1, got {signs}")
        if sorted(perm) != list(range(1, len(perm) + 1)):
            raise ValueError(f"image table {perm} is not a permutation of 1..{len(perm)}")

    @classmethod
    def _make(cls, iterable) -> "SignedPerm":
        """`_replace` builds through here: validate it too, and the degree
        against the image table."""
        n, perm, signs = iterable
        g = cls(signs, perm)
        if g.n != n:
            raise ValueError(f"degree {n} differs from the image table's {g.n}")
        return g

    def __getnewargs__(self) -> tuple:
        """What copy and pickle pass back to __new__."""
        return self.signs, self.perm

    @classmethod
    def _trusted(cls, signs: tuple, perm: tuple) -> "SignedPerm":
        """Build from tuples already known to be valid, such as the product
        or inverse of valid signed permutations, skipping the checks."""
        return tuple.__new__(cls, (len(perm), perm, signs))

    # tuple's concatenation and repetition are no group operations.  The
    # reflected + raises: were it NotImplemented, `(1,) + g` would fall back
    # to the left tuple's concatenation.
    def __add__(self, other):
        return NotImplemented

    def __radd__(self, other):
        raise TypeError(f"unsupported operand type(s) for +: "
                        f"{type(other).__name__!r} and 'SignedPerm'")

    def __rmul__(self, other):
        return NotImplemented

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "SignedPerm":
        return cls((1,) * n, tuple(range(1, n + 1)))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]] = ()) -> "SignedPerm":
        """Build from cycle notation, all signs +1; (4,3,2,1) maps
        4->3->2->1->4."""
        return cls((1,) * n, _cycles_to_image(n, cycles))

    @classmethod
    def parse(cls, text: str) -> "SignedPerm":
        """Read the form `str` writes: the sign vector in parentheses, a `·`
        or `*` with optional white space around it, then one or more
        parenthesized cycles with nothing between them, `()` for none.  No
        other parenthesis may appear; anything else is a `ValueError`."""
        head, _, rest = text.strip().partition(")")
        rest = rest.lstrip()
        body = rest[1:].lstrip()
        if not (head[:1] == "(" and rest[:1] in ("·", "*")
                and body[:1] == "(" and body[-1:] == ")"):
            raise ValueError(f"cannot parse signed permutation {text!r}")
        # a parenthesis left inside the signs or a cycle fails int()
        signs = tuple(int(tok) for tok in head[1:].split(","))
        cycles = [tuple(int(tok) for tok in cyc.split(","))
                  for cyc in body[1:-1].split(")(") if cyc.strip()]
        return cls(signs, _cycles_to_image(len(signs), cycles))

    # -- group operations --------------------------------------------------

    def __mul__(self, other: "SignedPerm") -> "SignedPerm":
        """Apply self first, then other; matches matrix(self) @ matrix(other)."""
        if not isinstance(other, SignedPerm):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        es, ps = self.signs, self.perm
        eo, po = other.signs, other.perm
        signs = tuple(es[i] * eo[ps[i] - 1] for i in range(len(ps)))
        perm = tuple(po[ps[i] - 1] for i in range(len(ps)))
        return SignedPerm._trusted(signs, perm)

    def inverse(self) -> "SignedPerm":
        n = self.n
        inv = [0] * n
        for i, img in enumerate(self.perm):
            inv[img - 1] = i + 1
        signs = tuple(self.signs[inv[j] - 1] for j in range(n))
        return SignedPerm._trusted(signs, tuple(inv))

    def __pow__(self, k: int) -> "SignedPerm":
        if k < 0:
            return self.inverse() ** (-k)
        result = SignedPerm.identity(self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conjugate(self, h: "SignedPerm") -> "SignedPerm":
        """h^-1 * self * h."""
        return h.inverse() * self * h

    def order(self) -> int:
        k, e = 1, self
        ident = SignedPerm.identity(self.n)
        while e != ident:
            e = e * self
            k += 1
        return k

    # -- semantics ---------------------------------------------------------

    def act(self, point: Sequence) -> tuple:
        """Right action on a row vector: out[(i)mu] = e_i * p_i."""
        if len(point) != self.n:
            raise ValueError(f"point dimension {len(point)} != {self.n}")
        out = [None] * self.n
        for i in range(self.n):
            out[self.perm[i] - 1] = self.signs[i] * point[i]
        return tuple(out)

    def points(self) -> tuple[int, ...]:
        """The permutation of the 2n signed points: +i is point i-1 and -i
        point n+i-1, and entry p is the image of point p.  The product
        a * b is then tuple(map(b.points().__getitem__, a.points()))."""
        n = self.n
        image = [0] * (2 * n)
        for i, (s, p) in enumerate(zip(self.signs, self.perm)):
            image[i], image[n + i] = (p - 1, n + p - 1) if s > 0 else (n + p - 1, p - 1)
        return tuple(image)

    def determinant(self) -> int:
        det = 1
        for s in self.signs:
            det *= s
        seen = [False] * self.n
        for i in range(self.n):
            if seen[i]:
                continue
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = self.perm[j] - 1
                length += 1
            if length % 2 == 0:
                det = -det
        return det

    def is_involution(self) -> bool:
        return self != SignedPerm.identity(self.n) and self * self == SignedPerm.identity(self.n)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        seen = [False] * self.n
        out = []
        for i in range(self.n):
            if seen[i] or self.perm[i] == i + 1:
                seen[i] = True
                continue
            cyc = []
            j = i
            while not seen[j]:
                seen[j] = True
                cyc.append(j + 1)
                j = self.perm[j] - 1
            out.append(tuple(cyc))
        return tuple(out)

    # -- formatting -----------------------------------------------------------

    def __str__(self) -> str:
        signs = "(" + ",".join(str(s) for s in self.signs) + ")"
        cycs = self.cycles()
        if not cycs:
            return signs + "·()"
        return signs + "·" + "".join("(" + ",".join(map(str, c)) + ")" for c in cycs)

    def __repr__(self) -> str:
        return f"SignedPerm.parse({str(self)!r})"


def block_pair(a: SignedPerm, b: SignedPerm) -> SignedPerm:
    """Block-diagonal element acting as a on 1..n and as b shifted to n+1..2n."""
    if a.n != b.n:
        raise ValueError("blocks must share a dimension")
    n = a.n
    signs = a.signs + b.signs
    perm = a.perm + tuple(x + n for x in b.perm)
    return SignedPerm(signs, perm)
