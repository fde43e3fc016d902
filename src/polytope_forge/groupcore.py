"""Finite group engine: closure from generators, centres, orbits and
stabilizers, homomorphism extension over a Cayley graph, string/intersection
conditions, and coset enumeration of finite presentations.

Everything is brute force by design: the groups in scope have order at most
768, so exhaustive closure beats clever data structures on clarity and makes
every claim directly checkable.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

__all__ = [
    "CheckFailed",
    "check",
    "CapExceeded",
    "NotASubgroup",
    "ConcreteGroup",
    "orbit",
    "stabilizer",
    "setwise_stabilizer",
    "Homomorphism",
    "HomomorphismFailure",
    "extend_homomorphism",
    "string_condition",
    "intersection_condition",
    "Presentation",
    "verify_relators",
    "CosetTable",
    "enumerate_cosets",
    "QuotientElem",
]

DEFAULT_CAP = 10**6


class CheckFailed(Exception):
    """A build-time check failed.  `name` is the check's stable id and
    `witness`, when given, the value that broke it."""

    def __init__(self, name: str, witness=None):
        self.name = name
        self.witness = witness
        super().__init__(name if witness is None else f"{name}: {witness!r}")


def check(ok, name: str, witness=None) -> None:
    """Raise CheckFailed(name, witness) unless ok.  Unlike `assert`, this
    also runs under `python -O`."""
    if not ok:
        raise CheckFailed(name, witness)


class CapExceeded(Exception):
    """Closure or coset table grew past the requested cap."""


class NotASubgroup(CheckFailed):
    pass


class ConcreteGroup:
    """A fully enumerated finite group with named generators.

    Elements may be any hashable values supporting `*` and `.inverse()`;
    the element list is kept in breadth-first closure order, which makes
    every derived listing deterministic.
    """

    def __init__(self, elements: Sequence, generators: Mapping[str, object], identity):
        self.elements: tuple = tuple(elements)
        self.element_set: frozenset = frozenset(elements)
        self.generators: dict = dict(generators)
        self.identity = identity
        if len(self.element_set) != len(self.elements):
            raise ValueError("duplicate elements")

    @classmethod
    def generate(cls, generators, cap: int = DEFAULT_CAP, names: Sequence[str] | None = None
                 ) -> "ConcreteGroup":
        """Close a generating set under multiplication (fixed-point pass)."""
        if isinstance(generators, Mapping):
            named = dict(generators)
        else:
            gens = list(generators)
            if names is None:
                names = [f"g{i}" for i in range(len(gens))]
            named = dict(zip(names, gens))
        if not named:
            raise ValueError("need at least one generator")
        gen_list = list(named.values())
        identity = gen_list[0] * gen_list[0].inverse()
        elements = [identity]
        seen = {identity}
        frontier = [identity]
        while frontier:
            nxt = []
            for e in frontier:
                for g in gen_list:
                    prod = e * g
                    if prod not in seen:
                        seen.add(prod)
                        elements.append(prod)
                        nxt.append(prod)
                        if len(elements) > cap:
                            raise CapExceeded(
                                f"closure exceeded cap={cap}; wrong generators?")
            frontier = nxt
        return cls(elements, named, identity)

    # -- basics --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, e) -> bool:
        return e in self.element_set

    def generator_list(self) -> list:
        return list(self.generators.values())

    def subgroup(self, generators, names: Sequence[str] | None = None) -> "ConcreteGroup":
        sub = ConcreteGroup.generate(generators, cap=len(self) + 1, names=names)
        if not sub.element_set <= self.element_set:
            raise NotASubgroup("generators escape the ambient group")
        return sub

    def is_subgroup(self, other: "ConcreteGroup") -> bool:
        return other.element_set <= self.element_set

    def centre(self) -> "ConcreteGroup":
        gens = self.generator_list()
        central = [z for z in self.elements
                   if all(z * g == g * z for g in gens)]
        names = {f"z{i}": z for i, z in enumerate(central)}
        return ConcreteGroup(central, names, self.identity)

    def coset_reps(self, sub: "ConcreteGroup") -> list:
        """One representative per right coset (sub)g, in first-appearance order."""
        if not self.is_subgroup(sub):
            raise NotASubgroup("coset_reps: not a subgroup")
        reps = []
        covered = set()
        for g in self.elements:
            if g in covered:
                continue
            reps.append(g)
            covered.update(s * g for s in sub.elements)
        check(len(reps) * len(sub) == len(self), "group.cosets-partition-the-group", len(reps))
        return reps

    def element_order(self, g) -> int:
        k, e = 1, g
        while e != self.identity:
            e = e * g
            k += 1
        return k


# -- orbits -------------------------------------------------------------------


def orbit(group: ConcreteGroup, point, action: Callable = None) -> list:
    """Orbit of a point under the group, in first-visit order."""
    if action is None:
        action = lambda p, g: g.act(p)
    gens = group.generator_list()
    out = [point]
    seen = {point}
    frontier = [point]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = action(p, g)
                if q not in seen:
                    seen.add(q)
                    out.append(q)
                    nxt.append(q)
        frontier = nxt
    return out


def stabilizer(group: ConcreteGroup, point, action: Callable = None) -> ConcreteGroup:
    if action is None:
        action = lambda p, g: g.act(p)
    elems = [g for g in group.elements if action(point, g) == point]
    names = {f"s{i}": g for i, g in enumerate(elems)}
    return ConcreteGroup(elems, names, group.identity)


def setwise_stabilizer(group: ConcreteGroup, points: Iterable, action: Callable = None
                       ) -> ConcreteGroup:
    if action is None:
        action = lambda p, g: g.act(p)
    pts = frozenset(points)
    elems = [g for g in group.elements
             if frozenset(action(p, g) for p in pts) == pts]
    names = {f"s{i}": g for i, g in enumerate(elems)}
    return ConcreteGroup(elems, names, group.identity)


# -- homomorphisms -------------------------------------------------------------


@dataclass(frozen=True)
class Homomorphism:
    """A homomorphism given by its full element-to-image mapping."""

    source: ConcreteGroup
    gen_images: dict
    mapping: dict

    def __call__(self, e):
        return self.mapping[e]

    def image_set(self) -> frozenset:
        return frozenset(self.mapping.values())

    def kernel(self) -> list:
        target_identity = self.mapping[self.source.identity]
        return [e for e in self.source.elements if self.mapping[e] == target_identity]

    def is_involutory(self) -> bool:
        """For an endomorphism: applying twice is the identity map."""
        return all(self.mapping[self.mapping[e]] == e for e in self.source.elements)

    def is_injective_on(self, elements: Iterable) -> bool:
        elems = list(elements)
        return len({self.mapping[e] for e in elems}) == len(elems)


@dataclass(frozen=True)
class HomomorphismFailure:
    """Witness that a generator assignment extends to no homomorphism.

    `word_a` and `word_b` are positive generator-name words with equal
    evaluations in the source but different evaluations under the images.
    """

    word_a: tuple
    word_b: tuple

    def __bool__(self) -> bool:
        return False


def _eval_name_word(images: Mapping[str, object], word: Sequence[str], identity):
    e = identity
    for name in word:
        e = e * images[name]
    return e


def extend_homomorphism(src: ConcreteGroup, images: Mapping[str, object]
                        ) -> Homomorphism | HomomorphismFailure:
    """Extend a generator assignment along the Cayley graph of `src`.

    Returns the unique extension when consistent, otherwise a failure
    carrying two words that evaluate equally in `src` but differently
    under the assignment.
    """
    missing = set(src.generators) - set(images)
    if missing:
        raise ValueError(f"images missing for generators {sorted(missing)}")
    some_image = next(iter(images.values()))
    target_identity = some_image * some_image.inverse()
    mapping = {src.identity: target_identity}
    words = {src.identity: ()}
    queue = deque([src.identity])
    while queue:
        e = queue.popleft()
        for name, g in src.generators.items():
            e2 = e * g
            img2 = mapping[e] * images[name]
            w2 = words[e] + (name,)
            if e2 in mapping:
                if mapping[e2] != img2:
                    return HomomorphismFailure(word_a=w2, word_b=words[e2])
            else:
                mapping[e2] = img2
                words[e2] = w2
                queue.append(e2)
    check(len(mapping) == len(src), "hom.extension-covers-the-group", len(mapping))
    return Homomorphism(source=src, gen_images=dict(images), mapping=mapping)


def witness_pair_inconsistent(src: ConcreteGroup, images: Mapping[str, object],
                              word_a: Sequence[str], word_b: Sequence[str]) -> bool:
    """Check that two words certify failure: equal in src, unequal in images."""
    src_a = _eval_name_word(src.generators, word_a, src.identity)
    src_b = _eval_name_word(src.generators, word_b, src.identity)
    if src_a != src_b:
        return False
    some_image = next(iter(images.values()))
    target_identity = some_image * some_image.inverse()
    img_a = _eval_name_word(images, word_a, target_identity)
    img_b = _eval_name_word(images, word_b, target_identity)
    return img_a != img_b


# -- string C-group conditions --------------------------------------------------


def string_condition(gens: Sequence) -> bool:
    """Generators pairwise commute whenever their indices differ by >= 2."""
    for g in gens:
        if not g.is_involution():
            raise ValueError("string_condition expects involutions")
    n = len(gens)
    for i in range(n):
        for j in range(i + 2, n):
            prod = gens[i] * gens[j]
            if prod * prod != gens[i] * gens[i].inverse():
                return False
    return True


def intersection_condition(gens: Sequence, cap: int = DEFAULT_CAP) -> bool:
    """<g_i : i in I> meet <g_i : i in J> equals <g_i : i in I&J>, all I, J.

    Computed by explicit closure over every subset of the generators.
    """
    for g in gens:
        if not g.is_involution():
            raise ValueError("intersection_condition expects involutions")
    n = len(gens)
    identity = gens[0] * gens[0].inverse()
    closures: dict[int, frozenset] = {0: frozenset([identity])}
    for mask in range(1, 1 << n):
        sub = [gens[i] for i in range(n) if mask & (1 << i)]
        closures[mask] = ConcreteGroup.generate(sub, cap=cap).element_set
    for mask_i in range(1 << n):
        for mask_j in range(mask_i, 1 << n):
            if closures[mask_i] & closures[mask_j] != closures[mask_i & mask_j]:
                return False
    return True


# -- presentations --------------------------------------------------------------


def _freely_reduced(word: Sequence[int]) -> bool:
    return all(word[i] != -word[i + 1] for i in range(len(word) - 1))


@dataclass(frozen=True)
class Presentation:
    """Abstract generators and relator words as signed 1-based indices."""

    generator_count: int
    relators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for rel in self.relators:
            for x in rel:
                if x == 0 or abs(x) > self.generator_count:
                    raise ValueError(f"letter {x} outside +-1..{self.generator_count}")
            if not _freely_reduced(rel):
                raise ValueError(f"relator {rel} is not freely reduced")

    def to_json_dict(self) -> dict:
        return {"generators": self.generator_count,
                "relators": [list(r) for r in self.relators]}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Presentation":
        return cls(int(data["generators"]),
                   tuple(tuple(r) for r in data["relators"]))

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "Presentation":
        return cls.from_json_dict(json.loads(text))


def eval_word(assignment: Sequence, word: Sequence[int], identity):
    """Evaluate a signed word; assignment[i] realizes generator i+1."""
    e = identity
    for x in word:
        g = assignment[x - 1] if x > 0 else assignment[-x - 1].inverse()
        e = e * g
    return e


def verify_relators(assignment: Sequence, pres: Presentation) -> bool:
    if len(assignment) < pres.generator_count:
        raise ValueError("assignment shorter than generator count")
    some = assignment[0]
    identity = some * some.inverse()
    return all(eval_word(assignment, rel, identity) == identity
               for rel in pres.relators)


# -- Todd-Coxeter coset enumeration ---------------------------------------------


@dataclass(frozen=True)
class CosetTable:
    """A completed coset table: one row per coset, one column per signed
    generator (g1, g1^-1, g2, g2^-1, ...), entries are coset indices."""

    generator_count: int
    rows: tuple[tuple[int, ...], ...]
    subgroup_words: tuple[tuple[int, ...], ...]

    @property
    def index(self) -> int:
        return len(self.rows)

    @staticmethod
    def _col(letter: int) -> int:
        return 2 * (letter - 1) if letter > 0 else 2 * (-letter - 1) + 1

    def trace(self, start: int, word: Sequence[int]) -> int:
        c = start
        for x in word:
            c = self.rows[c][self._col(x)]
        return c

    def generator_permutation(self, gen: int) -> tuple[int, ...]:
        """Action of generator `gen` (1-based) on cosets, as an image tuple."""
        col = self._col(gen)
        return tuple(row[col] for row in self.rows)

    def representative_words(self) -> list[tuple[int, ...]]:
        """A word reaching each coset from coset 0, by breadth-first search."""
        words: dict[int, tuple[int, ...]] = {0: ()}
        queue = deque([0])
        letters = [x for g in range(1, self.generator_count + 1) for x in (g, -g)]
        while queue:
            c = queue.popleft()
            for x in letters:
                d = self.rows[c][self._col(x)]
                if d not in words:
                    words[d] = words[c] + (x,)
                    queue.append(d)
        check(len(words) == self.index, "cosets.every-coset-reached", len(words))
        return [words[i] for i in range(self.index)]

    def validate(self, pres: Presentation) -> bool:
        if pres.generator_count != self.generator_count:
            return False
        for c in range(self.index):
            for rel in pres.relators:
                if self.trace(c, rel) != c:
                    return False
        return all(self.trace(0, w) == 0 for w in self.subgroup_words)


def enumerate_cosets(pres: Presentation, subgroup_words: Sequence[Sequence[int]] = (),
                     cap: int = DEFAULT_CAP) -> CosetTable:
    """Relator-driven coset enumeration with immediate deductions.

    Cosets are numbered in first-appearance order and the final table is
    renumbered by breadth-first search from the subgroup coset, so the
    output is reproducible bit for bit.  Raises CapExceeded once the number
    of defined cosets passes `cap` (the presentation may define a larger or
    infinite group).
    """
    ngens = pres.generator_count
    ncols = 2 * ngens
    subgroup_words = tuple(tuple(w) for w in subgroup_words)
    for w in subgroup_words:
        for x in w:
            if x == 0 or abs(x) > ngens:
                raise ValueError(f"subgroup word letter {x} out of range")

    table: list[list[int]] = [[-1] * ncols]
    parent = [0]
    pending: deque[tuple[int, int]] = deque()
    stats = {"defined": 1, "merged": 0}

    def find(a: int) -> int:
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    def col_of(letter: int) -> int:
        return 2 * (letter - 1) if letter > 0 else 2 * (-letter - 1) + 1

    def define(a: int, c: int) -> int:
        if stats["defined"] >= cap:
            raise CapExceeded(f"coset count exceeded cap={cap}")
        b = len(table)
        table.append([-1] * ncols)
        parent.append(b)
        table[a][c] = b
        table[b][c ^ 1] = a
        stats["defined"] += 1
        return b

    def deduce(a: int, c: int, b: int) -> None:
        a, b = find(a), find(b)
        ea = table[a][c]
        if ea == -1:
            table[a][c] = b
        elif find(ea) != b:
            pending.append((find(ea), b))
        eb = table[b][c ^ 1]
        if eb == -1:
            table[b][c ^ 1] = a
        elif find(eb) != a:
            pending.append((find(eb), a))

    def process_pending() -> None:
        while pending:
            x, y = pending.popleft()
            x, y = find(x), find(y)
            if x == y:
                continue
            if y < x:
                x, y = y, x
            parent[y] = x
            stats["merged"] += 1
            row = table[y]
            for c in range(ncols):
                d = row[c]
                if d != -1:
                    deduce(x, c, find(d))

    def scan_and_fill(a: int, word: Sequence[int]) -> None:
        n = len(word)
        if n == 0:
            return
        f, i = find(a), 0
        b, j = find(a), n
        while True:
            while i < j:
                nxt = table[f][col_of(word[i])]
                if nxt == -1:
                    break
                f = find(nxt)
                i += 1
            if i == j:
                if f != b:
                    pending.append((f, b))
                    process_pending()
                return
            while j > i + 1:
                prv = table[b][col_of(word[j - 1]) ^ 1]
                if prv == -1:
                    break
                b = find(prv)
                j -= 1
            if j == i + 1:
                deduce(f, col_of(word[i]), b)
                process_pending()
                return
            f = define(f, col_of(word[i]))
            i += 1

    for w in subgroup_words:
        scan_and_fill(find(0), w)

    while True:
        before = (stats["defined"], stats["merged"])
        i = 0
        while i < len(table):
            if find(i) == i:
                for rel in pres.relators:
                    if find(i) != i:
                        break
                    scan_and_fill(i, rel)
            i += 1
        i = 0
        while i < len(table):
            if find(i) == i:
                for c in range(ncols):
                    if table[i][c] == -1:
                        define(i, c)
            i += 1
        if (stats["defined"], stats["merged"]) == before:
            break

    hole = next(((c, col) for c in range(len(table)) if find(c) == c
                 for col in range(ncols) if table[c][col] == -1), None)
    check(hole is None, "cosets.table-complete", hole)

    # compact: breadth-first renumbering from the subgroup coset
    start = find(0)
    order: dict[int, int] = {start: 0}
    queue = deque([start])
    while queue:
        c = queue.popleft()
        for col in range(ncols):
            d = find(table[c][col])
            if d not in order:
                order[d] = len(order)
                queue.append(d)
    live = sorted(order, key=order.get)
    rows = tuple(tuple(order[find(table[c][col])] for col in range(ncols))
                 for c in live)
    result = CosetTable(generator_count=ngens, rows=rows,
                        subgroup_words=subgroup_words)
    check(result.validate(pres), "cosets.table-satisfies-presentation")
    return result


# -- quotient elements -----------------------------------------------------------


class QuotientElem:
    """An element of G/<z> for a central involution z, held by a canonical
    representative (the smaller of g, g*z under the element ordering)."""

    __slots__ = ("rep", "z")

    def __init__(self, g, z):
        alt = g * z
        object.__setattr__(self, "rep", min(g, alt))
        object.__setattr__(self, "z", z)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("QuotientElem is immutable")

    def __mul__(self, other: "QuotientElem") -> "QuotientElem":
        return QuotientElem(self.rep * other.rep, self.z)

    def inverse(self) -> "QuotientElem":
        return QuotientElem(self.rep.inverse(), self.z)

    def __eq__(self, other) -> bool:
        return isinstance(other, QuotientElem) and self.rep == other.rep

    def __hash__(self) -> int:
        return hash(("quot", self.rep))

    def __lt__(self, other: "QuotientElem") -> bool:
        return self.rep < other.rep

    def __repr__(self) -> str:
        return f"QuotientElem({self.rep!s})"
