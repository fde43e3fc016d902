"""Finite group engine: closure from generators, centres, orbits and
stabilizers, homomorphism extension over a Cayley graph, string/intersection
conditions, and coset enumeration of finite presentations.

Every group is a closure from generators, fully enumerated.  The closure
is kept as an integer action table (the Cayley graph of the generators,
with a breadth-first spanning tree that gives each element a generator
word), so subgroups generated by some of the generators, right cosets and
products with an element become integer searches rather than fresh
products of group elements.
"""

from __future__ import annotations

import operator
from collections import deque
from collections.abc import Callable, Iterable, Mapping, Sequence
from functools import lru_cache

from .records import record
from .signedperm import SignedPerm

__all__ = [
    "CheckFailed",
    "check",
    "CapExceeded",
    "ActionTable",
    "ConcreteGroup",
    "reach",
    "orbit",
    "stabilizer",
    "setwise_stabilizer",
    "Homomorphism",
    "HomomorphismFailure",
    "extend_homomorphism",
    "string_condition",
    "intersection_condition",
    "Presentation",
    "broken_relator",
    "CosetTable",
    "enumerate_cosets",
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


class ActionTable(record("ActionTable", "index act parent")):
    """A group's closure as integers: `index[e]` is the position of element
    e, `act[i][k]` the position of elements[i] * gens[k], and `parent[i] =
    (p, k)` says that elements[i] = elements[p] * gens[k] with p < i (None
    at the identity, position 0).  Following parents back to the identity
    spells a generator word for every element."""

    __slots__ = ()


class ConcreteGroup:
    """A fully enumerated finite group with named generators.

    Elements may be any hashable values supporting `*` and `.inverse()`;
    the element list is kept in breadth-first closure order from the
    identity, which makes every derived listing deterministic.  Every group
    is made by `generate`, or by `subgroup` on its parent's table, through
    the one closure loop `_close`, and keeps the ActionTable recorded while
    it closed.  Subgroups generated by generator
    columns, right cosets and products with an element's word are then
    integer searches over the table.
    """

    def __init__(self, elements: Iterable, generators: Mapping[str, object],
                 act: list[list[int]], parent: list):
        self.elements: tuple = tuple(elements)
        self._table = ActionTable(dict(zip(self.elements, range(len(self.elements)))), act, parent)
        self.element_set = self._table.index.keys()  # a set view: one hash table of the elements
        self.generators: dict = dict(generators)
        self.identity = self.elements[0]

    @classmethod
    def generate(cls, generators, cap: int = DEFAULT_CAP, names: Sequence[str] | None = None
                 ) -> "ConcreteGroup":
        """Close a generating set under multiplication, breadth first,
        recording the action table on the way.  The closure runs on the
        codes of `_codec` and decodes each element once, at the end."""
        named = _named(generators, names)
        gen_list = list(named.values())
        encode, operand, compose, decode = _codec(gen_list)
        identity = compose(encode(gen_list[0]), operand(gen_list[0].inverse()))
        found, act, parent = _close(identity, list(map(operand, gen_list)), compose, cap)
        elements = list(map(decode, found))
        del found  # the codes are not needed past the closure
        return cls(elements, named, act, parent)

    # -- basics --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, e) -> bool:
        return e in self._table.index

    def generator_list(self) -> list:
        return list(self.generators.values())

    def subgroup(self, generators) -> "ConcreteGroup":
        """The closure of generators from this group, made as `generate`
        makes it, on this group's table: each generator is its word here,
        and a product x * h is the walk of h's word from x.  A closure of
        members of a group stays inside it, so only the generators are
        checked, and the elements are this group's own objects."""
        named = _named(generators)
        index = self.table().index
        positions = [index.get(g) for g in named.values()]
        outside = next((g for g, i in zip(named.values(), positions) if i is None), None)
        check(outside is None, "group.subgroup-inside", outside)
        found, act, parent = _close(0, list(map(self.word, positions)), self.walk, DEFAULT_CAP)
        return ConcreteGroup(map(self.elements.__getitem__, found), named, act, parent)

    def centre(self) -> "ConcreteGroup":
        """The elements z with z * g == g * z for every generator g, read
        from the action table: z * g is a column of z's row.  The left
        multiplication by g takes one pass along the parents: g is a column
        of the identity's row, and if z = p * gens[k], then g * z is
        (g * p) * gens[k]."""
        _, act, parent = self.table()
        central = range(len(self))
        for k, g in enumerate(act[0]):
            left = [g]
            for p, j in parent[1:]:
                left.append(act[left[p]][j])
            central = [z for z in central if act[z][k] == left[z]]
        return self.subgroup([self.elements[z] for z in central])

    # -- the action table -----------------------------------------------------

    def table(self) -> ActionTable:
        """The action table `_close` recorded.  It is closed under the
        generators and reaches every element by construction."""
        return self._table

    def word(self, i: int) -> list[int]:
        """Generator columns that spell elements[i] from the identity."""
        parent = self.table().parent
        out = []
        while i:
            i, k = parent[i]
            out.append(k)
        out.reverse()
        return out

    def walk(self, i: int, word: Iterable[int]) -> int:
        """The position of elements[i] times the generators of `word`."""
        act = self.table().act
        for k in word:
            i = act[i][k]
        return i

    def generator_is_involution(self, k: int) -> bool:
        """Whether generator k has order two: its column moves the identity,
        and a second step along it comes back."""
        act = self.table().act
        return act[0][k] != 0 and act[act[0][k]][k] == 0

    def span(self, mask: int) -> list[int]:
        """Positions of the subgroup generated by the generators whose bits
        are set in mask, in breadth-first order from the identity."""
        act = self.table().act
        cols = [k for k in range(len(self.generators)) if mask >> k & 1]
        return reach(0, lambda i: [act[i][k] for k in cols])

    def right_cosets(self, sub: "ConcreteGroup") -> list[list[int]]:
        """The right cosets (sub)g as lists of positions, in order of first
        appearance.  The coset of g is the walk of every h in sub along the
        word of g; it is found one step at a time: if g = p * gens[k], then
        (sub)g is (sub)p moved by column k."""
        index, act, parent = self.table()
        sub_positions = [index.get(h) for h in sub.elements]
        outside = next((h for h, i in zip(sub.elements, sub_positions) if i is None), None)
        check(outside is None, "group.cosets-of-a-subgroup", outside)
        coset_of = [-1] * len(self)
        cosets: list[list[int]] = []
        for g in range(len(self)):
            if coset_of[g] >= 0:
                continue
            if g:
                p, k = parent[g]
                members = [act[x][k] for x in cosets[coset_of[p]]]
            else:
                members = sub_positions
            for x in members:
                coset_of[x] = len(cosets)
            cosets.append(members)
        return cosets


def _named(generators, names: Sequence[str] | None = None) -> dict:
    """Generators by name: a mapping as given, a sequence under `names`,
    or g0, g1, ... when there are none."""
    if isinstance(generators, Mapping):
        named = dict(generators)
    else:
        gens = list(generators)
        if names is None:
            names = [f"g{i}" for i in range(len(gens))]
        named = dict(zip(names, gens))
    if not named:
        raise ValueError("need at least one generator")
    return named


def _close(identity, operands: Sequence, compose: Callable, cap: int
           ) -> tuple[list, list[list[int]], list]:
    """The breadth-first closure from identity under x -> compose(x,
    operand), for each operand in turn: (found, act, parent) as an
    ActionTable records them.  So, in row order, the first row that
    reaches j holds j's parent edge."""
    found = [identity]
    index = {identity: 0}
    act = []
    parent = [None]
    for i, e in enumerate(found):  # the list grows while it is read
        row = []
        for k, g in enumerate(operands):
            prod = compose(e, g)
            j = index.get(prod)
            if j is None:
                j = index[prod] = len(found)
                found.append(prod)
                parent.append((i, k))
                if len(found) > cap:
                    raise CapExceeded(f"closure exceeded cap={cap}; wrong generators?")
            row.append(j)
        act.append(row)
    return found, act, parent


def _same(x):
    return x


def _point_code(g: SignedPerm) -> bytes:
    return bytes(g.points())


def _point_operand(g: SignedPerm) -> bytes:
    """The translation table that sends point p to its image under g."""
    return _point_code(g) + bytes(range(2 * g.n, 256))


class _SignTuples(dict):
    """Sign tuples keyed by their byte strings of 0 (+1) and 1 (-1),
    each built once."""

    def __missing__(self, key: bytes) -> tuple[int, ...]:
        signs = self[key] = tuple(1 - 2 * b for b in key)
        return signs


@lru_cache(maxsize=None)
def _point_decoder(n: int) -> Callable[[bytes], SignedPerm]:
    """The inverse of `_point_code` for degree n <= 128.  The code's first
    n bytes are the images of the points +1..+n, and a byte p stands for
    +(p % n + 1) when p < n and for -(p % n + 1) otherwise.  So they are
    translated once to the images p % n + 1 and once to the signs p >= n,
    whose tuple is memoised."""
    pad = bytes(256 - 2 * n)
    images = bytes(p % n + 1 for p in range(2 * n)) + pad
    negative = bytes(p >= n for p in range(2 * n)) + pad
    signs = _SignTuples()
    new = tuple.__new__

    def decode(code: bytes) -> SignedPerm:
        head = code[:n]
        return new(SignedPerm, (n, tuple(head.translate(images)), signs[head.translate(negative)]))
    return decode


def _codec(values: Sequence) -> tuple[Callable, Callable, Callable, Callable]:
    """(encode, operand, compose, decode) for products of `values`:
    compose(encode(a), operand(b)) is encode(a * b), and decode(encode(a))
    is a.  Signed permutations of one degree n <= 128 are coded as the byte
    string of their 2n point images (`SignedPerm.points`), so a product is
    one `bytes.translate`.  Byte strings, unlike tuples, are not kept on a
    free list once the codes are dropped, so closing on them does not raise
    peak memory; any other values are their own codes."""
    if (all(isinstance(v, SignedPerm) for v in values)
            and {v.n for v in values} == {values[0].n} and values[0].n <= 128):
        return _point_code, _point_operand, bytes.translate, _point_decoder(values[0].n)
    return _same, _same, operator.mul, _same


# -- orbits -------------------------------------------------------------------


def reach(start, neighbours: Callable[[object], Iterable]) -> list:
    """Every node reached from start along `neighbours`, in breadth-first
    first-visit order."""
    out = [start]
    seen = {start}
    for p in out:  # the list grows while it is read
        for q in neighbours(p):
            if q not in seen:
                seen.add(q)
                out.append(q)
    return out


def orbit(group: ConcreteGroup, point, action: Callable = None) -> list:
    """Orbit of a point under the group, in first-visit order."""
    if action is None:
        action = lambda p, g: g.act(p)
    gens = group.generator_list()
    return reach(point, lambda p: [action(p, g) for g in gens])


def stabilizer(group: ConcreteGroup, point, action: Callable = None) -> ConcreteGroup:
    if action is None:
        action = lambda p, g: g.act(p)
    return group.subgroup([g for g in group.elements if action(point, g) == point])


def setwise_stabilizer(group: ConcreteGroup, points: Iterable, action: Callable = None
                       ) -> ConcreteGroup:
    """The stabilizer of a set of points: `stabilizer` acting on frozensets."""
    if action is None:
        action = lambda p, g: g.act(p)
    return stabilizer(group, frozenset(points),
                      lambda pts, g: frozenset(action(p, g) for p in pts))


# -- homomorphisms -------------------------------------------------------------


class Homomorphism(record("Homomorphism", "source mapping")):
    """A homomorphism given by its full element-to-image mapping: `source`
    is the ConcreteGroup, `mapping` a dict from its elements."""

    __slots__ = ()

    def __call__(self, e):
        return self.mapping[e]

    def kernel(self) -> list:
        """The elements sent to the identity, in the mapping's order (the
        source's element order, for `extend_homomorphism`)."""
        target_identity = self.mapping[self.source.identity]
        return [e for e, image in self.mapping.items() if image == target_identity]

    def is_involutory(self) -> bool:
        """For an endomorphism: applying twice is the identity map."""
        return all(self.mapping[self.mapping[e]] == e for e in self.source.elements)


class HomomorphismFailure(record("HomomorphismFailure", "word_a word_b")):
    """Witness that a generator assignment extends to no homomorphism.

    `word_a` and `word_b` are positive generator-name words with equal
    evaluations in the source but different evaluations under the images.
    """

    __slots__ = ()

    def __bool__(self) -> bool:
        return False


def extend_homomorphism(src: ConcreteGroup, images: Mapping[str, object]
                        ) -> Homomorphism | HomomorphismFailure:
    """Extend a generator assignment along the Cayley graph of `src`.

    Returns the unique extension when consistent, otherwise a failure
    carrying two words that evaluate equally in `src` but differently
    under the assignment.  The images are walked as codes of `_codec`, and
    each distinct image is decoded once, for the mapping.

    Every element j >= 1 has a parent (i, k) with act[i][k] == j, and
    `_close` makes it the first entry j in row order: so row i sets image[j]
    where image[j] is still None, and the extension covers the group.
    """
    missing = set(src.generators) - set(images)
    if missing:
        raise ValueError(f"images missing for generators {sorted(missing)}")
    some_image = next(iter(images.values()))
    names = list(src.generators)
    encode, operand, compose, decode = _codec(list(images.values()))
    operands = [operand(images[name]) for name in names]
    act = src.table().act
    image = [compose(encode(some_image), operand(some_image.inverse()))] + [None] * (len(src) - 1)
    for i, row in enumerate(act):  # parents come first: image[i] is set
        for k, j in enumerate(row):
            img = compose(image[i], operands[k])
            if image[j] is None:
                image[j] = img
            elif image[j] != img:
                return HomomorphismFailure(
                    word_a=tuple(names[c] for c in src.word(i)) + (names[k],),
                    word_b=tuple(names[c] for c in src.word(j)))
    decoded = {code: decode(code) for code in set(image)}
    return Homomorphism(source=src, mapping=dict(zip(src.elements, map(decoded.__getitem__, image))))


# -- string C-group conditions --------------------------------------------------


def string_condition(group: ConcreteGroup) -> bool:
    """Generators pairwise commute whenever their indices differ by >= 2:
    the word g_i g_j g_i g_j walks the identity back to itself."""
    n = len(group.generators)
    if not all(map(group.generator_is_involution, range(n))):
        raise ValueError("string_condition expects involutions")
    return all(group.walk(0, (i, j, i, j)) == 0 for i in range(n) for j in range(i + 2, n))


def intersection_condition(group: ConcreteGroup) -> bool:
    """<g_i : i in I> meet <g_i : i in J> equals <g_i : i in I&J>, for all
    subsets I, J of the generators g_0..g_{n-1}.  For a string group of
    involutions, McMullen & Schulte (Abstract Regular Polytopes, Prop. 2E16)
    reduce this to n(n-1)/2 intersections of proper intervals: for i < j,
    <g_i..g_{j-1}> meets <g_{i+1}..g_j> in <g_{i+1}..g_{j-1}>.  Each interval
    is spanned along its columns of the action table.  Any other group is
    a ValueError, here or in `string_condition`."""
    n = len(group.generators)
    if not string_condition(group):
        raise ValueError("intersection_condition expects the string condition (ARP 2E16)")
    spans = {(a, b): frozenset(group.span((1 << b) - (1 << a)))  # <g_a..g_{b-1}>
             for a in range(n + 1) for b in range(a, min(a + n, n + 1))}
    return all(spans[i, j] & spans[i + 1, j + 1] == spans[i + 1, j]
               for i in range(n) for j in range(i + 1, n))


# -- presentations --------------------------------------------------------------


def _check_letter(x, n: int) -> None:
    """A signed letter names generator |x| of n: a non-zero int (a bool is
    no letter) within +-1..n."""
    if type(x) is not int:
        raise ValueError(f"letter {x!r} is not an int")
    if x == 0 or abs(x) > n:
        raise ValueError(f"letter {x} outside +-1..{n}")


def _freely_reduced(word: Sequence[int]) -> bool:
    return all(word[i] != -word[i + 1] for i in range(len(word) - 1))


class Presentation(record("Presentation", "generator_count relators")):
    """Abstract generators and relator words as signed 1-based indices."""

    __slots__ = ()

    # every construction is validated; relators are stored as tuples, so
    # equal presentations compare and hash alike
    def __new__(cls, generator_count: int, relators: Iterable[Sequence[int]]):
        if type(generator_count) is not int or generator_count < 0:
            raise ValueError(f"generator count {generator_count!r} is not a non-negative int")
        relators = tuple(map(tuple, relators))
        for rel in relators:
            for x in rel:
                _check_letter(x, generator_count)
            if not _freely_reduced(rel):
                raise ValueError(f"relator {rel} is not freely reduced")
        return super().__new__(cls, generator_count, relators)

    @classmethod
    def _make(cls, iterable):
        """`_replace` builds through here: validate it too."""
        return cls(*iterable)


def eval_word(assignment: Sequence, word: Sequence[int], identity):
    """Evaluate a signed word; assignment[i] realizes generator i+1."""
    e = identity
    for x in word:
        g = assignment[x - 1] if x > 0 else assignment[-x - 1].inverse()
        e = e * g
    return e


def broken_relator(assignment: Sequence, pres: Presentation) -> tuple | None:
    """The first relator of pres that the assignment breaks, None when it
    satisfies them all."""
    if len(assignment) < pres.generator_count:
        raise ValueError("assignment shorter than generator count")
    some = assignment[0]
    identity = some * some.inverse()
    return next((rel for rel in pres.relators
                 if eval_word(assignment, rel, identity) != identity), None)


# -- Todd-Coxeter coset enumeration ---------------------------------------------


class CosetTable(record("CosetTable", "generator_count rows")):
    """A completed coset table: one row per coset, one column per signed
    generator (g1, g1^-1, g2, g2^-1, ...), entries are coset indices."""

    __slots__ = ()

    @property
    def index(self) -> int:
        return len(self.rows)

    def forward_action(self) -> list[list[int]]:
        """The action of g1..gn on the cosets laid out as an ActionTable's
        `act`: the forward columns rows[c][2k], with the cosets renumbered
        in breadth-first order from coset 0 along them.  Each column is a
        permutation of finitely many cosets, so its inverse is one of its
        powers and the walk reaches every coset.  `_close` numbers a closure
        the same way, so when this equals the closure's act, coset ->
        element is a bijection that respects the generators."""
        forward = lambda c: [self.rows[c][2 * k] for k in range(self.generator_count)]
        order = reach(0, forward)
        number = {c: i for i, c in enumerate(order)}
        return [[number[d] for d in forward(c)] for c in order]


def _repeat_positions(cols: Sequence[int], inv: Sequence[int]) -> list[int]:
    """The positions p in 1..L-1 of the word w of table columns `cols`, of
    length L, where w closes whenever it closes at its start: w rotated by
    p is w, or its inverse (inv[c] for c in reversed(w)) rotated by L - p
    is w.  The closed cycle read forward, or backward, from the coset after
    p letters then spells w."""
    w = list(cols)
    n = len(w)
    w_inv = [inv[c] for c in reversed(w)]
    return [p for p in range(1, n)
            if w[p:] + w[:p] == w or w_inv[n - p:] + w_inv[:n - p] == w]


def enumerate_cosets(pres: Presentation, subgroup_words: Sequence[Sequence[int]] = (),
                     cap: int = DEFAULT_CAP) -> CosetTable:
    """Relator-driven coset enumeration with immediate deductions.

    A generator g with a relator (g, g) or (-g, -g) is an involution: it
    gets one column, which is its own inverse, and its (g, g) relator holds
    in the table by construction, so it is not scanned.  Every other
    generator gets a column for g and one for g^-1.  Each pass scans every
    relator at every live coset where it is not yet known to close,
    filling gaps with new cosets.  A pass that leaves holes defines a coset
    at each before the next pass, and the enumeration stops after the first
    pass that leaves no hole.  That exit condition is the proof that the
    table satisfies the presentation (Holt, Eick & O'Brien, *Handbook of
    Computational Group Theory*, 2005, ch. 5), so it is not checked again:

    - a square (g, g) holds because g's column is its own inverse;
    - each subgroup word closes at coset 0 on its first, filling, scan;
    - every other relator is marked closed at every live coset before the
      hole-free pass ends, since a pass also visits the cosets it defines;
    - a scan marks its relator w as it walks: at its coset, and at each
      coset it reaches, forward, backward or by a definition, after one of
      w's `_repeat_positions`, where w reads again once the cycle closes.
      Those cosets stay live until the scan's closing deduction or merge,
      and a merge ORs the marks of the coset it kills into the one it keeps;
    - marks stay true: definitions and deductions only add entries, and a
      merge maps a closed path to a closed path.

    Scanning a complete closed path meets itself with f == b and touches
    nothing, so the skipped scans are exactly the scans that do nothing,
    and the enumeration makes the same definitions, deductions and merges
    in the same order as one that scans every pair.

    Cosets are numbered in first-appearance order and the final table is
    renumbered by breadth-first search from the subgroup coset, so the
    output is reproducible bit for bit; an involution's column is written
    twice, as g and as g^-1.  Raises CapExceeded once the number of cosets
    *defined* during enumeration passes `cap`; that count includes cosets
    later merged, so it bounds the work, not the index (the presentation
    may define a larger or infinite group).
    """
    ngens = pres.generator_count
    subgroup_words = tuple(tuple(w) for w in subgroup_words)
    for w in subgroup_words:
        for x in w:
            _check_letter(x, ngens)
    squares = {rel for rel in pres.relators if len(rel) == 2 and rel[0] == rel[1]}
    involutions = {abs(rel[0]) for rel in squares}
    # col[x] is the table column of the signed letter x, inv[c] the column
    # of its inverse
    col: dict[int, int] = {}
    inv: list[int] = []
    for g in range(1, ngens + 1):
        col[g] = len(inv)
        if g in involutions:
            col[-g] = col[g]
            inv.append(col[g])
        else:
            col[-g] = col[g] + 1
            inv += [col[g] + 1, col[g]]
    ncols = len(inv)

    # per scanned relator: its columns, its marks (marks[p] is its bit
    # where it closes whenever it closes at its start, 0 elsewhere: p = 0,
    # p = len and the `_repeat_positions`) and its bit; closed[a] holds
    # the bits of the relators known to close at coset a
    relators = []
    for cols in ([col[x] for x in rel] for rel in pres.relators if rel not in squares):
        bit = 1 << len(relators)
        repeats = {0, len(cols), *_repeat_positions(cols, inv)}
        relators.append((cols, [bit if p in repeats else 0 for p in range(len(cols) + 1)], bit))
    closed = [0]

    table: list[list[int]] = [[-1] * ncols]
    parent = [0]
    pending: deque[tuple[int, int]] = deque()

    def find(a: int) -> int:
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    def define(a: int, c: int) -> int:
        b = len(table)  # every coset ever defined keeps its row
        if b >= cap:
            raise CapExceeded(f"coset count exceeded cap={cap}")
        table.append([-1] * ncols)
        parent.append(b)
        closed.append(0)
        table[a][c] = b
        table[b][inv[c]] = a
        return b

    def deduce(a: int, c: int, b: int) -> None:
        """a times column c is b; a and b are live cosets."""
        ea = table[a][c]
        if ea == -1:
            table[a][c] = b
        else:
            ea = find(ea)
            if ea != b:
                pending.append((ea, b))
        eb = table[b][inv[c]]
        if eb == -1:
            table[b][inv[c]] = a
        else:
            eb = find(eb)
            if eb != a:
                pending.append((eb, a))

    def process_pending() -> None:
        while pending:
            x, y = pending.popleft()
            x, y = find(x), find(y)
            if x == y:
                continue
            if y < x:
                x, y = y, x
            parent[y] = x
            closed[x] |= closed[y]
            row = table[y]
            for c in range(ncols):
                d = row[c]
                if d != -1:
                    deduce(x, c, find(d))

    def scan_and_fill(a: int, cols: Sequence[int], marks: Sequence[int]) -> None:
        """Scan the word whose letters are the table columns `cols` at the
        live coset a, and OR marks[p] into each coset the scan reaches p
        letters on."""
        n = len(cols)
        closed[a] |= marks[0]
        f, i = a, 0
        b, j = a, n
        while True:
            while i < j:
                nxt = table[f][cols[i]]
                if nxt == -1:
                    break
                f = nxt if parent[nxt] == nxt else find(nxt)
                i += 1
                closed[f] |= marks[i]
            if i == j:
                if f != b:
                    pending.append((f, b))
                    process_pending()
                return
            while j > i + 1:
                prv = table[b][inv[cols[j - 1]]]
                if prv == -1:
                    break
                b = prv if parent[prv] == prv else find(prv)
                j -= 1
                closed[b] |= marks[j]
            if j == i + 1:
                deduce(f, cols[i], b)
                if pending:
                    process_pending()
                return
            f = define(f, cols[i])
            i += 1
            closed[f] |= marks[i]

    for w in subgroup_words:
        scan_and_fill(0, [col[x] for x in w], [0] * (len(w) + 1))

    while True:
        i = 0
        while i < len(table):
            if parent[i] == i:  # i is live
                for cols, marks, bit in relators:
                    if parent[i] != i:
                        break
                    if not closed[i] & bit:
                        scan_and_fill(i, cols, marks)
            i += 1
        holes = [(c, k) for c, row in enumerate(table) if parent[c] == c and -1 in row
                 for k in range(ncols) if row[k] == -1]
        if not holes:
            break
        for c, k in holes:
            define(c, k)

    # compact: breadth-first renumbering from the subgroup coset; rows come
    # out in the order cosets are numbered.  A merge keeps the smaller coset,
    # so parent[c] <= c, and read in order parent becomes each coset's root.
    # number[d] is the number of d's live coset, -1 until it is reached.
    for c, p in enumerate(parent):
        parent[c] = parent[p]
    number, order = [0] + [-1] * (len(table) - 1), [0]
    for c in order:  # the list grows while it is read
        for d in map(parent.__getitem__, table[c]):
            if number[d] < 0:
                number[d] = len(order)
                order.append(d)
    number = [number[r] for r in parent]
    if ngens:  # else one coset and no column; itemgetter needs two indices
        out = operator.itemgetter(*[col[x] for g in range(1, ngens + 1) for x in (g, -g)])
        rows = tuple(operator.itemgetter(*out(table[c]))(number) for c in order)
    else:
        rows = ((),)
    return CosetTable(generator_count=ngens, rows=rows)
