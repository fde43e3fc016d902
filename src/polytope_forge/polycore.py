"""Ranked incidence structures: coset geometries, flags and flag adjacency,
regular/chiral classification, central quotients, the colourful-polytope
construction from an edge-coloured graph, and coverings from their epimorphisms.

Face identity is (rank, canonical key), never a vertex set: distinct faces
of the structures built here can share all their vertices.
"""

from __future__ import annotations

import itertools
from collections import Counter, namedtuple
from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping, Sequence
from enum import Enum
from operator import itemgetter

from .groupcore import (ConcreteGroup, Homomorphism, check, intersection_condition, reach,
                        string_condition)
from .signedperm import SignedPerm

__all__ = [
    "FaceRef",
    "RankedIncidenceStructure",
    "CosetGeometry",
    "Classification",
    "ClassifyResult",
    "classify",
    "polytope_from_reflections",
    "polytope_from_rotations",
    "coset_geometry",
    "central_quotient",
    "ColoredGraph",
    "colourful_polytope",
    "CoveringReport",
    "verify_covering",
    "coset_face_action",
    "face_permutation",
    "isomorphisms",
    "automorphism_count",
]

FaceRef = tuple[int, int]  # (rank, index within rank)


class _Search:
    """The backtracking search behind `isomorphisms` and `automorphism_count`.

    Nodes of a are placed in breadth-first order, each next to its placed
    parent.  A candidate image has the node's label and degree, is adjacent
    to the images of all earlier neighbours and to no other placed image."""

    def __init__(self, adj_a: Mapping[Hashable, set], adj_b: Mapping[Hashable, set],
                 label_a: Callable, label_b: Callable):
        parent: dict = {}  # node -> position of its parent in order, None at a root
        order: list = []
        for root in adj_a:
            queue = [] if root in parent else [root]
            parent.setdefault(root, None)
            for v in queue:  # the queue grows while it is read
                order.append(v)
                for w in adj_a[v]:
                    if w not in parent:
                        parent[w] = len(order) - 1
                        queue.append(w)
        index = {v: k for k, v in enumerate(order)}
        self.order = order
        self.parent = [parent[v] for v in order]
        self.earlier = [[index[u] for u in adj_a[v] if index[u] < k]
                        for k, v in enumerate(order)]
        self.want = [(label_a(v), len(adj_a[v])) for v in order]
        self.has = {c: (label_b(c), len(adj_b[c])) for c in adj_b}
        self.adj_b = adj_b
        self.image: list = []  # the images of order[:len(image)]
        self.used: set = set()  # the same images, as a set

    def candidates(self, k: int) -> list:
        """The images order[k] may take next to the placed ones."""
        adj_b, image, used, want, has = self.adj_b, self.image, self.used, self.want[k], self.has
        pool = adj_b if self.parent[k] is None else adj_b[image[self.parent[k]]]
        need = {image[j] for j in self.earlier[k]}
        return [c for c in pool
                if c not in used and has[c] == want and adj_b[c] & used == need]

    def place(self, c) -> None:
        self.image.append(c)
        self.used.add(c)

    def unplace(self) -> None:
        self.used.discard(self.image.pop())

    def extend(self, k: int) -> Iterator[bool]:
        """Yield True each time the placed images, order[:k]'s, complete to
        an isomorphism; `image` then holds it.  Closing the generator early
        unplaces what it placed."""
        if k == len(self.order):
            yield True
            return
        for c in self.candidates(k):
            self.place(c)
            try:
                yield from self.extend(k + 1)  # recursion depth: the number of nodes
            finally:
                self.unplace()


def isomorphisms(adj_a: Mapping[Hashable, set], adj_b: Mapping[Hashable, set],
                 label_a: Callable = lambda v: None,
                 label_b: Callable = lambda v: None) -> Iterator[dict]:
    """Every label-preserving isomorphism from graph a onto graph b, as a
    dict node -> node.  Graphs are given as node -> set of neighbours.
    The search is `_Search`'s."""
    if len(adj_a) != len(adj_b):
        return
    search = _Search(adj_a, adj_b, label_a, label_b)
    for _ in search.extend(0):
        yield dict(zip(search.order, search.image))


def automorphism_count(adj: Mapping[Hashable, set]) -> int:
    """The number of automorphisms of a graph given as node -> set of
    neighbours, without listing them.

    Let v_0, v_1, ... be `_Search`'s placing order and Stab_k the
    automorphisms that fix v_0..v_{k-1}, each to itself, so Stab_0 is the
    whole group and Stab_n, which fixes all n nodes, is the identity alone.  By orbit-stabilizer
    |Stab_k| = |orbit_k| · |Stab_{k+1}|, where orbit_k is the orbit of v_k
    under Stab_k, so |Aut| is the product of the orbit lengths (a stabilizer
    chain; Seress, Permutation Group Algorithms, 2003, ch. 4).  With
    v_0..v_{k-1} placed on themselves, every member of Stab_k sends v_k to a
    candidate of the search, and a candidate c is in orbit_k exactly when
    the search, with v_k placed on c, completes to an isomorphism: one
    first hit decides it.  v_k itself is in orbit_k, by the identity."""
    search = _Search(adj, adj, lambda v: None, lambda v: None)
    count = 1
    for k, v in enumerate(search.order):
        orbit = 1
        for c in search.candidates(k):
            if c != v:
                search.place(c)
                hits = search.extend(k + 1)
                orbit += next(hits, False)
                hits.close()
                search.unplace()
        count *= orbit
        search.place(v)
    return count


class RankedIncidenceStructure:
    """Faces organized by rank with a symmetric incidence relation between
    distinct ranks.  Formal least and greatest faces are implicit."""

    def __init__(self, rank: int, faces_by_rank: Sequence[Sequence[Hashable]],
                 incident_pairs: Iterable[tuple[tuple[int, Hashable], tuple[int, Hashable]]]):
        if len(faces_by_rank) != rank:
            raise ValueError("need one face list per rank 0..rank-1")
        self.rank = rank
        self.faces_by_rank: tuple[tuple, ...] = tuple(
            tuple(sorted(keys)) for keys in faces_by_rank)
        index: dict[tuple[int, Hashable], int] = {}
        for r, keys in enumerate(self.faces_by_rank):
            if len(set(keys)) != len(keys):
                raise ValueError(f"duplicate face keys at rank {r}")
            for i, k in enumerate(keys):
                index[(r, k)] = i
        self._inc: dict[FaceRef, set[FaceRef]] = {
            (r, i): set() for r in range(rank) for i in range(len(self.faces_by_rank[r]))}
        for (r1, k1), (r2, k2) in incident_pairs:
            if r1 == r2:
                raise ValueError("incidence requires distinct ranks")
            try:
                a = (r1, index[(r1, k1)])
                b = (r2, index[(r2, k2)])
            except KeyError as err:
                raise ValueError("incidence names an unknown face", err.args[0]) from None
            self._inc[a].add(b)
            self._inc[b].add(a)
        self._flags: tuple[tuple[int, ...], ...] | None = None

    # -- face bookkeeping ----------------------------------------------------

    @property
    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(keys) for keys in self.faces_by_rank)

    def key(self, ref: FaceRef):
        return self.faces_by_rank[ref[0]][ref[1]]

    def refs(self, rank: int) -> list[FaceRef]:
        return [(rank, i) for i in range(len(self.faces_by_rank[rank]))]

    def all_refs(self) -> list[FaceRef]:
        return [ref for r in range(self.rank) for ref in self.refs(r)]

    def incident(self, a: FaceRef, b: FaceRef) -> bool:
        return b in self._inc[a]

    def incident_at_rank(self, ref: FaceRef, rank: int) -> list[FaceRef]:
        return sorted(x for x in self._inc[ref] if x[0] == rank)

    def _common(self, faces: Iterable[FaceRef]) -> Iterable[FaceRef]:
        """Faces incident with every face in `faces`; every face when none."""
        sets = [self._inc[f] for f in faces]
        return set.intersection(*sets) if sets else self.all_refs()

    def between(self, lo: FaceRef | None, hi: FaceRef | None) -> list[FaceRef]:
        """Faces strictly between lo and hi (None = formal bottom / top), sorted."""
        lo_rank = -1 if lo is None else lo[0]
        hi_rank = self.rank if hi is None else hi[0]
        return sorted(x for x in self._common(f for f in (lo, hi) if f is not None)
                      if lo_rank < x[0] < hi_rank)

    def sections(self, lo_rank: int, hi_rank: int
                 ) -> Iterator[tuple[FaceRef | None, FaceRef | None, list[FaceRef]]]:
        """(lo, hi, faces strictly between) for every incident pair with lo
        of rank lo_rank and hi of rank hi_rank; rank -1 and rank n stand for
        the formal bottom and top, given as None."""
        for lo in [None] if lo_rank == -1 else self.refs(lo_rank):
            if hi_rank == self.rank:
                his = [None]
            elif lo is None:
                his = self.refs(hi_rank)
            else:
                his = self.incident_at_rank(lo, hi_rank)
            for hi in his:
                yield lo, hi, self.between(lo, hi)

    # -- flags ----------------------------------------------------------------

    def flags(self) -> tuple[tuple[int, ...], ...]:
        """All maximal chains hitting every rank, as index tuples."""
        if self._flags is None:
            out = []

            def extend(chain: list[FaceRef]):
                if len(chain) == self.rank:
                    out.append(tuple(i for (_, i) in chain))
                    return
                for cand in self._common(chain):
                    if cand[0] == len(chain):
                        extend(chain + [cand])

            extend([])
            self._flags = tuple(sorted(out))
        return self._flags

    def flag_adjacent(self, flag: tuple[int, ...], j: int) -> list[tuple[int, ...]]:
        """Flags differing from `flag` exactly in the rank-j face, sorted:
        the other rank-j faces incident with the rest of the flag."""
        rest = [(r, i) for r, i in enumerate(flag) if r != j]
        return sorted(flag[:j] + (i,) + flag[j + 1:] for r, i in self._common(rest)
                      if r == j and i != flag[j])

    # -- polytope verification -------------------------------------------------

    def validate_polytope(self) -> None:
        """Check the axioms of an abstract polytope (McMullen & Schulte,
        Abstract Regular Polytopes, 2A); each failure is a `polytope.*`
        check.  The chain axiom is checked locally: when incidence is
        transitive and every section of rank gap >= 2 is non-empty, a face
        between two consecutive members of a chain is incident with the
        whole chain, so every chain extends to a flag.

        Flag connectivity is not checked on its own.  Once the diamond,
        non-empty sections and transitive incidence hold, the structure is
        a prepolytope, and a prepolytope is strongly flag-connected exactly
        when it is strongly connected (McMullen & Schulte, 2A), which
        `polytope.sections-connected` checks."""
        n = self.rank
        check(all(self.f_vector), "polytope.no-empty-rank", self.f_vector)

        # diamond: every section of rank 1 has exactly two proper faces
        bad = next(((lo, hi, mid) for r in range(-1, n - 1)
                    for lo, hi, mid in self.sections(r, r + 2) if len(mid) != 2), None)
        check(bad is None, "polytope.diamond", bad)

        # chains: no section of rank gap >= 3 is empty (the diamond covers
        # gap 2), and F < G, G < H give F < H, one scan per middle face G
        wide = [section for lo_rank in range(-1, n - 2)
                for hi_rank in range(lo_rank + 3, n + 1)
                for section in self.sections(lo_rank, hi_rank)]
        bad = next(([f for f in (lo, hi) if f is not None] for lo, hi, mid in wide if not mid),
                   None)
        check(bad is None, "polytope.chain-in-a-flag", bad)
        bad = next(((f, g, min(above - self._inc[f])) for g in self.all_refs()
                    for above in [{h for h in self._inc[g] if h[0] > g[0]}]
                    for f in sorted(f for f in self._inc[g] if f[0] < g[0])
                    if not above <= self._inc[f]), None)
        check(bad is None, "polytope.incidence-transitive", bad)

        # strong connectivity: every section of rank >= 2 is connected (none
        # is empty, by the chain check above)
        def connected(mid: list[FaceRef]) -> bool:
            inside = set(mid)
            return len(reach(mid[0], lambda a: self._inc[a] & inside)) == len(mid)

        bad = next(((lo, hi) for lo, hi, mid in wide if not connected(mid)), None)
        check(bad is None, "polytope.sections-connected", bad)

    def schlafli_type(self) -> tuple[int, ...]:
        """The type vector {p_1, ..., p_{n-1}}; fails the check
        `polytope.equivelar` when the rank-j sections disagree.

        p_j is the number of (j-1)-faces in every section from a (j-2)-face
        to an incident (j+1)-face, counted in the faces incident with both
        ends.  The formal bottom and top are incident with every face, so a
        section that starts at the bottom or ends at the top counts the
        faces incident with its other end, or every face when it does both."""
        inc, n = self._inc, self.rank
        out = []
        for j in range(1, n):
            if n == 2:
                sections = [self.all_refs()]
            elif j == 1:
                sections = [inc[hi] for hi in self.refs(2)]
            elif j == n - 1:
                sections = [inc[lo] for lo in self.refs(j - 2)]
            else:
                sections = [inc[lo] & inc[hi] for lo in self.refs(j - 2)
                            for hi in inc[lo] if hi[0] == j + 1]
            values = {sum(1 for r, _ in faces if r == j - 1) for faces in sections}
            check(len(values) == 1, "polytope.equivelar", (j, sorted(values)))
            out.append(values.pop())
        return tuple(out)

    # -- comparisons ---------------------------------------------------------------

    def isomorphic_to(self, other: "RankedIncidenceStructure") -> bool:
        if self.rank != other.rank or self.f_vector != other.f_vector:
            return False
        return next(isomorphisms(self._inc, other._inc, itemgetter(0), itemgetter(0)),
                    None) is not None


# -- classification ----------------------------------------------------------


class Classification(Enum):
    REGULAR = "regular"
    CHIRAL = "chiral"
    OTHER = "other"


ClassifyResult = namedtuple("ClassifyResult", "kind orbit_count flag_count")


def _images_by_rank(struct: RankedIncidenceStructure,
                    mapping: Mapping[FaceRef, FaceRef]) -> list[list[int]]:
    """images[r][i]: the index, within rank r, of the image of the face
    (r, i).  A face with no image, or an image of another rank, is a
    `ValueError`."""
    images = []
    for r, n in enumerate(struct.f_vector):
        try:
            refs = [mapping[(r, i)] for i in range(n)]
        except KeyError as err:
            raise ValueError(f"face map has no image of {err.args[0]}") from None
        moved = next((i for i, ref in enumerate(refs) if ref[0] != r), None)
        if moved is not None:
            raise ValueError(f"face map sends {(r, moved)} to {refs[moved]}, of another rank")
        images.append([i for _, i in refs])
    return images


def _flag_count(p: RankedIncidenceStructure) -> int:
    """The number of flags of the polytope p, counted as chains: in a
    polytope incidence is transitive, so a chain of faces, one per rank,
    each incident with the next, is a flag.  below[k] is the number of such
    chains ending at the k-th face of the current rank."""
    below = [1] * p.f_vector[0]
    for r in range(1, p.rank):
        below = [sum(below[i] for s, i in p._inc[(r, k)] if s == r - 1)
                 for k in range(p.f_vector[r])]
    return sum(below)


def classify(p: CosetGeometry, face_maps: Sequence[Mapping[FaceRef, FaceRef]] | None = None
             ) -> ClassifyResult:
    """Flag-orbit classification of a coset geometry under p.group acting by
    right multiplication, or under the group generated by `face_maps`.

    Regular: one orbit.  Chiral: two orbits and every pair of adjacent flags
    is split across them.  Anything else: Other.

    A p that is no `CosetGeometry` is a `ValueError`.  Each face map must be
    an automorphism of the polytope p.  One that misses a face or sends a
    face to another rank is a `ValueError`; nothing else is checked.
    Right multiplication by g is one, since it keeps intersecting cosets
    intersecting.  Automorphisms of a polytope act freely on its flags
    (McMullen & Schulte, Abstract Regular Polytopes, 2B), so every orbit has
    as many flags as the orbit of p's base flag, the faces that hold the
    identity, and the flags are counted, not listed.  Automorphisms commute
    with j-adjacency, so when the base flag's j-adjacent flag lies outside
    its orbit, j-adjacency maps the base orbit injectively into the other
    orbit, of the same size, and so onto it: every j-adjacent pair is split,
    and `rank` adjacency tests decide chirality.

    Under p.group, g sends the base flag to the flag of the faces that hold
    g, so the base orbit is read off the cosets: one flag per column of
    p.canon.  Face maps are walked a breadth-first layer at a time: the new
    flags' rank-r faces form one column, each face map moves every column
    through its rank-r index table, and the moved columns zip back into
    flags.
    """
    if not isinstance(p, CosetGeometry):
        raise ValueError("structure carries no coset decomposition")
    base = p.base_flag
    if face_maps is None:
        orbit = set(zip(*p.canon))
    else:
        tables = [_images_by_rank(p, fm) for fm in face_maps]
        orbit = {base}
        layer = orbit
        while layer:
            columns = list(zip(*layer))
            moved = set()
            for table in tables:
                moved.update(zip(*[map(images.__getitem__, column)
                                   for images, column in zip(table, columns)]))
            layer = moved - orbit
            orbit |= layer
    flag_count = _flag_count(p)
    orbits = flag_count // len(orbit)
    if orbits == 1:
        kind = Classification.REGULAR
    elif orbits == 2 and not any(g in orbit for j in range(p.rank)
                                 for g in p.flag_adjacent(base, j)):
        kind = Classification.CHIRAL
    else:
        kind = Classification.OTHER
    return ClassifyResult(kind=kind, orbit_count=orbits, flag_count=flag_count)


# -- coset geometries -----------------------------------------------------------


def _coset_decomposition(group: ConcreteGroup, sub: ConcreteGroup) -> tuple[list, list[int]]:
    """The canonical representative (the least member) of each right coset
    of sub, sorted, and canon[i]: the position among them of the coset of
    group.elements[i]."""
    elements = group.elements
    coset_of = {min(coset, key=elements.__getitem__): coset
                for coset in group.right_cosets(sub)}
    reps = sorted(coset_of, key=elements.__getitem__)
    canon = [0] * len(group)
    for face, rep in enumerate(reps):
        for i in coset_of[rep]:
            canon[i] = face
    return [elements[i] for i in reps], canon


class CosetGeometry(RankedIncidenceStructure):
    """Faces of rank j are the right cosets of subgroups[j], keyed by their
    least member; two faces are incident when the cosets intersect.
    canon[j][i] is the index of the rank-j face holding group.elements[i],
    and base_flag[j] that of the face holding the identity, elements[0]:
    the one base flag of every walk and anchor.  A subgroup that escapes
    the group fails `group.cosets-of-a-subgroup`."""

    def __init__(self, group: ConcreteGroup, subgroups: Sequence[ConcreteGroup]):
        rank = len(subgroups)
        decomps = [_coset_decomposition(group, sub) for sub in subgroups]
        canons = tuple(canon for _, canon in decomps)
        super().__init__(rank, [reps for reps, _ in decomps], ())
        # the cosets of faces a and b meet iff some element lies in both;
        # faces are indexed in the order of their keys, as canon indexes them
        inc = self._inc
        for j in range(rank):
            for k in range(j + 1, rank):
                for a, b in set(zip(canons[j], canons[k])):
                    inc[j, a].add((k, b))
                    inc[k, b].add((j, a))
        self.group = group
        self.subgroups = tuple(subgroups)
        self.canon = canons
        self.base_flag = tuple(canon[0] for canon in canons)


def coset_geometry(group: ConcreteGroup, subgroups: Sequence[ConcreteGroup]) -> CosetGeometry:
    """The coset geometry of group and subgroups, validated: a failed axiom
    fails its `polytope.*` check.  No build calls it, since each checks
    the hypothesis of a theorem instead; it is the tests' oracle, and
    `perfbench/tracer.py` hooks it by name."""
    struct = CosetGeometry(group, subgroups)
    struct.validate_polytope()
    return struct


def coset_face_action(struct: CosetGeometry, element) -> dict[FaceRef, FaceRef]:
    """The face permutation induced by right multiplication on cosets: each
    representative walks along the word of `element`.  An element outside
    struct.group is a `ValueError`."""
    if not isinstance(struct, CosetGeometry):
        raise ValueError("structure carries no coset decomposition")
    group = struct.group
    index = group.table().index
    if element not in index:
        raise ValueError(f"{element!r} is not in the structure's group")
    word = group.word(index[element])
    return {ref: (ref[0], struct.canon[ref[0]][group.walk(index[struct.key(ref)], word)])
            for ref in struct.all_refs()}


def face_permutation(struct: RankedIncidenceStructure,
                     mapping: Mapping[FaceRef, FaceRef]) -> SignedPerm:
    """A rank-preserving face bijection as a group element: the signed
    permutation, every sign +1, of the faces numbered rank by rank in
    `all_refs()` order.  A mapping that misses a face, sends a face to
    another rank, or is not a bijection, is a `ValueError`."""
    perm, offset = [], 1
    for n, images in zip(struct.f_vector, _images_by_rank(struct, mapping)):
        perm += [offset + i for i in images]
        offset += n
    return SignedPerm((1,) * len(perm), perm)


def polytope_from_reflections(group: ConcreteGroup) -> CosetGeometry:
    """Wythoff-style coset geometry from ordered involutory generators:
    rank-j faces are cosets of the subgroup omitting generator j.  The
    `reflections.*` checks make the group a string C-group, whose coset
    geometry is a regular polytope (McMullen & Schulte, Abstract Regular
    Polytopes, Thm 2E11), so the result is not validated again.
    `intersection_condition` tests the string condition a second time, as
    its guard of 2E16's hypothesis for every caller; that is one walk of
    four letters on the action table per pair of generators two or more
    apart, a few microseconds, so the checked result is not passed down
    through a second entry point."""
    named = list(group.generators.items())
    bad = next(((name, g) for k, (name, g) in enumerate(named)
                if not group.generator_is_involution(k)), None)
    check(bad is None, "reflections.involutions", bad)
    check(string_condition(group), "reflections.string-condition", list(group.generators))
    check(intersection_condition(group), "reflections.intersection-condition",
          list(group.generators))
    # a rank-1 group omits its only generator: the trivial subgroup
    subgroups = [group.subgroup(dict(named[:j] + named[j + 1:]) or [group.identity])
                 for j in range(len(named))]
    return CosetGeometry(group, subgroups)


def polytope_from_rotations(group: ConcreteGroup) -> CosetGeometry:
    """The rotary coset geometry of Γ = ⟨σ1..σ_{n−1}⟩, rank n = 3 or 4:
    the rank-j faces are the cosets of Γ_0 = ⟨σ2⟩, Γ_1 = ⟨σ1σ2⟩,
    Γ_2 = ⟨σ1⟩ in rank 3, and of Γ_0 = ⟨σ2, σ3⟩, Γ_1 = ⟨σ1σ2, σ3⟩,
    Γ_2 = ⟨σ1, σ2σ3⟩, Γ_3 = ⟨σ1, σ2⟩ in rank 4.  Any other rank is a
    `ValueError`.

    The `rotations.*` checks are the hypothesis of Schulte & Weiss
    ("Chiral polytopes", DIMACS Ser. 4, 1991): no σ_i is the identity (a
    type {p_1, ..., p_{n−1}} has every p_i ≥ 2; with σ1 = 1 in rank 3 the
    cosets have one vertex and one edge), (σ_i⋯σ_j)² = 1 for i < j, and
    the intersection condition, which in rank 3 is ⟨σ1⟩ ∩ ⟨σ2⟩ = 1
    and in rank 4 reduces to ⟨σ1⟩ ∩ ⟨σ2⟩ = 1, ⟨σ2⟩ ∩ ⟨σ3⟩ = 1 and
    ⟨σ1, σ2⟩ ∩ ⟨σ2, σ3⟩ = ⟨σ2⟩ (Schulte & Weiss, "Chirality and
    projective linear groups", Discrete Math. 131, 1994).  Then the coset
    geometry is a chiral or directly regular polytope, so the result is
    not validated again."""
    sigmas, names = group.generator_list(), list(group.generators)
    rank = len(sigmas) + 1
    if rank not in (3, 4):
        raise ValueError(f"rotary construction needs 2 or 3 generators, not {len(sigmas)}")
    bad = [name for name, image in zip(names, group.table().act[0]) if image == 0]
    check(not bad, "rotations.generators-nontrivial", bad)
    # σ_i⋯σ_j, twice, is a walk along the columns i..j (0-based) of the table
    bad = next((names[i:j + 1] for i in range(rank - 1) for j in range(i + 1, rank - 1)
                if group.walk(0, list(range(i, j + 1)) * 2) != 0), None)
    check(bad is None, "rotations.relations", bad)

    def span(columns) -> set:
        return set(group.span(sum(1 << k for k in columns)))

    # (left, right, their meet) as generator columns
    meets = [((0,), (1,), ())]
    if rank == 4:
        meets += [((1,), (2,), ()), ((0, 1), (1, 2), (1,))]
    bad = next((([names[k] for k in a], [names[k] for k in b]) for a, b, c in meets
                if span(a) & span(b) != span(c)), None)
    check(bad is None, "rotations.intersection-condition", bad)
    if rank == 3:
        s1, s2 = sigmas
        gens = [[s2], [s1 * s2], [s1]]
    else:
        s1, s2, s3 = sigmas
        gens = [[s2, s3], [s1 * s2, s3], [s1, s2 * s3], [s1, s2]]
    return CosetGeometry(group, [group.subgroup(g) for g in gens])


# -- central quotients ------------------------------------------------------------


def central_quotient(p: CosetGeometry, z) -> CosetGeometry:
    """Quotient by a central involution acting freely on faces: the coset
    geometry of the subgroups H_j<z>.  Since z is central, H<z>g is the
    union of the face Hg and its mate Hgz, so the least member of that
    union is the lesser of the two faces' keys; and z fixes Hg exactly when
    g z g^-1 = z lies in H, so it acts freely when no H_j holds it.

    `z` is an element of p.group (the trivial quotient by the identity is
    allowed and returns an isomorphic structure).

    p must be the Wythoff geometry of a string group of involutions
    ρ_0..ρ_{n−1}, p.group's generators; anything else is a `ValueError`.
    In Γ/⟨z⟩ the images of the ρ_i keep the string condition, they stay
    involutions when no ρ_i is z (`quotient.generators-stay-involutions`;
    in rank 2 and up each ρ_i lies in some H_j, so `quotient.acts-freely`
    implies it, but the segment's ρ_0 lies in none), and the preimage of
    ⟨ρ̄_S⟩ is ⟨ρ_S, z⟩.  So `quotient.intersection-condition`, for i < j
    ⟨ρ_i..ρ_{j−1}, z⟩ ∩ ⟨ρ_{i+1}..ρ_j, z⟩ = ⟨ρ_{i+1}..ρ_{j−1}, z⟩ in Γ, is
    McMullen & Schulte's 2E16 in Γ/⟨z⟩: the quotient group is a string
    C-group and its coset geometry, the one returned, a regular polytope
    (2E11), which is not validated again."""
    if not isinstance(p, CosetGeometry):
        raise ValueError("structure carries no group")
    group = p.group
    full = (1 << len(group.generators)) - 1
    index = group.table().index
    wythoff = len(p.subgroups) == len(group.generators) and all(
        {index.get(h) for h in sub} == set(group.span(full & ~(1 << j)))
        for j, sub in enumerate(p.subgroups))
    if not wythoff:
        raise ValueError("central_quotient expects the Wythoff subgroups of the group")
    check(z in group, "quotient.element-in-the-group", z)
    check(all(z * g == g * z for g in group.generator_list()), "quotient.element-central", z)
    identity = group.identity
    check(z == identity or z * z == identity, "quotient.element-an-involution", z)
    fixed = None if z == identity else next(
        ((j, p.base_flag[j]) for j, sub in enumerate(p.subgroups) if z in sub), None)
    check(fixed is None, "quotient.acts-freely", fixed)
    bad = next((name for name, g in group.generators.items() if g == z), None)
    check(bad is None, "quotient.generators-stay-involutions", bad)
    # a group of non-involutions is a ValueError in string_condition
    if not string_condition(group):
        raise ValueError("central_quotient expects a string group")

    # ⟨ρ_a..ρ_{b−1}, z⟩ is the span of those columns and its translate by
    # z, which is central: each position walked along z's word
    z_word = group.word(index[z])

    def with_z(a: int, b: int) -> set:
        positions = group.span((1 << b) - (1 << a))
        return {*positions, *(group.walk(i, z_word) for i in positions)}

    n = len(group.generators)
    bad = next(((i, j) for i in range(n) for j in range(i + 1, n)
                if with_z(i, j) & with_z(i + 1, j + 1) != with_z(i + 1, j)), None)
    check(bad is None, "quotient.intersection-condition", bad)
    return CosetGeometry(group, [group.subgroup(sub.generator_list() + [z])
                                 for sub in p.subgroups])


# -- colourful polytopes ----------------------------------------------------------


class ColoredGraph(namedtuple("ColoredGraph", "vertices edge_colors d")):
    """A properly edge-coloured d-valent graph: every colour class is a
    perfect matching.  `edge_colors` maps each edge, a frozenset of two
    vertices, to its colour in 1..d."""

    __slots__ = ()

    # every construction is checked
    def __new__(cls, vertices: tuple, edge_colors: Mapping[frozenset, int], d: int):
        vertex_set = set(vertices)
        bad = next((edge for edge in edge_colors
                    if len(edge) != 2 or not edge <= vertex_set), None)
        check(bad is None, "colouring.edge-joins-two-vertices", bad)
        bad = next(((color, d) for color in edge_colors.values()
                    if not 1 <= color <= d), None)
        check(bad is None, "colouring.colour-in-range", bad)
        # edges are distinct, so a (vertex, colour) pair met twice is a
        # colour repeated at that vertex; without repeats, d pairs at a
        # vertex are its d colours
        at = Counter((v, color) for edge, color in edge_colors.items() for v in edge)
        bad = next(((color, v) for (v, color), count in at.items() if count > 1), None)
        check(bad is None, "colouring.colour-once-at-a-vertex", bad)
        colours_at = Counter(v for v, _ in at)
        bad = next((v for v in vertices if colours_at[v] != d), None)
        check(bad is None, "colouring.every-colour-at-every-vertex", bad)
        return super().__new__(cls, vertices, edge_colors, d)

    @classmethod
    def _make(cls, iterable):
        """`_replace` builds through here: check it too."""
        return cls(*iterable)


def colourful_polytope(cg: ColoredGraph) -> RankedIncidenceStructure:
    """The simple d-polytope whose j-faces are (colour set of size j,
    connected component); its 1-skeleton is the graph itself.  That needs
    no check: `ColoredGraph` makes every colour class a perfect matching,
    so each one-colour component is exactly one edge of the graph.

    A connected d-valent graph whose colour classes are perfect matchings
    gives a colourful d-polytope (Araujo-Pardo, Hubard, Oliveros &
    Schulte, "Colorful polytopes and graphs", Israel J. Math. 195, 2013).
    `ColoredGraph` and `colouring.graph-connected` check exactly that
    hypothesis, so the result is not validated again."""
    # colour -> vertex -> its neighbour along that colour, which exists
    # and is one, since each colour class is a perfect matching
    along: dict[int, dict] = {c: {} for c in range(1, cg.d + 1)}
    for (a, b), color in cg.edge_colors.items():
        along[color][a], along[color][b] = b, a

    def component(v, colors: frozenset) -> tuple:
        return tuple(sorted(reach(v, lambda u: [along[c][u] for c in colors])))

    all_colors = frozenset(along)
    reached = component(cg.vertices[0], all_colors)
    check(reached == tuple(sorted(cg.vertices)), "colouring.graph-connected", len(reached))

    faces_by_rank: list[list] = []
    comp_of: list[dict] = []
    for j in range(cg.d):
        keys = []
        lookup = {}
        for colors in itertools.combinations(sorted(all_colors), j):
            cset = frozenset(colors)
            remaining = set(cg.vertices)
            while remaining:
                v = min(remaining)
                comp = component(v, cset)
                remaining -= set(comp)
                key = (tuple(sorted(cset)), comp)
                keys.append(key)
                for u in comp:
                    lookup[(cset, u)] = key
        faces_by_rank.append(keys)
        comp_of.append(lookup)

    # a j-face lies on the k-face of each larger colour set through its first vertex
    pairs = [((j, key), (k, comp_of[k][(frozenset(dcolors), key[1][0])]))
             for j in range(cg.d) for key in faces_by_rank[j]
             for k in range(j + 1, cg.d)
             for dcolors in itertools.combinations(sorted(all_colors), k)
             if set(key[0]) <= set(dcolors)]

    return RankedIncidenceStructure(cg.d, faces_by_rank, pairs)


# -- coverings ---------------------------------------------------------------------


class CoveringReport(namedtuple("CoveringReport", "preimage_counts isomorphic_on_facets "
                                                   "isomorphic_on_vertex_figures")):
    __slots__ = ()

    @property
    def is_k_covering(self) -> bool:
        """Acts isomorphically on facets and vertex-figures."""
        return self.isomorphic_on_facets and self.isomorphic_on_vertex_figures

    def uniform_fiber_size(self) -> int | None:
        sizes = {c for rank in self.preimage_counts for c in rank}
        return sizes.pop() if len(sizes) == 1 else None


def _words(group: ConcreteGroup, elements: Sequence) -> list[list[int]]:
    """The generator word of each element in group.  An element outside
    the group is a `ValueError`."""
    index = group.table().index
    outside = next((e for e in elements if e not in index), None)
    if outside is not None:
        raise ValueError(f"{outside!r} is not in the group")
    return [group.word(index[e]) for e in elements]


def verify_covering(cover: CosetGeometry, base: CosetGeometry, hom: Homomorphism,
                    anchor: Sequence[int]) -> tuple[dict[FaceRef, FaceRef], CoveringReport]:
    """The covering of the polytope `base` by the polytope `cover` that an
    epimorphism gives, as (face map, report).  Anything but two coset
    geometries is a `ValueError`.

    Let Γ = cover.group with face subgroups Γ_j and Λ = base.group.  `hom`
    is φ: G -> Λ on G = hom.source, a subgroup of Γ, with kernel K, and
    G_j = G ∩ Γ_j.  `anchor` names one face A_j of base per rank, where the
    cover's base flag, the faces Γ_j, goes.  The checks are the hypotheses:

    - `covering.same-rank`;
    - `covering.transitive-on-faces`: |G ∩ Γ_j ∩ Γ_k| |Γ| = |G| |Γ_j ∩ Γ_k|
      for j <= k.  Γ is transitive on the incident pairs of faces of ranks
      j and k, since cosets that share z are (Γ_j, Γ_k) z, so G is too: every
      rank-j face is Γ_j g, and every incident pair (Γ_j g, Γ_k g), for some
      g in G.  With j = k this is |G_j| f_j = |G|;
    - `covering.anchor-is-a-flag`;
    - `covering.onto`: φ(G) = Λ;
    - `covering.stabilizers-fix-the-anchor`: φ(G_j) fixes A_j, and
      `covering.stabilizer-orders`: |φ(G_j ∩ G_k)| = |Λ_j ∩ Λ_k| for
      j <= k.  Λ is transitive on the incident pairs of base, so the
      stabilizer of (A_j, A_k) has that order: φ(G_j) is the stabilizer of
      A_j, and φ(G_j ∩ G_k) = φ(G_j) ∩ φ(G_k).

    Then f: Γ_j g -> A_j φ(g), g in G, is well defined, since φ(G_j) fixes
    A_j, and f(F g) = f(F) φ(g).  It keeps rank, keeps incidence (the pair
    (Γ_j g, Γ_k g) goes to (A_j, A_k) φ(g)) and is onto, as Λ is transitive
    on each rank: a covering (McMullen & Schulte, Abstract Regular
    Polytopes, 2D; Monson, Pellicer & Williams, "Mixing and monodromy of
    abstract polytopes", Trans. AMS 366, 2014).  f is walked a rank at a
    time from Γ_j and A_j along G's generators and their images; a face
    reached twice with two images is the witness that φ(G_j) moves A_j.

    The report reads the kernel:

    - the rank-j faces over A_j are the Γ_j g with φ(g) in φ(G_j), that is g
      in G_j K: |K| / |K ∩ G_j| faces, and as many over A_j φ(h), moved by h;
    - f is one-to-one on the section below every facet when it is on the
      one below Γ_{n−1}, by f(F g) = f(F) φ(g).  Its rank-j faces are the
      Γ_j s, s in S = G_{n−1}, and Γ_j s, Γ_j s' share an image exactly when
      s' s^-1 lies in G_j K.  A one-to-one map of a polytope into one of the
      same rank that keeps rank and incidence is an isomorphism onto it,
      since the image flags are closed under adjacency.  So f is
      isomorphic on facets iff S ∩ G_j K = S ∩ G_j for every j, and that is
      K ∩ S ⊆ G_0 ∩ ... ∩ G_{n−1}: if s in S lies in G_j K, φ(s) lies in
      φ(S) ∩ φ(G_j) = φ(S ∩ G_j), so s = b k with b in S ∩ G_j and k in K ∩ S.
      When G acts faithfully, that flag stabilizer is trivial, and this is
      K ∩ G_{n−1} = 1.  Vertex-figures alike, with G_0.

    Everything is read from the action tables: no products of elements."""
    if not (isinstance(cover, CosetGeometry) and isinstance(base, CosetGeometry)):
        raise ValueError("verify_covering expects two coset geometries")
    n = cover.rank
    check(n == base.rank, "covering.same-rank", (n, base.rank))
    if len(anchor) != n or not all(0 <= a < f for a, f in zip(anchor, base.f_vector)):
        raise ValueError(f"anchor {tuple(anchor)} names no face of each rank of base")
    group, big, small = hom.source, cover.group, base.group
    gens = group.generator_list()
    steps = list(zip(_words(big, gens), _words(small, [hom(g) for g in gens])))

    # Γ_j, G_j and K as positions in Γ, Λ_j as positions in Λ; the orders of
    # φ(G_j ∩ G_k) = (G_j ∩ G_k) / (G_j ∩ G_k ∩ K) and of φ(G) = G / K
    index = big.table().index
    big_subs = [set(map(index.__getitem__, sub)) for sub in cover.subgroups]
    subs = [{index[e] for e in sub if e in group.element_set} for sub in cover.subgroups]
    small_subs = [set(map(small.table().index.__getitem__, sub)) for sub in base.subgroups]
    kernel = set(map(index.__getitem__, hom.kernel()))
    meets = {(j, k): subs[j] & subs[k] for j in range(n) for k in range(j, n)}
    bad = next(((j, k) for (j, k), meet in meets.items()
                if len(meet) * len(big) != len(group) * len(big_subs[j] & big_subs[k])), None)
    check(bad is None, "covering.transitive-on-faces", bad)
    bad = next(((j, k) for j, k in meets if j < k
                and not base.incident((j, anchor[j]), (k, anchor[k]))), None)
    check(bad is None, "covering.anchor-is-a-flag", bad)
    check(len(group) == len(kernel) * len(small), "covering.onto",
          (len(group) // len(kernel), len(small)))

    big_act, small_act = big.table().act, small.table().act
    face_map: dict[FaceRef, FaceRef] = {}
    clash = None
    for j, (canon, canon_base) in enumerate(zip(cover.canon, base.canon)):
        # face -> (a member of it, a member of its image)
        at = {canon[0]: (0, canon_base.index(anchor[j]))}
        queue = [canon[0]]
        for c in queue:  # the queue grows while it is read
            start = at[c]
            for up, down in steps:
                p, q = start
                for k in up:
                    p = big_act[p][k]
                for k in down:
                    q = small_act[q][k]
                d = canon[p]
                if d not in at:
                    at[d] = p, q
                    queue.append(d)
                elif clash is None and canon_base[at[d][1]] != canon_base[q]:
                    clash = (j, d)
        face_map.update(((j, c), (j, canon_base[q])) for c, (_, q) in at.items())
    check(clash is None, "covering.stabilizers-fix-the-anchor", clash)
    bad = next(((j, k) for (j, k), meet in meets.items()
                if len(meet) // len(meet & kernel) != len(small_subs[j] & small_subs[k])), None)
    check(bad is None, "covering.stabilizer-orders", bad)

    flag_stabilizer = set.intersection(*subs)
    return face_map, CoveringReport(
        preimage_counts=tuple((len(kernel) // len(kernel & sub),) * f
                              for sub, f in zip(subs, base.f_vector)),
        isomorphic_on_facets=kernel & subs[-1] <= flag_stabilizer,
        isomorphic_on_vertex_figures=kernel & subs[0] <= flag_stabilizer,
    )
