"""Coset enumeration: classical sanity groups, the published indices,
determinism of the tables, and equality with a two-column oracle."""

import random
import sys
from collections import deque

import pytest

from polytope_forge import groupcore
from polytope_forge.cubefamily import (
    build_atlas,
    group_cover,
    group_map_rotation,
    group_rotation,
    group_rotation_sigma,
    group_unitary,
    presentation_cover,
    presentation_map_full,
    presentation_map_rotation,
    presentation_roli,
    presentation_unitary_triangle,
)
from polytope_forge.groupcore import (
    CapExceeded,
    ConcreteGroup,
    CosetTable,
    Presentation,
    broken_relator,
    enumerate_cosets,
    eval_word,
)
from polytope_forge.signedperm import SignedPerm


def test_symmetric_and_coxeter_groups():
    s3 = Presentation(2, ((1, 1), (2, 2), (1, 2) * 3))
    assert enumerate_cosets(s3).index == 6
    s4 = Presentation(3, ((1, 1), (2, 2), (3, 3),
                          (1, 2) * 3, (2, 3) * 3, (1, 3) * 2))
    assert enumerate_cosets(s4).index == 24
    b4 = Presentation(4, ((1, 1), (2, 2), (3, 3), (4, 4),
                          (1, 2) * 4, (2, 3) * 3, (3, 4) * 3,
                          (1, 3) * 2, (1, 4) * 2, (2, 4) * 2))
    assert enumerate_cosets(b4).index == 384


def test_collapse_to_trivial_group():
    pres = Presentation(2, ((1,), (2,)))
    assert enumerate_cosets(pres).index == 1


def test_free_group_enumeration_hits_the_cap():
    with pytest.raises(CapExceeded):
        enumerate_cosets(Presentation(1, ()), cap=64)


def test_cyclic_group_orders():
    assert enumerate_cosets(Presentation(1, ((1,) * 5,))).index == 5
    # gcd of exponents through two relators
    assert enumerate_cosets(Presentation(1, ((1, 1), (1, 1, 1)))).index == 1


def test_trivial_index_when_subgroup_is_everything():
    pres = presentation_map_rotation()
    table = enumerate_cosets(pres, [(1,), (2,)])
    assert table.index == 1


def test_map_rotation_presentation_indices():
    pres = presentation_map_rotation()
    assert enumerate_cosets(pres, [(1,)]).index == 6
    assert enumerate_cosets(pres).index == 48


def test_map_full_presentation_order():
    assert enumerate_cosets(presentation_map_full()).index == 96


def test_chiral_presentation_partial_gives_eight_cosets():
    pres = presentation_roli(with_chirality_breaker=False)
    assert enumerate_cosets(pres, [(1,), (2,)]).index == 8


def _col(letter: int) -> int:
    """The column of a signed letter in a finished table: g1, g1^-1, g2, ..."""
    return 2 * (letter - 1) if letter > 0 else 2 * (-letter - 1) + 1


def trace(table: CosetTable, start: int, word) -> int:
    """The coset reached from `start` along `word`."""
    c = start
    for x in word:
        c = table.rows[c][_col(x)]
    return c


def _representative_words(table: CosetTable) -> list[tuple[int, ...]]:
    """A word reaching each coset from coset 0, by breadth-first search."""
    words: dict[int, tuple[int, ...]] = {0: ()}
    queue = deque([0])
    letters = [x for g in range(1, table.generator_count + 1) for x in (g, -g)]
    while queue:
        c = queue.popleft()
        for x in letters:
            d = trace(table, c, (x,))
            if d not in words:
                words[d] = words[c] + (x,)
                queue.append(d)
    assert len(words) == table.index
    return [words[i] for i in range(table.index)]


def test_chiral_presentation_matches_rotation_group_elementwise():
    atlas = build_atlas()
    table = enumerate_cosets(presentation_roli())
    assert table.index == 192
    assignment = [atlas.sigma1, atlas.sigma2, atlas.sigma3]
    ident = SignedPerm.identity(4)
    images = [eval_word(assignment, w, ident) for w in _representative_words(table)]
    assert len(set(images)) == 192
    assert set(images) == set(group_rotation().element_set)


def test_unitary_triangle_presentation_order():
    assert enumerate_cosets(presentation_unitary_triangle()).index == 24


def _published_cover_presentation() -> Presentation:
    """The cover's relators as published: (t3 t3)^3 stands where
    `presentation_cover` reads (t2 t3)^3."""
    return Presentation(4, tuple((4, 4) * 3 if rel == (3, 4) * 3 else rel
                                 for rel in presentation_cover().relators))


def test_cover_presentation_corrected_reading():
    atlas = build_atlas()
    table = enumerate_cosets(presentation_cover())
    assert table.index == 768
    assignment = [atlas.tau0, atlas.tau1, atlas.tau2, atlas.tau3]
    ident = SignedPerm.identity(8)
    images = {eval_word(assignment, w, ident) for w in _representative_words(table)}
    assert images == set(group_cover().element_set)


def test_cover_presentation_verbatim_reading_does_not_close():
    # the literal relator list repeats a generator; the taus satisfy it,
    # but so does a larger group: enumeration blows past any reasonable cap
    # instead of stopping at 768
    atlas = build_atlas()
    published = _published_cover_presentation()
    assert published.relators != presentation_cover().relators
    assert broken_relator([atlas.tau0, atlas.tau1, atlas.tau2, atlas.tau3], published) is None
    with pytest.raises(CapExceeded):
        enumerate_cosets(published, cap=4096)


def test_tables_are_reproducible_bit_for_bit():
    pres = presentation_roli()
    t1 = enumerate_cosets(pres, [(1,), (2,)])
    t2 = enumerate_cosets(pres, [(1,), (2,)])
    assert t1.rows == t2.rows
    assert t1 == t2


def test_table_validation_and_actions():
    pres = presentation_map_rotation()
    table = enumerate_cosets(pres, [(1,)])
    assert _validate_by_rows(table, pres, [(1,)])
    for gen in (1, 2):
        perm = [trace(table, c, (gen,)) for c in range(table.index)]
        assert sorted(perm) == list(range(table.index))
    for rel in pres.relators:
        for c in range(table.index):
            assert trace(table, c, rel) == c
    assert trace(table, 0, (1,)) == 0  # subgroup word fixes the subgroup coset


def _conjugated_bn(n: int, rng: random.Random) -> ConcreteGroup:
    """B_n from its Coxeter reflections, conjugated by a random signed
    permutation."""
    h = SignedPerm([rng.choice((1, -1)) for _ in range(n)], rng.sample(range(1, n + 1), n))
    rho0 = SignedPerm((-1,) + (1,) * (n - 1), range(1, n + 1))
    swaps = [SignedPerm.from_cycles(n, [(i, i + 1)]) for i in range(1, n)]
    return ConcreteGroup.generate([r.conjugate(h) for r in [rho0] + swaps])


@pytest.mark.parametrize("n, seed", [(3, 1), (3, 7), (4, 1), (4, 7), (5, 1), (5, 7), (6, 1)])
def test_forward_action_is_the_coxeter_closure(n, seed):
    """The second derivation of B_n: the presented group is the concrete one."""
    group = _conjugated_bn(n, random.Random(seed))
    assert enumerate_cosets(_coxeter_b(n)).forward_action() == group.table().act


@pytest.mark.parametrize("pres, group", [
    (presentation_cover, group_cover),
    (presentation_map_rotation, group_map_rotation),
    (presentation_unitary_triangle, group_unitary),
    (presentation_roli, group_rotation_sigma),
], ids=["cover", "map-rotation", "unitary-triangle", "roli"])
def test_forward_action_is_the_build_closure(pres, group):
    assert enumerate_cosets(pres()).forward_action() == group().table().act


def test_chiral_row_fails_without_the_chirality_breaker(monkeypatch):
    from polytope_forge import cli, cubefamily

    real = cubefamily.presentation_roli
    monkeypatch.setattr(cubefamily, "presentation_roli",
                        lambda: real(with_chirality_breaker=False))
    assert cli._chiral_full_matches_rotation_group(cli.CliConfig()) \
        == (False, "index 384, distinct images 384")


def test_index_meets_the_concrete_bound():
    # when the matrices satisfy the relators, the enumerated index cannot be
    # smaller than the concrete orbit size; for these faithful presentations
    # it is equal
    atlas = build_atlas()
    cases = [
        (presentation_map_rotation(), [(1,)],
         [atlas.sigma1, atlas.sigma2], 4),
        (presentation_roli(), [],
         [atlas.sigma1, atlas.sigma2, atlas.sigma3], 4),
        (presentation_unitary_triangle(), [],
         [atlas.gamma1, atlas.gamma2], 4),
    ]
    for pres, sub_words, assignment, dim in cases:
        ident = SignedPerm.identity(dim)
        concrete = ConcreteGroup.generate(assignment)
        sub_elems = ConcreteGroup.generate(
            [eval_word(assignment, w, ident) for w in sub_words]
            or [ident])
        table = enumerate_cosets(pres, sub_words)
        assert table.index == len(concrete) // len(sub_elems)


# -- the two-column oracle -------------------------------------------------------


def _two_column_oracle(pres: Presentation, subgroup_words=(), cap: int = 10**6) -> CosetTable:
    """The plain HLT enumerator, kept as the reference: two columns per
    generator, every relator scanned, (g, g) included, and it stops only
    after a scan pass and a hole-filling pass that define and merge
    nothing."""
    ngens = pres.generator_count
    ncols = 2 * ngens
    subgroup_words = tuple(tuple(w) for w in subgroup_words)
    table = [[-1] * ncols]
    parent = [0]
    pending = deque()
    stats = {"defined": 1, "merged": 0}

    def find(a):
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    def define(a, c):
        if stats["defined"] >= cap:
            raise CapExceeded(f"coset count exceeded cap={cap}")
        b = len(table)
        table.append([-1] * ncols)
        parent.append(b)
        table[a][c] = b
        table[b][c ^ 1] = a
        stats["defined"] += 1
        return b

    def deduce(a, c, b):
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

    def process_pending():
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

    def scan_and_fill(a, cols):
        n = len(cols)
        if n == 0:
            return
        f, i = find(a), 0
        b, j = find(a), n
        while True:
            while i < j:
                nxt = table[f][cols[i]]
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
                prv = table[b][cols[j - 1] ^ 1]
                if prv == -1:
                    break
                b = find(prv)
                j -= 1
            if j == i + 1:
                deduce(f, cols[i], b)
                process_pending()
                return
            f = define(f, cols[i])
            i += 1

    relator_cols = [[_col(x) for x in rel] for rel in pres.relators]
    for w in subgroup_words:
        scan_and_fill(find(0), [_col(x) for x in w])
    while True:
        before = (stats["defined"], stats["merged"])
        i = 0
        while i < len(table):
            if parent[i] == i:
                for cols in relator_cols:
                    if parent[i] != i:
                        break
                    scan_and_fill(i, cols)
            i += 1
        i = 0
        while i < len(table):
            if parent[i] == i:
                for c in range(ncols):
                    if table[i][c] == -1:
                        define(i, c)
            i += 1
        if (stats["defined"], stats["merged"]) == before:
            break

    start = find(0)
    order = {start: 0}
    queue = deque([start])
    while queue:
        c = queue.popleft()
        for col in range(ncols):
            d = find(table[c][col])
            if d not in order:
                order[d] = len(order)
                queue.append(d)
    live = sorted(order, key=order.get)
    rows = tuple(tuple(order[find(table[c][col])] for col in range(ncols)) for c in live)
    return CosetTable(generator_count=ngens, rows=rows)


def _coxeter_b(n: int) -> Presentation:
    """[4,3,...,3] on n involutions, from its Coxeter matrix."""
    def m(i, j):
        return 1 if i == j else 4 if {i, j} == {1, 2} else 3 if abs(i - j) == 1 else 2
    return Presentation(n, tuple((i, j) * m(i, j) if i != j else (i, i)
                                 for i in range(1, n + 1) for j in range(i, n + 1)))


# Every presentation and subgroup-word pair that the claims, the
# Moebius-Kantor stage and this file enumerate, the B_n ladder, and the
# involution edge cases.
_ORACLE_CASES = {
    "map-full": (presentation_map_full, ()),
    "map-rotation-over-s1": (presentation_map_rotation, [(1,)]),
    "map-rotation-over-s1-s2": (presentation_map_rotation, [(1,), (2,)]),
    "map-rotation": (presentation_map_rotation, ()),
    "roli-partial-over-s1-s2": (lambda: presentation_roli(with_chirality_breaker=False),
                                [(1,), (2,)]),
    "roli": (presentation_roli, ()),
    "roli-over-s1-s2": (presentation_roli, [(1,), (2,)]),
    "unitary-triangle": (presentation_unitary_triangle, ()),
    "cover-corrected": (presentation_cover, ()),
    "s3": (lambda: Presentation(2, ((1, 1), (2, 2), (1, 2) * 3)), ()),
    "s4": (lambda: Presentation(3, ((1, 1), (2, 2), (3, 3),
                                    (1, 2) * 3, (2, 3) * 3, (1, 3) * 2)), ()),
    "trivial": (lambda: Presentation(2, ((1,), (2,))), ()),
    "cyclic-5": (lambda: Presentation(1, ((1,) * 5,)), ()),
    "involution-and-cube": (lambda: Presentation(1, ((1, 1), (1, 1, 1))), ()),
    "b4-relators-by-kind": (lambda: Presentation(4, (
        (1, 1), (2, 2), (3, 3), (4, 4), (1, 2) * 4, (2, 3) * 3, (3, 4) * 3,
        (1, 3) * 2, (1, 4) * 2, (2, 4) * 2)), ()),
    "b3": (lambda: _coxeter_b(3), ()),
    "b4": (lambda: _coxeter_b(4), ()),
    "b5": (lambda: _coxeter_b(5), ()),
    # involutions declared only as (-g, -g)
    "s3-inverse-squares": (lambda: Presentation(2, ((-1, -1), (-2, -2), (1, 2) * 3)), ()),
    # a rotation of order 4 and a reflection, the reflection written as -2
    # in a relator and in the subgroup word
    "dihedral-8-over-reflection": (
        lambda: Presentation(2, ((1,) * 4, (2, 2), (-2, 1, 2, 1))), [(-2,)]),
    "dihedral-8-over-rotation-squared": (
        lambda: Presentation(2, ((1,) * 4, (-2, -2), (2, 1, -2, 1))), [(1, 1)]),
    "no-generators": (lambda: Presentation(0, ()), ()),
    # an empty relator closes at once, and is marked there
    "empty-relator": (lambda: Presentation(1, ((), (1,) * 3)), ()),
    # the Heisenberg group of order 27: (g1 g2)^3 and (g1 g2^-1)^3 over two
    # non-involutions repeat after 2 and 4 of their 6 letters only
    "heisenberg-27": (lambda: Presentation(2, ((1,) * 3, (2,) * 3, (1, 2) * 3, (1, -2) * 3)),
                      ()),
    "heisenberg-27-over-g1": (
        lambda: Presentation(2, ((1,) * 3, (2,) * 3, (1, 2) * 3, (1, -2) * 3)), [(1,)]),
}


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_tables_equal_the_two_column_oracle(case):
    make, words = _ORACLE_CASES[case]
    pres = make()
    assert enumerate_cosets(pres, words) == _two_column_oracle(pres, words)


def test_random_presentations_equal_the_two_column_oracle():
    # one to three generators, about half of them involutions written as
    # (g, g) or (-g, -g), a few short relators and subgroup words
    rng = random.Random(3)
    finished = 0
    for _ in range(300):
        n = rng.choice((1, 2, 3))
        letters = [x for g in range(1, n + 1) for x in (g, -g)]
        relators = [rng.choice(((g, g), (-g, -g))) for g in range(1, n + 1)
                    if rng.random() < 0.5]
        target = len(relators) + n + rng.randint(0, 2)
        while len(relators) < target:
            word = tuple(rng.choice(letters) for _ in range(rng.randint(1, 7)))
            if all(word[i] != -word[i + 1] for i in range(len(word) - 1)):
                relators.append(word)
        pres = Presentation(n, tuple(relators))
        words = [tuple(rng.choice(letters) for _ in range(rng.randint(1, 3)))
                 for _ in range(rng.randint(0, 2))]
        try:
            expected = _two_column_oracle(pres, words, cap=300)
        except CapExceeded:
            continue
        table = enumerate_cosets(pres, words, cap=300)
        assert table == expected, (pres, words)
        assert _validate_by_rows(table, pres, words), (pres, words)
        finished += 1
    assert finished >= 200


def test_oracle_cases_cover_every_enumeration_in_the_claims():
    from polytope_forge import cli, mkconfig

    seen = []
    real = groupcore.enumerate_cosets

    def spy(pres, subgroup_words=(), cap=groupcore.DEFAULT_CAP):
        seen.append((pres, tuple(tuple(w) for w in subgroup_words)))
        return real(pres, subgroup_words, cap)

    mkconfig.group_333.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "enumerate_cosets", spy)
            mp.setattr(mkconfig, "enumerate_cosets", spy)
            cli.run_claims()
    finally:
        mkconfig.group_333.cache_clear()
    cases = {(make(), tuple(tuple(w) for w in words))
             for make, words in _ORACLE_CASES.values()}
    assert len(seen) >= 6
    assert set(seen) <= cases


def test_involution_columns_are_written_twice():
    table = enumerate_cosets(Presentation(2, ((1,) * 4, (-2, -2), (2, 1, -2, 1))))
    assert table.index == 8
    assert all(row[2] == row[3] for row in table.rows)
    assert any(row[0] != row[1] for row in table.rows)


def test_validate_checks_the_involution_relators():
    # enumeration does not scan (g, g): the row oracle still checks it
    pres = Presentation(1, ((1, 1),))
    assert _validate_by_rows(CosetTable(1, ((1, 1), (0, 0))), pres)
    cyclic_4 = CosetTable(1, ((1, 3), (2, 0), (3, 1), (0, 2)))
    assert _validate_by_rows(cyclic_4, Presentation(1, ((1,) * 4,)))
    assert not _validate_by_rows(cyclic_4, pres)


# -- closed-cycle marks, the cap and the row oracle -------------------------------


@pytest.mark.parametrize("n, cap, index", [(4, 415, 384), (5, 4519, 3840)])
def test_cap_counts_the_cosets_defined(n, cap, index):
    # B_4 defines 414 cosets and B_5 4518, merged ones included; a scan
    # skipped at a closed cycle defines nothing, so the boundary is exact
    assert enumerate_cosets(_coxeter_b(n), cap=cap).index == index
    with pytest.raises(CapExceeded, match=f"cap={cap - 1}"):
        enumerate_cosets(_coxeter_b(n), cap=cap - 1)


def test_repeat_positions():
    involutions = [0, 1]  # two involution columns, each its own inverse
    assert groupcore._repeat_positions([0, 1] * 4, involutions) == list(range(1, 8))
    assert groupcore._repeat_positions([0, 1, 0], involutions) == []
    pairs = [1, 0, 3, 2]  # g1, g1^-1, g2, g2^-1
    assert groupcore._repeat_positions([0, 0, 2], pairs) == []
    assert groupcore._repeat_positions([0, 2, 1, 3], pairs) == []  # commutator
    assert groupcore._repeat_positions([0, 0, 0], pairs) == [1, 2]
    assert groupcore._repeat_positions([0, 2] * 3, pairs) == [2, 4]
    assert groupcore._repeat_positions([0, 2, 1], pairs) == []
    assert groupcore._repeat_positions([0], pairs) == []
    # a b a b^-1 with a an involution: read backward from the coset after
    # a, the cycle spells a b a b^-1 again
    assert groupcore._repeat_positions([0, 1, 0, 2], [0, 2, 1]) == [1]


def test_repeat_marks_change_no_table(monkeypatch):
    # with no repeat positions only the scanned coset is marked: more
    # scans, the same table
    pres = _coxeter_b(4)
    marked = enumerate_cosets(pres)
    monkeypatch.setattr(groupcore, "_repeat_positions", lambda cols, inv: [])
    assert enumerate_cosets(pres) == marked


def test_closed_cycles_are_not_scanned_again():
    # one scan per relator cycle of the final table, sum over r of index / |r|
    # (B_5: 480 + 6 * 960 + 3 * 640); scanning every relator that is not a
    # square at every coset would take 2,304 scans on B_4 and 38,400 on B_5
    for n, index, scans in ((3, 48, 26), (4, 384, 464), (5, 3840, 8160)):
        pres = _coxeter_b(n)
        cycles = sum(index // len(rel) for rel in pres.relators if len(rel) > 2)
        table, seen = _counted_scans(pres)
        assert table.index == index
        assert len(seen) == cycles == scans, n


def _counted_scans(pres: Presentation) -> tuple[CosetTable, list]:
    """The table, and the columns of every scan made on the way."""
    seen = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "scan_and_fill":
            seen.append(frame.f_locals["cols"])

    sys.setprofile(count)
    try:
        table = enumerate_cosets(pres)
    finally:
        sys.setprofile(None)
    return table, seen


@pytest.mark.parametrize("ngens, relators", [(2, ((2, 2), (1,))), (1, ((1, 1), ()))])
def test_a_scan_marks_its_own_coset(ngens, relators):
    # the involution's column is first filled by the second pass, which
    # then scans only the coset it defines: the first coset's own mark
    # keeps it from being scanned again
    table, seen = _counted_scans(Presentation(ngens, relators))
    assert table.index == len(seen) == 2


def _validate_by_rows(table: CosetTable, pres: Presentation, subgroup_words=()) -> bool:
    """Whether the table is a coset table of the presentation and the
    subgroup words, traced row by row: the columns of g and g^-1 are
    inverse to each other, each relator's images, read off the rows one
    list per letter, are the identity, and each subgroup word fixes coset 0.  Enumeration trusts its
    closing pass for this; the tests hold it to it."""
    if pres.generator_count != table.generator_count:
        return False
    identity = list(range(table.index))
    for k in range(0, 2 * table.generator_count, 2):
        if [table.rows[table.rows[c][k]][k + 1] for c in identity] != identity:
            return False
    for rel in pres.relators:
        images = identity
        for x in rel:
            col = _col(x)
            images = [table.rows[c][col] for c in images]
        if images != identity:
            return False
    return all(trace(table, 0, w) == 0 for w in subgroup_words)


def _corrupted(table: CosetTable, c: int, k: int) -> CosetTable:
    rows = [list(row) for row in table.rows]
    rows[c][k] = (rows[c][k] + 1) % table.index
    return table._replace(rows=tuple(map(tuple, rows)))


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_validate_agrees_with_the_row_oracle(case):
    make, words = _ORACLE_CASES[case]
    pres = make()
    table = enumerate_cosets(pres, words)
    assert _validate_by_rows(table, pres, words) is True
    rng = random.Random(case)
    cells = [(c, k) for c in range(table.index) for k in range(2 * table.generator_count)]
    for c, k in rng.sample(cells, min(len(cells), 12)):
        bad = _corrupted(table, c, k)
        # a one-coset table is its own corruption; any other change breaks
        # a relator or pairs a column with a g^-1 column it does not invert
        assert _validate_by_rows(bad, pres, words) is (bad == table)


def test_validate_agrees_with_the_row_oracle_on_one_row():
    cases = [
        (CosetTable(1, ((0, 0),)), Presentation(1, ((1,),)), ()),
        (CosetTable(1, ((0, 0),)), Presentation(1, ((1, 1), (-1,))), ((1, 1),)),
        (CosetTable(2, ((0, 0, 0, 0),)), Presentation(2, ((1,), (2, -1, 2))), ((2,),)),
        (CosetTable(0, ((),)), Presentation(0, ((),)), ()),
        (CosetTable(2, ((0, 0, 0, 0),)), Presentation(1, ((1,),)), ()),  # wrong rank
    ]
    assert [_validate_by_rows(*case) for case in cases] == [True] * 4 + [False]


def test_validate_rejects_a_relator_that_fails_at_one_coset():
    # re-pair four cosets of one involution column of B_3: every column is
    # still a permutation, but some relator breaks
    pres = _coxeter_b(3)
    table = enumerate_cosets(pres)
    rows = [list(row) for row in table.rows]
    c, d = 0, next(d for d in range(table.index)
                   if len({0, rows[0][0], d, rows[d][0]}) == 4)
    c2, d2 = rows[c][0], rows[d][0]
    for x, y in ((c, d2), (d, c2)):
        rows[x][0] = rows[x][1] = y
        rows[y][0] = rows[y][1] = x
    bad = table._replace(rows=tuple(map(tuple, rows)))
    assert all(sorted(col) == list(range(table.index)) for col in zip(*bad.rows))
    assert not _validate_by_rows(bad, pres)
