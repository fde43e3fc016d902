"""Coset enumeration: classical sanity groups, the published indices, and
determinism of the tables."""

import pytest

from polytope_forge.cubefamily import (
    build_atlas,
    group_cover,
    group_rotation,
    presentation_cover,
    presentation_map_full,
    presentation_map_rotation,
    presentation_roli,
    presentation_unitary_triangle,
)
from polytope_forge.groupcore import (
    CapExceeded,
    ConcreteGroup,
    Presentation,
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


def test_chiral_presentation_matches_rotation_group_elementwise():
    atlas = build_atlas()
    table = enumerate_cosets(presentation_roli())
    assert table.index == 192
    assignment = [atlas.sigma1, atlas.sigma2, atlas.sigma3]
    ident = SignedPerm.identity(4)
    images = [eval_word(assignment, w, ident) for w in table.representative_words()]
    assert len(set(images)) == 192
    assert set(images) == set(group_rotation().element_set)


def test_unitary_triangle_presentation_order():
    assert enumerate_cosets(presentation_unitary_triangle()).index == 24


def test_cover_presentation_corrected_reading():
    atlas = build_atlas()
    table = enumerate_cosets(presentation_cover(corrected=True))
    assert table.index == 768
    assignment = [atlas.tau0, atlas.tau1, atlas.tau2, atlas.tau3]
    ident = SignedPerm.identity(8)
    images = {eval_word(assignment, w, ident) for w in table.representative_words()}
    assert images == set(group_cover().element_set)


def test_cover_presentation_verbatim_reading_does_not_close():
    # the literal relator list repeats a generator; enumeration blows past
    # any reasonable cap instead of stopping at 768
    with pytest.raises(CapExceeded):
        enumerate_cosets(presentation_cover(corrected=False), cap=4096)


def test_tables_are_reproducible_bit_for_bit():
    pres = presentation_roli()
    t1 = enumerate_cosets(pres, [(1,), (2,)])
    t2 = enumerate_cosets(pres, [(1,), (2,)])
    assert t1.rows == t2.rows
    assert t1 == t2


def test_table_validation_and_actions():
    pres = presentation_map_rotation()
    table = enumerate_cosets(pres, [(1,)])
    assert table.validate(pres)
    for gen in (1, 2):
        perm = [table.trace(c, (gen,)) for c in range(table.index)]
        assert sorted(perm) == list(range(table.index))
    for rel in pres.relators:
        for c in range(table.index):
            assert table.trace(c, rel) == c
    assert table.trace(0, (1,)) == 0  # subgroup word fixes the subgroup coset


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
