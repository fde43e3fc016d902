"""Build checks fail one way: `check` raises `CheckFailed`, the command line
exits 1 and names the check, and all of it holds under `python -O`."""

import ast
import copy
import importlib.util
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import polytope_forge
from polytope_forge import cli
from polytope_forge import cubefamily as cf
from polytope_forge import mkconfig as mk
from polytope_forge.groupcore import (CheckFailed, ConcreteGroup, Homomorphism, Presentation,
                                      check, enumerate_cosets, extend_homomorphism,
                                      intersection_condition, orbit, stabilizer,
                                      string_condition)
from polytope_forge.polycore import CosetGeometry, verify_covering
from polytope_forge.signedperm import block_pair

PACKAGE = Path(polytope_forge.__file__).resolve().parent


def _wrong_map_relator(patch):
    """(t0 t1)^8 = 1 becomes (t0 t1)^4 = 1, which the map's involutions break."""
    real = cf.presentation_map_full
    patch(cf, "presentation_map_full", lambda: Presentation(3, tuple(
        (1, 2) * 4 if rel == (1, 2) * 8 else rel for rel in real().relators)))


def _equal_roli_subgroups(patch):
    """Roli's rotary construction takes its vertex subgroup at every rank.
    The map, built first by `build roli`, keeps its own."""
    real = cf.polytope_from_rotations

    def collapsed(group):
        struct = real(group)
        if group is not cf.group_rotation_sigma():
            return struct
        return CosetGeometry(group, [struct.subgroups[0]] * 4)
    patch(cf, "polytope_from_rotations", collapsed)


def _perturbed_pi_display(patch):
    real = cf._SP
    patch(cf, "_SP", lambda text: real(
        "(1,1,1,1)·(4,3,2,1)" if text == "(-1,1,1,1)·(4,3,2,1)" else text))


def _unbarred_sigma1(patch):
    """The atlas hands the enantiomorph sigma1 for sigma1_bar, so the barred
    edge subgroup <sigma1 sigma2_bar, sigma3_bar> is not Roli's edge
    subgroup conjugated by rho0."""
    real = cf.build_atlas
    patch(cf, "build_atlas", lambda: real()._replace(sigma1_bar=real().sigma1))


def _flipped_j_entry(patch):
    """One sign of the integer pattern sqrt(3)·J flips, so J^2 is not -I."""
    rows = [list(row) for row in mk._J_PATTERN]
    rows[0][1] = -rows[0][1]
    patch(mk, "_J_PATTERN", tuple(map(tuple, rows)))


def _rho0_for_sigma1(patch):
    """The atlas hands rho0 for sigma1: <rho0, sigma2, sigma3> has the
    rotation group's order, 192, but other elements."""
    real = cf.build_atlas
    patch(cf, "build_atlas", lambda: real()._replace(sigma1=real().rho0))


def _unbarred_kappas(patch):
    """Each kappa_i pairs sigma_i with itself, not with its mirror image
    sigma_i_bar, so the three generate only the diagonal copy of the
    rotation group, 192 elements, not the 384 of the cover's."""
    real = cf.build_atlas

    def atlas():
        a = real()
        return a._replace(kappa1=block_pair(a.sigma1, a.sigma1),
                          kappa2=block_pair(a.sigma2, a.sigma2),
                          kappa3=block_pair(a.sigma3, a.sigma3))
    patch(cf, "build_atlas", atlas)


def _non_central_zeta(patch):
    """The atlas hands the hemi-cube rho0 for the central involution zeta."""
    real = cf.build_atlas
    patch(cf, "build_atlas", lambda: real()._replace(zeta=real().rho0))


def _swapped_cover_projection(patch):
    """The point map from the cover onto Roli's cube trades the second and
    third coordinates, so it sends an octagon of the cover to no octagon."""
    patch(cf, "_project_first", lambda p8: (p8[0], p8[2], p8[1], p8[3]))


def _rotated_right_projection(patch):
    """The point map onto Roli's cube is followed by sigma1, a rotation of
    Roli's cube: it still sends faces to faces, but the cover's base flag
    no longer goes to Roli's, where hom_r sends it."""
    sigma1 = cf.build_atlas().sigma1
    patch(cf, "_project_first", lambda p8: sigma1.act(p8[:4]))


def _rotated_left_projection(patch):
    """The point map onto the enantiomorph is followed by sigma1, so the
    anchor read from it is a flag that hom_l's stabilizers move."""
    real, sigma1 = cf._project_second_mirror, cf.build_atlas().sigma1
    patch(cf, "_project_second_mirror", lambda p8: sigma1.act(real(p8)))


def _swapped_left_vertices(patch):
    """The realized map onto the enantiomorph trades the images of two
    cover vertices off the base vertex v + v_bar: the anchor, read at the
    base flag, stays, but the map is no longer the one of hom_l."""
    real = cf._realized_face_map

    def swapped(source, target, f):
        out = real(source, target, f)
        if f is cf._project_second_mirror:
            base = cf.build_atlas().v + cf.build_atlas().v_bar
            off = [ref for ref in out if ref[0] == 0 and source[ref] != base]
            a = off[0]
            b = next(ref for ref in off if out[ref] != out[a])
            out[a], out[b] = out[b], out[a]
        return out
    patch(cf, "_realized_face_map", swapped)


def _roli_base_vertex(vertex):
    """An injection: `_realize` gets `vertex` as Roli's cube's base vertex
    (the other builds of `build roli` realize as before)."""
    def inject(patch):
        real = cf._realize

        def realize(struct, base_vertex):
            return real(struct, vertex if struct.group is cf.group_rotation_sigma()
                        else base_vertex)
        patch(cf, "_realize", realize)
    return inject


def _roli_wythoff_subgroup(rank: int, sub):
    """An injection: `_realize` makes Roli's cube's base face of this rank
    from the subgroup `sub(struct)` in place of the rank's own, while the
    coset geometry, and so the faces and their incidence, stay Roli's."""
    def inject(patch):
        real = cf._realize

        def realize(struct, vertex):
            if struct.group is cf.group_rotation_sigma():
                struct = copy.copy(struct)
                subs = struct.subgroups
                struct.subgroups = (*subs[:rank], sub(struct), *subs[rank + 1:])
            return real(struct, vertex)
        patch(cf, "_realize", realize)
    return inject


def _mirrored_roli_two_face(patch):
    """One realized 2-face of Roli's cube is swapped for its mirror image
    under rho0, a left-handed octagon, after `_realize` has checked it."""
    real = cf._realize

    def realize(struct, vertex):
        out = real(struct, vertex)
        if struct.group is cf.group_rotation_sigma():
            ref = struct.refs(2)[0]
            out[ref] = cf.PetriePolygon(out[ref]).transformed(cf.build_atlas().rho0).vertices
        return out
    patch(cf, "_realize", realize)


def _swapped_table_rows(patch):
    """Rows 1 and 2 of the published coordinate table trade places."""
    real = mk.table_coordinates
    patch(mk, "table_coordinates", lambda: {**real(), 1: real()[2], 2: real()[1]})


def _fewer_flags(patch):
    """`classify` sees only the flags of the subgroup generated by every
    generator but the last: `canon` keeps the positions of its elements, so
    the base orbit is that subgroup's and the flags fall into more orbits
    than the build expects."""
    real = cf.classify

    def classify(struct, face_maps=None):
        whole = struct.group
        index = whole.table().index
        kept = [index[g] for g in whole.subgroup(whole.generator_list()[:-1])]
        struct = copy.copy(struct)
        struct.canon = tuple([canon[i] for i in kept] for canon in struct.canon)
        return real(struct, face_maps)
    patch(cf, "classify", classify)


def _prism_for_gp83(patch):
    """The Levi graph is compared with GP(8,1), the 8-prism: cubic and of
    order 16 like GP(8,3), but of girth 4, not 6."""
    patch(cf, "gp83_graph", lambda: cf._adjacency(edge for i in range(8) for edge in (
        (("u", i), ("u", (i + 1) % 8)),
        (("w", i), ("w", (i + 1) % 8)),
        (("u", i), ("w", i)))))


# fault -> (injection, command, the check it must name)
FAULTS = {
    "map-relator": (_wrong_map_relator, ["build", "map"], "map.full-presentation"),
    "levi-gp-8-1": (_prism_for_gp83, ["build", "map"], "map.levi-graph-is-gp-8-3"),
    "roli-subgroups": (_equal_roli_subgroups, ["build", "roli"], "roli.stabilizer-orders"),
    "atlas-display": (_perturbed_pi_display, ["build", "cube"], "atlas.pi-display"),
    "mk-j-pattern": (_flipped_j_entry, ["build", "mk"], "mk.j-squares-to-minus-identity"),
    "mk-table-rows": (_swapped_table_rows, ["build", "mk"], "mk.coordinates-match-the-table"),
    "hemi-zeta": (_non_central_zeta, ["build", "hemi"], "quotient.element-central"),
    "enantiomorph-sigma1-bar": (_unbarred_sigma1, ["build", "enantiomorph"],
                                "enantiomorph.barred-words-give-the-mirrored-subgroups"),
    "sigma1-rho0": (_rho0_for_sigma1, ["build", "roli"], "groups.sigmas-generate-rotations"),
    "cover-unbarred-kappas": (_unbarred_kappas, ["build", "cover"],
                              "groups.cover-rotation-order"),
    "cover-point-map": (_swapped_cover_projection, ["build", "cover"],
                        "realization.point-map-sends-faces-to-faces"),
    "cover-right-rotated": (_rotated_right_projection, ["build", "cover"],
                            "cover.right-face-map-is-realized"),
    "cover-left-rotated": (_rotated_left_projection, ["build", "cover"],
                           "covering.stabilizers-fix-the-anchor"),
    "cover-left-swapped": (_swapped_left_vertices, ["build", "cover"],
                           "cover.left-face-map-is-realized"),
    # Roli's base vertex is w, which <sigma2, sigma3> moves
    "realize-moved-vertex": (_roli_base_vertex((1, -1, 1, 1)), ["build", "roli"],
                             "realization.base-faces-stabilized"),
    # the facet is the base edge's orbit under the whole rotation group, all
    # 32 cube edges: every symmetry fixes it, so the four facet cosets are
    # one realized face
    "realize-all-edges-facet": (_roli_wythoff_subgroup(3, lambda struct: struct.group),
                                ["build", "roli"], "realization.faithful"),
    # the facet is the base edge's orbit under the octagon subgroup, the
    # base octagon's 8 edges: its images are 4 distinct faces, but the base
    # vertex, on all four facets, is not on all four octagons.  The
    # antipodal vertex -v is no fault: the faces made from it are Roli's
    # moved by the central zeta
    "realize-octagon-facet": (_roli_wythoff_subgroup(3, lambda struct: struct.subgroups[2]),
                              ["build", "roli"], "realization.incidence-is-containment"),
    "realize-mixed-two-faces": (_mirrored_roli_two_face, ["build", "roli"],
                                "realization.two-faces-share-a-chiral-class"),
    "cube-face-maps": (_fewer_flags, ["build", "cube"], "cube.regular"),
    "cover-face-maps": (_fewer_flags, ["build", "cover"], "cover.regular-with-768-flags"),
    "roli-face-maps": (_fewer_flags, ["build", "roli"], "roli.chiral"),
}


def clear_build_caches() -> None:
    """Empty every cached build of `cubefamily` and `mkconfig`, so no object
    built before (or under) a fault meets one built after it."""
    for module in (cf, mk):
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and value.__module__ == module.__name__:
                value.cache_clear()


def run_fault(fault: str, patch=setattr) -> int:
    """Inject the fault, run its command through `cli.main`, return the exit
    code.  Every build cache is cleared first, while no build is patched
    away, so the command builds under the fault, and again after, so no
    value built under the fault outlives it."""
    inject, argv, _ = FAULTS[fault]
    clear_build_caches()
    inject(patch)
    try:
        return cli.main(argv)
    finally:
        clear_build_caches()


def _optimized(*args: str) -> subprocess.CompletedProcess:
    """Run `python -O` with the package and this directory importable."""
    path = os.pathsep.join([str(PACKAGE.parent), str(Path(__file__).resolve().parent)])
    return subprocess.run([sys.executable, "-O", *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_exits_1_and_names_its_check(fault, monkeypatch, capsys):
    assert run_fault(fault, monkeypatch.setattr) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"check failed: {FAULTS[fault][2]}"), err


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_exits_1_and_names_its_check_under_optimize(fault):
    run = _optimized("-c", "import sys, test_checks; "
                           f"sys.exit(test_checks.run_fault({fault!r}))")
    assert run.returncode == 1, run.stderr
    assert run.stderr.startswith(f"check failed: {FAULTS[fault][2]}"), run.stderr
    assert "Traceback" not in run.stderr


def test_verify_all_under_optimize_prints_the_same_claims(capsys):
    assert cli.main(["verify", "--all"]) == 0
    normal = capsys.readouterr().out.splitlines()
    run = _optimized("-m", "polytope_forge.cli", "verify", "--all")
    assert run.returncode == 0, run.stderr
    optimized = run.stdout.splitlines()
    assert optimized[:-1] == normal[:-1]
    assert optimized[-1].startswith("all claims pass in ")


def test_package_has_no_assert_statement():
    found = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, found


# every check is a plain call `check(ok, name, witness)`: the name is argument 1
_NAMED_CHECKS = {"check": 1}
_CHECK_ID = re.compile(r"[a-z][a-z0-9]*\.[a-z0-9]+(-[a-z0-9]+)*")


def _check_names(tree: ast.AST) -> list:
    """The name argument, as the node passed, of every call to `check`."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = getattr(node.func, "id", getattr(node.func, "attr", None))
        if callee not in _NAMED_CHECKS:
            continue
        pos = _NAMED_CHECKS[callee]
        out.append(node.args[pos] if len(node.args) > pos else next(
            (k.value for k in node.keywords if k.arg == "name"), None))
    return out


def test_check_ids_are_unique_layer_kebab_literals():
    ids, bad = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for arg in _check_names(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str) \
                    and _CHECK_ID.fullmatch(arg.value):
                ids.append(arg.value)
            else:
                bad.append(f"{path.name}:{getattr(arg, 'lineno', '?')}")
    assert not bad, bad
    repeated = sorted({i for i in ids if ids.count(i) > 1})
    assert not repeated, repeated
    # the stabilizer and barred-subgroup sites are plain checks like the rest
    assert {"groups.petrie-stabilizer-generated-by-mu0-mu1",
            "enantiomorph.barred-words-give-the-mirrored-subgroups",
            "atlas.pi-display"} <= set(ids)
    assert len(ids) >= 155


def _package_check_ids() -> set:
    return {arg.value for path in sorted(PACKAGE.glob("*.py"))
            for arg in _check_names(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(arg, ast.Constant)}


# the checks of the map's coset geometry that, with the realization, make
# the cosets the map itself; the rotations.* hypothesis makes it a polytope
_MAP_REALIZED = ("map.coset-subgroup-orders", "map.type-8-3", "rotations.generators-nontrivial",
                 "rotations.relations", "rotations.intersection-condition",
                 "realization.faithful", "realization.incidence-is-containment")

# the checks of `_realize` that make each subgroup the whole stabilizer of
# its base face
_REALIZED = ("realization.base-faces-stabilized", "realization.faithful")

# deleted check id -> the check ids that imply it (none where the
# construction does), with why
DELETED_AS_IMPLIED = {
    "roli.f-vector": (("roli.stabilizer-orders", "groups.rotation-order"),
                      "a rank-j face is a right coset: f_j = 192 / |H_j|"),
    "roli.facet-count": (("roli.stabilizer-orders", "groups.rotation-order"),
                         "f_3 = 192 / 48"),
    "enantiomorph.f-vector": (("roli.stabilizer-orders", "groups.rotation-order"),
                              "f_j = 192 / |H_j|, and conjugation by rho0 keeps |H_j|"),
    "map.f-vector": (("map.coset-subgroup-orders", "groups.map-rotation-order"),
                     "f_j = 48 / |H_j|"),
    "cover.vertex-subgroup-order": (("cover.f-vector", "groups.cover-order"),
                                    "the vertex subgroup is struct.subgroups[0]: 768 / 32"),
    "map.edge-count": (_MAP_REALIZED, "the realized edges are the 48 / 2 edge cosets"),
    "map.octagon-count": (_MAP_REALIZED, "the realized octagons are the 48 / 8 cosets"),
    "map.octagon-edges-are-map-edges": (_MAP_REALIZED,
                                        "incidence is containment of realized faces"),
    "map.edge-on-two-octagons": (_MAP_REALIZED, "the diamond at each edge"),
    "map.deleted-edge-count": (_MAP_REALIZED + ("cube.f-vector",), "32 - 24"),
    "map.mu0-moves-the-deleted-matching": (
        ("map.mu0-moves-the-edges",),
        "mu0 keeps the cube's edges, and the deleted ones are the map's complement"),
    "map.involutions-generate-the-full-group": (
        ("map.automorphism-count", "map.rotation-group-has-two-flag-orbits"),
        "as many automorphisms as the 96 flags"),
    "atlas.sigma2-sigma3-fix-v": (("atlas.v-spans-the-fixed-subspace",), "v is in that set"),
    "hemi.quotient-group-order": (("groups.cube-order", "atlas.zeta-display"),
                                  "384 / |<zeta>| with zeta = -I"),
    "group.cosets-partition-the-group": (
        (), "the right cosets of a subgroup closed by generate inside the group"),
    "map.base-flag-is-a-flag": ((), "the faces that hold the identity meet pairwise"),
    "map.cosets-realize-the-map": (
        ("map.coset-subgroup-orders", "groups.map-rotation-order", "realization.faithful"),
        "build_map reads its edges and octagons off the realization, which moves each base "
        "face by every element of the rotation group: 16, 24 and 6 distinct faces"),
    "groups.petrie-stabilizer-holds-mu0-mu1-pi": (
        (), "build_atlas defines mu1 = mu0 pi, so pi = mu0 mu1"),
    "enantiomorph.octagon-stabilizer-is-mirrored": (
        (), "the octagon subgroup is generated by rho0-conjugates"),
    "cover.string-c-group": (
        ("reflections.string-condition", "reflections.intersection-condition"),
        "build_cover makes its polytope with polytope_from_reflections(group_cover())"),
    "roli.vertex-stabilizer": (_REALIZED, "H_0 fixes v, and g fixing v makes H_0 g and H_0 "
                                          "one realized point, so g lies in H_0"),
    "enantiomorph.vertex-stabilizer": (_REALIZED, "as for Roli's cube, at v_bar"),
    "enantiomorph.edge-stabilizer": (_REALIZED, "as for Roli's cube, at the base edge"),
    "enantiomorph.stabilizer-orders": (("roli.stabilizer-orders",),
                                       "conjugation by rho0 keeps orders"),
    "enantiomorph.mirror-by-rho0-is-an-isomorphism": (
        ("groups.cube-order", "groups.rotation-order", "groups.sigmas-generate-rotations"),
        "rho0 normalizes the index-2 rotation group, and the subgroups are Roli's "
        "conjugated by rho0: H g -> H^rho0 g^rho0"),
    "cosets.table-satisfies-presentation": (
        (), "enumeration stops after a pass that leaves every relator closed at every coset"),
    "battery.claim-ids-unique": ((), "the claim table is a constant"),
    "covering.face-map-covers-every-face": (
        ("covering.transitive-on-faces",),
        "the map is walked from Gamma_j along G's generators, and G is transitive on each rank"),
    "covering.face-map-keeps-rank": ((), "the map is walked a rank at a time"),
    "covering.keeps-incidence": (
        ("covering.transitive-on-faces", "covering.anchor-is-a-flag",
         "covering.stabilizers-fix-the-anchor"),
        "an incident pair is (Gamma_j g, Gamma_k g) with g in G, sent to (A_j, A_k) phi(g)"),
    "cover.onto-the-cube-group": (
        ("covering.onto",),
        "the cube covering's hom has no image outside the cube group (_words refuses one) "
        "and |G| = |K| |cube group|"),
    "groups.barred-sigmas-generate-rotations": (
        ("groups.sigmas-generate-rotations",),
        "build_atlas defines sigma1_bar = sigma1^-1, sigma2_bar = sigma1^2 sigma2 and "
        "sigma3_bar = sigma3, so the barred sigmas generate what the sigmas do"),
    "cover.cube-rotation-kernel": (
        ("atlas.taus-are-involutions", "cover.rotation-subgroup-of-index-2", "cover.cube-kernel",
         "cover.centre-words"),
        "kappa_i = tau_(i-1) tau_i, so rho_(i-1) rho_i on the kappas is hom on Gamma+, with "
        "kernel ker(hom) & Gamma+ = {1, zz} since zz = kappa1^4"),
}


def test_deleted_checks_stay_deleted_and_their_reasons_stand():
    ids = _package_check_ids()
    assert len(DELETED_AS_IMPLIED) == 33
    assert not set(DELETED_AS_IMPLIED) & ids, sorted(set(DELETED_AS_IMPLIED) & ids)
    missing = {i for implied, _ in DELETED_AS_IMPLIED.values() for i in implied} - ids
    assert not missing, sorted(missing)
    assert IMPLIED_FACTS.keys() == DELETED_AS_IMPLIED.keys()


def _deleted_edges() -> set:
    return {tuple(sorted(e)) for e in cf.build_cube().skeleton.edge_colors} - cf.build_map().edges


def _map_faces_are_the_rotation_orbits() -> bool:
    """The map's realized faces are the orbits of the base vertex, edge and
    octagon under its rotation group, walked by `act`: every point of the
    4-cube, the map's edges and its octagons."""
    a, bundle = cf.build_atlas(), cf.build_map()
    base = [a.v, tuple(sorted((a.v, a.v_bar))), a.base_octagon.vertices]
    realization = cf._realize(bundle.structure, a.v)
    realized = [{face for (rank, _), face in realization.items() if rank == r} for r in range(3)]
    orbits = [set(orbit(cf.group_map_rotation(), face,
                        lambda f, g, r=r: cf._face_image(r, f, g.act)))
              for r, face in enumerate(base)]
    return realized == orbits == [set(itertools.product((1, -1), repeat=4)), bundle.edges,
                                  {o.vertices for o in bundle.octagons}]


def _cosets_partition_every_built_group() -> bool:
    structs = [cf.build_cube().structure, cf.build_hemi().structure, cf.build_map().structure,
               cf.build_roli().structure, cf.build_enantiomorph().structure,
               cf.build_cover().structure]
    return all(sorted(i for coset in s.group.right_cosets(sub) for i in coset)
               == list(range(len(s.group))) for s in structs for sub in s.subgroups)


def _mirrored_octagon_stabilizer() -> bool:
    rho0 = cf.build_atlas().rho0
    return cf.build_enantiomorph().structure.subgroups[2].element_set == frozenset(
        rho0 * g * rho0 for g in cf.group_petrie_stabilizer())


def _is_stabilizer(bundle, rank: int, face) -> bool:
    """The bundle's rank-`rank` subgroup is the stabilizer of `face`, by a
    scan of its group."""
    struct = bundle.structure
    scan = stabilizer(struct.group, face, lambda f, g: cf._face_image(rank, f, g.act))
    return scan.element_set == struct.subgroups[rank].element_set


def _mirror_by_rho0_is_an_isomorphism() -> bool:
    from test_polycore import _face_map_fault

    roli, bar = cf.build_roli(), cf.build_enantiomorph()
    face_map = cf._realized_face_map(roli.realization, bar.realization, cf.build_atlas().rho0.act)
    return _face_map_fault(roli.structure, face_map, roli.structure.all_refs(),
                           bar.structure, bar.structure.all_refs()) is None


def _every_oracle_table_satisfies_its_presentation() -> bool:
    from test_cosets import _ORACLE_CASES, _validate_by_rows

    return all(_validate_by_rows(enumerate_cosets(make(), words), make(), words)
               for make, words in _ORACLE_CASES.values())


def _cover_face_maps() -> list:
    """(cover, base, face map) of each of build_cover's three coverings,
    as verify_covering returns it."""
    from test_polycore import _cover_homs, _left_anchor

    cover = cf.build_cover().structure
    hom, hom_r, hom_l = _cover_homs(cf.build_atlas())
    cases = [(cf.build_roli().structure, hom_r, cf.build_roli().structure.base_flag),
             (cf.build_enantiomorph().structure, hom_l, _left_anchor()),
             (cf.build_cube().structure, hom, cf.build_cube().structure.base_flag)]
    return [(cover, base, verify_covering(cover, base, h, anchor)[0])
            for base, h, anchor in cases]


def _cover_hom_is_onto_the_cube_group() -> bool:
    from test_polycore import _cover_homs

    hom = _cover_homs(cf.build_atlas())[0]
    return frozenset(hom.mapping.values()) == cf.group_cube().element_set


def _barred_sigmas_generate_rotations() -> bool:
    a = cf.build_atlas()
    barred = ConcreteGroup.generate(
        {"sigma1": a.sigma1_bar, "sigma2": a.sigma2_bar, "sigma3": a.sigma3_bar})
    return barred.element_set == cf.group_rotation().element_set


def _rotation_hom_onto_the_cube_rotations() -> bool:
    """kappa_i -> rho_(i-1) rho_i extends to the rotation group of the
    cube, agrees with hom on the cover's rotation group, and has kernel
    {1, zz}."""
    from test_polycore import _cover_homs

    a = cf.build_atlas()
    t_plus = cf.group_cover_rotation()
    hom_p = extend_homomorphism(t_plus, {
        "kappa1": a.rho0 * a.rho1, "kappa2": a.rho1 * a.rho2, "kappa3": a.rho2 * a.rho3})
    hom = _cover_homs(a)[0]
    return (isinstance(hom_p, Homomorphism)
            and frozenset(hom_p.mapping.values()) == cf.group_rotation().element_set
            and all(hom_p(g) == hom(g) for g in t_plus)
            and frozenset(hom_p.kernel()) == {t_plus.identity, block_pair(a.zeta, a.zeta)})


# deleted check id -> its fact, asserted on the built objects
IMPLIED_FACTS = {
    "roli.f-vector": lambda: cf.build_roli().structure.f_vector == (16, 32, 12, 4),
    "roli.facet-count": lambda: len(cf.build_roli().structure.refs(3)) == 4,
    "enantiomorph.f-vector": lambda: cf.build_enantiomorph().structure.f_vector
    == (16, 32, 12, 4),
    "map.f-vector": lambda: cf.build_map().structure.f_vector == (16, 24, 6),
    "cover.vertex-subgroup-order": lambda: cf.build_cover().structure.subgroups[0].element_set
    == cf.group_cover().subgroup(cf.group_cover().generator_list()[1:]).element_set
    and len(cf.build_cover().structure.subgroups[0]) == 24,
    "map.edge-count": lambda: len(cf.build_map().edges) == 24,
    "map.octagon-count": lambda: len(cf.build_map().octagons) == 6,
    "map.octagon-edges-are-map-edges": lambda: all(
        o.edge_set() <= cf.build_map().edges for o in cf.build_map().octagons),
    "map.edge-on-two-octagons": lambda: all(
        sum(e in o.edge_set() for o in cf.build_map().octagons) == 2
        for e in cf.build_map().edges),
    "map.deleted-edge-count": lambda: len(_deleted_edges()) == 8,
    "map.mu0-moves-the-deleted-matching": lambda: {
        cf._face_image(1, e, cf.build_atlas().mu0.act) for e in _deleted_edges()}
    != _deleted_edges(),
    "map.involutions-generate-the-full-group": lambda: len(cf.build_map().full_group) == 96,
    "atlas.sigma2-sigma3-fix-v": lambda: (
        cf.build_atlas().sigma2.act(cf.build_atlas().v),
        cf.build_atlas().sigma3.act(cf.build_atlas().v)) == (cf.build_atlas().v,) * 2,
    "hemi.quotient-group-order": lambda: cf.build_hemi().quotient_group_order == 192,
    "group.cosets-partition-the-group": _cosets_partition_every_built_group,
    "map.base-flag-is-a-flag": lambda: cf.build_map().structure.base_flag
    in cf.build_map().structure.flags(),
    "map.cosets-realize-the-map": _map_faces_are_the_rotation_orbits,
    "groups.petrie-stabilizer-holds-mu0-mu1-pi": lambda: all(
        g in cf.group_petrie_stabilizer()
        for g in (cf.build_atlas().mu0, cf.build_atlas().mu1, cf.build_atlas().pi)),
    "enantiomorph.octagon-stabilizer-is-mirrored": _mirrored_octagon_stabilizer,
    "cover.string-c-group": lambda: string_condition(cf.group_cover())
    and intersection_condition(cf.group_cover()),
    "roli.vertex-stabilizer": lambda: _is_stabilizer(cf.build_roli(), 0, cf.build_atlas().v),
    "enantiomorph.vertex-stabilizer": lambda: _is_stabilizer(
        cf.build_enantiomorph(), 0, cf.build_atlas().v_bar),
    "enantiomorph.edge-stabilizer": lambda: _is_stabilizer(
        cf.build_enantiomorph(), 1, tuple(sorted((cf.build_atlas().v, cf.build_atlas().v_bar)))),
    "enantiomorph.stabilizer-orders": lambda: cf.build_enantiomorph().stabilizer_orders
    == cf.build_roli().stabilizer_orders == (12, 6, 16, 48),
    "enantiomorph.mirror-by-rho0-is-an-isomorphism": _mirror_by_rho0_is_an_isomorphism,
    "cosets.table-satisfies-presentation": _every_oracle_table_satisfies_its_presentation,
    "battery.claim-ids-unique": lambda: len(set(cli.all_claim_ids())) == len(cli.all_claim_ids()),
    "covering.face-map-covers-every-face": lambda: all(
        set(face_map) == set(cover.all_refs()) for cover, _, face_map in _cover_face_maps()),
    "covering.face-map-keeps-rank": lambda: all(
        image[0] == ref[0] for _, _, face_map in _cover_face_maps()
        for ref, image in face_map.items()),
    "covering.keeps-incidence": lambda: all(
        base.incident(face_map[a], face_map[b]) for cover, base, face_map in _cover_face_maps()
        for a in cover.all_refs() for b in cover._inc[a]),
    "cover.onto-the-cube-group": _cover_hom_is_onto_the_cube_group,
    "groups.barred-sigmas-generate-rotations": _barred_sigmas_generate_rotations,
    "cover.cube-rotation-kernel": _rotation_hom_onto_the_cube_rotations,
}


@pytest.mark.parametrize("name", sorted(DELETED_AS_IMPLIED))
def test_fact_of_a_deleted_check_holds(name):
    assert IMPLIED_FACTS[name]()


def _calls(tree: ast.AST, name: str) -> list:
    """Every call to the plain name `name` inside tree."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name]


_BUILD_ATLAS = next(fn for fn in ast.walk(ast.parse(
    (PACKAGE / "cubefamily.py").read_text(encoding="utf-8")))
    if isinstance(fn, ast.FunctionDef) and fn.name == "build_atlas")
# (literal, check id) for each `_SP` display literal a check in build_atlas compares against
_ATLAS_DISPLAYS = sorted((sp.args[0].value, call.args[1].value)
                         for call in _calls(_BUILD_ATLAS, "check")
                         for sp in _calls(call.args[0], "_SP"))


def test_every_atlas_display_literal_has_a_fault():
    assert len(_ATLAS_DISPLAYS) == len(_calls(_BUILD_ATLAS, "_SP")) == 13
    assert len({name for _, name in _ATLAS_DISPLAYS}) == 13


@pytest.mark.parametrize("literal, name", _ATLAS_DISPLAYS,
                         ids=[name for _, name in _ATLAS_DISPLAYS])
def test_flipped_atlas_display_names_its_check(literal, name, monkeypatch):
    """The first sign of one display literal flips; build_atlas must fail
    that literal's own check."""
    flipped = "(" + literal[2:] if literal.startswith("(-") else "(-" + literal[1:]
    clear_build_caches()
    real = cf._SP
    monkeypatch.setattr(cf, "_SP", lambda text: real(flipped if text == literal else text))
    try:
        with pytest.raises(CheckFailed) as exc:
            cf.build_atlas()
    finally:
        clear_build_caches()
    assert exc.value.name == name


def test_every_check_in_the_package_passes_a_witness():
    bare = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check"
            and len(node.args) < 3 and not any(k.arg == "witness" for k in node.keywords)]
    assert not bare, bare


def test_check_names_its_failure_and_witness():
    check(True, "never.raised")
    with pytest.raises(CheckFailed) as exc:
        check(0, "some.check")
    assert str(exc.value) == exc.value.name == "some.check" and exc.value.witness is None
    with pytest.raises(CheckFailed, match=r"^some\.check: \[1, 'a'\]$"):
        check([], "some.check", [1, "a"])


def test_every_failure_in_the_package_is_a_check():
    """No class subclasses CheckFailed, and only `check` raises it."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside_check = {id(node) for fn in ast.walk(tree)
                        if isinstance(fn, ast.FunctionDef) and fn.name == "check"
                        for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    getattr(base, "id", getattr(base, "attr", None)) == "CheckFailed"
                    for base in node.bases):
                found.append(f"{path.name}:{node.lineno}: class {node.name}")
            elif isinstance(node, ast.Raise) and id(node) not in inside_check \
                    and "CheckFailed" in ast.unparse(node.exc or node):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not found, found


def _check_mutants():
    """tools/check_mutants.py, the mutation audit, loaded as a module."""
    path = PACKAGE.parents[1] / "tools" / "check_mutants.py"
    spec = importlib.util.spec_from_file_location("check_mutants", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mutation_audit_adds_up_repeated_only_flags(monkeypatch, capsys):
    # the audit lists the sites it selects; nothing is mutated or tested here
    audit = _check_mutants()
    monkeypatch.setattr(audit, "mutated", lambda source, site: source)
    monkeypatch.setattr(audit, "run_tests", lambda copy, site, full: ("survived", None))

    def audited(*argv):
        assert audit.main(list(argv)) == 0
        return [json.loads(line)["id"] for line in capsys.readouterr().out.splitlines()]

    assert audited("--only", "cube.regular", "--only", "roli.chiral", "cover.regular-*") == [
        "cube.regular", "roli.chiral", "cover.regular-with-768-flags"]
    assert set(audited()) == _package_check_ids()
