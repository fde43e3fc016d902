"""Value records are made by `polytope_forge.records.record`, subclassed
with `__slots__ = ()` where a record has a docstring, methods or
validation.  They keep fixed field names and defaults, and their
attributes cannot be assigned; the ones that validate do so on every
construction.  Each builds, fails, prints, copies and pickles as the
`collections.namedtuple` it replaced, which these tests keep as the
reference; the package itself names no namedtuple and compiles no source.
Nothing in the package uses `dataclasses`, whose class decorations cost
most of the cold-start import, nor `typing`, whose `NamedTuple` compiles a
`ForwardRef` for every field of every record at import."""

import ast
import copy
import os
import pickle
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import pytest

import polytope_forge
from polytope_forge import cli, cubefamily, groupcore, mkconfig, polycore, signedperm
from polytope_forge.groupcore import CheckFailed, Presentation
from polytope_forge.polycore import ColoredGraph
from polytope_forge.signedperm import SignedPerm

PACKAGE = Path(polytope_forge.__file__).resolve().parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"

# record -> its fields in order; certificate keys and keyword construction
# read these names
FIELDS = {
    cli.Claim: ("claim_id", "criterion", "expected", "computed", "passed", "note"),
    cli.CliConfig: ("cap",),
    cli.ProjectionSpec: ("name", "basis", "scale", "colors", "labelled_points_only"),
    cli.Report: ("claims", "elapsed_seconds"),
    cli._Row: ("claim_id", "criterion", "expected", "compute", "note"),
    cubefamily.PetriePolygon: ("vertices",),
    cubefamily.Atlas: (
        "rho0", "rho1", "rho2", "rho3", "pi", "zeta", "mu0", "mu1", "mu2",
        "sigma1", "sigma2", "sigma3", "sigma1_bar", "sigma2_bar", "sigma3_bar",
        "kappa1", "kappa2", "kappa3", "tau0", "tau1", "tau2", "tau3", "gamma1", "gamma2",
        "v", "v_bar", "base_octagon", "base_octagram"),
    cubefamily.CubeBundle: ("structure", "realization", "skeleton", "colourful",
                            "classification", "flag_count", "type_vector"),
    cubefamily.HemiBundle: ("structure", "quotient_group_order", "generator_product_order",
                            "colourful"),
    cubefamily.MapBundle: (
        "structure", "octagons", "edges", "levi_automorphism_count",
        "full_group", "regularity_hom", "rotation_classification",
        "edge_stabilizer_in_full_group", "mu0_preserves_edges", "type_vector"),
    cubefamily.RoliBundle: ("structure", "realization", "stabilizer_orders", "classification",
                            "orbit_count", "flag_count", "type_vector", "witness_holds",
                            "two_faces_class"),
    cubefamily.EnantiomorphBundle: ("structure", "realization", "stabilizer_orders",
                                    "two_faces_class"),
    cubefamily.CoverBundle: (
        "structure", "realization", "classification", "flag_count", "type_vector",
        "centre_plus", "centre_word_identities", "injective_on_tetrahedral",
        "covering_right", "covering_left", "covering_cube"),
    cubefamily.Labeling: ("point_of", "label_of"),
    groupcore.ActionTable: ("index", "act", "parent"),
    groupcore.Homomorphism: ("source", "mapping"),
    groupcore.HomomorphismFailure: ("word_a", "word_b"),
    groupcore.Presentation: ("generator_count", "relators"),
    groupcore.CosetTable: ("generator_count", "rows"),
    mkconfig.MKPoint: ("label", "ambient", "z1", "z2"),
    mkconfig.MKLine: ("coeff_z1", "coeff_z2", "rhs", "points"),
    mkconfig.Configuration: ("points", "lines", "incidence"),
    polycore.ClassifyResult: ("kind", "orbit_count", "flag_count"),
    polycore.ColoredGraph: ("vertices", "edge_colors", "d"),
    polycore.CoveringReport: ("preimage_counts", "isomorphic_on_facets",
                              "isomorphic_on_vertex_figures"),
    signedperm.SignedPerm: ("n", "perm", "signs"),
}
DEFAULTS = {
    cli.Claim: {"note": ""},
    cli.CliConfig: {"cap": 10**6},
    cli._Row: {"note": ""},
    cli.ProjectionSpec: {"scale": 100.0, "colors": (1, 2, 3, 4), "labelled_points_only": False},
}


@pytest.mark.parametrize("record", FIELDS, ids=lambda record: record.__name__)
def test_record_keeps_its_fields_and_defaults(record):
    assert record._fields == FIELDS[record]
    assert record._field_defaults == DEFAULTS.get(record, {})


@pytest.mark.parametrize("record", FIELDS, ids=lambda record: record.__name__)
def test_record_is_immutable(record):
    # tuple.__new__ skips validation: only the attributes are under test here
    instance = tuple.__new__(record, (None,) * len(FIELDS[record]))
    with pytest.raises(AttributeError):
        setattr(instance, FIELDS[record][0], 1)
    with pytest.raises(AttributeError):
        instance.not_a_field = 1


# records that validate on construction -> a valid instance; every other
# record takes any field values
VALIDATING = {
    cubefamily.PetriePolygon: lambda: cubefamily.build_atlas().base_octagon,
    groupcore.Presentation: lambda: Presentation(2, ((1, 1), (1, 2, -1, -2))),
    polycore.ColoredGraph: lambda: ColoredGraph(("a", "b"), {frozenset("ab"): 1}, 1),
    signedperm.SignedPerm: lambda: SignedPerm((1, -1), (2, 1)),
}


def _reference(record):
    """The `collections.namedtuple` the record was made with before."""
    return namedtuple(record.__name__, record._fields,
                      defaults=tuple(record._field_defaults.values()))


def _sample(record):
    if record in VALIDATING:
        return VALIDATING[record]()
    return record(*range(len(record._fields)))


def _outcome(make):
    """(None, the values make() builds), or (the type, the message) of what
    it raises."""
    try:
        return None, tuple(make())
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


_PLAIN = [record for record in FIELDS if record not in VALIDATING]


@pytest.mark.parametrize("record", _PLAIN, ids=lambda record: record.__name__)
def test_record_binds_arguments_as_namedtuple_does(record):
    reference = _reference(record)
    values = tuple(range(len(record._fields)))
    by_name = dict(zip(record._fields, values))
    required = len(values) - len(record._field_defaults)
    calls = [
        ((), {}), (values, {}), ((), by_name), (values[:1], dict(list(by_name.items())[1:])),
        (values[:required], {}), (values[:required - 1], {}), (values + (0,), {}),
        (values, {"not_a_field": 0}), (values, {record._fields[0]: 0}),
    ]
    for args, kwargs in calls:
        got = _outcome(lambda: record(*args, **kwargs))
        expected = _outcome(lambda: reference(*args, **kwargs))
        # the messages differ: namedtuple's name its generated __new__
        assert got[0] is expected[0] in (None, TypeError), (args, kwargs)
        if got[0] is None:
            assert got == expected and type(record(*args, **kwargs)) is record, (args, kwargs)
    assert record(*values) == record(**by_name) == values
    assert record(*values[:required]) == values[:required] + tuple(
        record._field_defaults.values())


@pytest.mark.parametrize("record", _PLAIN, ids=lambda record: record.__name__)
def test_record_make_checks_the_length_as_namedtuple_does(record):
    reference = _reference(record)
    values = tuple(range(len(record._fields)))
    for given in (values, values[:-1], values + (0,)):
        assert _outcome(lambda: record._make(given)) == _outcome(lambda: reference._make(given))
    made = record._make(iter(values))
    assert made == values and type(made) is record


@pytest.mark.parametrize("record", FIELDS, ids=lambda record: record.__name__)
def test_record_prints_replaces_copies_and_pickles_as_namedtuple_does(record):
    sample = _sample(record)
    reference = _reference(record)._make(sample)
    if "__repr__" not in vars(record):  # SignedPerm prints its `parse` form
        assert repr(sample) == repr(reference)
    first = record._fields[0]
    assert sample._replace(**{first: sample[0]}) == sample
    got = _outcome(lambda: sample._replace(not_a_field=0))
    assert got == _outcome(lambda: reference._replace(not_a_field=0))
    assert got[0] is ValueError
    copies = [copy.copy(sample), copy.deepcopy(sample)]
    copies += [pickle.loads(pickle.dumps(sample, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies:
        assert twin == sample and type(twin) is record


def test_validating_records_check_replace_too():
    pres = Presentation(generator_count=2, relators=((1, 1),))
    with pytest.raises(ValueError, match="outside"):
        pres._replace(relators=((3,),))
    with pytest.raises(ValueError, match="not a non-negative int"):
        pres._replace(generator_count=-1)
    with pytest.raises(ValueError, match="not a non-negative int"):
        pres._replace(generator_count=2.0)
    assert pres._replace(relators=[[1, 1], [2, 2]]) == Presentation(2, ((1, 1), (2, 2)))
    graph = ColoredGraph(("a", "b"), {frozenset("ab"): 1}, 1)
    assert graph._replace(vertices=("b", "a")).vertices == ("b", "a")
    with pytest.raises(CheckFailed, match=r"^colouring\.colour-in-range"):
        graph._replace(d=0)
    octagon = cubefamily.build_atlas().base_octagon
    assert octagon._replace(vertices=octagon.vertices[::-1]) == octagon
    with pytest.raises(ValueError, match="repeated vertex"):
        octagon._replace(vertices=octagon.vertices[:7] + octagon.vertices[:1])


_OPTIMIZED_FAULTS = """
from polytope_forge.groupcore import CheckFailed, Presentation
from polytope_forge.polycore import ColoredGraph
faults = [
    lambda: Presentation(1, ((2,),)),
    lambda: Presentation(generator_count=1, relators=((1, -1),)),
    lambda: ColoredGraph(("a", "b"), {frozenset("ac"): 1}, 1),
    lambda: ColoredGraph(("a", "b"), {frozenset("ab"): 2}, 1),
    lambda: ColoredGraph(("a", "b", "c"), {frozenset("ab"): 1, frozenset("bc"): 1}, 1),
    lambda: ColoredGraph(vertices=("a", "b", "c"), edge_colors={frozenset("ab"): 1}, d=1),
]
for fault in faults:
    try:
        fault()
    except (ValueError, CheckFailed) as exc:
        print(str(exc).split(":")[0])
"""


def test_validating_records_fire_under_optimize():
    src = str(PACKAGE.parent)
    run = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_FAULTS],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines() == [
        "letter 2 outside +-1..1", "relator (1, -1) is not freely reduced",
        "colouring.edge-joins-two-vertices", "colouring.colour-in-range",
        "colouring.colour-once-at-a-vertex", "colouring.every-colour-at-every-vertex"]


def test_package_uses_no_dataclasses():
    """A namedtuple never calls __post_init__, so a validation left there
    would silently stop running."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import) and any(
                    alias.name == "dataclasses" for alias in node.names) \
                    or isinstance(node, ast.ImportFrom) and node.module == "dataclasses" \
                    or isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def _imports_or_names(module: str, name: str) -> list:
    """Each place in the package that imports `module` or names `name`."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import) and any(
                    alias.name.split(".")[0] == module for alias in node.names) \
                    or isinstance(node, ast.ImportFrom) and node.module == module \
                    or isinstance(node, (ast.Name, ast.Attribute)) \
                    and getattr(node, "id", getattr(node, "attr", None)) == name:
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_package_imports_no_typing():
    """No record is a `typing.NamedTuple`, and no module imports `typing`
    at all: the annotations are strings, and their names come from
    `collections.abc`."""
    found = _imports_or_names("typing", "NamedTuple")
    assert not found, found


def test_package_names_no_namedtuple_and_compiles_no_source():
    """Records come from `records.record`, which compiles nothing: no module
    imports or names `namedtuple`, or calls `eval`, `exec` or `compile`."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.alias) and node.name.rsplit(".", 1)[-1] == "namedtuple"
             or getattr(node, "id", getattr(node, "attr", None)) == "namedtuple"
             or isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None))
             in ("eval", "exec", "compile")]
    assert not found, found


def test_package_imports_no_fractions():
    """`QF` takes `int` parts and keeps integers, so no module imports
    `fractions` or names `Fraction`."""
    found = _imports_or_names("fractions", "Fraction")
    assert not found, found


def test_only_qf_defines_equality_hashing_ordering_or_assignment():
    """Every other value type is a record, which has them from its tuple:
    a hand-written one would be a second way to make a record."""
    dunders = {"__eq__", "__hash__", "__lt__", "__setattr__"}
    found = [f"{path.name}:{node.name}.{item.name}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ClassDef) and node.name != "QF"
             for item in node.body
             if isinstance(item, ast.FunctionDef) and item.name in dunders]
    assert not found, found


# the package's modules: an import of one of these names binds a module
_MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _names_read(tree) -> tuple[set, set]:
    """(attributes, names) that code in tree reads.  Attributes are the
    `x.name`s.  Names are the bare names, the imported ones and the
    attributes of a module: `cf.name` for a module bound by an import, or
    `_mk().name` for a function that returns one.  A string constant that
    is an identifier counts as both, since `perfbench/tracer.py` hooks
    functions and methods by name; the strings of `__all__` do not count."""
    exports = {id(node) for stmt in tree.body if isinstance(stmt, ast.Assign)
               and any(getattr(target, "id", None) == "__all__" for target in stmt.targets)
               for node in ast.walk(stmt.value)}
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    modules = {alias.asname or alias.name.split(".")[0] for node in imports
               for alias in node.names
               if isinstance(node, ast.Import) or alias.name in _MODULES}
    getters = {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
               and any(isinstance(node, ast.Return) and getattr(node.value, "id", None) in modules
                       for node in ast.walk(fn))}

    def is_module(node) -> bool:
        if isinstance(node, ast.Call):
            return not node.args and getattr(node.func, "id", None) in getters
        return getattr(node, "id", None) in modules

    attributes, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            attributes.add(node.attr)
            if is_module(node.value):
                names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in exports):
            attributes.add(node.value)
            names.add(node.value)
    return attributes, names


def _unnamed(defining: dict, reading: list) -> list:
    """The "file:line name" of each function, method or class defined in the
    trees of `defining` (file name -> tree) that no tree of `reading`
    names: a method as an attribute or a string, anything else as a name.
    Dunders are exempt, and so is `_make`, which `_replace` calls."""
    attributes, names = set(), set()
    for tree in reading:
        read = _names_read(tree)
        attributes |= read[0]
        names |= read[1]

    def walk(where, node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__") or name == "_make"
                        or name in (attributes if in_class else names)):
                    yield f"{where}:{child.lineno} {name}"
                yield from walk(where, child, isinstance(child, ast.ClassDef))
            else:
                yield from walk(where, child, in_class)

    return [found for where, tree in defining.items() for found in walk(where, tree, False)]


def test_every_definition_is_named_by_the_package_or_perfbench():
    """A function, method or class that only the tests call is dead code
    kept alive by its tests.  Each one defined in the package must be named
    somewhere in the package or in perfbench besides its own def and
    `__all__`."""
    assert PERFBENCH.is_dir()
    package = {path.name: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(PACKAGE.glob("*.py"))}
    perfbench = [ast.parse(path.read_text(encoding="utf-8"))
                 for path in sorted(PERFBENCH.glob("*.py"))]
    found = _unnamed(package, [*package.values(), *perfbench])
    assert not found, found


_GETTER = "def _sp():\n    from . import signedperm\n    return signedperm\n"


@pytest.mark.parametrize("reader, named", [
    ("g.act(p)", False),
    ("build().act(p)", False),
    ("'act'", True),
    ("act(g, p)", True),
    ("from .signedperm import act", True),
    ("from . import signedperm as sp\nsp.act(g, p)", True),
    ("import polytope_forge.signedperm as sp\nsp.act(g, p)", True),
    (_GETTER + "_sp().act(g, p)", True),
], ids=["method", "call-result", "string", "bare", "import", "module", "dotted-import",
        "module-getter"])
def test_a_module_function_read_only_as_a_method_is_unnamed(reader, named):
    """A module-level `act` that only `g.act(p)` seems to name is flagged."""
    planted = {"planted.py": ast.parse("def act(g, p):\n    return None\n")}
    found = _unnamed(planted, [*planted.values(), ast.parse(reader)])
    assert found == ([] if named else ["planted.py:1 act"])
