"""Every module of the library and of its tests uses each name that it
imports, every definition of the library is referenced somewhere, every
private definition of the library is referenced by the library, every
public one by the library or by perfbench unless it awaits a caller
named in `AWAITING_CALLERS`, the library holds no `assert` statement
and raises no `AssertionError`, and no library module but `multipoly`
reads a `.terms` view.

Stdlib `ast` checks, so the tier-1 run catches an unused import or a dead
definition without a linter. An import counts as used when the name
appears anywhere in the module as a plain name, which includes the base of
an attribute access. A top-level function, class or non-dunder method of
`src/hilb` counts as used when its name appears as a plain name or an
attribute anywhere in `src/hilb`, `tests` or `perfbench`; one whose name
starts with `_` only when it appears in `src/hilb`, since a private helper
that only tests call is test code and belongs with them. A public one that
only tests call is test code as well, unless a ROADMAP item will call it;
perfbench's own tests do not count as callers. Matching is by name, not by
owner: a method counts as used when any method of that name is, so
`MonomialIdeal.colon` once passed with only tests calling it, because
`PackedLayout.colon` has the same name; the names that more than one
owner defines are pinned in `SHARED_NAMES`. The dead-definition checks
skip dunders: the interpreter calls them for an operator or a protocol
(`a + b`, `x in y`, `hash`), not by name, so a name search cannot tell
whether one is used, and `Weight.__add__` and `__mul__`, then
`Partition.__contains__`, once outlived their last caller unseen.
Instead every library class may define only the value dunders in
`PLAIN_DUNDERS` (construction, equality, hashing, repr and slots), and
the classes that define any other dunder are pinned in
`OPERATOR_OWNERS`, so a class gains arithmetic or a protocol only by a
reviewed edit there. An `assert`
vanishes under `python -O`, so a condition the library must check raises
an error instead, and a `raise AssertionError` is an assertion by
another name: the library raises its own errors, such as `RingError`.
The `terms` views of `MultiPoly` and `LaurentPoly` are the boundary, for
callers outside the library: inside it, every other module works on the
packed forms.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "hilb").glob("*.py"))
MODULES = sorted([*LIBRARY, *(ROOT / "tests").glob("*.py")])
SCANNED = sorted([*MODULES, *(ROOT / "perfbench").rglob("*.py")])
CALLERS = sorted([*LIBRARY, *(ROOT / "perfbench").glob("*.py")])

# Public definitions that only tests call today, each with the ROADMAP item
# that will call it from the library
AWAITING_CALLERS = {
    "hilbert_series": "item 3",
    "schur_K_G26": "item 3",
    "series_equal": "item 3",
    "poly_from_terms": "item 3",
    "permuted": "item 1",
    "parse_chain": "item 3",
}


# Definition names that more than one owner (a module for a top-level
# definition, a class for a method) defines in the library, with their
# owners. The dead-definition checks match names, not owners, so each
# owner passes them when any of the others has a caller; a name that gains
# a second owner fails `test_shared_definition_names_are_pinned` until its
# callers are reviewed and it is added here. Callers, by owner:
# - `_of_packed`: `Ideal.initial_ideal` builds a `MonomialIdeal`; groebner,
#   localeq and multipoly build `MultiPoly`s.
# - `_scaled`: the `__neg__` and `__mul__` of each of the two classes.
# - `gens`: localeq and perfbench read `MonomialIdeal.gens`; `PolyRing.gens`
#   has no caller outside tests, and is the one known test-only method
#   that a shared name still hides: perfbench's tests call it.
# - `r`: kpoly reads `Weight.r` and `HilbertSeries.r`.
# - `render`: localeq calls `MultiPoly.render` and `HilbertSeries.render`
#   calls `LaurentPoly.render` on its numerator; `HilbertSeries.render`
#   has no caller outside tests.
# - `terms`: perfbench reads the views of both classes.
SHARED_NAMES = {
    "_of_packed": ("groebner.MonomialIdeal", "multipoly.MultiPoly"),
    "_scaled": ("multipoly.LaurentPoly", "multipoly.MultiPoly"),
    "gens": ("groebner.MonomialIdeal", "multipoly.PolyRing"),
    "r": ("kpoly.HilbertSeries", "multipoly.Weight"),
    "render": ("kpoly.HilbertSeries", "multipoly.LaurentPoly", "multipoly.MultiPoly"),
    "terms": ("multipoly.LaurentPoly", "multipoly.MultiPoly"),
}


# The dunders that any class of the library may define, and the classes
# that define any other: the two polynomial types, with their arithmetic.
# `Weight` is a plain value, and sums of weights are `LaurentPoly`
# products; cell membership is `c in lam.cells`.
PLAIN_DUNDERS = {"__init__", "__eq__", "__hash__", "__repr__", "__slots__"}
OPERATOR_OWNERS = ("multipoly.LaurentPoly", "multipoly.MultiPoly")


def unused_imports(source: str):
    """(line, name) of each imported name that the module never mentions."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_finds_an_unused_import():
    source = "import os.path\nimport sys\nfrom a import b as c, d\nprint(os.sep, c)\n"
    assert unused_imports(source) == [(2, "sys"), (3, "d")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def owned_definitions(source: str):
    """(class, line, name) of each top-level function and class, with class
    None, and of each method of a top-level class whose name is not a
    dunder, with the class's name."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in ast.parse(source).body:
        if isinstance(node, kinds):
            yield None, node.lineno, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield node.name, item.lineno, item.name


def definitions(source: str):
    """(line, name) of each definition of `owned_definitions`."""
    return [(line, name) for _, line, name in owned_definitions(source)]


def references(sources):
    """Every name used as a plain name or as an attribute in the sources."""
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def owners(sources):
    """Each definition name of the (module, source) pairs with more than
    one owner, mapped to its sorted owners: the module for a top-level
    definition, module.Class for a method."""
    found = {}
    for module, source in sources:
        for cls, _, name in owned_definitions(source):
            found.setdefault(name, set()).add(module if cls is None else f"{module}.{cls}")
    return {name: tuple(sorted(o)) for name, o in found.items() if len(o) > 1}


def test_the_check_finds_a_shared_definition_name():
    a = "def f(): pass\nclass K:\n    def f(self): pass\n    def g(self): pass\n    def __init__(self): pass\n"
    b = "class L:\n    def g(self): pass\n    def __init__(self): pass\nclass K: pass\n"
    assert owners([("a", a), ("b", b)]) == {"f": ("a", "a.K"), "g": ("a.K", "b.L"), "K": ("a", "b")}


def test_shared_definition_names_are_pinned():
    assert owners((path.stem, path.read_text()) for path in LIBRARY) == SHARED_NAMES


def operator_owners(sources):
    """Sorted module.Class of each top-level class of the (module, source)
    pairs that defines a dunder outside `PLAIN_DUNDERS`, by `def` or by
    assignment, as `__radd__ = __add__` does."""
    found = set()
    for module, source in sources:
        for node in ast.parse(source).body:
            if not isinstance(node, ast.ClassDef):
                continue
            names = set()
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(item.name)
                elif isinstance(item, ast.Assign):
                    names.update(t.id for t in item.targets if isinstance(t, ast.Name))
            if any(n.startswith("__") and n.endswith("__") for n in names - PLAIN_DUNDERS):
                found.add(f"{module}.{node.name}")
    return tuple(sorted(found))


def test_the_check_finds_an_operator_owner():
    a = (
        "class Plain:\n    def __eq__(self, o): pass\n    def __hash__(self): pass\n"
        "class Sum:\n    def __add__(self, o): pass\n"
        "def __mul__(a, b): pass\n"
    )
    b = "class Alias:\n    def _neg(self): pass\n    __neg__ = _neg\nclass Power:\n    __pow__ = None\n"
    c = (
        "class Cells:\n    __slots__ = ('cells',)\n    def __init__(self): pass\n    def _show(self): pass\n    __repr__ = _show\n"
        "class Member:\n    def __contains__(self, x): pass\n"
    )
    assert operator_owners([("a", a), ("b", b), ("c", c)]) == ("a.Sum", "b.Alias", "b.Power", "c.Member")


def test_operator_dunders_are_pinned():
    assert operator_owners((path.stem, path.read_text()) for path in LIBRARY) == OPERATOR_OWNERS


def dead_definitions(source: str, used):
    return [(line, name) for line, name in definitions(source) if name not in used]


def test_the_check_finds_a_dead_definition():
    source = (
        "def used(): pass\n"
        "def unused(): pass\n"
        "class K:\n"
        "    def __init__(self): pass\n"
        "    def method(self): pass\n"
        "    def dead(self): pass\n"
        "class Dead: pass\n"
        "used()\n"
        "K().method()\n"
    )
    assert dead_definitions(source, references([source])) == [(2, "unused"), (6, "dead"), (7, "Dead")]


def test_no_dead_definitions():
    used = references(path.read_text() for path in SCANNED)
    dead = {str(path.relative_to(ROOT)): dead_definitions(path.read_text(), used) for path in LIBRARY}
    assert {path: found for path, found in dead.items() if found} == {}


def private_dead_definitions(source: str, used):
    return [(line, name) for line, name in dead_definitions(source, used) if name.startswith("_")]


def test_the_check_finds_a_private_helper_that_only_tests_call():
    library = (
        "def _helper(): pass\n"
        "def _used(): pass\n"
        "def public(): pass\n"
        "class K:\n"
        "    def __init__(self): _used()\n"
        "    def _method(self): pass\n"
    )
    tests = "_helper()\npublic()\nK()._method()\n"
    assert dead_definitions(library, references([library, tests])) == []
    assert private_dead_definitions(library, references([library])) == [(1, "_helper"), (6, "_method")]


def test_no_private_definitions_that_only_tests_call():
    used = references(path.read_text() for path in LIBRARY)
    found = {str(path.relative_to(ROOT)): private_dead_definitions(path.read_text(), used) for path in LIBRARY}
    assert {path: names for path, names in found.items() if names} == {}


def test_the_check_finds_a_public_definition_that_only_tests_call():
    library = (
        "def called(): pass\n"
        "def awaited(): pass\n"
        "def tested(): pass\n"
        "class K:\n"
        "    def colon(self): pass\n"
    )
    callers = "called(K)\nother.colon()\n"
    # K.colon passes: another object's colon has its name
    assert dead_definitions(library, references([callers]) | {"awaited"}) == [(3, "tested")]


def test_no_library_definitions_that_only_tests_call():
    called = references(path.read_text() for path in CALLERS)
    found = {
        str(path.relative_to(ROOT)): dead_definitions(path.read_text(), called | AWAITING_CALLERS.keys())
        for path in LIBRARY
    }
    assert {path: names for path, names in found.items() if names} == {}
    # a name leaves the set once it has a caller
    assert called & AWAITING_CALLERS.keys() == set()


def assert_lines(source: str):
    """Line of each `assert` statement, at any depth."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert))


def test_the_check_finds_an_assert():
    source = "def f(x):\n    assert x\n    return x\n\nassert f(1), 'message'\n"
    assert assert_lines(source) == [2, 5]


def test_no_asserts_in_the_library():
    found = {str(path.relative_to(ROOT)): assert_lines(path.read_text()) for path in LIBRARY}
    assert {path: lines for path, lines in found.items() if lines} == {}


def assertion_raises(source: str):
    """Line of each `raise AssertionError`, bare or called, at any depth."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                lines.append(node.lineno)
    return sorted(lines)


def test_the_check_finds_a_raised_assertion_error():
    source = (
        "def f(x):\n"
        "    if x:\n"
        "        raise AssertionError('message')\n"
        "    raise AssertionError\n"
        "try:\n"
        "    f(0)\n"
        "except AssertionError:\n"
        "    raise ValueError('x')\n"
        "raise\n"
    )
    assert assertion_raises(source) == [3, 4]


def test_no_assertion_errors_raised_in_the_library():
    found = {str(path.relative_to(ROOT)): assertion_raises(path.read_text()) for path in LIBRARY}
    assert {path: lines for path, lines in found.items() if lines} == {}


def terms_reads(source: str):
    """Line of each read of a `.terms` attribute, at any depth."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "terms" and isinstance(node.ctx, ast.Load)
    )


def test_the_check_finds_a_terms_read():
    source = "def f(p):\n    return p.terms\n\nx = max(g.terms, key=k)\nterms = p._pk()\np.terms = {}\n"
    assert terms_reads(source) == [2, 4]


def test_only_multipoly_reads_terms_in_the_library():
    found = {str(path.relative_to(ROOT)): terms_reads(path.read_text()) for path in LIBRARY if path.name != "multipoly.py"}
    assert {path: lines for path, lines in found.items() if lines} == {}
