"""Every module of the library and of its tests uses each name that it imports.

A stdlib `ast` check, so the tier-1 run catches an unused import without a
linter. A name counts as used when it appears anywhere in the module as a
plain name, which includes the base of an attribute access.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "hilb").glob("*.py"), *(ROOT / "tests").glob("*.py")])


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
