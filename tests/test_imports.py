"""No library module imports a name it never uses.

Each module under `src/liecoh` is parsed with `ast`; a name bound by an
import must be read somewhere in the module (binding the same name, as
a dataclass field does, is not a read) or listed in its `__all__`
(the package's re-exports), so a deletion cannot leave a dead import.
The package's `__init__` has no `__all__`: what it imports from the
package's own modules is its public API.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "liecoh")
FILES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))


def _unused_imports(source: str, package_init: bool = False) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
                if package_init and isinstance(node, ast.ImportFrom) and node.level:
                    exported.add(name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used and name not in exported]


@pytest.mark.parametrize("filename", FILES)
def test_every_imported_name_is_used_or_exported(filename):
    with open(os.path.join(SRC, filename), encoding="utf-8") as handle:
        assert _unused_imports(handle.read(), filename == "__init__.py") == []


def test_an_unused_import_is_caught():
    # a dataclass field named like an import binds that name; it does not read it
    source = ("from fractions import Fraction\nimport os.path\nfrom math import comb, lcm\n"
              "from .linalg import rank\n__all__ = ['lcm']\nprint(comb)\n"
              "class Report:\n    rank: bool\n")
    assert _unused_imports(source) == ["Fraction (line 1)", "os (line 2)", "rank (line 4)"]
    assert _unused_imports(source, package_init=True) == ["Fraction (line 1)", "os (line 2)"]
