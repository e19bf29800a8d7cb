"""No private helper of the library is left without a caller.

Every module-level function or class of `src/liecoh` whose name starts
with one underscore must be read somewhere in the package outside its
own definition: as a name (`_rank(...)`, `key=_weigh`) or as an
attribute (`wedge._operators`, `M._int_action`).  Importing it does not
count, so a deletion cannot leave a helper that only its import keeps
alive.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "liecoh")


def _reads(node) -> set[str]:
    """The names and attribute names read anywhere under node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out.add(sub.attr)
    return out


def _is_private_definition(node) -> bool:
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__"))


def _orphans(sources: dict[str, str]) -> list[str]:
    """'module.name' of each private module-level function or class that no
    code outside its own definition reads, over the given {module: source}."""
    top = [(module, node) for module, source in sorted(sources.items())
           for node in ast.parse(source).body]
    reads = [(node, _reads(node)) for _, node in top]
    return [f"{module}.{own.name}" for module, own in top if _is_private_definition(own)
            and not any(own.name in names for node, names in reads if node is not own)]


def _library() -> dict[str, str]:
    out = {}
    for filename in sorted(os.listdir(SRC)):
        if filename.endswith(".py"):
            with open(os.path.join(SRC, filename), encoding="utf-8") as handle:
                out[filename[:-3]] = handle.read()
    return out


def test_every_private_helper_is_read_somewhere_in_the_library():
    sources = _library()
    assert _orphans(sources) == []
    # there is something to check: the library has dozens of private helpers
    assert sum(map(_is_private_definition, (node for source in sources.values()
                                            for node in ast.parse(source).body))) > 50


def test_an_orphaned_helper_is_caught():
    sources = {
        "a": ("def _used(x):\n    return x\n"
              "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
              "def _only_imported():\n    pass\n"
              "class _Attr:\n    pass\n"
              "def _shadowed():\n    pass\n"
              "def public():\n    return _used(1)\n"),
        "b": ("from .a import _only_imported\nimport a\n"
              "print(a._Attr)\n"
              "_shadowed = 3\n"),
    }
    assert _orphans(sources) == ["a._recursive", "a._only_imported", "a._shadowed"]
