"""No private helper of the library is left without a caller.

Every module-level function or class of `src/liecoh` whose name starts
with one underscore must be read somewhere in the package outside its
own definition: as a name (`_rank(...)`, `key=_weigh`) or as an
attribute (`wedge._operators`, `M._int_action`).  Importing it does not
count, so a deletion cannot leave a helper that only its import keeps
alive.

Nor may such a function, or a private method, take a parameter that its
body never reads: a signature change cannot leave an argument that every
caller passes for nothing.
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


def _unread_parameters(sources: dict[str, str]) -> list[str]:
    """'module.function(parameter)', or 'module.Class.function(parameter)', of
    each parameter, `self` and `cls` aside, that the body of a private module-
    or class-level function never reads.  Public signatures are API and may
    take a parameter on purpose (`pbw.monoid_generator_check`)."""
    out = []
    for module, source in sorted(sources.items()):
        body = ast.parse(source).body
        scoped = [("", node) for node in body] + [
            (f"{node.name}.", sub) for node in body if isinstance(node, ast.ClassDef)
            for sub in node.body]
        for owner, node in scoped:
            if not (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and _is_private_definition(node)):
                continue
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                      args.vararg, args.kwarg) if a]
            read = {sub.id for stmt in node.body for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            out += [f"{module}.{owner}{node.name}({p})" for p in params
                    if p not in ("self", "cls") and p not in read]
    return out


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


def test_every_private_function_reads_its_parameters():
    assert _unread_parameters(_library()) == []


def test_an_unread_parameter_is_caught():
    sources = {
        "a": ("def _reads_all(x, *rest, key=None, **extra):\n"
              "    return x, rest, key, extra\n"
              "def _drops(x, D):\n    return x\n"
              "def _closure(x):\n    return lambda: x\n"
              "def _rebinds(x):\n    x = 1\n    return 0\n"
              "def public(x, unused):\n    return x\n"
              "class _Box:\n"
              "    def _get(self, key):\n        return self.key\n"
              "    @classmethod\n    def _make(cls):\n        return 0\n"
              "    def __init__(self, size):\n        pass\n"),
    }
    assert _unread_parameters(sources) == ["a._drops(D)", "a._rebinds(x)", "a._Box._get(key)"]
