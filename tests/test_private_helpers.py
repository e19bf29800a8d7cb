"""No private helper of the library is left without a caller.

Every module-level function or class of `src/liecoh` whose name starts
with one underscore must be read somewhere in the package outside its
own definition: as a name (`_rank(...)`, `key=_weigh`) or as an
attribute (`wedge._operators`, `M._int_action`).  Importing it does not
count, so a deletion cannot leave a helper that only its import keeps
alive.

Nor may such a function, or a private method, take a parameter that its
body never reads: a signature change cannot leave an argument that every
caller passes for nothing.  And no parameter of a private module-level
function may receive one and the same literal from every call in the
package: a value that no caller varies belongs in the body.

Nor may two modules define a module-level function or class of one name:
two jobs under one name read as one.
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


def _literal(node):
    """(type, repr) of the value of a literal argument, else None."""
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return None
    return type(value), repr(value)


def _constant_arguments(sources: dict[str, str]) -> list[str]:
    """'module.function(parameter=value)' of each parameter of a private
    module-level function at which every call in the sources passes the
    same literal.  A function that is also read other than as the callee of
    a call (a callback, `key=_weigh`) is skipped: its callers are unseen."""
    defs = {}
    for module, source in sorted(sources.items()):
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef) and _is_private_definition(node):
                args = node.args
                defs[node.name] = (module, [a.arg for a in (*args.posonlyargs, *args.args)],
                                   [a.arg for a in args.kwonlyargs])
    calls: dict = {name: [] for name in defs}
    reads = []
    for source in sources.values():
        for sub in ast.walk(ast.parse(source)):
            name = getattr(sub, "id", getattr(sub, "attr", None))
            if isinstance(sub, ast.Call):
                name = getattr(sub.func, "id", getattr(sub.func, "attr", None))
                if name in defs:
                    calls[name].append(sub)
            elif name in defs and isinstance(sub.ctx, ast.Load):
                reads.append((name, sub))
    callees = {id(call.func) for found in calls.values() for call in found}
    other = {name for name, node in reads if id(node) not in callees}
    out = []
    for name, (module, positional, keyword) in sorted(defs.items()):
        if not calls[name] or name in other:
            continue
        passed: dict = {}
        for call in calls[name]:
            bound = dict(zip(positional, call.args))
            if any(isinstance(arg, ast.Starred) for arg in call.args):
                bound = {}
            bound.update((kw.arg, kw.value) for kw in call.keywords if kw.arg)
            for param in (*positional, *keyword):
                passed.setdefault(param, []).append(
                    _literal(bound[param]) if param in bound else None)
        out += [f"{module}.{name}({param}={values[0][1]})" for param, values in passed.items()
                if values[0] is not None and values.count(values[0]) == len(values)]
    return out


def _shared_names(sources: dict[str, str]) -> list[str]:
    """'name: module, module, ...' of each module-level function or class
    name that two or more of the modules define: one name, one job."""
    where: dict = {}
    for module, source in sorted(sources.items()):
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                where.setdefault(node.name, []).append(module)
    return [f"{name}: {', '.join(modules)}" for name, modules in sorted(where.items())
            if len(modules) > 1]


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


def test_every_private_function_takes_an_argument_some_call_varies():
    assert _constant_arguments(_library()) == []


def test_a_parameter_no_call_varies_is_caught():
    sources = {
        "a": ("def _window(row, lo, hi, *, fill=0):\n    return row, lo, hi, fill\n"
              "def _varied(x, y=1):\n    return x, y\n"
              "def _callback(size):\n    return size\n"
              "def _spread(x):\n    return x\n"),
        "b": ("from .a import _window\nimport a\n"
              "_window(r, 0, n, fill=())\n"
              "a._window(s, 0, m, fill=())\n"
              "a._varied(1)\na._varied(2, y=2)\n"
              "_callback(0)\nload(check=_callback)\n"
              "_spread(*args)\n"),
    }
    assert _constant_arguments(sources) == ["a._window(lo=0)", "a._window(fill=())"]


def test_no_two_modules_define_one_name():
    assert _shared_names(_library()) == []


def test_a_name_two_modules_define_is_caught():
    sources = {
        "a": ("def _combine(row, f, other):\n    return row\n"
              "class Shared:\n    pass\n"
              "def only_here():\n    pass\n"
              "_combine = 3\n"),
        "b": ("def _combine(terms):\n    return terms\n"
              "class Box:\n    def only_here(self):\n        pass\n"),
        "c": ("from .a import Shared\n"
              "async def Shared():\n    pass\n"),
    }
    assert _shared_names(sources) == ["Shared: a, c", "_combine: a, b"]
