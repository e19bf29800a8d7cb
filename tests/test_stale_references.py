"""Every private name that a docstring, a comment or the README quotes exists.

A backticked name with one leading underscore in a docstring or comment of
`src/liecoh`, or anywhere in `README.md`, must be defined somewhere in
`src/liecoh`: as a function, class, method or parameter, or as a name or
attribute assigned to (slots included).  The name may stand alone or in a
dotted path or call, as in `linalg._complement`, `cx._block[0]` or
`pbw._word_span.cache_info()`.  So a deletion or a rename cannot leave
prose that points at nothing.  The `_bar` suffix of quotient labels is a
label, not a name, and is exempt.
"""

import ast
import io
import os
import re
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "liecoh")
EXEMPT = {"_bar"}

_SPAN = re.compile(r"`([^`\n]+)`")
_PRIVATE = re.compile(r"(?<!\w)_[A-Za-z]\w*")


def _sources():
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as handle:
                yield name, handle.read()


def _defined(tree) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.arg):
            out.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            out.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets):
            out.update(e.value for e in ast.walk(node.value)
                       if isinstance(e, ast.Constant) and isinstance(e.value, str))
    return out


def _prose(source: str, tree) -> list[str]:
    """The docstrings and comments of one module."""
    texts = [tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
             if tok.type == tokenize.COMMENT]
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                texts.append(doc)
    return texts


def _quoted_private_names(text: str) -> set[str]:
    return {name for span in _SPAN.findall(text) for name in _PRIVATE.findall(span)}


def _quoted_everywhere() -> dict:
    """{where: private names quoted there}, and the names src/liecoh defines."""
    defined, quoted = set(), {}
    for name, source in _sources():
        tree = ast.parse(source)
        defined |= _defined(tree)
        quoted[name] = set().union(*map(_quoted_private_names, _prose(source, tree)))
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        quoted["README.md"] = _quoted_private_names(handle.read())
    return quoted, defined


def test_quoted_private_names_are_defined():
    quoted, defined = _quoted_everywhere()
    stale = {where: sorted(names - defined - EXEMPT) for where, names in quoted.items()}
    assert {where: names for where, names in stale.items() if names} == {}


def test_the_scan_sees_quoted_names():
    # the scan is no vacuous pass: it finds the engine's names, dotted ones
    # and the exempt label suffix among the quotes
    quoted, defined = _quoted_everywhere()
    engine = quoted["lie.py"] | quoted["linalg.py"]
    assert {"_complement", "_tag_coordinates", "_algebra_on"} <= engine
    assert "_block" in quoted["README.md"] | quoted["cohomology.py"]
    assert "_bar" in quoted["README.md"] and "_bar" not in defined
    assert _quoted_private_names("see `linalg._gone(x)._too`, `z_f`, `__init__`") \
        == {"_gone", "_too"}
