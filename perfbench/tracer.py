"""Outside-in layer tracer for the library, installed only in traced runs.

Each traced function is replaced by a wrapper wherever callers look it
up: in every `liecoh` module namespace that binds it (so
`liecoh.cohomology.kernel` and `liecoh.lie.rref` are both caught, which
patching `liecoh.linalg.kernel` alone would miss), or on the class for
methods such as `Subspace.from_rows` and `QMatrix.__mul__`.

Spans live on an in-memory stack.  A span's self time is its duration
minus the time covered by its child spans; the tracer's own bookkeeping
inside a span is also excluded from the parent's self time.  Only
per-function totals are kept, and they are read out when the run ends.
"""

import sys
from collections import Counter
from time import perf_counter


class Stat:
    __slots__ = ("calls", "self_s", "cells", "max_bits", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.cells = 0
        self.max_bits = 0
        self.extra = Counter()


def _cells(m):
    return m.rows * m.cols


def _max_bits(m):
    best = 0
    for row in m.data:
        for a in row:
            if a:
                best = max(best, a.numerator.bit_length(), a.denominator.bit_length())
    return best


def counts_cells(hook):
    """Mark a post hook that adds to `cells`; its targets report `.cells`."""
    hook.counts_cells = True
    return hook


@counts_cells
def _matrix_arg(stat, args, kwargs, result, state):
    stat.cells += _cells(args[0])


@counts_cells
def _rref_post(stat, args, kwargs, result, state):
    stat.cells += _cells(args[0])
    stat.max_bits = max(stat.max_bits, _max_bits(args[0]), _max_bits(result[0]))


@counts_cells
def _mul_post(stat, args, kwargs, result, state):
    self, other = args
    stat.cells += _cells(self) + (_cells(other) if hasattr(other, "rows") else 0)


@counts_cells
def _from_rows_post(stat, args, kwargs, result, state):
    _, ambient_dim, rows = args
    stat.cells += len(rows) * ambient_dim


def _quotient_basis_post(stat, args, kwargs, result, state):
    stat.extra["chosen"] += len(result)


@counts_cells
def _ce_complex_post(stat, args, kwargs, result, state):
    stat.cells += sum(_cells(d) for d in result.deltas)


def _reduce_into_pre(args, kwargs):
    return len(args[0])


def _reduce_into_post(stat, args, kwargs, result, state):
    stat.extra["kept"] += len(args[0]) - state


# (defining module, attribute path, name used in metrics, pre hook, post hook)
TARGETS = (
    ("linalg", "rref", None, None, _rref_post),
    ("linalg", "rref_transform", None, None, _matrix_arg),
    ("linalg", "rank", None, None, _matrix_arg),
    ("linalg", "kernel", None, None, _matrix_arg),
    ("linalg", "image", None, None, _matrix_arg),
    ("linalg", "quotient_basis", None, None, _quotient_basis_post),
    ("linalg", "Subspace.from_rows", None, None, _from_rows_post),
    ("linalg", "QMatrix.__mul__", "QMatrix.mul", None, _mul_post),
    ("linalg", "QMatrix.__init__", "QMatrix.init", None, _matrix_arg),
    ("cohomology", "ce_complex", None, None, _ce_complex_post),
    ("cohomology", "cohomology_of", None, None, None),
    ("cohomology", "_action_operator", None, None, None),
    ("cohomology", "action_on_cohomology", None, None, None),
    ("cohomology", "inflation_map", None, None, None),
    ("cohomology", "inflation_on_cohomology", None, None, None),
    ("cohomology", "_e2_from_action", None, None, None),
    ("cohomology", "hs_e2_page", None, None, None),
    ("checker", "check", None, None, None),
    ("checker", "verify_report", None, None, None),
    ("rep", "has_trivial_subquotient", None, None, None),
    ("rep", "LieModule.__init__", "LieModule.init", None, None),
    ("rep", "restrict", None, None, None),
    ("lie", "validate", None, None, None),
    ("lie", "lower_central_series", None, None, None),
    ("lie", "quotient", None, None, None),
    ("lie", "subalgebra", None, None, None),
    ("lie", "adapted_basis", None, None, None),
    ("lie", "is_nilpotent", None, None, None),
    ("pbw", "ipower_bruteforce", None, None, None),
    ("pbw", "ipower_predicted", None, None, None),
    ("pbw", "multiply", None, None, None),
    ("pbw", "rees_layer_table", None, None, None),
    ("pbw", "monoid_generator_check", None, None, None),
    ("pbw", "_reduce_into", None, _reduce_into_pre, _reduce_into_post),
    ("fileformat", "load_algebra", None, None, None),
    ("cli", "main", None, None, None),
)


class Tracer:
    """Span stack plus per-function totals for one traced run."""

    def __init__(self):
        self.stats = {}
        self._stack = []               # [name, time covered by children]
        self._distinct = set()         # complexes seen by cohomology_of in this op
        self.distinct = 0
        self.rebuilds = 0              # Subspace.from_rows calls made by quotient_basis

    def begin_op(self):
        """Each op stands for a fresh CLI process."""
        self._distinct.clear()

    def install(self):
        import liecoh.cli  # noqa: F401  (the package itself does not import cli)

        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "liecoh" or name.startswith("liecoh."))]
        for modname, path, label, pre, post in TARGETS:
            home = sys.modules[f"liecoh.{modname}"]
            name = f"{modname}.{label or path}"
            if path == "cohomology_of":
                pre = self._note_complex
            elif path == "Subspace.from_rows":
                post = self._note_rebuild
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self._wrap(name, raw.__func__, pre, post)))
                else:
                    setattr(cls, attr, self._wrap(name, raw, pre, post))
                continue
            original = getattr(home, path)
            wrapper = self._wrap(name, original, pre, post)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _note_complex(self, args, kwargs):
        cx = args[0]
        key = (cx.algebra.c, tuple(m.data for m in cx.coeff.rho))
        if key not in self._distinct:
            self._distinct.add(key)
            self.distinct += 1

    def _note_rebuild(self, stat, args, kwargs, result, state):
        _from_rows_post(stat, args, kwargs, result, state)
        # the stack still holds from_rows' own frame on top
        if len(self._stack) > 1 and self._stack[-2][0] == "linalg.quotient_basis":
            self.rebuilds += 1

    def _wrap(self, name, fn, pre, post):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                state = pre(args, kwargs) if pre else None
                frame[1] += perf_counter() - start
                result = fn(*args, **kwargs)
                if post:
                    hook = perf_counter()
                    post(stat, args, kwargs, result, state)
                    frame[1] += perf_counter() - hook
                return result
            finally:
                end = perf_counter()
                stack.pop()
                stat.calls += 1
                stat.self_s += (end - start) - frame[1]
                if parent is not None:
                    parent[1] += end - start

        traced.__wrapped__ = fn
        return traced
