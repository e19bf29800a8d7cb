"""Built-in example algebras.

Every entry is reconstructed on each call, passes `validate`, and is
addressable by name from the command line (`liecoh example <name>`).
The matrix algebras `ut`, `strict_ut` and `prop_c`, like the draws of
`checker.random_solvable_algebra`, are spans of diagonal matrices and
matrix units built by one routine, `_triangular`.

>>> names()[:4]
('abelian1', 'abelian2', 'abelian3', 'abelian4')
>>> get("heisenberg3").labels
('x', 'y', 'z')
"""

from fractions import Fraction

from .lie import LieAlgebra

__all__ = [
    "abelian",
    "heisenberg3",
    "example_a",
    "ut",
    "strict_ut",
    "prop_c",
    "amazing_l",
    "sl2",
    "get",
    "names",
]


def abelian(n: int) -> LieAlgebra:
    """The n-dimensional algebra with all brackets zero."""
    return LieAlgebra.from_brackets([f"e{i+1}" for i in range(n)], {})


def heisenberg3() -> LieAlgebra:
    """Three-dimensional algebra with [x, y] = z and z central."""
    return LieAlgebra.from_brackets("xyz", {(0, 1): [(1, 2)]})


def example_a() -> LieAlgebra:
    """Two-dimensional solvable, non-nilpotent algebra with [x, y] = y."""
    return LieAlgebra.from_brackets("xy", {(0, 1): [(1, 1)]})


def _eij(n: int, i: int, j: int):
    return [[Fraction(1 if (r, c) == (i, j) else 0) for c in range(n)]
            for r in range(n)]


def _upper(n: int) -> list[tuple[int, int]]:
    """Every position i < j of an n x n matrix, by diagonal distance j - i."""
    return [(i, i + d) for d in range(1, n) for i in range(n - d)]


def _triangular(n: int, diagonals, pairs) -> LieAlgebra:
    """The span of diag(d) for each (label, d) of `diagonals`, then of the
    matrix units E_ij at `pairs`, labelled E{i+1}{j+1}, in the order given.

    Built through `LieAlgebra.from_matrices`, so a dependent or unclosed
    span raises NotASubalgebraError.
    """
    labels = [label for label, _ in diagonals] + [f"E{i+1}{j+1}" for i, j in pairs]
    mats = [[[d[r] if r == c else 0 for c in range(n)] for r in range(n)] for _, d in diagonals]
    return LieAlgebra.from_matrices(labels, mats + [_eij(n, i, j) for i, j in pairs])


def strict_ut(n: int) -> LieAlgebra:
    """Strictly upper-triangular n x n matrices.

    Basis ordered by diagonal distance j - i, so the native order is
    already adapted to the bracket filtration.
    """
    return _triangular(n, [], _upper(n))


def ut(n: int) -> LieAlgebra:
    """All upper-triangular n x n matrices (diagonal ones first)."""
    return _triangular(n, [], [(i, i) for i in range(n)] + _upper(n))


def prop_c() -> LieAlgebra:
    """Upper-triangular 3 x 3 matrices with equal corner entries.

    Five-dimensional and solvable; its conditions in the equivalence
    checker come out false, unlike the full upper-triangular algebra.
    """
    return _triangular(3, [("D1", (1, 0, 1)), ("D2", (0, 1, 0))], _upper(3))


def amazing_l() -> LieAlgebra:
    """Five-dimensional solvable algebra on t, x, y, z, w.

    The nilpotent part is free-nilpotent-flavoured ([x, y] = z,
    [x, z] = w) and t acts diagonally with weights (2, -3, -1, 1).
    """
    return LieAlgebra.from_brackets(
        "txyzw",
        {
            (0, 1): [(2, 1)],
            (0, 2): [(-3, 2)],
            (0, 3): [(-1, 3)],
            (0, 4): [(1, 4)],
            (1, 2): [(1, 3)],
            (1, 3): [(1, 4)],
        })


def sl2() -> LieAlgebra:
    """Traceless 2 x 2 matrices: [h, e] = 2e, [h, f] = -2f, [e, f] = h."""
    return LieAlgebra.from_brackets(
        "hef",
        {(0, 1): [(2, 1)], (0, 2): [(-2, 2)], (1, 2): [(1, 0)]})


_BUILDERS = {
    "abelian1": lambda: abelian(1),
    "abelian2": lambda: abelian(2),
    "abelian3": lambda: abelian(3),
    "abelian4": lambda: abelian(4),
    "heisenberg3": heisenberg3,
    "exampleA": example_a,
    "ut3": lambda: ut(3),
    "strict-ut3": lambda: strict_ut(3),
    "propC": prop_c,
    "amazing-L": amazing_l,
    "sl2": sl2,
}


def names() -> tuple[str, ...]:
    return tuple(_BUILDERS)


def get(name: str) -> LieAlgebra:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown example {name!r}; known: {', '.join(_BUILDERS)}") from None
    return builder()
