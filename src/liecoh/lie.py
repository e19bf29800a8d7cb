"""Finite dimensional Lie algebras given by structure constants.

A `LieAlgebra` is given by rational structure constants c with
[e_i, e_j] = sum_k c[i][j][k] e_k, and it is stored as their int table
(D, table) of `_constants`: table[i][j] lists the (k, D * c_ij^k) of the
nonzero c_ij^k, k ascending.  The table is the algebra: `from_brackets`
sums its sparse terms straight into it, equality and hashing compare it,
and `bracket_matrix`, `reorder_basis` and the file writer read it.  The
dense table `c` of Fractions is a view, built on first access for
callers outside the library.  On top of that this module provides
validation (antisymmetry, Jacobi), the two descending series, quotients
and subalgebras as new algebras, and bases adapted to the bracket
filtration together with their weight sequence.

Vectors are bracketed along one path: `_bracket` on sparse rows, through
the int table.  The closure tests, the series, the constants of
quotients and subalgebras, and the cochain builders of `cohomology` all
read it; the public `bracket` is a dense wrapper for callers outside the
library.

Structure constants in a new basis are read along one path too:
`_algebra_on` reads each bracket once on the tags of a pivot dict keyed
as `linalg._complement` keys its own.  Its bases are the input matrices
of `from_matrices` and the canonical basis of `subalgebra` (`_tagged`),
and the lifts `_complement` picks for `quotient` modulo the ideal.

All values are immutable and all functions are pure.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import lcm

from .errors import (
    AdaptedBasisError,
    ContainmentError,
    DimensionMismatchError,
    InvalidAlgebraError,
    NotAnIdealError,
    NotASubalgebraError,
    NotNilpotentError,
)
from .linalg import (
    QMatrix,
    Subspace,
    _complement,
    _dense,
    _frac,
    _insert,
    _ints,
    _scaled,
    _span,
    _sparse,
    _tag_coordinates,
    _transpose,
    vector,
)

__all__ = [
    "LieAlgebra",
    "ValidationReport",
    "IdealChain",
    "AdaptedBasis",
    "Quotient",
    "validate",
    "bracket",
    "bracket_span",
    "lower_central_series",
    "power_filtration",
    "derived_series",
    "is_nilpotent",
    "is_solvable",
    "is_ideal",
    "quotient",
    "nil_quotient",
    "subalgebra",
    "adapted_basis",
    "reorder_basis",
]


def _flat(m: QMatrix) -> dict:
    """The nonzero entries of a matrix, keyed by row-major position."""
    return {i * m.cols + j: a for i, row in enumerate(m.entries) for j, a in row.items()}


class LieAlgebra:
    """Structure-constant presentation of a Lie algebra over Q.

    Held as the int table (D, table) of `_constants`; `c`, the dense
    table of Fractions, is a view built on first access.
    """

    __slots__ = ("dim", "labels", "_table", "_c")

    def __init__(self, c, labels=None):
        c = tuple(tuple(vector(col) for col in row) for row in c)
        n = len(c)
        for row in c:
            if len(row) != n or any(len(col) != n for col in row):
                raise DimensionMismatchError("structure constants must be dim x dim x dim")
        if labels is None:
            labels = tuple(f"e{i+1}" for i in range(n))
        labels = tuple(str(x) for x in labels)
        if len(labels) != n:
            raise DimensionMismatchError("one label per basis element")
        self.dim = n
        self.labels = labels
        self._table = _int_table(n, {(i, j): dict(enumerate(col))
                                     for i, row in enumerate(c) for j, col in enumerate(row)})
        self._c = c

    @classmethod
    def _on_table(cls, labels: tuple, table: tuple) -> "LieAlgebra":
        """The algebra with int table `table`, a (D, table) pair as
        `_constants` returns it, one str label per basis element; nothing
        is checked."""
        L = object.__new__(cls)
        L.dim = len(labels)
        L.labels = labels
        L._table = table
        L._c = None
        return L

    @property
    def c(self) -> tuple:
        """The dense structure constants, c[i][j][k] a Fraction: a view of
        the int table, built on first access and kept."""
        if self._c is None:
            self._c = _dense_constants(self.dim, *self._table)
        return self._c

    @classmethod
    def from_brackets(cls, labels, brackets) -> "LieAlgebra":
        """Build from a sparse table {(i, j): [(coeff, k), ...]} with i < j.

        Antisymmetric partners are filled in automatically; unlisted pairs
        commute.  The terms are summed sparsely and made the int table
        (`_int_table`): a coefficient that sums to 0 is dropped.  A pair
        other than ints 0 <= i < j < dim, or a result index k that is not
        an int in 0..dim-1, raises DimensionMismatchError.
        """
        labels = tuple(str(x) for x in labels)
        n = len(labels)
        sums = {}
        for (i, j), terms in brackets.items():
            if type(i) is not int or type(j) is not int or not 0 <= i < j < n:
                raise DimensionMismatchError(f"bracket pair ({i}, {j}) must satisfy 0 <= i < j < dim")
            row = sums[i, j] = {}
            for coeff, k in terms:
                # a negative k would count from the end, and True is an int
                if type(k) is not int or not 0 <= k < n:
                    raise DimensionMismatchError(
                        f"result index {k!r} of bracket pair ({i}, {j}) must satisfy 0 <= k < dim")
                row[k] = row.get(k, 0) + _frac(coeff)
        sums.update([((j, i), {k: -a for k, a in row.items()}) for (i, j), row in sums.items()])
        return cls._on_table(labels, _int_table(n, sums))

    @classmethod
    def from_matrices(cls, labels, matrices) -> "LieAlgebra":
        """The Lie algebra spanned by the given square matrices.

        The matrices must be linearly independent and their span closed
        under commutators; structure constants are the commutators read on
        the matrices (`_algebra_on`).
        """
        labels = tuple(labels)
        mats = [m if isinstance(m, QMatrix) else QMatrix(m) for m in matrices]
        if len(mats) != len(labels):
            raise DimensionMismatchError("one label per matrix")
        size = mats[0].rows if mats else 0
        if any(m.rows != size or m.cols != size for m in mats):
            raise DimensionMismatchError("matrices must be square and of one size")
        pivots = _tagged(map(_flat, mats))
        # a row left on its tags alone leads at a key >= 0
        if any(lead >= 0 for lead in pivots):
            raise NotASubalgebraError("matrices are linearly dependent")
        return _algebra_on(labels, pivots,
                           lambda i, j: _flat(mats[i] * mats[j] - mats[j] * mats[i]))

    def bracket_matrix(self, i: int) -> QMatrix:
        """Matrix of ad e_i acting on coordinate columns, read off the int table."""
        D, table = self._table
        return QMatrix._wrap(_transpose([{k: Fraction(x, D) for k, x in terms}
                                         for terms in table[i]], self.dim), self.dim)

    # the table and `c` determine each other
    def __eq__(self, other):
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return (self.dim, self.labels, self._table) == (other.dim, other.labels, other._table)

    def __hash__(self):
        return hash((self.dim, self.labels, self._table))

    def __repr__(self):
        return f"<LieAlgebra dim={self.dim} [{', '.join(self.labels)}]>"


def _constants(L: LieAlgebra) -> tuple[int, tuple]:
    """(D, table): table[i][j] is the tuple of the (k, D * c_ij^k) for the
    nonzero c_ij^k, k ascending, as ints, D the lcm of their denominators.
    The algebra's stored form."""
    return L._table


def _int_table(n: int, cells: dict) -> tuple[int, tuple]:
    """(D, table) of the rational cells {(i, j): {k: c_ij^k}}: D the lcm of
    the denominators, table[i][j] the (k, D * c_ij^k) of the nonzero
    values, k ascending, and () at each pair the cells lack."""
    D = lcm(*[a.denominator for cell in cells.values() for a in cell.values()])
    table = [[()] * n for _ in range(n)]
    for (i, j), cell in cells.items():
        table[i][j] = tuple((k, _scaled(cell[k], D)) for k in sorted(cell) if cell[k])
    return D, tuple(map(tuple, table))


def _dense_constants(n: int, D: int, table: tuple) -> tuple:
    """The dense n x n x n table of Fractions c[i][j][k] of an int table
    over D: the view `LieAlgebra.c`."""
    return tuple(tuple(_dense({k: Fraction(x, D) for k, x in terms}, n) for terms in row)
                 for row in table)


def _tagged(rows) -> dict:
    """The pivots of rational rows keyed ~k, row i tagged 1 at key i: the
    rows as the basis of a tagged pivot dict (`linalg._tag_coordinates`)."""
    pivots: dict = {}
    for i, row in enumerate(rows):
        _insert(pivots, _ints({~k: a for k, a in row.items()} | {i: 1})[0])
    return pivots


def _algebra_on(labels, pivots: dict, bracket) -> LieAlgebra:
    """The algebra on the basis rows of a tagged pivot dict: coordinate k
    keyed ~k, and basis element i the row tagged at key i.

    bracket(i, j) is the rational row of [x_i, x_j] in the ambient
    coordinates, keyed k, and is read once for each pair i < j on the
    tags (`_tag_coordinates`).  It serves three bases: the input matrices
    of `from_matrices`, the lifts of `quotient` (modulo the ideal's
    untagged rows) and the canonical basis of `subalgebra`.  Raises
    NotASubalgebraError when a bracket falls outside the span.
    """
    brackets = {}
    for i, j in combinations(range(len(labels)), 2):
        try:
            coords = _tag_coordinates(pivots, {~k: a for k, a in bracket(i, j).items()})
        except ContainmentError:
            raise NotASubalgebraError(
                f"[{labels[i]}, {labels[j]}] falls outside the span") from None
        brackets[i, j] = [(a, k) for k, a in coords.items()]
    return LieAlgebra.from_brackets(labels, brackets)


def _brackets_of(L: LieAlgebra, rows):
    """bracket(i, j) for `_algebra_on`: [rows[i], rows[j]] of sparse
    rational rows, through the int constants of `_constants`."""
    D, table = _constants(L)
    return lambda i, j: {k: x / D for k, x in _bracket(table, rows[i], rows[j]).items()}


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking antisymmetry and the Jacobi identity."""

    ok: bool
    kind: str | None = None          # "antisymmetry" | "jacobi"
    triple: tuple[int, ...] | None = None
    labels: tuple[str, ...] | None = None    # the basis labels at `triple`

    def require(self):
        if not self.ok:
            raise InvalidAlgebraError(f"{self.kind} fails at ({', '.join(self.labels)})")


def validate(L: LieAlgebra) -> ValidationReport:
    """Check the Lie axioms; reports the first violated index tuple.

    Both read the int constants of `_constants`: antisymmetry compares
    table[i][j] with table[j][i] negated, and the Jacobi sum of a basis
    triple has e_t coefficient the cyclic sum of c[i][j][k] c[k][l][t].
    """
    n = L.dim

    def fail(kind, triple):
        return ValidationReport(False, kind, triple, tuple(L.labels[i] for i in triple))

    _, nonzero = _constants(L)
    for i, j in combinations_with_replacement(range(n), 2):
        if nonzero[i][j] != tuple((k, -g) for k, g in nonzero[j][i]):
            return fail("antisymmetry", (i, j))
    for i, j, l in combinations(range(n), 3):
        s: dict = {}
        for a, b, x in ((i, j, l), (j, l, i), (l, i, j)):
            for k, g in nonzero[a][b]:
                for t, h in nonzero[k][x]:
                    s[t] = s.get(t, 0) + g * h
        if any(s.values()):
            return fail("jacobi", (i, j, l))
    return ValidationReport(True)


def _bracket(table: tuple, u: dict, v: dict) -> dict:
    """[u, v] of sparse coordinate rows, through the int constants `table`
    of `_constants`, as a sparse row without zero values: D times the
    bracket, D the denominator of the table."""
    out: dict = {}
    for i, a in u.items():
        row = table[i]
        for j, b in v.items():
            terms = row[j]
            if terms:
                ab = a * b
                for k, g in terms:
                    out[k] = out.get(k, 0) + ab * g
    return {k: x for k, x in out.items() if x}


def bracket(L: LieAlgebra, u, v) -> tuple:
    """Bilinear extension of the structure constants to coordinate vectors."""
    u = vector(u)
    v = vector(v)
    if len(u) != L.dim or len(v) != L.dim:
        raise DimensionMismatchError("vectors must have the algebra's dimension")
    D, table = _constants(L)
    out = _bracket(table, _sparse(u), _sparse(v))
    return _dense({k: x / D for k, x in out.items()}, L.dim)


def bracket_span(L: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    """Span of all brackets [a, b], as a subspace of the algebra.

    Brackets the int basis rows the subspaces keep (the same spans as
    their canonical bases) through the int constants of `_constants`, all
    in ints.
    """
    if a.ambient_dim != L.dim or b.ambient_dim != L.dim:
        raise DimensionMismatchError("subspace has wrong ambient dimension")
    _, table = _constants(L)
    return _span(L.dim, [_bracket(table, u, v)
                         for u in a._rows.values() for v in b._rows.values()])


@dataclass(frozen=True)
class IdealChain:
    """A weakly decreasing chain of ideals, run until it stabilizes.

    `terms` holds the distinct terms only; `stabilized` records that one
    more step was computed and reproduced the last stored term.
    """

    terms: tuple[Subspace, ...]
    stabilized: bool

    @property
    def last(self) -> Subspace:
        return self.terms[-1]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(t.dim for t in self.terms)

    def term(self, n: int) -> Subspace:
        """The n-th term (1-based), extending constantly past stabilization."""
        if n < 1:
            raise ValueError("terms are indexed from 1")
        return self.terms[min(n, len(self.terms)) - 1]


def _descending_chain(L: LieAlgebra, step) -> IdealChain:
    """The chain from L down: step(terms) is the term after the list of terms
    so far, and the chain stops at the first one equal to its predecessor."""
    terms = [Subspace.full(L.dim)]
    while True:
        nxt = step(terms)
        if nxt == terms[-1]:
            return IdealChain(tuple(terms), True)
        terms.append(nxt)


def lower_central_series(L: LieAlgebra) -> IdealChain:
    """Terms of the descending series L, [L, L], [L, [L, L]], ...

    Stabilizes within dim steps; the final term is the intersection of the
    whole series.
    """
    full = Subspace.full(L.dim)
    return _descending_chain(L, lambda terms: bracket_span(L, full, terms[-1]))


def derived_series(L: LieAlgebra) -> IdealChain:
    """Terms of the series L, [L, L], [[L, L], [L, L]], ..."""
    return _descending_chain(L, lambda terms: bracket_span(L, terms[-1], terms[-1]))


def power_filtration(L: LieAlgebra) -> IdealChain:
    """The filtration with degree-d term  sum_j [term_j, term_{d-j}].

    The degree-d term, d = len(terms) + 1, sums over j = 1..d - 1, where
    both j and d - j index terms already built.  Classically this equals
    the lower central series; the library computes both and the test suite
    asserts their equality on every instance instead of citing the identity.
    """
    def step(terms):
        nxt = Subspace.zero(L.dim)
        for j in range(1, len(terms) + 1):
            nxt = nxt + bracket_span(L, terms[j - 1], terms[-j])
        return nxt

    return _descending_chain(L, step)


def is_nilpotent(L: LieAlgebra) -> bool:
    return lower_central_series(L).last.dim == 0


def is_solvable(L: LieAlgebra) -> bool:
    return derived_series(L).last.dim == 0


def is_ideal(L: LieAlgebra, sub: Subspace) -> bool:
    return bracket_span(L, Subspace.full(L.dim), sub) <= sub


@dataclass(frozen=True)
class Quotient:
    """A quotient algebra together with the projection and a linear section.

    projection * section is the identity of the quotient; the section
    columns are the chosen lifts of the quotient basis.
    """

    algebra: LieAlgebra
    projection: QMatrix     # (quotient dim) x (ambient dim)
    section: QMatrix        # (ambient dim) x (quotient dim)

    def lift(self, a: int) -> tuple:
        return self.section.column(a)


def quotient(L: LieAlgebra, ideal: Subspace) -> Quotient:
    """Structure constants of L/ideal in a lifted basis.

    The lifts are the e_f at the columns f that lead no row of the ideal
    when its rows lead at their largest column (`linalg._complement`).
    Their labels carry a ``_bar`` suffix.  Raises NotAnIdealError when
    the subspace is not an ideal.
    """
    if not is_ideal(L, ideal):
        raise NotAnIdealError("quotient requires a bracket-stable ideal")
    n = L.dim
    pivots, kept = _complement(ideal._rows.values(), range(n))
    lifts = [{f: Fraction(1)} for f in kept]
    algebra = _algebra_on([L.labels[f] + "_bar" for f in kept], pivots, _brackets_of(L, lifts))
    # column j of the projection: the coordinates of e_j on the lifts, mod the ideal
    projection = QMatrix._wrap(
        _transpose([_tag_coordinates(pivots, {~j: 1}) for j in range(n)], len(kept)), n)
    return Quotient(algebra, projection, QMatrix._wrap(_transpose(lifts, n), len(kept)))


def nil_quotient(L: LieAlgebra) -> Quotient:
    """Quotient by the last lower-central term; the result is nilpotent."""
    q = quotient(L, lower_central_series(L).last)
    assert is_nilpotent(q.algebra)
    return q


def subalgebra(L: LieAlgebra, sub: Subspace) -> tuple[LieAlgebra, QMatrix]:
    """The algebra carried by a bracket-closed subspace, plus its inclusion.

    The inclusion matrix has the canonical basis vectors of `sub` as
    columns.  Raises NotASubalgebraError when the span is not closed.
    """
    if sub.ambient_dim != L.dim:
        raise DimensionMismatchError("subspace has wrong ambient dimension")
    rows = sub.basis.entries
    algebra = _algebra_on([L.labels[p] for p in sub._rows], _tagged(rows), _brackets_of(L, rows))
    return algebra, sub.basis.transpose()


@dataclass(frozen=True)
class AdaptedBasis:
    """A reordering of the basis adapted to the bracket filtration.

    order[p] is the original index of the element at adapted position p;
    nu[p] is its weight: the deepest filtration term containing it.  The
    tail {positions p : nu[p] >= d} spans the degree-d filtration term,
    and [e_i, e_j] lies in the span of elements of weight >= nu_i + nu_j.
    """

    order: tuple[int, ...]
    nu: tuple[int, ...]


def adapted_basis(L: LieAlgebra) -> AdaptedBasis:
    """Weights and ordering for a nilpotent algebra's standard basis.

    Requires every filtration term to be spanned by standard basis
    vectors (true for all built-in and generated algebras); raises
    AdaptedBasisError otherwise, since a mere permutation cannot then be
    adapted.
    """
    chain = power_filtration(L)
    if chain.last.dim:           # the last term is L^inf, as for the lower central series
        raise NotNilpotentError("adapted bases exist only for nilpotent algebras")
    # a span of standard basis vectors has them as its canonical rows
    if any(len(row) != 1 for term in chain.terms for row in term._rows.values()):
        raise AdaptedBasisError(
            "filtration terms are not spanned by standard basis vectors; "
            "re-express the algebra in a filtration-compatible basis")
    n = L.dim
    # term 1 is the whole algebra
    nu = [max(d for d, term in enumerate(chain.terms, 1) if i in term._rows) for i in range(n)]
    order = tuple(sorted(range(n), key=lambda i: (nu[i], i)))
    return AdaptedBasis(order, tuple(nu[i] for i in order))


def reorder_basis(L: LieAlgebra, order) -> LieAlgebra:
    """The same algebra in the basis order given, a permutation of the ints 0..dim-1."""
    order = tuple(order)
    if any(type(k) is not int for k in order) or sorted(order) != list(range(L.dim)):
        raise DimensionMismatchError("order must be a permutation of the basis indices")
    D, table = L._table
    place = {k: p for p, k in enumerate(order)}
    permuted = tuple(tuple(tuple(sorted((place[k], x) for k, x in table[i][j])) for j in order)
                     for i in order)
    return LieAlgebra._on_table(tuple(L.labels[i] for i in order), (D, permuted))
