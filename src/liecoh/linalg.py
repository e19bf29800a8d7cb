"""Exact linear algebra over the rationals.

Everything in this module is exact: every entry a caller sees is a
`fractions.Fraction` (always in lowest terms, positive denominator) and
no rounding ever happens.  Matrices and subspaces are immutable after
construction, so all operations are pure and safe to share between
threads.

Conventions
-----------
* Vectors are plain tuples of Fractions.  A `QMatrix` is sparse: it
  keeps each row's nonzero entries as a {column: Fraction} dict
  (`entries`) and builds the dense rows (`data`) only when they are
  asked for.  Public constructors coerce every entry and reject floats;
  matrices the library builds from its own Fractions skip that step.
* A `Subspace` has its basis as the rows of a matrix in reduced row
  echelon form with no zero rows.  This makes the basis canonical: two
  subspaces are equal iff their basis matrices are equal.  It keeps the
  same rows as the engine's int pivot rows, and makes the Fraction rows
  from them when the basis is first asked for.
* Every elimination (rank, echelon forms, kernels, images,
  intersections, quotient bases, subspace membership) runs through one
  sparse engine on Python-int rows, fraction-free in the manner of
  Bareiss (Math. Comp. 1968):
  - The engine (`_reduce`, `_insert`, `_echelon`, `_eliminated`,
    `_solutions`, `_kernel`, `_span`, `_classes`, `_complement`) reads
    {key: int} rows alone.  Fractions enter at the boundary: `rank`,
    `rref`, `rref_transform`, `kernel`, `image`, `Subspace` and
    `_tag_coordinates` make each row they are given d * row once
    (`_ints`), d the lcm of its denominators.  The rows of `cohomology`
    and `pbw` are ints already and go in as they are.
  - The pivot dict maps each leading (smallest) key to a primitive int
    row: content 1 and positive at its lead.  A row is reduced by
    cross-multiplying with the pivot row at its lead, scaled by the two
    leads over their gcd, never by dividing to 1; `_insert` stores what
    is left, made primitive.
  - Fractions leave only at the boundary.  `_echelon`'s
    back-substitution leaves each pivot row 0 at every other pivot, so
    dividing it by its lead (`_rational`) gives the canonical reduced
    echelon form; `_eliminated` eliminates on keys ~k, leads at the
    largest, so the solutions `_solutions` reads off it, at whichever
    free columns are asked for, are canonical rows at once.
    `_tag_coordinates` divides by the multiplier its row was scaled by.
  Quotients skip back-substitution: `_classes` tags each chosen row by a
  key past every coordinate, and reducing a vector leaves minus its
  coordinates, times that multiplier, on the tags.  Keys need only be
  comparable, so `pbw` runs the same engine on monomial rows.  Matrix
  rows feed the engine directly, without a dense round-trip, and the
  engine never changes the rows it is given.  The test suite checks it
  against the independent Fraction elimination in `tests/oracles.py`.
"""

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .errors import ContainmentError, DimensionMismatchError

__all__ = [
    "QMatrix",
    "Subspace",
    "rank",
    "rref",
    "rref_transform",
    "kernel",
    "image",
    "quotient_basis",
    "vector",
    "unit_vector",
]


def _frac(x) -> Fraction:
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError("floats are not allowed; pass ints, Fractions or strings")
    if isinstance(x, str) and ("e" in x or "E" in x):
        raise ValueError(f"{x!r} is no rational literal: exponents such as 1e3 are refused")
    return Fraction(x)


def vector(entries) -> tuple:
    """Coerce an iterable of ints/Fractions/strings into a rational vector.

    Floats are rejected outright: silently converting them would smuggle
    binary rounding into an exact computation.  So are strings in exponent
    notation: Fraction("1e10000000") would build a ten-million-digit int.
    """
    return tuple(map(_frac, entries))


def unit_vector(n: int, i: int) -> tuple:
    """The i-th standard basis vector of Q^n; IndexError unless 0 <= i < n."""
    if not 0 <= i < n:
        raise IndexError(f"no unit vector {i} in dimension {n}")
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


class QMatrix:
    """Immutable matrix of Fractions, kept as its nonzero entries per row.

    `entries[i]` is a {column: Fraction} dict of row i's nonzero entries;
    `data`, the dense row tuples, is built from them on first use.
    Zero-by-k and k-by-zero shapes are allowed; they show up naturally as
    differentials at the ends of a complex.  `cols` sets the width of a
    matrix without rows and must agree with the rows of any other; a
    negative size raises DimensionMismatchError.
    """

    __slots__ = ("rows", "cols", "entries", "_data")

    def __init__(self, data, cols=None):
        data = tuple(vector(row) for row in data)
        self.rows = len(data)
        if data:
            self.cols = len(data[0])
            if any(len(row) != self.cols for row in data):
                raise DimensionMismatchError("rows of unequal length")
            if cols not in (None, self.cols):
                raise DimensionMismatchError(f"rows of length {self.cols}, but cols={cols}")
        elif cols is None or cols >= 0:
            self.cols = cols or 0
        else:
            raise DimensionMismatchError(f"a matrix cannot have {cols} columns")
        self.entries = tuple(_sparse(row) for row in data)
        self._data = data

    @classmethod
    def _wrap(cls, entries, cols: int) -> "QMatrix":
        """A matrix on sparse rows the library built from its own Fractions.

        Each row is a {column: Fraction} dict without zero values; nothing
        is coerced or checked, and the rows must not be mutated afterwards.
        """
        m = object.__new__(cls)
        m.entries = tuple(entries)
        m.rows = len(m.entries)
        m.cols = cols
        m._data = None
        return m

    @property
    def data(self) -> tuple:
        """Dense rows, as tuples of Fractions."""
        if self._data is None:
            self._data = tuple(_dense(row, self.cols) for row in self.entries)
        return self._data

    @classmethod
    def zero(cls, rows: int, cols: int) -> "QMatrix":
        if rows < 0 or cols < 0:
            raise DimensionMismatchError(f"a matrix cannot have shape {rows}x{cols}")
        return cls._wrap(({},) * rows, cols)

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        if n < 0:
            raise DimensionMismatchError(f"an identity matrix cannot have size {n}")
        return cls._wrap(({i: Fraction(1)} for i in range(n)), n)

    @classmethod
    def from_columns(cls, columns, rows=None) -> "QMatrix":
        columns = [vector(c) for c in columns]
        if not columns:
            return cls.zero(rows or 0, 0)
        rows = len(columns[0]) if rows is None else rows
        if any(len(c) != rows for c in columns):
            raise DimensionMismatchError(f"every column must have {rows} entries")
        return cls._wrap(_transpose([_sparse(c) for c in columns], rows), len(columns))

    def __getitem__(self, ij):
        i, j = ij
        if not -self.cols <= j < self.cols:
            raise IndexError("column index out of range")
        return self.entries[i].get(j % self.cols, _ZERO)

    def column(self, j: int) -> tuple:
        return tuple(row.get(j, _ZERO) for row in self.entries)

    def __eq__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(frozenset(r.items()) for r in self.entries)))

    def __add__(self, other):
        self._require_same_shape(other)
        return QMatrix._wrap((_combine(r, -1, s) for r, s in zip(self.entries, other.entries)),
                             self.cols)

    def __sub__(self, other):
        self._require_same_shape(other)
        return QMatrix._wrap((_combine(r, 1, s) for r, s in zip(self.entries, other.entries)),
                             self.cols)

    def __neg__(self):
        return QMatrix._wrap(({j: -a for j, a in r.items()} for r in self.entries), self.cols)

    def scale(self, c) -> "QMatrix":
        c = _frac(c)
        if not c:
            return QMatrix.zero(self.rows, self.cols)
        return QMatrix._wrap(({j: c * a for j, a in r.items()} for r in self.entries),
                             self.cols)

    def __mul__(self, other):
        if isinstance(other, QMatrix):
            if self.cols != other.rows:
                raise DimensionMismatchError(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
            return QMatrix._wrap(_product(self.entries, dict(enumerate(other.entries))), other.cols)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def apply(self, v) -> tuple:
        """Matrix times column vector."""
        v = vector(v)
        if len(v) != self.cols:
            raise DimensionMismatchError(f"vector of length {len(v)} for {self.rows}x{self.cols}")
        column = {j: {0: x} for j, x in enumerate(v) if x}
        return tuple(row.get(0, _ZERO) for row in _product(self.entries, column))

    def transpose(self) -> "QMatrix":
        return QMatrix._wrap(_transpose(self.entries, self.cols), self.rows)

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __repr__(self):
        if self.rows * self.cols > 36:
            return f"<QMatrix {self.rows}x{self.cols}>"
        body = "; ".join(" ".join(str(a) for a in row) for row in self.data)
        return f"QMatrix[{body}]"

    def _require_same_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError(
                f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}")


_ZERO = Fraction(0)


def _sparse(vec) -> dict:
    return {j: a for j, a in enumerate(vec) if a}


def _dense(row: dict, n: int) -> tuple:
    """A sparse row with keys in range(n), as a vector of length n."""
    out = [_ZERO] * n
    for k, a in row.items():
        out[k] = a
    return tuple(out)


def _columns(rows: dict) -> dict:
    """The nonzero columns {column: {row: value}} of sparse rows {row: {column: value}}."""
    cols: dict = {}
    for r, row in rows.items():
        for c, a in row.items():
            cols.setdefault(c, {})[r] = a
    return cols


def _transpose(rows, n: int) -> list:
    """The n sparse columns of a list of sparse rows, as fresh dicts."""
    cols = _columns(dict(enumerate(rows)))
    return [cols.get(j, {}) for j in range(n)]


def _product(rows, other: dict) -> list[dict]:
    """The sparse rows of rows times the matrix with rows other[k], {column:
    value} dicts; a k that other lacks is a zero row."""
    out = []
    for r in rows:
        acc: dict = {}
        for k, a in r.items():
            for j, b in other.get(k, {}).items():
                acc[j] = acc.get(j, 0) + a * b
        out.append({j: v for j, v in acc.items() if v})
    return out


def _combine(row: dict, f, other: dict) -> dict:
    """row - f * other, as a new dict."""
    out = dict(row)
    _subtract(out, f, other)
    return out


def _subtract(row: dict, f, piv: dict) -> None:
    """row -= f * piv, in place, keeping no zero entries."""
    for k, a in piv.items():
        v = row.get(k, 0) - f * a
        if v:
            row[k] = v
        else:
            del row[k]


def _ints(row: dict) -> tuple[dict, int]:
    """(d * row as a fresh int row, d), d the lcm of the entries' denominators.

    Entries may be Fractions or ints (an int is its own numerator, over 1).
    """
    d = lcm(*[a.denominator for a in row.values()])
    if d == 1:
        return {k: a.numerator for k, a in row.items()}, 1
    return {k: a.numerator * (d // a.denominator) for k, a in row.items()}, d


def _scaled(a, D: int) -> int:
    """D * a as an int, for a rational a whose denominator divides D."""
    return a.numerator * (D // a.denominator)


def _int_rows(rows):
    """The rational rows as int rows, each `_ints` of it: the same span."""
    return (_ints(row)[0] for row in rows)


def _rational(row: dict, lead) -> dict:
    """An int row divided by its entry at `lead`, as a {key: Fraction} row."""
    d = row[lead]
    if d == 1:
        return {k: Fraction(a) for k, a in row.items()}
    return {k: Fraction(a, d) for k, a in row.items()}


def _eliminate(row: dict, key, piv: dict) -> int:
    """Clear row[key] with the pivot row led there: row <- m*row - f*piv, in place.

    m = p/g and f = a/g for the entries a = row[key], p = piv[key] > 0 and
    g = gcd(a, p), so the ints stay as small as cross-multiplying allows.
    Returns m.
    """
    a, p = row[key], piv[key]
    if p == 1:
        _subtract(row, a, piv)
        return 1
    g = gcd(a, p)
    m = p // g
    if m != 1:
        for k in row:
            row[k] *= m
    _subtract(row, a // g, piv)
    return m


def _primitive(row: dict, lead) -> dict:
    """The int row divided by the gcd of its entries, signed so it is positive at `lead`."""
    g = gcd(*row.values())
    if row[lead] < 0:
        g = -g
    if g == 1:
        return row
    return {k: a // g for k, a in row.items()}


def _reduce(pivots: dict, row: dict):
    """Reduce an int row against primitive int pivot rows.

    `pivots` maps each leading (smallest) key to a primitive int row that
    is positive there.  The row, a {key: int} dict left unchanged, is
    copied and cross-multiplied with pivot rows until its leading key is
    no pivot.  Returns (lead, reduced, s): the leading key left over (None
    when the row reduced to zero), the reduced int row, and the int s > 0
    with reduced = s * row - (an int combination of pivot rows).
    """
    row, s = dict(row), 1
    while row:
        lead = min(row)
        piv = pivots.get(lead)
        if piv is None:
            return lead, row, s
        s *= _eliminate(row, lead, piv)
    return None, row, s


def _insert(pivots: dict, row: dict):
    """Reduce an int row and add what is left to `pivots` as a primitive int row.

    Returns the new leading key, or None when the row lay in the span of
    the pivot rows already.  Leaves the row and the pivot rows alone.
    """
    lead, row, _ = _reduce(pivots, row)
    if lead is not None:
        pivots[lead] = _primitive(row, lead)
    return lead


def _echelon(rows) -> dict:
    """Canonical echelon form of the span of int rows, as primitive int rows.

    Returns {pivot key: row} in increasing key order; every row is
    positive at its own pivot and 0 at every other one, so dividing each
    row by its pivot entry (`_rational`) gives the reduced echelon form.
    """
    pivots: dict = {}
    for row in rows:
        _insert(pivots, row)
    leads = sorted(pivots)
    for lead in reversed(leads):
        row = pivots[lead]
        keys = [k for k in row if k != lead and k in pivots]
        for k in keys:
            _eliminate(row, k, pivots[k])
        if keys:
            pivots[lead] = _primitive(row, lead)
    return {lead: pivots[lead] for lead in leads}


def rank(m: QMatrix) -> int:
    """Rank over Q: the number of pivots the rows reduce to."""
    pivots: dict = {}
    for row in _int_rows(m.entries):
        _insert(pivots, row)
    return len(pivots)


def rref(m: QMatrix) -> tuple[QMatrix, tuple[int, ...]]:
    """Reduced row echelon form and its pivot columns."""
    ech = _echelon(_int_rows(m.entries))
    rows = [_rational(row, lead) for lead, row in ech.items()] + [{}] * (m.rows - len(ech))
    return QMatrix._wrap(rows, m.cols), tuple(ech)


def rref_transform(m: QMatrix) -> tuple[QMatrix, QMatrix, tuple[int, ...]]:
    """As `rref`, also returning an invertible T with T * m = rref(m).

    [rref(m) | T] is the reduced echelon form of [m | I].
    """
    n = m.cols
    ech = _echelon(_int_rows({**row, n + i: 1} for i, row in enumerate(m.entries)))
    rows = [_rational(row, lead) for lead, row in ech.items()]
    return (QMatrix._wrap(({k: a for k, a in row.items() if k < n} for row in rows), n),
            QMatrix._wrap(({k - n: a for k, a in row.items() if k >= n} for row in rows), m.rows),
            tuple(lead for lead in ech if lead < n))


class Subspace:
    """A linear subspace of Q^n with a canonical echelon basis.

    `basis` is a QMatrix whose rows form a basis in reduced row echelon
    form (no zero rows), so equality of subspaces is equality of matrices.
    The subspace keeps, once, the same rows as the engine's primitive int
    pivot rows, keyed by their pivot columns; `basis` is made from them on
    first use when the engine built the subspace.  The constructor refuses
    a basis that is not already that canonical form; `from_rows` spans
    arbitrary rows.
    """

    __slots__ = ("ambient_dim", "_basis", "_rows")

    def __init__(self, ambient_dim: int, basis: QMatrix):
        if basis.cols != ambient_dim:
            raise DimensionMismatchError("basis rows differ in length from the ambient dimension")
        ech = _echelon(_int_rows(basis.entries))
        if basis.entries != tuple(_rational(row, lead) for lead, row in ech.items()):
            raise ValueError("basis is not in reduced row echelon form without zero rows")
        self.ambient_dim = ambient_dim
        self._basis = basis
        self._rows = ech

    @classmethod
    def from_rows(cls, ambient_dim: int, rows) -> "Subspace":
        rows = [vector(r) for r in rows]
        if any(len(r) != ambient_dim for r in rows):
            raise DimensionMismatchError("row length differs from ambient dimension")
        return _span(ambient_dim, _int_rows(map(_sparse, rows)))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return _echelon_space(ambient_dim, {})

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return _echelon_space(ambient_dim, {i: {i: 1} for i in range(ambient_dim)})

    @property
    def basis(self) -> QMatrix:
        if self._basis is None:
            self._basis = QMatrix._wrap((_rational(row, lead) for lead, row in self._rows.items()),
                                        self.ambient_dim)
        return self._basis

    @property
    def dim(self) -> int:
        return len(self._rows)

    def pivots(self) -> tuple[int, ...]:
        return tuple(self._rows)

    def contains(self, v) -> bool:
        """Whether v reduces to zero against the basis rows."""
        v = vector(v)
        if len(v) != self.ambient_dim:
            raise DimensionMismatchError("vector has wrong ambient dimension")
        return _reduce(self._rows, _ints(_sparse(v))[0])[0] is None

    def coordinates(self, v) -> tuple:
        """Coordinates of v in the canonical basis; ContainmentError if v is outside."""
        v = vector(v)
        if not self.contains(v):
            raise ContainmentError("vector not in subspace")
        return tuple(v[p] for p in self._rows)

    def __le__(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatchError("ambient dimensions differ")
        return all(_reduce(other._rows, row)[0] is None for row in self._rows.values())

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self._rows == other._rows

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __add__(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatchError("ambient dimensions differ")
        return _span(self.ambient_dim, chain(self._rows.values(), other._rows.values()))

    def __and__(self, other: "Subspace") -> "Subspace":
        """Intersection, by the Zassenhaus double-block elimination."""
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatchError("ambient dimensions differ")
        n = self.ambient_dim
        block = [{**row, **{n + j: a for j, a in row.items()}} for row in self._rows.values()]
        block += other._rows.values()
        # echelon rows led from the right half are zero on the left half;
        # their right halves are the canonical basis of the intersection
        return _echelon_space(n, {lead - n: {j - n: a for j, a in row.items()}
                                  for lead, row in _echelon(block).items() if lead >= n})

    def __repr__(self):
        return f"<Subspace dim={self.dim} of Q^{self.ambient_dim}>"


def _echelon_space(n: int, ech: dict) -> Subspace:
    """The subspace of Q^n with the canonical int rows `ech` from the engine;
    its Fraction basis is made when it is asked for."""
    space = object.__new__(Subspace)
    space.ambient_dim = n
    space._basis = None
    space._rows = ech
    return space


def _span(n: int, rows) -> Subspace:
    """The subspace of Q^n spanned by sparse int rows."""
    return _echelon_space(n, _echelon(rows))


def kernel(m: QMatrix) -> Subspace:
    """The solution space {v : m v = 0} as a subspace of Q^cols."""
    return _kernel(_int_rows(m.entries), range(m.cols), m.cols)


def _kernel(rows, cols, n: int) -> Subspace:
    """The solutions supported on the keys `cols` of the int rows' system,
    as a subspace of Q^n; every key of the rows must be one of cols.  Its
    canonical rows are the `_solutions` at the free columns of `_eliminated`."""
    ech = _eliminated(rows)
    return _echelon_space(n, _solutions(ech, [f for f in cols if ~f not in ech]))


def _eliminated(rows) -> dict:
    """`_echelon` of the nonzero int rows with each key k made ~k, so each
    row leads at its largest key: a column f is free when no row leads at ~f."""
    return _echelon({~k: a for k, a in row.items()} for row in rows if row)


def _solutions(ech: dict, free) -> dict:
    """{f: z_f} for the free columns f given of `_eliminated`'s echelon ech:
    z_f = d e_f - sum_p (d / row_p[~p]) row_p[~f] e_p as a primitive int row,
    d the lcm of row_p[~p] over the rows with row_p[~f] != 0.  Each row
    leads at its largest key and is 0 at every other pivot, so z_f solves
    the rows, is 0 at every other free column, and is positive at f, its
    smallest key: z_f is the canonical solution row at f."""
    at = {~f: {} for f in free}
    for p, row in ech.items():
        for k, a in row.items():
            if k in at:
                at[k][p] = a
    out = {}
    for f in free:
        col = at[~f]
        d = lcm(*[ech[p][p] for p in col])
        out[f] = _primitive({f: d, **{~p: -a * (d // ech[p][p]) for p, a in col.items()}}, f)
    return out


def image(m: QMatrix) -> Subspace:
    """Column space of m, as a subspace of Q^rows."""
    return _span(m.rows, _int_rows(_transpose(m.entries, m.cols)))


def _classes(small_rows, big: Subspace) -> tuple[dict, list[dict]]:
    """Pivots of the small int rows, then of big's basis rows that add one.

    The i-th kept basis row r is inserted as d * (r, tag 1 at key
    big.ambient_dim + i), where d * r is its int pivot row.  Returns the
    pivots and the kept rows, as Fraction rows of big.basis made for them alone;
    ContainmentError unless span(small rows) <= big.
    """
    n = big.ambient_dim
    pivots: dict = {}
    for row in small_rows:
        _insert(pivots, row)
    chosen = []
    for p, ints in big._rows.items():
        lead = _insert(pivots, {**ints, n + len(chosen): ints[p]})
        if lead < n:            # the new tag survives reduction, so lead is never None
            chosen.append(_rational(ints, p))
        else:                   # only tags were left: the row adds no pivot
            del pivots[lead]
    # the pivots span small + big, which is big exactly when small <= big
    if len(pivots) != big.dim:
        raise ContainmentError("small subspace is not contained in the big one")
    return pivots, chosen


def _complement(small_rows, free) -> tuple[dict, list]:
    """The columns f of `free` whose rows `_classes(small_rows, big)` keeps,
    for a space big that restricts onto Q^free isomorphically, its row z_f
    to a multiple of e_f (as `_solutions` are), with span(small rows) <= big.

    The small rows go in on free alone, f keyed ~f: z_f is kept when no
    pivot leads at ~f (`cohomology.cohomology_of`), and tagged at key i, its
    place among the kept.  The pivots then lead at every ~f, all negative,
    and read a vector of big off its entries on free, keyed ~f, with
    `_tag_coordinates(pivots, 0, ...)`."""
    pivots: dict = {}
    for row in small_rows:
        _insert(pivots, {~k: a for k, a in row.items() if k in free})
    kept = [f for f in free if ~f not in pivots]
    for i, f in enumerate(kept):
        pivots[~f] = {~f: 1, i: 1}
    return pivots, kept


def _tag_coordinates(pivots: dict, n: int, row: dict) -> dict:
    """A rational row's coordinates {i: c} on the kept rows of `_classes`,
    or of `_complement` with n = 0: the rows tagged at key n + i.

    The row is made d * row in ints (`_ints`), and reducing that leaves
    s * d * row - (pivot rows) = t on the tags alone, so the coordinates
    are -t / (s * d).
    """
    row, d = _ints(row)
    lead, row, s = _reduce(pivots, row)
    if lead is not None and lead < n:
        raise ContainmentError("vector is outside the span of the pivot rows")
    return {k - n: Fraction(-a, s * d) for k, a in row.items()}


def quotient_basis(big: Subspace, small: Subspace) -> list[tuple]:
    """Vectors of `big` whose classes form a basis of big/small.

    The vectors are picked greedily from the canonical basis of `big`: a
    row is kept when it adds a pivot to the echelon form of `small` and
    the rows kept before it, so the result is deterministic.  Raises
    ContainmentError unless small <= big.
    """
    if small.ambient_dim != big.ambient_dim:
        raise DimensionMismatchError("ambient dimensions differ")
    _, chosen = _classes(small._rows.values(), big)
    return [_dense(row, big.ambient_dim) for row in chosen]
