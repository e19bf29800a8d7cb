"""Exact linear algebra over the rationals.

Everything in this module is exact: entries are `fractions.Fraction`
(always in lowest terms, positive denominator) and no rounding ever
happens.  Matrices and subspaces are immutable after construction, so all
operations are pure and safe to share between threads.

Conventions
-----------
* Vectors are plain tuples of Fractions; a `QMatrix` is dense.
* A `Subspace` stores its basis as the rows of a matrix in reduced row
  echelon form with no zero rows.  This makes the basis canonical: two
  subspaces are equal iff their basis matrices are equal.
* Every elimination (rank, echelon forms, kernels, images, solving,
  intersections, quotient bases) runs through one sparse engine.  Rows
  are {key: Fraction} dicts, reduced into a dict that maps each leading
  (smallest) key to a row that is 1 there; one back-substitution pass
  then gives the canonical reduced echelon form.  Keys need only be
  comparable, so `pbw` runs the same engine on monomial rows.  The test
  suite checks the engine against the independent elimination in
  `tests/oracles.py`.
"""

from fractions import Fraction

from .errors import ContainmentError, DimensionMismatchError

__all__ = [
    "QMatrix",
    "Subspace",
    "rank",
    "rref",
    "rref_transform",
    "solve",
    "kernel",
    "image",
    "quotient_basis",
    "vector",
    "unit_vector",
    "zero_vector",
]


def _frac(x) -> Fraction:
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError("floats are not allowed; pass ints, Fractions or strings")
    return Fraction(x)


def vector(entries) -> tuple:
    """Coerce an iterable of ints/Fractions/strings into a rational vector.

    Floats are rejected outright: silently converting them would smuggle
    binary rounding into an exact computation.
    """
    return tuple(_frac(x) for x in entries)


def zero_vector(n: int) -> tuple:
    return (Fraction(0),) * n


def unit_vector(n: int, i: int) -> tuple:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


class QMatrix:
    """Immutable dense matrix of Fractions, row major.

    Zero-by-k and k-by-zero shapes are allowed; they show up naturally as
    differentials at the ends of a complex.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, cols=None):
        data = tuple(vector(row) for row in data)
        self.rows = len(data)
        if data:
            self.cols = len(data[0])
            if any(len(row) != self.cols for row in data):
                raise DimensionMismatchError("rows of unequal length")
        else:
            if cols is None:
                cols = 0
            self.cols = cols
        self.data = data

    @classmethod
    def zero(cls, rows: int, cols: int) -> "QMatrix":
        return cls(tuple(zero_vector(cols) for _ in range(rows)), cols=cols)

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls(tuple(unit_vector(n, i) for i in range(n)), cols=n)

    @classmethod
    def from_columns(cls, columns, rows=None) -> "QMatrix":
        columns = [vector(c) for c in columns]
        if columns:
            rows = len(columns[0])
        elif rows is None:
            rows = 0
        return cls(tuple(tuple(c[i] for c in columns) for i in range(rows)),
                   cols=len(columns))

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def row(self, i: int) -> tuple:
        return self.data[i]

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.data)

    def __eq__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.data) == (other.rows, other.cols, other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __add__(self, other):
        self._require_same_shape(other)
        return QMatrix(tuple(tuple(a + b for a, b in zip(r, s))
                             for r, s in zip(self.data, other.data)), cols=self.cols)

    def __sub__(self, other):
        self._require_same_shape(other)
        return QMatrix(tuple(tuple(a - b for a, b in zip(r, s))
                             for r, s in zip(self.data, other.data)), cols=self.cols)

    def __neg__(self):
        return QMatrix(tuple(tuple(-a for a in r) for r in self.data), cols=self.cols)

    def scale(self, c) -> "QMatrix":
        c = _frac(c)
        return QMatrix(tuple(tuple(c * a for a in r) for r in self.data), cols=self.cols)

    def __mul__(self, other):
        if isinstance(other, QMatrix):
            if self.cols != other.rows:
                raise DimensionMismatchError(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
            out = []
            for r in self.data:
                acc = [Fraction(0)] * other.cols
                for k, a in enumerate(r):
                    if a:
                        orow = other.data[k]
                        for j, b in enumerate(orow):
                            if b:
                                acc[j] += a * b
                row = tuple(acc)
                out.append(row)
            return QMatrix(tuple(out), cols=other.cols)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, n: int) -> "QMatrix":
        if self.rows != self.cols:
            raise DimensionMismatchError("matrix power needs a square matrix")
        result = QMatrix.identity(self.rows)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def apply(self, v) -> tuple:
        """Matrix times column vector."""
        v = vector(v)
        if len(v) != self.cols:
            raise DimensionMismatchError(f"vector of length {len(v)} for {self.rows}x{self.cols}")
        out = []
        for r in self.data:
            s = Fraction(0)
            for a, x in zip(r, v):
                if a and x:
                    s += a * x
            out.append(s)
        return tuple(out)

    def transpose(self) -> "QMatrix":
        return QMatrix(tuple(self.column(j) for j in range(self.cols)), cols=self.rows)

    def is_zero(self) -> bool:
        return all(not a for row in self.data for a in row)

    def __repr__(self):
        if self.rows * self.cols > 36:
            return f"<QMatrix {self.rows}x{self.cols}>"
        body = "; ".join(" ".join(str(a) for a in row) for row in self.data)
        return f"QMatrix[{body}]"

    def _require_same_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError(
                f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}")


def _sparse(vec) -> dict:
    return {j: a for j, a in enumerate(vec) if a}


def _dense(row: dict, lo: int, hi: int) -> tuple:
    """Entries of a sparse row with keys in [lo, hi), as a vector of length hi - lo."""
    out = [Fraction(0)] * (hi - lo)
    for k, a in row.items():
        if lo <= k < hi:
            out[k - lo] = a
    return tuple(out)


def _subtract(row: dict, f, piv: dict) -> None:
    """row -= f * piv, in place, keeping no zero entries."""
    for k, a in piv.items():
        v = row.get(k, 0) - f * a
        if v:
            row[k] = v
        else:
            del row[k]


def _reduce(pivots: dict, row: dict):
    """Subtract pivot rows from `row` (in place) until its leading key is no pivot.

    `pivots` maps each leading (smallest) key to a row that is 1 there.
    Returns the leading key left over, or None when the row reduced to zero.
    """
    while row:
        lead = min(row)
        piv = pivots.get(lead)
        if piv is None:
            return lead
        _subtract(row, row[lead], piv)
    return None


def _insert(pivots: dict, row: dict):
    """Reduce `row` and add what is left to `pivots`, scaled to 1 at its lead.

    Returns the new leading key, or None when the row lay in the span of
    the pivot rows already.  Consumes `row`.
    """
    lead = _reduce(pivots, row)
    if lead is not None:
        inv = Fraction(1) / row[lead]
        pivots[lead] = {k: a * inv for k, a in row.items()}
    return lead


def _echelon(rows) -> dict:
    """Canonical reduced echelon form of the span of sparse rows.

    Returns {pivot key: row} in increasing key order; every row is 1 at
    its own pivot and 0 at every other one.
    """
    pivots: dict = {}
    for row in rows:
        _insert(pivots, row)
    leads = sorted(pivots)
    for lead in reversed(leads):
        row = pivots[lead]
        for k in [k for k in row if k != lead and k in pivots]:
            _subtract(row, row[k], pivots[k])
    return {lead: pivots[lead] for lead in leads}


def rank(m: QMatrix) -> int:
    """Rank over Q: the number of pivots the rows reduce to."""
    pivots: dict = {}
    for row in m.data:
        _insert(pivots, _sparse(row))
    return len(pivots)


def rref(m: QMatrix) -> tuple[QMatrix, tuple[int, ...]]:
    """Reduced row echelon form and its pivot columns."""
    ech = _echelon(_sparse(row) for row in m.data)
    rows = [_dense(row, 0, m.cols) for row in ech.values()]
    rows += [zero_vector(m.cols)] * (m.rows - len(rows))
    return QMatrix(rows, cols=m.cols), tuple(ech)


def rref_transform(m: QMatrix) -> tuple[QMatrix, QMatrix, tuple[int, ...]]:
    """As `rref`, also returning an invertible T with T * m = rref(m).

    [rref(m) | T] is the reduced echelon form of [m | I].
    """
    n = m.cols
    ech = _echelon({**_sparse(row), n + i: Fraction(1)} for i, row in enumerate(m.data))
    return (QMatrix([_dense(row, 0, n) for row in ech.values()], cols=n),
            QMatrix([_dense(row, n, n + m.rows) for row in ech.values()], cols=m.rows),
            tuple(lead for lead in ech if lead < n))


def solve(m: QMatrix, b) -> tuple | None:
    """One exact solution x of m x = b, or None if inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    b = vector(b)
    if len(b) != m.rows:
        raise DimensionMismatchError("right-hand side has wrong length")
    if not m.rows:
        return zero_vector(m.cols)
    ech = _echelon(_sparse(row + (bb,)) for row, bb in zip(m.data, b))
    if m.cols in ech:
        return None
    x = [Fraction(0)] * m.cols
    for p, row in ech.items():
        x[p] = row.get(m.cols, Fraction(0))
    return tuple(x)


def _span(n: int, rows) -> "Subspace":
    """The subspace of Q^n spanned by sparse rows."""
    return Subspace(n, QMatrix([_dense(row, 0, n) for row in _echelon(rows).values()],
                               cols=n))


class Subspace:
    """A linear subspace of Q^n with a canonical echelon basis.

    `basis` is a QMatrix whose rows form a basis in reduced row echelon
    form (no zero rows), so equality of subspaces is equality of matrices.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: QMatrix):
        self.ambient_dim = ambient_dim
        self.basis = basis

    @classmethod
    def from_rows(cls, ambient_dim: int, rows) -> "Subspace":
        rows = [vector(r) for r in rows]
        if any(len(r) != ambient_dim for r in rows):
            raise DimensionMismatchError("row length differs from ambient dimension")
        return _span(ambient_dim, (_sparse(r) for r in rows))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, QMatrix((), cols=ambient_dim))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, QMatrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def pivots(self) -> tuple[int, ...]:
        piv = []
        for row in self.basis.data:
            for j, a in enumerate(row):
                if a:
                    piv.append(j)
                    break
        return tuple(piv)

    def reduce(self, v) -> tuple:
        """Remainder of v after subtracting its projection onto the basis rows."""
        v = list(vector(v))
        if len(v) != self.ambient_dim:
            raise DimensionMismatchError("vector has wrong ambient dimension")
        for row, p in zip(self.basis.data, self.pivots()):
            f = v[p]
            if f:
                for j, a in enumerate(row):
                    if a:
                        v[j] -= f * a
        return tuple(v)

    def contains(self, v) -> bool:
        return not any(self.reduce(v))

    def coordinates(self, v) -> tuple:
        """Coordinates of v in the canonical basis; ContainmentError if v is outside."""
        v = vector(v)
        if not self.contains(v):
            raise ContainmentError("vector not in subspace")
        return tuple(v[p] for p in self.pivots())

    def __le__(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatchError("ambient dimensions differ")
        return all(other.contains(row) for row in self.basis.data)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __add__(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatchError("ambient dimensions differ")
        return Subspace.from_rows(self.ambient_dim,
                                  self.basis.data + other.basis.data)

    def __and__(self, other: "Subspace") -> "Subspace":
        """Intersection, by the Zassenhaus double-block elimination."""
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatchError("ambient dimensions differ")
        n = self.ambient_dim
        block = [_sparse(row + row) for row in self.basis.data]
        block += [_sparse(row) for row in other.basis.data]
        # echelon rows led from the right half are zero on the left half;
        # their right halves are the canonical basis of the intersection
        basis = [_dense(row, n, 2 * n) for lead, row in _echelon(block).items() if lead >= n]
        return Subspace(n, QMatrix(basis, cols=n))

    def __repr__(self):
        return f"<Subspace dim={self.dim} of Q^{self.ambient_dim}>"


def kernel(m: QMatrix) -> Subspace:
    """The solution space {v : m v = 0} as a subspace of Q^cols."""
    ech = _echelon(_sparse(row) for row in m.data)
    # one solution per free column f: 1 at f, minus column f of the echelon rows
    basis = {f: {f: Fraction(1)} for f in range(m.cols) if f not in ech}
    for p, row in ech.items():
        for f, a in row.items():
            if f != p:
                basis[f][p] = -a
    return _span(m.cols, basis.values())


def image(m: QMatrix) -> Subspace:
    """Column space of m, as a subspace of Q^rows."""
    return _span(m.rows, (_sparse(col) for col in zip(*m.data)))


def quotient_basis(big: Subspace, small: Subspace) -> list[tuple]:
    """Vectors of `big` whose classes form a basis of big/small.

    The vectors are picked greedily from the canonical basis of `big`: a
    row is kept when it adds a pivot to the echelon form of `small` and
    the rows kept before it, so the result is deterministic.  Raises
    ContainmentError unless small <= big.
    """
    if small.ambient_dim != big.ambient_dim:
        raise DimensionMismatchError("ambient dimensions differ")
    pivots: dict = {}
    for row in small.basis.data:
        _insert(pivots, _sparse(row))
    chosen = [row for row in big.basis.data if _insert(pivots, _sparse(row)) is not None]
    # the pivots span small + big, which is big exactly when small <= big
    if len(pivots) != big.dim:
        raise ContainmentError("small subspace is not contained in the big one")
    return chosen
