"""Normal forms in the enveloping algebra and augmentation-power layers.

Elements of the enveloping algebra are kept in straightened form: finitely
supported rational combinations of monomials e_1^{a_1} ... e_n^{a_n},
encoded as exponent tuples.  Straightening repeatedly rewrites an adjacent
out-of-order pair e_i e_j (i after j in the basis order) as
e_j e_i + [e_i, e_j]; each step lowers (word length, inversion count)
lexicographically, so it terminates, and the test suite checks confluence
by comparing different rewrite strategies.

Powers of the augmentation ideal are handled two ways, deliberately kept
independent of each other:

* `ipower_bruteforce` spans straightened words in the generators.  Words
  of length >= m lie in the m-th power, and for a nilpotent algebra every
  basis monomial of weight >= m expands into bracket words of length equal
  to its weight, so capping the word length at max(m, r_max * max weight)
  provably exhausts the degree <= r_max part.  For non-nilpotent algebras
  no finite cap can certify completeness; the cap max(m, r_max) still
  gives a subspace of the true power, which is what the degree-truncated
  tests need.
* `ipower_predicted` simply spans the monomials whose weight
  sum_i a_i nu_i reaches m, where nu comes from a basis adapted to the
  bracket filtration (nilpotent algebras only).

Both return subspaces over the same graded monomial coordinates, so
agreement is literal equality.  For nilpotent input all coordinates refer
to the adapted basis order; otherwise to the algebra's own order.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ZeroElementError
from .lie import LieAlgebra, adapted_basis, is_nilpotent, reorder_basis
from .linalg import Subspace, _insert

__all__ = [
    "UEAElement",
    "ReesLayerTable",
    "monomials",
    "pbw_normal_form",
    "multiply",
    "degree",
    "straightening_order",
    "ipower_bruteforce",
    "ipower_predicted",
    "rees_layer_table",
    "monoid_generator_check",
    "is_rees_noetherian",
]


class UEAElement:
    """A straightened element: {exponent tuple: coefficient}, no zeros stored."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms):
        self.n = n
        self.terms = {tuple(a): Fraction(c) for a, c in dict(terms).items() if c}

    @classmethod
    def zero(cls, n: int) -> "UEAElement":
        return cls(n, {})

    @classmethod
    def monomial(cls, n: int, exps, coeff=1) -> "UEAElement":
        exps = tuple(exps)
        if len(exps) != n or any(a < 0 for a in exps):
            raise ValueError("exponent tuple must have n non-negative entries")
        return cls(n, {exps: Fraction(coeff)})

    @classmethod
    def generator(cls, n: int, i: int) -> "UEAElement":
        return cls.monomial(n, tuple(1 if j == i else 0 for j in range(n)))

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Largest total exponent over the support; undefined for zero."""
        if not self.terms:
            raise ZeroElementError("the zero element has no degree")
        return max(sum(a) for a in self.terms)

    def __add__(self, other: "UEAElement") -> "UEAElement":
        out = dict(self.terms)
        for a, c in other.terms.items():
            out[a] = out.get(a, Fraction(0)) + c
        return UEAElement(self.n, out)

    def __sub__(self, other: "UEAElement") -> "UEAElement":
        out = dict(self.terms)
        for a, c in other.terms.items():
            out[a] = out.get(a, Fraction(0)) - c
        return UEAElement(self.n, out)

    def __neg__(self) -> "UEAElement":
        return UEAElement(self.n, {a: -c for a, c in self.terms.items()})

    def scale(self, c) -> "UEAElement":
        return UEAElement(self.n, {a: Fraction(c) * v for a, v in self.terms.items()})

    __rmul__ = scale

    def __eq__(self, other):
        if not isinstance(other, UEAElement):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def format(self, labels) -> str:
        if not self.terms:
            return "0"
        bits = []
        for a in sorted(self.terms, key=lambda t: (sum(t), tuple(-x for x in t))):
            c = self.terms[a]
            mono = "*".join(f"{labels[i]}^{e}" if e > 1 else labels[i]
                            for i, e in enumerate(a) if e) or "1"
            bits.append(f"({c})*{mono}")
        return " + ".join(bits)

    def __repr__(self):
        return f"UEAElement({self.n}, {self.terms!r})"


def _word_of(exps) -> tuple[int, ...]:
    out = []
    for i, e in enumerate(exps):
        out.extend([i] * e)
    return tuple(out)


def _exps_of(n: int, word) -> tuple[int, ...]:
    out = [0] * n
    for i in word:
        out[i] += 1
    return tuple(out)


def _find_inversion(word, last: bool):
    rng = range(len(word) - 2, -1, -1) if last else range(len(word) - 1)
    for i in rng:
        if word[i] > word[i + 1]:
            return i
    return None


def _straighten(L: LieAlgebra, word, coeff, strategy: str, acc: dict):
    """Accumulate the normal form of coeff * (product of basis letters)."""
    last = strategy == "last"
    if strategy not in ("first", "last"):
        raise ValueError("strategy must be 'first' or 'last'")
    work = {tuple(word): Fraction(coeff)}
    while work:
        w, c = work.popitem()
        if not c:
            continue
        pos = _find_inversion(w, last)
        if pos is None:
            key = _exps_of(L.dim, w)
            acc[key] = acc.get(key, Fraction(0)) + c
            continue
        i, j = w[pos], w[pos + 1]
        swapped = w[:pos] + (j, i) + w[pos + 2:]
        work[swapped] = work.get(swapped, Fraction(0)) + c
        for k, gamma in enumerate(L.c[i][j]):
            if gamma:
                shorter = w[:pos] + (k,) + w[pos + 2:]
                work[shorter] = work.get(shorter, Fraction(0)) + c * gamma


def pbw_normal_form(L: LieAlgebra, word, strategy: str = "first") -> UEAElement:
    """Straighten a product of basis letters (given by index) in L's order."""
    acc: dict = {}
    _straighten(L, tuple(word), 1, strategy, acc)
    return UEAElement(L.dim, acc)


def multiply(L: LieAlgebra, u: UEAElement, v: UEAElement,
             strategy: str = "first") -> UEAElement:
    """Straightened product of two straightened elements."""
    acc: dict = {}
    for a, ca in u.terms.items():
        wa = _word_of(a)
        for b, cb in v.terms.items():
            _straighten(L, wa + _word_of(b), ca * cb, strategy, acc)
    return UEAElement(L.dim, acc)


def degree(x: UEAElement) -> int:
    return x.degree()


def monomials(n: int, max_degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples with total degree <= max_degree.

    Graded order; within a degree the e_1-heavy monomials come first, so
    the degree-one block lines up with the basis order.
    """
    def block(k: int, d: int):
        if k == 0:
            if d == 0:
                yield ()
            return
        if k == 1:
            yield (d,)
            return
        for a in range(d, -1, -1):
            for rest in block(k - 1, d - a):
                yield (a,) + rest

    out = []
    for d in range(max_degree + 1):
        out.extend(block(n, d))
    return out


def straightening_order(L: LieAlgebra):
    """(order, nu) used for monomial coordinates: adapted order and weights
    for nilpotent algebras, the identity order (and no weights) otherwise."""
    if is_nilpotent(L):
        ab = adapted_basis(L)
        return ab.order, ab.nu
    return tuple(range(L.dim)), None


def _ordered_algebra(L: LieAlgebra):
    order, nu = straightening_order(L)
    if order == tuple(range(L.dim)):
        return L, nu
    return reorder_basis(L, order), nu


def _reduce_into(pivots: dict, row: dict) -> None:
    """Sparse elimination of `row` against and into `pivots`.

    Rows are keyed by (-degree, exponents), so the engine's smallest
    leading key is a monomial of the highest degree in the row.
    """
    _insert(pivots, row)


@lru_cache(maxsize=None)
def _word_span(L: LieAlgebra, s: int) -> tuple:
    """Reduced rows spanning the straightened words of length exactly s,
    as (key, coefficient) pairs keyed as in `_reduce_into`."""
    if s == 0:
        return ((((0, (0,) * L.dim), Fraction(1)),),)
    pivots: dict = {}
    for prev in _word_span(L, s - 1):
        u = UEAElement(L.dim, {a: c for (_, a), c in prev})
        for i in range(L.dim):
            prod = multiply(L, u, UEAElement.generator(L.dim, i))
            _reduce_into(pivots, {(-sum(a), a): c for a, c in prod.terms.items()})
    return tuple(tuple(row.items()) for row in pivots.values())


def ipower_bruteforce(L: LieAlgebra, m: int, r_max: int) -> Subspace:
    """Degree <= r_max part of the m-th power of the augmentation ideal,
    spanned from straightened generator words.

    Coordinates are the `monomials(dim, r_max)` enumeration in the
    straightening basis order.  See the module docstring for the word
    length cap and what it does and does not certify.
    """
    if m < 1:
        raise ValueError("powers of the augmentation ideal start at m = 1")
    L2, nu = _ordered_algebra(L)
    cap = max(m, r_max * max(nu)) if nu else max(m, r_max)
    pivots: dict = {}
    for s in range(m, cap + 1):
        for row in _word_span(L2, s):
            _reduce_into(pivots, dict(row))
    monos = monomials(L.dim, r_max)
    index = {a: t for t, a in enumerate(monos)}
    rows = []
    # a row led by degree <= r_max lies wholly in degree <= r_max, and those
    # rows span the whole degree <= r_max part of the echelon form's span
    for (neg_degree, _), row in pivots.items():
        if -neg_degree <= r_max:
            dense = [Fraction(0)] * len(monos)
            for (_, a), c in row.items():
                dense[index[a]] = c
            rows.append(dense)
    return Subspace.from_rows(len(monos), rows)


def ipower_predicted(L: LieAlgebra, m: int, r_max: int) -> Subspace:
    """Span of the monomials of weight >= m, truncated to degree <= r_max.

    Nilpotent algebras only: the weight of e^a is sum_i a_i nu_i in the
    adapted order.  Same coordinates as `ipower_bruteforce`.
    """
    _, nu = _ordered_algebra(L)
    if nu is None:
        # is_nilpotent was false; adapted_basis would have raised, do the same
        adapted_basis(L)
    monos = monomials(L.dim, r_max)
    rows = []
    for t, a in enumerate(monos):
        if sum(e * w for e, w in zip(a, nu)) >= m:
            row = [Fraction(0)] * len(monos)
            row[t] = Fraction(1)
            rows.append(tuple(row))
    return Subspace.from_rows(len(monos), rows)


@dataclass(frozen=True)
class ReesLayerTable:
    """dims[r][m] = number of monomials with |a| = r and weight >= m."""

    dims: tuple[tuple[int, ...], ...]
    nu: tuple[int, ...]
    order: tuple[int, ...]

    def dim(self, r: int, m: int) -> int:
        return self.dims[r][m]

    @property
    def r_max(self) -> int:
        return len(self.dims) - 1

    @property
    def m_max(self) -> int:
        return len(self.dims[0]) - 1


def rees_layer_table(L: LieAlgebra, r_max: int, m_max: int) -> ReesLayerTable:
    """Layer dimensions of the graded algebra attached to the ideal powers.

    The r = 1 row reproduces the dimensions of the bracket filtration of
    the algebra itself, which the tests assert.
    """
    order, nu = straightening_order(L)
    if nu is None:
        adapted_basis(L)  # raises NotNilpotentError
    table = []
    for r in range(r_max + 1):
        counts = [0] * (m_max + 1)
        for a in monomials(L.dim, r):
            if sum(a) != r:
                continue
            w = sum(e * v for e, v in zip(a, nu))
            for m in range(0, min(w, m_max) + 1):
                counts[m] += 1
        table.append(tuple(counts))
    return ReesLayerTable(tuple(table), nu, order)


def monoid_generator_check(L: LieAlgebra, r_max: int, m_max: int) -> bool:
    """Exhaustively decompose every layer lattice point into the
    single-letter generators (e_i, 1, m) with 0 <= m <= nu_i.

    Greedy assignment of the weight budget to the letters suffices; each
    decomposition is re-summed and compared before being accepted.
    """
    order, nu = straightening_order(L)
    if nu is None:
        adapted_basis(L)
    for a in monomials(L.dim, r_max):
        r = sum(a)
        if r == 0:
            continue
        w = sum(e * v for e, v in zip(a, nu))
        for m in range(0, min(w, m_max) + 1):
            remaining = m
            gens = []
            for i, e in enumerate(a):
                for _ in range(e):
                    take = min(nu[i], remaining)
                    gens.append((i, take))
                    remaining -= take
            if remaining != 0:
                return False
            # re-sum the decomposition
            total = [0] * L.dim
            msum = 0
            for i, mi in gens:
                if not 0 <= mi <= nu[i]:
                    return False
                total[i] += 1
                msum += mi
            if tuple(total) != a or msum != m or len(gens) != r:
                return False
    return True


def is_rees_noetherian(L: LieAlgebra) -> bool:
    """Whether the graded algebra of augmentation-ideal powers is left
    Noetherian; equivalent to nilpotency of the algebra."""
    return is_nilpotent(L)
