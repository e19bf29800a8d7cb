"""Normal forms in the enveloping algebra and augmentation-power layers.

Elements of the enveloping algebra are kept in straightened form: finitely
supported rational combinations of monomials e_1^{a_1} ... e_n^{a_n},
encoded as exponent tuples.

Products are straightened one letter at a time, in integers.  With D and
the int table of `lie._constants`, the rescaled basis f_i = D e_i has
[f_j, f_i] = sum_k (D c_ji^k) f_k, so every constant is an int, and so is
every coefficient of a straightened product of f letters: the rewriting
below only adds and multiplies them.  `_times_letter` gives the normal
form of f^a f_i for a straightened monomial f^a: when i is not below the
last letter j of f^a the product is f^{a + eps_i}; otherwise, writing
f^a = f^{a'} f_j,

    f^a f_i = (f^{a'} f_i) f_j + sum_k D c[j][i][k] f^{a'} f_k,

since f_j f_i = f_i f_j + [f_j, f_i].  Every product on the right has a
left factor of lower degree than f^a, except b f_j for the top-degree
term b = f^{a' + eps_i} of f^{a'} f_i, which ends in a letter <= j and
needs no rewriting; so the recursion terminates.  A memo shared by one
caller (one `pbw_normal_form` or `multiply`, one whole brute-force pass
of `_word_span`) computes each f^a f_i once.

Inside the straightening a monomial f^a in n letters is one int, its
packed key (`_Keys`)

    (enc(a) << b | w(a)) - (|a| << b (n + 1)),  enc(a) = sum_k a_k << b (n - 1 - k),

with w(a) = sum_k a_k nu_k its weight.  Every caller names the letter
weights nu and a ceiling `top`, and products keep only the monomials of
weight <= top; b is the bit length of top.  Each nu_k is >= 1, so every
exponent and the weight fit their b-bit fields, and the keys sort
exactly like the tuples (-|a|, a): by degree, highest first, then
lexicographically by exponents (the weight is a function of a).  That is
the order the elimination engine leads rows by, so `_word_span` hands
memo entries to the engine unmodified as rows; that is safe because the
engine leaves the row and the pivot rows alone (`linalg._insert`).
Multiplying by f_i adds one precomputed step (one more f_i, nu_i more
weight, one degree more), the ceiling test reads the lowest field, and
the last letter of f^a is the field of the lowest set bit of enc(a).

Exact straightening is the case nu = (1, ..., 1), with top the caller's
degree bound: the word length for `pbw_normal_form`, deg u + deg v for
`multiply`, the word cap for non-nilpotent input to the brute-force
pass.  A product of s letters has degree <= s, so that ceiling never
drops a term.  Keys are made from and decoded to exponent tuples only at
the boundary: `_to_f`, `_to_e` and the rows `_ipower_pass` keeps.
This product is the only straightening in the library; the tests
compare it against an independent adjacent-pair rewriting oracle in
`tests/oracles.py`.

Fractions appear only at the boundary.  Since f^a = D^{|a|} e^a, a
coefficient x on f^a is x D^{|a|} on e^a: `pbw_normal_form` and
`multiply` divide their inputs by D^{|a|} and scale their outputs back,
so their results are in the e basis.  The brute-force pass eliminates in
the f coordinates and scales back only the rows it keeps.  The rescaling
is diagonal in the monomial coordinates: it keeps every key and degree,
and it maps a span of monomials to itself.

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

The brute-force span makes one descending pass over word lengths: it
eliminates the words of length cap, cap - 1, ... into one echelon form
and, right after length m, takes the rows led by a monomial of degree
<= r_max as its degree <= r_max part of the m-th power.  A row's leading
key is one of its highest-degree monomials, so those rows lie in degree
<= r_max, and any combination of pivot rows in degree <= r_max uses only
them.  Each snapshot is exact: the pivots then span the words of lengths
m..cap, and inserting shorter words later only adds pivot rows; the
engine never edits a stored one.  So one pass serves every m up to the
largest, which is how `ipower_checks` verifies all layers at once, and
`ipower_bruteforce` is the same pass for a single m.

For nilpotent input the pass runs in U / F_{T+1} with T = cap, where F_w
is the span of the adapted monomials of weight >= w: under the adapted
weights and top = T, `_times_letter` drops f^a f_i whole when
w(a) + nu_i > T and keeps only terms of weight <= T, so `_word_span`
spans the words modulo F_{T+1}.  Most rows of the
exact pass carry only monomials of weight above T, and none of them can
reach degree <= r_max.  Three facts make the truncation exact:

1. In an adapted basis [e_i, e_j] has weight >= nu_i + nu_j
   (`AdaptedBasis`), and straightening only ever trades f_j f_i for
   f_i f_j plus such brackets, so every term of a straightened f^a f_i
   weighs at least w(a) + nu_i.  So F_{T+1} is a right ideal: truncating
   before or after multiplying by a letter gives the same result, and
   the truncated words of length s are the truncated products of those
   of length s - 1.
2. e_i lies in L^{nu_i}, which lies in I^{nu_i}, so F_{T+1} lies in
   I^{T+1}, which lies in I^m for every m <= cap.
3. T >= r_max * max nu, so F_{T+1} meets U_{<= r_max} in 0: a monomial of
   degree <= r_max weighs at most T.

Let W be the span of the words of lengths m..cap and W' its truncation.
By fact 3 truncation fixes every element of W of degree <= r_max, so
W' contains W's degree <= r_max part; by fact 2 W' lies in W + F_{T+1},
inside I^m.  So W' (degree <= r_max) lies between W (degree <= r_max) and
I^m (degree <= r_max), which the exhaustion argument above makes equal:
every snapshot is the exact pass's, and so is every printed result.
Non-nilpotent input runs the same pass with all weights 1 and T = cap,
which drops nothing: it is the exact pass.

That the layer lattice points are generated by single letters is a
theorem, proved in `monoid_generator_check`'s docstring, so that check
computes nothing beyond the nilpotency guard and `rees` does not call it.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, islice, product
from typing import NamedTuple

from .errors import DimensionMismatchError, NotNilpotentError, ZeroElementError
from .lie import LieAlgebra, _constants, adapted_basis, is_nilpotent, reorder_basis
from .linalg import Subspace, _frac, _insert, _ints, _span

__all__ = [
    "UEAElement",
    "ReesLayerTable",
    "monomials",
    "pbw_normal_form",
    "multiply",
    "straightening_order",
    "ipower_bruteforce",
    "ipower_predicted",
    "ipower_checks",
    "rees_layer_table",
    "monoid_generator_check",
    "is_rees_noetherian",
]


class UEAElement:
    """A straightened element: {exponent tuple: coefficient}, no zeros stored.

    Each key has n non-negative int entries (ValueError otherwise), and each
    coefficient is coerced like a matrix entry before zeros are dropped."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms):
        self.n = n
        self.terms = {}
        for a, c in dict(terms).items():
            a, c = tuple(a), _frac(c)
            if len(a) != n or any(type(e) is not int or e < 0 for e in a):
                raise ValueError("exponent tuple must have n non-negative int entries")
            if c:
                self.terms[a] = c

    @classmethod
    def zero(cls, n: int) -> "UEAElement":
        return cls(n, {})

    @classmethod
    def monomial(cls, n: int, exps, coeff=1) -> "UEAElement":
        return cls(n, {tuple(exps): coeff})

    @classmethod
    def generator(cls, n: int, i: int) -> "UEAElement":
        """The letter f_i; ValueError unless 0 <= i < n."""
        if not 0 <= i < n:
            raise ValueError(f"generators are indices 0..{n - 1}, got {i}")
        return cls.monomial(n, tuple(1 if j == i else 0 for j in range(n)))

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Largest total exponent over the support; undefined for zero."""
        if not self.terms:
            raise ZeroElementError("the zero element has no degree")
        return max(sum(a) for a in self.terms)

    def __add__(self, other: "UEAElement") -> "UEAElement":
        if other.n != self.n:
            raise DimensionMismatchError(f"adding elements over {self.n} and {other.n} generators")
        out = dict(self.terms)
        for a, c in other.terms.items():
            out[a] = out.get(a, Fraction(0)) + c
        return UEAElement(self.n, out)

    def __sub__(self, other: "UEAElement") -> "UEAElement":
        return self + -other

    def __neg__(self) -> "UEAElement":
        return UEAElement(self.n, {a: -c for a, c in self.terms.items()})

    def scale(self, c) -> "UEAElement":
        c = _frac(c)
        return UEAElement(self.n, {a: c * v for a, v in self.terms.items()})

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


def _weighted_sum(terms) -> dict:
    """Sum of c * p over (p, c) pairs of a product and an int coefficient, zeros dropped."""
    acc: dict = {}
    for p, c in terms:
        for b, x in p.items():
            # most letter products are one monomial with coefficient 1
            x = c if x == 1 else c * x
            v = acc.get(b)
            acc[b] = x if v is None else v + x
    return {b: x for b, x in acc.items() if x}


class _Keys(NamedTuple):
    """Packed int keys of the monomials f^a in n letters of weight at most
    `top` under the letter weights nu (module docstring): one b-bit field
    per letter, letter 0 in the highest, the weight in one more b-bit field
    below them, and the degree subtracted above them all."""

    n: int
    bits: int
    mask: int           # (1 << b) - 1: one field; key & mask is the weight
    top: int
    nu: tuple
    step: tuple         # step[i] = key(a + eps_i) - key(a)
    last: tuple         # last[p]: the letter whose field holds bit p - 1 of enc(a)

    def key(self, a) -> int:
        enc = 0
        for e in (*a, sum(e * v for e, v in zip(a, self.nu))):
            enc = enc << self.bits | e
        return enc - (sum(a) << self.bits * (self.n + 1))

    def degree(self, key: int) -> int:
        return -(key >> self.bits * (self.n + 1))

    def exps(self, key: int) -> tuple[int, ...]:
        b, mask = self.bits, self.mask
        return tuple(key >> b * k & mask for k in range(self.n, 0, -1))


def _keys(n: int, top: int, nu) -> _Keys:
    """The packed keys for n letters of weights nu (each >= 1) and
    monomials of weight at most `top`, with fields of at least one bit."""
    b = max(top, 1).bit_length()
    step = tuple((1 << b * (n - i)) + v - (1 << b * (n + 1)) for i, v in enumerate(nu))
    last = (-1,) + tuple(n - 1 - p // b for p in range(b * n))
    return _Keys(n, b, (1 << b) - 1, top, tuple(nu), step, last)


def _times_letter(table: tuple, keys: _Keys, key: int, i: int, memo: dict) -> dict:
    """Normal form of f^a f_i modulo the monomials of weight above
    `keys.top`, as {packed key: int}, for the monomial f^a of packed key
    `key` (`keys`, module docstring), keyed like the rows of `_reduce_into`.

    `table` is the int table of `lie._constants` (the basis f = D e), and the
    recursion is the module docstring's.  Every term of f^a f_i weighs at
    least w(a) + nu_i when nu are the weights of an adapted basis, so the
    product is dropped whole above the ceiling; under all weights 1 the
    caller's ceiling bounds the degree and is never crossed.  `memo` maps
    key * n + i to finished products for this one table and `keys`.
    `_word_span` hands them to the engine unmodified, which is safe: the
    engine leaves the row and the pivot rows alone.
    """
    n, b, mask, top, nu, step, last = keys
    slot = key * n + i
    out = memo.get(slot)
    if out is not None:
        return out
    if (key & mask) + nu[i] > top:
        out = {}
    else:
        # key >> b has the lowest set bit of enc(a), in the field of the last
        # letter j; the monomial 1 has none, and last[0] = -1
        enc = key >> b
        j = last[(enc & -enc).bit_length()]
        if i >= j:
            out = {key + step[i]: 1}
        else:
            rest = key - step[j]         # f^a = f^rest f_j
            terms = [(_times_letter(table, keys, c, j, memo), x)
                     for c, x in _times_letter(table, keys, rest, i, memo).items()]
            terms += [(_times_letter(table, keys, rest, k, memo), gamma)
                      for k, gamma in table[j][i]]
            out = _weighted_sum(terms)
    memo[slot] = out
    return out


def _times_word(table: tuple, keys: _Keys, terms: dict, word, memo: dict) -> dict:
    """Normal form of (straightened keyed int terms) times the letters of `word`, one at a time."""
    for i in word:
        terms = _weighted_sum((_times_letter(table, keys, k, i, memo), c) for k, c in terms.items())
    return terms


def _to_f(terms: dict, D: int, keys: _Keys) -> tuple[dict, int]:
    """(d * terms, d) in the f basis: int coefficients of the f^a = D^|a| e^a,
    under the packed keys of `keys`."""
    return _ints({keys.key(a): c / D ** sum(a) for a, c in terms.items()})


def _to_e(terms: dict, D: int, d: int, keys: _Keys) -> dict:
    """Int coefficients of the f^a under the packed keys of `keys`, divided by
    d, as Fraction coefficients of the e^a keyed by exponent tuples."""
    return {keys.exps(k): Fraction(x * D ** keys.degree(k), d) for k, x in terms.items()}


def pbw_normal_form(L: LieAlgebra, word) -> UEAElement:
    """Straighten a product of basis letters (given by index) in L's order."""
    word = tuple(word)
    if any(not 0 <= i < L.dim for i in word):
        raise ValueError(f"letters must be basis indices 0..{L.dim - 1}")
    D, table = _constants(L)
    keys = _keys(L.dim, len(word), (1,) * L.dim)
    # e_{w_1} ... e_{w_s} = f_{w_1} ... f_{w_s} / D^s; the monomial 1 has key 0
    out = _times_word(table, keys, {0: 1}, word, {})
    return UEAElement(L.dim, _to_e(out, D, D ** len(word), keys))


def multiply(L: LieAlgebra, u: UEAElement, v: UEAElement) -> UEAElement:
    """Straightened product of two straightened elements: u times each
    monomial of v, one letter at a time."""
    if u.n != L.dim or v.n != L.dim:
        raise DimensionMismatchError(f"elements over {u.n} and {v.n} generators; expected {L.dim}")
    D, table = _constants(L)
    # the product has degree at most deg u + deg v
    keys = _keys(L.dim, sum(max(map(sum, w.terms), default=0) for w in (u, v)), (1,) * L.dim)
    fu, du = _to_f(u.terms, D, keys)
    fv, dv = _to_f(v.terms, D, keys)
    memo: dict = {}
    out = _weighted_sum((_times_word(table, keys, fu, _word_of(keys.exps(b)), memo), cb)
                        for b, cb in fv.items())
    return UEAElement(L.dim, _to_e(out, D, du * dv, keys))


def monomials(n: int, max_degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples with total degree <= max_degree.

    Graded order; within a degree the e_1-heavy monomials come first, so
    the degree-one block lines up with the basis order.
    """
    out = []
    for d in range(max_degree + 1):
        for letters in combinations_with_replacement(range(n), d):
            a = [0] * n
            for i in letters:
                a[i] += 1
            out.append(tuple(a))
    return out


def straightening_order(L: LieAlgebra):
    """(order, nu) used for monomial coordinates: adapted order and weights
    for nilpotent algebras, the identity order (and no weights) otherwise."""
    try:
        ab = adapted_basis(L)
    except NotNilpotentError:
        return tuple(range(L.dim)), None
    return ab.order, ab.nu


def _reduce_into(pivots: dict, row: dict) -> None:
    """Sparse elimination of `row` against and into `pivots`.  Rows are keyed
    by packed ints (`_Keys`), which sort like (-degree, exponents), so a row's
    leading (smallest) key is one of its highest-degree monomials."""
    _insert(pivots, row)


# one entry: a brute-force pass asks for its spans once, and the cache is process-global
@lru_cache(maxsize=1)
def _word_span(L: LieAlgebra, cap: int, nu: tuple) -> tuple:
    """(keys, spans): the packed keys `_keys(L.dim, cap, nu)` and, for
    s = 0..cap, engine pivot rows spanning the straightened words of length
    exactly s modulo the monomials of weight above cap, in the f basis of
    the module docstring.

    Entry s of spans is a tuple of rows, each a tuple of (key, int) items
    keyed as in `_reduce_into`.  Each is a primitive int pivot row, so only
    the span of the rows is meaningful.  Length s is built from the rows of
    length s - 1 times each letter, and one letter-product memo serves every
    length.  Under the weights of an adapted basis the module docstring
    shows that the ceiling leaves every snapshot of `_ipower_pass`
    unchanged; under all weights 1 it drops nothing."""
    _, table = _constants(L)
    keys = _keys(L.dim, cap, nu)
    memo: dict = {}
    spans = [(((0, 1),),)]          # the monomial 1 has key 0
    for _ in range(cap):
        pivots: dict = {}
        for prev, i in product(spans[-1], range(L.dim)):
            # a one-term primitive row has coefficient 1, so its product is a memo entry
            row = (_times_letter(table, keys, prev[0][0], i, memo) if len(prev) == 1
                   else _weighted_sum((_times_letter(table, keys, k, i, memo), c) for k, c in prev))
            if row:
                _reduce_into(pivots, row)
        spans.append(tuple(tuple(row.items()) for row in pivots.values()))
    return keys, tuple(spans)


def _word_cap(nu, m_max: int, r_max: int) -> int:
    """Longest words spanned for the powers m <= m_max (module docstring)."""
    return max(m_max, r_max * max(nu, default=1))


def _require_window(m_lo: int, m_hi: int, r_max: int) -> None:
    """Refuse powers m_lo..m_hi that do not start at 1 or more, and r_max < 0."""
    if not 1 <= m_lo <= m_hi:
        raise ValueError("powers of the augmentation ideal start at m = 1")
    if r_max < 0:
        raise ValueError(f"degrees start at r = 0, got r_max = {r_max}")


def _ipower_pass(L: LieAlgebra, order, nu, m_lo: int, m_hi: int,
                 r_max: int) -> list[Subspace]:
    """Degree <= r_max parts of the m-th powers for m = m_lo..m_hi, from one
    descending pass over word lengths (see the module docstring).

    nu are the weights of the letters in `order`: an adapted basis's for
    nilpotent input, all 1 otherwise.  The cap on word lengths is that of
    the largest m, which also exhausts the smaller ones, and the words are
    spanned modulo the monomials of weight above that cap.  Coordinates are
    `monomials(dim, r_max)` in `order`.
    """
    _require_window(m_lo, m_hi, r_max)
    if order != tuple(range(L.dim)):
        L = reorder_basis(L, order)
    cap = _word_cap(nu, m_hi, r_max)
    keys, spans = _word_span(L, cap, nu)
    D = _constants(L)[0]
    monos = monomials(L.dim, r_max)
    index = {keys.key(a): t for t, a in enumerate(monos)}
    pivots: dict = {}
    low = []        # pivot rows led by degree <= r_max, in e-monomial coordinates
    powers = []
    for s in range(cap, m_lo - 1, -1):
        seen = len(pivots)
        for row in spans[s]:
            _reduce_into(pivots, dict(row))
        # a coefficient x on f^a is x * D^|a| on e^a
        low += [{index[k]: c * D ** keys.degree(k) for k, c in row.items()}
                for lead, row in islice(pivots.items(), seen, None)
                if keys.degree(lead) <= r_max]
        if s <= m_hi:
            powers.append(_span(len(monos), low))
    return powers[::-1]


def ipower_bruteforce(L: LieAlgebra, m: int, r_max: int) -> Subspace:
    """Degree <= r_max part of the m-th power of the augmentation ideal,
    spanned from straightened generator words.

    Coordinates are the `monomials(dim, r_max)` enumeration in the
    straightening basis order.  See the module docstring for the word
    length cap and what it does and does not certify, and for why, on
    nilpotent input, dropping the monomials of weight above that cap from
    every product leaves the result unchanged.
    """
    order, nu = straightening_order(L)
    return _ipower_pass(L, order, nu or (1,) * L.dim, m, m, r_max)[0]


def _weight_span(n: int, nu, m: int, r_max: int) -> Subspace:
    monos = monomials(n, r_max)
    return _span(len(monos), ({t: 1} for t, a in enumerate(monos)
                              if sum(e * w for e, w in zip(a, nu)) >= m))


def ipower_predicted(L: LieAlgebra, m: int, r_max: int) -> Subspace:
    """Span of the monomials of weight >= m, truncated to degree <= r_max.

    Nilpotent algebras only: the weight of e^a is sum_i a_i nu_i in the
    adapted order.  Same coordinates as `ipower_bruteforce`.
    """
    _require_window(m, m, r_max)
    return _weight_span(L.dim, adapted_basis(L).nu, m, r_max)


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
    if r_max < 0 or m_max < 0:
        raise ValueError(f"layers start at r = m = 0, got r_max = {r_max}, m_max = {m_max}")
    ab = adapted_basis(L)
    table = [[0] * (m_max + 1) for _ in range(r_max + 1)]
    for a in monomials(L.dim, r_max):
        w = sum(e * v for e, v in zip(a, ab.nu))
        counts = table[sum(a)]
        for m in range(0, min(w, m_max) + 1):
            counts[m] += 1
    return ReesLayerTable(tuple(map(tuple, table)), ab.nu, ab.order)


def ipower_checks(L: LieAlgebra, table: ReesLayerTable) -> tuple[bool, ...]:
    """Whether `ipower_bruteforce(L, m, r) == ipower_predicted(L, m, r)` for
    m = 1..table.m_max and r = table.r_max, from one brute-force pass and the
    adapted order and weights of `table = rees_layer_table(L, r, m_max)`."""
    r_max, nu = table.r_max, table.nu
    brute = _ipower_pass(L, table.order, nu, 1, table.m_max, r_max) if table.m_max else ()
    return tuple(b == _weight_span(L.dim, nu, m, r_max) for m, b in enumerate(brute, 1))


def monoid_generator_check(L: LieAlgebra, r_max: int, m_max: int) -> bool:
    """Whether every layer lattice point (a, m) with 1 <= |a| <= r_max and
    0 <= m <= min(weight(a), m_max) is a sum of single-letter generators
    (e_i, 1, m_i) with 0 <= m_i <= nu_i.

    This always holds, so the answer is True for every nilpotent algebra;
    non-nilpotent ones raise NotNilpotentError.  Proof: list the letters
    of e^a with multiplicity and give each in turn m_i = min(nu_i, what
    is left of m).  Each m_i lies in [0, nu_i], the m_i sum to m because
    m <= weight(a) = sum of the nu_i over the letters, and there is one
    generator per letter, so the generators sum to (a, |a|, m).
    """
    adapted_basis(L)
    return True


def is_rees_noetherian(L: LieAlgebra) -> bool:
    """Whether the graded algebra of augmentation-ideal powers is left
    Noetherian; equivalent to nilpotency of the algebra.  `check` and the
    `rees` command read this verdict off the lower central series they
    already build."""
    return is_nilpotent(L)
