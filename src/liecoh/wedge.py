"""Wedge-monomial bookkeeping shared by exterior powers and cochain spaces.

One global convention, and this module is the only place that places a
wedge or computes its sign:

* the degree-p basis of an exterior power of an n-dimensional space is
  indexed by the p-subsets S of range(n), listed in the lexicographic
  order of their increasing tuples (s_0 < ... < s_{p-1});
* a subset is held as a bitmask, bit s set for s in S, and its place in
  that order is its index in the `combinations` listing of its size
  (`_places` lists every wedge of some sizes so), or `_rank` of it, the
  one routine that places a wedge alone;
* sorting e_k into a wedge S costs (-1)^(number of entries of S below
  k), the parity of the popcount of S & `_below(k)`;
* dual wedges pair by the determinant rule, so the basis cochain labelled
  S takes value 1 on the basis wedge S and 0 on every other basis wedge.

The cochain differential, the action on cochains and the exterior
powers of a module are sums of terms that each swap a few wedge factors.
`_term` appends one nonzero term, by the indices it adds and removes, to a
list; `_operators` sums the terms over every wedge they apply to, in Python
ints D * entry over one common denominator D, and returns the int sums:
the rows `cohomology` eliminates hold no Fraction.  `_matrices`, for
callers that want a `QMatrix`, makes them Fractions over D.  Wedges of
vectors (`wedge_powers`) grow one factor at a time, over the indices
whose vectors are nonzero.

Weight blocks.  Given int weights lam of the indices and mu of an
m-dimensional coefficient block, the coordinate (S, b) weighs mu[b]
minus the sum of lam over S.  `_weight_zero` lists the coordinates of
weight 0, and places each wedge it lists once; `_operators` builds only
their rows, and reads every place it needs from that listing.  Both list
wedges by their weight (`_subsets`): the indices of weight 0 are free,
and the others are chosen depth first (`_sums`), largest weight first,
dropping every branch whose remaining target the unchosen weights cannot
reach.  No list of all 2^n wedges is made, and each listed wedge is
placed by `_rank`.  With no weights every coordinate weighs 0, and the
same code runs over `itertools.combinations` of every index, as for the
whole matrices: that listing is in lexicographic order, so a wedge's
index there is its place, and none is ranked.
"""

from fractions import Fraction
from itertools import combinations
from math import comb

from .errors import ChainMapError
from .linalg import QMatrix

__all__ = ["wedge_powers"]


def _rank(n: int, mask: int) -> int:
    """The position of a subset of range(n) in the lexicographic enumeration
    of the subsets of its size: C(n, p) - 1 - sum_j C(n - 1 - s_j, p - j)
    over its entries s_0 < ... < s_{p-1}."""
    p = mask.bit_count()
    r = comb(n, p) - 1
    j = 0
    while mask:
        r -= comb(n - (mask & -mask).bit_length(), p - j)
        mask &= mask - 1
        j += 1
    return r


def _sums(values, target: int, avoid: int) -> dict[int, list[int]]:
    """The subsets of the indices outside the mask `avoid` with a nonzero
    value whose values sum to target, as masks by size.

    Depth first, largest value first, with the reach (lowest and highest
    sum) of the values not yet decided: a branch stops as soon as its
    remaining target leaves that reach.
    """
    order = sorted((i for i, v in enumerate(values) if v and not avoid >> i & 1),
                   key=lambda i: -abs(values[i]))
    if not order:
        return {0: [0]} if target == 0 else {}
    reach = [(0, 0)] * (len(order) + 1)
    for j in reversed(range(len(order))):
        v, (lo, hi) = values[order[j]], reach[j + 1]
        reach[j] = (lo + min(v, 0), hi + max(v, 0))
    found: dict = {}

    def walk(j, mask, size, rest):
        lo, hi = reach[j]
        if not lo <= rest <= hi:
            return
        if j == len(order):                 # the reach is (0, 0): rest is 0
            found.setdefault(size, []).append(mask)
            return
        i = order[j]
        walk(j + 1, mask | 1 << i, size + 1, rest - values[i])
        walk(j + 1, mask, size, rest)

    walk(0, 0, 0, target)
    return found


def _subsets(values, size: int, target: int, avoid: int, memo: dict):
    """Masks of the size-subsets of range(len(values)) outside `avoid` whose
    values sum to target: each subset of `_sums` joined with every choice of
    the indices of value 0.  memo keeps, by (avoid, target), those indices
    and the subsets of `_sums`; with no nonzero value outside avoid, this is
    `combinations` of the free indices."""
    if (avoid, target) not in memo:
        free = [1 << i for i, v in enumerate(values) if not v and not avoid >> i & 1]
        memo[avoid, target] = (free, _sums(values, target, avoid))
    free, found = memo[avoid, target]
    if found == {0: [0]}:
        return map(sum, combinations(free, size))
    return (mask | rest for a, masks in found.items() if a <= size
            for rest in map(sum, combinations(free, size - a)) for mask in masks)


def _places(n: int, sizes) -> dict:
    """{S: place} for every wedge S of range(n) of the sizes given: its index
    in the `combinations` listing of its size, which is lexicographic."""
    bits = [1 << i for i in range(n)]
    return {S: i for p in sizes for i, S in enumerate(map(sum, combinations(bits, p)))}


def _weight_zero(n: int, m: int, weights) -> tuple[list, dict]:
    """The weight-0 coordinates (S, b) of each degree 0..n + 1, as their
    positions (place of S) * m + b, and the place of every wedge S listed,
    {S: place}.  weights is (lam, mu), or None for every coordinate.

    With weights the coordinates of a degree are dict keys in increasing
    order, and each wedge listed is placed by `_rank`.  With none they are
    a range, and every wedge is listed by `combinations`, whose order is
    the lexicographic one: its index there is its place, and nothing is
    ranked.
    """
    if weights is None:
        return [range(comb(n, p) * m) for p in range(n + 2)], _places(n, range(n + 1))
    lam, mu = weights
    memo: dict = {}
    places = {}
    out = []
    for p in range(n + 2):
        coords = []
        for v in set(mu):
            bs = [b for b, u in enumerate(mu) if u == v]
            for S in _subsets(lam, p, v, 0, memo):
                places[S] = i = _rank(n, S)
                coords += [i * m + b for b in bs]
        out.append(dict.fromkeys(sorted(coords)))
    return out, places


def _below(k: int) -> int:
    """The mask of the indices below k: a wedge R sorts e_k in with sign
    (-1)^popcount(R & _below(k))."""
    return (1 << k) - 1


def _term(terms: list, rows: tuple, cols: tuple, block) -> None:
    """Append a term for `_operators` to terms: it takes each wedge R + cols
    to R + rows, for every wedge R that avoids the indices named, and its
    sign is (-1)^(sum over the named indices i of the entries of R below i).

    block holds the term's (beta, b, v) matrix entries; it is kept with
    the same entries negated, as (row bits, column bits, sign mask, blocks).
    """
    block = tuple(block)
    blocks = block, tuple((beta, b, -v) for beta, b, v in block)
    sign_mask = 0
    for i in (*rows, *cols):
        sign_mask ^= _below(i)
    terms.append((sum(1 << i for i in rows), sum(1 << k for k in cols), sign_mask, blocks))


def _weigh(lam, mask: int) -> int:
    return sum(lam[i] for i in range(mask.bit_length()) if mask >> i & 1)


def _by_target(terms: list, lam, mu) -> dict:
    """The terms of `_term` grouped by (F, c, t), F the mask of the indices a
    term names and c its number of columns: each keeps the entries (beta, b,
    v) whose row (R | row bits, beta) weighs 0 exactly when lam sums to t
    over R, t = mu[beta] - lam(row bits).  ChainMapError when an entry's
    column weighs otherwise than its row."""
    lo = sum(v for v in lam if v < 0)
    hi = sum(v for v in lam if v > 0)
    parts: dict = {}
    for row_bits, col_bits, sign_mask, blocks in terms:
        row_w, col_w = _weigh(lam, row_bits), _weigh(lam, col_bits)
        split: dict = {}
        for k, (beta, b, _) in enumerate(blocks[0]):
            if mu[beta] - row_w != mu[b] - col_w:
                raise ChainMapError("a term joins cochains of different weights "
                                    "under the grading element")
            split.setdefault(mu[beta] - row_w, []).append(k)
        for t, ks in split.items():
            if not lo <= t <= hi:       # no wedge R weighs t: the entries reach no row
                continue
            parts.setdefault((row_bits | col_bits, col_bits.bit_count(), t), []).append(
                (row_bits, col_bits, sign_mask,
                 tuple(tuple(block[k] for k in ks) for block in blocks)))
    return parts


def _operators(terms: list, n: int, m: int, rows: dict, places: dict,
               weights=None) -> list[dict]:
    """The rows of D times the matrices of the list of `_term` terms, one out
    of each degree q in rows, as {row: {column: int}} dicts over rows[q].

    Columns are the q-wedges of range(n) and rows the wedges the terms take
    them to, each times an m-dimensional block, in lexicographic order.  For a
    part (F, c, t) of `_by_target`, its terms (row bits, column bits, sign
    mask, blocks) and every (q - c)-wedge R disjoint from F, each block
    entry (beta, b, v) of blocks[popcount(R & sign mask) % 2] is added at
    row (R | row bits, beta), column (R | column bits, b).  The entries v
    are D times the rational ones, and the rows returned hold their int sums.

    Every wedge is placed by places, from `_weight_zero` of the same
    weights, which places each wedge that an entry's row or column can be.
    With weights (lam, mu), rows[q] must be the weight-0 rows of
    `_weight_zero`, and only the R that place an entry there are visited:
    those whose lam sums to mu[beta] minus lam over the row bits.  An entry
    that joins coordinates of different weights raises ChainMapError.
    Weights None are all 0: rows[q] must be every row, and every R is
    visited.
    """
    lam, mu = weights or ((0,) * n, (0,) * m)
    parts = _by_target(terms, lam, mu)
    memo: dict = {}
    mats = []
    for q, keys in rows.items():
        out = {r: {} for r in keys}
        for (forbid, c, t), part in parts.items():
            if c > q:
                continue
            for R in _subsets(lam, q - c, t, forbid, memo):
                for row_bits, col_bits, sign_mask, blocks in part:
                    rbase = places[R | row_bits] * m
                    cbase = places[R | col_bits] * m
                    for beta, b, v in blocks[(R & sign_mask).bit_count() & 1]:
                        row = out[rbase + beta]
                        key = cbase + b
                        row[key] = row.get(key, 0) + v
        mats.append({r: {k: a for k, a in row.items() if a} for r, row in out.items()})
    return mats


def _matrices(terms: list, n: int, m: int, D: int, q: int, shift: int) -> QMatrix:
    """The whole matrix of `_operators` out of degree q, into degree q + shift,
    as a `QMatrix`: each distinct int sum becomes one Fraction over D here."""
    rows = _operators(terms, n, m, {q: range(comb(n, q + shift) * m)},
                      _places(n, {q, q + shift}))[0]
    value = {a: Fraction(a, D) for row in rows.values() for a in row.values()}
    return QMatrix._wrap(({k: value[a] for k, a in row.items()} for row in rows.values()),
                         comb(n, q) * m)


def wedge_powers(columns, m: int) -> list[dict]:
    """Exterior powers of the linear map with images columns[t] of e_t.

    columns[t] is a {coordinate: Fraction} dict in a space of dimension
    m.  Returns, for p = 0..m (the powers above m vanish), the rows of the
    degree-p power that can be nonzero, as {position of T: row}: T runs
    over the p-subsets of the indices t with columns[t] nonzero, in
    lexicographic order, and its position is its place among all p-subsets
    of range(len(columns)).
    Every other row of the power is zero.  Row T holds the coordinates
    {position of S: coefficient} of columns[t_0] ^ ... ^ columns[t_{p-1}],
    that is the p x p minors at columns T.  Row T is row T - {t} of degree
    p - 1, t the top index of T, wedged on the right with columns[t]:
    e_S ^ e_k sorts with sign (-1)^(number of entries of S above k).
    Each row's T and each of its columns' S is placed by `_rank` as the
    power is written out; nothing is cached.
    """
    n = len(columns)
    live = [1 << t for t, col in enumerate(columns) if col]
    rows = {0: {0: Fraction(1)}}
    powers = [{0: {0: Fraction(1)}}]
    for p in range(1, m + 1):
        nxt = {}
        for T in map(sum, combinations(live, p)):
            t = T.bit_length() - 1
            row = {}
            for S, c in rows[T ^ (1 << t)].items():
                for k, a in columns[t].items():
                    if not S >> k & 1:
                        v = -c * a if (S >> k).bit_count() & 1 else c * a
                        row[S | 1 << k] = row.get(S | 1 << k, 0) + v
            nxt[T] = {S: c for S, c in row.items() if c}
        rows = nxt
        powers.append({_rank(n, T): {_rank(m, S): c for S, c in row.items()}
                       for T, row in rows.items()})
    return powers
