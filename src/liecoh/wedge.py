"""Wedge-monomial bookkeeping shared by exterior powers and cochain spaces.

One global convention, and this module is the only place that places a
wedge or computes its sign:

* the degree-p basis of an exterior power of an n-dimensional space is
  indexed by the p-subsets S of range(n), listed in the lexicographic
  order of their increasing tuples (s_0 < ... < s_{p-1});
* a subset is held as a bitmask, bit s set for s in S, and
  `mask_positions` gives its place in that order;
* sorting e_k into a wedge S costs (-1)^(number of entries of S below
  k), the parity of the popcount of S & `_below(k)`;
* dual wedges pair by the determinant rule, so the basis cochain labelled
  S takes value 1 on the basis wedge S and 0 on every other basis wedge.

The cochain differential, the action on cochains and the exterior
powers of a module are sums of terms that each swap a few wedge factors.
`_term` files one nonzero term by the indices it adds and removes;
`_operators` sums the terms over every wedge they apply to, in Python
ints D * entry over one common denominator D, and turns each distinct
sum into a Fraction once.  Wedges of vectors (`wedge_powers`) grow one
factor at a time, and `_subset_sums` lists a sum over each wedge's
indices in basis order, as the weights of a grading need.
"""

from fractions import Fraction
from itertools import combinations
from math import comb

from .linalg import QMatrix

__all__ = ["mask_positions", "wedge_powers"]


def mask_positions(n: int, sizes) -> list[int]:
    """Position of each subset of range(n) with a size in `sizes`, as a
    bitmask, in the lexicographic enumeration of the subsets of its size.
    Other masks read 0."""
    pos = [0] * (1 << n)
    bits = [1 << s for s in range(n)]
    for p in sizes:
        for i, mask in enumerate(map(sum, combinations(bits, p))):
            pos[mask] = i
    return pos


def _subset_sums(values, p: int):
    """The sum of values[s] over each p-subset S of range(len(values)), in
    the order of the degree-p wedge basis."""
    return map(sum, combinations(values, p))


def _below(k: int) -> int:
    """The mask of the indices below k: a wedge R sorts e_k in with sign
    (-1)^popcount(R & _below(k))."""
    return (1 << k) - 1


def _scaled(a, D: int) -> int:
    """D * a as an int, for a rational a whose denominator divides D."""
    return a.numerator * (D // a.denominator)


def _signed(block) -> tuple[tuple, tuple]:
    """A block of (beta, b, v) matrix entries, and the same negated."""
    block = tuple(block)
    return block, tuple((beta, b, -v) for beta, b, v in block)


def _term(groups: dict, rows: tuple, cols: tuple, blocks) -> None:
    """File a term for `_operators`: it takes each wedge R + cols to R + rows,
    for every wedge R that avoids the indices named, and its sign is
    (-1)^(sum over the named indices i of the entries of R below i).

    blocks are (block, negated block) from `_signed`.  Terms are grouped
    by the mask of the indices they name and the number of columns.
    """
    row_bits = sum(1 << i for i in rows)
    col_bits = sum(1 << k for k in cols)
    sign_mask = 0
    for i in (*rows, *cols):
        sign_mask ^= _below(i)
    groups.setdefault((row_bits | col_bits, len(cols)), []).append(
        (row_bits, col_bits, sign_mask, blocks))


def _operators(groups: dict, n: int, m: int, D: int, degrees, shift: int) -> list:
    """The matrices of the terms filed by `_term`, one out of each degree q in degrees.

    Columns are the q-wedges of range(n) and rows the (q + shift)-wedges,
    each times an m-dimensional block, in lexicographic order.  For a
    group (F, c) of terms (row bits, column bits, sign mask, blocks) and
    every (q - c)-wedge R disjoint from F, each block entry (beta, b, v)
    of blocks[popcount(R & sign mask) % 2] is added at row
    (R | row bits, beta), column (R | column bits, b).  The sums are ints;
    each distinct nonzero sum then becomes one Fraction over D.
    """
    bits = [1 << s for s in range(n)]
    pos = mask_positions(n, {size for q in degrees for size in (q, q + shift)})
    mats = []
    for q in degrees:
        out = [{} for _ in range(comb(n, q + shift) * m)]
        for (forbid, c), terms in groups.items():
            if c > q:
                continue
            for R in map(sum, combinations([b for b in bits if not b & forbid], q - c)):
                for row_bits, col_bits, sign_mask, blocks in terms:
                    rbase = pos[R | row_bits] * m
                    cbase = pos[R | col_bits] * m
                    for beta, b, v in blocks[(R & sign_mask).bit_count() & 1]:
                        row = out[rbase + beta]
                        key = cbase + b
                        row[key] = row.get(key, 0) + v
        value = {a: Fraction(a, D) for a in {a for row in out for a in row.values()}}
        mats.append(QMatrix._wrap([{k: value[a] for k, a in row.items() if a} for row in out],
                                  comb(n, q) * m))
    return mats


def wedge_powers(columns, m: int, top: int) -> list[list[dict]]:
    """Exterior powers of the linear map with images columns[t] of e_t.

    columns[t] is a {coordinate: Fraction} dict in a space of dimension
    m.  Returns, for p = 0..top, the rows of the degree-p power: row T,
    T running over the p-subsets of range(len(columns)) in lexicographic
    order, holds the coordinates {position of S: coefficient} of
    columns[t_0] ^ ... ^ columns[t_{p-1}], that is the p x p minors at
    columns T.  Row T is row T - {t} of degree p - 1, t the top index of
    T, wedged on the right with columns[t]: e_S ^ e_k sorts with sign
    (-1)^(number of entries of S above k).
    """
    pos = mask_positions(m, range(top + 1))
    bits = [1 << t for t in range(len(columns))]
    rows = {0: {0: Fraction(1)}}
    powers = [[{0: Fraction(1)}]]
    for p in range(1, top + 1):
        nxt = {}
        for T in map(sum, combinations(bits, p)):
            t = T.bit_length() - 1
            row = {}
            for S, c in rows[T ^ (1 << t)].items():
                for k, a in columns[t].items():
                    if not S >> k & 1:
                        v = -c * a if (S >> k).bit_count() & 1 else c * a
                        row[S | 1 << k] = row.get(S | 1 << k, 0) + v
            nxt[T] = {S: c for S, c in row.items() if c}
        rows = nxt
        powers.append([{pos[S]: c for S, c in row.items()} for row in rows.values()])
    return powers
