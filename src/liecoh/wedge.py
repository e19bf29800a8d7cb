"""Wedge-monomial bookkeeping shared by exterior powers and cochain spaces.

One global convention, used everywhere:

* the degree-p basis of an exterior power of an n-dimensional space is
  indexed by strictly increasing index tuples S = (s_0 < ... < s_{p-1}),
  listed in lexicographic order;
* signs come from counting the adjacent transpositions needed to sort a
  wedge word into increasing order;
* dual wedges pair by the determinant rule, so the basis cochain labelled
  S takes value 1 on the basis wedge S and 0 on every other basis wedge.

Builders that walk the wedges as bitmasks (bit s set for s in S) read
their lexicographic positions off `mask_positions`; sorting e_k into a
wedge S costs (-1)^(number of entries of S below k), the parity of the
popcount of S & ((1 << k) - 1).
"""

from itertools import combinations

__all__ = ["subsets", "subset_index", "mask_positions", "insert_sign", "replace_sign",
           "wedge_product"]


def subsets(n: int, p: int) -> list[tuple[int, ...]]:
    """All increasing p-tuples from range(n), in lexicographic order."""
    return list(combinations(range(n), p))


def subset_index(n: int, p: int) -> dict[tuple[int, ...], int]:
    """Position of each p-subset in the lexicographic enumeration."""
    return {S: i for i, S in enumerate(subsets(n, p))}


def mask_positions(n: int) -> list[int]:
    """Position of each subset of range(n), as a bitmask, in the lexicographic
    enumeration of the subsets of its size: `subset_index` keyed by masks."""
    pos = [0] * (1 << n)
    bits = [1 << s for s in range(n)]
    for p in range(n + 1):
        for i, mask in enumerate(map(sum, combinations(bits, p))):
            pos[mask] = i
    return pos


def insert_sign(rest: tuple[int, ...], k: int):
    """Sort e_k into the increasing wedge e_rest.

    Returns (sign, sorted tuple) with  e_k ^ e_rest = sign * e_sorted,
    or None when k already occurs in rest (the wedge vanishes).
    """
    if k in rest:
        return None
    below = 0
    for r in rest:
        if r < k:
            below += 1
        else:
            break
    sign = -1 if below % 2 else 1
    return sign, rest[:below] + (k,) + rest[below:]


def replace_sign(subset: tuple[int, ...], pos: int, k: int):
    """Replace the entry at `pos` of an increasing wedge by e_k and re-sort.

    Returns (sign, sorted tuple), or None when the wedge vanishes because
    k collides with another entry.  Used for derivation-style actions,
    where one tensor factor at a time is hit by an operator.  Moving the
    entry at `pos` to the front costs (-1)^pos; replacing it by e_k is
    then an `insert_sign` into the rest.
    """
    hit = insert_sign(subset[:pos] + subset[pos + 1:], k)
    if hit is None:
        return None
    sign, S = hit
    return sign * (-1) ** pos, S


def wedge_product(vectors) -> dict:
    """Expand v_1 ^ ... ^ v_p of coordinate vectors in the wedge basis.

    Returns {S: coefficient} for the nonzero coefficients.  The coefficient
    of e_S is the p x p minor, at rows S, of the matrix with columns v_i.
    """
    acc = {(): 1}
    for v in reversed(vectors):
        nxt = {}
        for rest, c in acc.items():
            for k, a in enumerate(v):
                if not a:
                    continue
                hit = insert_sign(rest, k)
                if hit is not None:
                    sign, S = hit
                    nxt[S] = nxt.get(S, 0) + sign * a * c
        acc = {S: c for S, c in nxt.items() if c}
    return acc
