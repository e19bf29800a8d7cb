"""Independent recomputations used by the tests.

Apart from `unsplit_cohomology`, `exact_ipower_pass`, `classes`,
`tag_coordinates`, `chain_action` and the whole-shape helpers (`whole`,
`rep_columns`, `whole_induced`), nothing here imports the library's
cohomology or elimination code: the differential, the action of an
ambient element on an ideal's cochains and exterior powers of a module
are evaluated verbatim from their defining formulas with a bubble-sort
sign function, wedge positions from listing every subset in
`combinations` order, ranks and reduced echelon forms come from local Gaussian
eliminations over Fractions, determinants from the permutation
expansion, and PBW normal forms from adjacent-pair rewriting on the raw
structure constants.  Agreement with the library is therefore a genuine
two-route check.

`unsplit_cohomology` is the other kind of reference: the elimination
`cohomology_of` ran before it kept to the weight-0 block, on the
library's own engine, so the split can be held to the very same
representatives and coordinates.  `exact_ipower_pass` is of that kind
too: the descending brute-force pass over the exact word spans, as it ran
before it spanned the words modulo the monomials of weight above its word
cap, so the ceiling can be held to the very same snapshots.  So is
`classes`: the second greedy complement `linalg` kept before every caller
went through `_complement`, on keys k with its basis rows tagged past
every coordinate, with its own tag reader `tag_coordinates`, so the
single routine can be held to the very same rows and coordinates.
`chain_action` is no reference at
all: it builds the library's own chain-level action operators, checked to
be a chain map, for the tests that hold them to the formula.  The
library keeps every chain map as sparse rows {row: {column: value}};
`whole` makes the whole-shape `QMatrix` of one, and `whole_induced`
pushes it to cohomology the way the library did before it kept to those
rows, as coordinates(q, whole(f) * R) with R the representatives as
columns.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import comb


def gauss_rank(rows):
    """Row rank of a list of Fraction tuples, by plain elimination."""
    rows = [list(r) for r in rows if any(r)]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [a * inv for a in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def gauss_rref(rows):
    """(nonzero rows of the reduced row echelon form, pivot columns) of a list
    of Fraction rows, by plain Gauss-Jordan elimination over Fractions."""
    rows = [[Fraction(a) for a in r] for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [a * inv for a in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    return [tuple(row) for row in rows[:len(pivots)]], tuple(pivots)


def bubble_sign(seq):
    """(sign, sorted tuple) by counting bubble-sort swaps; None on repeats."""
    seq = list(seq)
    if len(set(seq)) != len(seq):
        return None
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    return sign, tuple(seq)


def _sign_on(S, args):
    """Sign with which the basis wedge S shows up in the wedge of args, or None."""
    hit = bubble_sign(args)
    if hit is None or hit[1] != S:
        return None
    return hit[0]


def ce_matrix(c, rho, m, p):
    """The differential out of degree p straight from its defining formula.

    c is an n x n x n structure-constant table, rho a list of n square
    matrices (as nested lists) giving the coefficient action on an
    m-dimensional space.  The column of the basis cochain (S, b) is
    (delta f)(x_T) in coefficient beta at row (T, beta); returns the rows.
    """
    n = len(c)
    rows_T = list(combinations(range(n), p + 1))
    columns = []
    for S in combinations(range(n), p):
        for b in range(m):
            col = [Fraction(0)] * (len(rows_T) * m)
            for tpos, T in enumerate(rows_T):
                acc = [Fraction(0)] * m
                for i in range(p + 1):
                    sgn = _sign_on(S, T[:i] + T[i + 1:])
                    if sgn is not None:
                        for beta in range(m):
                            acc[beta] += (-1) ** i * sgn * Fraction(rho[T[i]][beta][b])
                for a in range(p + 1):
                    for bpos in range(a + 1, p + 1):
                        rest = T[:a] + T[a + 1:bpos] + T[bpos + 1:]
                        for k in range(n):
                            coeff = Fraction(c[T[a]][T[bpos]][k])
                            if not coeff:
                                continue
                            sgn = _sign_on(S, (k,) + rest)
                            if sgn is not None:
                                acc[b] += (-1) ** (a + bpos) * sgn * coeff
                for beta in range(m):
                    col[tpos * m + beta] = acc[beta]
            columns.append(col)
    return [tuple(col[r] for col in columns) for r in range(len(rows_T) * m)]


def ce_dims(c, rho, m):
    """Cohomology dimensions straight from the defining formula (`ce_matrix`)."""
    n = len(c)
    dims = []
    prev_rank = 0
    for q in range(n + 1):
        cdim = comb(n, q) * m
        rank_q = gauss_rank(ce_matrix(c, rho, m, q)) if q < n else 0
        dims.append(cdim - rank_q - prev_rank)
        prev_rank = rank_q
    return tuple(dims)


def dense_bracket(c, u, v):
    """[u, v] of coordinate vectors, summed over every index triple of the
    structure-constant table c."""
    n = len(c)
    out = [Fraction(0)] * n
    for i in range(n):
        for j in range(n):
            if u[i] and v[j]:
                for k in range(n):
                    out[k] += Fraction(u[i]) * Fraction(v[j]) * Fraction(c[i][j][k])
    return tuple(out)


def gauss_coordinates(basis, v):
    """The coefficients of v in the independent rows `basis`, or None when v
    is outside their span, by eliminating [basis^T | v]."""
    rows, pivots = gauss_rref([[u[j] for u in basis] + [v[j]] for j in range(len(v))])
    if len(basis) in pivots:
        return None
    coords = [Fraction(0)] * len(basis)
    for row, p in zip(rows, pivots):
        coords[p] = row[-1]
    return coords


def action_matrix(c, basis, rho, x, p):
    """An ambient element x on degree-p cochains of an ideal, by evaluating

        (x . f)(u_T) = x . f(u_T) - sum_i f(u_T0 ^ ... ^ [x, u_Ti] ^ ...)

    on basis wedges u_T of the ideal.  c is the ambient structure-constant
    table, basis the ideal's basis vectors u, rho the ambient action
    matrices on an m-dimensional space and x a coordinate vector.  The
    column of (S, b) holds (x . f)(u_T) in coefficient beta at row
    (T, beta); returns the rows.
    """
    n = len(c)
    s = len(basis)
    m = len(rho[0]) if rho else 0
    act = [[sum((Fraction(x[a]) * Fraction(rho[a][beta][b]) for a in range(n)), Fraction(0))
            for b in range(m)] for beta in range(m)]
    hit = []
    for u in basis:
        w = [sum((Fraction(x[a]) * Fraction(u[b]) * Fraction(c[a][b][k])
                  for a in range(n) for b in range(n)), Fraction(0)) for k in range(n)]
        coords = gauss_coordinates(basis, w)
        if coords is None:
            raise ValueError("the basis does not span an ideal")
        hit.append(coords)
    sets = list(combinations(range(s), p))
    columns = []
    for S in sets:
        for b in range(m):
            col = []
            for T in sets:
                acc = [act[beta][b] if T == S else Fraction(0) for beta in range(m)]
                for i in range(p):
                    for k, g in enumerate(hit[T[i]]):
                        sgn = _sign_on(S, T[:i] + (k,) + T[i + 1:]) if g else None
                        if sgn is not None:
                            acc[b] -= sgn * g
                col += acc
            columns.append(col)
    return [tuple(col[r] for col in columns) for r in range(len(sets) * m)]


def exterior_power_matrix(mat, p):
    """An operator x on degree-p wedges of basis vectors, by evaluating the
    derivation

        x . (v_1 ^ ... ^ v_p) = sum_i v_1 ^ ... ^ x . v_i ^ ... ^ v_p

    with x . e_s = sum_k mat[k][s] e_k.  The column of e_S holds x . e_S;
    returns the rows.
    """
    m = len(mat)
    sets = list(combinations(range(m), p))
    where = {T: r for r, T in enumerate(sets)}
    rows = [[Fraction(0)] * len(sets) for _ in sets]
    for col, S in enumerate(sets):
        for i in range(p):
            for k in range(m):
                a = Fraction(mat[k][S[i]])
                hit = bubble_sign(S[:i] + (k,) + S[i + 1:]) if a else None
                if hit is not None:
                    rows[where[hit[1]]][col] += hit[0] * a
    return [tuple(row) for row in rows]


def mask_positions(n, sizes):
    """Position of each subset of range(n) with a size in `sizes`, as a
    bitmask, in the lexicographic enumeration of the subsets of its size,
    by listing every such subset in `combinations` order.  Other masks
    read 0."""
    pos = [0] * (1 << n)
    bits = [1 << s for s in range(n)]
    for p in sizes:
        for i, mask in enumerate(map(sum, combinations(bits, p))):
            pos[mask] = i
    return pos


def det_permutation(mat):
    """Determinant by the permutation expansion, parity via inversions."""
    n = len(mat)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        term = Fraction(1) if inversions % 2 == 0 else Fraction(-1)
        for i in range(n):
            term *= Fraction(mat[i][perm[i]])
            if not term:
                break
        total += term
    return total


def generalized_kernel_nonzero(mats, dim):
    """Whether the joint generalized kernel of square matrices (lists of rows)
    on Q^dim is nonzero, by Fitting powers: the kernel of A^dim is the
    generalized kernel of A, and the joint one is the kernel of the stacked
    rows of every A^dim, here by plain elimination."""
    rows = []
    for mat in mats:
        power = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
        for _ in range(dim):
            power = [[sum((Fraction(row[k]) * mat[k][j] for k in range(dim)), Fraction(0))
                      for j in range(dim)] for row in power]
        rows += power
    return gauss_rank(rows) < dim


def relabel(c, labels, rng):
    """Structure constants and labels in the basis f_a = s_a e_perm(a), for a
    random permutation and random nonzero scales."""
    n = len(labels)
    perm = list(range(n))
    rng.shuffle(perm)
    scale = [Fraction(rng.choice((1, -1, 2, -3)), rng.choice((1, 2, 5))) for _ in range(n)]
    where = {old: new for new, old in enumerate(perm)}
    out = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for k, g in enumerate(c[perm[a]][perm[b]]):
                if g:
                    out[a][b][where[k]] = scale[a] * scale[b] * g / scale[where[k]]
    return out, [labels[p] for p in perm]


def straighten(c, word, last=False):
    """PBW normal form of a product of basis letters, by adjacent-pair rewriting.

    Repeatedly replaces the first (or, with last=True, the last) out-of-order
    pair e_i e_j, i > j, by e_j e_i + sum_k c[i][j][k] e_k; each step lowers
    (word length, inversion count) lexicographically, so the loop ends.
    Returns {exponent tuple: Fraction} without zero coefficients.
    """
    n = len(c)
    work = {tuple(word): Fraction(1)}
    out = {}
    while work:
        w, coeff = work.popitem()
        if not coeff:
            continue
        spots = [p for p in range(len(w) - 1) if w[p] > w[p + 1]]
        if not spots:
            exps = tuple(w.count(i) for i in range(n))
            out[exps] = out.get(exps, Fraction(0)) + coeff
            continue
        p = spots[-1] if last else spots[0]
        i, j = w[p], w[p + 1]
        rewrites = [(w[:p] + (j, i) + w[p + 2:], Fraction(1))]
        rewrites += [(w[:p] + (k,) + w[p + 2:], Fraction(g)) for k, g in enumerate(c[i][j]) if g]
        for v, f in rewrites:
            work[v] = work.get(v, Fraction(0)) + coeff * f
    return {a: x for a, x in out.items() if x}


def classes(small_rows, big):
    """Pivots of the small int rows, then of big's basis rows that add one:
    the greedy complement `linalg` picked before `_complement` served
    every caller, read with `tag_coordinates`.

    The i-th kept basis row r is inserted as d * (r, tag 1 at key
    big.ambient_dim + i), where d * r is its int pivot row.  Returns the
    pivots and the kept rows, as Fraction rows of big.basis;
    ContainmentError unless span(small rows) <= big.
    """
    from liecoh.errors import ContainmentError
    from liecoh.linalg import _insert, _rational

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


def tag_coordinates(pivots, n, row):
    """A rational row's coordinates {i: c} on the rows `classes` keeps, the
    rows tagged at key n + i; ContainmentError off their span."""
    from liecoh.errors import ContainmentError
    from liecoh.linalg import _ints, _reduce

    row, d = _ints(row)
    lead, row, s = _reduce(pivots, row)
    if lead is not None and lead < n:
        raise ContainmentError("vector is outside the span of the pivot rows")
    return {k - n: Fraction(-a, s * d) for k, a in row.items()}


def unsplit_cohomology(cx):
    """(representatives, coordinates) of a built complex, eliminating every
    coordinate: the canonical basis of the whole kernel of delta_q, then
    `classes` fed every column of delta_{q-1}.

    representatives[q] are dense vectors; coordinates(q, v) gives the
    class of a cocycle v in their basis as a tuple of Fractions, and
    raises ContainmentError off the cocycles.
    """
    from liecoh.linalg import _dense, _ints, _transpose, kernel

    reps_all, pivots_all = [], []
    for q in range(cx.top_degree + 1):
        prev = cx.delta(q - 1)
        columns = (_ints(col)[0] for col in _transpose(prev.entries, prev.cols))
        pivots, reps = classes(columns, kernel(cx.delta(q)))
        reps_all.append(tuple(_dense(row, prev.rows) for row in reps))
        pivots_all.append(pivots)

    def coordinates(q, v):
        n = cx.space_dim(q)
        c = tag_coordinates(pivots_all[q], n, {k: Fraction(a) for k, a in enumerate(v) if a})
        return tuple(c.get(i, Fraction(0)) for i in range(len(reps_all[q])))

    return tuple(reps_all), coordinates


def exact_ipower_pass(L, order, nu, m_lo, m_hi, r_max):
    """(snapshots, rows): the degree <= r_max parts of the m-th powers for
    m = m_lo..m_hi, from one descending pass over the exact spans of the
    words of lengths cap, cap - 1, ..., m_lo (`pbw._word_span` under all
    weights 1, whose ceiling cap no word crosses), and the number of rows
    those spans keep."""
    from itertools import islice

    from liecoh.lie import _constants, reorder_basis
    from liecoh.linalg import _insert, _span
    from liecoh.pbw import _word_cap, _word_span, monomials

    L = reorder_basis(L, order)
    cap = _word_cap(nu, m_hi, r_max)
    keys, spans = _word_span(L, cap, (1,) * L.dim)
    D = _constants(L)[0]
    monos = monomials(L.dim, r_max)
    index = {a: t for t, a in enumerate(monos)}
    pivots, low, powers = {}, [], []
    for s in range(cap, m_lo - 1, -1):
        seen = len(pivots)
        for row in spans[s]:
            _insert(pivots, dict(row))
        low += [{index[keys.exps(k)]: c * D ** keys.degree(k) for k, c in row.items()}
                for lead, row in islice(pivots.items(), seen, None)
                if keys.degree(lead) <= r_max]
        if s <= m_hi:
            powers.append(_span(len(monos), low))
    return powers[::-1], sum(map(len, spans))


def chain_action(L, ideal, M, x):
    """The library's operators of x in L on C^p(ideal, M), p = 0..dim(ideal),
    checked by `_chain_map` to commute with the differential (ChainMapError
    otherwise): the operators `action_on_cohomology` pushes to cohomology,
    which come as int rows of D times them, here divided by that D."""
    from liecoh.cohomology import _action_operator, _chain_map, ce_complex
    from liecoh.rep import restrict

    res = restrict(M, ideal)
    cx = ce_complex(res.algebra, res)
    ops, D = _action_operator(cx, L, ideal, M, x)
    return tuple({r: {c: Fraction(a, D) for c, a in row.items()} for r, row in op.items()}
                 for op in _chain_map(cx, cx, ops))


def whole(rows, n_rows, n_cols):
    """The n_rows x n_cols `QMatrix` of a map given as sparse rows {row:
    {column: value}}, a row not given being zero; every key must fit the
    shape."""
    from liecoh.linalg import QMatrix

    assert all(0 <= r < n_rows and all(0 <= c < n_cols for c in row) for r, row in rows.items())
    return QMatrix([[rows.get(r, {}).get(c, 0) for c in range(n_cols)] for r in range(n_rows)])


def rep_columns(result, q):
    """The representatives of H^q in a `CohomologyResult`, as the columns of a `QMatrix`."""
    from liecoh.linalg import QMatrix

    return QMatrix.from_columns(result.representatives[q], rows=result.complex.space_dim(q))


def whole_induced(target, q, f, source):
    """The map on H^q of the chain map f: C^q(source) -> C^q(target), given
    as sparse rows, by the whole-shape route: target.coordinates(q, whole(f)
    * R), R the representatives of source as columns."""
    f = whole(f, target.complex.space_dim(q), source.complex.space_dim(q))
    return target.coordinates(q, f * rep_columns(source, q))
