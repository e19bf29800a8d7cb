"""The standard (Chevalley-Eilenberg) complex and everything built on it.

Cochains, conventions
---------------------
C^p carries the basis (wedge subset S of size p) x (coefficient basis
index b), enumerated subsets-outer: the cochain labelled (S, b) sends the
basis wedge S to coefficient vector b and all other basis wedges to zero.
Dual wedges pair with wedges by the determinant rule, e.g. the pairing of
f1 ^ f2 with v1 ^ v2 is f1(v1) f2(v2) - f1(v2) f2(v1).

The differential of a p-cochain f, evaluated on a (p+1)-wedge, is

    sum_i (-1)^i x_i . f(... x_i omitted ...)
  + sum_{a<b} (-1)^(a+b) f([x_a, x_b] ^ ... x_a, x_b omitted ...)

Cohomology spaces come with representative cocycles (an echelon complement
of the coboundaries), tagged in a pivot dict on the free columns of the
differential with the coboundaries; reducing a cocycle's entries there
leaves minus its coordinates on the tags, so induced maps on cohomology
are honest matrices.

An ambient algebra acts on the complex of an ideal by

    (x . f)(x_1 ^ ... ^ x_p) = x . f(x_1 ^ ... ^ x_p)
                               - sum_i f(x_1 ^ ... ^ [x, x_i] ^ ... ^ x_p)

and the inflation map pulls cochains back along the projection to the
nilpotent quotient.  One routine, `_chain_map`, checks both to be chain
maps where they are built, and one, `_induced`, pushes them to cohomology.

Building the matrices
---------------------
`ce_complex` and the action operators visit only the nonzero terms of
these formulas: each nonzero structure constant, action entry or bracket
coordinate, against each wedge R that avoids the indices it names.
Each term names the indices it adds and removes (`wedge._term`), and
`wedge._operators` sums the terms with wedges as bitmasks, each sign a
popcount parity.  The inflation maps are the wedge powers of the
projection (`wedge.wedge_powers`), each degree built from the one below.
Every map keeps that form: per degree, sparse rows in the lexicographic
wedge basis, {row: {column: value}} at the rows that can be nonzero.
* The structure constants arrive as ints: the algebra is stored as its
  int table (`lie._constants`), into which an algebra file's terms are
  summed as they are read.  Fractions enter as the action matrices, made
  ints once (`_int_action`); both are brought to one D here.
* The terms of each entry add up in Python ints, and the rows stay so:
  the differential's block rows and the action operators are int rows
  of D times the map, D kept beside them, and the engine in `linalg`
  eliminates them as they are.  Inflation, the minors of a rational
  projection, is the one map in Fraction rows.
* Fractions are made at the boundary alone: the representatives, the
  class coordinates (`linalg._tag_coordinates`), each induced matrix
  divided once by its map's D in `_induced`, and the `QMatrix`
  differentials `delta` builds for callers (`wedge._matrices`).

Weight-0 blocks
---------------
Suppose x in L acts diagonally in both given bases: [x, e_i] = lam_i e_i
and x . m_b = mu_b m_b.  Then x acts on the cochain (R, b) by the scalar
mu_b - sum_{i in R} lam_i, its weight.  The action commutes with the
differential, so every delta_q maps each weight block of C^q into the
same weight block of C^{q+1}, and the complex is the direct sum of its
weight blocks.  By Cartan's formula theta_x = d iota_x + iota_x d
(Chevalley-Eilenberg 1948; Hochschild-Serre 1953) the action is
null-homotopic, and so is its restriction to one block (the projection
onto a block commutes with d).  On a block of weight w != 0 that
restriction is w times the identity, so the block is acyclic and all of
H^q lives in the weight-0 block.

`ce_complex`, the one way to make a `CochainComplex` (its body is
`_complex`), builds that block alone: `_grading` picks x, `wedge` lists
the weight-0 wedges of each degree by their weights, and only the rows
at them are summed, each term visiting only the wedges R that put its
row at weight 0.  A term whose column weighs otherwise than its row
raises ChainMapError, which no honest module does.  `cohomology_of`
eliminates the block, and nothing it returns depends on which such x
was used:
* the canonical basis of a kernel that is a direct sum over disjoint
  coordinate blocks is the union of the blocks' canonical bases, so the
  weight-0 rows of Z^q's basis are the canonical rows z_f of the kernel
  of delta_q on the weight-0 columns, one at each free column f there;
* the greedy complement keeps a row of Z^q when it is not in the span
  of B^q and the rows kept before it.  That span is a direct sum over
  the blocks, so the test sees the row's own block only.  Blocks of
  nonzero weight have Z = B and keep nothing.
So the representatives, their order and their tags are the ones the
unsplit elimination would give; the test needs only the free column f
of each row, so z_f is solved for the kept f alone, and no basis of Z^q
is made.  delta_q maps the block into the block, so a weight-0 cochain
is a cocycle exactly when delta_q's block rows take it to 0.  A
cocycle's components of nonzero weight are cocycles there, hence
coboundaries, so its class is that of its weight-0 component
(`CohomologyResult.coordinates`).  Inflation
lands in the weight-0 block (`inflation_map`).  An ambient x acting on
the complex of a graded ideal may move weights; `_action_operator`
builds P_0 theta_x iota_0, a chain map as the projection P_0 commutes
with d, and for a weight-0 cocycle z, P_{!=0} theta_x z is a cocycle of
acyclic blocks, hence a coboundary: both induce one action on H^*.
`_chain_map` refuses entries off the blocks and compares block rows
(`linalg._product`); `_induced` pushes representatives through them, testing
nothing again: no whole differential is built, no map padded, no block copied.

`_grading` picks x from the linear conditions "ad x and rho(x) have no
off-diagonal entries" (see its docstring).  When no solution has a
nonzero weight (nilpotent L, abelian quotients, bases that are not
weight bases), every coordinate has weight 0: the block is the whole
complex, built by the same code over every wedge.

The L^inf side of the page, by an ambient x
-------------------------------------------
For solvable L, L^inf lies in [L, L] and is nilpotent, so its own
grading is often none at all (the whole complex of strict_ut(n) for
ut(n)).  `_page` grades its complex by x from `_grading(L, k)` instead:
* L^inf is x-stable, so it is the direct sum of its intersections with
  the weight spaces, and each row of its canonical basis lies in one of
  them: lam of a row is L's weight at the row's pivot (`_action`).  The
  coefficient weights mu are M's, 0 for the trivial module.
* Every lift of N = L/L^inf is a basis vector e_j (`lie.quotient`), so
  its weight lam_j is an eigenvalue of ad xbar on N.  That map is
  diagonalizable, and nilpotent as N is, so it is 0: every lift weighs
  0, commutes with x, and its theta keeps each weight block; xbar is
  central in N.  Likewise every basis vector of nonzero weight lies in
  L^inf, so a grading of L has a nonzero weight on L^inf too.
* So x acts on H^q(L^inf) by its weights, each weight space is an
  N-submodule, and xbar acts on H^q(L^inf)_w by w.  Cartan's formula on
  N (xbar central) makes theta_xbar = w * 1 null-homotopic on
  C^*(N, H^q(L^inf)_w), which is acyclic for w != 0.  Hence
  E2^{p,q} = H^p(N, H^q(L^inf)_0), and the N-invariants of condition 3,
  killed by xbar, lie in H^q(L^inf)_0 too.
`_page` therefore builds the weight-0 block of C^*(L^inf) alone; for
ut(n) that is the empty wedge, one coordinate, in agreement with Kostant
(Ann. Math. 1961: every weight of H^{>0}(strict_ut(n)) is w.rho - rho,
nonzero).  It is exact for the page and the verdicts, not for
H^*(L^inf), which `action_on_cohomology` gives whole by the same body.
When L has no grading, the ideal's own is used, as there.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd, lcm

from .errors import ChainMapError, ContainmentError, DimensionMismatchError
from .lie import LieAlgebra, Quotient, _bracket, _constants, lower_central_series, quotient
from .linalg import (
    QMatrix,
    Subspace,
    _columns,
    _complement,
    _dense,
    _echelon,
    _eliminated,
    _kernel,
    _product,
    _rational,
    _scaled,
    _solutions,
    _sparse,
    _tag_coordinates,
    _transpose,
    rank,
    vector,
)
from .rep import LieModule, restrict, trivial_module
from .wedge import (
    _matrices,
    _operators,
    _term,
    _weight_zero,
    wedge_powers,
)

__all__ = [
    "CochainComplex",
    "CohomologyResult",
    "ActionOnCohomology",
    "InflationReport",
    "E2Page",
    "ce_complex",
    "cohomology",
    "cohomology_of",
    "action_on_cohomology",
    "inflation_map",
    "inflation_on_cohomology",
    "hs_e2_page",
]


class CochainComplex:
    """The standard complex of (algebra, coeff), held as its weight-0 block.

    Built by `ce_complex` alone, from its `wedge._term` terms over D and
    the weights (lam, mu) of `_grading`, or None, kept as `_terms` =
    (terms, D) and `_weights`.  `_block` is (zero, rows): zero[q] the
    weight-0 coordinates of C^q, q = 0..dim + 1, as a range or dict keys
    in increasing order, and rows[q] the int rows {row: {column: int}} of
    D * delta_q at zero[q + 1], q = 0..dim, the form every chain map takes
    (module docstring).  `_places` holds the place of every wedge listed
    there, which the action operators on the complex read as well.
    `delta(p)`, C^p -> C^{p+1}, is one degree of the whole differential,
    built on first use, for callers; `deltas` is all.
    """

    def __init__(self, L: LieAlgebra, M: LieModule, terms: list, D: int, weights):
        self.algebra, self.coeff = L, M
        n, m = L.dim, M.dim
        zero, self._places = _weight_zero(n, m, weights)
        rows = _operators(terms, n, m, {q: zero[q + 1] for q in range(n)}, self._places, weights)
        self._block = (zero, rows + [{}])
        self._terms = (terms, D)
        self._weights = weights
        self._deltas: dict = {}

    @property
    def deltas(self) -> tuple[QMatrix, ...]:
        """The whole differential, for callers; the pipeline never reads it."""
        return tuple(map(self.delta, range(self.algebra.dim)))

    def space_dim(self, p: int) -> int:
        return comb(self.algebra.dim, p) * self.coeff.dim if p >= 0 else 0

    def delta(self, p: int) -> QMatrix:
        """The differential out of C^p; zero maps beyond the stored range."""
        if not 0 <= p < self.algebra.dim:
            return QMatrix.zero(self.space_dim(p + 1), self.space_dim(p))
        if p not in self._deltas:
            terms, D = self._terms
            self._deltas[p] = _matrices(terms, self.algebra.dim, self.coeff.dim, D, p, 1)
        return self._deltas[p]

    @property
    def top_degree(self) -> int:
        return self.algebra.dim


def ce_complex(L: LieAlgebra, M: LieModule) -> CochainComplex:
    """The standard complex, built as its weight-0 block.

    The terms of the differential are filed with wedges R as bitmasks;
    a(k) below is the number of entries of R less than k.
    - Each nonzero rho(x_t)[beta][b] adds (-1)^a(t) rho(x_t)[beta][b] at
      row (R + t, beta), column (R, b), for every p-wedge R without t.
    - Each nonzero c_ij^k, i < j, adds -(-1)^(a(i) + a(j) + a(k)) c_ij^k
      at row (R + i + j, beta), column (R + k, beta), for every
      coefficient index beta and every (p-1)-wedge R without i, j and k:
      x_i and x_j sit at places a(i) and a(j) + 1 of R + i + j, and
      sorting e_k into R costs (-1)^a(k).
    The terms add up as ints D * entry, D = lcm(E, D_M); each nonzero sum
    becomes a Fraction over D once, when a row is finished.  The nonzero
    constants come from `_constants` as ints E * c_ij^k, and the action
    entries from the module's `_int_action` as ints D_M * rho.  Only the
    rows of weight 0 under `_grading`'s x are built (module docstring).
    """
    return _complex(L, M, _grading(L, M))


def _complex(L: LieAlgebra, M: LieModule, weights) -> CochainComplex:
    """`ce_complex`'s body: the complex built on the weight-0 block of the
    weights (lam, mu) given, all of it when they are None."""
    if M.algebra != L:
        raise DimensionMismatchError("coefficient module is not a module over this algebra")
    n = L.dim
    m = M.dim
    E, table = _constants(L)
    DM, P = M._int_action
    D = lcm(E, DM)
    terms = []
    for t, rows in enumerate(P):
        if any(rows):
            _term(terms, (t,), (), ((beta, b, D // DM * a) for beta, row in enumerate(rows)
                                    for b, a in row.items()))
    for i in range(n):
        for j in range(i + 1, n):
            for k, g in table[i][j]:
                _term(terms, (i, j), (k,), ((b, b, -g * (D // E)) for b in range(m)))
    return CochainComplex(L, M, terms, D, weights)


def _grading(L: LieAlgebra, M: LieModule) -> tuple[list[int], list[int]] | None:
    """Weights (lam, mu) of one x in L that acts diagonally in both given
    bases, [x, e_i] = lam_i e_i and x . m_b = mu_b m_b, times one positive
    int D that makes them ints.

    Such x are the solutions of the linear conditions "every off-diagonal
    entry of ad x and of rho(x) is 0".  Their weights are linear in x;
    let w_1, ..., w_r be the primitive int rows of the canonical echelon
    form of D times the weights of a basis of the solutions, each D times
    the weights of some solution x_j.  The x used is sum_j t_j x_j with t_1 = 1 and
    t_{j+1} = t_j (2 |w_j| + 1), |w_j| the sum of the absolute values of
    w_j.  D times a cochain's weight under x_j lies in [-|w_j|, |w_j|], so
    its weight under x is 0 only when it is 0 under every x_j: x is as
    generic as a solution can be.  Returns None when every weight of every
    solution is 0, at once when no ad e_a and no rho(e_a) has a nonzero
    diagonal entry.  The entries are the ints of `_constants` and `_int_action`.
    """
    n, m = L.dim, M.dim
    E, table = _constants(L)
    DM, P = M._int_action
    D = lcm(E, DM)
    diag = [[(i, g * (D // E)) for i, terms in enumerate(table[a]) for k, g in terms if k == i]
            + [(n + b, row[b] * (D // DM)) for b, row in enumerate(P[a]) if b in row]
            for a in range(n)]
    if not any(diag):
        return None
    # row (k, i) of the conditions: the (k, i) entry of ad x or rho(x), linear in x
    conditions: dict = {}
    for a in range(n):
        for i, terms in enumerate(table[a]):
            for k, g in terms:
                if k != i:
                    conditions.setdefault((k, i), {})[a] = g
        for beta, row in enumerate(P[a]):
            for b, g in row.items():
                if b != beta:
                    conditions.setdefault((n + beta, n + b), {})[a] = g
    solutions = _kernel(conditions.values(), range(n), n)
    weights = []
    for x in solutions._rows.values():      # int rows, a basis of the solutions
        w: dict = {}
        for a, xa in x.items():
            for k, g in diag[a]:
                w[k] = w.get(k, 0) + xa * g
        weights.append({k: v for k, v in w.items() if v})
    total, t = [0] * (n + m), 1
    for w in _echelon(weights).values():
        for k, v in w.items():
            total[k] += t * v
        t *= 2 * sum(map(abs, w.values())) + 1
    return (total[:n], total[n:]) if t > 1 else None


@dataclass(frozen=True)
class CohomologyResult:
    """Per-degree dimensions, representative cocycles, and class coordinates.

    The representatives of H^q are sparse rows on the weight-0 block of C^q,
    kept beside the pivot dict of `linalg._complement` that `_classes_of`
    reads classes off.  No basis of Z^q and no copy of the differential is
    kept: `coordinates` tests cocycles on the complex's own block rows.
    Only API callers get dense vectors.
    """

    complex: CochainComplex
    dims: tuple[int, ...]
    _reps: tuple[tuple[dict, ...], ...] = field(repr=False, compare=False)
    _pivots: tuple[dict, ...] = field(repr=False, compare=False)

    @property
    def representatives(self) -> tuple[tuple[tuple, ...], ...]:
        """Per degree q, vectors in C^q whose classes form a basis of H^q."""
        return tuple(tuple(_dense(row, self.complex.space_dim(q)) for row in reps)
                     for q, reps in enumerate(self._reps))

    def _classes_of(self, q: int, rows) -> QMatrix:
        """Classes of cocycles given as sparse rows on the weight-0 block, as
        matrix columns, read off their entries at the free columns F of delta_q,
        where the pivots lead at ~f.  No cocycle test: `coordinates` makes the one."""
        pivots = self._pivots[q]
        cols = [_tag_coordinates(pivots, {~k: a for k, a in r.items() if ~k in pivots})
                for r in rows]
        return QMatrix._wrap(_transpose(cols, self.dims[q]), len(cols))

    def coordinates(self, q: int, m: QMatrix) -> QMatrix:
        """Classes of m's columns in the chosen H^q basis; ContainmentError off the cocycles.

        The weight-0 part of each column is tested on the complex's block
        rows of delta_q, the rest on the whole differential (built then, if
        the rest is nonzero); a cocycle's rest is a coboundary, and adds
        nothing to the class, which `_classes_of` reads off the weight-0 part.
        """
        cx = self.complex
        if type(q) is not int or not 0 <= q <= cx.top_degree:
            raise DimensionMismatchError(f"degree {q!r} is outside 0..{cx.top_degree}")
        n = cx.space_dim(q)
        if m.rows != n:
            raise DimensionMismatchError(f"{m.rows} rows for cochains of dimension {n}")
        zero = cx._block[0][q]
        block = [row if r in zero else {} for r, row in enumerate(m.entries)]
        rest = [{} if r in zero else row for r, row in enumerate(m.entries)]
        if (any(_product(cx._block[1][q].values(), dict(enumerate(block))))
                or any(rest) and not (cx.delta(q) * QMatrix._wrap(rest, m.cols)).is_zero()):
            raise ContainmentError("vector is not a cocycle")
        return self._classes_of(q, _transpose(block, m.cols))

    def project(self, q: int, z) -> tuple:
        """Coordinates of the class of a cocycle z in the chosen H^q basis."""
        return self.coordinates(q, QMatrix.from_columns([vector(z)])).column(0)

    def euler_characteristic(self) -> int:
        return sum(d if q % 2 == 0 else -d for q, d in enumerate(self.dims))


def cohomology_of(cx: CochainComplex) -> CohomologyResult:
    """Cohomology of an already-built complex, from its weight-0 block.

    Per degree, one elimination of delta_q and one of rank delta_{q-1} rows
    on the block rows and weight-0 coordinates of `cx._block` alone (module
    docstring) give the greedy complement of B^q in Z^q, and only its rows
    are solved for:
    * `linalg._eliminated` leads delta_q's rows at their largest column; the
      free columns F are those no row leads at, and Z^q's canonical row at
      f in F is the z_f of `linalg._solutions`, 0 at every other f;
    * C^{q-1} is Z^{q-1} plus the e_c at delta_{q-1}'s pivot columns c, so
      the rank-many delta_{q-1} e_c span B^q;
    * restricting to F maps Z^q onto Q^F, z_f to a multiple of e_f, so z_f
      is kept, as z_f / z_f[f], when f is the largest column of no vector
      of B^q on F: one elimination there finds them (`linalg._complement`),
      and z_f is solved for those f alone.
    delta_q's columns at its pivot columns, a loop local, are the next
    degree's coboundaries; only pivots and representatives are kept.
    """
    zero, rows = cx._block
    classes, coboundaries = [], ()
    for q in range(cx.top_degree + 1):
        ech = _eliminated(rows[q].values())
        pivots, kept = _complement(coboundaries, dict.fromkeys(f for f in zero[q] if ~f not in ech))
        classes.append((pivots, tuple(_rational(z, f) for f, z in _solutions(ech, kept).items())))
        coboundaries = [col for c, col in _columns(rows[q]).items() if ~c in ech]
    pivots, reps = zip(*classes)
    return CohomologyResult(cx, tuple(map(len, reps)), reps, pivots)


def cohomology(L: LieAlgebra, M: LieModule) -> CohomologyResult:
    """Cohomology of the algebra with the given coefficients."""
    return cohomology_of(ce_complex(L, M))


def _action_operator(cx: CochainComplex, L: LieAlgebra, ideal: Subspace,
                     M: LieModule, x) -> tuple[tuple[dict, ...], int]:
    """P_0 theta_x iota_0: the ambient element x on C^p(ideal, M), p =
    0..dim(ideal), between the weight-0 coordinates of cx (module docstring),
    as (rows, D): int rows of D times the operator, checked by `_chain_map`
    to commute with cx's differential, and D.

    Built like `ce_complex`'s differential, from the nonzero terms in
    ints over one common denominator D, with u the ideal's basis:
    - each nonzero x_a times e_a's int rows in M's `_int_action`, on every block (R, R);
    - each nonzero coordinate g of [x, u_i] on u_k adds
      -(-1)^(a(i) + a(k)) g at row (R + i, beta), column (R + k, beta),
      for every coefficient index beta and every (p-1)-wedge R without
      i and k, a(.) counting the entries of R below an index: the
      replaced factor moves to the front and e_k sorts back in.
    An entry moves weights (cx._weights) by mu_beta - mu_b or lam_k - lam_i,
    whatever R is: only those of shift 0 are filed, and the block rows returned.
    [x, u_i] is `_bracket` of x with the ideal's int basis row d_i u_i; in
    the ideal, its coordinate on u_k is its entry at u_k's pivot.
    """
    s = cx.algebra.dim
    m = cx.coeff.dim
    lam, mu = cx._weights or ((0,) * s, (0,) * m)
    E, table = _constants(L)
    DM, P = M._int_action
    x = vector(x)
    if len(x) != L.dim:
        raise DimensionMismatchError("element must have the algebra's dimension")
    x = _sparse(x)
    coords = []
    for p, row in ideal._rows.items():
        w = _bracket(table, x, row)
        coords.append([(k, w[t] / (E * row[p])) for k, t in enumerate(ideal._rows) if t in w])
    D = lcm(*[g.denominator for v in coords for _, g in v],
            *[DM * xa.denominator for xa in x.values()])
    terms = []
    for a, xa in x.items():
        f = _scaled(xa, D // DM)
        block = [(beta, b, f * g) for beta, row in enumerate(P[a])
                 for b, g in row.items() if mu[beta] == mu[b]]
        if block:
            _term(terms, (), (), block)
    for i, v in enumerate(coords):
        for k, g in v:
            if lam[i] == lam[k]:
                _term(terms, (i,), (k,), ((b, b, -_scaled(g, D)) for b in range(m)))
    return _chain_map(cx, cx, _operators(terms, s, m, dict(enumerate(cx._block[0][:s + 1])),
                                         cx._places, cx._weights)), D


def _chain_map(src: CochainComplex, dst: CochainComplex, maps) -> tuple[dict, ...]:
    """maps[p]: C^p(src) -> C^p(dst), given as rows {row: {column: value}}
    as in `_block` (absent rows zero), maps past the last one zero, checked to
    commute with the differentials in each degree p < dst.top_degree.

    An entry off the weight-0 blocks, its row off dst's or its column off
    src's, raises ChainMapError at once, as does a degree where delta_p f_p
    and f_{p+1} delta_p (`linalg._product`) differ on dst's block rows.  As
    the block rows hold D_dst delta and D_src delta, each product is scaled
    by the other complex's D (over their gcd) before they are compared.
    """
    (zs, src_rows), (zd, dst_rows) = src._block, dst._block
    if any(row and (r not in zd[p] or any(c not in zs[p] for c in row))
           for p, mp in enumerate(maps) for r, row in mp.items()):
        raise ChainMapError("a map entry lies off the weight-0 blocks")
    Ds, Dd = src._terms[1], dst._terms[1]
    a, b = Ds // gcd(Ds, Dd), Dd // gcd(Ds, Dd)
    for p in range(min(dst.top_degree, len(maps))):
        nxt = maps[p + 1] if p + 1 < len(maps) else {}
        lhs = _product(dst_rows[p].values(), maps[p])
        rhs = _product((nxt.get(r, {}) for r in dst_rows[p]), src_rows[p])
        if a != b:
            lhs = [{k: a * v for k, v in row.items()} for row in lhs]
            rhs = [{k: b * v for k, v in row.items()} for row in rhs]
        if lhs != rhs:
            raise ChainMapError(f"the maps do not commute with the differentials in degree {p}")
    return tuple(maps)


def _induced(src: CohomologyResult, dst: CohomologyResult, maps, D: int) -> tuple[QMatrix, ...]:
    """The maps H^q(src) -> H^q(dst), q < len(maps), induced by the chain map
    whose block rows maps[q] hold D times it, as `_chain_map` returns them:
    src's representatives pushed through maps[q] (`linalg._product`), their
    classes read by `dst._classes_of`, and each matrix divided by D.  The
    builders check their maps and representatives are cocycles; nothing is checked again here."""
    return tuple(dst._classes_of(q, _product(src._reps[q], _columns(m))).scale(Fraction(1, D))
                 for q, m in enumerate(maps))


@dataclass(frozen=True)
class ActionOnCohomology:
    """The nilpotent quotient acting on the cohomology of an ideal.

    modules[q] is H^q(ideal, coeff) as a module over quotient.algebra, in
    the representative basis of ideal_cohomology; in the one `_page` makes,
    its part of ambient weight 0 alone.
    """

    quotient: Quotient
    ideal_cohomology: CohomologyResult
    modules: tuple[LieModule, ...]

    @property
    def dims(self) -> tuple[int, ...]:
        return self.ideal_cohomology.dims


def action_on_cohomology(L: LieAlgebra, ideal: Subspace,
                         M: LieModule) -> ActionOnCohomology:
    """Induced action of L/ideal on the whole of H^*(ideal, M).

    Lifts of the quotient basis act through the chain-level operator;
    elements of the ideal itself induce zero, so the matrices satisfy the
    quotient's bracket relations (this is re-checked on construction).
    Each operator is int rows of D times it, pushed to H^q by `_induced`.
    The ideal's complex is graded by the ideal's own `_grading`, which
    loses no class; `_page` runs the same body on the ambient weight-0 part.
    """
    return _action(L, ideal, M, None)


def _action(L: LieAlgebra, ideal: Subspace, M: LieModule, grading) -> ActionOnCohomology:
    """`action_on_cohomology`'s body.  With grading = `_grading(L, M)`, the
    ideal's complex is built on its weight-0 block under that ambient x: each
    row of the ideal's canonical basis weighs lam at its pivot, each coefficient
    mu.  Then modules[q] is H^q(ideal, M)_0 alone (module docstring).  With
    grading None, the ideal's own grading is used.  Each lift's operator,
    checked where it is built, is pushed to every degree by `_induced`."""
    if M.algebra != L:
        raise DimensionMismatchError("coefficients must form a module over the ambient algebra")
    nq = quotient(L, ideal)     # NotAnIdealError unless the ideal is one
    res = restrict(M, ideal)
    if grading is None:
        grading = _grading(res.algebra, res)
    else:
        lam, mu = grading
        grading = ([lam[p] for p in ideal._rows], mu)
    cx = _complex(res.algebra, res, grading)
    coh = cohomology_of(cx)
    induced = [_induced(coh, coh, *_action_operator(cx, L, ideal, M, nq.lift(a)))
               for a in range(nq.algebra.dim)]
    return ActionOnCohomology(nq, coh, tuple(
        LieModule(nq.algebra, [rho[q] for rho in induced], dim=d) for q, d in enumerate(coh.dims)))


def inflation_map(L: LieAlgebra, nq: Quotient, cx_L: CochainComplex,
                  cx_q: CochainComplex) -> tuple[dict, ...]:
    """Cochain pullback along the projection to the nilpotent quotient.

    With trivial coefficients the degree-p map has entries the p x p
    minors of the projection: row T holds the wedge expansion of the
    projected basis vectors indexed by T, and is built only when none of
    them is zero (`wedge_powers`).  Those rows lie in the weight-0 block
    of cx_L: a basis vector e_t with [x, e_t] = lam_t e_t projects to an
    eigenvector of the nilpotent ad of x's image, so lam_t = 0 unless its
    projection is 0.  The family is checked to be a chain map between the
    trivial-coefficient complexes cx_L of L and cx_q of the quotient nq on
    that block (`_chain_map`), and DimensionMismatchError when their sizes
    do not fit.  Returns the block rows of each degree p = 0..dim(quotient).
    """
    qd = nq.algebra.dim
    if (cx_L.algebra.dim, cx_L.coeff.dim, cx_q.algebra.dim, cx_q.coeff.dim) != (L.dim, 1, qd, 1):
        raise DimensionMismatchError("the maps do not take C^p(cx_q) to C^p(cx_L)")
    return _chain_map(cx_q, cx_L, wedge_powers(nq.projection.transpose().entries, qd))


@dataclass(frozen=True)
class InflationReport:
    """Induced maps H^p(quotient) -> H^p(algebra) and their verdicts."""

    quotient: Quotient
    source_dims: tuple[int, ...]      # H^*(quotient), padded to degree dim L
    target_dims: tuple[int, ...]      # H^*(algebra)
    induced: tuple[QMatrix, ...]
    iso_per_degree: tuple[bool, ...]

    @property
    def is_isomorphism(self) -> bool:
        return all(self.iso_per_degree)


def inflation_on_cohomology(L: LieAlgebra, nq: Quotient,
                            coh_q: CohomologyResult) -> InflationReport:
    """Whether pullback from the nilpotent quotient nq is an isomorphism.

    coh_q must be H^*(nq.algebra) with one-dimensional trivial
    coefficients (DimensionMismatchError otherwise); `checker.check`
    passes H^*(N, H^0(L^inf)), the q = 0 row of its starting page.
    `inflation_map` checks the maps, `_induced` pushes them with D = 1, and
    the degrees above dim(nq.algebra) get zero matrices.
    """
    coeff = coh_q.complex.coeff
    if coh_q.complex.algebra != nq.algebra or coeff.dim != 1 or not coeff.is_trivial():
        raise DimensionMismatchError("coh_q must be the quotient's cohomology with "
                                     "one-dimensional trivial coefficients")
    cx_L = ce_complex(L, trivial_module(L))
    maps = inflation_map(L, nq, cx_L, coh_q.complex)
    coh_L = cohomology_of(cx_L)
    qd = nq.algebra.dim
    src_dims = coh_q.dims + (0,) * (L.dim - qd)
    induced = _induced(coh_q, coh_L, maps, 1) + tuple(QMatrix.zero(ht, 0)
                                                      for ht in coh_L.dims[qd + 1:])
    isos = tuple(hs == ht and rank(mat) == ht
                 for hs, ht, mat in zip(src_dims, coh_L.dims, induced))
    return InflationReport(nq, src_dims, coh_L.dims, induced, isos)


@dataclass(frozen=True)
class E2Page:
    """Starting-page dimension table of the quotient-by-ideal spectral sequence.

    dims[p][q] is the dimension of the degree-p cohomology of the
    nilpotent quotient with coefficients in the degree-q cohomology of the
    stable ideal.  Only the starting page is computed; higher
    differentials are out of scope, but the dimension bound
    sum_{p+q=n} dims[p][q] >= dim H^n(algebra) is testable.
    """

    dims: tuple[tuple[int, ...], ...]

    @property
    def bottom_row(self) -> tuple[int, ...]:
        return tuple(row[0] for row in self.dims)

    def antidiagonal_sum(self, n: int) -> int:
        total = 0
        for p, row in enumerate(self.dims):
            q = n - p
            if 0 <= q < len(row):
                total += row[q]
        return total


def _e2_from_action(page) -> E2Page:
    """The table of page[q] = H^*(N, H^q(ideal)), q = 0..dim(ideal): the
    cohomologies of the quotient N with coefficients in the modules of an
    `action_on_cohomology`, built once by the caller."""
    top = page[0].complex.top_degree
    return E2Page(tuple(tuple(c.dims[p] for c in page) for p in range(top + 1)))


def _page(L: LieAlgebra) -> tuple[Subspace, ActionOnCohomology, list[CohomologyResult]]:
    """L^inf, the action of N = L/L^inf on H^*(L^inf, k)_0, the part of
    weight 0 under `_grading(L, k)`'s x, and the starting page
    H^*(N, H^q(L^inf)) = H^*(N, H^q(L^inf)_0), q = 0..dim L^inf (module
    docstring); q = 0 is H^*(N, k), as H^0(L^inf, k) = k has weight 0.
    The modules are not the whole H^q(L^inf): `action_on_cohomology` is."""
    linf = lower_central_series(L).last
    k = trivial_module(L)
    aoc = _action(L, linf, k, _grading(L, k))
    return linf, aoc, [cohomology(aoc.quotient.algebra, mod) for mod in aoc.modules]


def hs_e2_page(L: LieAlgebra) -> E2Page:
    """E2-style dimension table for the extension of the nilpotent quotient
    by the stable term of the lower central series."""
    return _e2_from_action(_page(L)[2])
