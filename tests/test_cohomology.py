import random
import tracemalloc
from fractions import Fraction
from importlib import import_module
from itertools import combinations, permutations
from math import comb

import pytest

from liecoh import catalog, linalg, pbw, wedge
from liecoh.checker import check, random_solvable_algebra, verify_report
from liecoh.cohomology import (
    CochainComplex,
    _chain_map,
    _grading,
    _page,
    action_on_cohomology,
    ce_complex,
    cohomology,
    cohomology_of,
    hs_e2_page,
    inflation_map,
    inflation_on_cohomology,
)
from liecoh.errors import (
    ChainMapError,
    ContainmentError,
    DimensionMismatchError,
    NotAnIdealError,
)
from liecoh.lie import (
    LieAlgebra,
    bracket_span,
    lower_central_series,
    nil_quotient,
    subalgebra,
)
from liecoh.linalg import QMatrix, Subspace, image, kernel, unit_vector
from liecoh.rep import (
    Character,
    LieModule,
    adjoint_module,
    dual,
    invariants,
    one_dim_module,
    restrict,
    trivial_module,
)
from liecoh.wedge import _rank

from oracles import (
    action_matrix,
    chain_action,
    ce_dims,
    ce_matrix,
    det_permutation,
    gauss_rank,
    gauss_rref,
    mask_positions,
    relabel,
    rep_columns,
    unsplit_cohomology,
    whole,
    whole_induced,
)

# the module itself: the package's name `cohomology` is the function
cohomology_module = import_module("liecoh.cohomology")

NILPOTENT_NAMES = ("abelian1", "abelian2", "abelian3", "abelian4",
                   "heisenberg3", "strict-ut3")


def _stable_term_algebra(L):
    linf = lower_central_series(L).last
    sub, _ = subalgebra(L, linf)
    return linf, sub


def _raw(L, M):
    """Structure constants and action matrices as nested lists, for the oracles."""
    return ([[list(col) for col in row] for row in L.c],
            [[list(row) for row in mat.data] for mat in M.rho])


def _relabelled(L, rng):
    """L in the basis f_a = s_a e_perm(a), for a random permutation and scales."""
    return LieAlgebra(*relabel(L.c, L.labels, rng))


def _h5():
    return LieAlgebra.from_brackets(["x1", "x2", "y1", "y2", "z"],
                                    {(0, 2): [(1, 4)], (1, 3): [(1, 4)]})


# --- the differential ----------------------------------------------------

def test_printed_differentials_of_the_five_dim_example():
    # C^1 basis: x*, y*, z*, w*; C^2 basis: xy, xz, xw, yz, yw, zw
    L = catalog.amazing_l()
    _, M = _stable_term_algebra(L)
    cx = ce_complex(M, trivial_module(M))
    d1 = cx.delta(1)
    assert d1.column(0) == (0,) * 6                        # delta(x*) = 0
    assert d1.column(1) == (0,) * 6                        # delta(y*) = 0
    assert d1.column(2) == (Fraction(-1), 0, 0, 0, 0, 0)   # y* ^ x*
    assert d1.column(3) == (0, Fraction(-1), 0, 0, 0, 0)   # z* ^ x*
    # rows of delta(2): xyz, xyw, xzw, yzw; the zw column is -x*^y*^w*
    d2 = cx.delta(2)
    assert d2.column(5) == (0, Fraction(-1), 0, 0)


def test_abelian_all_deltas_zero():
    A = catalog.abelian(3)
    cx = ce_complex(A, trivial_module(A))
    assert all(d.is_zero() for d in cx.deltas)


def test_delta_squared_zero_on_catalog():
    for name in catalog.names():
        L = catalog.get(name)
        for M in (trivial_module(L), adjoint_module(L)):
            cx = ce_complex(L, M)
            for p in range(L.dim):
                assert (cx.delta(p + 1) * cx.delta(p)).is_zero(), (name, p)


def test_delta_squared_zero_on_random_algebras_and_modules():
    rng = random.Random(11)
    for _ in range(10):
        L = random_solvable_algebra(rng)
        cx = ce_complex(L, adjoint_module(L))
        for p in range(L.dim):
            assert (cx.delta(p + 1) * cx.delta(p)).is_zero()


def test_module_algebra_mismatch():
    H = catalog.heisenberg3()
    other = catalog.abelian(3)
    with pytest.raises(DimensionMismatchError):
        ce_complex(H, trivial_module(other))


def _assert_deltas_match_formula(L, M, label):
    cx = ce_complex(L, M)
    c, rho = _raw(L, M)
    for p in range(L.dim):
        d = cx.delta(p)
        assert (d.rows, d.cols) == (cx.space_dim(p + 1), cx.space_dim(p)), (label, p)
        assert all(type(a) is Fraction for row in d.entries for a in row.values()), (label, p)
        assert list(d.data) == ce_matrix(c, rho, M.dim, p), (label, p)


@pytest.mark.parametrize("name", catalog.names())
def test_delta_entries_match_defining_formula_on_catalog(name):
    L = catalog.get(name)
    _assert_deltas_match_formula(L, trivial_module(L), (name, "trivial"))
    _assert_deltas_match_formula(L, adjoint_module(L), (name, "adjoint"))


def test_delta_entries_match_defining_formula_on_random_algebras():
    rng = random.Random(12)
    for t in range(10):
        L = random_solvable_algebra(rng)
        _assert_deltas_match_formula(L, adjoint_module(L), t)


def test_delta_entries_match_defining_formula_relabelled():
    # rational structure constants: the only inputs here with a common denominator > 1
    rng = random.Random(405)
    for name, L in (("strict-ut4", _relabelled(catalog.strict_ut(4), rng)),
                    ("h5", _relabelled(_h5(), rng))):
        assert any(g.denominator > 1 for row in L.c for col in row for g in col), name
        _assert_deltas_match_formula(L, trivial_module(L), (name, "trivial"))
        _assert_deltas_match_formula(L, adjoint_module(L), (name, "adjoint"))
        _assert_deltas_match_formula(L, _sevenths_character(L), (name, "character"))


def _sevenths_character(L):
    """A character with denominator 7, which makes the module's common
    denominator differ from that of the structure constants; it needs
    [L, L] to be spanned by basis vectors."""
    derived = bracket_span(L, Subspace.full(L.dim), Subspace.full(L.dim)).pivots()
    chi = Character.of([0 if k in derived else Fraction(k + 1, 7) for k in range(L.dim)])
    return one_dim_module(L, chi)


@pytest.mark.parametrize("name", ["exampleA", "propC", "amazing-L", "ut3-relabelled"])
def test_action_operators_match_tuple_evaluation(name):
    rng = random.Random(f"action-{name}")
    if name == "ut3-relabelled":
        L = _relabelled(catalog.ut(3), rng)
    else:
        L = catalog.get(name)
    linf = lower_central_series(L).last
    nq = nil_quotient(L)
    xs = [nq.lift(a) for a in range(nq.algebra.dim)]
    xs.append(tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(L.dim)))
    basis = linf.basis.data
    for M in (trivial_module(L), adjoint_module(L), _sevenths_character(L)):
        c, rho = _raw(L, M)
        for x in xs:
            ops = chain_action(L, linf, M, x)
            assert len(ops) == linf.dim + 1
            for p, op in enumerate(ops):
                d = comb(linf.dim, p) * M.dim
                assert list(whole(op, d, d).data) == action_matrix(c, basis, rho, x, p), \
                    (name, x, p)


def test_degenerate_shapes():
    # the zero algebra: only C^0 = k
    Z = LieAlgebra([])
    cx = ce_complex(Z, trivial_module(Z))
    assert cx.deltas == ()
    assert cohomology(Z, trivial_module(Z)).dims == (1,)
    assert tuple(whole(op, 1, 1) for op in chain_action(Z, Subspace.zero(0),
                                                        trivial_module(Z), ())) == (
        QMatrix.zero(1, 1),)
    # a zero-dimensional module: every cochain space is 0
    H = catalog.heisenberg3()
    M = trivial_module(H, dim=0)
    cx = ce_complex(H, M)
    assert [(d.rows, d.cols) for d in cx.deltas] == [(0, 0)] * 3
    assert cohomology(H, M).dims == (0, 0, 0, 0)
    center = Subspace.from_rows(3, [(0, 0, 1)])
    for ideal in (center, Subspace.full(3)):
        ops = chain_action(H, ideal, M, (1, 2, 3))
        assert [whole(op, 0, 0) for op in ops] == [QMatrix.zero(0, 0)] * (ideal.dim + 1)


def test_mask_positions_match_subset_index():
    for n in range(8):
        pos = mask_positions(n, range(n + 1))
        assert len(pos) == 2 ** n
        for p in range(n + 1):
            assert mask_positions(n, [p]) == [
                i if mask.bit_count() == p else 0 for mask, i in enumerate(pos)]
            for i, S in enumerate(combinations(range(n), p)):
                assert pos[sum(1 << s for s in S)] == i, (n, S)
            # _rank, the library's one placement routine, places each
            # subset alone where the enumeration does
            assert all(_rank(n, mask) == i for mask, i in enumerate(pos)
                       if mask.bit_count() == p)


def test_weight_zero_places_each_listed_wedge_where_the_listing_does():
    # with weights, the wedges of each weight mu[b] are listed and placed by
    # `_rank`; without, every wedge is listed by `combinations`, and its index
    # there is its place.  Both agree with the oracle's own listing
    rng = random.Random(631)
    for n in range(9):
        pos = mask_positions(n, range(n + 1))
        for trial in range(6):
            m = rng.randint(1, 3)
            weights = None if trial == 0 else ([rng.randint(-2, 2) for _ in range(n)],
                                               [rng.randint(-2, 2) for _ in range(m)])
            zero, places = wedge._weight_zero(n, m, weights)
            lam, mu = weights or ((0,) * n, (0,) * m)
            weigh = [sum(lam[i] for i in range(n) if S >> i & 1) for S in range(1 << n)]
            listed = [S for S in range(1 << n) if weigh[S] in mu]
            assert sorted(places) == listed, (n, weights)
            assert all(places[S] == pos[S] == _rank(n, S) for S in listed), (n, weights)
            assert [list(z) for z in zero] == [
                sorted(pos[S] * m + b for S in listed if S.bit_count() == p
                       for b in range(m) if mu[b] == weigh[S]) for p in range(n + 2)]


def test_builds_place_each_wedge_once_and_rank_none_without_a_grading(monkeypatch):
    calls = []
    real = wedge._rank

    def spy(n, mask):
        calls.append((n, mask))
        return real(n, mask)

    monkeypatch.setattr(wedge, "_rank", spy)
    # nilpotent, so no grading: 1,024 wedges listed by `combinations`
    L = _relabelled(catalog.strict_ut(5), random.Random(632))
    assert _grading(L, trivial_module(L)) is None
    assert sum(cohomology(L, trivial_module(L)).dims) == 120
    assert calls == []
    # graded: the builder ranks each weight-0 wedge once, and the action
    # operators on its complex read the same places
    U = _relabelled(catalog.ut(4), random.Random(633))
    cx = ce_complex(U, trivial_module(U))
    assert cx._weights is not None
    assert sorted(calls) == sorted((U.dim, S) for S in cx._places)
    calls.clear()
    x = tuple(Fraction(k) for k in range(1, U.dim + 1))
    ops, _ = cohomology_module._action_operator(cx, U, Subspace.full(U.dim),
                                                trivial_module(U), x)
    assert any(ops) and calls == []


# --- cohomology ----------------------------------------------------------

def test_dims_abelian_binomial():
    for n in range(1, 5):
        A = catalog.abelian(n)
        got = cohomology(A, trivial_module(A)).dims
        assert got == tuple(comb(n, i) for i in range(n + 1))


def test_dims_frozen_hand_values():
    H = catalog.heisenberg3()
    assert cohomology(H, trivial_module(H)).dims == (1, 2, 2, 1)
    s = catalog.sl2()
    assert cohomology(s, trivial_module(s)).dims == (1, 0, 0, 1)


def test_dims_against_tuple_evaluation_oracle():
    cases = [
        ("heisenberg3", "trivial"),
        ("exampleA", "trivial"),
        ("exampleA", "adjoint"),
        ("sl2", "trivial"),
        ("sl2", "adjoint"),
        ("strict-ut3", "adjoint"),
        ("propC", "trivial"),
        ("amazing-L", "trivial"),
    ]
    for name, which in cases:
        L = catalog.get(name)
        M = trivial_module(L) if which == "trivial" else adjoint_module(L)
        got = cohomology(L, M).dims
        raw_rho = [[list(row) for row in mat.data] for mat in M.rho]
        raw_c = [[list(col) for col in row] for row in L.c]
        assert got == ce_dims(raw_c, raw_rho, M.dim), (name, which)


def test_h0_is_invariants():
    for name in ("heisenberg3", "sl2", "propC"):
        L = catalog.get(name)
        for M in (trivial_module(L, 2), adjoint_module(L)):
            result = cohomology(L, M)
            inv = invariants(M)
            assert result.dims[0] == inv.dim
            assert kernel(result.complex.delta(0)) == inv


def test_euler_characteristic():
    for name in catalog.names():
        L = catalog.get(name)
        result = cohomology(L, trivial_module(L))
        chain_euler = sum((-1) ** p * result.complex.space_dim(p)
                          for p in range(L.dim + 1))
        assert result.euler_characteristic() == chain_euler
        if L.dim >= 1:
            assert result.euler_characteristic() == 0


def test_representatives_are_independent_cocycles_and_projection_works():
    rng = random.Random(12)
    L = catalog.prop_c()
    result = cohomology(L, trivial_module(L))
    for q in range(L.dim + 1):
        reps = result.representatives[q]
        assert len(reps) == result.dims[q]
        for v in reps:
            assert not any(result.complex.delta(q).apply(v))
        # the projection returns the expected unit coordinates on the
        # representatives themselves, and kills coboundaries
        for i, v in enumerate(reps):
            coords = result.project(q, v)
            assert coords == tuple(Fraction(1 if j == i else 0)
                                   for j in range(result.dims[q]))
        if q >= 1:
            dprev = result.complex.delta(q - 1)
            w = dprev.apply([Fraction(rng.randint(-3, 3))
                             for _ in range(result.complex.space_dim(q - 1))])
            assert result.project(q, w) == (Fraction(0),) * result.dims[q]


def test_vanishing_for_nonzero_characters():
    rng = random.Random(13)
    for name in NILPOTENT_NAMES:
        L = catalog.get(name)
        derived = bracket_span(L, Subspace.full(L.dim), Subspace.full(L.dim))
        allowed = kernel(QMatrix(derived.basis.data, cols=L.dim))
        for _ in range(5):
            coeffs = [rng.randint(-3, 3) for _ in range(allowed.dim)]
            vals = [Fraction(0)] * L.dim
            for c, row in zip(coeffs, allowed.basis.data):
                vals = [v + c * a for v, a in zip(vals, row)]
            chi = Character.of(vals)
            if chi.is_zero():
                continue
            dims = cohomology(L, one_dim_module(L, chi)).dims
            assert dims == (0,) * (L.dim + 1), (name, vals)


# --- induced action ------------------------------------------------------

def test_action_on_h1_of_the_borel_line():
    A = catalog.example_a()
    linf = lower_central_series(A).last
    aoc = action_on_cohomology(A, linf, trivial_module(A))
    assert aoc.dims == (1, 1)
    assert aoc.modules[1].rho[0] == QMatrix([[-1]])


def test_ideal_elements_act_by_zero_on_cohomology():
    for name in ("exampleA", "propC", "amazing-L"):
        L = catalog.get(name)
        linf = lower_central_series(L).last
        aoc = action_on_cohomology(L, linf, trivial_module(L))
        coh = aoc.ideal_cohomology
        for row in linf.basis.data:
            ops = chain_action(L, linf, trivial_module(L), row)
            for q in range(len(coh.dims)):
                induced = whole_induced(coh, q, ops[q], coh)
                assert induced.is_zero(), (name, q)


def test_action_requires_ideal():
    s = catalog.sl2()
    line = Subspace.from_rows(3, [unit_vector(3, 1)])
    with pytest.raises(NotAnIdealError):
        action_on_cohomology(s, line, trivial_module(s))


def test_induced_invariants_of_the_five_dim_example():
    L = catalog.amazing_l()
    linf = lower_central_series(L).last
    aoc = action_on_cohomology(L, linf, trivial_module(L))
    assert aoc.dims == (1, 2, 2, 2, 1)
    assert sum(invariants(m).dim for m in aoc.modules) == 1
    # the weight-zero part of positive-degree cohomology is empty: every
    # induced operator is invertible (rank equals the space dimension)
    from liecoh.linalg import rank
    for q in range(1, 5):
        op = aoc.modules[q].rho[0]
        assert rank(op) == aoc.dims[q], q


# --- inflation -----------------------------------------------------------

def _inflation_maps(L, nq):
    """`inflation_map` along nq, between the trivial-coefficient complexes."""
    return inflation_map(L, nq, ce_complex(L, trivial_module(L)),
                         ce_complex(nq.algebra, trivial_module(nq.algebra)))


def _inflation_on_cohomology(L):
    """`inflation_on_cohomology` along the nil quotient, with its trivial cohomology."""
    nq = nil_quotient(L)
    return inflation_on_cohomology(L, nq, cohomology(nq.algebra, trivial_module(nq.algebra)))


def test_inflation_identity_on_nilpotent():
    for name in NILPOTENT_NAMES:
        L = catalog.get(name)
        report = _inflation_on_cohomology(L)
        assert report.is_isomorphism, name
        assert report.source_dims == report.target_dims
        # the quotient map is the identity, so every cochain map is too
        for p, m in enumerate(_inflation_maps(L, nil_quotient(L))):
            d = comb(L.dim, p)
            assert whole(m, d, d) == QMatrix.identity(d), (name, p)


def _assert_inflation_minors(L):
    nq = nil_quotient(L)
    P = nq.projection
    for p, m in enumerate(_inflation_maps(L, nq)):
        m = whole(m, comb(L.dim, p), comb(nq.algebra.dim, p))
        for t, T in enumerate(combinations(range(L.dim), p)):
            for s, S in enumerate(combinations(range(nq.algebra.dim), p)):
                assert m[t, s] == det_permutation([[P[i, j] for j in T] for i in S])


def test_inflation_entries_are_projection_minors():
    # ut(3) in random bases, so that the projection to the quotient is dense
    units = [[[1 if (r, c) == (i, j) else 0 for c in range(3)] for r in range(3)]
             for i in range(3) for j in range(i, 3)]
    rng = random.Random(307)
    for _ in range(4):
        A = [[rng.randint(-2, 2) for _ in units] for _ in units]
        if gauss_rank([[Fraction(a) for a in row] for row in A]) < len(units):
            continue
        mats = [[[sum(a * u[r][c] for a, u in zip(row, units)) for c in range(3)]
                 for r in range(3)] for row in A]
        _assert_inflation_minors(
            LieAlgebra.from_matrices([f"b{k}" for k in range(len(units))], mats))
    _assert_inflation_minors(_relabelled(catalog.ut(4), rng))
    for name in ("exampleA", "amazing-L"):
        _assert_inflation_minors(catalog.get(name))


def test_inflation_example_a_iso():
    A = catalog.example_a()
    report = _inflation_on_cohomology(A)
    assert report.is_isomorphism
    assert report.source_dims == (1, 1, 0)
    assert report.target_dims == (1, 1, 0)


def test_inflation_fails_for_prop_c_and_sl2():
    for name in ("propC", "sl2"):
        L = catalog.get(name)
        report = _inflation_on_cohomology(L)
        assert not report.is_isomorphism, name


def test_inflation_maps_are_chain_maps():
    # the constructor itself raises if not; run it on mixed cases
    for name in ("exampleA", "ut3", "propC", "heisenberg3"):
        L = catalog.get(name)
        maps = _inflation_maps(L, nil_quotient(L))
        assert whole(maps[0], 1, 1) == QMatrix([[1]])


# --- the starting page ---------------------------------------------------

def test_e2_nilpotent_single_column():
    for name in NILPOTENT_NAMES:
        L = catalog.get(name)
        page = hs_e2_page(L)
        h = cohomology(L, trivial_module(L)).dims
        assert all(len(row) == 1 for row in page.dims)
        assert page.bottom_row == h, name


def test_e2_example_a_bottom_row_only():
    page = hs_e2_page(catalog.example_a())
    assert all(not d for row in page.dims for d in row[1:])
    assert page.bottom_row == (1, 1)


def test_e2_sl2_single_column():
    page = hs_e2_page(catalog.sl2())
    assert page.dims == ((1, 0, 0, 1),)


def test_e2_bottom_row_is_quotient_cohomology():
    for name in catalog.names():
        L = catalog.get(name)
        page = hs_e2_page(L)
        nq = nil_quotient(L)
        hq = cohomology(nq.algebra, trivial_module(nq.algebra)).dims
        assert page.bottom_row == hq, name


def test_condition3_collapse_on_catalog():
    from liecoh.rep import has_trivial_subquotient
    for name in catalog.names():
        L = catalog.get(name)
        linf = lower_central_series(L).last
        aoc = action_on_cohomology(L, linf, trivial_module(L))
        no_trivial = all(not has_trivial_subquotient(aoc.modules[q])
                         for q in range(1, linf.dim + 1))
        if no_trivial:
            page = hs_e2_page(L)
            h = cohomology(L, trivial_module(L)).dims
            assert all(not d for row in page.dims for d in row[1:]), name
            padded = page.bottom_row + (0,) * (len(h) - len(page.bottom_row))
            assert padded == h, name


def test_e2_dominates_abutment_dimensionwise():
    for name in catalog.names():
        L = catalog.get(name)
        page = hs_e2_page(L)
        h = cohomology(L, trivial_module(L)).dims
        for n, hn in enumerate(h):
            assert page.antidiagonal_sum(n) >= hn, (name, n)


# --- closed-form oracles on relabelled bases ------------------------------

def _inversion_counts(n):
    """How many permutations of n letters have k inversions, k = 0, 1, ..."""
    counts = [0] * (n * (n - 1) // 2 + 1)
    for perm in permutations(range(n)):
        counts[sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])] += 1
    return tuple(counts)


def test_kostant_strict_ut4_relabelled():
    rng = random.Random(401)
    expected = _inversion_counts(4)
    assert expected == (1, 3, 5, 6, 5, 3, 1)
    for _ in range(2):
        L = _relabelled(catalog.strict_ut(4), rng)
        assert cohomology(L, trivial_module(L)).dims == expected
    # the next size, on 1024 coordinates
    L = _relabelled(catalog.strict_ut(5), rng)
    assert cohomology(L, trivial_module(L)).dims == _inversion_counts(5)


def test_ut4_relabelled_binomial_then_zero():
    L = _relabelled(catalog.ut(4), random.Random(402))
    assert cohomology(L, trivial_module(L)).dims == tuple(comb(4, k) for k in range(11))


def test_santharoubane_h5_relabelled():
    m = 2
    low = [comb(2 * m, k) - comb(2 * m, k - 2) if k >= 2 else comb(2 * m, k)
           for k in range(m + 1)]
    expected = tuple(low + low[::-1])
    assert expected == (1, 4, 5, 5, 4, 1)
    rng = random.Random(403)
    for _ in range(3):
        L = _relabelled(_h5(), rng)
        assert cohomology(L, trivial_module(L)).dims == expected


def test_projection_on_strict_ut4_adjoint_relabelled():
    L = _relabelled(catalog.strict_ut(4), random.Random(404))
    result = cohomology(L, adjoint_module(L))
    for q in range(L.dim + 1):
        for i, rep in enumerate(result.representatives[q]):
            assert not any(result.complex.delta(q).apply(rep))
            assert result.project(q, rep) == unit_vector(result.dims[q], i)
        for b in image(result.complex.delta(q - 1)).basis.data:
            assert not any(result.project(q, b))


@pytest.mark.parametrize("name", ["strict-ut4-adjoint", "propC"])
def test_coordinates_recover_random_combinations_relabelled(name):
    # z = sum_i c_i rep_i + delta(w) must give back exactly c
    rng = random.Random(f"coordinates-{name}")
    if name == "propC":
        L = _relabelled(catalog.prop_c(), rng)
        result = cohomology(L, trivial_module(L))
    else:
        L = _relabelled(catalog.strict_ut(4), rng)
        result = cohomology(L, adjoint_module(L))
    for q in range(L.dim + 1):
        reps = result.representatives[q]
        cols, expected = [], []
        for _ in range(4):
            c = tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in reps)
            w = [Fraction(rng.randint(-3, 3)) for _ in range(result.complex.space_dim(q - 1))]
            z = result.complex.delta(q - 1).apply(w)
            for ci, rep in zip(c, reps):
                z = tuple(a + ci * b for a, b in zip(z, rep))
            assert result.project(q, z) == c, (name, q)
            cols.append(z)
            expected.append(c)
        matrix = QMatrix.from_columns(cols, rows=result.complex.space_dim(q))
        assert result.coordinates(q, matrix) == QMatrix.from_columns(expected, rows=len(reps))


def test_project_refuses_a_non_cocycle():
    for name in ("heisenberg3", "propC"):
        L = catalog.get(name)
        result = cohomology(L, trivial_module(L))
        for q in range(L.dim + 1):
            cdim = result.complex.space_dim(q)
            for t in range(cdim):
                e = unit_vector(cdim, t)
                if not any(result.complex.delta(q).apply(e)):
                    result.project(q, e)
                    continue
                with pytest.raises(ContainmentError):
                    result.project(q, e)
                with pytest.raises(ContainmentError):
                    result.coordinates(q, QMatrix.from_columns([e]))
        with pytest.raises(DimensionMismatchError):
            result.project(1, (0,) * (L.dim + 1))


def test_inflation_refuses_other_quotient_cohomology():
    L = catalog.heisenberg3()
    nq = nil_quotient(L)
    N = nq.algebra
    assert _inflation_on_cohomology(L).is_isomorphism
    for coh_q in (cohomology(N, one_dim_module(N, Character.of((1, 0, 0)))),
                  cohomology(N, adjoint_module(N)),
                  cohomology(N, trivial_module(N, 2)),
                  cohomology(catalog.abelian(3), trivial_module(catalog.abelian(3)))):
        with pytest.raises(DimensionMismatchError):
            inflation_on_cohomology(L, nq, coh_q)


def test_inflation_map_checks_the_complexes_it_is_given():
    L = catalog.heisenberg3()
    nq = nil_quotient(L)
    wrong = ce_complex(catalog.abelian(3), trivial_module(catalog.abelian(3)))
    with pytest.raises(ChainMapError):
        inflation_map(L, nq, ce_complex(L, trivial_module(L)), wrong)
    A = catalog.abelian(4)
    with pytest.raises(DimensionMismatchError):
        inflation_map(L, nq, ce_complex(A, trivial_module(A)),
                      ce_complex(nq.algebra, trivial_module(nq.algebra)))


# --- the weight-0 block against the unsplit elimination -------------------

def _weight_zero_by_listing(L, M):
    """The weight-0 coordinates of each degree 0..dim + 1 under `_grading`'s
    weights, by listing every wedge in `combinations` order."""
    n, m = L.dim, M.dim
    lam, mu = _grading(L, M) or ((0,) * n, (0,) * m)
    return [[i * m + b for i, S in enumerate(combinations(range(n), q)) for b in range(m)
             if sum(lam[s] for s in S) == mu[b]] for q in range(n + 2)]


def _assert_block_is_the_weight_zero_rows(L, M, label):
    """The built block: the listed weight-0 coordinates, in increasing
    order, and exactly the rows of the whole differential at them, as int
    rows of the complex's D times them."""
    cx = ce_complex(L, M)
    zero, rows = cx._block
    D = cx._terms[1]
    listed = _weight_zero_by_listing(L, M)
    assert [list(z) for z in zero] == listed, label
    for q in range(L.dim + 1):
        entries = cx.delta(q).entries
        assert list(rows[q]) == listed[q + 1], (label, q)
        assert rows[q] == {r: {c: D * a for c, a in entries[r].items()}
                           for r in listed[q + 1]}, (label, q)
        assert all(type(a) is int for row in rows[q].values() for a in row.values()), (label, q)
        assert all(c in zero[q] for row in rows[q].values() for c in row), (label, q)


def _assert_split_matches_unsplit(L, M, rng, label):
    """The block is the weight-0 rows of the whole differential, and gives
    the same dims, representatives and class coordinates as eliminating
    every coordinate; the test cocycles carry coboundaries of every weight."""
    _assert_block_is_the_weight_zero_rows(L, M, label)
    cx = ce_complex(L, M)
    result = cohomology_of(cx)
    reps, coordinates = unsplit_cohomology(cx)
    assert result.representatives == reps, label
    assert result.dims == tuple(map(len, reps)), label
    for q in range(L.dim + 1):
        cols = []
        for _ in range(3):
            w = [Fraction(rng.randint(-2, 2)) for _ in range(cx.space_dim(q - 1))]
            z = cx.delta(q - 1).apply(w)
            for rep in reps[q]:
                c = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                z = tuple(a + c * b for a, b in zip(z, rep))
            assert result.project(q, z) == coordinates(q, z), (label, q)
            cols.append(z)
        matrix = QMatrix.from_columns(cols, rows=cx.space_dim(q))
        assert result.coordinates(q, matrix) == QMatrix.from_columns(
            [coordinates(q, z) for z in cols], rows=result.dims[q]), (label, q)


def test_split_matches_unsplit_on_the_benchmark_inputs():
    # the inputs the elimination is timed on: relabelled strict_ut(5) with
    # trivial coefficients (1024 coordinates) and strict_ut(4) with ad
    rng = random.Random(605)
    L5, L4 = _relabelled(catalog.strict_ut(5), rng), _relabelled(catalog.strict_ut(4), rng)
    for L, M in ((L5, trivial_module(L5)), (L4, adjoint_module(L4))):
        _assert_split_matches_unsplit(L, M, rng, L.labels)


def _splits(L, M):
    cx = ce_complex(L, M)
    return any(len(z) < cx.space_dim(q) for q, z in enumerate(cx._block[0]))


@pytest.mark.parametrize("name", catalog.names())
def test_weight_zero_block_matches_unsplit_on_catalog(name):
    L = catalog.get(name)
    rng = random.Random(f"split-{name}")
    for M in (trivial_module(L), adjoint_module(L)):
        _assert_split_matches_unsplit(L, M, rng, name)


def test_weight_zero_block_matches_unsplit_on_random_algebras():
    rng = random.Random(601)
    split = 0
    for i in range(50):
        L = random_solvable_algebra(rng)
        _assert_split_matches_unsplit(L, trivial_module(L), rng, i)
        split += _splits(L, trivial_module(L))
    assert split >= 10


def test_block_is_the_weight_zero_rows_with_adjoint_coefficients():
    # under ad, weights of the algebra cancel against those of the module,
    # so several wedges of one size share a target weight
    rng = random.Random(609)
    for i in range(50):
        L = random_solvable_algebra(rng)
        _assert_block_is_the_weight_zero_rows(L, adjoint_module(L), i)
    ut4 = _relabelled(catalog.ut(4), rng)
    _assert_block_is_the_weight_zero_rows(ut4, adjoint_module(ut4), "ut4 adjoint")


def test_weight_zero_block_matches_unsplit_with_a_module_denominator():
    # x acts on the module by 1 and 1/7, so the common denominator of the
    # weights is 7 while the structure constants are integers; cohomology
    # lives in the weight-0 cochains of the value 1, which 1/7 must not move
    A = catalog.example_a()
    M = LieModule(A, [QMatrix([[1, 0], [0, Fraction(1, 7)]]), QMatrix.zero(2, 2)])
    assert _splits(A, M)
    assert cohomology(A, M).dims == (0, 1, 1)
    _assert_split_matches_unsplit(A, M, random.Random(604), "denominator 7")


def _elementary_conjugate(M, rng):
    """M in the basis g e_b of its space, g a product of four elementary matrices."""
    g = g_inv = QMatrix.identity(M.dim)
    for _ in range(4):
        r, s = rng.sample(range(M.dim), 2)
        t = Fraction(rng.choice((-2, -1, 1, 3)))
        step = [[Fraction(a == b) + (t if (a, b) == (r, s) else 0) for b in range(M.dim)]
                for a in range(M.dim)]
        back = [[Fraction(a == b) - (t if (a, b) == (r, s) else 0) for b in range(M.dim)]
                for a in range(M.dim)]
        g, g_inv = g * QMatrix(step), QMatrix(back) * g_inv
    return LieModule(M.algebra, [g_inv * mat * g for mat in M.rho], dim=M.dim)


def test_weight_zero_block_matches_unsplit_on_relabelled_ut():
    rng = random.Random(602)
    ut4 = _relabelled(catalog.ut(4), rng)
    ut3 = _relabelled(catalog.ut(3), rng)
    for L, M in ((ut4, trivial_module(ut4)), (ut3, adjoint_module(ut3))):
        assert _splits(L, M)
        _assert_split_matches_unsplit(L, M, rng, L.labels)
    # the adjoint action in a basis of the module that is no weight basis
    M = _elementary_conjugate(adjoint_module(ut3), rng)
    assert any(not mat.is_zero() for mat in M.rho)
    _assert_split_matches_unsplit(ut3, M, rng, "conjugated adjoint")


def _torus(L):
    """The basis vectors whose ad is diagonal."""
    n = L.dim
    return [t for t in range(n)
            if not any(L.c[t][j][k] for j in range(n) for k in range(n) if k != j)]


def _root_character(L):
    """The character of ut(n) in a relabelled basis that is the root of one
    root vector e_r on the torus, [e_t, e_r] = alpha_t e_r, and 0 on the roots."""
    torus = _torus(L)
    r = next(r for r in range(L.dim) if r not in torus)
    return one_dim_module(L, Character.of([L.c[t][r][r] if t in torus else 0
                                           for t in range(L.dim)]))


def test_weight_zero_block_matches_unsplit_with_nonzero_characters():
    # a character moves every weight by mu: the block is the wedges whose
    # weights add up to it; a generic one leaves none, a root leaves some
    rng = random.Random(608)
    ut3, ut4 = _relabelled(catalog.ut(3), rng), _relabelled(catalog.ut(4), rng)
    cases = [(catalog.example_a(), _sevenths_character(catalog.example_a())),
             (ut3, _sevenths_character(ut3)), (ut3, _root_character(ut3)),
             (ut4, _root_character(ut4))]
    for L, M in cases:
        assert not M.is_trivial() and _grading(L, M)[1] != [0]
        _assert_split_matches_unsplit(L, M, rng, L.labels)
    for L, M in cases[2:]:
        assert any(ce_complex(L, M)._block[0][q] for q in range(L.dim + 1))


def test_coordinates_refuse_a_defect_outside_weight_zero():
    L = _relabelled(catalog.ut(3), random.Random(603))
    cx = ce_complex(L, trivial_module(L))
    result = cohomology_of(cx)
    zero = cx._block[0]
    refused = 0
    for q in range(1, L.dim):
        if not result.dims[q]:
            continue
        rep = result.representatives[q][0]
        for t in range(cx.space_dim(q)):
            e = unit_vector(cx.space_dim(q), t)
            if t in zero[q] or not any(cx.delta(q).apply(e)):
                continue
            # a cocycle on the weight-0 block, plus a defect of nonzero weight
            z = tuple(a + b for a, b in zip(rep, e))
            assert result.project(q, rep) == unit_vector(result.dims[q], 0)
            with pytest.raises(ContainmentError, match="vector is not a cocycle"):
                result.project(q, z)
            with pytest.raises(ContainmentError, match="vector is not a cocycle"):
                result.coordinates(q, QMatrix.from_columns([z, rep]))
            refused += 1
    assert refused


def test_a_basis_without_diagonal_ad_runs_as_one_block():
    # ut(3) in a random GL_6(Q) basis: only the centre acts diagonally
    rng = random.Random(604)
    base = catalog.ut(3)
    units = [catalog._eij(3, i, j) for i in range(3) for j in range(i, 3)]
    while True:
        g = [[Fraction(rng.randint(-2, 2)) for _ in range(6)] for _ in range(6)]
        if det_permutation(g):
            break
    mats = [[[sum(g[b][a] * units[b][r][c] for b in range(6)) for c in range(3)]
             for r in range(3)] for a in range(6)]
    L = LieAlgebra.from_matrices([f"f{a}" for a in range(6)], mats)
    M = trivial_module(L)
    assert _grading(L, M) is None
    cx = ce_complex(L, M)
    assert cx._block[0] == [range(cx.space_dim(q)) for q in range(L.dim + 2)]
    assert cohomology_of(cx).dims == cohomology(base, trivial_module(base)).dims \
        == tuple(comb(3, k) for k in range(7))


def test_ut5_relabelled_binomial_and_check(monkeypatch):
    L = _relabelled(catalog.ut(5), random.Random(605))

    def guarded(cx):
        raise AssertionError("a whole differential was built")

    monkeypatch.setattr(CochainComplex, "deltas", property(guarded))
    binomial = tuple(comb(5, k) for k in range(16))
    assert cohomology(L, trivial_module(L)).dims == binomial
    report = check(L)
    assert report.h_total == binomial
    assert report.condition2 and report.condition3


def test_check_builds_no_row_of_the_algebra_complex_outside_weight_zero(monkeypatch):
    # ut(4): the weight-0 block is the 16 wedges of the torus, the basis
    # vectors whose ad is diagonal; the whole complex has 1,024 coordinates
    L = _relabelled(catalog.ut(4), random.Random(606))
    n = L.dim
    torus = set(_torus(L))
    assert len(torus) == 4
    built = []
    real = wedge._operators

    def spy(groups, dim, m, rows, *rest):
        out = real(groups, dim, m, rows, *rest)
        if dim == n:
            built.extend((q + 1, r) for q, r_rows in zip(rows, out) for r in r_rows)
        return out

    monkeypatch.setattr(wedge, "_operators", spy)
    monkeypatch.setattr(cohomology_module, "_operators", spy)
    report = check(L)
    assert report.h_total == tuple(comb(4, k) for k in range(n + 1))
    assert report.condition2 and report.condition3
    inside = {(p, i) for p in range(1, n + 1) for i, S in enumerate(combinations(range(n), p))
              if set(S) <= torus}
    assert sorted(built) == sorted(inside)


def test_inflation_refuses_a_row_outside_the_weight_zero_block(monkeypatch):
    # on the block alone, a stray row at a root wedge would pass: the torus
    # N has delta = 0, and the block rows of delta_L never read that row
    L = _relabelled(catalog.ut(3), random.Random(607))
    nq = nil_quotient(L)
    cx_L = ce_complex(L, trivial_module(L))
    cx_q = ce_complex(nq.algebra, trivial_module(nq.algebra))
    assert inflation_map(L, nq, cx_L, cx_q)
    root = next(r for r in range(L.dim) if r not in cx_L._block[0][1])
    real = cohomology_module.wedge_powers

    def stray(columns, m):
        powers = real(columns, m)
        powers[1][root] = {0: Fraction(1)}
        return powers

    monkeypatch.setattr(cohomology_module, "wedge_powers", stray)
    with pytest.raises(ChainMapError):
        inflation_map(L, nq, cx_L, cx_q)


def test_the_builder_refuses_weights_that_a_term_does_not_preserve(monkeypatch):
    L = catalog.example_a()           # [x, y] = y: x must weigh 0
    lam, mu = _grading(L, trivial_module(L))
    monkeypatch.setattr(cohomology_module, "_grading",
                        lambda L, M: ([lam[0] + 1, lam[1]], mu))
    with pytest.raises(ChainMapError):
        ce_complex(L, trivial_module(L))


# --- one chain-map check, one page builder ---------------------------------

def _plus_one(m: dict, r: int, k: int) -> dict:
    """The map m, given as sparse rows, with 1 added to its entry (r, k)."""
    row = dict(m.get(r, {}))
    row[k] = row.get(k, 0) + 1
    return {**m, r: {c: a for c, a in row.items() if a}}


def _bumped(m: dict, delta: QMatrix) -> dict:
    """m with 1 added to its entry (r, 0), r the first column of delta that
    is nonzero, so that delta * m changes."""
    r = next(r for r in range(delta.cols) if any(delta.column(r)))
    return _plus_one(m, r, 0)


def test_chain_map_refuses_one_changed_entry_of_an_action_operator():
    L = catalog.ut(3)                 # L^inf is the Heisenberg algebra, delta_1 != 0
    linf = lower_central_series(L).last
    M = trivial_module(L)
    res = restrict(M, linf)
    cx = ce_complex(res.algebra, res)
    ops = list(chain_action(L, linf, M, unit_vector(L.dim, 0)))
    assert _chain_map(cx, cx, ops) == tuple(ops)
    ops[1] = _bumped(ops[1], cx.delta(1))
    with pytest.raises(ChainMapError):
        _chain_map(cx, cx, ops)


def test_chain_map_refuses_one_changed_entry_of_an_inflation_map():
    L = catalog.ut(3)
    nq = nil_quotient(L)
    cx_L = ce_complex(L, trivial_module(L))
    cx_q = ce_complex(nq.algebra, trivial_module(nq.algebra))
    maps = inflation_map(L, nq, cx_L, cx_q)
    # the last map has no successor: it must land in the cocycles of L
    for p in (1, len(maps) - 1):
        bumped = maps[:p] + (_bumped(maps[p], cx_L.delta(p)),) + maps[p + 1:]
        with pytest.raises(ChainMapError):
            _chain_map(cx_q, cx_L, bumped)


def test_chain_map_and_page_at_the_boundary_cases():
    # N = 0: the ideal is all of sl2, and inflation is the degree-0 map alone
    L = catalog.sl2()
    linf, aoc, page = _page(L)
    assert linf.dim == 3 and aoc.quotient.algebra.dim == 0
    assert [c.dims for c in page] == [(1,), (0,), (0,), (1,)]
    maps = inflation_map(L, aoc.quotient, ce_complex(L, trivial_module(L)), page[0].complex)
    assert tuple(whole(m, 1, 1) for m in maps) == (QMatrix([[1]]),)
    # N = L and L^inf = 0: inflation has a map in every degree, and the
    # ideal's complex has C^0 alone, with no differential to check
    H = catalog.heisenberg3()
    linf, aoc, page = _page(H)
    assert linf.dim == 0 and aoc.quotient.algebra.dim == 3
    assert [c.dims for c in page] == [(1, 2, 2, 1)]
    cx_H = ce_complex(H, trivial_module(H))
    maps = inflation_map(H, aoc.quotient, cx_H, page[0].complex)
    assert [whole(m, comb(3, p), comb(3, p)).rows for p, m in enumerate(maps)] == [1, 3, 3, 1]
    ops = chain_action(H, linf, trivial_module(H), unit_vector(3, 0))
    assert tuple(whole(op, 1, 1) for op in ops) == (QMatrix([[0]]),)


def test_e2_page_is_the_table_check_reports():
    for name in catalog.names():
        L = catalog.get(name)
        assert hs_e2_page(L).dims == check(L).e2_table, name
    rng = random.Random(1301)
    for i in range(20):
        L = random_solvable_algebra(rng)
        assert hs_e2_page(L).dims == check(L).e2_table, i


# --- graded ideals acted on off their weight-0 blocks ---------------------

def _units(n, *terms):
    """The n x n matrix sum of c E_ij over the (c, i, j) given, indices from 0."""
    return [[sum(c for c, i, j in terms if (i, j) == (r, k)) for k in range(n)] for r in range(n)]


def _gl2_with_a_shifted_centre():
    """gl2 in the basis h, e, f, w = I + E12 (input A).

    [h, e] = 2e, [h, f] = -2f, [e, f] = h, and w acts as e does:
    [w, h] = -2e, [w, e] = 0, [w, f] = h.  L^inf = [L, L] = sl2, graded by
    h with weights (0, 2, -2), and w moves every weight by 2."""
    mats = [_units(2, (1, 0, 0), (-1, 1, 1)), _units(2, (1, 0, 1)), _units(2, (1, 1, 0)),
            _units(2, (1, 0, 0), (1, 1, 1), (1, 0, 1))]
    return LieAlgebra.from_matrices("hefw", mats)


def _sl2_on_a_plane_with_a_shifted_centre():
    """The span of h = E11 - E22, e = E12, f = E21, u = E13, v = E23 and
    w = E11 + E22 + E12 in gl3 (input B).

    sl2 acts on Q^2 = span(u, v) as on column vectors: [h, u] = u,
    [h, v] = -v, [e, v] = u, [f, u] = v, [u, v] = 0.  w acts as e on sl2
    and as 1 + e on Q^2: [w, u] = u, [w, v] = u + v.  L^inf = sl2 x Q^2,
    graded by h with weights (0, 2, -2, 1, -1)."""
    mats = [_units(3, (1, 0, 0), (-1, 1, 1)), _units(3, (1, 0, 1)), _units(3, (1, 1, 0)),
            _units(3, (1, 0, 2)), _units(3, (1, 1, 2)), _units(3, (1, 0, 0), (1, 1, 1), (1, 0, 1))]
    return LieAlgebra.from_matrices("hefuvw", mats)


GRADED_IDEAL_INPUTS = {
    # H^*(sl2) = (1, 0, 0, 1), and L acts on it trivially (every derivation
    # of sl2 is inner).  Hochschild-Serre Theorem 13 (L/L^inf = N is
    # abelian, hence reductive) gives H^n(L) = sum_{p+q=n} H^p(N) (x)
    # H^q(sl2)^L with H^*(N) = (1, 1): H^*(gl2) = (1, 1, 0, 1, 1).  The page
    # H^p(N, H^q(sl2)) is H^*(N) in the rows q = 0 and 3.
    "A": (_gl2_with_a_shifted_centre, (1, 1, 0, 1, 1), ((1, 0, 0, 1), (1, 0, 0, 1))),
    # H^*(sl2 x Q^2) = H^*(sl2) (x) (Lambda (Q^2)^*)^sl2, by Theorem 13 for the
    # ideal Q^2 with semisimple quotient sl2; the invariants are Lambda^0
    # and Lambda^2, so the dims are (1, 0, 1, 1, 0, 1).  w acts on
    # Lambda^2 (Q^2)^* by -tr(1 + e) = -2 and trivially on H^*(sl2), so
    # H^p(N, H^q) vanishes for q = 2 and 5 (w is invertible there), and
    # Theorem 13 for L^inf in L keeps the w-invariants q = 0, 3 alone.
    "B": (_sl2_on_a_plane_with_a_shifted_centre, (1, 1, 0, 1, 1, 0, 0),
          ((1, 0, 0, 1, 0, 0), (1, 0, 0, 1, 0, 0))),
}


@pytest.mark.parametrize("name", sorted(GRADED_IDEAL_INPUTS))
def test_graded_ideal_inputs_match_hochschild_serre(name):
    build, h_total, e2_table = GRADED_IDEAL_INPUTS[name]
    L = build()
    report = check(L)
    # H^3(L^inf) is a trivial N-module (condition 3 fails), and H^*(N) =
    # (1, 1) cannot map onto H^3(L) != 0 (condition 2 fails)
    assert not report.condition2 and not report.condition3
    verify_report(report, context=name)
    assert report.h_total == h_total
    assert report.e2_table == e2_table == hs_e2_page(L).dims
    assert cohomology(L, trivial_module(L)).dims == h_total


def _assert_block_action(L, ideal, M, x, label):
    """The library's operators of x on C^p(ideal, M) are the formula's
    (`action_matrix`) kept to the weight-0 rows and columns, listed by
    `_weight_zero_by_listing`, and both push the representatives of H^q to
    the same classes.  Returns the operators and the number of the
    formula's nonzero entries off the block."""
    res = restrict(M, ideal)
    block = _weight_zero_by_listing(res.algebra, res)
    coh = cohomology(res.algebra, res)
    c, rho = _raw(L, M)
    ops = chain_action(L, ideal, M, x)
    outside = 0
    for p, op in enumerate(ops):
        formula = action_matrix(c, ideal.basis.data, rho, x, p)
        zero = set(block[p])
        outside += sum(1 for r, row in enumerate(formula) for k, a in enumerate(row)
                       if a and not (r in zero and k in zero))
        d = coh.complex.space_dim(p)
        assert [list(row) for row in whole(op, d, d).data] == [
            [a if r in zero and k in zero else 0 for k, a in enumerate(row)]
            for r, row in enumerate(formula)], (label, p)
        # theta_x z - P_0 theta_x z is a cocycle of nonzero weight, a coboundary
        reps = rep_columns(coh, p)
        assert whole_induced(coh, p, op, coh) == coh.coordinates(p, QMatrix(formula) * reps), \
            (label, p)
    return ops, outside


@pytest.mark.parametrize("name", sorted(GRADED_IDEAL_INPUTS))
def test_the_action_of_w_is_its_formula_on_the_weight_zero_block(name):
    L = GRADED_IDEAL_INPUTS[name][0]()
    linf = lower_central_series(L).last
    M = trivial_module(L)
    res = restrict(M, linf)
    assert _grading(res.algebra, res) is not None
    w = unit_vector(L.dim, L.dim - 1)
    assert nil_quotient(L).lift(0) == w
    ops, outside = _assert_block_action(L, linf, M, w, name)
    # w moves weights, so theta_w has entries off the block: the traffic
    # that the chain-map check once compared on whole differentials
    assert outside
    if name == "B":
        # u* ^ v*, the last 2-wedge of (h, e, f, u, v), weighs 0; w scales it by -2
        top = comb(5, 2) - 1
        assert whole(ops[2], comb(5, 2), comb(5, 2)).column(top) == tuple(
            -2 if r == top else 0 for r in range(comb(5, 2)))


def test_sl2_acts_on_its_adjoint_cochains_through_the_weight_zero_block():
    # coefficients graded by h too: rho(e) and rho(f) move the weights of
    # the module, ad e and ad f those of the wedges
    L = catalog.sl2()
    full = Subspace.full(3)
    rng = random.Random(611)
    xs = [unit_vector(3, a) for a in range(3)]
    xs.append(tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(3)))
    for M in (adjoint_module(L), trivial_module(L)):
        for x in xs:
            _, outside = _assert_block_action(L, full, M, x, (M.dim, x))
            assert outside


def test_chain_map_refuses_an_entry_off_the_weight_zero_blocks():
    # sl2 graded by h: the 2-wedges (h, e), (h, f), (e, f) weigh 2, -2, 0
    # (on cochains, minus that).  delta_2 = 0 and delta_1 reads C^2 at
    # (e, f) alone, so neither entry below changes a block row of either side
    L = catalog.sl2()
    cx = ce_complex(L, trivial_module(L))
    assert list(cx._block[0][2]) == [2]
    ops = chain_action(L, Subspace.full(3), trivial_module(L), (0, 0, 0))
    for r, k in ((2, 0), (0, 2)):
        with pytest.raises(ChainMapError, match="off the weight-0 blocks"):
            _chain_map(cx, cx, ops[:2] + (_plus_one(ops[2], r, k),) + ops[3:])


def test_no_library_path_reads_a_whole_differential(monkeypatch):
    # `check`, `hs_e2_page` and `cohomology` keep to the weight-0 blocks of
    # every complex they build, the L^inf side and the page included: they
    # read no whole differential, multiply no `QMatrix` and make no dense
    # cochain (`representatives`, `coordinates` and `project` are for callers)
    reads, products, dense = [], [], []
    whole_delta = CochainComplex.delta
    real_mul = QMatrix.__mul__
    real_dense = cohomology_module._dense

    def spy(cx, p):
        reads.append(cx.algebra.labels)
        return whole_delta(cx, p)

    def spy_mul(a, b):
        products.append((a.rows, a.cols))
        return real_mul(a, b)

    def spy_dense(row, n):
        dense.append(n)
        return real_dense(row, n)

    algebras = [catalog.get(name) for name in catalog.names()]
    algebras.append(_relabelled(catalog.ut(4), random.Random(610)))
    algebras += [build() for build, _, _ in GRADED_IDEAL_INPUTS.values()]
    monkeypatch.setattr(CochainComplex, "delta", spy)
    monkeypatch.setattr(QMatrix, "__mul__", spy_mul)
    monkeypatch.setattr(cohomology_module, "_dense", spy_dense)
    for L in algebras:
        check(L)
        hs_e2_page(L)
        result = cohomology(L, trivial_module(L))
    assert reads == []
    assert products == []
    assert dense == []
    # the spies are live: the API boundary goes through them
    assert result.representatives and dense
    assert QMatrix.identity(2) * QMatrix.identity(2) == QMatrix.identity(2) and products
    assert len(result.complex.deltas) == result.complex.top_degree and reads


# --- one map form: the pipeline against the whole-shape route -------------

def _assert_induced_maps_match_whole_shapes(L, M, label):
    """`action_on_cohomology` and, with one-dimensional trivial coefficients,
    `inflation_on_cohomology` give the maps that padding each chain map to
    its whole shape and reading `coordinates(q, whole(f) * R)` gives."""
    linf = lower_central_series(L).last
    aoc = action_on_cohomology(L, linf, M)
    coh = aoc.ideal_cohomology
    nq = aoc.quotient
    for a in range(nq.algebra.dim):
        ops = chain_action(L, linf, M, nq.lift(a))
        for q, module in enumerate(aoc.modules):
            assert module.rho[a] == whole_induced(coh, q, ops[q], coh), (label, a, q)
    if M.dim != 1 or not M.is_trivial():
        return
    coh_q = cohomology(nq.algebra, trivial_module(nq.algebra))
    report = inflation_on_cohomology(L, nq, coh_q)
    cx_L = ce_complex(L, trivial_module(L))
    maps = inflation_map(L, nq, cx_L, coh_q.complex)
    coh_L = cohomology_of(cx_L)
    assert len(report.induced) == L.dim + 1 and len(maps) == nq.algebra.dim + 1, label
    for p, f in enumerate(maps):
        assert report.induced[p] == whole_induced(coh_L, p, f, coh_q), (label, p)


def test_induced_maps_match_the_whole_shape_route():
    for name in catalog.names():
        L = catalog.get(name)
        _assert_induced_maps_match_whole_shapes(L, trivial_module(L), name)
    L = _relabelled(catalog.ut(4), random.Random(612))
    _assert_induced_maps_match_whole_shapes(L, trivial_module(L), "ut4-relabelled")
    rng = random.Random(613)
    for i in range(30):
        L = random_solvable_algebra(rng)
        _assert_induced_maps_match_whole_shapes(L, trivial_module(L), ("random", i))
    for name, (build, _, _) in sorted(GRADED_IDEAL_INPUTS.items()):
        L = build()
        for M in (trivial_module(L), adjoint_module(L)):
            _assert_induced_maps_match_whole_shapes(L, M, (name, M.dim))
    # H^*(sl2, ad) = 0 (Whitehead) and N = 0: the maps of every degree are empty
    L = catalog.sl2()
    _assert_induced_maps_match_whole_shapes(L, adjoint_module(L), "sl2-adjoint")


# --- the L^inf side of the page on the ambient weight-0 block ------------

def _whole_page(L):
    """E2 and the condition-3 test read from the whole H^*(L^inf): public
    `action_on_cohomology`, then `cohomology(N, H^q)` for each q."""
    linf = lower_central_series(L).last
    aoc = action_on_cohomology(L, linf, trivial_module(L))
    page = [cohomology(aoc.quotient.algebra, module) for module in aoc.modules]
    e2 = tuple(tuple(c.dims[p] for c in page) for p in range(aoc.quotient.algebra.dim + 1))
    return aoc.dims, e2, tuple(invariants(m).dim > 0 for m in aoc.modules[1:])


def _page_inputs():
    for name in catalog.names():
        yield name, catalog.get(name)
    rng = random.Random(1401)
    for name in catalog.names():
        yield ("relabelled", name), _relabelled(catalog.get(name), rng)
    rng = random.Random(1402)
    for i in range(60):
        yield ("random", i), random_solvable_algebra(rng)
    for name, (build, _, _) in sorted(GRADED_IDEAL_INPUTS.items()):
        yield name, build()


def test_the_page_from_the_ambient_weight_zero_part_is_the_whole_page():
    restricted = 0
    for label, L in _page_inputs():
        whole_dims, e2, invariant = _whole_page(L)
        report = check(L)
        assert hs_e2_page(L).dims == report.e2_table == e2, label
        assert report.trivial_subquotient_in_hq == invariant, label
        dims = _page(L)[1].dims
        assert len(dims) == len(whole_dims) and all(map(int.__le__, dims, whole_dims)), label
        restricted += dims != whole_dims
    # the page dropped a nonzero weight of H^*(L^inf) on many inputs
    assert restricted >= 20, restricted


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_check_on_relabelled_ut_keeps_the_kostant_weight_zero_part(n):
    # every weight of H^{>0}(strict_ut(n)) is w.rho - rho != 0 (Kostant), so
    # the page's L^inf cohomology is k in degree 0 and nothing above
    L = _relabelled(catalog.ut(n), random.Random(1410 + n))
    report = check(L)
    assert report.h_total == tuple(comb(n, k) for k in range(L.dim + 1))
    assert report.condition2 and report.condition3
    linf, aoc, _ = _page(L)
    assert aoc.dims == (1,) + (0,) * linf.dim


def test_action_on_cohomology_of_relabelled_ut4_stays_whole():
    L = _relabelled(catalog.ut(4), random.Random(1420))
    linf = lower_central_series(L).last
    assert action_on_cohomology(L, linf, trivial_module(L)).dims == _inversion_counts(4)


def test_check_on_relabelled_ut7_keeps_to_its_blocks():
    # the whole complex of L^inf = strict_ut(7) has 2^21 coordinates; the
    # ambient weight-0 block has one, and the page peaked near 1 MB
    L = _relabelled(catalog.ut(7), random.Random(1417))
    tracemalloc.start()
    try:
        report = check(L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.condition2 and report.condition3
    assert peak < 16_000_000, peak


def test_cohomology_results_hash_and_compare():
    # the sparse representatives and the pivots stay out of hash and ==
    L = catalog.heisenberg3()
    cx = ce_complex(L, trivial_module(L))
    a, b = cohomology_of(cx), cohomology_of(cx)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a.representatives == b.representatives


def test_coordinates_refuse_a_degree_outside_the_complex():
    # a negative degree once read H^q from the end: project(-1, ()) gave a
    # class in H^3 and project(-3, ()) one in H^1; past the top, IndexError
    L = catalog.heisenberg3()
    result = cohomology(L, trivial_module(L))
    for q in (-1, -3, -4, L.dim + 1, L.dim + 5):
        with pytest.raises(DimensionMismatchError):
            result.project(q, ())
        with pytest.raises(DimensionMismatchError):
            result.coordinates(q, QMatrix.zero(0, 1))
    assert result.project(L.dim, (1,)) == (Fraction(1),)


def test_inflation_on_ut7_keeps_to_its_block():
    # ut(7) has dimension 28, and its weight-0 block 2^7 = 128 coordinates
    # of the 2^28 of the whole complex: padding any map to a whole cochain
    # space allocates far more than the bound (162 MB before the maps kept
    # to block rows)
    L = catalog.ut(7)
    nq = nil_quotient(L)
    coh_q = cohomology(nq.algebra, trivial_module(nq.algebra))
    tracemalloc.start()
    try:
        report = inflation_on_cohomology(L, nq, coh_q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.is_isomorphism
    assert report.target_dims == tuple(comb(7, k) for k in range(L.dim + 1))
    assert peak < 8_000_000, peak


# --- int rows end to end ---------------------------------------------------

def test_coordinates_build_the_differential_of_their_own_degree_alone(monkeypatch):
    # the part of a cochain off the weight-0 block is checked to be a
    # cocycle on delta_q alone: building every degree took 0.39 s on ut(5)
    L = _relabelled(catalog.ut(3), random.Random(620))
    M = adjoint_module(L)
    result = cohomology(L, M)
    cx = result.complex
    off = next(b for b in range(M.dim) if b not in cx._block[0][0])
    z = cx.delta(0).apply(unit_vector(M.dim, off))      # a coboundary off the block
    assert any(a for r, a in enumerate(z) if r not in cx._block[0][1])
    asked = []
    real = cohomology_module._matrices

    def spy(groups, n, m, D, q, shift):
        asked.append(q)
        return real(groups, n, m, D, q, shift)

    monkeypatch.setattr(cohomology_module, "_matrices", spy)
    for _ in range(2):          # the second call reads the degree built by the first
        assert result.project(1, z) == (Fraction(0),) * result.dims[1]
    assert asked == [1]
    # `deltas` stays a tuple of every degree's `QMatrix`, for callers
    assert [type(d) for d in cx.deltas] == [QMatrix] * L.dim


def test_chain_map_scales_between_complexes_with_different_denominators():
    # h3 + b2, [a, b] = c and [x, y] = y: L^inf = <y>, and N = L/L^inf is
    # h3 + <x>, not abelian, so inflation meets delta f != 0.  In the fifth
    # basis drawn the complexes of N and L are ints over D = 3 and 6, and
    # the chain-map check must scale each side by the other's D
    base = LieAlgebra.from_brackets("abcxy", {(0, 1): [(1, 2)], (3, 4): [(1, 4)]})
    rng = random.Random(5)
    L = [_relabelled(base, rng) for _ in range(5)][-1]
    nq = nil_quotient(L)
    cx_L = ce_complex(L, trivial_module(L))
    cx_q = ce_complex(nq.algebra, trivial_module(nq.algebra))
    assert (cx_q._terms[1], cx_L._terms[1]) == (3, 6)
    assert any(cx_q._block[1][1].values())     # N is not abelian: delta_1 of N is nonzero
    assert inflation_map(L, nq, cx_L, cx_q)
    report = check(L)
    verify_report(report)
    assert report.condition2 and report.condition3


def test_the_engine_receives_int_rows_alone(monkeypatch):
    # every row the library eliminates is an int row: the complexes, the
    # action operators and the PBW words are ints already, and public
    # Fraction inputs are made ints once, where they enter (`linalg._ints`).
    # Its keys are ints too: coordinates, or the packed keys of PBW monomials
    seen = []
    real = linalg._reduce

    def spy(pivots, row):
        seen.append(len(row))
        assert all(type(a) is int for a in row.values()), row
        assert all(type(k) is int for k in row), row
        return real(pivots, row)

    monkeypatch.setattr(linalg, "_reduce", spy)
    check(_relabelled(catalog.ut(4), random.Random(621)))
    S = catalog.strict_ut(4)
    cohomology(S, adjoint_module(S))
    H = _h5()
    assert all(pbw.ipower_checks(H, pbw.rees_layer_table(H, 2, 3)))
    assert len(seen) > 1000


def test_cohomology_of_makes_fractions_for_its_representatives_alone(monkeypatch):
    # the echelons it eliminates stay int rows; only the solutions at the
    # columns `_complement` keeps become Fraction rows
    L = _relabelled(catalog.strict_ut(4), random.Random(622))
    cx = ce_complex(L, adjoint_module(L))
    made = []
    real = linalg._rational

    def spy(row, lead):
        made.append(lead)
        return real(row, lead)

    for module in (linalg, cohomology_module):
        monkeypatch.setattr(module, "_rational", spy)
    result = cohomology_of(cx)
    assert len(made) == sum(result.dims) > 0


def test_cohomology_of_eliminates_each_differential_once(monkeypatch):
    # one echelon of delta_q per degree (`_kernel`); the coboundaries go in
    # at delta_{q-1}'s pivot columns alone (`_complement`), with no re-span
    # of the kernel and no `_classes` pass over every column
    L = _relabelled(catalog.strict_ut(4), random.Random(623))
    cx = ce_complex(L, adjoint_module(L))
    calls = []
    real = linalg._echelon

    def spy(rows):
        calls.append(1)
        return real(rows)

    def refuse(*args):
        raise AssertionError("cohomology_of re-eliminated a span")

    for module in (linalg, cohomology_module):
        monkeypatch.setattr(module, "_echelon", spy, raising=False)
        monkeypatch.setattr(module, "_classes", refuse, raising=False)
        monkeypatch.setattr(module, "_span", refuse, raising=False)
    result = cohomology_of(cx)
    assert 0 < len(calls) <= 2 * (cx.top_degree + 1)
    assert len(result.dims) == cx.top_degree + 1 and sum(result.dims) > 0


def test_cohomology_of_solves_for_the_classes_alone(monkeypatch):
    # one canonical cocycle per class: 120 of the 572 rows of Z^q's basis on
    # relabelled strict_ut(5), 76 of the 230 on strict_ut(4) with ad
    rng = random.Random(624)
    L5, L4 = _relabelled(catalog.strict_ut(5), rng), _relabelled(catalog.strict_ut(4), rng)
    solved = []
    real = linalg._solutions

    def spy(ech, free):
        out = real(ech, free)
        solved.append(len(out))
        return out

    for module in (linalg, cohomology_module):
        monkeypatch.setattr(module, "_solutions", spy)
    for L, M, classes, cocycles in ((L5, trivial_module(L5), 120, 572),
                                    (L4, adjoint_module(L4), 76, 230)):
        cx = ce_complex(L, M)
        solved.clear()
        result = cohomology_of(cx)
        assert sum(solved) == sum(result.dims) == classes, L.labels
        assert sum(kernel(cx.delta(q)).dim for q in range(L.dim + 1)) == cocycles


def _free_columns(cx, q):
    """The weight-0 columns f at which delta_q's block has no pivot when it
    is eliminated from its largest column down: those whose column of the
    whole differential lies in the span of the block columns after f."""
    block = list(cx._block[0][q])[::-1]
    d = cx.delta(q)
    _, pivots = gauss_rref([[row[c] for c in block] for row in d.data])
    return sorted(set(block) - {block[i] for i in pivots})


def test_coordinates_refuse_a_weight_zero_vector_exactly_off_the_cocycles():
    # the refusal against the whole differential, on cocycles, coboundaries and
    # cocycles moved at one coordinate; moved off the free columns, a vector
    # keeps the entries there of a cocycle, so only its delta tells it apart
    rng = random.Random(635)
    cases = [(_relabelled(catalog.ut(3), rng), trivial_module),
             (_relabelled(catalog.ut(3), rng), adjoint_module),
             (_relabelled(catalog.strict_ut(4), rng), adjoint_module),
             (catalog.sl2(), adjoint_module)]
    seen = {"cocycle": 0, "refused": 0, "look-alike": 0}
    for L, make in cases:
        cx = ce_complex(L, make(L))
        result = cohomology_of(cx)
        zero = cx._block[0]
        for q in range(L.dim + 1):
            free = _free_columns(cx, q)
            bound = [c for c in zero[q] if c not in free]
            d, prev = cx.delta(q), cx.delta(q - 1)
            for _ in range(12):
                w = [Fraction(rng.randint(-2, 2)) if t in zero[q - 1] else Fraction(0)
                     for t in range(prev.cols)]
                z = list(prev.apply(w))
                c = [Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in result._reps[q]]
                for ci, rep in zip(c, result.representatives[q]):
                    z = [a + ci * b for a, b in zip(z, rep)]
                kind = rng.choice(("cocycle", "look-alike", "moved"))
                if kind == "look-alike" and bound:
                    z[rng.choice(bound)] += rng.choice((-2, -1, 1, 3))
                elif kind == "moved" and zero[q]:
                    z[rng.choice(list(zero[q]))] += rng.choice((-2, -1, 1, 3))
                else:
                    kind = "cocycle"
                if any(d.apply(z)):
                    with pytest.raises(ContainmentError, match="vector is not a cocycle"):
                        result.project(q, z)
                    with pytest.raises(ContainmentError, match="vector is not a cocycle"):
                        result.coordinates(q, QMatrix.from_columns([z]))
                    seen["refused"] += 1
                    seen["look-alike"] += kind == "look-alike"
                else:
                    assert kind != "look-alike"
                    got = result.project(q, z)
                    if kind == "cocycle":
                        assert got == tuple(c), (L.labels, q)
                        seen["cocycle"] += 1
    assert seen["cocycle"] > 100 and seen["refused"] > 80 and seen["look-alike"] > 40, seen


def _trace_twisted_dual(M):
    """M^* (x) k_{tr ad}: dual(M), with tr ad(x) times the identity added to
    each rho(x)."""
    L = M.algebra
    one = QMatrix.identity(M.dim)
    traces = [sum(L.c[a][i][i] for i in range(L.dim)) for a in range(L.dim)]
    return LieModule(L, [m + one.scale(t) for m, t in zip(dual(M).rho, traces)], dim=M.dim)


def test_hazewinkel_duality_ties_degree_q_to_degree_n_minus_q():
    # dim H^q(L, M) = dim H^{n-q}(L, M^* (x) k_{tr ad}) (Hazewinkel 1970):
    # two complexes eliminated by one engine, tied degree by degree; the
    # non-unimodular inputs (tr ad != 0) make the twist's sign matter
    rng = random.Random(622)
    algebras = [catalog.get(name) for name in catalog.names()]
    algebras.append(_relabelled(catalog.ut(4), rng))
    algebras += [random_solvable_algebra(rng) for _ in range(30)]
    twisted = 0
    for L in algebras:
        for M in (trivial_module(L), adjoint_module(L)):
            if 2 ** L.dim * M.dim > 5000:
                continue
            partner = _trace_twisted_dual(M)
            dims = cohomology(L, M).dims
            assert dims == cohomology(L, partner).dims[::-1], (L.labels, M.dim)
            twisted += partner != dual(M)
    assert twisted > 40         # pairs where tr ad != 0, so the twist is no plain dual
