import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from liecoh import catalog
from liecoh.checker import random_solvable_algebra
from liecoh.errors import (
    AdaptedBasisError,
    ContainmentError,
    DimensionMismatchError,
    NotAnIdealError,
    NotASubalgebraError,
    NotNilpotentError,
)
from liecoh.lie import (
    LieAlgebra,
    Quotient,
    _bracket,
    _constants,
    _flat,
    adapted_basis,
    bracket,
    bracket_span,
    derived_series,
    is_ideal,
    is_nilpotent,
    is_solvable,
    lower_central_series,
    nil_quotient,
    power_filtration,
    quotient,
    reorder_basis,
    subalgebra,
    validate,
)
from liecoh.linalg import (
    QMatrix,
    Subspace,
    _dense,
    _insert,
    _ints,
    _transpose,
    quotient_basis,
    unit_vector,
)
from oracles import (
    classes,
    dense_bracket,
    gauss_coordinates,
    gauss_rank,
    relabel,
    tag_coordinates,
)

ALL_NAMES = catalog.names()


def _unit(L, i):
    return unit_vector(L.dim, i)


# --- validation ---------------------------------------------------------

def test_catalog_validates():
    for name in ALL_NAMES:
        assert validate(catalog.get(name)).ok, name


def test_catalog_doctests():
    import doctest
    assert doctest.testmod(catalog).failed == 0


def test_abelian_validates():
    assert validate(catalog.abelian(3)).ok


def test_jacobi_violation_detected():
    # [x,y] = z, [x,z] = x, [y,z] = y: the cyclic sum on (x, y, z) is
    # [[x,y],z] + [[y,z],x] + [[z,x],y] = 0 + [y,x] + [-x,y] = -2z
    bad = LieAlgebra.from_brackets(
        "xyz", {(0, 1): [(1, 2)], (0, 2): [(1, 0)], (1, 2): [(1, 1)]})
    report = validate(bad)
    assert not report.ok
    assert report.kind == "jacobi"
    assert report.triple == (0, 1, 2)
    # recompute the cyclic sum with plain loops as an oracle
    x, y, z = (_unit(bad, i) for i in range(3))
    total = [Fraction(0)] * 3
    for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
        term = bracket(bad, bracket(bad, u, v), w)
        total = [a + b for a, b in zip(total, term)]
    assert any(total)


def test_cyclic_bracket_table_is_actually_valid():
    # [x,y] = z, [y,z] = x, [x,z] = y satisfies Jacobi (it is a form of
    # the traceless 2x2 algebra), so it must validate
    v = LieAlgebra.from_brackets(
        "xyz", {(0, 1): [(1, 2)], (1, 2): [(1, 0)], (0, 2): [(1, 1)]})
    assert validate(v).ok


def test_antisymmetry_violation_detected():
    c = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
    report = validate(LieAlgebra(c))
    assert not report.ok and report.kind == "antisymmetry"


def _dense_validation(c):
    """(kind, first failing tuple) from plain loops over dense brackets."""
    n = len(c)

    def br(u, v):
        return [sum(u[i] * v[j] * c[i][j][k] for i in range(n) for j in range(n))
                for k in range(n)]

    units = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            if any(c[i][j][k] != -c[j][i][k] for k in range(n)):
                return "antisymmetry", (i, j)
    for i in range(n):
        for j in range(i + 1, n):
            for l in range(j + 1, n):
                x, y, z = units[i], units[j], units[l]
                terms = (br(br(x, y), z), br(br(y, z), x), br(br(z, x), y))
                if any(sum(t[k] for t in terms) for k in range(n)):
                    return "jacobi", (i, j, l)
    return None, None


def test_validate_matches_dense_jacobi_on_corrupted_constants():
    rng = random.Random(401)
    seen = set()
    for _ in range(120):
        L = catalog.get(rng.choice(ALL_NAMES))
        if L.dim < 3:
            continue
        c = [[list(col) for col in row] for row in L.c]
        for _ in range(rng.randint(1, 2)):
            i, j, k = (rng.randrange(L.dim) for _ in range(3))
            delta = Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2)))
            c[i][j][k] += delta
            if rng.random() < 0.8:
                c[j][i][k] -= delta     # stays antisymmetric unless i == j
        report = validate(LieAlgebra(c, L.labels))
        kind, triple = _dense_validation(c)
        assert (report.kind, report.triple) == (kind, triple)
        assert report.ok == (kind is None)
        if triple is not None:
            assert report.labels == tuple(L.labels[t] for t in triple)
        seen.add(kind)
    assert seen == {None, "antisymmetry", "jacobi"}


# --- bracket ------------------------------------------------------------

def test_bracket_examples():
    amz = catalog.amazing_l()
    assert bracket(amz, _unit(amz, 0), _unit(amz, 1)) == (0, Fraction(2), 0, 0, 0)
    ab = catalog.abelian(3)
    assert not any(bracket(ab, (1, 2, 3), (4, 5, 6)))
    A = catalog.example_a()
    assert bracket(A, _unit(A, 0), _unit(A, 1)) == (0, Fraction(1))


def test_bracket_bilinear():
    H = catalog.heisenberg3()
    u = (Fraction(2), Fraction(1), Fraction(0))
    v = (Fraction(0), Fraction(3), Fraction(-1))
    lhs = bracket(H, u, v)
    rhs = [Fraction(0)] * 3
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            term = bracket(H, _unit(H, i), _unit(H, j))
            rhs = [r + a * b * t for r, t in zip(rhs, term)]
    assert lhs == tuple(rhs)


def test_bracket_span_matches_dense_brackets_of_basis_rows():
    # the span of [u, v] over basis rows u, v, each bracket summed over
    # every index triple of the raw constants
    rng = random.Random(405)
    for _ in range(40):
        L = catalog.get(rng.choice(ALL_NAMES))
        n = L.dim
        spaces = [Subspace.from_rows(n, [[Fraction(rng.randint(-2, 2)) for _ in range(n)]
                                         for _ in range(rng.randint(0, n))]) for _ in range(2)]
        spaces += lower_central_series(L).terms
        a, b = rng.choice(spaces), rng.choice(spaces)
        rows = [[sum((u[i] * v[j] * L.c[i][j][k] for i in range(n) for j in range(n)),
                     Fraction(0)) for k in range(n)]
                for u in a.basis.data for v in b.basis.data]
        assert bracket_span(L, a, b) == Subspace.from_rows(n, rows)


# --- series -------------------------------------------------------------

def test_lower_central_series_examples():
    ab = catalog.abelian(3)
    chain = lower_central_series(ab)
    assert chain.dims == (3, 0)
    assert chain.stabilized

    A = catalog.example_a()
    chain = lower_central_series(A)
    assert chain.dims == (2, 1)
    assert chain.last.contains((0, 1))   # spanned by y

    amz = catalog.amazing_l()
    chain = lower_central_series(amz)
    assert chain.last == Subspace.from_rows(5, [unit_vector(5, i) for i in (1, 2, 3, 4)])


def test_series_terms_are_ideals_and_decreasing():
    for name in ALL_NAMES:
        L = catalog.get(name)
        chain = lower_central_series(L)
        assert len(chain.terms) <= L.dim + 1
        for prev, term in zip(chain.terms, chain.terms[1:]):
            assert term <= prev
            assert term.dim < prev.dim
        for term in chain.terms:
            assert is_ideal(L, term)
        # stabilization really happened: one more step reproduces the last term
        assert bracket_span(L, Subspace.full(L.dim), chain.last) == chain.last


def test_nilpotent_solvable_verdicts():
    assert is_nilpotent(catalog.heisenberg3())
    assert is_solvable(catalog.heisenberg3())
    A = catalog.example_a()
    assert is_solvable(A) and not is_nilpotent(A)
    s = catalog.sl2()
    assert not is_solvable(s) and not is_nilpotent(s)
    # series of the simple algebra never shrink
    assert lower_central_series(s).dims == (3,)
    assert derived_series(s).dims == (3,)


def test_power_filtration_matches_lower_central_series():
    for name in ALL_NAMES:
        L = catalog.get(name)
        assert power_filtration(L).terms == lower_central_series(L).terms, name


# --- quotients ----------------------------------------------------------

def test_quotient_by_zero_ideal_is_isomorphic_copy():
    H = catalog.heisenberg3()
    q = quotient(H, Subspace.zero(3))
    assert q.algebra.c == H.c
    assert q.algebra.labels == ("x_bar", "y_bar", "z_bar")
    assert q.projection * q.section == type(q.projection).identity(3)


def test_nil_quotients():
    A = catalog.example_a()
    qa = nil_quotient(A)
    assert qa.algebra.dim == 1
    assert qa.algebra.labels == ("x_bar",)
    assert is_nilpotent(qa.algebra)

    amz = catalog.amazing_l()
    qm = nil_quotient(amz)
    assert qm.algebra.dim == 1
    assert qm.algebra.labels == ("t_bar",)

    for name in ALL_NAMES:
        assert is_nilpotent(nil_quotient(catalog.get(name)).algebra), name


def test_quotient_requires_ideal():
    s = catalog.sl2()
    # span{e} is not an ideal of sl2
    with pytest.raises(NotAnIdealError):
        quotient(s, Subspace.from_rows(3, [unit_vector(3, 1)]))


def test_projection_kills_ideal_and_respects_bracket():
    P = catalog.prop_c()
    linf = lower_central_series(P).last
    q = quotient(P, linf)
    for row in linf.basis.data:
        assert not any(q.projection.apply(row))
    # projection is a Lie homomorphism on lifted pairs
    for a in range(q.algebra.dim):
        for b in range(q.algebra.dim):
            lifted = bracket(P, q.lift(a), q.lift(b))
            down = q.projection.apply(lifted)
            direct = bracket(q.algebra, unit_vector(q.algebra.dim, a),
                             unit_vector(q.algebra.dim, b))
            assert down == direct


# --- subalgebras --------------------------------------------------------

def test_subalgebra_of_stable_term():
    amz = catalog.amazing_l()
    linf = lower_central_series(amz).last
    sub, incl = subalgebra(amz, linf)
    assert sub.dim == 4
    assert sub.labels == ("x", "y", "z", "w")
    assert validate(sub).ok
    # inclusion intertwines the brackets
    u = unit_vector(4, 0)
    v = unit_vector(4, 1)
    inside = bracket(sub, u, v)
    outside = bracket(amz, incl.apply(u), incl.apply(v))
    assert incl.apply(inside) == outside


def test_subalgebra_rejects_non_closed_span():
    s = catalog.sl2()
    from liecoh.errors import NotASubalgebraError
    with pytest.raises(NotASubalgebraError):
        subalgebra(s, Subspace.from_rows(3, [unit_vector(3, 1), unit_vector(3, 2)]))
    span = Subspace.from_rows(3, [unit_vector(3, 1), unit_vector(3, 2)])
    assert not bracket_span(s, span, span) <= span


# --- adapted bases ------------------------------------------------------

def test_adapted_basis_examples():
    assert adapted_basis(catalog.abelian(2)).nu == (1, 1)
    ab = adapted_basis(catalog.heisenberg3())
    assert ab.nu == (1, 1, 2)
    assert ab.order == (0, 1, 2)          # z already last
    ab2 = adapted_basis(catalog.strict_ut(3))
    assert ab2.nu == (1, 1, 2)


def test_adapted_basis_requires_nilpotent():
    with pytest.raises(NotNilpotentError):
        adapted_basis(catalog.example_a())


def test_adapted_basis_spans_and_key_inequality():
    for name in ("abelian4", "heisenberg3", "strict-ut3"):
        L = catalog.get(name)
        ab = adapted_basis(L)
        chain = power_filtration(L)
        n = L.dim
        assert all(a <= b for a, b in zip(ab.nu, ab.nu[1:]))
        for d in range(1, len(chain.terms) + 1):
            tail = [unit_vector(n, ab.order[p]) for p in range(n) if ab.nu[p] >= d]
            assert Subspace.from_rows(n, tail) == chain.term(d), (name, d)
        # bracket of adapted elements lands in the expected tail span
        for p in range(n):
            for q in range(n):
                w = bracket(L, unit_vector(n, ab.order[p]), unit_vector(n, ab.order[q]))
                tail = [unit_vector(n, ab.order[r]) for r in range(n)
                        if ab.nu[r] >= ab.nu[p] + ab.nu[q]]
                assert Subspace.from_rows(n, tail).contains(w), (name, p, q)


def test_adapted_basis_incompatible_coordinates():
    # heisenberg in the skewed basis f1 = x, f2 = y, f3 = x + z:
    # [f1, f2] = z = f3 - f1 and [f2, f3] = [y, x] = -z = f1 - f3, so the
    # filtration term span{f3 - f1} is not a coordinate subspace
    skew = LieAlgebra.from_brackets(
        "abc", {(0, 1): [(-1, 0), (1, 2)], (1, 2): [(1, 0), (-1, 2)]})
    assert validate(skew).ok
    assert is_nilpotent(skew)
    with pytest.raises(AdaptedBasisError):
        adapted_basis(skew)


def test_adapted_basis_refuses_every_non_nilpotent_algebra_first():
    refused = [name for name in catalog.names() if not is_nilpotent(catalog.get(name))]
    assert refused
    for name in refused:
        with pytest.raises(NotNilpotentError):
            adapted_basis(catalog.get(name))
    # the Borel algebra in the basis f1 = x, f2 = x + y: [f1, f2] = f2 - f1, so
    # L^inf = span{f2 - f1} is no coordinate subspace, but nilpotency comes first
    skew = LieAlgebra.from_brackets("ab", {(0, 1): [(-1, 0), (1, 1)]})
    assert validate(skew).ok and lower_central_series(skew).last.dim == 1
    with pytest.raises(NotNilpotentError):
        adapted_basis(skew)


def test_reorder_basis_roundtrip():
    L = catalog.strict_ut(3)
    perm = (2, 0, 1)
    R = reorder_basis(L, perm)
    assert validate(R).ok
    inv = tuple(perm.index(i) for i in range(3))
    assert reorder_basis(R, inv).c == L.c


# --- matrix-built algebras ---------------------------------------------

def test_ut3_structure_from_commutators():
    U = catalog.ut(3)
    # labels: E11 E22 E33 E12 E23 E13
    i = {lab: k for k, lab in enumerate(U.labels)}
    e = lambda lab: unit_vector(6, i[lab])
    assert bracket(U, e("E11"), e("E12")) == e("E12")
    assert bracket(U, e("E22"), e("E12")) == tuple(-a for a in e("E12"))
    assert bracket(U, e("E12"), e("E23")) == e("E13")
    assert bracket(U, e("E11"), e("E22")) == (0,) * 6


def test_prop_c_structure():
    P = catalog.prop_c()
    i = {lab: k for k, lab in enumerate(P.labels)}
    e = lambda lab: unit_vector(5, i[lab])
    # D1 = E11 + E33: [D1, E12] = E12, [D1, E23] = -E23, [D1, E13] = 0
    assert bracket(P, e("D1"), e("E12")) == e("E12")
    assert bracket(P, e("D1"), e("E23")) == tuple(-a for a in e("E23"))
    assert bracket(P, e("D1"), e("E13")) == (0,) * 5
    linf = lower_central_series(P).last
    assert linf == Subspace.from_rows(5, [e("E12"), e("E23"), e("E13")])


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_from_matrices_reproduces_the_commutators():
    # ut(3) and strict_ut(4) on random invertible rational combinations of
    # their matrix units, checked with plain list arithmetic: the constants
    # are antisymmetric and sum_k c_ij^k M_k = M_i M_j - M_j M_i
    rng = random.Random(1104)
    for t in range(30):
        n, lo = ((3, 0), (4, 1))[t % 2]
        units = [[[int((r, c) == (i, j)) for c in range(n)] for r in range(n)]
                 for i in range(n) for j in range(i + lo, n)]
        A = [[0]]
        while gauss_rank(A) < len(units):
            A = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in units] for _ in units]
        mats = [[[sum(a * u[r][c] for a, u in zip(row, units)) for c in range(n)]
                 for r in range(n)] for row in A]
        L = LieAlgebra.from_matrices([f"b{k}" for k in range(len(mats))], mats)
        for i in range(L.dim):
            for j in range(L.dim):
                assert L.c[i][j] == tuple(-x for x in L.c[j][i])
                if i < j:
                    comm = [[x - y for x, y in zip(p, q)]
                            for p, q in zip(_matmul(mats[i], mats[j]), _matmul(mats[j], mats[i]))]
                    got = [[sum(g * m[r][c] for g, m in zip(L.c[i][j], mats)) for c in range(n)]
                           for r in range(n)]
                    assert got == comm, (t, i, j)


def test_random_reordered_series_invariant():
    rng = random.Random(7)
    H = catalog.heisenberg3()
    for _ in range(5):
        perm = list(range(3))
        rng.shuffle(perm)
        R = reorder_basis(H, tuple(perm))
        assert lower_central_series(R).dims == (3, 1, 0)
        assert is_nilpotent(R)


# --- the int bracket path against dense brackets --------------------------

def _ut3_in_random_basis(rng):
    """ut(3) on random integer combinations of its matrix units: its series
    terms are no coordinate subspaces, so their canonical int rows do not
    all lead with 1."""
    units = [[[int((r, c) == (i, j)) for c in range(3)] for r in range(3)]
             for i in range(3) for j in range(i, 3)]
    A = [[1]]
    while gauss_rank(A) < len(units):
        A = [[rng.randint(-2, 2) for _ in units] for _ in units]
    mats = [[[sum(a * u[r][c] for a, u in zip(row, units)) for c in range(3)]
             for r in range(3)] for row in A]
    return LieAlgebra.from_matrices([f"b{k}" for k in range(len(units))], mats)


def _oracle_cases(rng):
    """(algebra, subspaces) pairs: relabelled catalog algebras, ut(4) and ut(3)
    in random bases, each with random spans (most neither closed nor
    ideals), one-vector spans (always closed) and the terms of both series."""
    bases = [catalog.get(name) for name in ALL_NAMES] + [catalog.ut(4)]
    bases += [_ut3_in_random_basis(rng) for _ in range(2)]
    for base in bases:
        L = LieAlgebra(*relabel(base.c, base.labels, rng))
        n = L.dim
        spans = [Subspace.from_rows(n, [[Fraction(rng.randint(-2, 2)) for _ in range(n)]
                                        for _ in range(k)])
                 for k in (1, rng.randint(0, n), rng.randint(0, n))]
        spans += lower_central_series(L).terms + derived_series(L).terms
        yield L, spans


def _dense_closed(L, sub, ambient):
    """Whether [a, b] lies in sub for every a in `ambient`, b in sub's basis."""
    rows = sub.basis.data
    hits = [dense_bracket(L.c, a, b) for a in ambient for b in rows]
    return gauss_rank(list(rows) + hits) == len(rows)


def test_closure_tests_match_dense_brackets():
    rng = random.Random(1101)
    seen = set()
    for L, spans in _oracle_cases(rng):
        units = [_unit(L, i) for i in range(L.dim)]
        for sub in spans:
            ideal = _dense_closed(L, sub, units)
            closed = _dense_closed(L, sub, sub.basis.data)
            assert is_ideal(L, sub) == ideal, (L, sub)
            assert (bracket_span(L, sub, sub) <= sub) == closed, (L, sub)
            seen.add((ideal, closed))
    # ideals, closed non-ideals and unclosed spans all occurred
    assert {(True, True), (False, True), (False, False)} <= seen


def test_subalgebra_and_quotient_constants_match_dense_brackets():
    rng = random.Random(1102)
    for L, spans in _oracle_cases(rng):
        for sub in spans:
            rows = sub.basis.data
            if not _dense_closed(L, sub, rows):
                with pytest.raises(NotASubalgebraError):
                    subalgebra(L, sub)
                continue
            S, inclusion = subalgebra(L, sub)
            assert inclusion.transpose().data == rows
            for a, u in enumerate(rows):
                for b, v in enumerate(rows):
                    assert list(S.c[a][b]) == gauss_coordinates(rows, dense_bracket(L.c, u, v))
            if not _dense_closed(L, sub, [_unit(L, i) for i in range(L.dim)]):
                continue
            q = quotient(L, sub)
            lifts = [q.lift(a) for a in range(q.algebra.dim)]
            for a, u in enumerate(lifts):
                for b, v in enumerate(lifts):
                    # coordinates on the lifts, modulo the ideal's basis
                    coords = gauss_coordinates(lifts + list(rows), dense_bracket(L.c, u, v))
                    assert list(q.algebra.c[a][b]) == coords[:len(lifts)]


def test_closed_span_that_is_no_ideal():
    # span{e} of sl2 and span{x} of the Heisenberg algebra are closed, and
    # bracketing with the rest of the algebra leaves them
    for L, i in ((catalog.sl2(), 1), (catalog.heisenberg3(), 0)):
        line = Subspace.from_rows(L.dim, [_unit(L, i)])
        assert bracket_span(L, line, line) <= line
        assert not is_ideal(L, line)
        assert subalgebra(L, line)[0].dim == 1
        with pytest.raises(NotAnIdealError):
            quotient(L, line)


def test_closure_tests_reject_a_wrong_ambient_dimension():
    H = catalog.heisenberg3()
    for n in (2, 4):
        full = Subspace.full(n)
        with pytest.raises(DimensionMismatchError):
            bracket_span(H, full, full)
        with pytest.raises(DimensionMismatchError):
            bracket_span(H, Subspace.full(3), full)
        with pytest.raises(DimensionMismatchError):
            is_ideal(H, full)


# --- one greedy complement against the `classes` route -------------------

def _rebased(L, rng):
    """L in the basis f_a = sum_i A[a][i] e_i for a random invertible
    integer matrix A, each [f_a, f_b] solved for on the f."""
    n = L.dim
    A = [[1]] * (n > 0)
    while gauss_rank(A) < n:
        A = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
    return LieAlgebra([[gauss_coordinates(A, dense_bracket(L.c, u, v)) for v in A] for u in A],
                      L.labels)


def _classes_algebra(labels, pivots, n, bracket):
    """The algebra on the rows the oracle's `classes` tags at keys n + i,
    each bracket(i, j) read on the tags, as `lie` read it on `classes`."""
    brackets = {}
    for i, j in combinations(range(len(labels)), 2):
        try:
            coords = tag_coordinates(pivots, n, bracket(i, j))
        except ContainmentError:
            raise NotASubalgebraError(
                f"[{labels[i]}, {labels[j]}] falls outside the span") from None
        brackets[i, j] = [(a, k) for k, a in coords.items()]
    return LieAlgebra.from_brackets(labels, brackets)


def _on_classes(L, small_rows, big, suffix):
    """(pivots, chosen, algebra): the algebra on the rows `classes` keeps
    of big modulo the small rows, labelled at their pivots plus suffix."""
    pivots, chosen = classes(small_rows, big)
    D, table = _constants(L)
    labels = [L.labels[min(row)] + suffix for row in chosen]
    return pivots, chosen, _classes_algebra(labels, pivots, L.dim, lambda i, j: {
        k: x / D for k, x in _bracket(table, chosen[i], chosen[j]).items()})


def _classes_quotient(L, ideal):
    n = L.dim
    pivots, chosen, algebra = _on_classes(L, ideal._rows.values(), Subspace.full(n), "_bar")
    projection = QMatrix._wrap(_transpose(
        [tag_coordinates(pivots, n, {j: Fraction(1)}) for j in range(n)], len(chosen)), n)
    return Quotient(algebra, projection, QMatrix._wrap(_transpose(chosen, n), len(chosen)))


def _classes_subalgebra(L, sub):
    return _on_classes(L, (), sub, "")[2], sub.basis.transpose()


def _classes_from_matrices(labels, matrices):
    # matrix s tagged at key size**2 + s, past every flattened coordinate
    mats = [QMatrix(m) for m in matrices]
    ambient = mats[0].rows ** 2
    pivots: dict = {}
    for s, m in enumerate(mats):
        _insert(pivots, _ints({**_flat(m), ambient + s: 1})[0])
    if any(lead >= ambient for lead in pivots):
        raise NotASubalgebraError("matrices are linearly dependent")
    return _classes_algebra(tuple(labels), pivots, ambient,
                            lambda i, j: _flat(mats[i] * mats[j] - mats[j] * mats[i]))


def _classes_quotient_basis(big, small):
    return [_dense(row, big.ambient_dim) for row in classes(small._rows.values(), big)[1]]


def _outcome(call, *args):
    """What a call returns, or the type and message of the error it raises."""
    try:
        return call(*args)
    except (ContainmentError, NotASubalgebraError) as e:
        return type(e), str(e)


def test_one_complement_gives_what_the_classes_route_gave():
    # on GL_n(Q)-rebased catalog algebras and random solvable draws,
    # quotient, subalgebra and quotient_basis on every span and pair of
    # spans give the lifts, labels, projection, section and constants the
    # oracle's `classes` route gives, refusals included
    rng = random.Random(1105)
    cases = [_rebased(catalog.get(name), rng) for name in ALL_NAMES]
    cases += [random_solvable_algebra(rng) for _ in range(25)]
    seen = Counter()
    for L in cases:
        n = L.dim
        spans = list(lower_central_series(L).terms + derived_series(L).terms)
        spans += [Subspace.from_rows(n, [[rng.randint(-2, 2) for _ in range(n)]
                                         for _ in range(k)])
                  for k in (1, 2, 2, rng.randint(0, n))]
        for sub in spans:
            if is_ideal(L, sub):
                assert quotient(L, sub) == _classes_quotient(L, sub)
                seen["quotient"] += 1
            got = _outcome(subalgebra, L, sub)
            assert got == _outcome(_classes_subalgebra, L, sub)
            seen["subalgebra", type(got) is tuple and got[0] is NotASubalgebraError] += 1
            for big in spans:
                got = _outcome(quotient_basis, big, sub)
                assert got == _outcome(_classes_quotient_basis, big, sub)
                seen["quotient_basis", type(got) is tuple] += 1
    # from_matrices on random combinations of matrix units: independent,
    # dependent, closed and unclosed
    for t in range(24):
        n, lo = ((3, 0), (4, 1), (3, 1), (2, 0))[t % 4]
        units = [[[int((r, c) == (i, j)) for c in range(n)] for r in range(n)]
                 for i in range(n) for j in range(i + lo, n)]
        A = [[rng.randint(-2, 2) for _ in units] for _ in range(len(units) - (t % 3 == 2))]
        if t % 5 == 4:
            A.append([a + b for a, b in zip(A[0], A[-1])])
        mats = [[[sum(a * u[r][c] for a, u in zip(row, units)) for c in range(n)]
                 for r in range(n)] for row in A]
        labels = [f"b{k}" for k in range(len(mats))]
        got = _outcome(LieAlgebra.from_matrices, labels, mats)
        assert got == _outcome(_classes_from_matrices, labels, mats)
        seen["from_matrices", type(got) is tuple] += 1
    assert seen["quotient"] > 100
    for name in ("subalgebra", "quotient_basis", "from_matrices"):
        assert seen[name, False] > 10 and seen[name, True] > 3, (name, seen)


# --- the int table is the algebra ------------------------------------------

def _scan_constants(c):
    """(D, table) by a scan of every cell of a dense table: D the lcm of the
    nonzero entries' denominators, table[i][j] the (k, D * c_ij^k), k ascending."""
    D = lcm(*[g.denominator for row in c for col in row for g in col if g])
    return D, tuple(tuple(tuple((k, g.numerator * (D // g.denominator)) for k, g in enumerate(col)
                                if g) for col in row) for row in c)


def _assert_one_algebra(c, labels, *built):
    """LieAlgebra(c, labels), from_brackets on the sparse terms of c and each
    algebra in `built` are one algebra in ==, hash, .c, _constants,
    bracket_matrix and reorder_basis, against the dense formulas."""
    n = len(c)
    dense = LieAlgebra(c, labels)
    sparse = LieAlgebra.from_brackets(labels, {
        (i, j): [(g, k) for k, g in enumerate(c[i][j]) if g]
        for i in range(n) for j in range(i + 1, n)})
    order = list(range(n))
    random.Random(n).shuffle(order)
    permuted = LieAlgebra([[[c[order[p]][order[q]][k] for k in order] for q in range(n)]
                           for p in range(n)], [str(labels[i]) for i in order])
    for L in (dense, sparse, *built):
        assert L == dense and hash(L) == hash(dense)
        assert L.c == tuple(tuple(tuple(map(Fraction, col)) for col in row) for row in c)
        assert _constants(L) == _scan_constants(L.c)
        for i in range(n):
            assert L.bracket_matrix(i) == QMatrix.from_columns([c[i][j] for j in range(n)],
                                                               rows=n)
        R = reorder_basis(L, order)
        assert R == permuted and hash(R) == hash(permuted)
        assert R.c == permuted.c and _constants(R) == _constants(permuted)


def _in_random_basis(mats, rng):
    """Random invertible rational combinations of the matrices, and the
    dense constants of their span read on them by the oracle."""
    A = [[0]]
    while gauss_rank(A) < len(mats):
        A = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in mats] for _ in mats]
    size = len(mats[0])
    new = [[[sum(a * m[r][s] for a, m in zip(row, mats)) for s in range(size)]
            for r in range(size)] for row in A]
    flat = [[x for row in m for x in row] for m in new]
    c = [[gauss_coordinates(flat, [x - y for p, q in zip(_matmul(u, v), _matmul(v, u))
                                   for x, y in zip(p, q)]) for v in new] for u in new]
    return new, c


def test_from_brackets_builds_the_table_the_dense_constants_give():
    rng = random.Random(3401)
    for name in ALL_NAMES:
        L = catalog.get(name)
        _assert_one_algebra(L.c, L.labels, L)
        R = _rebased(L, rng)
        _assert_one_algebra(R.c, R.labels, R)
    # matrix algebras in a GL_n(Q) basis, through from_matrices
    families = [[[[int((r, s) == (i, j)) for s in range(n)] for r in range(n)]
                 for i in range(n) for j in range(i + lo, n)] for n in (2, 3, 4) for lo in (0, 1)]
    families.append([[[1, 0], [0, -1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]])       # sl2
    for units in families:
        mats, c = _in_random_basis(units, rng)
        labels = [f"b{k}" for k in range(len(mats))]
        M = LieAlgebra.from_matrices(labels, mats)
        assert _constants(M)[0] > 1 or len(mats) < 3
        _assert_one_algebra(c, labels, M)
    for _ in range(25):
        S = random_solvable_algebra(rng)
        _assert_one_algebra(S.c, S.labels, S)


def test_terms_that_cancel_leave_no_entry_and_no_denominator():
    half = Fraction(1, 2)
    L = LieAlgebra.from_brackets("xyz", {(0, 1): [(half, 2), (3, 0), (-half, 2)],
                                         (1, 2): [(1, 0), (-1, 0)]})
    assert _constants(L) == (1, (((), ((0, 3),), ()), (((0, -3),), (), ()), ((), (), ())))
    _assert_one_algebra(L.c, L.labels, L)
    assert L == LieAlgebra.from_brackets("xyz", {(0, 1): [(3, 0)]})
