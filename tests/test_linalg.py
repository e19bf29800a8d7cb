import math
import random
from fractions import Fraction

import pytest

from liecoh.errors import ContainmentError, DimensionMismatchError
from liecoh.linalg import (
    QMatrix,
    Subspace,
    _complement,
    _echelon,
    _insert,
    _ints,
    _kernel,
    _rational,
    _reduce,
    _span,
    _tag_coordinates,
    image,
    kernel,
    quotient_basis,
    rank,
    rref,
    rref_transform,
    unit_vector,
    vector,
)

from oracles import classes, gauss_rank, gauss_rref, tag_coordinates


def test_rank_examples():
    assert rank(QMatrix.identity(2)) == 2
    assert rank(QMatrix.zero(3, 4)) == 0
    assert rank(QMatrix([[1, 2], [2, 4]])) == 1


def test_rank_with_fractions():
    m = QMatrix([["1/2", "1/3"], ["1/4", "1/6"]])
    assert rank(m) == 1
    m2 = QMatrix([["1/2", "1/3"], ["1/4", "1/5"]])
    assert rank(m2) == 2


def test_kernel_examples():
    assert kernel(QMatrix.identity(3)).dim == 0
    assert kernel(QMatrix.zero(2, 3)) == Subspace.full(3)
    k = kernel(QMatrix([[1, 1]]))
    assert k.dim == 1
    assert k.contains([1, -1])
    assert not k.contains([1, 1])


def test_rank_nullity_random():
    rng = random.Random(101)
    for _ in range(60):
        rows = rng.randrange(0, 6)
        cols = rng.randrange(1, 6)
        m = QMatrix([[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                      for _ in range(cols)] for _ in range(rows)], cols=cols)
        # rank and kernel share one elimination engine, so this is a
        # consistency check; the oracle tests below are the second route
        assert rank(m) + kernel(m).dim == cols


def _random_matrix(rng, max_rows=6, max_cols=6):
    rows = rng.randrange(0, max_rows)
    cols = rng.randrange(1, max_cols)
    # few distinct entries, so that low rank turns up often
    return QMatrix([[Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                     for _ in range(cols)] for _ in range(rows)], cols=cols)


def test_rank_matches_oracle_random():
    rng = random.Random(105)
    for _ in range(200):
        m = _random_matrix(rng)
        assert rank(m) == gauss_rank(m.data)


def test_rref_transform_random():
    rng = random.Random(106)
    for _ in range(100):
        m = _random_matrix(rng)
        R, T, pivots = rref_transform(m)
        assert T * m == R
        assert gauss_rank(T.data) == m.rows
        assert (R, pivots) == rref(m)
        assert len(pivots) == gauss_rank(m.data)
        for r, p in enumerate(pivots):
            assert R.column(p) == unit_vector(m.rows, r)


def test_quotient_basis_matches_naive_greedy_random():
    rng = random.Random(107)
    for _ in range(60):
        n = rng.randrange(1, 6)
        big = _random_subspace(rng, n)
        combos = [[rng.randint(-2, 2) for _ in range(big.dim)]
                  for _ in range(rng.randrange(0, n + 1))]
        small = Subspace.from_rows(n, [
            [sum(f * row[j] for f, row in zip(combo, big.basis.data)) for j in range(n)]
            for combo in combos])
        chosen = []
        for row in big.basis.data:
            before = gauss_rank(small.basis.data + tuple(chosen))
            if gauss_rank(small.basis.data + tuple(chosen) + (row,)) > before:
                chosen.append(row)
        assert quotient_basis(big, small) == chosen


def test_matrix_arithmetic():
    a = QMatrix([[1, 2], [3, 4]])
    b = QMatrix([[0, 1], [1, 0]])
    assert a * b == QMatrix([[2, 1], [4, 3]])
    assert (a + b) - b == a
    assert a.scale(2) == a + a
    assert a.transpose().transpose() == a
    assert a.apply((1, 0)) == (Fraction(1), Fraction(3))
    with pytest.raises(DimensionMismatchError):
        a * QMatrix.identity(3)
    with pytest.raises(DimensionMismatchError):
        a + QMatrix.identity(3)


def test_empty_shapes():
    z = QMatrix.zero(0, 3)
    assert rank(z) == 0
    assert kernel(z) == Subspace.full(3)
    tall = QMatrix.zero(3, 0)
    assert rank(tall) == 0
    assert kernel(tall).ambient_dim == 0
    prod = QMatrix.zero(2, 0) * QMatrix.zero(0, 5)
    assert prod == QMatrix.zero(2, 5)


def test_cols_must_agree_with_the_rows():
    assert QMatrix([], cols=5).cols == 5
    assert QMatrix([[1, 2]], cols=2) == QMatrix([[1, 2]])
    for cols in (0, 1, 5):
        with pytest.raises(DimensionMismatchError):
            QMatrix([[1, 2]], cols=cols)


def test_a_matrix_without_rows_refuses_a_negative_width():
    # a 0 x -3 matrix would give a kernel inside Q^-3
    with pytest.raises(DimensionMismatchError):
        QMatrix([], cols=-3)
    assert kernel(QMatrix([], cols=0)).ambient_dim == 0


def test_zero_refuses_a_negative_size():
    for rows, cols in ((2, -3), (-1, 2), (-1, -1)):
        with pytest.raises(DimensionMismatchError):
            QMatrix.zero(rows, cols)
    assert QMatrix.zero(0, 0).rows == 0


def test_identity_refuses_a_negative_size():
    with pytest.raises(DimensionMismatchError):
        QMatrix.identity(-2)
    assert QMatrix.identity(0) == QMatrix.zero(0, 0)


def test_column_indices_wrap_as_entry_indices_do():
    m = QMatrix([[1, 2], [3, 4]])
    for j in range(-2, 2):
        assert m.column(j) == (m[0, j], m[1, j])
    assert m.column(-1) == (2, 4)
    for j in (-3, 2, 5):
        with pytest.raises(IndexError):
            m.column(j)
    with pytest.raises(IndexError):
        QMatrix.zero(3, 0).column(0)


def test_from_columns_refuses_columns_of_another_length_than_rows():
    # like `cols` of the constructor: rows must agree with the columns given
    with pytest.raises(DimensionMismatchError):
        QMatrix.from_columns([[1, 2]], rows=5)
    with pytest.raises(DimensionMismatchError):
        QMatrix.from_columns([[1, 2], [3]])
    with pytest.raises(DimensionMismatchError):
        QMatrix.from_columns([], rows=-1)
    assert QMatrix.from_columns([[1, 2]], rows=2) == QMatrix([[1], [2]])
    assert QMatrix.from_columns([], rows=3) == QMatrix.zero(3, 0)


def test_subspace_canonical_and_idempotent():
    s = Subspace.from_rows(3, [[2, 4, 0], [1, 2, 1]])
    again = Subspace.from_rows(3, s.basis.data)
    assert s == again
    r, pivots = rref(s.basis)
    assert r == s.basis
    assert len(pivots) == s.dim


def test_subspace_constructor_needs_its_canonical_basis():
    line = Subspace.from_rows(2, [[1, 0]])
    assert Subspace(2, QMatrix([[1, 0]])) == line
    assert Subspace(3, QMatrix([[1, 2, 0], [0, 0, 1]])).pivots() == (0, 2)
    for bad in (QMatrix([[2, 0]]),              # not scaled to 1 at its pivot
                QMatrix([[1, 0], [1, 0]]),      # dependent rows
                QMatrix([[1, 1], [0, 1]]),      # not reduced above a pivot
                QMatrix([[0, 1], [1, 0]]),      # pivots out of order
                QMatrix([[1, 0], [0, 0]])):     # a zero row
        with pytest.raises(ValueError):
            Subspace(2, bad)
    with pytest.raises(DimensionMismatchError):
        Subspace(3, QMatrix([[1, 0]]))
    assert Subspace.zero(3).dim == 0
    assert Subspace.full(3) == Subspace.from_rows(3, [[1, 2, 3], [0, 1, 0], [0, 0, 5]])


def test_subspace_lattice_examples():
    a = Subspace.from_rows(2, [[1, 0]])
    b = Subspace.from_rows(2, [[0, 1]])
    c = Subspace.from_rows(2, [[1, 1]])
    assert (a & b).dim == 0
    assert a + c == Subspace.full(2)
    lifted = quotient_basis(Subspace.full(2), a)
    assert len(lifted) == 1 and lifted[0][1] != 0


def test_quotient_basis_containment_error():
    big = Subspace.from_rows(3, [[1, 0, 0]])
    small = Subspace.from_rows(3, [[0, 1, 0]])
    with pytest.raises(ContainmentError):
        quotient_basis(big, small)


def test_dimension_mismatch_on_lattice_ops():
    a = Subspace.full(2)
    b = Subspace.full(3)
    with pytest.raises(DimensionMismatchError):
        a + b
    with pytest.raises(DimensionMismatchError):
        a & b


def _random_subspace(rng, n):
    rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
            for _ in range(rng.randrange(0, n + 1))]
    return Subspace.from_rows(n, rows)


def test_modular_dimension_law_random():
    rng = random.Random(202)
    for _ in range(40):
        n = rng.randrange(1, 6)
        a = _random_subspace(rng, n)
        b = _random_subspace(rng, n)
        assert a.dim + b.dim == (a + b).dim + (a & b).dim


def test_sum_and_intersection_bounds_random():
    rng = random.Random(203)
    for _ in range(30):
        n = rng.randrange(1, 6)
        a = _random_subspace(rng, n)
        b = _random_subspace(rng, n)
        assert (a & b) <= a and (a & b) <= b
        assert a <= (a + b) and b <= (a + b)


def test_image_is_column_space():
    m = QMatrix([[1, 0, 1], [0, 1, 1]])
    img = image(m)
    assert img == Subspace.full(2)
    assert image(QMatrix.zero(3, 2)).dim == 0


def test_coordinates_roundtrip():
    s = Subspace.from_rows(3, [[1, 2, 0], [0, 0, 1]])
    v = tuple(Fraction(x) for x in (2, 4, 5))
    coords = s.coordinates(v)
    rebuilt = [Fraction(0)] * 3
    for c, row in zip(coords, s.basis.data):
        rebuilt = [r + c * a for r, a in zip(rebuilt, row)]
    assert tuple(rebuilt) == v
    with pytest.raises(ContainmentError):
        s.coordinates(unit_vector(3, 0))


def test_unit_vector_refuses_an_index_out_of_range():
    # an index past the end, or a negative one, once gave the zero vector
    assert unit_vector(3, 2) == (Fraction(0), Fraction(0), Fraction(1))
    for n, i in ((3, 3), (3, 5), (3, -1), (0, 0)):
        with pytest.raises(IndexError):
            unit_vector(n, i)


def _float_inputs():
    from liecoh.lie import LieAlgebra
    from liecoh.pbw import UEAElement
    from liecoh.rep import LieModule

    h3 = LieAlgebra.from_brackets(["x", "y", "z"], {(0, 1): [(1, 2)]})
    zero3 = [[0, 0, 0]] * 3
    return {
        "vector": lambda: vector([1, 0.5]),
        "QMatrix": lambda: QMatrix([[1, 0], [0, 0.5]]),
        "QMatrix.from_columns": lambda: QMatrix.from_columns([[1, 0.5]]),
        "QMatrix.scale": lambda: QMatrix.identity(2).scale(0.5),
        "QMatrix.mul": lambda: QMatrix.identity(2) * 0.5,
        "QMatrix.apply": lambda: QMatrix.identity(2).apply([1, 0.5]),
        "Subspace.from_rows": lambda: Subspace.from_rows(2, [[1, 0.5]]),
        "Subspace.contains": lambda: Subspace.full(2).contains([0.5, 0]),
        "LieModule(rho)": lambda: LieModule(h3, [zero3, zero3, [[0.5, 0, 0], [0, 0, 0],
                                                                [0, 0, 0]]]),
        "LieAlgebra(c)": lambda: LieAlgebra([[[0, 0], [0.5, 0]], [[-0.5, 0], [0, 0]]]),
        "LieAlgebra.from_brackets": lambda: LieAlgebra.from_brackets(
            ["x", "y"], {(0, 1): [(0.5, 1)]}),
        "LieAlgebra.from_matrices": lambda: LieAlgebra.from_matrices(
            ["a"], [[[0, 0.5], [0, 0]]]),
        "UEAElement": lambda: UEAElement(2, {(1, 0): 0.1}),
        "UEAElement.monomial": lambda: UEAElement.monomial(2, (1, 0), 0.1),
        "UEAElement.scale": lambda: 0.1 * UEAElement.generator(2, 0),
    }


@pytest.mark.parametrize("entry", sorted(_float_inputs()))
def test_public_constructors_reject_floats(entry):
    # matrices the library builds itself skip coercion; nothing a caller
    # passes in may take that route
    with pytest.raises(TypeError):
        _float_inputs()[entry]()


@pytest.mark.parametrize("text", ["1e3", "-2E-1", "1.5e0", "1e10000000"])
def test_public_constructors_reject_exponent_notation(text):
    # Fraction would expand the exponent digit by digit before anything else runs
    from liecoh.lie import LieAlgebra

    with pytest.raises(ValueError):
        vector([text])
    with pytest.raises(ValueError):
        LieAlgebra.from_brackets(["x", "y"], {(0, 1): [(text, 1)]})
    assert vector(["3/4", "-1.5", 2]) == (Fraction(3, 4), Fraction(-3, 2), Fraction(2))


def test_sparse_rows_and_dense_rows_agree_random():
    rng = random.Random(108)
    for _ in range(60):
        m = _random_matrix(rng)
        dense = tuple(tuple(m[i, j] for j in range(m.cols)) for i in range(m.rows))
        assert m.data == dense
        assert all(type(a) is Fraction for row in dense for a in row)
        # built from sparse rows, the same matrix compares and hashes equal
        t = m.transpose().transpose()
        assert t == m and hash(t) == hash(m) and t.data == dense
        assert QMatrix.from_columns([m.column(j) for j in range(m.cols)], rows=m.rows) == m
        s = kernel(m)
        assert s.pivots() == tuple(next(j for j, a in enumerate(row) if a)
                                   for row in s.basis.data)
        assert s == Subspace.from_rows(m.cols, s.basis.data)


def test_contains_matches_oracle_random():
    rng = random.Random(402)
    for _ in range(200):
        n = rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(rng.randint(0, n))]
        space = Subspace.from_rows(n, rows)
        inside = [sum((rng.randint(-2, 2) * r[j] for r in rows), Fraction(0))
                  for j in range(n)]
        anywhere = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
        for v in (inside, anywhere):
            expected = gauss_rank(rows + [v]) == gauss_rank(rows)
            assert space.contains(v) == expected, (rows, v)
        with pytest.raises(DimensionMismatchError):
            space.contains([0] * (n + 1))


def _big_entry(rng):
    return Fraction(rng.randint(-2 ** 40, 2 ** 40), rng.randint(1, 10 ** 6))


def _big_rows(rng, count, n):
    """Rows with large entries; some are combinations of earlier rows, so that
    rank deficiency turns up."""
    rows = []
    for _ in range(count):
        if rows and rng.random() < 0.3:
            f, g = _big_entry(rng), _big_entry(rng)
            a, b = rng.choice(rows), rng.choice(rows)
            rows.append([f * x + g * y for x, y in zip(a, b)])
        else:
            rows.append([_big_entry(rng) if rng.random() < 0.7 else Fraction(0)
                         for _ in range(n)])
    return rows


def _null_space(rows, cols):
    """The canonical basis of {v in Q^cols : rows v = 0}: one solution per
    free column of the oracle's RREF, put in RREF by the oracle again."""
    expected, pivots = gauss_rref(rows)
    nulls = []
    for f in (f for f in range(cols) if f not in pivots):
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for row, p in zip(expected, pivots):
            v[p] = -row[f]
        nulls.append(v)
    return tuple(gauss_rref(nulls)[0])


def test_engine_matches_gauss_rref_on_large_entries():
    rng = random.Random(501)
    for _ in range(60):
        cols = rng.randint(1, 7)
        rows = _big_rows(rng, rng.randint(0, 7), cols)
        m = QMatrix(rows, cols=cols)
        expected, pivots = gauss_rref(rows)
        R, got = rref(m)
        assert got == pivots
        assert R.data == tuple(expected) + ((Fraction(0),) * cols,) * (m.rows - len(expected))
        assert rank(m) == len(pivots)
        assert kernel(m).basis.data == _null_space(rows, cols)


def _assert_canonical_int_rows(space):
    for lead, row in space._rows.items():
        assert lead == min(row) and row[lead] > 0, row
        assert all(type(a) is int for a in row.values()) and math.gcd(*row.values()) == 1, row


def _rows_of_30_bits(rng, count, n):
    """Rows with entries of about 30 bits, some of them combinations of earlier ones."""
    rows = []
    for _ in range(count):
        if rows and rng.random() < 0.4:
            a, b = rng.choice(rows), rng.choice(rows)
            f, g = rng.randint(-9, 9), rng.randint(-9, 9)
            rows.append([f * x + g * y for x, y in zip(a, b)])
        else:
            rows.append([Fraction(rng.randint(-2 ** 30, 2 ** 30), rng.randint(1, 2 ** 30))
                         if rng.random() < 0.6 else Fraction(0) for _ in range(n)])
    return rows


def test_kernel_matches_the_oracle_null_space():
    rng = random.Random(109)
    cases = [_random_matrix(rng) for _ in range(200)]
    for _ in range(12):
        cols = rng.randint(1, 7)
        cases.append(QMatrix(_rows_of_30_bits(rng, rng.randint(0, 7), cols), cols=cols))
    for m in cases:
        s = kernel(m)
        assert s.basis.data == _null_space(m.data, m.cols), m
        _assert_canonical_int_rows(s)


def test_kernel_on_a_subset_of_the_keys_matches_the_oracle():
    # as the weight-0 blocks call it: the unknowns are some keys of a larger
    # space, in increasing order, and some of them appear in no row
    rng = random.Random(110)
    for _ in range(80):
        n = rng.randint(2, 9)
        keys = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
        zero = set(rng.sample(keys, rng.randint(0, len(keys) - 1)))
        dense = [[0 if k in zero else rng.randint(-3, 3) for k in keys]
                 for _ in range(rng.randint(0, 6))]
        rows = [{k: a for k, a in zip(keys, row) if a} for row in dense]
        before = [dict(r) for r in rows]
        s = _kernel(rows, dict.fromkeys(keys).keys(), n)
        assert rows == before
        assert s.ambient_dim == n and set(s.pivots()) >= zero
        assert all(set(row) <= set(keys) for row in s._rows.values())
        embedded = tuple(tuple(v[keys.index(k)] if k in keys else Fraction(0) for k in range(n))
                         for v in _null_space(dense, len(keys)))
        assert s.basis.data == embedded
        _assert_canonical_int_rows(s)


def test_complement_keeps_the_rows_classes_keeps():
    # with span(small) <= big known, the elimination on big's pivot columns
    # keeps the columns of the same rows of big as the oracle's `classes`,
    # and its tagged pivots read the same class coordinates off a vector's
    # entries there
    rng = random.Random(504)
    for _ in range(60):
        n = rng.randint(1, 7)
        big = kernel(QMatrix(_rows_of_30_bits(rng, rng.randint(0, n - 1), n), cols=n))
        basis = [list(row) for row in big.basis.data]
        small = [_ints({j: a for j, a in enumerate(_combination(rng, basis, n)) if a})[0]
                 for _ in range(rng.randint(0, big.dim))]
        pivots, chosen = classes(small, big)
        got, kept = _complement(small, big._rows.keys())
        assert [_rational(big._rows[f], f) for f in kept] == chosen
        assert sorted(~k for k in got) == list(big._rows)
        z = _combination(rng, basis, n)
        assert _tag_coordinates(got, {~k: a for k, a in enumerate(z) if a and k in big._rows}) \
            == tag_coordinates(pivots, n, {k: a for k, a in enumerate(z) if a})


def _combination(rng, rows, n):
    f = [_big_entry(rng) for _ in rows]
    return [sum((a * r[j] for a, r in zip(f, rows)), Fraction(0)) for j in range(n)]


def test_tag_coordinates_recover_combinations_with_large_entries():
    # on the oracle's `classes` pivots, and on `_complement`'s read off big's
    # pivot columns
    rng = random.Random(502)
    leads = set()
    for _ in range(40):
        n = rng.randint(1, 6)
        big = Subspace.from_rows(n, _big_rows(rng, rng.randint(1, n), n))
        small_rows = [_combination(rng, big.basis.data, n)
                      for _ in range(rng.randint(0, big.dim))]
        small = Subspace.from_rows(n, small_rows)
        ints = [_ints({j: a for j, a in enumerate(r) if a})[0] for r in small_rows]
        pivots, reps = classes(ints, big)
        assert len(reps) == big.dim - small.dim
        leads.update(row[lead] for lead, row in pivots.items())
        c = [_big_entry(rng) for _ in reps]
        z = _combination(rng, small.basis.data, n)
        for ci, rep in zip(c, reps):
            for j, a in rep.items():
                z[j] += ci * a
        coords = tag_coordinates(pivots, n, {j: a for j, a in enumerate(z) if a})
        assert coords == {i: ci for i, ci in enumerate(c) if ci}
        got, _ = _complement(ints, big._rows)
        assert _tag_coordinates(got, {~j: a for j, a in enumerate(z) if a and j in big._rows}) \
            == coords
    # the stored pivots are int rows led by other values than 1
    assert len(leads) > 10


def test_engine_pivots_are_primitive_int_rows():
    rng = random.Random(503)
    for _ in range(40):
        n = rng.randint(1, 7)
        pivots: dict = {}
        for row in _big_rows(rng, rng.randint(1, 7), n):
            sparse, _ = _ints({j: a for j, a in enumerate(row) if a})
            lead, reduced, s = _reduce(pivots, sparse)
            assert s > 0 and all(type(a) is int for a in reduced.values())
            assert _insert(pivots, sparse) == lead
        for lead, row in pivots.items():
            assert lead == min(row) and row[lead] > 0
            assert all(type(a) is int for a in row.values())
            assert math.gcd(*row.values()) == 1


def _snapshot(row):
    return [(k, a, type(a)) for k, a in row.items()]


# (row, leading key left over, s) against the pivot rows {0: 2, 1: 3},
# {1: 5, 2: 1} and {4: 1}; s > 1 with int entries means `_eliminate` scaled the row,
# which happens when the pivot entry it clears with is not 1.  The engine
# reads int rows, so a row with Fractions goes in as d * row (`_ints`), and
# s is the engine's multiplier times that d
@pytest.mark.parametrize("row, lead, s", [
    ({0: 3, 2: 5}, 2, 10),
    ({0: 4, 1: 6}, None, 1),
    ({0: Fraction(1, 2), 1: Fraction(3, 4)}, None, 4),
    ({0: 1, 1: Fraction(1, 3), 3: -7}, 2, 30),
    ({1: 1}, 2, 5),
    ({3: 1}, 3, 1),
    ({4: -6}, None, 1),
], ids=["int-scaled", "int-zero", "fraction-zero", "mixed-scaled", "one-term-scaled",
        "one-term-free", "one-term-on-one-term"])
def test_engine_leaves_its_row_argument_alone(row, lead, s):
    # pbw hands memoised letter products to the engine as rows, so a
    # mutation here would corrupt them silently
    row, d = _ints(row)
    pivots: dict = {}
    for r in ({0: 2, 1: 3}, {1: 5, 2: 1}, {4: 1}):
        _insert(pivots, r)
    before, stored = _snapshot(row), {k: _snapshot(r) for k, r in pivots.items()}
    got_lead, _, got_s = _reduce(pivots, row)
    assert (got_lead, got_s * d) == (lead, s)
    assert _snapshot(row) == before
    assert {k: _snapshot(r) for k, r in pivots.items()} == stored
    assert _insert(pivots, row) == lead
    assert _snapshot(row) == before
    assert all(_snapshot(pivots[k]) == v for k, v in stored.items())
    assert len(pivots) == len(stored) + (lead is not None)


def test_echelon_sum_and_intersection_leave_their_rows_alone():
    # `_insert` may store a given row as a pivot row itself; back-substitution
    # then clears the entry at key 1 of the row led at 0, so `_echelon` must
    # copy that row before it edits it
    rows = [{0: 1, 1: 1}, {1: 1}]
    before = [_snapshot(row) for row in rows]
    assert _echelon(rows) == {0: {0: 1}, 1: {1: 1}}
    assert _span(2, rows) == Subspace.full(2)
    assert [_snapshot(row) for row in rows] == before
    a, b = Subspace.from_rows(2, [(1, 1)]), Subspace.from_rows(2, [(0, 1)])
    stored = [{k: _snapshot(row) for k, row in s._rows.items()} for s in (a, b)]
    assert a + b == b + a == Subspace.full(2)
    assert a & b == b & a == Subspace.zero(2)
    assert [{k: _snapshot(row) for k, row in s._rows.items()} for s in (a, b)] == stored
    assert (a, b) == (Subspace.from_rows(2, [(1, 1)]), Subspace.from_rows(2, [(0, 1)]))
