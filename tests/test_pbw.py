import random
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from liecoh import catalog
from liecoh.errors import DimensionMismatchError, NotNilpotentError, ZeroElementError
from liecoh.lie import LieAlgebra, _constants, is_nilpotent, power_filtration, reorder_basis
from liecoh.linalg import Subspace, _ints, _span
from liecoh.pbw import (
    UEAElement,
    _fills_layer,
    _ipower_pass,
    _keys,
    _times_letter,
    _word_cap,
    _word_span,
    ipower_bruteforce,
    ipower_checks,
    ipower_predicted,
    is_rees_noetherian,
    monoid_generator_check,
    monomials,
    multiply,
    pbw_normal_form,
    rees_layer_table,
    straightening_order,
)

from oracles import exact_ipower_pass, relabel, straighten

NILPOTENT_TRIO = ("abelian2", "heisenberg3", "strict-ut3")


# --- straightening -------------------------------------------------------

def test_normal_form_examples():
    H = catalog.heisenberg3()
    # y x = x y - z
    assert pbw_normal_form(H, (1, 0)).terms == {
        (1, 1, 0): Fraction(1), (0, 0, 1): Fraction(-1)}
    # sorted words pass through
    assert pbw_normal_form(H, (0, 1, 2)).terms == {(1, 1, 1): Fraction(1)}
    A = catalog.example_a()
    # y x = x y - y
    assert pbw_normal_form(A, (1, 0)).terms == {
        (1, 1): Fraction(1), (0, 1): Fraction(-1)}


def test_confluence_of_strategies():
    rng = random.Random(31)
    for name in ("heisenberg3", "exampleA", "sl2", "strict-ut3", "propC"):
        L = catalog.get(name)
        for _ in range(25):
            word = tuple(rng.randrange(L.dim)
                         for _ in range(rng.randrange(1, 7)))
            first = straighten(L.c, word)
            last = straighten(L.c, word, last=True)
            assert first == last, (name, word)
            assert pbw_normal_form(L, word).terms == first, (name, word)


def test_normal_form_refuses_letters_outside_the_basis():
    H = catalog.heisenberg3()
    for word in ((0, 3), (-1, 0)):
        with pytest.raises(ValueError):
            pbw_normal_form(H, word)


def test_associativity_of_multiplication():
    rng = random.Random(32)
    s = catalog.sl2()
    for _ in range(15):
        words = [tuple(rng.randrange(3) for _ in range(rng.randrange(1, 4)))
                 for _ in range(3)]
        u, v, w = (pbw_normal_form(s, word) for word in words)
        assert multiply(s, multiply(s, u, v), w) == multiply(s, u, multiply(s, v, w))


def _relabelled(L, rng):
    return LieAlgebra(*relabel(L.c, L.labels, rng))


def _relabelled_rational(base, rng):
    """A relabelling whose constants have a denominator D > 1, so that the
    f = D e rescaling of `_constants` is exercised."""
    L = _relabelled(base, rng)
    while _constants(L)[0] == 1:
        L = _relabelled(base, rng)
    return L


def _base(name):
    """A catalog entry, or one of the three bases of the `rees-verify` benchmark workload."""
    if name == "strict-ut4":
        return catalog.strict_ut(4)
    if name == "h5":
        return LieAlgebra.from_brackets(["x1", "x2", "y1", "y2", "z"],
                                        {(0, 2): [(1, 4)], (1, 3): [(1, 4)]})
    if name == "filiform5":
        return LieAlgebra.from_brackets(["e1", "e2", "e3", "e4", "e5"],
                                        {(0, 1): [(1, 2)], (0, 2): [(1, 3)], (0, 3): [(1, 4)]})
    return catalog.get(name)


def _letter_by_letter(L, word):
    """The straightened word, built by `_times_letter` alone.

    `_times_letter` works in the basis f = D e of `_constants`, where
    f^a = D^|a| e^a and the word's letters are e_i = f_i / D, on monomials
    under the packed keys of `_keys` with all weights 1 and the word's
    length as ceiling, which no product of its letters crosses.
    """
    D, table = _constants(L)
    keys = _keys(L.dim, len(word), (1,) * L.dim)
    memo: dict = {}
    out = UEAElement.monomial(L.dim, (0,) * L.dim)
    for i in word:
        nxt = UEAElement.zero(L.dim)
        for a, c in out.terms.items():
            prod = _times_letter(table, keys, keys.key(a), i, memo)
            nxt = nxt + UEAElement(L.dim, {keys.exps(b): x for b, x in prod.items()}).scale(c)
        out = nxt
    return UEAElement(L.dim, {a: Fraction(c * D ** sum(a), D ** len(word))
                              for a, c in out.terms.items()})


@pytest.mark.parametrize("name", ["sl2", "exampleA", "heisenberg3", "strict-ut4"])
def test_letter_product_and_multiply_match_rewriting_random(name):
    rng = random.Random(f"letters-{name}")
    L = _relabelled_rational(_base(name), rng)
    for _ in range(20):
        word = tuple(rng.randrange(L.dim) for _ in range(rng.randrange(1, 7)))
        cut = rng.randrange(len(word) + 1)
        left, right = pbw_normal_form(L, word[:cut]), pbw_normal_form(L, word[cut:])
        for last in (False, True):
            expected = UEAElement(L.dim, straighten(L.c, word, last=last))
            assert pbw_normal_form(L, word) == expected, (name, word, last)
            assert _letter_by_letter(L, word) == expected, (name, word, last)
            assert multiply(L, left, right) == expected, (name, word, cut, last)


def test_packed_keys_round_trip_and_sort_like_degree_then_exponents():
    # the engine leads rows by the smallest key, so the packed ints must
    # order the monomials exactly as the tuples (-|a|, a) do, with each
    # monomial's weight in the lowest field
    rng = random.Random(37)
    for n in range(1, 6):
        nu = tuple(rng.randint(1, 3) for _ in range(n))
        monos = monomials(n, 6)
        weights = [sum(e * v for e, v in zip(a, nu)) for a in monos]
        keys = _keys(n, max(weights) + rng.randrange(3), nu)
        packed = [keys.key(a) for a in monos]
        assert [keys.exps(k) for k in packed] == monos, n
        assert [keys.degree(k) for k in packed] == [sum(a) for a in monos], n
        assert [k & keys.mask for k in packed] == weights, n
        by_key = [keys.exps(k) for k in sorted(packed)]
        assert by_key == sorted(monos, key=lambda a: (-sum(a), a)), n


@pytest.mark.parametrize("k", [1, 2, 3])
def test_an_exponent_of_exactly_two_to_the_k_fits_its_field(k):
    # 2^k needs k + 1 bits, so one bit less would carry it into the next
    # field: the degree's for the first letter, a letter's for the last
    L = _relabelled_rational(catalog.heisenberg3(), random.Random(f"width-{k}"))
    for i in (0, L.dim - 1):
        word = (i,) * 2 ** k
        assert pbw_normal_form(L, word) == UEAElement(L.dim, straighten(L.c, word)), (k, i)
        # u v = (e_i^h + e_j)(e_i^h + e_l) with h = 2^(k-1) has degree 2^k,
        # and its straightened form reaches e_i^(2^k)
        half = (i,) * 2 ** (k - 1)
        lefts, rights = (half, ((i + 1) % 3,)), (half, ((i + 2) % 3,))
        u, v = (pbw_normal_form(L, w) + pbw_normal_form(L, w2) for w, w2 in (lefts, rights))
        expected = UEAElement.zero(L.dim)
        for left, right in product(lefts, rights):
            expected = expected + UEAElement(L.dim, straighten(L.c, left + right))
        got = multiply(L, u, v)
        assert got == expected, (k, i)
        assert got.degree() == 2 ** k and any(a[i] == 2 ** k for a in got.terms), (k, i)


@pytest.mark.parametrize("name", ["heisenberg3", "exampleA", "sl2",
                                  "strict-ut4", "h5", "filiform5"])
def test_word_span_matches_rewritten_words_relabelled(name):
    L = _relabelled_rational(_base(name), random.Random(f"word-span-{name}"))
    D = _constants(L)[0]
    cap = 4
    monos = monomials(L.dim, cap)
    index = {a: t for t, a in enumerate(monos)}
    keys, spans = _word_span(L, cap, (1,) * L.dim)
    assert len(spans) == cap + 1
    for s in range(cap + 1):
        # a one-term primitive row has coefficient 1, so `_word_span` may
        # hand its letter products to the engine as they are memoised
        assert all([*row.values()] == [1] for row in spans[s] if len(row) == 1), (name, s)
        # f^a = D^|a| e^a
        got = _span(len(monos), ({index[keys.exps(k)]: c * D ** keys.degree(k)
                                  for k, c in row.items()} for row in spans[s]))
        words = product(range(L.dim), repeat=s)
        # the oracle's Fraction rows enter the engine as int rows
        expected = _span(len(monos), (_ints({index[a]: x for a, x in straighten(L.c, w).items()})
                                      [0] for w in words))
        assert got == expected, (name, s)


@pytest.mark.parametrize("name", ["heisenberg3", "strict-ut4", "h5", "filiform5"])
def test_ceilinged_word_span_matches_truncated_rewritten_words_relabelled(name):
    L = _relabelled_rational(_base(name), random.Random(f"ceiling-{name}"))
    order, nu = straightening_order(L)
    L = reorder_basis(L, order)
    D = _constants(L)[0]
    cap = 4
    monos = monomials(L.dim, cap)
    index = {a: t for t, a in enumerate(monos)}
    light = {a for a in monos if sum(e * w for e, w in zip(a, nu)) <= cap}
    keys, spans = _word_span(L, cap, nu)
    assert len(spans) == cap + 1
    shrunk = False
    for s in range(cap + 1):
        got = _span(len(monos), ({index[keys.exps(k)]: c * D ** keys.degree(k)
                                  for k, c in row.items()} for row in spans[s]))
        words = [straighten(L.c, w) for w in product(range(L.dim), repeat=s)]
        # every monomial of weight above the cap dropped from every straightened word
        truncated = ({index[a]: x for a, x in word.items() if a in light} for word in words)
        expected = _span(len(monos), (_ints(row)[0] for row in truncated if row))
        assert got == expected, (name, s)
        exact = _span(len(monos), (_ints({index[a]: x for a, x in word.items()})[0]
                                   for word in words))
        shrunk |= got.dim < exact.dim
    # the ceiling really drops something at these lengths
    assert shrunk, name


def test_degree_examples():
    H = catalog.heisenberg3()
    assert UEAElement.generator(3, 0).degree() == 1
    # a product of r generators has degree exactly r
    assert pbw_normal_form(H, (2, 1, 0)).degree() == 3
    x2 = UEAElement.monomial(3, (2, 0, 0))
    y1 = UEAElement.generator(3, 1)
    assert (x2 + y1).degree() == 2
    with pytest.raises(ZeroElementError):
        UEAElement.zero(3).degree()


def test_degree_multiplicative_random():
    rng = random.Random(33)
    for name in ("sl2", "exampleA", "heisenberg3", "ut3"):
        L = catalog.get(name)
        for _ in range(20):
            u = UEAElement(L.dim, {
                tuple(rng.randrange(3) for _ in range(L.dim)): Fraction(rng.randint(1, 4))})
            v = UEAElement(L.dim, {
                tuple(rng.randrange(2) for _ in range(L.dim)): Fraction(rng.randint(1, 4))})
            assert multiply(L, u, v).degree() == u.degree() + v.degree()


def test_degree_subadditive_on_sums():
    H = catalog.heisenberg3()
    u = UEAElement.monomial(3, (1, 1, 0))
    v = UEAElement.monomial(3, (1, 1, 0), -1) + UEAElement.generator(3, 2)
    assert (u + v).degree() == 1      # leading terms cancel
    assert max(u.degree(), v.degree()) == 2


def test_an_element_coerces_its_coefficients_before_dropping_zeros():
    for zero in ("0", "0/3", Fraction(0), 0):
        u = UEAElement(1, {(1,): zero})
        assert u.is_zero() and u == UEAElement.zero(1), zero
    assert UEAElement(1, {(1,): "2/4"}) == UEAElement.monomial(1, (1,), Fraction(1, 2))
    with pytest.raises(TypeError):
        UEAElement(1, {(1,): 0.0})


def test_an_element_refuses_keys_that_are_no_exponent_tuples():
    for key in ((1, 0, 0), (1,), (), (1, -1), (1.5, 0), (True, 0)):
        with pytest.raises(ValueError):
            UEAElement(2, {key: 1})
        with pytest.raises(ValueError):
            UEAElement.monomial(2, key)


def test_elements_over_other_generator_counts_do_not_combine():
    H = catalog.heisenberg3()
    u, v = UEAElement.generator(2, 0), UEAElement.generator(3, 0)
    with pytest.raises(DimensionMismatchError):
        u + v
    with pytest.raises(DimensionMismatchError):
        v - u
    for a, b in ((u, v), (v, u), (u, u)):
        with pytest.raises(DimensionMismatchError):
            multiply(H, a, b)
    assert multiply(H, v, v) == pbw_normal_form(H, (0, 0))


# --- ideal powers --------------------------------------------------------

def test_monomial_enumeration_degree_one_block():
    monos = monomials(3, 1)
    assert monos == [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_monomial_enumeration_matches_sorted_exponent_tuples():
    # graded, and within a degree lexicographically by descending exponents
    for n in range(7):
        for d in range(6):
            expected = sorted((a for a in product(range(d + 1), repeat=n) if sum(a) <= d),
                              key=lambda a: (sum(a), [-e for e in a]))
            assert monomials(n, d) == expected, (n, d)


def test_abelian_square():
    A2 = catalog.abelian(2)
    got = ipower_bruteforce(A2, 2, 2)
    monos = monomials(2, 2)
    expected_rows = []
    for mono in ((2, 0), (1, 1), (0, 2)):
        row = [Fraction(0)] * len(monos)
        row[monos.index(mono)] = Fraction(1)
        expected_rows.append(row)
    assert got == Subspace.from_rows(len(monos), expected_rows)
    assert got == ipower_predicted(A2, 2, 2)


def test_central_element_lies_in_the_square():
    H = catalog.heisenberg3()
    monos = monomials(3, 2)
    sp = ipower_bruteforce(H, 2, 2)
    z = [Fraction(0)] * len(monos)
    z[monos.index((0, 0, 1))] = Fraction(1)
    assert sp.contains(z)


def test_predicted_equals_bruteforce_small():
    for name in NILPOTENT_TRIO:
        L = catalog.get(name)
        for m in (1, 2, 3):
            for r in (1, 2, 3):
                assert ipower_bruteforce(L, m, r) == ipower_predicted(L, m, r), \
                    (name, m, r)


def _pass_spaces(L, order, nu, m_lo, m_hi, r_max):
    """The snapshots of one `_ipower_pass` as subspaces on `monomials(dim,
    r_max)` in `order`, each coefficient x on f^a made x D^|a| on e^a."""
    keys, snapshots = _ipower_pass(L, order, nu, m_lo, m_hi, r_max)
    D = _constants(L)[0]
    monos = monomials(L.dim, r_max)
    index = {keys.key(a): t for t, a in enumerate(monos)}
    return [_span(len(monos), ({index[k]: c * D ** keys.degree(k) for k, c in row.items()}
                               for row in rows)) for rows in snapshots]


def test_single_pass_snapshots_match_separate_calls():
    for name in ("abelian1", "abelian2", "abelian3", "abelian4", "heisenberg3", "strict-ut3"):
        L = catalog.get(name)
        order, nu = straightening_order(L)
        for r in (1, 2, 3):
            snapshots = _pass_spaces(L, order, nu, 1, 4, r)
            assert len(snapshots) == 4
            for m, snap in enumerate(snapshots, 1):
                assert snap == ipower_bruteforce(L, m, r), (name, m, r)
            assert ipower_checks(L, rees_layer_table(L, r, 4)) == (True,) * 4, (name, r)


def test_ipower_checks_of_a_table_without_powers_is_empty():
    # rees_layer_table accepts m_max = 0; its powers m = 1..0 are none
    H = catalog.heisenberg3()
    table = rees_layer_table(H, 2, 0)
    assert table.m_max == 0
    assert ipower_checks(H, table) == ()
    with pytest.raises(ValueError):
        _ipower_pass(H, table.order, table.nu, 1, 0, 2)


def test_benchmark_cases_bruteforce_equals_predicted_relabelled():
    rng = random.Random(34)
    for name, r, m_max in (("strict-ut4", 2, 3), ("h5", 4, 4), ("filiform5", 2, 4)):
        L = _relabelled(_base(name), rng)
        assert ipower_checks(L, rees_layer_table(L, r, m_max)) == (True,) * m_max, (L, r, m_max)
        dims = []
        for m in range(1, m_max + 1):
            predicted = ipower_predicted(L, m, r)
            assert ipower_bruteforce(L, m, r) == predicted, (L, m, r)
            dims.append(predicted.dim)
        # the layers really shrink, so equality is not between two full spaces
        assert dims == sorted(dims, reverse=True) and dims[0] > dims[-1] > 0, dims


def test_ipower_checks_agree_with_the_public_spaces():
    rng = random.Random(37)
    cases = [(catalog.get(name), r, 4) for name in catalog.names()
             if is_nilpotent(catalog.get(name)) for r in (1, 2, 3)]
    cases += [(_relabelled(_base(name), rng), r, m_max)
              for name, r, m_max in (("strict-ut4", 2, 3), ("h5", 4, 4), ("filiform5", 2, 4))]
    for L, r, m_max in cases:
        assert ipower_checks(L, rees_layer_table(L, r, m_max)) == tuple(
            ipower_bruteforce(L, m, r) == ipower_predicted(L, m, r)
            for m in range(1, m_max + 1)), (L.labels, r, m_max)


def test_fills_layer_refuses_a_missing_row_and_a_light_term():
    L = _relabelled(_base("filiform5"), random.Random(38))
    r_max, m_max = 2, 4
    table = rees_layer_table(L, r_max, m_max)
    keys, snapshots = _ipower_pass(L, table.order, table.nu, 1, m_max, r_max)
    monos = monomials(L.dim, r_max)
    for m, rows in enumerate(snapshots, 1):
        dim = sum(row[m] for row in table.dims)
        assert _fills_layer(rows, keys.mask, m, dim), m
        assert not _fills_layer(rows[:-1], keys.mask, m, dim), m
        # a monomial of degree <= r_max and weight m - 1 (the monomial 1 for m = 1)
        light = next(a for a in monos if sum(e * w for e, w in zip(a, table.nu)) == m - 1)
        doctored = [{**rows[0], keys.key(light): 1}, *rows[1:]]
        assert not _fills_layer(doctored, keys.mask, m, dim), m


def test_ipower_checks_leave_the_cached_word_spans_alone():
    # filiform-5 has rows of several terms whose leads an earlier row took
    L = _relabelled(_base("filiform5"), random.Random(39))
    table = rees_layer_table(L, 2, 4)
    _, spans = _word_span(reorder_basis(L, table.order), _word_cap(table.nu, 4, 2), table.nu)
    before = [[sorted(row.items()) for row in span] for span in spans]
    hits = _word_span.cache_info().hits
    assert ipower_checks(L, table) == (True,) * 4
    # the pass eliminated into copies of these very rows
    assert _word_span.cache_info().hits == hits + 1
    assert [[sorted(row.items()) for row in span] for span in spans] == before


def _ceilinged_rows(L, order, nu, m_max, r_max):
    """Rows kept by the word spans of the ceilinged pass `_ipower_pass` makes."""
    return sum(map(len, _word_span(reorder_basis(L, order), _word_cap(nu, m_max, r_max), nu)[1]))


def test_ceilinged_pass_matches_the_exact_pass():
    rng = random.Random(35)
    cases = [(catalog.get(name), r, 4) for name in catalog.names()
             if is_nilpotent(catalog.get(name)) for r in (1, 2, 3)]
    cases += [(_relabelled(_base(name), rng), r, m_max)
              for name, r, m_max in (("strict-ut4", 2, 3), ("h5", 4, 4), ("filiform5", 2, 4))]
    for L, r, m_max in cases:
        order, nu = straightening_order(L)
        assert nu is not None, L
        expected, _ = exact_ipower_pass(L, order, nu, 1, m_max, r)
        assert _pass_spaces(L, order, nu, 1, m_max, r) == expected, (L.labels, r, m_max)


@pytest.mark.parametrize("name, r, m_max", [("strict-ut4", 2, 3), ("filiform5", 2, 4)])
def test_ceilinged_pass_keeps_at_most_a_third_of_the_rows(name, r, m_max):
    L = _relabelled(_base(name), random.Random(f"rows-{name}"))
    order, nu = straightening_order(L)
    expected, exact_rows = exact_ipower_pass(L, order, nu, 1, m_max, r)
    assert _pass_spaces(L, order, nu, 1, m_max, r) == expected
    assert 3 * _ceilinged_rows(L, order, nu, m_max, r) <= exact_rows, name


def test_ipower_checks_reach_strict_ut5():
    # the exact spans keep 73,154 rows here, the ceilinged ones 6,473
    L = _relabelled(catalog.strict_ut(5), random.Random(36))
    table = rees_layer_table(L, 2, 4)
    assert ipower_checks(L, table) == (True,) * 4
    assert _ceilinged_rows(L, table.order, table.nu, 4, 2) <= 10_000


def test_predicted_layers_of_heisenberg():
    H = catalog.heisenberg3()
    # weight >= 2, degree <= 1: only z
    sp = ipower_predicted(H, 2, 1)
    assert sp.dim == 1
    monos = monomials(3, 1)
    z = [Fraction(0)] * len(monos)
    z[monos.index((0, 0, 1))] = Fraction(1)
    assert sp.contains(z)
    # weight >= 3, degree exactly 2: xz, yz, z^2
    sp2 = ipower_predicted(H, 3, 2)
    assert sp2.dim == 3


def test_predicted_needs_nilpotent():
    with pytest.raises(NotNilpotentError):
        ipower_predicted(catalog.example_a(), 2, 2)
    with pytest.raises(NotNilpotentError):
        rees_layer_table(catalog.sl2(), 2, 2)


def _ipower_checks_on_table(L, m_max, r_max):
    # ipower_checks reads a layer table, and the table is what refuses
    return ipower_checks(L, rees_layer_table(L, r_max, m_max))


@pytest.mark.parametrize("name", ["sl2", "ut3"])
@pytest.mark.parametrize("layer_fn", [monoid_generator_check, ipower_predicted,
                                      pytest.param(_ipower_checks_on_table, id="ipower_checks"),
                                      rees_layer_table])
def test_layer_functions_refuse_non_nilpotent(layer_fn, name):
    with pytest.raises(NotNilpotentError):
        layer_fn(catalog.get(name), 2, 2)


def test_stable_term_inside_every_power():
    # for the solvable non-nilpotent 2-dim algebra, y lies in every power
    A = catalog.example_a()
    monos = monomials(2, 1)
    y = [Fraction(0)] * len(monos)
    y[monos.index((0, 1))] = Fraction(1)
    for m in range(1, 7):
        assert ipower_bruteforce(A, m, 1).contains(y), m


def test_straightening_order_conventions():
    order, nu = straightening_order(catalog.heisenberg3())
    assert order == (0, 1, 2) and nu == (1, 1, 2)
    order, nu = straightening_order(catalog.sl2())
    assert order == (0, 1, 2) and nu is None
    order, nu = straightening_order(catalog.ut(3))
    assert order == tuple(range(6)) and nu is None


# --- layer tables --------------------------------------------------------

def test_rees_table_heisenberg_values():
    T = rees_layer_table(catalog.heisenberg3(), 4, 4)
    assert T.dim(1, 2) == 1
    assert T.dim(2, 3) == 3
    assert T.nu == (1, 1, 2)


def test_rees_first_row_is_the_filtration():
    for name in NILPOTENT_TRIO:
        L = catalog.get(name)
        T = rees_layer_table(L, 3, 5)
        chain = power_filtration(L)
        for m in range(1, 6):
            assert T.dim(1, m) == chain.term(m).dim, (name, m)


def test_rees_abelian_stars_and_bars():
    for n in (2, 3):
        A = catalog.abelian(n)
        T = rees_layer_table(A, 3, 3)
        for r in range(4):
            for m in range(4):
                expected = comb(n + r - 1, r) if m <= r else 0
                assert T.dim(r, m) == expected, (n, r, m)


def test_monoid_generator_check():
    assert monoid_generator_check(catalog.abelian(2), 3, 3)
    assert monoid_generator_check(catalog.heisenberg3(), 4, 4)
    assert monoid_generator_check(catalog.strict_ut(3), 4, 4)


def test_rees_noetherian_matches_nilpotency():
    verdicts = {
        "abelian1": True, "abelian2": True, "abelian3": True, "abelian4": True,
        "heisenberg3": True, "strict-ut3": True,
        "exampleA": False, "ut3": False, "propC": False, "sl2": False,
    }
    for name, expected in verdicts.items():
        assert is_rees_noetherian(catalog.get(name)) == expected, name


# --- element formatting --------------------------------------------------

def test_format_uses_labels():
    H = catalog.heisenberg3()
    u = pbw_normal_form(H, (1, 0))
    text = u.format(H.labels)
    assert "x" in text and "z" in text
    assert UEAElement.zero(3).format(H.labels) == "0"
