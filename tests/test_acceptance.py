"""Acceptance suite: one test per criterion, exact rational arithmetic,
zero tolerance everywhere.

Run with `pytest tests/test_acceptance.py -v` (or add -s to see the
pass/fail line each criterion prints).
"""

import random
from fractions import Fraction

from liecoh import catalog
from liecoh.checker import check, random_solvable_algebra, verify_report
from liecoh.cohomology import (
    action_on_cohomology,
    ce_complex,
    cohomology,
    inflation_map,
)
from liecoh.lie import (
    lower_central_series,
    nil_quotient,
    power_filtration,
    subalgebra,
    validate,
)
from liecoh.linalg import QMatrix, Subspace, kernel, rank, unit_vector
from liecoh.pbw import (
    UEAElement,
    ipower_bruteforce,
    ipower_predicted,
    is_rees_noetherian,
    monomials,
    multiply,
    pbw_normal_form,
    rees_layer_table,
)
from liecoh.rep import (
    Character,
    adjoint_module,
    dual,
    exterior_power,
    has_trivial_subquotient,
    invariants,
    one_dim_module,
    restrict,
    submodule,
    trivial_module,
)

from oracles import chain_action, straighten

NILPOTENT_NAMES = ("abelian1", "abelian2", "abelian3", "abelian4",
                   "heisenberg3", "strict-ut3")
NON_NILPOTENT_NAMES = ("exampleA", "ut3", "propC", "sl2")


class criterion:
    """Prints one PASS/FAIL line per acceptance criterion."""

    def __init__(self, number, description):
        self.number = number
        self.description = description

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"acceptance criterion {self.number}: {verdict} - {self.description}")
        return False


def _random_character(rng, L):
    from liecoh.lie import bracket_span
    derived = bracket_span(L, Subspace.full(L.dim), Subspace.full(L.dim))
    allowed = kernel(QMatrix(derived.basis.data, cols=L.dim))
    while True:
        coeffs = [rng.randint(-3, 3) for _ in range(allowed.dim)]
        vals = [Fraction(0)] * L.dim
        for c, row in zip(coeffs, allowed.basis.data):
            vals = [v + c * a for v, a in zip(vals, row)]
        chi = Character.of(vals)
        if not chi.is_zero():
            return chi


def test_criterion_1_five_dim_example_reproduction():
    with criterion(1, "five-dim example: wedge invariants 3, cohomology "
                      "invariants 1, weight-0 part of H^2 empty, both conditions"):
        L = catalog.amazing_l()
        linf = lower_central_series(L).last
        assert linf.dim == 4

        # invariants of the diagonal action on the full dual exterior algebra
        t_line = Subspace.from_rows(5, [unit_vector(5, 0)])
        over_t = restrict(submodule(adjoint_module(L), linf), t_line)
        wedge_invariants = sum(
            invariants(exterior_power(dual(over_t), p)).dim for p in range(5))
        assert wedge_invariants == 3

        # invariants of the induced action on cohomology
        aoc = action_on_cohomology(L, linf, trivial_module(L))
        assert aoc.dims == (1, 2, 2, 2, 1)
        assert sum(invariants(m).dim for m in aoc.modules) == 1

        # the weight-zero (generalized kernel) part of H^2 is zero, and in
        # fact of all positive degrees
        assert rank(aoc.modules[2].rho[0]) == aoc.dims[2]
        for q in range(1, 5):
            assert not has_trivial_subquotient(aoc.modules[q])

        report = check(L)
        assert report.condition2 is True
        assert report.condition3 is True


def test_criterion_2_borel_example_reproduction():
    with criterion(2, "two-dim solvable example: action -1 on H^1, both "
                      "conditions, graded ring not Noetherian"):
        A = catalog.example_a()
        linf = lower_central_series(A).last
        aoc = action_on_cohomology(A, linf, trivial_module(A))
        assert aoc.modules[1].rho[0] == QMatrix([[-1]])
        report = check(A)
        assert report.condition2 is True
        assert report.condition3 is True
        assert is_rees_noetherian(A) is False


def test_criterion_3_equal_corner_example_reproduction():
    with criterion(3, "equal-corner triangular example: trivial top wedge, "
                      "both conditions fail"):
        P = catalog.prop_c()
        linf = lower_central_series(P).last
        assert linf.dim == 3
        top = exterior_power(submodule(adjoint_module(P), linf), 3)
        assert top.dim == 1
        assert top.is_trivial()
        report = check(P)
        assert report.condition3 is False
        assert report.condition2 is False


def test_criterion_4_monomial_basis_of_ideal_powers():
    with criterion(4, "predicted monomial basis equals brute force for the "
                      "nilpotent trio, layer row matches the filtration"):
        for name in ("abelian2", "heisenberg3", "strict-ut3"):
            L = catalog.get(name)
            for m in range(1, 5):
                for r in range(1, 5):
                    assert ipower_bruteforce(L, m, r) == ipower_predicted(L, m, r), \
                        (name, m, r)
            table = rees_layer_table(L, 4, 4)
            chain = power_filtration(L)
            for m in range(1, 5):
                assert table.dim(1, m) == chain.term(m).dim, (name, m)


def test_criterion_5_noetherianity_matches_nilpotency():
    with criterion(5, "graded Noetherianity iff nilpotent on the catalog; "
                      "stable term sits in every ideal power"):
        for name in catalog.names():
            L = catalog.get(name)
            report = check(L)
            assert is_rees_noetherian(L) == report.is_nilpotent, name
        for name in NON_NILPOTENT_NAMES:
            L = catalog.get(name)
            linf = lower_central_series(L).last
            assert linf.dim > 0
            monos = monomials(L.dim, 1)
            for m in range(1, 7):
                sp = ipower_bruteforce(L, m, 1)
                for row in linf.basis.data:
                    assert sp.contains((Fraction(0),) + row), (name, m)
                if m >= 2:
                    degree_one = Subspace.from_rows(
                        L.dim, [r[1:] for r in sp.basis.data])
                    assert degree_one == linf, (name, m)
            assert len(monos) == L.dim + 1


def test_criterion_6_equivalence_property_suite():
    with criterion(6, "condition agreement on catalog plus 50 random solvable "
                      "algebras, with the implied collapses"):
        reports = [(name, check(catalog.get(name))) for name in catalog.names()]
        rng = random.Random(20260808)
        for i in range(50):
            L = random_solvable_algebra(rng)
            assert L.dim <= 5
            reports.append((f"random-{i}", check(L)))
        for name, report in reports:
            assert report.condition2 == report.condition3, name
            if report.is_nilpotent:
                assert report.condition2 and report.condition3, name
            if report.condition3:
                assert report.linf_solvable, name
                padded = report.e2_bottom_row + (0,) * (
                    len(report.h_total) - len(report.e2_bottom_row))
                assert padded == report.h_total, name
            verify_report(report, context=name)


def test_criterion_7_structural_invariants():
    with criterion(7, "differentials square to zero, axioms and chain-map "
                      "identities hold, straightening is confluent"):
        rng = random.Random(99)
        algebras = [catalog.get(name) for name in catalog.names()]
        algebras += [random_solvable_algebra(rng) for _ in range(8)]

        for L in algebras:
            assert validate(L).ok
            for M in (trivial_module(L), adjoint_module(L)):
                cx = ce_complex(L, M)
                for p in range(L.dim):
                    assert (cx.delta(p + 1) * cx.delta(p)).is_zero()

        # chain-level action commutes with the differential (the
        # constructor raises otherwise), for quotient lifts and for ideal
        # elements alike
        for L in algebras:
            linf = lower_central_series(L).last
            if linf.dim == 0:
                continue
            aoc = action_on_cohomology(L, linf, trivial_module(L))
            for a in range(aoc.quotient.algebra.dim):
                chain_action(L, linf, trivial_module(L), aoc.quotient.lift(a))
            for row in linf.basis.data:
                chain_action(L, linf, trivial_module(L), row)

        # inflation is a chain map on every catalog entry
        for L in algebras:
            nq = nil_quotient(L)
            inflation_map(L, nq, ce_complex(L, trivial_module(L)),
                          ce_complex(nq.algebra, trivial_module(nq.algebra)))

        # straightening: confluence and degree multiplicativity
        for L in algebras:
            if L.dim == 0:
                continue
            for _ in range(10):
                word = tuple(rng.randrange(L.dim)
                             for _ in range(rng.randrange(1, 6)))
                assert (straighten(L.c, word) == straighten(L.c, word, last=True)
                        == pbw_normal_form(L, word).terms)
            for _ in range(10):
                u = UEAElement(L.dim, {tuple(rng.randrange(2) for _ in range(L.dim)):
                                       Fraction(rng.randint(1, 3))})
                v = UEAElement(L.dim, {tuple(rng.randrange(2) for _ in range(L.dim)):
                                       Fraction(rng.randint(1, 3))})
                if u.is_zero() or v.is_zero():
                    continue
                assert multiply(L, u, v).degree() == u.degree() + v.degree()


def test_criterion_8_vanishing_for_nontrivial_characters():
    with criterion(8, "cohomology with a nonzero-character line of "
                      "coefficients vanishes identically"):
        rng = random.Random(77)
        for name in NILPOTENT_NAMES:
            L = catalog.get(name)
            for _ in range(20):
                chi = _random_character(rng, L)
                dims = cohomology(L, one_dim_module(L, chi)).dims
                assert dims == (0,) * (L.dim + 1), (name, chi.values)


def test_criterion_9_simple_algebra_sanity():
    with criterion(9, "traceless 2x2: cohomology (1,0,0,1), conditions fail, "
                      "stable term not solvable"):
        s = catalog.sl2()
        assert cohomology(s, trivial_module(s)).dims == (1, 0, 0, 1)
        report = check(s)
        assert report.condition2 is False
        assert report.condition3 is False
        assert report.linf_solvable is False
        linf = lower_central_series(s).last
        assert linf.dim == 3
        sub, _ = subalgebra(s, linf)
        from liecoh.lie import is_solvable
        assert not is_solvable(sub)
