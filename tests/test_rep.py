import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecoh import catalog
from liecoh.checker import random_solvable_algebra
from liecoh.cohomology import action_on_cohomology
from liecoh.errors import (
    CharacterError,
    ContainmentError,
    DimensionMismatchError,
    NotNilpotentError,
    RepresentationLawError,
)
from liecoh.lie import LieAlgebra, bracket_span, lower_central_series, subalgebra
from liecoh.linalg import QMatrix, Subspace, kernel, unit_vector
from liecoh.rep import (
    Character,
    LieModule,
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

from oracles import det_permutation, exterior_power_matrix, generalized_kernel_nonzero, relabel


def test_trivial_module_examples():
    H = catalog.heisenberg3()
    t = trivial_module(H)
    assert t.dim == 1
    assert all(m == QMatrix.zero(1, 1) for m in t.rho)
    assert t.is_trivial()


def test_a_zero_action_passes_the_law_check_without_the_structure_constants(monkeypatch):
    import liecoh.rep as rep_module

    reads = []
    real = rep_module._constants

    def spy(L):
        reads.append(L)
        return real(L)

    monkeypatch.setattr(rep_module, "_constants", spy)
    L = catalog.ut(3)
    assert trivial_module(L).is_trivial() and trivial_module(L, 3).dim == 3
    assert reads == []
    adjoint_module(L)
    assert reads == [L]
    # [x, y] = z in the Heisenberg algebra: z acting alone by 1 breaks it
    H = catalog.heisenberg3()
    zero, one = QMatrix.zero(1, 1), QMatrix([[1]])
    with pytest.raises(RepresentationLawError):
        LieModule(H, (zero, zero, one))


def test_one_dim_module_requires_additive_character():
    H = catalog.heisenberg3()
    # [x, y] = z: a character must kill z, the other two values are free
    good = Character.of((0, 5, 0))
    M = one_dim_module(H, good)
    assert M.rho[1] == QMatrix([[5]])
    with pytest.raises(CharacterError):
        one_dim_module(H, Character.of((0, 0, 1)))


def test_one_dim_module_on_borel_line():
    # the x-line of the solvable 2-dim algebra carries the character -1
    A = catalog.example_a()
    line, _ = subalgebra(A, Subspace.from_rows(2, [unit_vector(2, 0)]))
    M = one_dim_module(line, Character.of((-1,)))
    assert M.rho[0] == QMatrix([[-1]])


def test_representation_law_enforced():
    s = catalog.sl2()
    bad = [QMatrix.identity(2), QMatrix([[0, 1], [0, 0]]), QMatrix([[0, 0], [1, 0]])]
    with pytest.raises(RepresentationLawError):
        LieModule(s, bad)


def _first_broken_pair(L, rho):
    """The first pair i < j with [rho_i, rho_j] != sum_k c_ij^k rho_k, from
    dense Fraction matrix products, or None."""
    d = len(rho[0]) if rho else 0

    def mul(a, b):
        return [[sum((a[r][t] * b[t][s] for t in range(d)), Fraction(0)) for s in range(d)]
                for r in range(d)]

    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            ij, ji = mul(rho[i], rho[j]), mul(rho[j], rho[i])
            for r in range(d):
                for s in range(d):
                    rhs = sum((L.c[i][j][k] * rho[k][r][s] for k in range(L.dim)), Fraction(0))
                    if ij[r][s] - ji[r][s] != rhs:
                        return i, j
    return None


def test_representation_law_names_the_first_broken_pair():
    rng = random.Random(406)
    seen = 0
    for name in catalog.names():
        L = catalog.get(name)
        for M in (adjoint_module(L), dual(adjoint_module(L))):
            for _ in range(4):
                rho = [[list(row) for row in mat.data] for mat in M.rho]
                if not rho or not M.dim:
                    continue
                a, r, s = rng.randrange(L.dim), rng.randrange(M.dim), rng.randrange(M.dim)
                rho[a][r][s] += Fraction(rng.choice((-1, 1, 2)), rng.choice((1, 3)))
                broken = _first_broken_pair(L, rho)
                if broken is None:
                    LieModule(L, rho)
                    continue
                i, j = broken
                with pytest.raises(RepresentationLawError) as err:
                    LieModule(L, rho)
                assert str(err.value) == (f"action matrices break the bracket of "
                                          f"{L.labels[i]} and {L.labels[j]}")
                seen += 1
    assert seen > 20


def test_module_size_must_match_the_matrices():
    one = catalog.abelian(1)
    with pytest.raises(DimensionMismatchError):
        LieModule(one, [QMatrix.identity(2)], dim=5)
    assert LieModule(one, [QMatrix.identity(2)], dim=2).dim == 2
    assert LieModule(catalog.abelian(0), [], dim=3).dim == 3


def test_adjoint_module_satisfies_law():
    for name in ("heisenberg3", "sl2", "propC", "amazing-L", "ut3"):
        adjoint_module(catalog.get(name))   # constructor re-validates


def test_dual_examples():
    H = catalog.heisenberg3()
    assert dual(trivial_module(H, 3)).is_trivial()
    ad = adjoint_module(catalog.sl2())
    assert dual(dual(ad)) == ad


def test_exterior_power_top_of_adjoint_action():
    # weights of t on the stable term are (2, -3, -1, 1); on the top
    # exterior power t acts by their sum, -1
    L = catalog.amazing_l()
    linf = lower_central_series(L).last
    on_linf = submodule(adjoint_module(L), linf)
    t_line = Subspace.from_rows(5, [unit_vector(5, 0)])
    over_t = restrict(on_linf, t_line)
    assert over_t.rho[0] == QMatrix([[2, 0, 0, 0], [0, -3, 0, 0],
                                     [0, 0, -1, 0], [0, 0, 0, 1]])
    top = exterior_power(over_t, 4)
    assert top.dim == 1
    assert top.rho[0] == QMatrix([[-1]])


def test_exterior_power_dimensions_and_law():
    ad = adjoint_module(catalog.sl2())
    for p, expected in ((0, 1), (1, 3), (2, 3), (3, 1)):
        assert exterior_power(ad, p).dim == expected


def test_exterior_power_entries_match_derivation_oracle():
    rng = random.Random(81)
    strict4 = catalog.strict_ut(4)
    algebras = [catalog.get(name) for name in catalog.names()]
    algebras.append(LieAlgebra(*relabel(strict4.c, strict4.labels, rng)))
    for L in algebras:
        ad = adjoint_module(L)
        for M in (ad, dual(ad)):
            for p in range(M.dim + 1):
                power = exterior_power(M, p)
                for mat, got in zip(M.rho, power.rho):
                    assert got.data == tuple(exterior_power_matrix(mat.data, p)), (L, p)
                    assert all(type(a) is Fraction for row in got.entries for a in row.values())


def test_prop_c_top_wedge_is_trivial_line():
    P = catalog.prop_c()
    linf = lower_central_series(P).last
    top = exterior_power(submodule(adjoint_module(P), linf), 3)
    assert top.dim == 1
    assert top.is_trivial()


def test_invariants_examples():
    H = catalog.heisenberg3()
    assert invariants(trivial_module(H, 4)) == Subspace.full(4)
    chi = Character.of((1, 0, 0))
    assert invariants(one_dim_module(H, chi)).dim == 0
    # invariants sit inside every kernel
    ad = adjoint_module(catalog.prop_c())
    inv = invariants(ad)
    for m in ad.rho:
        assert inv <= kernel(m)


def test_wedge_dual_invariants_of_diagonal_action():
    # subset weight sums of (-2, 3, 1, -1) vanish exactly thrice:
    # empty, z*w*, x*y*w*
    L = catalog.amazing_l()
    linf = lower_central_series(L).last
    t_line = Subspace.from_rows(5, [unit_vector(5, 0)])
    over_t = restrict(submodule(adjoint_module(L), linf), t_line)
    total = sum(invariants(exterior_power(dual(over_t), p)).dim for p in range(5))
    assert total == 3


def test_has_trivial_subquotient_basics():
    H = catalog.heisenberg3()
    assert has_trivial_subquotient(trivial_module(H))
    assert has_trivial_subquotient(trivial_module(H, 3))
    chi = Character.of((2, 0, 0))
    assert not has_trivial_subquotient(one_dim_module(H, chi))
    assert has_trivial_subquotient(one_dim_module(H, Character.of((0, 0, 0))))
    assert not has_trivial_subquotient(trivial_module(H, 0))


def test_has_trivial_subquotient_needs_nilpotent():
    s = catalog.sl2()
    with pytest.raises(NotNilpotentError):
        has_trivial_subquotient(adjoint_module(s))


def test_one_dim_iff_zero_character():
    H = catalog.heisenberg3()
    rng = random.Random(5)
    for _ in range(20):
        vals = (rng.randint(-3, 3), rng.randint(-3, 3), 0)
        chi = Character.of(vals)
        M = one_dim_module(H, chi)
        assert has_trivial_subquotient(M) == chi.is_zero()


def test_nilpotent_single_operator_agrees_with_determinant_oracle():
    # over a one-dimensional algebra, a trivial subquotient exists exactly
    # when zero is an eigenvalue, i.e. when the determinant vanishes
    one = catalog.abelian(1)
    rng = random.Random(6)
    for _ in range(40):
        d = rng.randrange(1, 5)
        mat = [[Fraction(rng.randint(-2, 2)) for _ in range(d)] for _ in range(d)]
        M = LieModule(one, [QMatrix(mat)])
        assert has_trivial_subquotient(M) == (det_permutation(mat) == 0)


def test_generalized_kernel_sees_nilpotent_blocks():
    # strictly upper-triangular single operator: no kernel complement
    # tricks, the generalized kernel must still be everything
    one = catalog.abelian(1)
    mat = QMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    M = LieModule(one, [mat])
    assert invariants(M).dim == 1
    assert has_trivial_subquotient(M)


def test_monotone_under_direct_sums():
    H = catalog.heisenberg3()
    rng = random.Random(8)
    mods = []
    for _ in range(8):
        vals = (rng.randint(-2, 2), rng.randint(-2, 2), 0)
        mods.append(one_dim_module(H, Character.of(vals)))
    for a in mods:
        for b in mods:
            # the block-diagonal sum of a and b
            both = LieModule(H, [[[x[0, 0], 0], [0, y[0, 0]]] for x, y in zip(a.rho, b.rho)])
            assert has_trivial_subquotient(both) == (
                has_trivial_subquotient(a) or has_trivial_subquotient(b))


def test_invariants_inside_generalized_zero_weight_space():
    P = catalog.prop_c()
    linf = lower_central_series(P).last
    nilq_side = submodule(adjoint_module(P), linf)
    inv = invariants(nilq_side)
    gen0 = Subspace.full(nilq_side.dim)
    for mat in nilq_side.rho:
        power = QMatrix.identity(nilq_side.dim)
        for _ in range(nilq_side.dim):
            power = power * mat
        gen0 = gen0 & kernel(power)
    assert inv <= gen0


def test_restrict_requires_subalgebra():
    s = catalog.sl2()
    ad = adjoint_module(s)
    from liecoh.errors import NotASubalgebraError
    with pytest.raises(NotASubalgebraError):
        restrict(ad, Subspace.from_rows(3, [unit_vector(3, 1), unit_vector(3, 2)]))


def test_submodule_requires_invariant_subspace():
    s = catalog.sl2()
    ad = adjoint_module(s)
    with pytest.raises(ContainmentError):
        submodule(ad, Subspace.from_rows(3, [unit_vector(3, 0)]))


def test_derived_subalgebra_pairing_of_characters():
    for name in ("heisenberg3", "strict-ut3", "abelian3"):
        L = catalog.get(name)
        derived = bracket_span(L, Subspace.full(L.dim), Subspace.full(L.dim))
        chi_rows = kernel(QMatrix(derived.basis.data, cols=L.dim))
        for row in chi_rows.basis.data:
            assert Character.of(row).is_additive(L)


# --- invariants and trivial subquotients against the Fitting-power oracle --

def _assert_invariants_agree(M, label):
    """`invariants` is the iterated intersection of the action kernels, and
    `has_trivial_subquotient` is both "invariants are nonzero" and the
    oracle's "joint generalized kernel is nonzero" (Engel).  Returns the
    verdict."""
    joint = Subspace.full(M.dim)
    for mat in M.rho:
        joint = joint & kernel(mat)
    inv = invariants(M)
    assert inv == joint, label
    trivial = has_trivial_subquotient(M)
    assert trivial == (inv.dim > 0), label
    assert trivial == generalized_kernel_nonzero([m.data for m in M.rho], M.dim), label
    return trivial


def test_invariants_on_every_cohomology_module():
    rng = random.Random(1201)
    algebras = [(name, catalog.get(name)) for name in catalog.names()]
    algebras += [(f"random {i}", random_solvable_algebra(rng)) for i in range(50)]
    algebras.append(("relabelled ut(4)",
                     LieAlgebra(*relabel(catalog.ut(4).c, catalog.ut(4).labels, rng))))
    verdicts = set()
    for label, L in algebras:
        linf = lower_central_series(L).last
        for q, M in enumerate(action_on_cohomology(L, linf, trivial_module(L)).modules):
            verdicts.add(_assert_invariants_agree(M, (label, q)))
    assert verdicts == {True, False}


def test_invariants_on_adjoint_duals_and_exterior_powers():
    for name in ("abelian1", "abelian2", "abelian3", "abelian4", "heisenberg3", "strict-ut3"):
        L = catalog.get(name)
        ad = adjoint_module(L)
        for M in (ad, dual(ad)):
            for p in range(L.dim + 1):
                _assert_invariants_agree(exterior_power(M, p), (name, p))


@st.composite
def _weight_block_modules(draw):
    """A module of the abelian algebra of dimension k, upper triangular and
    block diagonal.  On block i, e_j acts by lam_i(e_j) plus a polynomial
    without constant term in one strictly upper-triangular N_i, so the
    actions commute and block i is the generalized weight space of lam_i."""
    k = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    d = sum(sizes)
    rho = [[[0] * d for _ in range(d)] for _ in range(k)]
    weights = []
    start = 0
    for s in sizes:
        lam = draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
        weights.append(lam)
        N = [[draw(st.integers(-2, 2)) if r < c else 0 for c in range(s)] for r in range(s)]
        N2 = [[sum(N[r][t] * N[t][c] for t in range(s)) for c in range(s)] for r in range(s)]
        for j in range(k):
            a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            for r in range(s):
                for c in range(s):
                    diagonal = lam[j] if r == c else 0
                    rho[j][start + r][start + c] = diagonal + a * N[r][c] + b * N2[r][c]
        start += s
    return LieModule(catalog.abelian(k), rho), weights


@settings(max_examples=80, deadline=None)
@given(_weight_block_modules())
def test_invariants_on_triangular_modules_of_abelian_algebras(drawn):
    M, weights = drawn
    # a trivial subquotient is a block whose weight is zero on every e_j
    assert _assert_invariants_agree(M, weights) == any(not any(lam) for lam in weights)
