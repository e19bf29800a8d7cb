"""Every public refusal of the library raises its typed error in-process.

Each case is a call on bad input, the error type it must raise and a
fragment of the message: wrong shapes and lengths, mismatched ambient
dimensions, a span that is not closed, and out-of-range indices.
"""

import re

import pytest

from liecoh import catalog
from liecoh.cohomology import action_on_cohomology, cohomology
from liecoh.errors import DimensionMismatchError, NotASubalgebraError
from liecoh.lie import (
    LieAlgebra,
    bracket,
    lower_central_series,
    nil_quotient,
    reorder_basis,
    subalgebra,
)
from liecoh.linalg import QMatrix, Subspace, quotient_basis
from liecoh.pbw import UEAElement, ipower_bruteforce, ipower_predicted, rees_layer_table
from liecoh.rep import (
    Character,
    LieModule,
    exterior_power,
    one_dim_module,
    restrict,
    submodule,
    trivial_module,
)

H = catalog.heisenberg3()
A = catalog.abelian(2)
Z = LieAlgebra(())           # no action matrix pins a module's size
ONE, TWO = Subspace.full(1), Subspace.full(2)
H_COH = cohomology(H, trivial_module(H))

CASES = {
    # lie
    "cubic table": (lambda: LieAlgebra([[[0, 0]], [[0, 0]]]),
                    DimensionMismatchError, "structure constants must be dim x dim x dim"),
    "labels": (lambda: LieAlgebra(A.c, ["a"]),
               DimensionMismatchError, "one label per basis element"),
    "bracket pair": (lambda: LieAlgebra.from_brackets("ab", {(1, 0): [(1, 0)]}),
                     DimensionMismatchError, "bracket pair (1, 0) must satisfy"),
    "bool bracket pair": (lambda: LieAlgebra.from_brackets("xyz", {(False, True): [(1, 2)]}),
                          DimensionMismatchError, "bracket pair (False, True) must satisfy"),
    "float bracket pair": (lambda: LieAlgebra.from_brackets("xyz", {(0.0, 1.0): [(1, 2)]}),
                           DimensionMismatchError, "bracket pair (0.0, 1.0) must satisfy"),
    "negative result index": (lambda: LieAlgebra.from_brackets("xyz", {(0, 1): [(1, -1)]}),
                              DimensionMismatchError,
                              "result index -1 of bracket pair (0, 1) must satisfy 0 <= k < dim"),
    "result index past the end": (lambda: LieAlgebra.from_brackets("xyz", {(0, 1): [(1, 3)]}),
                                  DimensionMismatchError,
                                  "result index 3 of bracket pair (0, 1) must satisfy"),
    "bool result index": (lambda: LieAlgebra.from_brackets("xyz", {(0, 1): [(1, True)]}),
                          DimensionMismatchError,
                          "result index True of bracket pair (0, 1) must satisfy"),
    "matrix labels": (lambda: LieAlgebra.from_matrices("ab", [[[1]]]),
                      DimensionMismatchError, "one label per matrix"),
    "non-square matrix": (lambda: LieAlgebra.from_matrices("a", [[[1, 2]]]),
                          DimensionMismatchError, "matrices must be square and of one size"),
    "matrices of two sizes": (lambda: LieAlgebra.from_matrices("ab", [[[1]], [[0, 1], [0, 0]]]),
                              DimensionMismatchError, "matrices must be square and of one size"),
    "matrices of two square sizes": (
        lambda: LieAlgebra.from_matrices("ab", [[[0, 1], [0, 0]], [[0] * 3] * 3]),
        DimensionMismatchError, "matrices must be square and of one size"),
    "open span": (lambda: LieAlgebra.from_matrices("xy", [[[0, 1], [0, 0]], [[0, 0], [1, 0]]]),
                  NotASubalgebraError, "[x, y] falls outside the span"),
    "bracket length": (lambda: bracket(H, (1, 0), (0, 1, 0)),
                       DimensionMismatchError, "vectors must have the algebra's dimension"),
    "term 0": (lambda: lower_central_series(H).term(0),
               ValueError, "terms are indexed from 1"),
    "subalgebra ambient": (lambda: subalgebra(H, TWO),
                           DimensionMismatchError, "subspace has wrong ambient dimension"),
    "permutation": (lambda: reorder_basis(H, (0, 0, 1)),
                    DimensionMismatchError, "order must be a permutation"),
    "bool order": (lambda: reorder_basis(H, (True, False, 2)),
                   DimensionMismatchError, "order must be a permutation"),
    "float order": (lambda: reorder_basis(H, (1.0, 0.0, 2.0)),
                    DimensionMismatchError, "order must be a permutation"),
    # linalg
    "ragged rows": (lambda: QMatrix([[1, 2], [3]]),
                    DimensionMismatchError, "rows of unequal length"),
    "column index": (lambda: QMatrix.identity(2)[0, 2],
                     IndexError, "column index out of range"),
    "column past the end": (lambda: QMatrix([[1, 2], [3, 4]]).column(5),
                            IndexError, "column index out of range"),
    "column before the start": (lambda: QMatrix([[1, 2], [3, 4]]).column(-3),
                                IndexError, "column index out of range"),
    "lift past the quotient": (lambda: nil_quotient(catalog.get("ut3")).lift(7),
                               IndexError, "column index out of range"),
    "apply length": (lambda: QMatrix.identity(2).apply((1,)),
                     DimensionMismatchError, "vector of length 1 for 2x2"),
    "row length": (lambda: Subspace.from_rows(2, [(1,)]),
                   DimensionMismatchError, "row length differs from ambient dimension"),
    "<= ambient": (lambda: ONE <= TWO,
                   DimensionMismatchError, "ambient dimensions differ"),
    "quotient_basis ambient": (lambda: quotient_basis(TWO, ONE),
                               DimensionMismatchError, "ambient dimensions differ"),
    # pbw
    "power 0": (lambda: ipower_bruteforce(H, 0, 2),
                ValueError, "powers of the augmentation ideal start at m = 1"),
    "generator past the end": (lambda: UEAElement.generator(3, 5),
                               ValueError, "generators are indices 0..2, got 5"),
    "negative generator": (lambda: UEAElement.generator(3, -1),
                           ValueError, "generators are indices 0..2, got -1"),
    "predicted power 0": (lambda: ipower_predicted(H, 0, 2),
                          ValueError, "powers of the augmentation ideal start at m = 1"),
    "negative degree": (lambda: ipower_bruteforce(H, 2, -1),
                        ValueError, "degrees start at r = 0, got r_max = -1"),
    "predicted negative degree": (lambda: ipower_predicted(H, 2, -1),
                                  ValueError, "degrees start at r = 0, got r_max = -1"),
    "negative layer degree": (lambda: rees_layer_table(H, -1, 2),
                              ValueError, "layers start at r = m = 0, got r_max = -1, m_max = 2"),
    "negative layer weight": (lambda: rees_layer_table(H, 2, -1),
                              ValueError, "layers start at r = m = 0, got r_max = 2, m_max = -1"),
    # rep
    "negative exterior power": (lambda: exterior_power(trivial_module(A), -1),
                                ValueError, "exterior powers start at p = 0, got p = -1"),
    "module matrices": (lambda: LieModule(A, [[[0]]]),
                        DimensionMismatchError, "one action matrix per basis element"),
    "negative module dim": (lambda: LieModule(Z, (), dim=-5),
                            DimensionMismatchError, "a module cannot have dimension -5"),
    "negative trivial dim": (lambda: trivial_module(Z, -1),
                             DimensionMismatchError, "a module cannot have dimension -1"),
    "action length": (lambda: trivial_module(A).action((1,)),
                      DimensionMismatchError, "element must have the algebra's dimension"),
    "character values": (lambda: one_dim_module(A, Character.of((1,))),
                         DimensionMismatchError, "one character value per basis element"),
    "restrict ambient": (lambda: restrict(trivial_module(A), Subspace.full(3)),
                         DimensionMismatchError, "subspace must sit inside the acting algebra"),
    "submodule ambient": (lambda: submodule(trivial_module(A), TWO),
                          DimensionMismatchError, "subspace must sit inside the module"),
    # cohomology
    "module over another algebra": (
        lambda: action_on_cohomology(H, Subspace.zero(3), trivial_module(catalog.abelian(3))),
        DimensionMismatchError, "coefficients must form a module over the ambient algebra"),
    "bool degree of coordinates": (lambda: H_COH.coordinates(True, QMatrix.zero(3, 1)),
                                   DimensionMismatchError, "degree True is outside 0..3"),
    "bool degree of project": (lambda: H_COH.project(True, (0, 0, 0)),
                               DimensionMismatchError, "degree True is outside 0..3"),
    "float degree of coordinates": (lambda: H_COH.coordinates(1.0, QMatrix.zero(3, 1)),
                                    DimensionMismatchError, "degree 1.0 is outside 0..3"),
    "float degree of project": (lambda: H_COH.project(1.0, (0, 0, 0)),
                                DimensionMismatchError, "degree 1.0 is outside 0..3"),
}


@pytest.mark.parametrize("case", CASES)
def test_public_calls_refuse_bad_input_with_a_typed_error(case):
    call, error, fragment = CASES[case]
    with pytest.raises(error, match=re.escape(fragment)):
        call()
