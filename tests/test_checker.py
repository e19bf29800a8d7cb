import dataclasses
import random
import re

import pytest

from liecoh import catalog
from liecoh.checker import (
    check,
    check_catalog,
    random_solvable_algebra,
    verify_report,
)
from liecoh.errors import InvalidAlgebraError, InvariantError
from liecoh.lie import LieAlgebra, is_nilpotent, is_solvable, validate


EXPECTED = {
    # name: (condition2, condition3, rees_noetherian)
    "abelian1": (True, True, True),
    "abelian2": (True, True, True),
    "abelian3": (True, True, True),
    "abelian4": (True, True, True),
    "heisenberg3": (True, True, True),
    "strict-ut3": (True, True, True),
    "exampleA": (True, True, False),
    "ut3": (True, True, False),
    "propC": (False, False, False),
    "amazing-L": (True, True, False),
    "sl2": (False, False, False),
}


def test_catalog_verdicts():
    for name, (c2, c3, rees) in EXPECTED.items():
        report = check(catalog.get(name))
        assert report.condition2 == c2, name
        assert report.condition3 == c3, name
        assert report.rees_noetherian == rees, name
        assert report.conditions_agree, name


def test_check_catalog_runs_and_verifies():
    results = check_catalog()
    assert len(results) == len(catalog.names())
    names = [name for name, _ in results]
    for required in ("abelian4", "heisenberg3", "exampleA", "ut3",
                     "strict-ut3", "propC", "amazing-L", "sl2"):
        assert required in names


def test_nilpotent_fast_path():
    report = check(catalog.heisenberg3())
    assert report.is_nilpotent
    assert report.linf_dim == 0
    assert report.condition2 and report.condition3 and report.rees_noetherian
    assert report.trivial_subquotient_in_hq == ()


def test_sl2_contrapositive_of_solvability():
    report = check(catalog.sl2())
    assert not report.linf_solvable
    assert not report.condition3          # contrapositive consistency
    assert report.h_total == (1, 0, 0, 1)
    assert report.e2_table == ((1, 0, 0, 1),)


def test_example_a_report_details():
    report = check(catalog.example_a())
    assert report.linf_dim == 1
    assert report.is_solvable and not report.is_nilpotent
    assert report.trivial_subquotient_in_hq == (False,)
    assert report.e2_bottom_row == (1, 1)
    assert report.h_total == (1, 1, 0)
    assert report.h_nil == (1, 1, 0)


def test_prop_c_report_details():
    report = check(catalog.prop_c())
    assert report.linf_dim == 3
    assert not report.condition2 and not report.condition3
    assert any(report.trivial_subquotient_in_hq)
    assert report.linf_solvable          # conditions fail, solvability holds
    # the top degree of the stable term carries a trivial class
    assert report.trivial_subquotient_in_hq[-1]


def test_check_propagates_validation_failure():
    bad = LieAlgebra.from_brackets(
        "xyz", {(0, 1): [(1, 2)], (0, 2): [(1, 0)], (1, 2): [(1, 1)]})
    with pytest.raises(InvalidAlgebraError):
        check(bad)


def test_verify_report_flags_inconsistencies():
    report = check(catalog.heisenberg3())
    broken = dataclasses.replace(report, rees_noetherian=False)
    with pytest.raises(InvariantError):
        verify_report(broken, context="synthetic")


def test_verify_report_matches_trivial_subquotients_with_the_page():
    for name in ("propC", "exampleA", "ut3"):
        report = check(catalog.get(name))
        verify_report(report, context=name)
        flipped = report.trivial_subquotient_in_hq[:-1] + (
            not report.trivial_subquotient_in_hq[-1],)
        # every other field stays as computed, so only the page comparison can fire
        broken = dataclasses.replace(report, trivial_subquotient_in_hq=flipped)
        with pytest.raises(InvariantError, match="E2"):
            verify_report(broken, context=name)


def test_verify_report_ties_verdicts_and_bottom_row_to_their_evidence():
    a = check(catalog.example_a())
    tampered = (
        (dataclasses.replace(a, condition2=False, condition3=False), "condition 2"),
        (dataclasses.replace(a, condition2_per_degree=(True, False, True)), "condition 2"),
        (dataclasses.replace(check(catalog.prop_c()), e2_bottom_row=(9,)), "bottom row"),
    )
    for broken, message in tampered:
        with pytest.raises(InvariantError, match=message):
            verify_report(broken)


# one tampered catalog report per failure message; the other fields are
# chosen so that no earlier check fires first
TAMPERED = {
    "conditions_agree is inconsistent with the two verdicts":
        ("heisenberg3", {"conditions_agree": False}),
    "condition 2 (False) and condition 3 (True) disagree":
        ("exampleA", {"condition2": False, "condition2_per_degree": (True, False, True),
                      "conditions_agree": False}),
    "graded Noetherianity must coincide with nilpotency":
        ("exampleA", {"rees_noetherian": True}),
    "condition 3 holds but the stable lower-central term is not solvable":
        ("exampleA", {"linf_solvable": False}),
    "condition 3 differs from its subquotient tests":
        ("amazing-L", {"condition2": False, "condition3": False,
                       "condition2_per_degree": (True, True, True, True, True, False)}),
    "condition 3 holds but the bottom row (1, 1, 0) differs from the total cohomology":
        ("exampleA", {"h_total": (1, 2, 0)}),
    "condition 3 holds but the page has dimension 1 at position (1, 1)":
        ("exampleA", {"e2_table": ((1, 0), (1, 1))}),
    "page dimensions 1 in total degree 5 fall below the abutting cohomology 2":
        ("propC", {"h_total": (1, 2, 1, 1, 2, 2)}),
}


@pytest.mark.parametrize("message", TAMPERED)
def test_verify_report_reaches_each_failure_message(message):
    name, changes = TAMPERED[message]
    report = check(catalog.get(name))
    verify_report(report, context=name)
    with pytest.raises(InvariantError, match=re.escape(message)):
        verify_report(dataclasses.replace(report, **changes), context=name)


def test_verify_report_ties_solvability_to_the_stable_term():
    for name in ("amazing-L", "sl2", "heisenberg3"):
        report = check(catalog.get(name))
        broken = dataclasses.replace(report, is_solvable=not report.is_solvable)
        with pytest.raises(InvariantError, match="is_solvable"):
            verify_report(broken, context=name)


def test_random_solvable_algebras_are_what_they_claim():
    rng = random.Random(41)
    for _ in range(25):
        L = random_solvable_algebra(rng)
        assert 1 <= L.dim <= 5
        assert validate(L).ok
        assert is_solvable(L)


def test_random_equivalence_spot_run():
    rng = random.Random(42)
    seen_false = seen_true = seen_nilpotent = False
    for i in range(20):
        L = random_solvable_algebra(rng)
        report = check(L)
        verify_report(report, context=f"random {i}")
        seen_false = seen_false or not report.condition3
        seen_true = seen_true or report.condition3
        seen_nilpotent = seen_nilpotent or report.is_nilpotent
    assert seen_true and seen_nilpotent


def test_condition3_implies_stable_term_solvable_on_catalog():
    for name in catalog.names():
        report = check(catalog.get(name))
        if report.condition3:
            assert report.linf_solvable, name


def test_nilpotency_flags_consistent():
    for name in catalog.names():
        L = catalog.get(name)
        report = check(L)
        assert report.is_nilpotent == is_nilpotent(L)
        assert report.is_solvable == is_solvable(L)
