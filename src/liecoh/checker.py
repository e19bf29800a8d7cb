"""Decision procedure for the equivalence criteria and their consistency.

`check` gathers, for a single algebra, everything the library can say
about the two equivalent conditions:

* condition 2: pullback from the nilpotent quotient is an isomorphism on
  cohomology in every degree;
* condition 3: no positive-degree cohomology of the stable lower-central
  term has a trivial subquotient as a module over the nilpotent quotient.

The derived-category formulation of the equivalence has no finite
computation behind it; it is reported exactly as the shared verdict of
conditions 2 and 3 and nothing more.

`verify_report` asserts the cross-theorem invariants (two-condition
agreement, the nilpotent fast path, solvability of the stable term when
condition 3 holds and exactly when L is solvable, a trivial subquotient
in H^q(L^inf) exactly when E2^{0,q} != 0, each verdict and the bottom
row against their evidence, bottom-row collapse of the starting page,
and the page's dimension bound against the abutting cohomology).
`check_catalog` runs all of that over every built-in example.
"""

import random
from dataclasses import dataclass

from .catalog import _triangular, get, names
from .cohomology import (
    E2Page,
    _e2_from_action,
    _page,
    inflation_on_cohomology,
)
from .errors import InvariantError, NotASubalgebraError
from .lie import LieAlgebra, is_solvable, validate
from .rep import invariants

__all__ = [
    "TheoremReport",
    "check",
    "verify_report",
    "check_catalog",
    "random_solvable_algebra",
]


@dataclass(frozen=True)
class TheoremReport:
    """All verdicts for one algebra, with the dimension tables behind them.

    h_total / h_nil are the cohomology dimensions of the algebra and of
    its nilpotent quotient (the latter zero-padded to equal length);
    trivial_subquotient_in_hq[q-1] records the subquotient test in
    positive degree q of the stable term's cohomology.
    """

    is_nilpotent: bool
    is_solvable: bool
    linf_dim: int
    condition2: bool
    condition2_per_degree: tuple[bool, ...]
    condition3: bool
    trivial_subquotient_in_hq: tuple[bool, ...]
    conditions_agree: bool
    rees_noetherian: bool
    linf_solvable: bool
    h_total: tuple[int, ...]
    h_nil: tuple[int, ...]
    e2_table: tuple[tuple[int, ...], ...]
    e2_bottom_row: tuple[int, ...]


def check(L: LieAlgebra) -> TheoremReport:
    """Run the full decision procedure on a validated algebra."""
    validate(L).require()
    linf, aoc, page = _page(L)
    infl = inflation_on_cohomology(L, aoc.quotient, page[0])
    # N is nilpotent, so a trivial subquotient is a nonzero invariant (Engel, `rep`)
    trivial_in = tuple(invariants(aoc.modules[q]).dim > 0 for q in range(1, linf.dim + 1))
    condition3 = not any(trivial_in)
    condition2 = infl.is_isomorphism
    e2 = _e2_from_action(page)

    return TheoremReport(
        is_nilpotent=linf.dim == 0,
        is_solvable=is_solvable(L),
        linf_dim=linf.dim,
        condition2=condition2,
        condition2_per_degree=infl.iso_per_degree,
        condition3=condition3,
        trivial_subquotient_in_hq=trivial_in,
        conditions_agree=condition2 == condition3,
        rees_noetherian=linf.dim == 0,      # `pbw.is_rees_noetherian`
        linf_solvable=is_solvable(aoc.ideal_cohomology.complex.algebra),
        h_total=infl.target_dims,
        h_nil=infl.source_dims,
        e2_table=e2.dims,
        e2_bottom_row=e2.bottom_row,
    )


def _padded(seq, length):
    return tuple(seq) + (0,) * (length - len(seq))


def verify_report(report: TheoremReport, context: str = "") -> None:
    """Raise InvariantError if any cross-theorem invariant fails."""
    where = f" [{context}]" if context else ""

    def fail(msg):
        raise InvariantError(msg + where)

    if report.conditions_agree != (report.condition2 == report.condition3):
        fail("conditions_agree is inconsistent with the two verdicts")
    if not report.conditions_agree:
        fail(f"condition 2 ({report.condition2}) and condition 3 "
             f"({report.condition3}) disagree")
    if report.is_nilpotent and not (report.condition2 and report.condition3
                                    and report.rees_noetherian):
        fail("nilpotent algebra must satisfy both conditions and be Rees-Noetherian")
    if report.rees_noetherian != report.is_nilpotent:
        fail("graded Noetherianity must coincide with nilpotency")
    if report.condition3 and not report.linf_solvable:
        fail("condition 3 holds but the stable lower-central term is not solvable")
    # L/L^inf is nilpotent, so L is solvable exactly when L^inf is
    if report.is_solvable != report.linf_solvable:
        fail("is_solvable differs from the solvability of the stable lower-central term")
    # H^0(N, M) = M^N, from delta_0 of N's complex, is nonzero exactly when M has a
    # trivial subquotient, found from the stacked action rows of `rep.invariants`
    invariant = tuple(d > 0 for d in report.e2_table[0][1:])
    if report.trivial_subquotient_in_hq != invariant:
        fail(f"trivial subquotients {report.trivial_subquotient_in_hq} in H^q, q >= 1, "
             f"differ from the nonzero page entries E2^(0,q) {invariant}")
    if report.condition2 != all(report.condition2_per_degree):
        fail(f"condition 2 differs from its per-degree verdicts {report.condition2_per_degree}")
    if report.condition3 != (not any(report.trivial_subquotient_in_hq)):
        fail(f"condition 3 differs from its subquotient tests {report.trivial_subquotient_in_hq}")
    if report.e2_bottom_row != tuple(row[0] for row in report.e2_table):
        fail(f"bottom row {report.e2_bottom_row} differs from the page's E2^(p,0)")

    n = len(report.h_total)
    if report.condition3:
        bottom = _padded(report.e2_bottom_row, n)
        if bottom != report.h_total:
            fail(f"condition 3 holds but the bottom row {bottom} differs "
                 f"from the total cohomology {report.h_total}")
        for p, row in enumerate(report.e2_table):
            for q, d in enumerate(row):
                if q > 0 and d:
                    fail(f"condition 3 holds but the page has dimension {d} "
                         f"at position ({p}, {q})")
    page = E2Page(report.e2_table)
    for t in range(n):
        total = page.antidiagonal_sum(t)
        if total < report.h_total[t]:
            fail(f"page dimensions {total} in total degree {t} fall below "
                 f"the abutting cohomology {report.h_total[t]}")


def check_catalog() -> list[tuple[str, TheoremReport]]:
    """`check` on every built-in example, with all invariants enforced."""
    out = []
    for name in names():
        report = check(get(name))
        verify_report(report, context=name)
        out.append((name, report))
    return out


_SUPPORTS_3 = (
    (),
    ((0, 1),),
    ((0, 2),),
    ((1, 2),),
    ((0, 1), (0, 2)),
    ((1, 2), (0, 2)),
    ((0, 1), (1, 2), (0, 2)),
)

_SUPPORTS_4 = (
    ((0, 1), (2, 3)),
    ((0, 1), (1, 2), (0, 2)),
    ((0, 3),),
    ((0, 1), (1, 3), (0, 3)),
)


def random_solvable_algebra(rng: random.Random) -> LieAlgebra:
    """A random solvable subalgebra of upper-triangular matrices, dim <= 5.

    Strictly upper-triangular positions closed under composition, plus up
    to two random diagonal matrices D1, D2, spanned by `catalog._triangular`.
    Hits nilpotent and non-nilpotent cases, and both verdicts of the two
    conditions.
    """
    while True:
        if rng.random() < 0.75:
            n, support = 3, rng.choice(_SUPPORTS_3)
            diag_count = rng.choice((0, 1, 1, 2))
        else:
            n, support = 4, rng.choice(_SUPPORTS_4)
            diag_count = rng.choice((0, 1))
        diagonals = []
        for d in range(diag_count):
            entries = [rng.randint(-2, 2) for _ in range(n)]
            if not any(entries):
                entries[rng.randrange(n)] = 1
            diagonals.append((f"D{d+1}", entries))
        if not diagonals and not support:
            continue
        try:
            return _triangular(n, diagonals, support)
        except NotASubalgebraError:
            continue  # dependent diagonal picks; draw again
