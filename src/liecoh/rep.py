"""Finite dimensional modules over a Lie algebra.

A `LieModule` stores one action matrix per basis element of the acting
algebra and checks the bracket relations on every construction, so a
module object in hand is always a genuine representation.  A zero action
(`trivial_module`) satisfies each relation as 0 = 0, so the check settles
it without reading the structure constants.  Derived constructions
(dual, exterior powers, restriction, submodules) re-validate; a failure
there is an implementation bug and raises RepresentationLawError rather
than being swallowed.  The check keeps the action as int rows
(`_int_action`), its only int form, which every arithmetic reader of the
action uses.

The trivial-subquotient test is Engel's theorem.  Over an algebraic
closure a module M of a nilpotent algebra N splits into generalized
weight spaces, on each of which x - lambda(x) is nilpotent for one
linear form lambda, so every trivial composition factor lies in M_0, the
joint generalized kernel of the action matrices.  M_0 is an N-submodule
defined over Q on which all of N acts nilpotently, so M_0^N != 0 by
Engel's theorem when M_0 != 0; and an invariant spans a trivial
submodule.  Hence M has a trivial subquotient iff M^N != 0, which is one
kernel of the stacked action rows (`invariants`), with no matrix power.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

from .errors import (
    CharacterError,
    ContainmentError,
    DimensionMismatchError,
    NotNilpotentError,
    RepresentationLawError,
)
from .lie import LieAlgebra, _constants, is_nilpotent, subalgebra
from .linalg import QMatrix, Subspace, _kernel, _scaled, vector
from .wedge import _matrices, _term

__all__ = [
    "LieModule",
    "Character",
    "trivial_module",
    "one_dim_module",
    "adjoint_module",
    "dual",
    "exterior_power",
    "restrict",
    "submodule",
    "invariants",
    "has_trivial_subquotient",
]


class LieModule:
    """A representation: rho[i] is the matrix by which basis element i acts;
    `_int_action` = (D, P) from the law check holds the sparse int rows P[i]
    of D rho[i], D the lcm of the denominators.  Callers must not mutate it."""

    __slots__ = ("algebra", "dim", "rho", "_int_action")

    def __init__(self, algebra: LieAlgebra, rho, dim: int | None = None):
        rho = tuple(m if isinstance(m, QMatrix) else QMatrix(m) for m in rho)
        if len(rho) != algebra.dim:
            raise DimensionMismatchError("one action matrix per basis element")
        if dim is None:
            # over the zero algebra the size cannot be inferred from rho
            dim = rho[0].rows if rho else 0
        if dim < 0:
            raise DimensionMismatchError(f"a module cannot have dimension {dim}")
        for m in rho:
            if m.rows != m.cols or m.rows != dim:
                raise DimensionMismatchError(
                    f"action matrices must be square of the module's size {dim}")
        self.algebra = algebra
        self.dim = dim
        self.rho = rho
        self._check_representation_law()

    def _check_representation_law(self):
        """rho([e_i, e_j]) = [rho(e_i), rho(e_j)] for every pair i < j, in order.

        Checked row by row on sparse int matrices: with P_a = D rho(e_a)
        and the ints E c_ij^k of `lie._constants`, D and E the lcms of the
        action's and the structure constants' denominators,
        E (P_i P_j - P_j P_i) must equal D sum_k (E c_ij^k) P_k, the sum
        running over the nonzero c_ij^k.  (D, P) is kept as `_int_action`.
        When every P_a is zero both sides are 0, and the check returns
        before `lie._constants` is read.
        """
        D = lcm(*[a.denominator for mat in self.rho for row in mat.entries for a in row.values()])
        P = tuple(tuple({k: _scaled(a, D) for k, a in row.items()} for row in mat.entries)
                  for mat in self.rho)
        self._int_action = D, P
        if not any(any(rows) for rows in P):
            return
        n = self.algebra.dim
        E, table = _constants(self.algebra)
        for i in range(n):
            for j in range(i + 1, n):
                products = ((P[i], P[j], E), (P[j], P[i], -E))
                rhs = [(P[k], D * g) for k, g in table[i][j]]
                for r in range(self.dim):
                    acc: dict = {}
                    for A, B, f in products:
                        for k, a in A[r].items():
                            fa = f * a
                            for col, b in B[k].items():
                                acc[col] = acc.get(col, 0) + fa * b
                    for Pk, f in rhs:
                        for col, b in Pk[r].items():
                            acc[col] = acc.get(col, 0) - f * b
                    if any(acc.values()):
                        raise RepresentationLawError(
                            f"action matrices break the bracket of "
                            f"{self.algebra.labels[i]} and {self.algebra.labels[j]}")

    def action(self, x) -> QMatrix:
        """Action matrix of an arbitrary algebra element (coordinate vector)."""
        x = vector(x)
        if len(x) != self.algebra.dim:
            raise DimensionMismatchError("element must have the algebra's dimension")
        out = QMatrix.zero(self.dim, self.dim)
        for a, m in zip(x, self.rho):
            if a:
                out = out + m.scale(a)
        return out

    def is_trivial(self) -> bool:
        return all(m.is_zero() for m in self.rho)

    def __eq__(self, other):
        if not isinstance(other, LieModule):
            return NotImplemented
        return (self.algebra, self.dim, self.rho) == (other.algebra, other.dim, other.rho)

    def __repr__(self):
        return f"<LieModule dim={self.dim} over {self.algebra!r}>"


@dataclass(frozen=True)
class Character:
    """A one-dimensional action: one rational per basis element.

    Valid characters vanish on all brackets; `one_dim_module` enforces
    this.
    """

    values: tuple[Fraction, ...]

    @classmethod
    def of(cls, values) -> "Character":
        return cls(vector(values))

    def is_additive(self, L: LieAlgebra) -> bool:
        """Whether the values vanish on every [e_i, e_j], read off `lie._constants`."""
        table = _constants(L)[1]
        return not any(sum(g * self.values[k] for k, g in terms) for row in table for terms in row)

    def is_zero(self) -> bool:
        return not any(self.values)


def trivial_module(L: LieAlgebra, dim: int = 1) -> LieModule:
    """The module of the given size with zero action."""
    return LieModule(L, tuple(QMatrix.zero(dim, dim) for _ in range(L.dim)), dim=dim)


def one_dim_module(L: LieAlgebra, chi: Character) -> LieModule:
    """One-dimensional module on which e_i acts by chi.values[i]."""
    if len(chi.values) != L.dim:
        raise DimensionMismatchError("one character value per basis element")
    if not chi.is_additive(L):
        raise CharacterError("character does not vanish on the derived subalgebra")
    return LieModule(L, tuple(QMatrix([[v]]) for v in chi.values))


def adjoint_module(L: LieAlgebra) -> LieModule:
    """The algebra acting on itself by the bracket."""
    return LieModule(L, tuple(L.bracket_matrix(i) for i in range(L.dim)))


def dual(M: LieModule) -> LieModule:
    """Contragredient module: x acts by minus the transpose."""
    return LieModule(M.algebra, tuple((-m.transpose()) for m in M.rho), dim=M.dim)


def exterior_power(M: LieModule, p: int) -> LieModule:
    """The p-th exterior power, with the action extended as a derivation.

    Built from the nonzero entries alone, with wedges R as bitmasks: each
    nonzero mat[k][s] adds (-1)^(a(s) + a(k)) mat[k][s] at row R + k,
    column R + s, for every (p-1)-wedge R without s and k, a(.) counting
    the entries of R below an index: e_s moves to the front of R + s and
    e_k sorts back in.  The terms are the ints of `_int_action`, added
    up over its D as in the cochain differential.
    """
    if p < 0:
        raise ValueError(f"exterior powers start at p = 0, got p = {p}")
    D, P = M._int_action
    rho = []
    for rows in P:
        terms = []
        for k, row in enumerate(rows):
            for s, a in row.items():
                _term(terms, (k,), (s,), [(0, 0, a)])
        rho.append(_matrices(terms, M.dim, 1, D, p, 0))
    return LieModule(M.algebra, rho, dim=comb(M.dim, p))


def restrict(M: LieModule, sub: Subspace) -> LieModule:
    """Restriction of the action to a bracket-closed subspace of the algebra.

    The result is a module over the subalgebra carried by `sub`, in that
    subalgebra's canonical basis.
    """
    if sub.ambient_dim != M.algebra.dim:
        raise DimensionMismatchError("subspace must sit inside the acting algebra")
    sub_alg, inclusion = subalgebra(M.algebra, sub)
    rho = [M.action(inclusion.column(a)) for a in range(sub_alg.dim)]
    return LieModule(sub_alg, rho, dim=M.dim)


def submodule(M: LieModule, sub: Subspace) -> LieModule:
    """The action induced on an invariant subspace, in its canonical basis."""
    if sub.ambient_dim != M.dim:
        raise DimensionMismatchError("subspace must sit inside the module")
    rows = sub.basis.data
    pivots = sub.pivots()
    rho = []
    for mat in M.rho:
        cols = []
        for r in rows:
            w = mat.apply(r)
            if not sub.contains(w):
                raise ContainmentError("subspace is not invariant under the action")
            cols.append(tuple(w[p] for p in pivots))
        rho.append(QMatrix.from_columns(cols, rows=sub.dim))
    return LieModule(M.algebra, rho, dim=sub.dim)


def invariants(M: LieModule) -> Subspace:
    """Joint kernel of all action matrices: one kernel of their stacked int rows."""
    return _kernel([row for rows in M._int_action[1] for row in rows], range(M.dim), M.dim)


def has_trivial_subquotient(M: LieModule) -> bool:
    """Whether some subquotient is the trivial one-dimensional module.

    Only meaningful (and only allowed) over a nilpotent acting algebra:
    there, by Engel's theorem (module docstring), that happens exactly
    when the invariants are nonzero.
    """
    if not is_nilpotent(M.algebra):
        raise NotNilpotentError("trivial-subquotient detection needs a nilpotent algebra")
    return invariants(M).dim > 0
