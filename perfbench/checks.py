"""Oracles and per-op output checks, applied after the timed phase.

Expected values come from closed forms or from routines that share no
code with the library:

* the closed forms attached to the inputs (`Base.h_closed`, `Base.facts`):
  dim H^k(ut(n)) = C(n, k) and Kostant's inversion counts for
  strict_ut(n);
* every other cohomology dimension from `tests/oracles.py`, which
  evaluates the differential from its defining formula;
* lower central and derived series dimensions, and from them the PBW
  weights, by the small elimination below.

Dimensions are basis-independent, so each oracle is computed once per
isomorphism class (`Base.key`) and compared with every relabeling.
"""

import json
from fractions import Fraction
from math import comb

import oracles  # tests/oracles.py; imports nothing from the library


def summarize(kind, stdout):
    """The parts of one command's JSON that its check reads.

    Called right after each op, outside its latency, so that large
    outputs (cohomology representatives) are not held for the whole run.
    """
    if not stdout:
        return None
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return {"unparsable": stdout[:200]}
    if doc.get("command") == "cohomology":
        doc["representatives"] = {q: [len(v) for v in reps]
                                  for q, reps in doc["representatives"].items()}
    elif doc.get("command") == "series":
        for chain in ("lower_central", "derived"):
            doc[chain].pop("bases", None)
    return doc


class Oracles:
    """Expected answers per isomorphism class, computed on first use."""

    def __init__(self):
        self._cache = {}

    def _memo(self, what, base, compute):
        key = (what, base.key)
        if key not in self._cache:
            self._cache[key] = compute(base)
        return self._cache[key]

    def h_trivial(self, base):
        return self._memo("h", base, _h_trivial)

    def h_adjoint(self, base):
        return self._memo("h_ad", base, _h_adjoint)

    def lcs_dims(self, base):
        return self._memo("lcs", base, lambda b: _series_dims(b, lower=True))

    def derived_dims(self, base):
        return self._memo("der", base, lambda b: _series_dims(b, lower=False))


def _h_trivial(base):
    if base.h_closed is not None:
        return base.h_closed
    zero = [[[0]] for _ in range(base.dim)]
    return oracles.ce_dims(base.structure_constants(), zero, 1)


def _h_adjoint(base):
    c = base.structure_constants()
    n = base.dim
    rho = [[[c[i][b][beta] for b in range(n)] for beta in range(n)] for i in range(n)]
    return oracles.ce_dims(c, rho, n)


def _bracket(c, u, v):
    n = len(c)
    out = [Fraction(0)] * n
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                if b:
                    for k in range(n):
                        out[k] += a * b * c[i][j][k]
    return out


def _independent(rows):
    """A basis of the span of `rows`, by plain Gaussian elimination."""
    basis = []
    for row in rows:
        row = list(row)
        for piv, brow in basis:
            if row[piv]:
                f = row[piv] / brow[piv]
                row = [a - f * b for a, b in zip(row, brow)]
        lead = next((j for j, a in enumerate(row) if a), None)
        if lead is not None:
            basis.append((lead, row))
    return [row for _, row in basis]


def _series_dims(base, lower):
    """Dimensions of the distinct terms, ending with the stable one."""
    c = base.structure_constants()
    n = base.dim
    full = [[Fraction(int(t == s)) for t in range(n)] for s in range(n)]
    term = full
    dims = [n]
    while True:
        left = full if lower else term
        term = _independent([_bracket(c, u, v) for u in left for v in term])
        if len(term) == dims[-1]:
            return tuple(dims)
        dims.append(len(term))


def _layer_table(nu, r_max, m_max):
    """dims[r][m] = #{a : |a| = r, sum a_i nu_i >= m}, by enumeration."""
    table = [[0] * (m_max + 1) for _ in range(r_max + 1)]

    def walk(i, left, weight, r):
        if i == len(nu):
            for m in range(min(weight, m_max) + 1):
                table[r][m] += 1
            return
        for e in range(left + 1):
            walk(i + 1, left - e, weight + e * nu[i], r + e)

    walk(0, r_max, 0, 0)
    return [list(row) for row in table]


def _weights(lcs):
    """Multiset of filtration weights from the lower central dimensions."""
    out = []
    for d in range(len(lcs) - 1):
        out += [d + 1] * (lcs[d] - lcs[d + 1])
    return sorted(out)


def check_op(op, code, doc, orc):
    """None when the op's exit status and checked fields are right, else why not."""
    if code != op.expect_code:
        return f"exit status {code}, expected {op.expect_code}"
    if op.kind == "refuse":
        return None if doc is None else "a refused command printed a result"
    if doc is None or "unparsable" in doc:
        return "no JSON result on stdout"
    base = op.base
    problems = []

    def expect(what, got, want):
        if got != want:
            problems.append(f"{what}: got {got!r}, expected {want!r}")

    if op.kind == "check":
        rep = doc["report"]
        h = list(orc.h_trivial(base))
        lcs = orc.lcs_dims(base)
        expect("h_total", rep["h_total"], h)
        expect("linf_dim", rep["linf_dim"], lcs[-1])
        expect("is_nilpotent", rep["is_nilpotent"], lcs[-1] == 0)
        expect("is_solvable", rep["is_solvable"], orc.derived_dims(base)[-1] == 0)
        expect("rees_noetherian", rep["rees_noetherian"], lcs[-1] == 0)
        expect("conditions_agree", rep["conditions_agree"], True)
        for name, value in base.facts.items():
            expect(name, rep[name], value)
    elif op.kind == "e2":
        expect("h_total", doc["h_total"], list(orc.h_trivial(base)))
        expect("antidiagonal_bound_ok", doc["antidiagonal_bound_ok"], True)
    elif op.kind == "series":
        lcs, der = orc.lcs_dims(base), orc.derived_dims(base)
        expect("lower_central.dims", doc["lower_central"]["dims"], list(lcs))
        expect("derived.dims", doc["derived"]["dims"], list(der))
        expect("is_nilpotent", doc["is_nilpotent"], lcs[-1] == 0)
        expect("is_solvable", doc["is_solvable"], der[-1] == 0)
    elif op.kind.startswith("cohomology"):
        adjoint = op.kind == "cohomology-adjoint"
        dims = list(orc.h_adjoint(base) if adjoint else orc.h_trivial(base))
        m = base.dim if adjoint else 1
        expect("dims", doc["dims"], dims)
        # sum (-1)^p dim C^p = m (1 - 1)^n vanishes for every nonzero algebra
        expect("euler_characteristic", doc["euler_characteristic"], 0)
        expect("representative counts",
               [len(doc["representatives"][str(q)]) for q in range(base.dim + 1)], dims)
        expect("representative lengths",
               [sorted(set(doc["representatives"][str(q)])) for q in range(base.dim + 1)],
               [[comb(base.dim, q) * m] if dims[q] else [] for q in range(base.dim + 1)])
    elif op.kind == "rees":
        r_max, m_max = doc["max_filtration"], doc["max_weight"]
        lcs = orc.lcs_dims(base)
        expect("nilpotent", doc["nilpotent"], True)
        expect("pbw_verified.all_equal", (doc["pbw_verified"] or {}).get("all_equal"), True)
        expect("lcs_dims_match", doc["lcs_dims_match"], True)
        expect("monoid_generated", doc["monoid_generated"], True)
        expect("weights", sorted(doc["nu"]), _weights(lcs))
        expect("nu order", doc["nu"], sorted(doc["nu"]))
        expect("table", doc["table"], _layer_table(doc["nu"], r_max, m_max))
    else:
        problems.append(f"unknown op kind {op.kind}")
    return "; ".join(problems) or None
