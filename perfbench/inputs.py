"""Seeded benchmark inputs: algebra definitions, relabelings and round feeds.

Every algebra here is defined from its own structure constants, never
through `liecoh.catalog`, so a change to the catalog cannot change a
workload.  Upper-triangular families come from the matrix-unit rule
[E_ij, E_kl] = d_jk E_il - d_li E_kj and [D, E_ij] = (d_i - d_j) E_ij.

An input file is a relabeling of a base algebra: the basis vector at new
position a is s_a * e_perm[a], with perm a random permutation and s_a a
small rational from a fixed set.  Filtration-adapted bases stay adapted
and every basis-independent answer is unchanged, so each op gets a
distinct algebra with known answers.

This module imports nothing from the library.
"""

import json
import random
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

SCALES = tuple(Fraction(x) for x in ("1", "-1", "2", "-2", "1/2", "-1/2", "3", "-2/3"))


class Base:
    """A Lie algebra as labels plus sparse brackets {(i, j): {k: coeff}}, i < j.

    `key` names the isomorphism class, so oracles are computed once per
    class.  `facts` holds `check` report fields known in closed form and
    `h_closed` the trivial-coefficient cohomology dimensions, where known.
    """

    __slots__ = ("key", "labels", "brackets", "facts", "h_closed")

    def __init__(self, key, labels, brackets, facts=None, h_closed=None):
        self.key = key
        self.labels = tuple(labels)
        brackets = {pair: {k: Fraction(c) for k, c in terms.items() if c}
                    for pair, terms in brackets.items()}
        self.brackets = {pair: terms for pair, terms in brackets.items() if terms}
        self.facts = dict(facts or {})
        self.h_closed = h_closed

    @property
    def dim(self):
        return len(self.labels)

    def structure_constants(self):
        """Dense c[i][j][k] as Fractions."""
        n = self.dim
        c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        for (i, j), terms in self.brackets.items():
            for k, coeff in terms.items():
                c[i][j][k] = coeff
                c[j][i][k] = -coeff
        return c


def triangular(key, n, diagonals, pairs, labels=None, facts=None, h_closed=None):
    """Span of the given diagonal matrices and matrix units E_ij (i < j).

    `pairs` must be closed under composition: (i, j) and (j, k) present
    imply (i, k) present.
    """
    pairs = tuple(pairs)
    pair_set = set(pairs)
    for (i, j) in pairs:
        for (j2, k) in pairs:
            if j == j2 and (i, k) not in pair_set:
                raise ValueError(f"support {pairs} is not closed under composition")
    if labels is None:
        labels = [f"D{t+1}" for t in range(len(diagonals))]
        labels += [f"E{i+1}{j+1}" for i, j in pairs]
    nd = len(diagonals)
    index = {pair: nd + t for t, pair in enumerate(pairs)}
    brackets = {}
    for a, d in enumerate(diagonals):
        for (i, j) in pairs:
            brackets[(a, index[(i, j)])] = {index[(i, j)]: Fraction(d[i]) - Fraction(d[j])}
    for (i, j), (k, l) in combinations(pairs, 2):
        terms = {}
        if j == k:
            terms[index[(i, l)]] = Fraction(1)
        if l == i:
            terms[index[(k, j)]] = Fraction(-1)
        brackets[(index[(i, j)], index[(k, l)])] = terms
    return Base(key, labels, brackets, facts, h_closed)


def _units(n):
    return [tuple(1 if t == s else 0 for t in range(n)) for s in range(n)]


def _upper_pairs(n):
    """All (i, j), i < j, ordered by diagonal distance j - i."""
    return [(i, i + d) for d in range(1, n) for i in range(n - d)]


def ut(n):
    """Upper-triangular n x n matrices: dim H^k = C(n, k) for k <= n, then 0.

    The nilpotent quotient is the diagonal, an abelian algebra with the
    same cohomology, so both conditions hold.
    """
    dim = n * (n + 1) // 2
    h = tuple(comb(n, k) for k in range(dim + 1))
    return triangular(f"ut{n}", n, _units(n), _upper_pairs(n), h_closed=h,
                      facts={"h_nil": list(h), "condition2": True, "condition3": True})


def strict_ut(n):
    """Strictly upper-triangular n x n matrices.

    Kostant (1961): dim H^k is the number of permutations of n letters
    with k inversions.
    """
    counts = [0] * (n * (n - 1) // 2 + 1)
    for perm in permutations(range(n)):
        counts[sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])] += 1
    return triangular(f"strict-ut{n}", n, [], _upper_pairs(n), h_closed=tuple(counts))


def heisenberg5():
    """x1, x2, y1, y2, z with [x1, y1] = [x2, y2] = z."""
    return Base("h5", ["x1", "x2", "y1", "y2", "z"],
                {(0, 2): {4: 1}, (1, 3): {4: 1}})


def filiform5():
    """e1..e5 with [e1, e_i] = e_{i+1} for i = 2, 3, 4."""
    return Base("filiform5", ["e1", "e2", "e3", "e4", "e5"],
                {(0, 1): {2: 1}, (0, 2): {3: 1}, (0, 3): {4: 1}})


def small_examples():
    """Own definitions of the library's small named examples."""
    return [
        triangular("heisenberg3", 3, [], [(0, 1), (1, 2), (0, 2)], labels="xyz"),
        triangular("exampleA", 2, [(1, 0)], [(0, 1)], labels="xy"),
        ut(3),
        strict_ut(3),
        triangular("propC", 3, [(1, 0, 1), (0, 1, 0)], [(0, 1), (1, 2), (0, 2)],
                   labels=["D1", "D2", "E12", "E23", "E13"],
                   facts={"condition2": False, "condition3": False}),
        Base("amazing-L", "txyzw",
             {(0, 1): {1: 2}, (0, 2): {2: -3}, (0, 3): {3: -1}, (0, 4): {4: 1},
              (1, 2): {3: 1}, (1, 3): {4: 1}},
             facts={"condition2": True, "condition3": True}),
        Base("sl2", "hef", {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}),
        Base("abelian3", ["e1", "e2", "e3"], {}),
    ]


def _closed_supports(n, max_pairs):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for size in range(max_pairs + 1):
        for support in combinations(pairs, size):
            s = set(support)
            if all((i, k) in s for (i, j) in s for (j2, k) in s if j == j2):
                out.append(support)
    return out


SUPPORTS = {3: _closed_supports(3, 3), 4: _closed_supports(4, 3)}


def random_solvable(rng):
    """A random solvable subalgebra of upper-triangular matrices, dim <= 5."""
    while True:
        n = 3 if rng.random() < 0.6 else 4
        support = rng.choice(SUPPORTS[n])
        diag_count = rng.choice((0, 1, 1, 2))
        if not 1 <= len(support) + diag_count <= 5:
            continue
        diagonals = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(diag_count)]
        if any(not any(d) for d in diagonals):
            continue
        if diag_count == 2 and _proportional(*diagonals):
            continue
        key = f"rand:{n}:{support}:{diagonals}"
        return triangular(key, n, diagonals, support)


def _proportional(u, v):
    return all(u[i] * v[j] == u[j] * v[i] for i in range(len(u)) for j in range(i + 1, len(u)))


def relabel(base, rng):
    """Algebra-file dict of a random permutation-and-rescaling of `base`."""
    n = base.dim
    perm = list(range(n))
    rng.shuffle(perm)
    scale = [rng.choice(SCALES) for _ in range(n)]
    where = {old: new for new, old in enumerate(perm)}
    brackets = []
    for a in range(n):
        for b in range(a + 1, n):
            i, j = perm[a], perm[b]
            if i < j:
                terms, sign = base.brackets.get((i, j)), 1
            else:
                terms, sign = base.brackets.get((j, i)), -1
            if not terms:
                continue
            result = sorted((where[k], sign * scale[a] * scale[b] * coeff / scale[where[k]])
                            for k, coeff in terms.items())
            brackets.append({"left": a, "right": b,
                             "result": [[str(coeff), k] for k, coeff in result]})
    return {"schema": 1, "dim": n, "basis": [base.labels[p] for p in perm],
            "brackets": brackets}


class Op:
    """One CLI command on one generated file, with what its check needs.

    `slot` names the op's kind within the workload's mix (command and
    input); `op_p50_ms` takes a median per slot.
    """

    __slots__ = ("kind", "base", "argv", "expect_code", "doc", "slot")

    def __init__(self, kind, base, args, doc, expect_code=0, slot=None):
        self.kind = kind
        self.base = base
        self.argv = list(args)      # file path is inserted after the command
        self.doc = doc
        self.expect_code = expect_code
        self.slot = slot or f"{kind} {base.key}"


def _rounds_check_ut4(rng):
    b = ut(4)
    while True:
        yield [Op("check", b, ["check"], relabel(b, rng))]


def _rounds_cohomology_nilpotent(rng):
    s5, s4 = strict_ut(5), strict_ut(4)
    while True:
        yield [Op("cohomology-trivial", s5, ["cohomology"], relabel(s5, rng)),
               Op("cohomology-adjoint", s4, ["cohomology", "--module", "adjoint"],
                  relabel(s4, rng))]


REES_CASES = ((strict_ut, (4,), 2, 3), (heisenberg5, (), 4, 4), (filiform5, (), 2, 4))


def _rounds_rees_verify(rng):
    bases = [(make(*args), r, m) for make, args, r, m in REES_CASES]
    while True:
        yield [Op("rees", b, ["rees", "--max-filtration", str(r), "--max-weight", str(m),
                              "--verify-pbw"], relabel(b, rng))
               for b, r, m in bases]


SMALL_COMMANDS = (("check", ["check"]), ("e2", ["e2"]), ("series", ["series"]),
                  ("cohomology-trivial", ["cohomology"]))
# One round in this many ends with an input that the size guard must refuse:
# 1 op in 41, a chosen share that exercises the guard in every run.
REFUSE_EVERY = 5


def _rounds_small_cli(rng):
    examples = small_examples()
    s4 = strict_ut(4)
    # 9-dimensional, so adjoint coefficients need 9 * 2^9 = 4608 > 4096 coordinates
    oversize = Base("strict-ut4+ab3", s4.labels + ("z1", "z2", "z3"), s4.brackets)
    count = 0
    while True:
        ops = []
        for kind, args in SMALL_COMMANDS:
            for family, base in (("random", random_solvable(rng)),
                                 ("example", rng.choice(examples))):
                ops.append(Op(kind, base, args, relabel(base, rng), slot=f"{kind} {family}"))
        count += 1
        if count % REFUSE_EVERY == 0:
            ops.append(Op("refuse", oversize, ["cohomology", "--module", "adjoint"],
                          relabel(oversize, rng), expect_code=2))
        yield ops


WORKLOADS = {
    "check-ut4": _rounds_check_ut4,
    "cohomology-nilpotent": _rounds_cohomology_nilpotent,
    "rees-verify": _rounds_rees_verify,
    "small-cli": _rounds_small_cli,
}


class Feed:
    """The endless seeded sequence of a workload's rounds.

    Each round's files are written to the working directory just before
    the round runs, outside the timed rounds, so set-up writes only the
    first round and no run can run out of inputs.  Commands name their
    file relative to the working directory, so a command's stdout, which
    echoes the name, depends on the seed and stream alone.
    """

    def __init__(self, workload, seed, stream):
        self._rounds = WORKLOADS[workload](random.Random(f"{workload}/{seed}/{stream}"))
        self.stream = stream
        self._written = 0
        self._next = self._write(next(self._rounds))

    def next_round(self):
        """The next round's ops, with files written and argv complete."""
        ops, self._next = self._next, None
        return ops or self._write(next(self._rounds))

    def _write(self, ops):
        for op in ops:
            name = f"{self.stream}-{self._written:06d}.json"
            with open(name, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(op.doc))
            op.argv = op.argv[:1] + [name] + op.argv[1:]
            op.doc = None
            self._written += 1
        return ops
