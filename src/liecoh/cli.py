"""Command line front end.

Standard output is the machine channel: every command prints exactly one
JSON document with a top-level ``"schema": 1``, serialized with sorted
keys so identical input yields byte-identical output.  A short human
summary goes to standard error.

Exit status: 0 when everything checked out, 1 when validation or an
invariant failed, 2 for unusable input (bad file, unknown example, or a
size guard refusing the computation).
"""

import argparse
import dataclasses
import json
import os
import re
import sys
from functools import cache
from typing import NamedTuple

from . import catalog
from .checker import check, verify_report
from .cohomology import cohomology, hs_e2_page
from .errors import InvalidAlgebraError, InvariantError, LiecohError, RepresentationLawError
from .fileformat import (
    SCHEMA,
    FileFormatError,
    algebra_to_dict,
    load_algebra,
    load_module,
)
from .lie import (
    LieAlgebra,
    derived_series,
    is_nilpotent,
    is_solvable,
    lower_central_series,
    validate,
)
from .pbw import _word_cap, ipower_checks, rees_layer_table
from .rep import adjoint_module, trivial_module

WEDGE_COORD_CAP = 4096          # 2**12 exterior-algebra coordinates
REES_MONOMIAL_CAP = 5000
ALGEBRA_DIM_CAP = 100           # `validate` visits C(dim, 3) Jacobi triples: 161,700 at 100
REPRESENTATIVE_ENTRY_CAP = 10 ** 6     # dense entries `cohomology` prints

USAGE_ERROR = 2
CHECK_FAILED = 1
BROKEN_PIPE = 128 + 13          # as a shell reports a process killed by SIGPIPE


_quote = json.encoder.encode_basestring_ascii


class _Run(NamedTuple):
    """The dense vector of length n of a sparse row {k: value}, keys in
    range(n): `_json` writes it as the list of its entries as strings, "0"
    at each k the row lacks."""

    row: dict
    n: int


def _json(obj) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2)`, byte for byte, for dicts
    with str keys (any other key raises TypeError), lists, tuples and
    scalars, where each `_Run` stands for its dense list of strings.
    Python 3.10 to 3.13 fall back to the pure-Python encoder for any
    indent; this one appends the pieces of the document to one list
    (`_write`) and joins them once."""
    out: list = []
    _write(obj, "", out)
    return "".join(out)


def _write(obj, indent: str, out: list) -> None:
    """Append the pieces of `_json(obj)` at the given indent to out.

    Strings, ints, bools and None are written here, a list of strings is
    quoted in one join, and other scalars are left to `json.dumps`.  A
    `_Run` is written by runs: one repeated '"0"' item per gap between its
    sorted nonzero entries, so its cost grows with the entries it holds,
    not with its length."""
    kind = type(obj)
    if kind is str:
        out.append(_quote(obj))
    elif kind is int:
        out.append(int.__repr__(obj))
    elif kind is bool:
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif kind is _Run:
        row, n = obj
        if not n:
            out.append("[]")
            return
        inner = indent + "  "
        sep = ",\n" + inner
        zeros = '"0"' + sep
        out.append("[\n" + inner)
        done = 0
        for k in sorted(row):
            out += zeros * (k - done), _quote(str(row[k])), sep
            done = k + 1
        if done < n:
            out += zeros * (n - done - 1), '"0"'
        else:
            out.pop()           # the sep after the last entry
        out.append("\n" + indent + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        if any(type(key) is not str for key in obj):
            raise TypeError(f"keys must be str, not {sorted({type(k).__name__ for k in obj})}")
        inner = indent + "  "
        lead = "{\n" + inner
        for key in sorted(obj):
            out.append(lead + _quote(key) + ": ")
            _write(obj[key], inner, out)
            lead = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        sep = ",\n" + inner
        out.append("[\n" + inner)
        if {*map(type, obj)} == {str}:
            out.append(sep.join(map(_quote, obj)))
        else:
            for item in obj:
                _write(item, inner, out)
                out.append(sep)
            out.pop()           # the sep after the last item
        out.append("\n" + indent + "]")
    else:
        out.append(json.dumps(obj))


def _emit(obj) -> None:
    sys.stdout.write(_json(obj))
    sys.stdout.write("\n")


def _human(msg: str) -> None:
    print(msg, file=sys.stderr)


class CommandError(Exception):
    """Unusable input: `main` reports it and returns USAGE_ERROR."""


def _resolve_algebra(spec: str, check_dim) -> tuple[str, LieAlgebra]:
    """A catalog name or a path to an algebra file.  `check_dim` (a size
    guard) gets the dimension first: a file's "dim", once it matches the
    basis and before any bracket is read or the algebra is built."""
    if os.path.exists(spec):
        try:
            return spec, load_algebra(spec, check_dim)
        except (FileFormatError, LiecohError) as exc:
            raise CommandError(f"{spec}: {exc}") from None
    try:
        L = catalog.get(spec)
    except KeyError:
        raise CommandError(
            f"{spec!r} is neither a readable file nor a known example "
            f"(known: {', '.join(catalog.names())})") from None
    check_dim(L.dim)
    return spec, L


def _guard_dim(dim: int) -> None:
    if dim > ALGEBRA_DIM_CAP:
        raise CommandError(f"an algebra of dimension {dim} is over the cap {ALGEBRA_DIM_CAP}")


def _guard_wedge(dim: int, coeff_dim: int = 1) -> None:
    # dims come from files: dim is compared before 2 ** dim is formed
    if dim >= WEDGE_COORD_CAP.bit_length() or 2 ** dim * coeff_dim > WEDGE_COORD_CAP:
        raise CommandError(
            f"the exterior algebra of a {dim}-dimensional algebra with {coeff_dim}-dimensional "
            f"coefficients would need more than the cap of {WEDGE_COORD_CAP} coordinates")


def _guard_monomials(nu, cap: int, option: str) -> None:
    """Refuse when more than REES_MONOMIAL_CAP monomials e^a weigh
    sum_i a_i nu_i <= cap; counts[w] is how many weigh w in the letters so far."""
    counts = [1] + [0] * cap
    for v in nu:
        for w in range(v, cap + 1):
            counts[w] += counts[w - v]
    size = sum(counts)
    if size > REES_MONOMIAL_CAP:
        raise CommandError(f"{size} monomials exceed the cap {REES_MONOMIAL_CAP}; lower {option}")


def _chain_payload(chain) -> dict:
    return {
        "dims": list(chain.dims),
        "stabilized": chain.stabilized,
        "bases": [[_Run(row, term.ambient_dim) for row in term.basis.entries]
                  for term in chain.terms],
    }


def cmd_validate(args) -> int:
    name, L = _resolve_algebra(args.input, _guard_dim)
    report = validate(L)
    payload = {"schema": SCHEMA, "command": "validate", "input": name,
               "ok": report.ok, "violation": None}
    if not report.ok:
        payload["violation"] = {
            "kind": report.kind,
            "indices": list(report.triple),
            "labels": list(report.labels),
        }
    _emit(payload)
    if report.ok:
        _human(f"{name}: valid Lie algebra of dimension {L.dim}")
        return 0
    _human(f"{name}: {report.kind} fails at ({', '.join(report.labels)})")
    return CHECK_FAILED


def cmd_series(args) -> int:
    name, L = _resolve_algebra(args.input, _guard_dim)
    validate(L).require()
    lcs = lower_central_series(L)
    der = derived_series(L)
    payload = {
        "schema": SCHEMA,
        "command": "series",
        "input": name,
        "lower_central": _chain_payload(lcs),
        "derived": _chain_payload(der),
        "is_nilpotent": lcs.last.dim == 0,
        "is_solvable": der.last.dim == 0,
        "stable_term_dim": lcs.last.dim,
    }
    _emit(payload)
    _human(f"{name}: lower central dims {lcs.dims}, derived dims {der.dims}")
    return 0


def _parse_degrees(spec: str, top: int) -> tuple[int, int]:
    # ASCII digits only: int() would also take signs, blanks, "_" and other scripts' digits
    try:
        if not re.fullmatch(r"[0-9]+\.\.[0-9]+", spec):
            raise ValueError(spec)
        a, b = map(int, spec.split(".."))
    except ValueError:
        raise CommandError(f"--degrees wants 'a..b', got {spec!r}") from None
    if b < a:
        raise CommandError(f"--degrees range {spec!r} is empty")
    if a > top:
        raise CommandError(f"--degrees range {spec!r} starts past the top degree {top}")
    return a, min(b, top)


def _resolve_module(spec: str, L: LieAlgebra):
    """The --module coefficients.  `_guard_wedge` runs first, on their size
    (1 for 'trivial', dim L for 'adjoint', a module file's declared dim),
    then L is validated; only then is a module built."""
    def ready(size: int) -> None:
        _guard_wedge(L.dim, size)
        validate(L).require()

    if spec == "trivial":
        ready(1)
        return "trivial", trivial_module(L)
    if spec == "adjoint":
        ready(L.dim)
        return "adjoint", adjoint_module(L)
    if os.path.exists(spec):
        try:
            return spec, load_module(spec, L, ready)
        except (FileFormatError, RepresentationLawError) as exc:
            raise CommandError(f"{spec}: {exc}") from None
    raise CommandError(
        f"--module takes 'trivial', 'adjoint' or a module file path, got {spec!r}")


def cmd_cohomology(args) -> int:
    name, L = _resolve_algebra(args.input, _guard_wedge)
    mod_name, M = _resolve_module(args.module, L)
    lo, hi = (0, L.dim) if args.degrees is None else _parse_degrees(args.degrees, L.dim)
    result = cohomology(L, M)
    entries = sum(result.dims[q] * result.complex.space_dim(q) for q in range(lo, hi + 1))
    if entries > REPRESENTATIVE_ENTRY_CAP:
        raise CommandError(f"the representatives would print {entries} entries, over the cap "
                           f"{REPRESENTATIVE_ENTRY_CAP}; narrow them with --degrees")
    payload = {
        "schema": SCHEMA,
        "command": "cohomology",
        "input": name,
        "module": mod_name,
        "degrees": [lo, hi],
        "dims": list(result.dims),
        "euler_characteristic": result.euler_characteristic(),
        "representatives": {
            str(q): [_Run(rep, result.complex.space_dim(q)) for rep in reps]
            for q, reps in enumerate(result._reps) if lo <= q <= hi
        },
    }
    _emit(payload)
    _human(f"{name}: cohomology dims {result.dims} with {mod_name} coefficients")
    return 0


def cmd_check(args) -> int:
    name, L = _resolve_algebra(args.input, _guard_wedge)
    report = check(L)          # validates first
    payload = {
        "schema": SCHEMA,
        "command": "check",
        "input": name,
        # the fields are bools, ints and tuples of them: no deep copy is needed
        "report": {f.name: getattr(report, f.name) for f in dataclasses.fields(report)},
        "derived_equivalence": {
            "verdict": report.condition2 and report.condition3,
            "note": ("conjunction of conditions 2 and 3; the derived-category "
                     "statement itself is not computed"),
        },
    }
    _emit(payload)
    try:
        verify_report(report, context=name)
    except InvariantError as exc:
        _human(f"{name}: INVARIANT FAILURE: {exc}")
        return CHECK_FAILED
    _human(f"{name}: condition2={report.condition2} condition3={report.condition3} "
           f"rees_noetherian={report.rees_noetherian}")
    return 0


def cmd_rees(args) -> int:
    name, L = _resolve_algebra(args.input, _guard_dim)
    validate(L).require()
    r_max, m_max = args.max_filtration, args.max_weight
    if r_max < 1 or m_max < 1:
        raise CommandError("--max-filtration and --max-weight must be positive")
    lcs = lower_central_series(L)
    payload = {
        "schema": SCHEMA,
        "command": "rees",
        "input": name,
        "max_filtration": r_max,
        "max_weight": m_max,
        "nilpotent": lcs.last.dim == 0,
        "rees_noetherian": lcs.last.dim == 0,       # `pbw.is_rees_noetherian`
        "table": None,
        "nu": None,
        "adapted_order": None,
        "lcs_dims_match": None,
        "monoid_generated": None,
        "pbw_verified": None,
    }
    summary = f"{name}: rees_noetherian={payload['rees_noetherian']}"
    if payload["nilpotent"]:
        cells = (r_max + 1) * (m_max + 1)
        if cells > REES_MONOMIAL_CAP:
            raise CommandError(f"the layer table would need {cells} cells; the cap is "
                               f"{REES_MONOMIAL_CAP}; lower --max-weight or --max-filtration")
        _guard_monomials((1,) * L.dim, r_max, "--max-filtration")       # degree <= R
        table = rees_layer_table(L, r_max, m_max)
        matches = all(table.dim(1, m) == lcs.term(m).dim
                      for m in range(1, m_max + 1))
        payload["table"] = [list(row) for row in table.dims]
        payload["nu"] = list(table.nu)
        payload["adapted_order"] = list(table.order)
        payload["lcs_dims_match"] = matches
        # `pbw.monoid_generator_check` proves this for every nilpotent algebra
        payload["monoid_generated"] = True
        if args.verify_pbw:
            # the brute-force pass spans the words up to this length, modulo
            # the monomials of higher weight
            _guard_monomials(table.nu, _word_cap(table.nu, m_max, r_max), "--max-weight")
            checks = [{"m": m, "r_max": r_max, "equal": equal}
                      for m, equal in enumerate(ipower_checks(L, table), 1)]
            all_equal = all(check["equal"] for check in checks)
            payload["pbw_verified"] = {"all_equal": all_equal, "checks": checks}
            summary += f", predicted == brute-force: {'yes' if all_equal else 'NO'}"
    _emit(payload)
    _human(summary)
    if payload["pbw_verified"] is not None and not payload["pbw_verified"]["all_equal"]:
        return CHECK_FAILED
    if payload["lcs_dims_match"] is False:
        return CHECK_FAILED
    return 0


def cmd_e2(args) -> int:
    name, L = _resolve_algebra(args.input, _guard_wedge)
    validate(L).require()
    page = hs_e2_page(L)
    h_total = cohomology(L, trivial_module(L)).dims
    top = len(h_total) - 1
    bottom = list(page.bottom_row) + [0] * (top + 1 - len(page.bottom_row))
    bound_ok = all(page.antidiagonal_sum(t) >= h_total[t] for t in range(top + 1))
    payload = {
        "schema": SCHEMA,
        "command": "e2",
        "input": name,
        "table": [list(row) for row in page.dims],
        "bottom_row": list(page.bottom_row),
        "h_total": list(h_total),
        "bottom_row_equals_h_total": bottom == list(h_total),
        "antidiagonal_bound_ok": bound_ok,
    }
    _emit(payload)
    _human(f"{name}: starting page bottom row {page.bottom_row}, "
           f"H dims {h_total}")
    return 0 if bound_ok else CHECK_FAILED


def cmd_example(args) -> int:
    try:
        L = catalog.get(args.name)
    except KeyError as exc:
        raise CommandError(exc.args[0]) from None     # str() of a KeyError is its repr
    if args.emit:
        _emit(algebra_to_dict(L))
        _human(f"{args.name}: emitted algebra file ({L.dim}-dimensional)")
        return 0
    payload = {
        "schema": SCHEMA,
        "command": "example",
        "name": args.name,
        "dim": L.dim,
        "basis": list(L.labels),
        "is_nilpotent": is_nilpotent(L),
        "is_solvable": is_solvable(L),
    }
    _emit(payload)
    _human(f"{args.name}: dimension {L.dim}, basis {', '.join(L.labels)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liecoh",
        description="Exact Lie algebra cohomology, filtration layers and "
                    "nilpotency criteria. JSON reports on stdout, summaries "
                    "on stderr.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check antisymmetry and the Jacobi identity")
    p.add_argument("input", help="algebra file or example name")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("series", help="lower central and derived series")
    p.add_argument("input")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("cohomology", help="cohomology with chosen coefficients")
    p.add_argument("input")
    p.add_argument("--module", default="trivial",
                   help="'trivial' (default), 'adjoint', or a module file")
    p.add_argument("--degrees", default=None,
                   help="restrict printed representatives to a..b")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("check", help="decide the equivalent conditions")
    p.add_argument("input")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("rees", help="filtration layer tables and the PBW basis check")
    p.add_argument("input")
    p.add_argument("--max-filtration", type=int, required=True, metavar="R")
    p.add_argument("--max-weight", type=int, required=True, metavar="M")
    p.add_argument("--verify-pbw", action="store_true",
                   help="compare predicted and brute-force ideal powers")
    p.set_defaults(func=cmd_rees)

    p = sub.add_parser("e2", help="starting-page dimension table")
    p.add_argument("input")
    p.set_defaults(func=cmd_e2)

    p = sub.add_parser("example", help="show or emit a built-in example")
    p.add_argument("name")
    p.add_argument("--emit", action="store_true",
                   help="print the algebra file instead of a summary")
    p.set_defaults(func=cmd_example)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser()`, built on the first `main` call and reused: parsing
    leaves a parser unchanged."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command; its exit status.  When the reader of stdout has gone
    (`... | head -1`), stdout is pointed at the null device, so that the
    flush at exit writes nowhere, and BROKEN_PIPE is returned (the Python
    documentation's note on SIGPIPE)."""
    args = _parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, ValueError):      # no file behind stdout
            return BROKEN_PIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return BROKEN_PIPE
    except CommandError as exc:
        _human(f"error: {exc}")
        return USAGE_ERROR
    except InvalidAlgebraError as exc:
        _human(f"error: {args.input}: {exc}")
        return CHECK_FAILED
    except LiecohError as exc:
        _human(f"error: {exc}")
        return CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
