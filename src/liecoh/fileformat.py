"""JSON on-disk formats for algebras and modules.

Both formats carry ``"schema": 1`` and serialize every rational as a
string ("5" or "-5/3"), never as a float, so parsing is exact and
emit -> parse is the identity.

Algebra files store only bracket pairs with left < right and nonzero
coefficients; antisymmetric partners are implied.  Module files store one
dense action matrix per algebra basis element.
"""

import json
from fractions import Fraction

from .errors import LiecohError
from .lie import LieAlgebra, _constants
from .linalg import _frac
from .rep import LieModule

SCHEMA = 1

__all__ = [
    "SCHEMA",
    "FileFormatError",
    "algebra_to_dict",
    "algebra_from_dict",
    "module_to_dict",
    "module_from_dict",
    "load_algebra",
    "load_module",
]


class FileFormatError(LiecohError):
    """Malformed input file."""


def algebra_to_dict(L: LieAlgebra) -> dict:
    """The algebra file of L, read off its int table (`lie._constants`)."""
    D, table = _constants(L)
    brackets = [{"left": i, "right": j, "result": [[str(Fraction(x, D)), k] for k, x in terms]}
                for i, row in enumerate(table) for j, terms in enumerate(row) if i < j and terms]
    return {"schema": SCHEMA, "dim": L.dim, "basis": list(L.labels),
            "brackets": brackets}


def _parse_coeff(s, where: str) -> Fraction:
    if isinstance(s, float):
        raise FileFormatError(f"bad coefficient {s!r} in {where}: write rationals as strings")
    try:
        return _frac(str(s))        # refuses exponent notation before Fraction expands it
    except (ValueError, ZeroDivisionError) as exc:
        raise FileFormatError(f"bad coefficient {s!r} in {where}: {exc}") from None


def _index(x, where: str) -> int:
    # int() would read 1.9 as 1 and true as 1
    if type(x) is not int:
        raise FileFormatError(f"{where}: {x!r} is not an integer")
    return x


def _list(x, where: str) -> list:
    # list() would split a string into characters; a number fails later with a TypeError
    if type(x) is not list:
        raise FileFormatError(f"{where}: {x!r} is not a list")
    return x


def _require_schema(d, kind: str) -> None:
    if not isinstance(d, dict):
        raise FileFormatError(f"{kind} file must be a JSON object")
    # a missing or other schema is no schema-1 file; true == 1, so compare the type too
    if type(d.get("schema")) is not int or d["schema"] != SCHEMA:
        raise FileFormatError(f'{kind} file must declare "schema": {SCHEMA}')


def algebra_from_dict(d: dict, check_dim=None) -> LieAlgebra:
    """The algebra a parsed algebra file describes.  `check_dim`, if given, is
    called with dim, once it matches the basis, before any bracket is read
    or algebra built."""
    _require_schema(d, "algebra")
    try:
        dim = _index(d["dim"], "dim")
        basis = _list(d["basis"], "basis")
        brackets = _list(d.get("brackets", []), "brackets")
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"algebra file is missing or mistypes a field: {exc}") from None
    if dim < 0:
        raise FileFormatError("dim must be a non-negative integer")
    if len(basis) != dim:
        raise FileFormatError(f"dim is {dim} but {len(basis)} basis names are given")
    if check_dim is not None:
        check_dim(dim)
    if any(type(label) is not str for label in basis):
        raise FileFormatError("basis names must be strings")
    if len(set(basis)) != dim:
        raise FileFormatError("basis names must be distinct")
    table = {}
    for pos, entry in enumerate(brackets):
        where = f"brackets[{pos}]"
        try:
            i = _index(entry["left"], where)
            j = _index(entry["right"], where)
            result = _list(entry["result"], f"{where}.result")
        except (KeyError, TypeError, ValueError) as exc:
            raise FileFormatError(f"{where}: {exc}") from None
        if not 0 <= i < dim or not 0 <= j < dim:
            raise FileFormatError(f"{where}: indices ({i}, {j}) out of range")
        if i >= j:
            raise FileFormatError(
                f"{where}: pairs must satisfy left < right; "
                "antisymmetric partners are implied")
        if (i, j) in table:
            raise FileFormatError(f"{where}: bracket pair ({i}, {j}) is given twice")
        terms = []
        for item in result:
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise FileFormatError(f"{where}: result entries are [coefficient, index] pairs")
            coeff = _parse_coeff(item[0], where)
            k = _index(item[1], where)
            if not 0 <= k < dim:
                raise FileFormatError(f"{where}: result index {k} out of range")
            if any(k == seen for _, seen in terms):
                raise FileFormatError(f"{where}: result index {k} is given twice")
            terms.append((coeff, k))
        table[(i, j)] = terms
    return LieAlgebra.from_brackets(basis, table)


def module_to_dict(M: LieModule) -> dict:
    return {
        "schema": SCHEMA,
        "dim": M.dim,
        "action": [[[str(a) for a in row] for row in mat.data] for mat in M.rho],
    }


def module_from_dict(d: dict, L: LieAlgebra, check_dim=None) -> LieModule:
    """The module a parsed module file describes.  `check_dim`, if given, is
    called with the declared dim before any matrix is read or module built."""
    _require_schema(d, "module")
    try:
        dim = _index(d["dim"], "dim")
        action = _list(d["action"], "action")
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"module file is missing or mistypes a field: {exc}") from None
    if dim < 0:
        raise FileFormatError("dim must be a non-negative integer")
    if check_dim is not None:
        check_dim(dim)
    if len(action) != L.dim:
        raise FileFormatError(
            f"module file has {len(action)} action matrices for an algebra of dim {L.dim}")
    mats = []
    for i, mat in enumerate(action):
        where = f"action[{i}]"
        rows = [_list(row, where) for row in _list(mat, where)]
        if len(rows) != dim or any(len(row) != dim for row in rows):
            raise FileFormatError(f"{where} is not a {dim}x{dim} matrix")
        mats.append([[_parse_coeff(a, where) for a in row] for row in rows])
    return LieModule(L, mats, dim=dim)


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:          # a directory, or a file we may not read
        raise FileFormatError(f"cannot read it ({exc.strerror})") from None
    except ValueError as exc:       # bad JSON or UTF-8, or an int past the digit limit
        raise FileFormatError(f"not valid JSON ({exc})") from None


def load_algebra(path: str, check_dim=None) -> LieAlgebra:
    return algebra_from_dict(_load_json(path), check_dim)


def load_module(path: str, L: LieAlgebra, check_dim=None) -> LieModule:
    return module_from_dict(_load_json(path), L, check_dim)
