import importlib
import json
import os
import random
import shlex
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecoh import catalog
from liecoh.fileformat import (
    FileFormatError,
    algebra_from_dict,
    algebra_to_dict,
    module_from_dict,
    module_to_dict,
)
from liecoh.lie import LieAlgebra, _constants
from liecoh.rep import adjoint_module, trivial_module

from oracles import relabel

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*args, expect: int = 0):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "liecoh", *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == expect, (args, proc.returncode, proc.stderr)
    return proc


def payload_of(proc):
    return json.loads(proc.stdout)


# --- file format ----------------------------------------------------------

def test_emit_parse_roundtrip_on_catalog():
    for name in catalog.names():
        L = catalog.get(name)
        again = algebra_from_dict(algebra_to_dict(L))
        assert again == L, name


def test_module_file_roundtrip():
    L = catalog.heisenberg3()
    M = adjoint_module(L)
    again = module_from_dict(module_to_dict(M), L)
    assert again == M


def test_rejects_badly_ordered_bracket_pairs():
    d = algebra_to_dict(catalog.example_a())
    d["brackets"][0]["left"], d["brackets"][0]["right"] = (
        d["brackets"][0]["right"], d["brackets"][0]["left"])
    with pytest.raises(FileFormatError):
        algebra_from_dict(d)


def test_rejects_bad_coefficients():
    d = algebra_to_dict(catalog.example_a())
    d["brackets"][0]["result"][0][0] = "not-a-number"
    with pytest.raises(FileFormatError):
        algebra_from_dict(d)


def _float_index(d):
    d["brackets"][0]["right"] = 1.9


def _float_coefficient(d):
    d["brackets"][0]["result"][0][0] = 0.5


def _boolean_index(d):
    d["brackets"][0]["right"] = True


def _repeated_pair(d):
    d["brackets"].append({"left": 0, "right": 1, "result": [["2", 1]]})


def _repeated_result_index(d):
    # [x, y] = y + y would be read as [x, y] = 2y
    result = d["brackets"][0]["result"]
    result.append(list(result[0]))


def _duplicate_labels(d):
    d["basis"] = ["x", "x"]


def _string_basis(d):
    d["basis"] = "xy"


def _number_labels(d):
    d["basis"][:2] = [1, True]


def _object_labels(d):
    d["basis"][:2] = [None, {"a": 1}]


def _scalar_brackets(d):
    d["brackets"] = 5


def _scalar_result(d):
    d["brackets"][0]["result"] = 5


def _missing_schema(d):
    del d["schema"]


def _schema_2(d):
    d["schema"] = 2


def _boolean_schema(d):
    # true == 1 in Python
    d["schema"] = True


@pytest.mark.parametrize("corrupt", [_float_index, _float_coefficient, _boolean_index,
                                     _repeated_pair, _repeated_result_index,
                                     _duplicate_labels, _string_basis, _scalar_brackets,
                                     _scalar_result, _number_labels, _object_labels,
                                     _missing_schema, _schema_2, _boolean_schema])
def test_rejects_reinterpretable_algebra_files(corrupt, tmp_path):
    # a lenient reader turns each of these into a different algebra instead of refusing it
    d = algebra_to_dict(catalog.example_a())
    corrupt(d)
    with pytest.raises(FileFormatError):
        algebra_from_dict(d)
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(d))
    run_cli("validate", str(path), expect=2)


def _float_dim(d):
    d["dim"] = 1.9


def _boolean_dim(d):
    d["dim"] = True


def _scalar_action(d):
    d["action"] = 5


def _scalar_row(d):
    d["action"][0][0] = 5


@pytest.mark.parametrize("corrupt", [_float_dim, _boolean_dim, _scalar_action, _scalar_row,
                                     _missing_schema, _schema_2, _boolean_schema])
def test_rejects_reinterpretable_module_files(corrupt, tmp_path):
    # int() read 1.9 and true as the dimension 1; scalars ended in a TypeError traceback
    L = catalog.heisenberg3()
    d = module_to_dict(trivial_module(L))
    corrupt(d)
    with pytest.raises(FileFormatError):
        module_from_dict(d, L)
    path = tmp_path / "module.json"
    path.write_text(json.dumps(d))
    proc = run_cli("cohomology", "heisenberg3", "--module", str(path), expect=2)
    assert "Traceback" not in proc.stderr


def test_a_negative_declared_dim_is_refused(tmp_path):
    # over the 0-dimensional algebra no action matrix pinned the size: dims [0] came out
    algebra, module = tmp_path / "a0.json", tmp_path / "m.json"
    algebra.write_text(json.dumps({"schema": 1, "dim": 0, "basis": [], "brackets": []}))
    module.write_text(json.dumps({"schema": 1, "dim": -5, "action": []}))
    proc = run_cli("cohomology", str(algebra), "--module", str(module), expect=2)
    assert proc.stdout == "" and "dim must be a non-negative integer" in proc.stderr
    L = catalog.heisenberg3()
    d = {"schema": 1, "dim": -2, "action": [[]] * L.dim}
    with pytest.raises(FileFormatError, match="dim must be a non-negative integer"):
        module_from_dict(d, L, lambda size: pytest.fail("check_dim saw a negative dim"))
    d = {"schema": 1, "dim": -1, "basis": [], "brackets": []}
    with pytest.raises(FileFormatError, match="dim must be a non-negative integer"):
        algebra_from_dict(d, lambda size: pytest.fail("check_dim saw a negative dim"))
    algebra.write_text(json.dumps(d))
    for command in ("validate", "cohomology"):
        proc = run_cli(command, str(algebra), expect=2)
        assert "dim must be a non-negative integer" in proc.stderr, command


# --- commands -------------------------------------------------------------

def test_validate_catalog_name():
    proc = run_cli("validate", "exampleA")
    payload = payload_of(proc)
    assert payload["schema"] == 1
    assert payload["ok"] is True


def test_validate_algebra_file(tmp_path):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(algebra_to_dict(catalog.example_a())))
    proc = run_cli("validate", str(path))
    assert payload_of(proc)["ok"] is True


def test_validate_jacobi_violation_names_triple(tmp_path):
    broken = {
        "schema": 1,
        "dim": 3,
        "basis": ["x", "y", "z"],
        "brackets": [
            {"left": 0, "right": 1, "result": [["1", 2]]},
            {"left": 0, "right": 2, "result": [["1", 0]]},
            {"left": 1, "right": 2, "result": [["1", 1]]},
        ],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken))
    proc = run_cli("validate", str(path), expect=1)
    payload = payload_of(proc)
    assert payload["ok"] is False
    assert payload["violation"]["kind"] == "jacobi"
    assert payload["violation"]["labels"] == ["x", "y", "z"]
    assert "x, y, z" in proc.stderr


def test_check_refuses_jacobi_violation(tmp_path):
    broken = algebra_to_dict(LieAlgebra.from_brackets(
        "xyz", {(0, 1): [(1, 2)], (0, 2): [(1, 0)], (1, 2): [(1, 1)]}))
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken))
    proc = run_cli("check", str(path), expect=1)
    assert proc.stdout == ""
    assert str(path) in proc.stderr
    assert "jacobi fails at (x, y, z)" in proc.stderr


def test_unknown_example_name():
    run_cli("check", "no-such-algebra", expect=2)
    # str() of the KeyError catalog.get raises would quote the whole message
    proc = run_cli("example", "nope", expect=2)
    assert proc.stdout == ""
    assert proc.stderr == f"error: unknown example 'nope'; known: {', '.join(catalog.names())}\n"


def test_series_command():
    proc = run_cli("series", "exampleA")
    payload = payload_of(proc)
    assert payload["lower_central"]["dims"] == [2, 1]
    assert payload["is_nilpotent"] is False
    assert payload["is_solvable"] is True
    assert payload["stable_term_dim"] == 1


def test_check_command_example_a():
    proc = run_cli("check", "exampleA")
    payload = payload_of(proc)
    report = payload["report"]
    assert report["condition2"] is True
    assert report["condition3"] is True
    assert report["rees_noetherian"] is False
    assert payload["derived_equivalence"]["verdict"] is True


def test_check_command_prop_c():
    proc = run_cli("check", "propC")
    report = payload_of(proc)["report"]
    assert report["condition2"] is False
    assert report["condition3"] is False


def test_cohomology_command_with_degree_window():
    proc = run_cli("cohomology", "heisenberg3", "--degrees", "1..2")
    payload = payload_of(proc)
    assert payload["dims"] == [1, 2, 2, 1]
    assert sorted(payload["representatives"]) == ["1", "2"]
    assert payload["euler_characteristic"] == 0


def test_cohomology_refuses_a_degree_window_past_the_top():
    proc = run_cli("cohomology", "heisenberg3", "--degrees", "5..9", expect=2)
    assert proc.stdout == ""
    assert "top degree 3" in proc.stderr


def test_cohomology_parses_the_degree_window_before_computing(monkeypatch):
    from liecoh import cli

    def refuse(*args):
        raise AssertionError("cohomology ran before --degrees was parsed")

    monkeypatch.setattr(cli, "cohomology", refuse)
    # int() took signs, blanks, "_" separators and other scripts' digits
    for spec in ("5..9", "2-3", "3..1", " 1..2", "+1..2", "1_0..20", "\u0661..\u0662",
                 "1..2\n", "1..2..3", ".."):
        assert cli.main(["cohomology", "heisenberg3", "--degrees", spec]) == 2, spec


def test_cohomology_adjoint_coefficients():
    proc = run_cli("cohomology", "sl2", "--module", "adjoint")
    payload = payload_of(proc)
    assert payload["module"] == "adjoint"
    assert payload["dims"] == [0, 0, 0, 0]   # Whitehead vanishing


def test_cohomology_module_file(tmp_path):
    L = catalog.heisenberg3()
    path = tmp_path / "module.json"
    path.write_text(json.dumps(module_to_dict(adjoint_module(L))))
    proc = run_cli("cohomology", "heisenberg3", "--module", str(path))
    payload = payload_of(proc)
    assert len(payload["dims"]) == 4
    assert payload["dims"][0] == 1       # adjoint invariants = the center


def test_cohomology_guard_refuses_oversized_input(tmp_path):
    big = {"schema": 1, "dim": 13, "basis": [f"e{i}" for i in range(13)],
           "brackets": []}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(big))
    proc = run_cli("cohomology", str(path), expect=2)
    assert "cap" in proc.stderr


def test_cohomology_refuses_to_print_too_many_representative_entries(tmp_path, capsys):
    from liecoh import cli

    # abelian(12) passes the wedge cap, but its representatives are C(24, 12) dense entries
    path = _abelian_file(tmp_path, 12)
    assert cli.main(["cohomology", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "2704156 entries" in err and "--degrees" in err
    assert cli.main(["cohomology", path, "--degrees", "0..3"]) == 0      # 52,901 entries
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload["representatives"], key=int) == ["0", "1", "2", "3"]


def _abelian_file(tmp_path, n, brackets=()):
    path = tmp_path / f"abelian{n}.json"
    path.write_text(json.dumps({"schema": 1, "dim": n, "basis": [f"e{i}" for i in range(n)],
                                "brackets": list(brackets)}))
    return str(path)


def test_guards_run_before_validation_and_module_building(tmp_path, monkeypatch):
    from liecoh import cli
    from liecoh.rep import LieModule

    def refuse(*args):
        raise AssertionError("work started before the size guard")

    monkeypatch.setattr(cli, "validate", refuse)
    monkeypatch.setattr(LieModule, "_check_representation_law", refuse)
    # 2^12 wedges times a 2-dim module file, or the 12-dim adjoint module: over 4096
    alg = _abelian_file(tmp_path, 12)
    mod = tmp_path / "module.json"
    mod.write_text(json.dumps({"schema": 1, "dim": 2, "action": [[["0"] * 2] * 2] * 12}))
    assert cli.main(["cohomology", alg, "--module", str(mod)]) == 2
    assert cli.main(["cohomology", alg, "--module", "adjoint"]) == 2
    # an invalid algebra over the cap is refused as oversized, as `check` does
    broken = _abelian_file(tmp_path, 13, [{"left": 0, "right": 1, "result": [["1", 0]]},
                                          {"left": 0, "right": 2, "result": [["1", 2]]},
                                          {"left": 1, "right": 2, "result": [["1", 1]]}])
    for command in ("cohomology", "e2", "check"):
        assert cli.main([command, broken]) == 2, command


def test_algebra_files_past_the_dimension_cap_are_refused_before_loading(tmp_path, monkeypatch):
    from liecoh import cli

    # dim 1200 would be a dense table of 1.7e9 Fractions; refused before it is built
    def refuse(*args):
        raise AssertionError("the algebra was built before the size guard")

    monkeypatch.setattr(LieAlgebra, "__init__", refuse)
    path = _abelian_file(tmp_path, 1200)
    for argv in (["validate", path], ["series", path], ["check", path], ["e2", path],
                 ["cohomology", path],
                 ["rees", path, "--max-filtration", "2", "--max-weight", "2"]):
        start = time.monotonic()
        assert cli.main(argv) == 2, argv
        assert time.monotonic() - start < 1, argv
    cli._guard_dim(cli.ALGEBRA_DIM_CAP)
    with pytest.raises(cli.CommandError, match="cap"):
        cli._guard_dim(cli.ALGEBRA_DIM_CAP + 1)


def test_a_huge_declared_dim_is_refused_at_once(tmp_path):
    from liecoh import cli

    # 2 ** dim is never formed: a 10^9-bit int, or a size past the int-to-str limit
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"schema": 1, "dim": 10 ** 9, "basis": []}))
    for command in ("check", "e2", "cohomology", "validate"):
        start = time.monotonic()
        assert cli.main([command, str(path)]) == 2, command
        assert time.monotonic() - start < 1, command
    for dim, coeff_dim in ((10 ** 9, 1), (13, 1), (20000, 1), (12, 10 ** 4000)):
        start = time.monotonic()
        with pytest.raises(cli.CommandError, match="cap"):
            cli._guard_wedge(dim, coeff_dim)
        assert time.monotonic() - start < 1, dim
    cli._guard_wedge(12)
    cli._guard_wedge(6, 64)
    with pytest.raises(cli.CommandError, match="cap"):
        cli._guard_wedge(6, 65)


def test_refuses_exponent_notation_before_expanding_it(tmp_path):
    from liecoh import cli

    # Fraction("1e10000000") alone takes seconds; the file is 100 bytes
    path = tmp_path / "exponent.json"
    path.write_text(json.dumps({"schema": 1, "dim": 2, "basis": ["x", "y"], "brackets": [
        {"left": 0, "right": 1, "result": [["1e10000000", 1]]}]}))
    start = time.monotonic()
    assert cli.main(["validate", str(path)]) == 2
    assert time.monotonic() - start < 1
    with pytest.raises(FileFormatError):
        algebra_from_dict(json.loads(path.read_text()))


def test_refuses_json_integers_past_the_digit_limit(tmp_path):
    # json.load raises ValueError for ints past Python's 4300-digit conversion limit
    huge = "7" * 5000
    alg = tmp_path / "coefficient.json"
    alg.write_text('{"schema": 1, "dim": 2, "basis": ["x", "y"], "brackets": '
                   '[{"left": 0, "right": 1, "result": [[%s, 1]]}]}' % huge)
    proc = run_cli("validate", str(alg), expect=2)
    assert "Traceback" not in proc.stderr and "not valid JSON" in proc.stderr
    mod = tmp_path / "module.json"
    mod.write_text('{"schema": 1, "dim": %s, "action": []}' % huge)
    proc = run_cli("cohomology", "heisenberg3", "--module", str(mod), expect=2)
    assert "Traceback" not in proc.stderr and "not valid JSON" in proc.stderr


def test_an_unreadable_input_path_is_refused_in_one_line(tmp_path):
    # a directory exists but cannot be opened as a file
    for argv in (("check", str(tmp_path)),
                 ("cohomology", "heisenberg3", "--module", str(tmp_path))):
        proc = run_cli(*argv, expect=2)
        assert proc.stdout == "" and "Traceback" not in proc.stderr, argv
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {tmp_path}: cannot read it ("), argv


def test_a_reader_gone_from_stdout_exits_141_without_a_traceback():
    # the read end is closed before the child starts, so its first write to
    # stdout fails with EPIPE every time, as `| head -1` does only by timing
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    try:
        proc = subprocess.run([sys.executable, "-m", "liecoh", "cohomology", "ut3"],
                              stdout=write, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write)
    assert proc.returncode == 141, proc.stderr
    assert "Traceback" not in proc.stderr


def test_rees_command_heisenberg():
    proc = run_cli("rees", "heisenberg3", "--max-filtration", "4",
                   "--max-weight", "4", "--verify-pbw")
    payload = payload_of(proc)
    assert payload["nilpotent"] is True
    assert payload["rees_noetherian"] is True
    assert payload["table"][1][2] == 1
    assert payload["lcs_dims_match"] is True
    assert payload["monoid_generated"] is True
    assert payload["pbw_verified"]["all_equal"] is True
    assert "predicted == brute-force: yes" in proc.stderr


def test_rees_command_non_nilpotent():
    proc = run_cli("rees", "exampleA", "--max-filtration", "3",
                   "--max-weight", "3")
    payload = payload_of(proc)
    assert payload["nilpotent"] is False
    assert payload["rees_noetherian"] is False
    assert payload["table"] is None


def test_rees_verify_pbw_spans_long_words():
    # one word length per level; building length s from s - 1 must not recurse s deep
    proc = run_cli("rees", "abelian1", "--max-filtration", "1", "--max-weight", "900",
                   "--verify-pbw")
    checks = payload_of(proc)["pbw_verified"]["checks"]
    assert len(checks) == 900
    assert all(check["equal"] for check in checks)


def test_rees_verify_pbw_refuses_words_past_the_monomial_cap():
    # heisenberg3 has weights 1, 1, 2, so R = 1, M = 60 spans words up to
    # length 60 modulo the monomials of weight above 60: a + b + 2c <= 60
    # has 20336 solutions
    proc = run_cli("rees", "heisenberg3", "--max-filtration", "1", "--max-weight", "60",
                   "--verify-pbw", expect=2)
    assert "20336 monomials exceed the cap 5000" in proc.stderr
    assert proc.stdout == ""
    # a + b + 2c <= 29 has 2600 solutions, below it
    run_cli("rees", "heisenberg3", "--max-filtration", "1", "--max-weight", "29",
            "--verify-pbw")
    # the layer table alone counts the monomials of degree <= R only
    assert payload_of(run_cli("rees", "heisenberg3", "--max-filtration", "1",
                              "--max-weight", "60"))["table"] is not None


def test_rees_verify_pbw_counts_monomials_by_weight(tmp_path):
    # strict_ut(5) with R = 2, M = 4 spans words up to length 8: 2418 monomials
    # weigh at most 8, of the 43758 of degree at most 8
    path = tmp_path / "strict_ut5.json"
    path.write_text(json.dumps(algebra_to_dict(catalog.strict_ut(5))))
    proc = run_cli("rees", str(path), "--max-filtration", "2", "--max-weight", "4",
                   "--verify-pbw")
    assert payload_of(proc)["pbw_verified"]["all_equal"] is True


def test_check_and_rees_build_one_lower_central_series(monkeypatch, capsys):
    # nilpotency and the Rees verdict are read off the series already built
    from liecoh import checker, cli, lie

    cohomology = importlib.import_module("liecoh.cohomology")   # the package exports a function
    calls = []
    real = lie.lower_central_series

    def spy(L):
        calls.append(L)
        return real(L)

    for module in (lie, cohomology, cli):
        monkeypatch.setattr(module, "lower_central_series", spy)
    for name in ("heisenberg3", "ut3", "propC"):
        calls.clear()
        checker.check(catalog.get(name))
        assert len(calls) == 1, name
        calls.clear()
        assert cli.main(["rees", name, "--max-filtration", "2", "--max-weight", "3",
                         "--verify-pbw"]) == 0
        assert len(calls) == 1, name
    capsys.readouterr()


def test_rees_refuses_a_max_weight_of_zero():
    # the library answers () for m_max = 0 (`pbw.ipower_checks`); the command refuses it
    proc = run_cli("rees", "heisenberg3", "--max-filtration", "2", "--max-weight", "0",
                   "--verify-pbw", expect=2)
    assert proc.stdout == "" and "--max-weight must be positive" in proc.stderr


def test_rees_refuses_a_layer_table_past_the_cap():
    # (R + 1)(M + 1) cells; abelian1 with R = 1, M = 900 (1802 cells) still runs above
    proc = run_cli("rees", "heisenberg3", "--max-filtration", "1",
                   "--max-weight", "1000000000", expect=2)
    assert "2000000002 cells" in proc.stderr
    assert proc.stdout == ""


def test_e2_command_sl2():
    proc = run_cli("e2", "sl2")
    payload = payload_of(proc)
    assert payload["table"] == [[1, 0, 0, 1]]
    assert payload["h_total"] == [1, 0, 0, 1]
    assert payload["antidiagonal_bound_ok"] is True


def test_e2_command_example_a():
    proc = run_cli("e2", "exampleA")
    payload = payload_of(proc)
    assert payload["bottom_row"] == [1, 1]
    assert payload["bottom_row_equals_h_total"] is True


def test_example_emit_matches_library_and_cli_roundtrip(tmp_path):
    proc = run_cli("example", "amazing-L", "--emit")
    payload = payload_of(proc)
    assert algebra_from_dict(payload) == catalog.amazing_l()
    # emitted file is accepted by every command
    path = tmp_path / "amazing.json"
    path.write_text(proc.stdout)
    proc2 = run_cli("check", str(path))
    assert payload_of(proc2)["report"]["condition3"] is True


def test_example_summary():
    proc = run_cli("example", "sl2")
    payload = payload_of(proc)
    assert payload["dim"] == 3
    assert payload["is_nilpotent"] is False


def _readme_block(heading: str, language: str) -> str:
    """The first fenced block of the language under README's heading."""
    with open(os.path.join(os.path.dirname(SRC), "README.md"), encoding="utf-8") as handle:
        section = handle.read().split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_command_line_examples_run(tmp_path, monkeypatch, capsys):
    from liecoh import cli

    monkeypatch.chdir(tmp_path)
    lines = _readme_block("## Command line", "sh").splitlines()
    assert len(lines) == 8
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "liecoh", line
        target = None
        if ">" in argv:
            argv, target = argv[:argv.index(">")], argv[argv.index(">") + 1]
        assert cli.main(argv[1:]) == 0, line
        out = capsys.readouterr().out
        if target is not None:
            (tmp_path / target).write_text(out)
    (tmp_path / "algebra.json").write_text(_readme_block("### Algebra files", "json"))
    assert cli.main(["check", "algebra.json"]) == 0


def test_catalog_contains_required_entries():
    required = {"abelian1", "abelian2", "abelian3", "abelian4", "heisenberg3",
                "exampleA", "ut3", "strict-ut3", "propC", "amazing-L", "sl2"}
    assert required <= set(catalog.names())


def test_byte_identical_output():
    a = run_cli("check", "propC").stdout
    b = run_cli("check", "propC").stdout
    assert a == b
    c = run_cli("rees", "heisenberg3", "--max-filtration", "3",
                "--max-weight", "3", "--verify-pbw").stdout
    d = run_cli("rees", "heisenberg3", "--max-filtration", "3",
                "--max-weight", "3", "--verify-pbw").stdout
    assert c == d


# --- stdout digests -------------------------------------------------------

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "stdout_digests.json")


def _digest_commands():
    """Every command the digest file pins, as argv lists."""
    commands = []
    for name in catalog.names():
        commands += [["validate", name], ["series", name], ["check", name], ["e2", name],
                     ["cohomology", name], ["cohomology", name, "--module", "adjoint"],
                     ["rees", name, "--max-filtration", "2", "--max-weight", "3",
                      "--verify-pbw"]]
    return commands


def _digest(argv) -> dict:
    """sha256 of the command's stdout and its exit code, run in this process."""
    import contextlib
    import hashlib
    import io

    from liecoh.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "exit": code}


def test_stdout_digests_unchanged():
    # a schema change regenerates the file (python tests/test_cli.py) and says why
    with open(DIGESTS, encoding="utf-8") as handle:
        pinned = json.load(handle)
    commands = {" ".join(argv): argv for argv in _digest_commands()}
    assert sorted(pinned) == sorted(commands)
    moved = [cmd for cmd, argv in commands.items() if _digest(argv) != pinned[cmd]]
    assert not moved, f"stdout or exit code moved for: {moved}"


def test_json_writer_matches_json_dumps_on_every_digest_payload(monkeypatch):
    from liecoh import cli

    payloads = []
    monkeypatch.setattr(cli, "_emit", payloads.append)
    commands = _digest_commands()
    for argv in commands:
        cli.main(argv)
    assert len(payloads) == len(commands)
    for argv, obj in zip(commands, payloads):
        assert cli._json(obj) == json.dumps(obj, sort_keys=True, indent=2), argv


_JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: (st.lists(inner) | st.lists(st.text())
                   | st.dictionaries(st.text(), inner)),
    max_leaves=40)


@settings(max_examples=200, deadline=None)
@given(_JSON_DOCS)
def test_json_writer_matches_json_dumps_on_drawn_documents(doc):
    from liecoh import cli

    assert cli._json(doc) == json.dumps(doc, sort_keys=True, indent=2)
    assert cli._json((doc, [])) == json.dumps((doc, []), sort_keys=True, indent=2)


def test_json_writer_refuses_keys_that_are_not_strings():
    from liecoh import cli

    for doc in ({1: "a"}, {"a": [{"b": 1, None: 2}]}, {("x",): []}):
        with pytest.raises(TypeError):
            cli._json(doc)


# --- rees on rational inputs ----------------------------------------------

# The stdout of `rees --verify-pbw` on the three benchmark bases, each
# relabelled (tests/oracles.relabel, fixed seeds) so that its structure
# constants have a denominator D > 1.  Pinned before the PBW straightening
# moved to the rescaled int basis.
REES_RATIONAL = {
    "strict-ut4": ("2", "3", "cd224af4c13cc0ed4e664388cfb76eb479aa89c7a3950e7408f5e43b4c483df3"),
    "h5": ("4", "4", "35ca29d45521627e7b5bae3ab0eab012f3a82de8ae6327c40576cf8d66a61edf"),
    "filiform5": ("2", "4", "b582a0018b19f850e02b7dc233503264e539dd317840cc31182ce09c9046da84"),
}


def _rees_rational_base(name):
    if name == "strict-ut4":
        return catalog.strict_ut(4)
    if name == "h5":
        return LieAlgebra.from_brackets(["x1", "x2", "y1", "y2", "z"],
                                        {(0, 2): [(1, 4)], (1, 3): [(1, 4)]})
    return LieAlgebra.from_brackets(["e1", "e2", "e3", "e4", "e5"],
                                    {(0, 1): [(1, 2)], (0, 2): [(1, 3)], (0, 3): [(1, 4)]})


@pytest.mark.parametrize("name", sorted(REES_RATIONAL))
def test_rees_verify_digest_on_rational_inputs(name, tmp_path, monkeypatch):
    r_max, m_max, pinned = REES_RATIONAL[name]
    base = _rees_rational_base(name)
    L = LieAlgebra(*relabel(base.c, base.labels, random.Random(f"rees-rational-{name}")))
    assert _constants(L)[0] > 1
    monkeypatch.chdir(tmp_path)
    path = f"{name}-relabelled.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(algebra_to_dict(L), handle)
    got = _digest(["rees", path, "--max-filtration", r_max, "--max-weight", m_max,
                   "--verify-pbw"])
    assert got == {"stdout_sha256": pinned, "exit": 0}


# --- check and e2 on relabelled inputs ------------------------------------

# The stdout of `check` and `e2` on ut(4) and propC, each relabelled
# (tests/oracles.relabel, fixed seeds).  Pinned before the L^inf side of
# the page was restricted to the ambient weight-0 block.
PAGE_RELABELLED = {
    ("check", "ut4"):
        "ba6239414c719a6f89d13c44442b92432c3658965d631bf50584decf2fe6c2b5",
    ("e2", "ut4"):
        "00110ba23f69f788b1912138e12e6e03a945f26ee0b4b8f23c4eb24f3c65df0e",
    ("check", "propC"):
        "e8aa1d0c95a452a6b5349e288b85d1ae8acafceb6a7e8160e56c416c9da5ca01",
    ("e2", "propC"):
        "819ba3be91b4fb97eba51ea7fd87f2b9183df082b2c9649b16b621b677819261",
}


@pytest.mark.parametrize("command, name", sorted(PAGE_RELABELLED))
def test_page_digest_on_relabelled_inputs(command, name, tmp_path, monkeypatch):
    base = catalog.ut(4) if name == "ut4" else catalog.get(name)
    L = LieAlgebra(*relabel(base.c, base.labels, random.Random(f"page-relabelled-{name}")))
    monkeypatch.chdir(tmp_path)
    path = f"{name}-relabelled.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(algebra_to_dict(L), handle)
    assert _digest([command, path]) == {"stdout_sha256": PAGE_RELABELLED[command, name],
                                        "exit": 0}


if __name__ == "__main__":
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump({" ".join(argv): _digest(argv) for argv in _digest_commands()},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")
