"""The CLI's exit codes and JSON envelope, called in-process through `main`."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from orbitkit import catalog as cat
from orbitkit import cli

# Definition files that are malformed or declare out-of-range data.
MALFORMED = {
    "bad_structure.json": {"name": "bad", "dim": 1, "basis": ["a"], "structure": [[1]]},
    "no_coeffs.json": {"name": "bad", "dim": 2, "basis": ["a", "b"],
                       "brackets": [{"i": 0, "j": 1}]},
    "top_list.json": [{"name": "bad", "dim": 1, "basis": ["a"]}],
    "brackets_int.json": {"name": "x", "dim": 2, "basis": ["a", "b"], "brackets": 5},
    "bad_ideal.json": {"name": "bad_ideal", "dim": 2, "basis": ["a", "b"],
                       "brackets": [{"i": 0, "j": 1, "coeffs": {"1": "1"}}],
                       "ideals": {"x": [9]}},
    "bad_covector.json": {"name": "bad_covector", "dim": 2, "basis": ["a", "b"],
                          "brackets": [{"i": 0, "j": 1, "coeffs": {"1": "1"}}],
                          "covectors": {"c": ["1", "2", "3"]}},
    "rep_not_rows.json": {"name": "bad", "dim": 1, "basis": ["a"], "matrix_rep": [[1]]},
    # E11, E12 commute under the declared brackets but not as matrices
    "rep_breaks_bracket.json": {"name": "bad", "dim": 2, "basis": ["a", "b"], "brackets": [],
                                "matrix_rep": [[["1", "0"], ["0", "0"]],
                                               [["0", "1"], ["0", "0"]]]},
    "rep_shapes.json": {"name": "bad", "dim": 2, "basis": ["a", "b"],
                        "matrix_rep": [[["1", "0", "0"], ["0", "0", "0"]],
                                       [["0", "1"], ["0", "0"], ["0", "0"]]]},
    "rep_nonsquare.json": {"name": "bad", "dim": 1, "basis": ["a"],
                           "matrix_rep": [[["1", "0", "0"], ["0", "0", "0"]]]},
    "covectors_list.json": {"name": "bad", "dim": 2, "basis": ["a", "b"], "covectors": []},
    "ideal_rows_int.json": {"name": "bad", "dim": 2, "basis": ["a", "b"],
                            "ideals": {"x": {"rows": 5}}},
    "zero_den_rows.json": {"rows": [["1/0", "0", "0"]]},
    "chain_index.json": {"ideals": [[9]]},
    "chain_zero_den.json": {"ideals": [[["1/0", "0", "0"]]]},
    # a JSON string where a list of rationals belongs is never read per character
    "covector_string.json": {"name": "covector_string", "dim": 2, "basis": ["a", "b"],
                             "covectors": {"c": "12"}},
    "ideal_row_string.json": {"name": "bad", "dim": 2, "basis": ["a", "b"],
                              "ideals": {"x": {"rows": ["01"]}}},
    "rep_row_string.json": {"name": "bad", "dim": 1, "basis": ["a"], "matrix_rep": [["0"]]},
    "structure_row_string.json": {"name": "bad", "dim": 1, "basis": ["a"],
                                  "structure": [["0"]]},
    "rows_string.json": {"rows": ["010"]},
    "rows_string_signed.json": {"rows": ["-12"]},
    "chain_row_string.json": {"ideals": [["001"]]},
    "chain_ideal_string.json": {"ideals": ["12"]},
    "basis_string.json": {"dim": 2, "basis": "ab", "brackets": []},
    "dim_bool.json": {"dim": True, "basis": ["a"], "brackets": []},
    "name_int.json": {"name": 5, "dim": 1, "basis": ["a"], "brackets": []},
}

BAD_INPUTS = {
    # the point-orbit hypothesis of the semidirect witness fails
    "mackey_semidirect_timelike": ["mackey", "catalog:poincare", "--ideal", "translations",
                                   "--complement", "lorentz", "--point=0,0,0,0,0,0,1,0,0,0"],
    "mackey_semidirect_affine_line": ["mackey", "catalog:affine_line", "--ideal", "translations",
                                      "--complement", "dilation", "--point=0,1"],
    "mackey_semidirect_euclid2": ["mackey", "catalog:euclid2", "--ideal", "translations",
                                  "--complement", "rotation", "--point=0,1,0",
                                  "--point=1,0,0"],
    "parabolic_bad_rational": ["parabolic", "catalog:sl2", "--element=1,a,0"],
    "validate_structure_1x1": ["validate", "bad_structure.json"],
    "validate_bracket_no_coeffs": ["validate", "no_coeffs.json"],
    "validate_top_level_list": ["validate", "top_list.json"],
    "validate_brackets_not_a_list": ["validate", "brackets_int.json"],
    "mackey_ideal_index_out_of_range": ["mackey", "bad_ideal.json", "--ideal", "x",
                                        "--point=0,1"],
    "orbit_covector_wrong_length": ["orbit", "bad_covector.json", "--point=0,1"],
    # other malformed sections of a definition file
    "validate_matrix_rep_not_rows": ["validate", "rep_not_rows.json"],
    "validate_matrix_rep_breaks_bracket": ["validate", "rep_breaks_bracket.json"],
    "orbit_matrix_rep_breaks_bracket": ["orbit", "rep_breaks_bracket.json", "--point=1,0"],
    "validate_matrix_rep_shapes": ["validate", "rep_shapes.json"],
    "parabolic_matrix_rep_not_square": ["parabolic", "rep_nonsquare.json", "--element=1"],
    "orbit_covectors_not_an_object": ["orbit", "covectors_list.json", "--point=0,1"],
    "orbit_ideal_rows_not_a_list": ["orbit", "ideal_rows_int.json", "--point=0,1"],
    "orbit_basis_string": ["orbit", "basis_string.json", "--point=0,1"],
    "orbit_dim_bool": ["orbit", "dim_bool.json", "--point=0"],
    "orbit_name_int": ["orbit", "name_int.json", "--point=0"],
    "orbit_unknown_catalog_entry": ["orbit", "catalog:nosuch", "--point=0"],
    # rationals and indices read from the command line or a referenced file
    "parabolic_zero_denominator": ["parabolic", "catalog:sl2", "--element=1/0,0,0"],
    "orbit_point_zero_denominator": ["orbit", "catalog:heisenberg3", "--point=1/0,0,0"],
    "conditions_index_out_of_range": ["conditions", "catalog:heisenberg3", "--sub", "9",
                                      "--point=0,0,1"],
    "conditions_rows_zero_denominator": ["conditions", "catalog:heisenberg3",
                                         "--sub", "@zero_den_rows.json", "--point=0,0,1"],
    "polarize_chain_index": ["polarize", "catalog:heisenberg3",
                             "--strategy", "chain:chain_index.json", "--point=0,0,1"],
    "polarize_chain_zero_denominator": ["polarize", "catalog:heisenberg3",
                                        "--strategy", "chain:chain_zero_den.json",
                                        "--point=0,0,1"],
    "orbit_covector_string": ["orbit", "covector_string.json", "--point=0,1"],
    "orbit_ideal_row_string": ["orbit", "ideal_row_string.json", "--point=0,1"],
    "validate_matrix_rep_row_string": ["validate", "rep_row_string.json"],
    "validate_structure_row_string": ["validate", "structure_row_string.json"],
    "conditions_rows_string": ["conditions", "catalog:heisenberg3", "--sub", "@rows_string.json",
                               "--point=0,0,1"],
    "conditions_rows_string_signed": ["conditions", "catalog:heisenberg3",
                                      "--sub", "@rows_string_signed.json", "--point=0,0,1"],
    "polarize_chain_row_string": ["polarize", "catalog:heisenberg3",
                                  "--strategy", "chain:chain_row_string.json", "--point=0,0,1"],
    "polarize_chain_ideal_string": ["polarize", "catalog:heisenberg3",
                                    "--strategy", "chain:chain_ideal_string.json",
                                    "--point=0,0,1"],
}

HAPPY = {
    "catalog": ["catalog"],
    "validate": ["validate", "catalog:heisenberg3"],
    "orbit": ["orbit", "catalog:heisenberg3", "--point=0,0,1", "--point=1,0,0"],
    "conditions": ["conditions", "catalog:heisenberg3", "--sub", "plane", "--point=0,0,1"],
    "mackey": ["mackey", "catalog:heisenberg3", "--ideal", "plane", "--point=0,0,1"],
    "polarize": ["polarize", "catalog:heisenberg3", "--point=0,0,1"],
    "parabolic": ["parabolic", "catalog:sl2", "--element=1,0,0"],
    "classify": ["classify", "catalog:euclid2", "--ideal", "translations", "--point=0,1,0"],
    "record": ["record", "catalog:heisenberg3", "--sub", "plane", "--point=0,0,1"],
}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for name, doc in MALFORMED.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(argv, capsys):
    code = cli.main(argv)
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_gives_the_error_envelope(case, workdir, capsys):
    argv = BAD_INPUTS[case]
    code, env = run(argv, capsys)
    assert code == 2
    assert env["ok"] is False and env["command"] == argv[0]
    assert isinstance(env["error"], str) and env["error"]
    assert "Matrix[" not in env["error"]
    assert "results" not in env


def test_error_text_keeps_its_context(workdir, capsys):
    _, env = run(BAD_INPUTS["mackey_ideal_index_out_of_range"], capsys)
    assert env["error"] == "basis index 9 out of range for dimension 2"
    _, env = run(BAD_INPUTS["polarize_chain_index"], capsys)
    assert env["error"] == ("bad chain file chain_index.json: "
                            "basis index 9 out of range for dimension 3")
    _, env = run(BAD_INPUTS["orbit_point_zero_denominator"], capsys)
    assert env["error"] == "bad rational in point: Fraction(1, 0)"
    _, env = run(BAD_INPUTS["validate_top_level_list"], capsys)
    assert env["error"] == "top_list.json: a definition must be a JSON object"
    _, env = run(BAD_INPUTS["orbit_basis_string"], capsys)
    assert env["error"] == "basis_string.json: basis must be a list of strings, got 'ab'"
    _, env = run(BAD_INPUTS["orbit_dim_bool"], capsys)
    assert env["error"] == "dim_bool.json: dim must be a non-negative integer, got True"
    _, env = run(BAD_INPUTS["orbit_name_int"], capsys)
    assert env["error"] == "name_int.json: name must be a string, got 5"
    _, env = run(BAD_INPUTS["orbit_unknown_catalog_entry"], capsys)
    assert env["error"] == "unknown catalog entry 'nosuch'; try the `catalog` subcommand"


def test_a_representation_failure_names_its_pair(workdir, capsys):
    _, env = run(BAD_INPUTS["orbit_matrix_rep_breaks_bracket"], capsys)
    assert env["error"] == ("rep_breaks_bracket.json: algebra fails validation "
                            "at matrix_rep pair (0, 1)")
    _, env = run(BAD_INPUTS["validate_matrix_rep_breaks_bracket"], capsys)
    assert json.loads(env["error"])["rep_failures"] == [[0, 1]]
    _, env = run(BAD_INPUTS["parabolic_matrix_rep_not_square"], capsys)
    assert env["error"] == ("rep_nonsquare.json: "
                            "matrix_rep must list one n x n matrix per element")


def test_a_string_row_is_refused_by_name(workdir, capsys):
    want = {
        "orbit_covector_string": "covector_string.json: covector 'c' must be a list of "
                                 "rationals, got '12'",
        "orbit_ideal_row_string": "ideal_row_string.json: ideal 'x' rows[0] must be a list of "
                                  "rationals, got '01'",
        "validate_matrix_rep_row_string": "rep_row_string.json: matrix_rep[0] row must be a "
                                          "list of rationals, got '0'",
        "validate_structure_row_string": "structure_row_string.json: structure row must be a "
                                         "list of rationals, got '0'",
        "conditions_rows_string": "bad subspace file rows_string.json: rows[0] must be a list "
                                  "of rationals, got '010'",
        "conditions_rows_string_signed": "bad subspace file rows_string_signed.json: rows[0] "
                                         "must be a list of rationals, got '-12'",
        "polarize_chain_row_string": "bad chain file chain_row_string.json: ideals[0][0] must "
                                     "be a list of rationals, got '001'",
        "polarize_chain_ideal_string": "bad chain file chain_ideal_string.json: ideals[0][0] "
                                       "must be a list of rationals, got '1'",
    }
    for case, error in want.items():
        assert run(BAD_INPUTS[case], capsys) == (2, {
            "algebra": BAD_INPUTS[case][1], "command": BAD_INPUTS[case][0],
            "error": error, "ok": False, "schema": 1})


def test_catalog_refuses_a_string_covector(workdir, monkeypatch, capsys):
    extra = workdir / "extra"
    extra.mkdir()
    (workdir / "covector_string.json").rename(extra / "covector_string.json")
    monkeypatch.setenv("ORBITKIT_CATALOG_DIR", str(extra))
    for argv in (["catalog"], HAPPY["orbit"]):
        code, env = run(argv, capsys)
        assert code == 2 and "covector 'c' must be a list of rationals" in env["error"]


def test_catalog_refuses_a_name_that_is_not_a_string(workdir, monkeypatch, capsys):
    extra = workdir / "extra"
    extra.mkdir()
    (workdir / "name_int.json").rename(extra / "name_int.json")
    monkeypatch.setenv("ORBITKIT_CATALOG_DIR", str(extra))
    code, env = run(["catalog"], capsys)
    assert code == 2 and env["error"].endswith("name_int.json: name must be a string, got 5")


# -- catalog entries are built by name ------------------------------------------

@pytest.fixture
def unbuilt_catalog():
    cat._builtin_entry.cache_clear()
    yield
    cat._builtin_entry.cache_clear()


def test_a_named_entry_builds_no_other(unbuilt_catalog, monkeypatch, capsys):
    def refuse():
        raise AssertionError("built an entry the invocation does not name")

    for name in cat._BUILDERS:
        if name != "heisenberg3":
            monkeypatch.setitem(cat._BUILDERS, name, refuse)
    code, env = run(HAPPY["orbit"], capsys)
    assert code == 0 and env["results"][0]["orbit"]["orbit_dim"] == 2


def test_a_catalog_dir_entry_overrides_the_builtin_of_its_name(workdir, monkeypatch, capsys):
    extra = workdir / "extra"
    extra.mkdir()
    abelian = {"name": "heisenberg3", "dim": 3, "basis": ["a", "b", "c"], "brackets": []}
    (extra / "mine.json").write_text(json.dumps(abelian), encoding="utf-8")
    monkeypatch.setenv("ORBITKIT_CATALOG_DIR", str(extra))
    code, env = run(HAPPY["orbit"], capsys)
    assert code == 0 and env["results"][0]["orbit"]["orbit_dim"] == 0
    code, env = run(["catalog"], capsys)
    assert env["entries"]["heisenberg3"]["ideals"] == []
    assert sorted(env["entries"]) == sorted(cat._BUILDERS)


@pytest.mark.parametrize("command", sorted(HAPPY))
def test_happy_path_gives_a_report(command, capsys):
    code, env = run(HAPPY[command], capsys)
    assert code in (0, 1)
    assert "error" not in env
    assert env["ok"] is (code == 0)


def test_semidirect_witness_at_a_point_orbit(capsys):
    code, env = run(["mackey", "catalog:affine_line", "--ideal", "translations",
                     "--complement", "dilation", "--point=1,0"], capsys)
    assert code in (0, 1)
    assert env["results"][0]["semidirect"]["witness"] == "dilation"


def test_jobs_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["orbit", "catalog:heisenberg3", "--point=0,0,1", "--jobs", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("value", [{F(1)}, object()], ids=["set", "object"])
def test_the_encoder_refuses_unknown_types(value, monkeypatch, capsys):
    # a report holding an unexpected object must fail loudly, not print its repr
    monkeypatch.setitem(cli._HANDLERS, "catalog", lambda args: ({"entries": [value]}, True))
    with pytest.raises(TypeError, match="no JSON form"):
        cli.main(["catalog"])
    assert capsys.readouterr().out == ""


# -- sympy stays off the happy path --------------------------------------------

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SUPPORTED_THEN_UNSUPPORTED = """
import contextlib, io, json, sys
from orbitkit import cli
from orbitkit.linalg import Matrix
from orbitkit.reductive import hyperbolic_elliptic_split

def run(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(args)
    return [code, out.getvalue()]

cases = json.load(open("cases.json"))
report = {"supported": [run(args) for args in cases["supported"]]}
report["split"] = [m.entries == want for m, want in zip(
    hyperbolic_elliptic_split(Matrix([[1, -1], [1, 1]])), (((1, 0), (0, 1)), ((0, -1), (1, 0))))]
report["sympy_after_supported"] = "sympy" in sys.modules
report["unsupported"] = run(cases["unsupported"])
print(json.dumps(report))
"""


def test_supported_runs_never_import_sympy(tmp_path):
    """One fresh interpreter runs two `parabolic` goldens, a `polarize` golden
    and a Q(i) split without loading sympy; only the unsupported sl3 golden,
    whose error names the irreducible cubic, may load it."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))

    def goldens(name):
        return json.loads((PERFBENCH / "golden" / f"{name}.json").read_text(encoding="utf-8"))

    family, catalog = goldens("parabolic_polarize"), goldens("catalog_sweep")
    workloads.write_files(workloads.build("parabolic_polarize", family["seed"]), tmp_path)
    family, catalog = family["invocations"], catalog["invocations"]
    wanted = [family["parabolic:sl3:0"], family["parabolic:sl4:14"], catalog["polarize:filiform4"]]
    unsupported = catalog["parabolic:sl3"]
    (tmp_path / "cases.json").write_text(json.dumps({
        "supported": [g["args"] for g in wanted], "unsupported": unsupported["args"]}))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", SUPPORTED_THEN_UNSUPPORTED], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    report = json.loads(proc.stdout)
    assert report["supported"] == [[g["exit"], g["stdout"]] for g in wanted]
    assert report["split"] == [True, True]
    assert report["sympy_after_supported"] is False
    assert report["unsupported"] == [unsupported["exit"], unsupported["stdout"]]
    assert "factor x^3 - 5*x - 9 (irreducible factor of degree 3)" in unsupported["stdout"]
