"""The CLI's exit codes and JSON envelope, called in-process through `main`,
and its process entry `run`, started as `python -m orbitkit.cli`."""

import ast
import errno
import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from orbitkit import builtin_entries
from orbitkit import catalog as cat
from orbitkit import cli
from orbitkit.linalg import Subspace, basis_vector
from orbitkit.polarization import pukanszky_polarization
from conftest import n5_three_steps

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
    # labels a subspace argument could not tell apart
    "labels_repeated.json": {"name": "bad", "dim": 2, "basis": ["a", "a"], "brackets": []},
    "label_digits.json": {"name": "bad", "dim": 3, "basis": ["x", "0", "y"], "brackets": []},
    # declared subspaces that would hide a basis label or an index
    "ideal_label.json": {"name": "bad", "dim": 2, "basis": ["a", "b"], "brackets": [],
                         "ideals": {"a": [1]}},
    "complement_digits.json": {"name": "bad", "dim": 2, "basis": ["a", "b"], "brackets": [],
                               "complements": {"0": [1]}},
    # declared subspaces that would hide a label list or a subspace file
    "ideal_comma.json": {"name": "bad", "dim": 2, "basis": ["a", "b"], "brackets": [],
                         "ideals": {"a,b": [0]}},
    "complement_at.json": {"name": "bad", "dim": 2, "basis": ["a", "b"], "brackets": [],
                           "complements": {"@rows.json": [1]}},
    # JSON true and false are not basis indices, and a coefficient key is plain digits
    "bracket_index_bool.json": {"name": "bad", "dim": 2, "basis": ["a", "b"],
                                "brackets": [{"i": False, "j": 1, "coeffs": {"1": "1"}}]},
    "ideal_index_bool.json": {"name": "bad", "dim": 3, "basis": ["a", "b", "c"],
                              "brackets": [], "ideals": {"I": [True, 2]}},
    "chain_index_bool.json": {"ideals": [[True, 2]]},
    "coeff_key_letter.json": {"name": "bad", "dim": 2, "basis": ["a", "b"],
                              "brackets": [{"i": 0, "j": 1, "coeffs": {"x": "1"}}]},
    "coeff_key_space.json": {"name": "bad", "dim": 2, "basis": ["a", "b"],
                             "brackets": [{"i": 0, "j": 1, "coeffs": {" 1": "1"}}]},
    "coeff_value_letter.json": {"name": "bad", "dim": 2, "basis": ["a", "b"],
                                "brackets": [{"i": 0, "j": 1, "coeffs": {"1": "y"}}]},
    # nor are JSON true and false rationals
    "coeff_value_bool.json": {"name": "bad", "dim": 3, "basis": ["a", "b", "c"],
                              "brackets": [{"i": 0, "j": 1, "coeffs": {"2": True}}]},
    "covector_bool.json": {"name": "bad", "dim": 3, "basis": ["a", "b", "c"],
                           "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1"}}],
                           "covectors": {"c": [True, False, True]}},
    "rows_bool.json": {"rows": [[True, False, False]]},
    # bytes are written as they are: a file that is not UTF-8
    "not_utf8.json": b"\xff{}",
    "too_deep.json": b"[" * 100000 + b"]" * 100000,
    # an exponent past linalg.MAX_EXPONENT is refused before the number is built
    "coeff_exponent_over_cap.json": {"name": "bad", "dim": 2, "basis": ["a", "b"],
                                     "brackets": [{"i": 0, "j": 1, "coeffs": {"1": "1e5000"}}]},
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
    "conditions_labels_repeated": ["conditions", "labels_repeated.json", "--sub", "a",
                                   "--point=0,1"],
    "conditions_label_digits": ["conditions", "label_digits.json", "--sub", "0",
                                "--point=0,0,1"],
    "conditions_ideal_named_like_a_label": ["conditions", "ideal_label.json", "--sub", "a",
                                            "--point=0,1"],
    "conditions_complement_named_like_an_index": ["conditions", "complement_digits.json",
                                                  "--sub", "0", "--point=0,1"],
    "conditions_ideal_named_like_a_label_list": ["conditions", "ideal_comma.json",
                                                 "--sub", "a,b", "--point=0,1"],
    "conditions_complement_named_like_a_file": ["conditions", "complement_at.json",
                                                "--sub", "a", "--point=0,1"],
    # rationals and indices read from the command line or a referenced file
    "parabolic_zero_denominator": ["parabolic", "catalog:sl2", "--element=1/0,0,0"],
    "parabolic_short_element": ["parabolic", "catalog:sl2", "--element=1,0"],
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
    "validate_bracket_index_bool": ["validate", "bracket_index_bool.json"],
    "orbit_ideal_index_bool": ["orbit", "ideal_index_bool.json", "--point=0,0,1"],
    "polarize_chain_index_bool": ["polarize", "catalog:heisenberg3",
                                  "--strategy", "chain:chain_index_bool.json", "--point=0,0,1"],
    "validate_coeff_key_letter": ["validate", "coeff_key_letter.json"],
    "validate_coeff_key_space": ["validate", "coeff_key_space.json"],
    "validate_coeff_value_letter": ["validate", "coeff_value_letter.json"],
    "validate_coeff_value_bool": ["validate", "coeff_value_bool.json"],
    "orbit_covector_bool": ["orbit", "covector_bool.json", "--point=0,0,1"],
    "conditions_rows_bool": ["conditions", "catalog:heisenberg3", "--sub", "@rows_bool.json",
                             "--point=0,0,1"],
    # a digit outside ASCII is no index
    "conditions_sub_superscript": ["conditions", "catalog:heisenberg3", "--sub", "\u00b2",
                                   "--point=0,0,1"],
    "conditions_sub_superscript_in_list": ["conditions", "catalog:heisenberg3",
                                           "--sub", "0,1\u00b2", "--point=0,0,1"],
    # an input file that is not UTF-8, read through `catalog.read_json`
    "validate_not_utf8": ["validate", "not_utf8.json"],
    "orbit_not_utf8": ["orbit", "not_utf8.json", "--point=0"],
    "validate_too_deep": ["validate", "too_deep.json"],
    "conditions_rows_not_utf8": ["conditions", "catalog:heisenberg3", "--sub", "@not_utf8.json",
                                 "--point=0,0,1"],
    "polarize_chain_not_utf8": ["polarize", "catalog:heisenberg3",
                                "--strategy", "chain:not_utf8.json", "--point=0,0,1"],
    # numbers too large to build or to print
    "orbit_point_exponent_over_cap": ["orbit", "catalog:heisenberg3", "--point=1e5000,0,1"],
    "orbit_point_too_long_to_print": ["orbit", "catalog:heisenberg3", "--point=1e4300,0,1"],
    "validate_coeff_exponent_over_cap": ["validate", "coeff_exponent_over_cap.json"],
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
        if isinstance(doc, bytes):
            (tmp_path / name).write_bytes(doc)
        else:
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
    assert env["error"] == "bad_ideal.json: ideal 'x': basis index 9 out of range for dimension 2"
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
    _, env = run(BAD_INPUTS["conditions_labels_repeated"], capsys)
    assert env["error"] == "labels_repeated.json: basis label 'a' is repeated"
    _, env = run(BAD_INPUTS["conditions_label_digits"], capsys)
    assert env["error"] == "label_digits.json: basis label '0' reads as an index"
    _, env = run(BAD_INPUTS["conditions_ideal_named_like_a_label"], capsys)
    assert env["error"] == "ideal_label.json: ideal 'a' has the name of a basis label or index"
    _, env = run(BAD_INPUTS["conditions_complement_named_like_an_index"], capsys)
    assert env["error"] == ("complement_digits.json: complement '0' "
                            "has the name of a basis label or index")
    _, env = run(BAD_INPUTS["conditions_ideal_named_like_a_label_list"], capsys)
    assert env["error"] == ("ideal_comma.json: ideal 'a,b' "
                            "has a name that reads as a label list or a subspace file")
    _, env = run(BAD_INPUTS["conditions_complement_named_like_a_file"], capsys)
    assert env["error"] == ("complement_at.json: complement '@rows.json' "
                            "has a name that reads as a label list or a subspace file")
    _, env = run(BAD_INPUTS["parabolic_bad_rational"], capsys)
    assert env["error"] == "bad rational in element: Invalid literal for Fraction: 'a'"
    _, env = run(BAD_INPUTS["parabolic_short_element"], capsys)
    assert env["error"] == "element needs 3 coordinates, got 2"
    _, env = run(BAD_INPUTS["parabolic_zero_denominator"], capsys)
    assert env["error"] == "bad rational in element: Fraction(1, 0)"


# command -> the required options; each is refused without a --point
NEEDS_POINT = {"orbit": [], "conditions": ["--sub", "x"], "mackey": ["--ideal", "x"],
               "polarize": [], "classify": ["--ideal", "x"], "record": []}


def test_only_the_point_commands_need_a_point():
    assert {name for name, spec in cli._COMMANDS.items() if spec.point} == set(NEEDS_POINT)


@pytest.mark.parametrize("command", sorted(NEEDS_POINT))
def test_a_missing_point_is_refused_before_the_algebra_is_loaded(command, capsys):
    assert run([command, "catalog:nosuch"] + NEEDS_POINT[command], capsys) == (2, {
        "algebra": "catalog:nosuch", "command": command,
        "error": "at least one --point is required", "ok": False, "schema": 1})


@pytest.mark.parametrize("argv,error", [
    (["parabolic", "catalog:sl2"], "parabolic needs --element or --point"),
    (["record", "catalog:heisenberg3", "--point=0,0,1"], "record needs at least one --sub"),
], ids=["parabolic", "record"])
def test_a_missing_input_is_named(argv, error, capsys):
    assert run(argv, capsys) == (2, {"algebra": argv[1], "command": argv[0], "error": error,
                                     "ok": False, "schema": 1})


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


def test_a_bool_index_or_a_loose_key_is_refused_by_name(workdir, capsys):
    want = {
        "validate_bracket_index_bool": "bracket_index_bool.json: bracket pair (False,1) "
                                       "violates 0 <= i < j < dim",
        "orbit_ideal_index_bool": "ideal_index_bool.json: ideal 'I' must be an index list "
                                  "or {'rows': ...}",
        "polarize_chain_index_bool": "bad chain file chain_index_bool.json: ideals[0][0] must "
                                     "be a list of rationals, got True",
        "validate_coeff_key_letter": "coeff_key_letter.json: bracket pair (0,1): "
                                     "coefficient key 'x' is not a basis index",
        "validate_coeff_key_space": "coeff_key_space.json: bracket pair (0,1): "
                                    "coefficient key ' 1' is not a basis index",
        "validate_coeff_value_letter": "coeff_value_letter.json: bracket pair (0,1): bad "
                                       "rational literal 'y': Invalid literal for Fraction: 'y'",
        "validate_coeff_value_bool": "coeff_value_bool.json: bracket pair (0,1): "
                                     "true is not a rational",
        "orbit_covector_bool": "covector_bool.json: covector 'c': true is not a rational",
        "conditions_rows_bool": "bad subspace file rows_bool.json: rows[0]: "
                                "true is not a rational",
        "conditions_sub_superscript": "'\u00b2' is neither a declared subspace, basis label, "
                                      "nor index",
        "conditions_sub_superscript_in_list": "'1\u00b2' is neither a declared subspace, "
                                              "basis label, nor index",
    }
    for case, error in want.items():
        assert run(BAD_INPUTS[case], capsys) == (2, {
            "algebra": BAD_INPUTS[case][1], "command": BAD_INPUTS[case][0],
            "error": error, "ok": False, "schema": 1})


def test_an_unreadable_file_or_an_unprintable_number_is_named(workdir, capsys):
    not_utf8 = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    over_cap = "exponent above 4300 in magnitude in a rational literal"
    want = {
        "validate_not_utf8": f"not_utf8.json: {not_utf8}",
        "orbit_not_utf8": f"not_utf8.json: {not_utf8}",
        "validate_too_deep": "too_deep.json: maximum recursion depth exceeded while decoding "
                             "a JSON array from a unicode string",
        "conditions_rows_not_utf8": f"bad subspace file not_utf8.json: {not_utf8}",
        "polarize_chain_not_utf8": f"bad chain file not_utf8.json: {not_utf8}",
        "orbit_point_exponent_over_cap": f"bad rational in point: {over_cap}",
        "validate_coeff_exponent_over_cap": "coeff_exponent_over_cap.json: bracket pair (0,1): "
                                            f"bad rational literal '1e5000': {over_cap}",
    }
    for case, error in want.items():
        assert run(BAD_INPUTS[case], capsys) == (2, {
            "algebra": BAD_INPUTS[case][1], "command": BAD_INPUTS[case][0],
            "error": error, "ok": False, "schema": 1})
    # 10**4300 is built, but has one digit more than Python prints
    _, env = run(BAD_INPUTS["orbit_point_too_long_to_print"], capsys)
    assert env["error"].startswith("Exceeds the limit (4300 digits) for integer string")


def test_a_label_of_non_ascii_digits_loads_and_resolves(tmp_path, monkeypatch, capsys):
    doc = {"name": "sup", "dim": 3, "basis": ["x", "\u00b2", "z"],
           "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1"}}]}
    (tmp_path / "sup.json").write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    entry = cat.load_entry_file("sup.json")
    assert cli._parse_subspace(entry, "\u00b2") == Subspace(3, [basis_vector(3, 1)])
    code, env = run(["conditions", "sup.json", "--sub", "\u00b2,z", "--point=0,0,1"], capsys)
    assert code == 0 and env["ok"] is True


def test_a_chain_ideal_outside_its_window_gives_the_error_envelope(tmp_path, monkeypatch,
                                                                  capsys):
    alg, cov = n5_three_steps()
    doc = {"name": "n5", "dim": alg.dim, "basis": list(alg.labels), "brackets": [
        {"i": i, "j": j, "coeffs": {str(k): str(c) for k, c in alg.nonzeros[i][j]}}
        for i in range(alg.dim) for j in range(i + 1, alg.dim) if alg.nonzeros[i][j]]}
    first = pukanszky_polarization(alg, cov).steps[0].ideal
    chain = {"ideals": [[[str(x) for x in row] for row in first.rows], list(range(alg.dim))]}
    (tmp_path / "n5.json").write_text(json.dumps(doc), encoding="utf-8")
    (tmp_path / "chain.json").write_text(json.dumps(chain), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    point = "--point=" + ",".join(map(str, cov.coords))
    assert run(["polarize", "n5.json", "--strategy", "chain:chain.json", point], capsys) == (2, {
        "algebra": "n5.json", "command": "polarize", "ok": False, "schema": 1,
        "error": "chain ideal at step 1 is not inside g_1"})


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
    builtin_entries.builtin_entry.cache_clear()
    yield
    builtin_entries.builtin_entry.cache_clear()


def test_a_named_entry_builds_no_other(unbuilt_catalog, monkeypatch, capsys):
    def refuse():
        raise AssertionError("built an entry the invocation does not name")

    for name in builtin_entries.BUILDERS:
        if name != "heisenberg3":
            monkeypatch.setitem(builtin_entries.BUILDERS, name, refuse)
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
    assert sorted(env["entries"]) == sorted(builtin_entries.BUILDERS)


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


# -- the argument parser ----------------------------------------------------------

H3 = "catalog:heisenberg3"


def invoke(argv, capsys):
    """(exit code, stdout, stderr) of `cli.main(argv)`; a usage error is a SystemExit."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def report_of(argv):
    """stdout must be the report that argv gives."""
    return ("report", argv)


def points(*coords):
    """stdout must be a report on these points, in this order."""
    return ("holds", lambda env: [r["point"] for r in env["results"]] == [list(c) for c in coords])


def sub_dims(env):
    """The subalgebra dimensions along the chain of a one-point `record` report."""
    dims, rec = [], env["results"][0]["record"]
    while "sub_dim" in rec:
        dims.append(rec["sub_dim"])
        rec = rec["fiber"]
    return dims


USAGE = ""      # a usage error writes nothing to stdout
HELP = "help"   # stdout is the help text, which starts with the usage line

# case -> (argv, exit code, stdout, text that stderr holds; "" when stderr must be
# empty).  stdout is USAGE, HELP, the report of another argv, or ("holds", test),
# a test of the parsed report.
PARSES = {
    "equals_form": (["orbit", H3, "--point=0,0,1"], 0,
                    report_of(["orbit", H3, "--point", "0,0,1"]), ""),
    "short_form": (["orbit", H3, "-p", "0,0,1"], 0, report_of(["orbit", H3, "--point=0,0,1"]), ""),
    "short_attached": (["orbit", H3, "-p0,0,1"], 0, report_of(["orbit", H3, "--point=0,0,1"]), ""),
    "options_first": (["orbit", "--point=0,0,1", H3], 0,
                      report_of(["orbit", H3, "--point=0,0,1"]), ""),
    "points_accumulate": (["orbit", H3, "-p", "0,0,1", "--point=1,0,0", "-p0,1,0"], 0,
                          points(("0", "0", "1"), ("1", "0", "0"), ("0", "1", "0")), ""),
    "subs_accumulate": (["record", H3, "--sub", "plane", "--sub=center", "-p", "0,0,1"], 0,
                        ("holds", lambda env: sub_dims(env) == [2, 1]), ""),
    "last_ideal_wins": (["mackey", H3, "--ideal", "center", "--ideal=plane", "-p", "0,0,1"], 0,
                        report_of(["mackey", H3, "--ideal", "plane", "-p", "0,0,1"]), ""),
    "negative_value": (["orbit", "catalog:affine_line", "-p", "-1,2"], 0, points(("-1", "2")), ""),
    "flag": (["polarize", H3, "--override-precheck", "-p", "0,0,1"], 0,
             report_of(["polarize", H3, "-p", "0,0,1"]), ""),
    "missing_ideal": (["mackey", H3, "-p", "0,0,1"], 2, USAGE,
                      "the following arguments are required: --ideal"),
    "missing_sub": (["conditions", H3, "-p", "0,0,1"], 2, USAGE,
                    "the following arguments are required: --sub"),
    "missing_algebra": (["orbit", "-p", "0,0,1"], 2, USAGE,
                        "the following arguments are required: ALGEBRA"),
    "jobs_option_is_gone": (["orbit", H3, "-p", "0,0,1", "--jobs", "2"], 2, USAGE,
                            "unrecognized option --jobs"),
    "prefix_refused": (["orbit", H3, "--poi=0,0,1"], 2, USAGE, "unrecognized option --poi"),
    "missing_value": (["orbit", H3, "--point"], 2, USAGE, "--point needs a value"),
    "flag_with_value": (["polarize", H3, "--override-precheck=yes", "-p", "0,0,1"], 2, USAGE,
                        "--override-precheck takes no value"),
    "extra_argument": (["orbit", H3, "extra", "-p", "0,0,1"], 2, USAGE,
                       "unrecognized arguments: extra"),
    "bare": ([], 2, USAGE, "a command is required"),
    "unknown_command": (["frobnicate", H3], 2, USAGE, "unknown command 'frobnicate'"),
    "top_help": (["-h"], 0, HELP, ""),
    "top_help_long": (["--help"], 0, HELP, ""),
    "help_after_options": (["orbit", H3, "-p", "0,0,1", "--help"], 0, HELP, ""),
    **{f"help_{name}": ([name, "-h"], 0, HELP, "") for name in cli._COMMANDS},
}


@pytest.mark.parametrize("case", sorted(PARSES))
def test_the_parser_reads_argv(case, capsys):
    argv, code, out, err = PARSES[case]
    got_code, got_out, got_err = invoke(argv, capsys)
    assert got_code == code
    if out == USAGE:
        assert got_out == ""
    elif out == HELP:
        assert got_out.startswith("usage: orbitkit")
        assert argv[0] in ("-h", "--help") or f"usage: orbitkit {argv[0]}" in got_out
    elif out[0] == "holds":
        assert out[1](json.loads(got_out))
    else:
        assert got_out == invoke(out[1], capsys)[1]
    if err:
        assert err in got_err and got_err.startswith("usage: orbitkit")
    else:
        assert got_err == ""


def test_every_command_has_a_happy_path_case():
    assert set(HAPPY) == set(cli._COMMANDS)


def test_main_reads_sys_argv_by_default(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["orbitkit", "orbit", H3, "--point=0,0,1"])
    assert cli.main() == 0
    assert json.loads(capsys.readouterr().out)["results"][0]["orbit"]["orbit_dim"] == 2


def test_output_goes_to_the_named_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert invoke(["orbit", H3, "--point=0,0,1", "-o", str(path)], capsys) == (0, "", "")
    assert path.read_text(encoding="utf-8") == invoke(["orbit", H3, "--point=0,0,1"], capsys)[1]


@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_an_output_path_that_cannot_be_opened_gives_the_error_envelope(where, tmp_path, capsys):
    path = tmp_path / "missing" / "x.json" if where == "missing_dir" else tmp_path
    code, out, err = invoke(["orbit", H3, "--point=0,0,1", "-o", str(path)], capsys)
    assert (code, err) == (2, "")
    env = json.loads(out)
    assert env["ok"] is False and env["command"] == "orbit" and env["algebra"] == H3
    assert env["error"].startswith(f"cannot write the report to {path}: ")
    assert "results" not in env
    assert sorted(p.name for p in tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [{F(1)}, object()], ids=["set", "object"])
def test_the_encoder_refuses_unknown_types(value, monkeypatch, capsys):
    # a report holding an unexpected object must fail loudly, not print its repr
    monkeypatch.setitem(cli._COMMANDS, "catalog", cli._Command(
        "list", lambda args: ({"entries": [value]}, True), (), algebra=False, point=False))
    with pytest.raises(TypeError, match="no JSON form"):
        cli.main(["catalog"])
    assert capsys.readouterr().out == ""


# -- the process entry ----------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent


def test_the_console_script_and_the_main_block_call_one_entry():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))[
        "project"]["scripts"]
    module, _, attr = scripts["orbitkit"].partition(":")
    target = getattr(importlib.import_module(module), attr)
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    [block] = [node for node in tree.body if isinstance(node, ast.If)
               and ast.unparse(node.test) == "__name__ == '__main__'"]
    [stmt] = block.body
    call = stmt.value
    assert isinstance(call, ast.Call) and not call.args and not call.keywords
    assert getattr(cli, call.func.id) is target is cli.run


def test_every_file_the_package_opens_is_closed_by_a_with_block():
    """`run` ends the process without teardown, so no file may be left open."""
    for path in sorted((ROOT / "src" / "orbitkit").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        opens = {node for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name) and node.func.id == "open"}
        in_with = {item.context_expr for node in ast.walk(tree) if isinstance(node, ast.With)
                   for item in node.items}
        assert opens <= in_with, path.name
        assert "atexit" not in {alias.name for node in ast.walk(tree)
                                if isinstance(node, ast.Import) for alias in node.names}


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("sink", ["closed_pipe", "dev_full"])
def test_a_report_that_cannot_be_written_exits_2(sink, unbuffered, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "orbitkit.cli", "orbit", H3, "--point=0,0,1"]
    if sink == "closed_pipe":
        read_end, write_end = os.pipe()
        os.close(read_end)
        out, reason = os.fdopen(write_end, "wb"), os.strerror(errno.EPIPE)
    else:
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        out, reason = open("/dev/full", "wb"), os.strerror(errno.ENOSPC)
    with out:
        proc = subprocess.run(argv, stdout=out, stderr=subprocess.PIPE, cwd=tmp_path, env=env,
                              text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (2, f"cannot write the report to stdout: {reason}\n")
