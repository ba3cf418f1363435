"""The CLI's exit codes and JSON envelope, called in-process through `main`,
and its process entry `run`, started as `python -m orbitkit.cli`."""

import ast
import errno
import importlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from orbitkit import catalog as cat
from orbitkit import cli
from orbitkit.linalg import Subspace, basis_vector
from orbitkit.polarization import parse_chain, pukanszky_polarization
from conftest import n5_three_steps, seeded_family_entries

# Definition files that are malformed or declare out-of-range data.
MALFORMED = {
    # a dense tensor is not a definition's table, with or without a bracket list
    "bad_structure.json": {"name": "bad", "dim": 1, "basis": ["a"], "structure": [[1]]},
    "structure_and_brackets.json": {"name": "bad", "dim": 1, "basis": ["a"], "brackets": [],
                                    "structure": [[["0"]]]},
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
    "rep_ragged.json": {"name": "bad", "dim": 1, "basis": ["a"],
                        "matrix_rep": [[["1", "0"], ["0"]]]},
    "rep_empty.json": {"name": "bad", "dim": 2, "basis": ["a", "b"],
                       "matrix_rep": [[["1"]], []]},
    "description_int.json": {"name": "bad", "dim": 1, "basis": ["a"], "brackets": [],
                             "description": 5},
    "covectors_list.json": {"name": "bad", "dim": 2, "basis": ["a", "b"], "covectors": []},
    "ideal_rows_int.json": {"name": "bad", "dim": 2, "basis": ["a", "b"],
                            "ideals": {"x": {"rows": 5}}},
    # a declared row of the wrong length names its file and subspace
    "ideal_row_short.json": {"name": "bad", "dim": 3, "basis": ["a", "b", "c"],
                             "ideals": {"x": {"rows": [["0", "1"]]}}},
    "complement_row_long.json": {"name": "bad", "dim": 2, "basis": ["a", "b"],
                                 "complements": {"s": {"rows": [["1", "0", "0"]]}}},
    "zero_den_rows.json": {"rows": [["1/0", "0", "0"]]},
    "chain_index.json": {"ideals": [[9]]},
    "chain_zero_den.json": {"ideals": [{"rows": [["1/0", "0", "0"]]}]},
    # a JSON string where a list of rationals belongs is never read per character
    "covector_string.json": {"name": "covector_string", "dim": 2, "basis": ["a", "b"],
                             "covectors": {"c": "12"}},
    "ideal_row_string.json": {"name": "bad", "dim": 2, "basis": ["a", "b"],
                              "ideals": {"x": {"rows": ["01"]}}},
    "rep_row_string.json": {"name": "bad", "dim": 1, "basis": ["a"], "matrix_rep": [["0"]]},
    "rows_string.json": {"rows": ["010"]},
    "rows_string_signed.json": {"rows": ["-12"]},
    "chain_row_string.json": {"ideals": [{"rows": ["001"]}]},
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
    # subspaces in JSON outside their one grammar, or not subspaces of the algebra
    "sub_file_index_list.json": [0, 1],
    "sub_file_index_out_of_range.json": [0, 9],
    "sub_file_int.json": 5,
    "chain_ideals_int.json": {"ideals": 5},
    "chain_no_ideals.json": {"chain": []},
    "chain_bare_rows.json": {"ideals": [[["0", "0", "1"]]]},
    "chain_rows_short.json": {"ideals": [{"rows": [["0", "1"]]}]},
    "ideal_rows_object.json": {"name": "bad", "dim": 3, "basis": ["x", "y", "z"],
                               "ideals": {"c": {"rows": {"a": 1}}}},
    "ideals_list.json": {"name": "bad", "dim": 2, "basis": ["a", "b"], "ideals": [[0]]},
    "complements_null.json": {"name": "bad", "dim": 2, "basis": ["a", "b"],
                              "complements": None},
    # two keys of one bracket that name one index
    "coeff_keys_one_index.json": {"name": "bad", "dim": 3, "basis": ["a", "b", "c"],
                                  "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1", "02": "5"}}]},
    # bytes are written as they are: a file that is not UTF-8
    "not_utf8.json": b"\xff{}",
    "too_deep.json": b"[" * 100000 + b"]" * 100000,
    # an exponent past linalg.MAX_EXPONENT is refused before the number is built
    "coeff_exponent_over_cap.json": {"name": "bad", "dim": 2, "basis": ["a", "b"],
                                     "brackets": [{"i": 0, "j": 1, "coeffs": {"1": "1e5000"}}]},
    # x = [[1, 1], [0, 1]] spans g, but its hyperbolic part, the identity, is not in g
    "rep_unipotent_line.json": {"name": "line", "dim": 1, "basis": ["x"], "brackets": [],
                                "matrix_rep": [[["1", "1"], ["0", "1"]]]},
    # a 0-dimensional algebra whose representation has no matrix to read a size from
    "dim0_rep_empty.json": {"name": "d0", "dim": 0, "basis": [], "brackets": [],
                            "matrix_rep": []},
    # a definition's shape: its required fields, its label count, its tables' types
    "no_dim.json": {"name": "bad", "basis": ["a"], "brackets": []},
    "no_basis.json": {"name": "bad", "dim": 1, "brackets": []},
    "basis_short.json": {"name": "bad", "dim": 2, "basis": ["a"], "brackets": []},
    "rep_int.json": {"name": "bad", "dim": 1, "basis": ["a"], "matrix_rep": [5]},
    "structure_int.json": {"name": "bad", "dim": 1, "basis": ["a"], "structure": 5},
    "bracket_repeated.json": {"name": "bad", "dim": 2, "basis": ["a", "b"],
                              "brackets": [{"i": 0, "j": 1, "coeffs": {"1": "1"}},
                                           {"i": 0, "j": 1, "coeffs": {"1": "1"}}]},
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
    "validate_structure_beside_brackets": ["validate", "structure_and_brackets.json"],
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
    "validate_matrix_rep_ragged": ["validate", "rep_ragged.json"],
    "validate_matrix_rep_empty": ["validate", "rep_empty.json"],
    "orbit_description_not_a_string": ["orbit", "description_int.json", "--point=0"],
    "orbit_covectors_not_an_object": ["orbit", "covectors_list.json", "--point=0,1"],
    "orbit_ideal_rows_not_a_list": ["orbit", "ideal_rows_int.json", "--point=0,1"],
    "orbit_ideal_row_wrong_length": ["orbit", "ideal_row_short.json", "--point=0,0,1"],
    "orbit_complement_row_wrong_length": ["orbit", "complement_row_long.json", "--point=0,1"],
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
    "orbit_point_digits_over_cap": ["orbit", "catalog:heisenberg3",
                                    "--point=" + "1" * 5000 + ",0,1"],
    "validate_coeff_exponent_over_cap": ["validate", "coeff_exponent_over_cap.json"],
    # an outer stage of a `record` chain that is not a subalgebra
    "record_outer_sub_not_a_subalgebra": ["record", "catalog:filiform4", "--sub", "0,1,3",
                                          "--sub", "center", "--point=0,0,0,1"],
    # a `record` chain whose inner stage does not lie in the one before it
    "record_chain_not_nested": ["record", "catalog:heisenberg3", "--sub", "center",
                                "--sub", "plane", "--point=0,0,1"],
    # subspaces in JSON, read by `catalog.parse_subspace`, and the fields that hold them
    "conditions_sub_file_not_a_subalgebra": ["conditions", "catalog:heisenberg3",
                                             "--sub", "@sub_file_index_list.json",
                                             "--point=0,0,1"],
    "conditions_sub_file_index_out_of_range": ["conditions", "catalog:heisenberg3",
                                               "--sub", "@sub_file_index_out_of_range.json",
                                               "--point=0,0,1"],
    "mackey_ideal_file_not_a_subspace": ["mackey", "catalog:heisenberg3",
                                         "--ideal", "@sub_file_int.json", "--point=0,0,1"],
    "polarize_chain_ideals_not_a_list": ["polarize", "catalog:heisenberg3",
                                         "--strategy", "chain:chain_ideals_int.json",
                                         "--point=0,0,1"],
    "polarize_chain_no_ideals": ["polarize", "catalog:heisenberg3",
                                 "--strategy", "chain:chain_no_ideals.json", "--point=0,0,1"],
    "polarize_chain_bare_rows": ["polarize", "catalog:heisenberg3",
                                 "--strategy", "chain:chain_bare_rows.json", "--point=0,0,1"],
    "polarize_chain_row_wrong_length": ["polarize", "catalog:heisenberg3",
                                        "--strategy", "chain:chain_rows_short.json",
                                        "--point=0,0,1"],
    "orbit_ideal_rows_an_object": ["orbit", "ideal_rows_object.json", "--point=0,0,1"],
    "orbit_ideals_not_an_object": ["orbit", "ideals_list.json", "--point=0,1"],
    "orbit_complements_null": ["orbit", "complements_null.json", "--point=0,1"],
    "validate_coeff_keys_name_one_index": ["validate", "coeff_keys_one_index.json"],
    "parabolic_dim0_rep_empty": ["parabolic", "dim0_rep_empty.json", "--element="],
    "parabolic_hyperbolic_part_outside": ["parabolic", "rep_unipotent_line.json",
                                          "--element=1"],
    # the rational grammar of Python 3.11 on every version: no spaces around "/"
    "orbit_point_spaced_slash": ["orbit", "catalog:heisenberg3", "--point=1,2 / 3,0"],
    # an ideal refused once per invocation, after the points are parsed
    "mackey_ideal_not_an_ideal": ["mackey", "catalog:heisenberg3", "--ideal", "0",
                                  "--point=0,0,1"],
    "classify_ideal_not_an_ideal": ["classify", "catalog:heisenberg3", "--ideal", "0",
                                    "--point=0,0,1"],
    "classify_ideal_not_abelian": ["classify", "catalog:sl2", "--ideal", "0,1,2",
                                   "--point=1,0,0"],
    "mackey_bad_point_before_the_ideal": ["mackey", "catalog:heisenberg3", "--ideal", "0",
                                          "--point=1,x,0"],
    "validate_no_dim": ["validate", "no_dim.json"],
    "validate_no_basis": ["validate", "no_basis.json"],
    "validate_basis_short": ["validate", "basis_short.json"],
    "validate_rep_not_a_matrix": ["validate", "rep_int.json"],
    "validate_structure_not_a_list": ["validate", "structure_int.json"],
    "validate_bracket_pair_repeated": ["validate", "bracket_repeated.json"],
    "polarize_strategy_unknown": ["polarize", "catalog:heisenberg3", "--strategy", "foo",
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


def test_no_error_text_is_a_python_message(workdir, capsys):
    for case, argv in BAD_INPUTS.items():
        error = run(argv, capsys)[1]["error"]
        for phrase in ("object is not", "has no attribute", "list indices", "not iterable"):
            assert phrase not in error, (case, error)


def test_malformed_json_is_refused_in_the_package_words(workdir, capsys):
    grammar = "must be an index list or {'rows': ...}"
    no_structure = "'structure' is not a definition field; give the bracket table as 'brackets'"
    want = {
        "conditions_sub_file_not_a_subalgebra": "subspace is not a subalgebra: "
                                                "bracket of basis rows 0,1 escapes",
        "conditions_sub_file_index_out_of_range": "bad subspace file "
                                                  "sub_file_index_out_of_range.json: basis "
                                                  "index 9 out of range for dimension 3",
        "mackey_ideal_file_not_a_subspace": f"bad subspace file sub_file_int.json {grammar}",
        "polarize_chain_ideals_not_a_list": "bad chain file chain_ideals_int.json: "
                                            "'ideals' is missing or not a list",
        "polarize_chain_no_ideals": "bad chain file chain_no_ideals.json: "
                                    "'ideals' is missing or not a list",
        "polarize_chain_bare_rows": f"bad chain file chain_bare_rows.json: ideals[0] {grammar}",
        "polarize_chain_row_wrong_length": "bad chain file chain_rows_short.json: ideals[0]: "
                                           "generator length does not match ambient dimension",
        "orbit_ideal_rows_an_object": f"ideal_rows_object.json: ideal 'c' {grammar}",
        "orbit_ideal_rows_not_a_list": f"ideal_rows_int.json: ideal 'x' {grammar}",
        "orbit_covectors_not_an_object": "covectors_list.json: covectors must be a JSON "
                                         "object, got []",
        "orbit_ideals_not_an_object": "ideals_list.json: ideals must be a JSON object, "
                                      "got [[0]]",
        "orbit_complements_null": "complements_null.json: complements must be a JSON object, "
                                  "got None",
        "validate_coeff_keys_name_one_index": "coeff_keys_one_index.json: bracket pair (0,1): "
                                              "coefficient keys '2' and '02' name one index 2",
        "polarize_chain_zero_denominator": "bad chain file chain_zero_den.json: ideals[0] "
                                           "rows[0]: bad rational literal '1/0': zero "
                                           "denominator in rational literal '1/0'",
        "mackey_ideal_not_an_ideal": "the given subspace is not an ideal",
        "classify_ideal_not_an_ideal": "the given subspace is not an ideal",
        "classify_ideal_not_abelian": "the given ideal is not abelian",
        "mackey_bad_point_before_the_ideal": "bad rational in point: "
                                             "Invalid literal for Fraction: 'x'",
        "validate_no_dim": "no_dim.json: missing field 'dim'",
        "validate_no_basis": "no_basis.json: missing field 'basis'",
        "validate_basis_short": "basis_short.json: basis has 1 labels for dim 2",
        "validate_rep_not_a_matrix": "rep_int.json: matrix_rep must list matrices of rows",
        "validate_structure_1x1": f"bad_structure.json: {no_structure}",
        "validate_structure_beside_brackets": f"structure_and_brackets.json: {no_structure}",
        "validate_structure_not_a_list": f"structure_int.json: {no_structure}",
        "validate_bracket_pair_repeated": "bracket_repeated.json: duplicate bracket pair (0,1)",
        "polarize_strategy_unknown": "strategy must be `auto` or `chain:<file>`",
    }
    for case, error in want.items():
        assert run(BAD_INPUTS[case], capsys) == (2, {
            "algebra": BAD_INPUTS[case][1], "command": BAD_INPUTS[case][0],
            "error": error, "ok": False, "schema": 1})


def test_error_text_keeps_its_context(workdir, capsys):
    _, env = run(BAD_INPUTS["mackey_ideal_index_out_of_range"], capsys)
    assert env["error"] == "bad_ideal.json: ideal 'x': basis index 9 out of range for dimension 2"
    _, env = run(BAD_INPUTS["orbit_ideal_row_wrong_length"], capsys)
    assert env["error"] == ("ideal_row_short.json: ideal 'x': "
                            "generator length does not match ambient dimension")
    _, env = run(BAD_INPUTS["orbit_complement_row_wrong_length"], capsys)
    assert env["error"] == ("complement_row_long.json: complement 's': "
                            "generator length does not match ambient dimension")
    _, env = run(BAD_INPUTS["polarize_chain_index"], capsys)
    assert env["error"] == ("bad chain file chain_index.json: ideals[0]: "
                            "basis index 9 out of range for dimension 3")
    _, env = run(BAD_INPUTS["orbit_point_zero_denominator"], capsys)
    assert env["error"] == "bad rational in point: zero denominator in rational literal '1/0'"
    _, env = run(BAD_INPUTS["validate_top_level_list"], capsys)
    assert env["error"] == "top_list.json: a definition must be a JSON object"
    _, env = run(BAD_INPUTS["orbit_basis_string"], capsys)
    assert env["error"] == "basis_string.json: basis must be a list of strings, got 'ab'"
    _, env = run(BAD_INPUTS["orbit_dim_bool"], capsys)
    assert env["error"] == "dim_bool.json: dim must be a non-negative integer, got True"
    _, env = run(BAD_INPUTS["orbit_name_int"], capsys)
    assert env["error"] == "name_int.json: name must be a string, got 5"
    _, env = run(BAD_INPUTS["validate_matrix_rep_ragged"], capsys)
    assert env["error"] == "rep_ragged.json: matrix_rep[0]: ragged matrix"
    _, env = run(BAD_INPUTS["validate_matrix_rep_empty"], capsys)
    assert env["error"] == "rep_empty.json: matrix_rep[1]: a matrix with no rows needs its width"
    _, env = run(BAD_INPUTS["orbit_description_not_a_string"], capsys)
    assert env["error"] == "description_int.json: description must be a string, got 5"
    _, env = run(BAD_INPUTS["record_outer_sub_not_a_subalgebra"], capsys)
    assert env["error"] == "subspace is not a subalgebra: bracket of basis rows 0,1 escapes"
    assert run(["record", "catalog:filiform4", "--sub", "0,1,3", "--point=0,0,0,1"],
               capsys)[1]["error"] == env["error"]
    _, env = run(BAD_INPUTS["record_chain_not_nested"], capsys)
    assert env["error"] == "subalgebra not contained in ambient"
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
    assert env["error"] == ("bad rational in element: "
                            "zero denominator in rational literal '1/0'")
    _, env = run(BAD_INPUTS["parabolic_hyperbolic_part_outside"], capsys)
    assert env["error"] == ("x_h, the hyperbolic part of x, does not lie in the algebra: "
                            "the algebra is not closed under the Jordan decomposition")
    _, env = run(BAD_INPUTS["orbit_point_spaced_slash"], capsys)
    assert env["error"] == "bad rational in point: Invalid literal for Fraction: '2 / 3'"


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
        "conditions_rows_string": "bad subspace file rows_string.json rows[0] must be a list "
                                  "of rationals, got '010'",
        "conditions_rows_string_signed": "bad subspace file rows_string_signed.json rows[0] "
                                         "must be a list of rationals, got '-12'",
        "polarize_chain_row_string": "bad chain file chain_row_string.json: ideals[0] rows[0] "
                                     "must be a list of rationals, got '001'",
        "polarize_chain_ideal_string": "bad chain file chain_ideal_string.json: ideals[0] "
                                       "must be an index list or {'rows': ...}",
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
        "polarize_chain_index_bool": "bad chain file chain_index_bool.json: ideals[0] must "
                                     "be an index list or {'rows': ...}",
        "validate_coeff_key_letter": "coeff_key_letter.json: bracket pair (0,1): "
                                     "coefficient key 'x' is not a basis index",
        "validate_coeff_key_space": "coeff_key_space.json: bracket pair (0,1): "
                                    "coefficient key ' 1' is not a basis index",
        "validate_coeff_value_letter": "coeff_value_letter.json: bracket pair (0,1): bad "
                                       "rational literal 'y': Invalid literal for Fraction: 'y'",
        "validate_coeff_value_bool": "coeff_value_bool.json: bracket pair (0,1): "
                                     "true is not a rational",
        "orbit_covector_bool": "covector_bool.json: covector 'c': true is not a rational",
        "conditions_rows_bool": "bad subspace file rows_bool.json rows[0]: "
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
        "orbit_point_digits_over_cap": "bad rational in point: more than 4300 digits in a "
                                       "row in a rational literal",
        # 10**4300 has one digit more than Python prints
        "orbit_point_too_long_to_print": "bad rational in point: more than 4300 digits in the "
                                         "numerator or denominator of a rational literal",
        "validate_coeff_exponent_over_cap": "coeff_exponent_over_cap.json: bracket pair (0,1): "
                                            f"bad rational literal '1e5000': {over_cap}",
    }
    for case, error in want.items():
        assert run(BAD_INPUTS[case], capsys) == (2, {
            "algebra": BAD_INPUTS[case][1], "command": BAD_INPUTS[case][0],
            "error": error, "ok": False, "schema": 1})


def test_a_label_of_non_ascii_digits_loads_and_resolves(tmp_path, monkeypatch, capsys):
    doc = {"name": "sup", "dim": 3, "basis": ["x", "\u00b2", "z"],
           "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1"}}]}
    (tmp_path / "sup.json").write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    entry = cat.load_entry_file("sup.json")
    assert cat.subspace_argument(entry, "\u00b2") == Subspace(3, [basis_vector(3, 1)])
    code, env = run(["conditions", "sup.json", "--sub", "\u00b2,z", "--point=0,0,1"], capsys)
    assert code == 0 and env["ok"] is True


def test_a_chain_ideal_outside_its_window_gives_the_error_envelope(tmp_path, monkeypatch,
                                                                  capsys):
    alg, cov = n5_three_steps()
    doc = {"name": "n5", "dim": alg.dim, "basis": list(alg.labels), "brackets": [
        {"i": i, "j": j, "coeffs": {str(k): str(c) for k, c in alg.nonzeros[i][j]}}
        for i in range(alg.dim) for j in range(i + 1, alg.dim) if alg.nonzeros[i][j]]}
    first = pukanszky_polarization(alg, cov)["trace"]["steps"][0]["ideal"]
    chain = {"ideals": [{"rows": [[str(x) for x in row] for row in first.rows]},
                        list(range(alg.dim))]}
    (tmp_path / "n5.json").write_text(json.dumps(doc), encoding="utf-8")
    (tmp_path / "chain.json").write_text(json.dumps(chain), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    point = "--point=" + ",".join(map(str, cov.coords))
    assert run(["polarize", "n5.json", "--strategy", "chain:chain.json", point], capsys) == (2, {
        "algebra": "n5.json", "command": "polarize", "ok": False, "schema": 1,
        "error": "chain ideal at step 1 is not inside g_1"})


def index_and_rows_forms(alg, rng, indices):
    """The index list and a {"rows": ...} spec of span(e_i : i in indices), the rows
    those basis vectors after a random unitriangular change of basis, shuffled."""
    k = len(indices)
    coeffs = [[1 if a == b else (rng.randint(-3, 3) if b > a else 0) for b in range(k)]
              for a in range(k)]
    rows = [[0] * alg.dim for _ in range(k)]
    for a in range(k):
        for b, i in enumerate(indices):
            rows[a][i] = coeffs[a][b]
    rng.shuffle(rows)
    return list(indices), {"rows": [[str(x) for x in row] for row in rows]}


def subspace_cases():
    """(entry, index list) for each declared ideal of heisenberg3 and filiform4, and for
    seeded coordinate subspaces of the seeded h9 and L9."""
    cases = []
    for name in ("heisenberg3", "filiform4"):
        doc = json.loads((Path(cat.BUILTIN_DIR) / f"{name}.json").read_text(encoding="utf-8"))
        cases += [(cat.load_entry(f"catalog:{name}"), spec) for spec in doc["ideals"].values()]
    h9, _, l9, _, _ = seeded_family_entries(0)
    for seed, entry in enumerate([h9, l9] * 4):
        rng = random.Random(seed)
        cases.append((entry, sorted(rng.sample(range(entry.algebra.dim),
                                               rng.randint(1, entry.algebra.dim)))))
    return cases


def test_the_index_and_rows_forms_read_as_one_subspace_everywhere(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for seed, (entry, indices) in enumerate(subspace_cases()):
        alg = entry.algebra
        want = Subspace(alg.dim, [basis_vector(alg.dim, i) for i in indices])
        by_index, by_rows = index_and_rows_forms(alg, random.Random(seed), indices)
        doc = {"name": "g", "dim": alg.dim, "basis": list(alg.labels),
               "brackets": [{"i": i, "j": j, "coeffs": {str(k): str(c) for k, c in nz}}
                            for i in range(alg.dim) for j in range(i + 1, alg.dim)
                            if (nz := alg.nonzeros[i][j])],
               "ideals": {"by_index": by_index, "by_rows": by_rows}}
        declared = cat.parse_entry(doc)
        assert declared.ideals == {"by_index": want, "by_rows": want}
        for fname, spec in (("index.json", by_index), ("rows.json", by_rows)):
            (tmp_path / fname).write_text(json.dumps(spec), encoding="utf-8")
            assert cat.subspace_argument(entry, f"@{fname}") == want
        chain = parse_chain(alg, {"ideals": [by_index, by_rows]}, "chain")
        assert chain == [want, want]


def test_a_chain_ideal_that_is_no_ideal_is_rejected(tmp_path, monkeypatch, capsys):
    """span(x) is no ideal of heisenberg3, as [y, x] = -z leaves it: the user chain's
    one candidate is rejected, and the strategy is exhausted."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "chain.json").write_text(json.dumps({"ideals": [[0]]}), encoding="utf-8")
    code, env = run(["polarize", "catalog:heisenberg3", "--strategy", "chain:chain.json",
                     "--point=0,0,1"], capsys)
    assert code == 1 and env["ok"] is False
    [result] = env["results"]
    assert result["error"] == "strategy exhausted"
    assert result["rejected_candidates"] == [
        {"candidate": "user chain ideal", "reason": "not an ideal", "step": 0}]


def test_a_chain_file_in_either_form_gives_one_report(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    chains = {"index.json": {"ideals": [[0, 2]]},
              "rows.json": {"ideals": [{"rows": [["2", "0", "1"], ["1", "0", "-1"]]}]}}
    reports = []
    for fname, chain in chains.items():
        (tmp_path / fname).write_text(json.dumps(chain), encoding="utf-8")
        code, out, _ = invoke(["polarize", H3, "--strategy", f"chain:{fname}", "-p", "0,0,1"],
                              capsys)
        reports.append((code, out))
    assert reports[0] == reports[1] and reports[0][0] == 0


def test_a_definition_is_at_most_max_dim(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for dim in (cat.MAX_DIM, cat.MAX_DIM + 1):
        doc = {"name": "abelian", "dim": dim, "basis": [f"e{k}" for k in range(dim)],
               "brackets": []}
        (tmp_path / f"a{dim}.json").write_text(json.dumps(doc), encoding="utf-8")
    assert cat.MAX_DIM == 128
    assert run(["validate", "a128.json"], capsys)[0] == 0
    assert run(["validate", "a129.json"], capsys) == (2, {
        "algebra": "a129.json", "command": "validate", "ok": False, "schema": 1,
        "error": "a129.json: dim 129 is above the limit 128"})


def test_an_empty_point_is_the_one_point_of_a_0_dimensional_algebra(workdir, capsys):
    for command in ("orbit", "polarize"):
        code, env = run([command, "dim0_rep_empty.json", "--point="], capsys)
        assert code == 0 and env["ok"] is True
        assert [r["point"] for r in env["results"]] == [[]]
    refused = {"algebra": "dim0_rep_empty.json", "command": "parabolic", "ok": False,
               "schema": 1, "error": "algebra carries no matrix representation"}
    for given in ("--element=", "--point="):
        assert run(["parabolic", "dim0_rep_empty.json", given], capsys) == (2, refused)
    # a text that is not empty, or an empty one at dimension 3, is still counted
    assert run(["orbit", "dim0_rep_empty.json", "--point=0"], capsys)[1]["error"] \
        == "point needs 0 coordinates, got 1"
    assert run(["orbit", "catalog:heisenberg3", "--point="], capsys)[1]["error"] \
        == "point needs 3 coordinates, got 1"


# -- catalog entries are read by name ------------------------------------------

@pytest.fixture
def opened(monkeypatch):
    """The paths the catalog opens, read past its cache of built-in files."""
    paths = []

    def spy(path, *args, **kwargs):
        paths.append(os.path.abspath(path))
        return open(path, *args, **kwargs)

    cat._builtin_entry.cache_clear()
    monkeypatch.setattr(cat, "open", spy, raising=False)   # shadows the builtin in catalog
    yield paths
    cat._builtin_entry.cache_clear()


def test_a_named_entry_reads_its_file_and_no_other(opened, capsys):
    code, env = run(HAPPY["orbit"], capsys)
    assert code == 0 and env["results"][0]["orbit"]["orbit_dim"] == 2
    assert opened == [os.path.join(cat.BUILTIN_DIR, "heisenberg3.json")]


def test_a_name_is_not_joined_into_a_path(opened, tmp_path, monkeypatch, capsys):
    # a definition file that `../heisenberg3`, joined to the working directory, would reach
    (tmp_path / "sub").mkdir()
    (tmp_path / "heisenberg3.json").write_text(
        (Path(cat.BUILTIN_DIR) / "heisenberg3.json").read_text(encoding="utf-8"),
        encoding="utf-8")
    monkeypatch.chdir(tmp_path / "sub")
    for name in ("../heisenberg3", "../algebras/heisenberg3", str(tmp_path / "heisenberg3")):
        code, env = run(["validate", f"catalog:{name}"], capsys)
        assert (code, env["error"]) == (
            2, f"unknown catalog entry {name!r}; try the `catalog` subcommand")
    assert opened == []


def test_the_environment_does_not_change_a_report(tmp_path, monkeypatch, capsys):
    """`catalog:NAME` names the shipped file whatever the environment holds: a
    directory with an abelian `heisenberg3` and a file that is not JSON, named
    by the variable that once overlaid the catalog, changes no byte."""
    abelian = {"name": "heisenberg3", "dim": 3, "basis": ["a", "b", "c"], "brackets": []}
    (tmp_path / "heisenberg3.json").write_text(json.dumps(abelian), encoding="utf-8")
    (tmp_path / "broken.json").write_text("{", encoding="utf-8")
    argvs = (["catalog"], HAPPY["orbit"])

    def outputs():
        return [(cli.main(argv), capsys.readouterr().out) for argv in argvs]

    want = outputs()
    assert [code for code, _ in want] == [0, 0]
    monkeypatch.setenv("ORBITKIT_CATALOG_DIR", str(tmp_path))
    assert outputs() == want


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


def test_parabolic_lists_every_element_before_every_point(capsys):
    point_first = run(["parabolic", "catalog:sl2", "--point=1,0,0", "--element=0,1,0"], capsys)
    element_first = run(["parabolic", "catalog:sl2", "--element=0,1,0", "--point=1,0,0"], capsys)
    assert [r["input"] for r in point_first[1]["results"]] == [["0", "1", "0"], ["1", "0", "0"]]
    assert point_first == element_first


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


@pytest.mark.parametrize("payload, code", [
    ({"results": [{"ok": True}, {"ok": False}, {}]}, 1),
    ({"results": [{}]}, 0),
    ({"entries": []}, 0),
], ids=["one_failed", "no_ok_key", "no_results"])
def test_a_report_is_ok_when_each_of_its_results_is(payload, code, monkeypatch, capsys):
    # a result without "ok" (an orbit) counts as ok, and so does a report without results
    monkeypatch.setitem(cli._COMMANDS, "catalog", cli._Command(
        "list", lambda args: payload, (cli._OUTPUT,), algebra=False, point=False))
    assert run(["catalog"], capsys) == (code, {
        "command": "catalog", "schema": 1, "ok": code == 0, **payload})


@pytest.mark.parametrize("value", [{F(1)}, object()], ids=["set", "object"])
def test_the_encoder_refuses_unknown_types(value, monkeypatch, capsys):
    # a report holding an unexpected object must fail loudly, not print its repr
    monkeypatch.setitem(cli._COMMANDS, "catalog", cli._Command(
        "list", lambda args: {"entries": [value]}, (), algebra=False, point=False))
    with pytest.raises(TypeError, match="no JSON form"):
        cli.main(["catalog"])
    assert capsys.readouterr().out == ""


def test_a_report_number_too_long_to_print_gives_the_error_envelope(monkeypatch, capsys):
    # every literal is refused past 4300 digits, but products of accepted ones can grow past it
    limit = sys.get_int_max_str_digits()
    monkeypatch.setitem(cli._COMMANDS, "catalog", cli._Command(
        "list", lambda args: {"entries": [F(10 ** limit, 3)]}, (cli._OUTPUT,),
        algebra=False, point=False))
    assert run(["catalog"], capsys) == (2, {
        "command": "catalog", "ok": False, "schema": 1,
        "error": f"a number in the report has more than {limit} digits, too long to print"})
    assert cat.encode(F(10 ** limit - 1, 2)) == "9" * limit + "/2"


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
