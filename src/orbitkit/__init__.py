"""orbitkit: exact-rational coadjoint orbit analysis for Lie algebras.

Subspace conditions, the infinitesimal normal-subgroup machine, Pukanszky
polarizations and parabolic data, all over arbitrary-precision rationals.

Importing the package loads none of its modules: each public name below is
imported from its module on first access (PEP 562), so a caller pays only
for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    name: module
    for module, names in {
        "linalg": "Matrix Scalar Subspace annihilator frac rank_kernel solve sum_intersect",
        "liealg": "Covector LieAlgebra OrbitRecord is_nilpotent kks_pairing orbit_record validate",
        "structure": "NotClosedError ad_matrix derived_series exp_coadjoint ideal_closure is_ideal "
                     "is_solvable killing_form orbit_annihilator orbit_dim orth restrict "
                     "stabilizer subquotient",
        "conditions": "ConditionReport check_conditions",
        "mackey": "LittleGroupData MackeyReport ObstructionReport abelian_step "
                  "classify_little_algebra little_group_step mackey_report obstruction_step "
                  "semidirect_witness verify_step_relations",
        "polarization": "PolarizationTrace StrategyExhausted exponential_precheck "
                        "pukanszky_polarization",
        "reductive": "MatrixLieAlgebra ParabolicReport UnsupportedSpectrumError "
                     "covector_to_element element_to_covector grade hyperbolic_part "
                     "matrix_lie_algebra parabolic_report",
        "polynomials": "symmetric_signature",
        "induction": "InducedRecord frobenius_check induced_dim point_fiber stages_flatten",
        "catalog": "CatalogEntry builtin_catalog load_catalog",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
