"""orbitkit: exact-rational coadjoint orbit analysis for Lie algebras.

Subspace conditions, the infinitesimal normal-subgroup machine, Pukanszky
polarizations and parabolic data, all over arbitrary-precision rationals.
"""

from .linalg import (
    Matrix,
    Scalar,
    Subspace,
    annihilator,
    frac,
    rank_kernel,
    solve,
    sum_intersect,
    symmetric_signature,
)
from .liealg import (
    Covector,
    LieAlgebra,
    NotClosedError,
    OrbitRecord,
    ad_matrix,
    ideal_closure,
    is_ideal,
    kks_pairing,
    orbit_annihilator,
    orbit_record,
    orth,
    quotient,
    restrict,
    stabilizer,
    structure_probe,
    subalgebra,
    validate,
)
from .conditions import ConditionReport, check_conditions
from .mackey import (
    LittleGroupData,
    MackeyReport,
    ObstructionReport,
    abelian_step,
    classify_little_algebra,
    exp_coadjoint,
    little_group_step,
    mackey_report,
    obstruction_step,
    semidirect_witness,
    verify_step_relations,
)
from .polarization import (
    PolarizationTrace,
    StrategyExhausted,
    exponential_precheck,
    pukanszky_polarization,
    verify_monomial,
)
from .reductive import (
    JordanTriple,
    MatrixLieAlgebra,
    ParabolicReport,
    UnsupportedSpectrumError,
    covector_to_element,
    element_to_covector,
    grade,
    hyperbolic_elliptic_split,
    jordan_chevalley,
    jordan_triple,
    matrix_lie_algebra,
    parabolic_report,
)
from .induction import (
    InducedRecord,
    frobenius_check,
    induced_dim,
    point_fiber,
    stages_flatten,
)
from .catalog import CatalogEntry, builtin_catalog, load_catalog

__version__ = "0.1.0"
