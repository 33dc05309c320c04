"""Matched projections of idempotent matrices.

Constructions, identities, and norm bounds relating an idempotent Q to the
projection m(Q) that is similar and homotopic to it and closest to it among
quasi-projection-pair partners.  Everything is finite-dimensional, dense,
and machine-verified at configurable tolerances.
"""

from .errors import (
    BadRankError,
    FunctionDomainError,
    InapplicableHypothesisError,
    MatchedProjectionError,
    MatrixFileError,
    NotHermitianError,
    NotQuasiProjectionPairError,
    NotUnitaryError,
    SingularPencilError,
    ValidationError,
    ZeroParameterError,
)
from .idempotents import (
    BlockForm,
    Idempotent,
    Projection,
    as_idempotent,
    as_projection,
    block_form,
    null_projection,
    random_idempotent,
    random_projection,
    random_unitary,
    range_projection,
)
from .linalg import (
    DEFAULT_TOL,
    HermitianEigen,
    Tolerances,
    abs_value,
    adjoint,
    as_matrix,
    hermitian_eigen,
    identity,
    matrix_function,
    moore_penrose,
    operator_norm,
    psd_order,
    psd_power,
)
from .matched import (
    MatchedPair,
    QppVerdict,
    SimilarityWitness,
    fractional_power_limit,
    homotopy_path,
    homotopy_witness,
    is_quasi_projection_pair,
    matched_projection,
    matched_projection_closed_form,
    matched_via_factor,
    mp_inverse_abs_qstar,
    qpp_symmetry_closure,
    random_qpp_pair,
    range_identities,
    unitary_equivariance,
)
from .norms import (
    ConvergenceReport,
    DistanceReport,
    LipschitzBounds,
    MinimalityReport,
    closed_form_distance,
    convergence_report,
    distance_report,
    kkm_distance,
    matched_lipschitz_bounds,
    qpp_minimality,
    two_projection_construction,
)
from .report import Check, all_passed, failures
from .two_by_two import (
    GridMinimum,
    HalmosPoint,
    TwoByTwoProblem,
    canonical_idempotent,
    closed_form_p0,
    distance_objective,
    grid_minimize,
    halmos_projection,
)

__version__ = "0.1.0"
