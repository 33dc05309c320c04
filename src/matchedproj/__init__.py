"""Matched projections of idempotent matrices.

Constructions, identities, and norm bounds relating an idempotent Q to the
projection m(Q) that is similar and homotopic to it and closest to it among
quasi-projection-pair partners.  Everything is finite-dimensional, dense,
and machine-verified at configurable tolerances.
"""

from .errors import MatchedProjectionError, ValidationError
from .idempotents import (
    BlockForm,
    Idempotent,
    Projection,
    adjoint_of,
    as_idempotent,
    as_projection,
    block_form,
    complement_of,
    is_projection,
    koliha_projections,
    null_projection,
    random_idempotent,
    random_projection,
    random_unitary,
    range_projection,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    abs_value,
    adjoint,
    as_matrix,
    hermitian_eigen,
    identity,
    moore_penrose,
    norm_at_most,
    norm_bounds,
    norm_bracket,
    numerical_rank,
    operator_norm,
    psd_order,
    psd_power,
)
from .matched import (
    FactorOracle,
    MatchedPair,
    SimilarityWitness,
    abs_q_star_pinv,
    factor_oracle,
    fractional_power_limit,
    homotopy_path,
    homotopy_witness,
    homotopy_witness_block,
    is_quasi_projection_pair,
    matched_distance,
    matched_projection,
    matched_projection_closed_form,
    matched_projection_svd,
    matched_via_factor,
    null_distance,
    qpp_checks,
    qpp_symmetry_closure,
    random_qpp_pair,
    range_distance,
    range_identities,
    unitary_equivariance,
)
from .norms import (
    convergence_report,
    distance_report,
    kkm_distance,
    matched_lipschitz_bounds,
    offdiag_distance,
    qpp_minimality,
    two_projection_construction,
)
from .report import Check, all_passed, failures
from .two_by_two import (
    GridMinimum,
    TwoByTwoProblem,
    canonical_idempotent,
    closed_form_p0,
    distance_objective,
    grid_minimize,
    halmos_projection,
)

__version__ = "0.1.0"
