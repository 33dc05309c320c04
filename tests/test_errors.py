"""The two kinds of error: a bad argument raises ValueError, a failed certificate ValidationError."""

import numpy as np
import pytest

from matchedproj import (
    MatchedProjectionError,
    Tolerances,
    ValidationError,
    as_idempotent,
    battery,
    canonical_idempotent,
    closed_form_p0,
    grid_minimize,
    koliha_projections,
    random_idempotent,
    random_projection,
    unitary_equivariance,
)
from matchedproj.battery import run_battery
from matchedproj.linalg import require_hermitian
from matchedproj.matrixio import load_matrix


def load_text(tmp_path, text):
    """``load_matrix`` of a file holding ``text``."""
    path = tmp_path / "q.json"
    path.write_text(text, encoding="utf-8")
    return load_matrix(path)


# each case: (call of the scratch directory, the error it raises, the message it raises with)
CASES = {
    # an argument that fails a check needing no gate
    "rank-above-dim": (lambda tmp: random_idempotent(4, 5, 1.0, 0), ValueError, r"^rank 5 outside \[0, 4\]$"),
    "projection-rank-negative": (lambda tmp: random_projection(4, -1, 0), ValueError, r"^rank -1 outside \[0, 4\]$"),
    "canonical-zero": (lambda tmp: canonical_idempotent(0), ValueError, "^parameter a must be nonzero$"),
    "closed-form-zero": (lambda tmp: closed_form_p0(0), ValueError, "^parameter a must be nonzero$"),
    "grid-zero": (lambda tmp: grid_minimize(0, 64), ValueError, "^parameter a must be nonzero$"),
    "file-short-row": (
        lambda tmp: load_text(tmp, '{"dim": [2, 2], "entries": [[[1, 0]], [[0, 0], [0, 0]]]}'),
        ValueError, "^row 0 must hold 2 entries$",
    ),
    "file-nan-entry": (
        lambda tmp: load_text(tmp, '{"dim": [1, 1], "entries": [[[NaN, 0]]]}'),
        ValueError, "^matrix entries must be finite$",
    ),
    "file-not-json": (lambda tmp: load_text(tmp, "not json"), ValueError, r"q\.json is not valid JSON: "),
    # a computed norm that fails its gate
    "unitarity": (
        lambda tmp: unitary_equivariance(canonical_idempotent(1.0), 2.0 * np.eye(2)),
        ValidationError, r"^unitarity defect 3\.000e\+00 exceeds 1\.000e-10$",
    ),
    "asymmetry": (
        lambda tmp: require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]])),
        ValidationError, r"^asymmetry 1\.000e\+00 exceeds 2\.000e-10$",
    ),
    "singular-pencil": (
        lambda tmp: koliha_projections(as_idempotent(0.5 * np.eye(2), Tolerances(check=1.0))),
        ValidationError, r"^Q \+ Q\* - I is numerically singular$",
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_each_error_is_of_its_kind(case, tmp_path):
    # a bad argument is a ValueError and no library error; a failed gate is a ValidationError
    call, error, message = CASES[case]
    with pytest.raises(error, match=message) as info:
        call(tmp_path)
    assert isinstance(info.value, MatchedProjectionError) == (error is ValidationError)


def test_a_bad_argument_in_a_trial_is_raised_not_tallied(monkeypatch):
    # the battery tallies a failed certificate as a failed trial; a bad
    # argument is no failed identity, so it leaves run_battery
    def rank_out_of_range(rng, dim, q, tol):
        random_projection(dim, dim + 1, 0)
        yield

    monkeypatch.setattr(battery, "_projection_structure", rank_out_of_range)
    with pytest.raises(ValueError, match=r"^rank \d+ outside \[0, \d+\]$"):
        run_battery(4, 2, 7)
