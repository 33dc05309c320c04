"""Output oracle, independent of the package's own routes and gates.

m(Q) comes from one SVD Q = U S V*: idempotency makes the columns u_i + v_i
for s_i > 0 mutually orthogonal, and

    m(Q) = sum_{s_i > 0} s_i / (2 (s_i + 1)) (u_i + v_i)(u_i + v_i)*.

The singular values of an idempotent are 0 or at least 1, so the cut at 1/2
separates them without a rank tolerance.

The battery has no second implementation to compare with; its oracle is the
set of checks it must report.  ``verify_expected.json`` lists, for the seed
battery, the checks recorded once per call (``static``), the checks recorded
a fixed number of times per trial (``per_trial``), and the conditional ones
with their per-trial maximum (``optional_per_trial``).  A report that lacks a
listed check, or records one a different number of times, has dropped work.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

EPS = float(np.finfo(np.float64).eps)
# Backward-stable factorizations leave a backward error of about n eps ||Q||
# in Q, and m is Lipschitz in Q with a constant of order 1 + ||Q||, so the
# forward error of any stable route is O(n eps (1 + ||Q||)^2).  Measured over
# n <= 256 and ||A|| in [1e-10, 1e6] the seed stays below 1.4 times that.
SAFETY = 16.0

EXPECTED_BATTERY = json.loads((Path(__file__).with_name("verify_expected.json")).read_text())


def operator_norm(m: np.ndarray) -> float:
    return float(np.linalg.svd(m, compute_uv=False)[0]) if m.size else 0.0


def matched_projection(q: np.ndarray) -> np.ndarray:
    """m(Q) from one SVD of Q."""
    u, s, vh = np.linalg.svd(q)
    keep = s > 0.5
    w = u[:, keep] + vh[keep].conj().T
    return (w * (s[keep] / (2.0 * (s[keep] + 1.0)))) @ w.conj().T


def tolerance(q: np.ndarray) -> float:
    return SAFETY * q.shape[0] * EPS * (1.0 + operator_norm(q)) ** 2


def within(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    return a.shape == b.shape and operator_norm(a - b) <= tol


def battery_mismatches(records: dict[str, int], trials: int) -> list[str]:
    """Why a battery report does not hold the expected checks ([] if it does).

    ``records`` maps each tally name to its pass + fail count.  Names the seed
    battery never produced are allowed: they add checks, they do not drop any.
    """
    problems = []
    expected = dict(EXPECTED_BATTERY["static"])
    for name, per_trial in EXPECTED_BATTERY["per_trial"].items():
        expected[name] = per_trial * trials
    for name, count in expected.items():
        if records.get(name, 0) != count:
            problems.append(f"{name}: {records.get(name, 0)} records, expected {count}")
    for name, most in EXPECTED_BATTERY["optional_per_trial"].items():
        if records.get(name, 0) > most * trials:
            problems.append(f"{name}: {records[name]} records, at most {most * trials}")
    return problems
