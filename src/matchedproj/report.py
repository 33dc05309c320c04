"""Named residual checks shared by the analysis modules and the CLI."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import norm_bracket


@dataclass(frozen=True)
class Check:
    """One verified identity: its residual, the gate it was held to, pass/fail.

    ``lower`` is None when ``residual`` is exact.  A bracketed check
    (``bracket_check``) holds a ``norm_bracket`` instead: ``lower`` and
    ``residual`` are its two ends, and the residual itself lies between them.
    Either way the check passes when ``residual <= tolerance``.
    """

    name: str
    residual: float
    tolerance: float
    lower: float | None = None

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def as_dict(self) -> dict:
        if self.lower is None:
            value = {"residual": float(self.residual)}
        else:
            value = {"residual_bracket": [float(self.lower), float(self.residual)]}
        return {
            "name": self.name,
            **value,
            "tolerance": float(self.tolerance),
            "passed": bool(self.passed),
        }

    def describe(self) -> str:
        """The residual as far as it is known: ``residual X``, or ``residual >= X`` for a bracket."""
        if self.lower is None:
            return f"residual {self.residual:.3e}"
        return f"residual >= {self.lower:.3e}"


def bracket_check(name: str, bracket: tuple[float, float], tolerance: float) -> Check:
    """A check on a residual known as ``bracket = (lower, upper)``, from ``norm_bracket`` at ``tolerance``."""
    lower, upper = bracket
    return Check(name=name, residual=upper, tolerance=tolerance, lower=lower)


def norm_check(name: str, m: np.ndarray, tolerance: float) -> Check:
    """``||m|| <= tolerance`` as a bracketed check, with the exact norm taken only near the gate.

    A (k, n, n) stack checks every one of its norms: its slices' brackets
    fold to (max lower, max upper), within the gate exactly when each is.
    """
    lower, upper = norm_bracket(m, tolerance)
    if m.ndim == 3:
        lower, upper = float(lower.max()), float(upper.max())
    return bracket_check(name, (lower, upper), tolerance)


def boolean_check(name: str, ok: bool) -> Check:
    """Encode a yes/no condition as a residual (0 pass, 1 fail) held to the gate 0.5."""
    return Check(name=name, residual=0.0 if ok else 1.0, tolerance=0.5)


def all_passed(checks: list[Check]) -> bool:
    return all(c.passed for c in checks)


def failures(checks: list[Check]) -> list[Check]:
    return [c for c in checks if not c.passed]
