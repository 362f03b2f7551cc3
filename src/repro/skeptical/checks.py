"""Invariant checks for skeptical programming.

Each check is a plain function returning a :class:`CheckResult`.  The
estimated ``cost_flops`` lets the experiments report the overhead of
skepticism relative to the computation being protected, backing the
paper's claim that "the cost can be very low".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.utils.validation import check_non_negative, check_positive

__all__ = [
    "CheckResult",
    "finite_check",
    "orthogonality_check",
    "hessenberg_bound_check",
    "residual_consistency_check",
    "conservation_check",
    "monotonicity_check",
    "spd_coefficient_check",
]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one invariant check.

    Attributes
    ----------
    name:
        The check that produced the result.
    passed:
        ``True`` when the invariant holds to within its tolerance.
    measure:
        The scalar the check computed (e.g. the orthogonality defect);
        useful for tables and for calibrating thresholds.
    threshold:
        The tolerance against which ``measure`` was compared.
    cost_flops:
        Estimated floating-point cost of evaluating the check.
    details:
        Optional extra fields (offending index, etc.).
    """

    name: str
    passed: bool
    measure: float
    threshold: float
    cost_flops: float = 0.0
    details: Dict = field(default_factory=dict)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.passed


def finite_check(array: np.ndarray, name: str = "finite") -> CheckResult:
    """All entries are finite (no NaN/inf).

    The cheapest skeptical check there is, and the one that catches
    exponent-bit flips almost immediately.
    """
    arr = np.asarray(array)
    n_bad = int(np.size(arr) - np.count_nonzero(np.isfinite(arr)))
    return CheckResult(
        name=name,
        passed=n_bad == 0,
        measure=float(n_bad),
        threshold=0.0,
        cost_flops=float(arr.size),
    )


def orthogonality_check(
    basis: np.ndarray,
    n_vectors: Optional[int] = None,
    *,
    tol: float = 1e-8,
    name: str = "orthogonality",
) -> CheckResult:
    """Orthonormality defect ``max |V^T V - I|`` of a Krylov basis.

    The full check costs ``O(n k^2)`` flops; GMRES implicitly assumes
    the property, so checking it occasionally detects corruption of the
    basis that would otherwise silently degrade the computed solution.
    """
    check_positive(tol, "tol")
    basis = np.asarray(basis, dtype=np.float64)
    if basis.ndim != 2:
        raise ValueError("basis must be a 2-D array with basis vectors as columns")
    k = basis.shape[1] if n_vectors is None else int(n_vectors)
    k = min(k, basis.shape[1])
    if k == 0:
        return CheckResult(name=name, passed=True, measure=0.0, threshold=tol)
    v = basis[:, :k]
    # A corrupted basis may overflow the Gram matrix; a non-finite Gram
    # is itself the detection.
    with np.errstate(over="ignore", invalid="ignore"):
        gram = v.T @ v
    defect = float(np.max(np.abs(gram - np.eye(k)))) if np.all(np.isfinite(gram)) else float("inf")
    return CheckResult(
        name=name,
        passed=bool(np.isfinite(defect) and defect <= tol),
        measure=defect,
        threshold=tol,
        cost_flops=2.0 * basis.shape[0] * k * k,
    )


def hessenberg_bound_check(
    hessenberg: np.ndarray,
    operator_norm_estimate: float,
    n_columns: Optional[int] = None,
    *,
    safety: float = 2.0,
    name: str = "hessenberg_bound",
) -> CheckResult:
    """Hessenberg entries must be bounded by the operator norm.

    In exact arithmetic every entry of the Arnoldi Hessenberg matrix
    satisfies ``|h_ij| <= ||A||_2``; Elliott & Hoemmen use (a refinement
    of) this bound to flag bit flips in the Arnoldi process at O(1)
    cost per iteration.  ``safety`` loosens the bound to allow for the
    looseness of the norm estimate.
    """
    check_positive(operator_norm_estimate, "operator_norm_estimate")
    check_positive(safety, "safety")
    h = np.asarray(hessenberg, dtype=np.float64)
    k = h.shape[1] if n_columns is None else int(n_columns)
    k = min(k, h.shape[1])
    if k == 0:
        return CheckResult(name=name, passed=True, measure=0.0,
                           threshold=safety * operator_norm_estimate)
    window = h[: k + 1, :k]
    # Any non-finite entry makes the maximum inf or NaN; both report inf.
    max_entry = float(np.abs(window).max(initial=0.0))
    if not math.isfinite(max_entry):
        max_entry = float("inf")
    threshold = safety * operator_norm_estimate
    return CheckResult(
        name=name,
        passed=bool(np.isfinite(max_entry) and max_entry <= threshold),
        measure=max_entry,
        threshold=threshold,
        cost_flops=float(window.size),
    )


def residual_consistency_check(
    recurrence_residual: float,
    true_residual: float,
    *,
    rtol: float = 1e-4,
    atol: float = 1e-12,
    name: str = "residual_consistency",
) -> CheckResult:
    """Recurrence-based and explicitly computed residual norms must agree.

    GMRES and CG update a cheap residual estimate by recurrence; silent
    corruption makes the estimate drift away from the truth.  The check
    costs one extra matvec when invoked, so it is typically run every
    ``k`` iterations rather than every iteration.
    """
    check_non_negative(rtol, "rtol")
    if not np.isfinite(recurrence_residual) or not np.isfinite(true_residual):
        return CheckResult(name=name, passed=False, measure=float("inf"),
                           threshold=rtol)
    scale = max(abs(true_residual), abs(recurrence_residual), atol)
    gap = abs(recurrence_residual - true_residual) / scale
    return CheckResult(name=name, passed=bool(gap <= rtol), measure=float(gap),
                       threshold=rtol)


def conservation_check(
    quantity_before: float,
    quantity_after: float,
    *,
    expected_change: float = 0.0,
    rtol: float = 1e-8,
    atol: float = 1e-12,
    name: str = "conservation",
) -> CheckResult:
    """A conserved quantity (mass, energy) must change only as expected.

    This is the PDE-side skeptical check: explicit finite-difference
    heat/advection steps conserve the total of the field up to boundary
    fluxes that the caller supplies as ``expected_change``.
    """
    check_non_negative(rtol, "rtol")
    if not np.isfinite(quantity_after):
        return CheckResult(name=name, passed=False, measure=float("inf"), threshold=rtol)
    expected = quantity_before + expected_change
    scale = max(abs(expected), abs(quantity_before), atol)
    gap = abs(quantity_after - expected) / scale
    return CheckResult(name=name, passed=bool(gap <= rtol), measure=float(gap),
                       threshold=rtol)


def monotonicity_check(
    history: Sequence[float],
    *,
    allowed_increase: float = 1.5,
    window: int = 3,
    name: str = "monotonicity",
) -> CheckResult:
    """Residual histories of minimal-residual methods must not jump up.

    GMRES residual norms are non-increasing in exact arithmetic; a jump
    by more than ``allowed_increase`` over the recent ``window`` values
    is a strong SDC indicator.  (CG residuals oscillate, so use a larger
    ``allowed_increase`` there.)
    """
    check_positive(allowed_increase, "allowed_increase")
    if len(history) < 2:
        return CheckResult(name=name, passed=True, measure=0.0, threshold=allowed_increase)
    # Only the window is read: O(window) per call on a growing history.
    recent = [float(v) for v in history[-(window + 1):]]
    if not all(map(math.isfinite, recent)):
        return CheckResult(name=name, passed=False, measure=float("inf"),
                           threshold=allowed_increase)
    reference = min(recent[:-1])
    if reference <= 0.0:
        return CheckResult(name=name, passed=True, measure=0.0, threshold=allowed_increase)
    ratio = recent[-1] / reference
    return CheckResult(name=name, passed=bool(ratio <= allowed_increase),
                       measure=float(ratio), threshold=allowed_increase)


def spd_coefficient_check(
    alphas: Sequence[float],
    *,
    name: str = "spd_coefficients",
) -> CheckResult:
    """CG step lengths must be positive for an SPD operator.

    A negative or non-finite ``alpha`` means either the operator is not
    SPD or the recurrence has been corrupted; in both cases the solve
    cannot be trusted.
    """
    values = [float(a) for a in alphas]
    if not values:
        return CheckResult(name=name, passed=True, measure=0.0, threshold=0.0)
    worst = min(values)
    finite = all(np.isfinite(v) for v in values)
    return CheckResult(name=name, passed=bool(finite and worst > 0.0),
                       measure=float(worst if finite else float("-inf")), threshold=0.0)
