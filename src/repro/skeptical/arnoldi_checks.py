"""The default SDC check set of skeptical GMRES, as one stacked kernel.

:func:`observe_arnoldi` runs one observation of the standard SkP checks
for every row of a stack of Arnoldi states -- ``(D, k, n)`` basis rows,
``(D, m+1, m)`` Hessenberg arrays.  The sequential
:class:`~repro.krylov.engine.resilience.SkepticalGmresPolicy` calls it
with ``D = 1`` on views of its live state, the lockstep engine
(:mod:`repro.krylov.engine.batch`) with one row per skeptical lane.
A few whole-stack reductions decide which rows pass; a row that does
not runs the :mod:`repro.skeptical.checks` functions in order, so the
counters and the ``check_failed`` record are exactly a
:class:`~repro.skeptical.monitor.SkepticalMonitor`'s with those checks
registered (the first failure is the detection, the rest are skipped).
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.skeptical.checks import (
    CheckResult,
    finite_check,
    hessenberg_bound_check,
    monotonicity_check,
    orthogonality_check,
    residual_consistency_check,
)
from repro.utils.logging import EventLog
from repro.utils.validation import check_integer, check_positive

__all__ = ["ArnoldiChecks", "observe_arnoldi"]


class ArnoldiChecks:
    """Periods, thresholds and per-solve counters of the default check set.

    Every ``check_period`` observations: the newest basis vector and
    Hessenberg column are finite, ``|h_ij| <= safety * ||A||`` over the
    Hessenberg window, and the residual history is monotone; every
    ``orthogonality_period``: ``max |V^T V - I| <= tol``; every
    ``residual_check_period``: the recurrence residual matches the true
    one.  Counters persist across detection restarts; the residual
    history restarts with each attempt (:meth:`begin_attempt`).
    """

    def __init__(
        self,
        norm_estimate: float,
        *,
        check_period: int = 1,
        orthogonality_period: int = 5,
        residual_check_period: int = 10,
        hessenberg_safety: float = 4.0,
        orthogonality_tol: float = 1e-6,
    ):
        for period in (check_period, orthogonality_period, residual_check_period):
            check_integer(period, "period")
            if period <= 0:
                raise ValueError("period must be positive")
        check_positive(norm_estimate, "operator_norm_estimate")
        check_positive(hessenberg_safety, "safety")
        check_positive(orthogonality_tol, "tol")
        self.check_period = int(check_period)
        self.orthogonality_period = int(orthogonality_period)
        self.residual_check_period = int(residual_check_period)
        self.norm_estimate = norm_estimate
        self.hessenberg_safety = hessenberg_safety
        self.orthogonality_tol = orthogonality_tol
        self.log = EventLog()
        self.obs = 0
        self.checks_run = 0
        self.check_flops = 0.0
        self.detections = 0
        self.last_failure: Optional[CheckResult] = None
        self.residual_history: List[float] = []

    def begin_attempt(self) -> None:
        """Start a new solve attempt: clear the residual history."""
        self.residual_history = []

    @property
    def n_detections(self) -> int:
        """Number of failed checks so far."""
        return self.detections

    def summary(self) -> dict:
        """Aggregate statistics, keyed as ``SkepticalMonitor.summary``."""
        return {
            "observations": float(self.obs),
            "checks_run": float(self.checks_run),
            "detections": float(self.detections),
            "check_flops": float(self.check_flops),
        }

    def _charge(self, check: CheckResult) -> bool:
        """Count one evaluated check; log it and return False if it failed."""
        self.checks_run += 1
        self.check_flops += check.cost_flops
        if check.passed:
            return True
        self.detections += 1
        self.last_failure = check
        self.log.record("check_failed", check=check.name, measure=check.measure,
                        threshold=check.threshold, observation=self.obs)
        return False


def _stack_rows(rows: Sequence[int], picks: List[int]):
    """Index of the stack rows of ``picks`` (increasing): a slice --
    views, no gather copy -- when they are the leading rows."""
    last = len(picks) - 1
    if rows[picks[0]] == 0 and rows[picks[last]] == last:
        return slice(0, last + 1)
    return np.asarray([rows[i] for i in picks], dtype=np.intp)


def _monotone(history: List[float]) -> bool:
    """``monotonicity_check(history).passed`` with the default window."""
    recent = history[-4:]
    if len(recent) < 2:
        return True
    if not all(map(math.isfinite, recent)):
        return False
    reference = min(recent[:-1])
    return reference <= 0.0 or recent[-1] / reference <= 1.5


def _cheap_checks(c: ArnoldiChecks, basis_row: np.ndarray, hess_row: np.ndarray, j: int):
    """The ``check_period`` checks of one solve, in order, lazily."""
    yield finite_check(basis_row[j + 1], name="finite_basis")
    yield finite_check(hess_row[: j + 2, j], name="finite_hessenberg")
    yield hessenberg_bound_check(hess_row, c.norm_estimate, n_columns=j + 1,
                                 safety=c.hessenberg_safety)
    yield monotonicity_check(c.residual_history)


def observe_arnoldi(
    checks: Sequence[ArnoldiChecks],
    rows: Sequence[int],
    j: int,
    basis: np.ndarray,
    hess: np.ndarray,
    residuals: Sequence[float],
    true_residual: Callable[[int], float],
) -> List[int]:
    """One observation of the default check set for each solve of a stack.

    ``checks[i]`` is the solve whose Arnoldi state after inner step
    ``j`` sits in row ``rows[i]`` (increasing) of ``basis`` (stored
    vectors as rows) and ``hess``, with recurrence residual
    ``residuals[i]``.  ``true_residual(i)`` computes that solve's true
    residual; it is called only for a due residual-consistency check at
    a cycle start (``j == 0``), elsewhere the recurrence value stands in.

    Returns the positions ``i`` whose observation failed a check.
    """
    due = []
    for i, c in enumerate(checks):
        c.obs += 1
        c.residual_history.append(residuals[i])
        if not c.obs % c.check_period:
            due.append(i)
    n = basis.shape[2]
    failed: List[int] = []

    if due:
        sel = _stack_rows(rows, due)
        basis_ok = np.isfinite(basis[sel, j + 1]).all(axis=1).tolist()
        # A non-finite entry makes the window maximum inf or NaN.
        peaks = np.abs(hess[sel, : j + 2, : j + 1]).max(axis=(1, 2)).tolist()
        for t, i in enumerate(due):
            c = checks[i]
            peak = peaks[t]
            if (basis_ok[t] and math.isfinite(peak)
                    and peak <= c.hessenberg_safety * c.norm_estimate
                    and _monotone(c.residual_history)):
                # All four pass: charge them as the check functions do.
                c.checks_run += 4
                c.check_flops += n
                c.check_flops += j + 2
                c.check_flops += (j + 2) * (j + 1)
                continue
            for check in _cheap_checks(c, basis[rows[i]], hess[rows[i]], j):
                if not c._charge(check):
                    failed.append(i)
                    break

    ortho = [
        i for i, c in enumerate(checks)
        if i not in failed and c.obs % c.orthogonality_period == 0
    ]
    if ortho:
        k = j + 2
        V = basis[_stack_rows(rows, ortho), :k]
        # A corrupted basis may overflow the Gram matrix; a non-finite
        # Gram is itself the detection.
        with np.errstate(over="ignore", invalid="ignore"):
            grams = np.matmul(V, V.transpose(0, 2, 1))
        grams.reshape(len(ortho), -1)[:, :: k + 1] -= 1.0  # V V^T - I, in place
        defects = np.abs(grams, out=grams).max(axis=(1, 2)).tolist()
        for t, i in enumerate(ortho):
            c = checks[i]
            if defects[t] <= c.orthogonality_tol:  # False for inf and NaN
                c.checks_run += 1
                c.check_flops += 2.0 * n * k * k
            elif not c._charge(orthogonality_check(basis[rows[i], :k].T,
                                                   tol=c.orthogonality_tol)):
                failed.append(i)

    for i, c in enumerate(checks):
        if i in failed or c.obs % c.residual_check_period:
            continue
        residual = residuals[i]
        check = residual_consistency_check(
            residual, true_residual(i) if j == 0 else residual
        )
        if not c._charge(check):
            failed.append(i)
    return failed
