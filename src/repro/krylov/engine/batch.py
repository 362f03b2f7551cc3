"""Batched lockstep execution of independent same-shaped solves.

Fault-injection campaigns run thousands of *independent* scenarios that
share one operator and vector length and differ only in right-hand
side, fault stream and policy knobs.  Solving them one at a time leaves
almost all of the wall-clock in Python interpreter overhead: at the
campaign's typical ``n`` (a few thousand), one Arnoldi iteration is a
handful of microsecond-scale BLAS calls wrapped in hundreds of
microseconds of bookkeeping.  This module advances ``S`` scenarios in
lockstep instead: the inner-loop kernels (operator application,
Gram-Schmidt, the Givens QR recurrence) run once per *step* on stacked
``(S, n)`` arrays, while everything observable stays per-lane.

Bit-parity contract
-------------------
A batched lane produces byte-identical results to the corresponding
sequential solve (``tests/test_batch_parity.py`` pins this across the
solver x fault x preconditioner x policy matrix).  The design rules
that make this hold:

* Only operations with verified batched bit-identity are vectorized:
  stacked ``np.matmul`` against the per-lane gemv (NOT ``np.einsum``),
  elementwise arithmetic, :meth:`~repro.linalg.csr.CsrMatrix.matvec_block`
  (``np.add.reduceat`` over gathered products), and the mask-chained
  :func:`~repro.linalg.blas.givens_rotation_many`.
* Cycle boundaries (cycle-start residual, least-squares solve, iterate
  update, true-residual check) and preconditioner applications run
  per-lane through the *same* sequential code paths, with the same
  kernel-counter charges.
* Lanes never join a cycle midway: a restart cycle is the lockstep
  unit.  Lanes are grouped into *cohorts* keyed by ``(m, method)`` --
  the cycle dimension from
  :func:`~repro.krylov.engine.core.cycle_dimension` and the
  Gram-Schmidt kernel -- and a lane that converges, breaks down, is
  abandoned by a skeptical detection or exhausts its budget simply
  leaves its cohort; the survivors keep going.
* Per-lane fault hooks and resilience policies observe exactly the
  sequential per-iteration events (a full
  :class:`~repro.krylov.engine.core.GmresState` only when the policy
  declares ``needs_arnoldi_state``), against live views of the stacked
  arrays, so injected faults land in the real solver state.

Kernel counters: batched spans (the stacked matvec and the
orthogonalization block) are measured once and split evenly across the
active lanes with one *call* each, so call counts match the sequential
solver exactly and only the attributed seconds are approximate.
Parity gates therefore compare everything except ``seconds``.

Skeptical (SDC-detecting) lanes replicate the
:func:`repro.skeptical.gmres_sdc.sdc_detecting_gmres` attempt loop per
lane; each cohort step runs the sequential solver's check kernel,
:func:`repro.skeptical.arnoldi_checks.observe_arnoldi`, once over the
stacked rows of the skeptical lanes.  Only the ``"restart"``
response is supported here (an ``"abort"`` would have to kill sibling
lanes); the registry routes ``skeptical_abort`` solves to the
sequential fallback.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.krylov import ops
from repro.krylov.engine.convergence import ConvergenceTest
from repro.krylov.engine.core import (
    GmresState,
    canonical_kernel_counters,
    cycle_dimension,
)
from repro.krylov.engine.orthogonalize import HAPPY_BREAKDOWN_TOL, orthogonalize_many
from repro.krylov.engine.precondition import RightPreconditioner
from repro.krylov.engine.resilience import (
    IterationEvent,
    NullPolicy,
    compose_policy,
    reconstructed_residual,
)
from repro.krylov.result import SolveResult
from repro.linalg.blas import back_substitution, givens_rotation_many
from repro.linalg.csr import CsrMatrix
from repro.skeptical.arnoldi_checks import ArnoldiChecks, observe_arnoldi
from repro.utils.validation import check_integer, check_positive

__all__ = [
    "GmresLaneSpec",
    "SdcLaneSpec",
    "CgLaneSpec",
    "run_arnoldi_batch",
    "run_cg_batch",
    "batched_matvec",
    "BATCH_GRAM_SCHMIDT",
]

#: Gram-Schmidt kernels with a verified batched form ("modified" has an
#: inherently sequential per-vector recurrence; those lanes fall back).
BATCH_GRAM_SCHMIDT = ("cgs2", "classical")

# Sentinel returned by an attempt whose while-condition says "done".
_COMPLETE = object()


# ---------------------------------------------------------------------------
# Lane specifications (one per scenario)
# ---------------------------------------------------------------------------


@dataclass
class GmresLaneSpec:
    """One plain/guarded GMRES scenario, mirroring :func:`repro.krylov.gmres.gmres`.

    ``operator`` overrides the batch-level operator for this lane (e.g.
    a per-scenario fault-injecting wrapper); lanes with private
    operators advance in lockstep but apply their own operator, so
    per-lane fault streams stay draw-for-draw sequential.
    """

    b: np.ndarray
    x0: Optional[np.ndarray] = None
    tol: float = 1e-8
    atol: float = 0.0
    restart: int = 30
    maxiter: int = 1000
    preconditioner: Any = None
    gram_schmidt: str = "cgs2"
    policy: Any = None
    iteration_hook: Optional[Callable] = None
    operator: Any = None


@dataclass
class SdcLaneSpec:
    """One SDC-detecting GMRES scenario (``response="restart"`` only),
    mirroring :func:`repro.skeptical.gmres_sdc.sdc_detecting_gmres`."""

    b: np.ndarray
    x0: Optional[np.ndarray] = None
    tol: float = 1e-8
    atol: float = 0.0
    restart: int = 30
    maxiter: int = 1000
    preconditioner: Any = None
    check_period: int = 1
    orthogonality_period: int = 5
    residual_check_period: int = 10
    hessenberg_safety: float = 4.0
    orthogonality_tol: float = 1e-6
    max_restarts_on_detection: int = 5
    operator_norm: Optional[float] = None
    fault_hook: Optional[Callable] = None
    operator: Any = None


@dataclass
class CgLaneSpec:
    """One CG scenario, mirroring :func:`repro.krylov.cg.cg`."""

    b: np.ndarray
    x0: Optional[np.ndarray] = None
    tol: float = 1e-8
    atol: float = 0.0
    maxiter: int = 1000
    preconditioner: Any = None
    policy: Any = None
    iteration_hook: Optional[Callable] = None
    operator: Any = None


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


class _LaneEngine:
    """Duck-typed stand-in for :class:`~repro.krylov.engine.core.SolverEngine`.

    The preconditioner strategies only touch ``engine.operator`` and
    ``engine.kernels``; handing them this shim reuses their (charged)
    sequential code paths verbatim.
    """

    __slots__ = ("operator", "kernels")

    def __init__(self, operator, kernels):
        self.operator = operator
        self.kernels = kernels


def _basis_view(rows: np.ndarray):
    """A :class:`~repro.krylov.ops._DenseKrylovBasis` over lane storage.

    ``rows`` is the lane's ``(m+1, n)`` slice of the cohort's stacked
    basis array; the adapter makes it a real ``KrylovBasis`` so fault
    hooks, reconstruct closures and the orthogonality check operate on
    live solver state exactly as in the sequential path.
    """
    adapter = ops._DenseKrylovBasis.__new__(ops._DenseKrylovBasis)
    adapter._rows = rows
    adapter.n_columns = 0
    return adapter


class _LaneLsq:
    """View-backed stand-in for :class:`~repro.linalg.blas.HessenbergLsq`.

    The rotations run vectorized across the cohort; this object only
    exposes the per-lane ``hessenberg`` array and rotated right-hand
    side ``g`` (both views into the cohort stacks) with the ``solve``
    the reconstruct closures and cycle-end updates call.
    """

    __slots__ = ("hessenberg", "_g", "size")

    def __init__(self, hessenberg: np.ndarray, g: np.ndarray):
        self.hessenberg = hessenberg
        self._g = g
        self.size = 0

    def solve(self, k: Optional[int] = None) -> np.ndarray:
        k = self.size if k is None else int(k)
        return back_substitution(self.hessenberg[:k, :k], self._g[:k])


def batched_matvec(operator, X: np.ndarray) -> np.ndarray:
    """Apply ``operator`` to every row of ``X`` (shape ``(S, n)``).

    :class:`~repro.linalg.csr.CsrMatrix` operators use the bit-parity
    :meth:`~repro.linalg.csr.CsrMatrix.matvec_block` kernel; anything
    else (dense ndarray, callable) is applied per row through
    :func:`repro.krylov.ops.matvec` -- broadcast dense gemm is NOT
    bit-identical to per-vector gemv, so it is deliberately not used.
    """
    X = np.asarray(X, dtype=np.float64)
    if isinstance(operator, CsrMatrix):
        return operator.matvec_block(X)
    if X.shape[0] == 0:
        return np.zeros_like(X)
    return np.array(
        [np.asarray(ops.matvec(operator, x), dtype=np.float64) for x in X]
    )


def _matvec_rows(attempts, Z: np.ndarray) -> np.ndarray:
    """Operator application for one lockstep step.

    When every lane shares one operator object the batched kernel runs;
    lanes with private operators (per-scenario fault-injecting
    wrappers) are applied row by row with their own operator, keeping
    each lane's fault stream draw-for-draw sequential.
    """
    op0 = attempts[0].operator
    if all(a.operator is op0 for a in attempts):
        return batched_matvec(op0, Z)
    return np.array(
        [
            np.asarray(ops.matvec(a.operator, Z[i]), dtype=np.float64)
            for i, a in enumerate(attempts)
        ]
    )


# ---------------------------------------------------------------------------
# The Arnoldi lockstep machinery
# ---------------------------------------------------------------------------


class _ArnoldiAttempt:
    """One engine-level GMRES solve of one lane (one ``gmres()`` call).

    Owns exactly the state of one :meth:`ArnoldiScheme.run` invocation;
    cycle boundaries run here per-lane with real charged ops, while the
    inner loop is advanced by :func:`_run_cohort` on the stacks.
    """

    __slots__ = (
        "lane",
        "operator",
        "b",
        "x",
        "kernels",
        "shim",
        "precond",
        "convergence",
        "target",
        "restart",
        "maxiter",
        "residual_norms",
        "total_iteration",
        "converged",
        "breakdown",
        "outer",
        "adapter",
        "lsq",
        "slot",
        "inner_used",
        "cycle_residual",
        "cycle_outcome",
        "_cycle_r",
        "_cycle_beta",
        "mv_sec",
        "mv_calls",
        "ortho_sec",
        "ortho_calls",
    )

    def __init__(self, lane, *, x, maxiter: int):
        self.lane = lane
        self.operator = lane.operator
        self.b = lane.b
        self.x = x
        self.kernels = canonical_kernel_counters()
        self.shim = _LaneEngine(lane.operator, self.kernels)
        self.precond = RightPreconditioner(lane.preconditioner)
        self.convergence = lane.convergence
        self.target = lane.convergence.resolve_target(ops.norm(lane.b))
        self.restart = lane.restart
        self.maxiter = int(maxiter)
        self.residual_norms: List[float] = []
        self.total_iteration = 0
        self.converged = False
        self.breakdown = False
        self.outer = 0
        self.adapter = None
        self.lsq = None
        self.slot = -1
        self.inner_used = 0
        self.cycle_residual = 0.0
        self.cycle_outcome = "end"
        self._cycle_r = None
        self._cycle_beta = 0.0
        # Deferred per-cycle kernel charges (flushed by _run_cohort).
        self.mv_sec = 0.0
        self.mv_calls = 0
        self.ortho_sec = 0.0
        self.ortho_calls = 0

    def begin_cycle(self):
        """Run the cycle head; return the cycle dimension or ``_COMPLETE``.

        Mirrors the ``while`` head and pre-loop block of
        :meth:`ArnoldiScheme.run`: the residual of the current iterate
        (charged matvec), the first-cycle residual record and the
        cycle-start convergence test.
        """
        if (
            self.total_iteration >= self.maxiter
            or self.converged
            or self.breakdown
        ):
            return _COMPLETE
        kernels = self.kernels
        t0 = kernels.tick()
        r = ops.axpby(1.0, self.b, -1.0, ops.matvec(self.operator, self.x))
        kernels.charge("matvec", t0)
        beta = ops.norm(r)
        if not self.residual_norms:
            self.residual_norms.append(beta)
        if self.convergence.is_met(beta, self.target):
            self.converged = True
            return _COMPLETE
        self._cycle_r = r
        self._cycle_beta = beta
        return cycle_dimension(self.restart, self.maxiter, self.total_iteration)

    def attach(self, slot: int, rows: np.ndarray, hess: np.ndarray, g: np.ndarray, m: int):
        """Bind this attempt to its cohort slot and seed the cycle state."""
        self.slot = slot
        self.adapter = _basis_view(rows)
        self.adapter.append(self._cycle_r, scale=1.0 / self._cycle_beta)
        self.precond.start_cycle(self.shim, self.b, m)
        g[0] = self._cycle_beta
        self.lsq = _LaneLsq(hess, g)
        self.inner_used = 0
        self.cycle_residual = self._cycle_beta
        self.cycle_outcome = "end"
        self._cycle_r = None

    def update_solution(self):
        """First half of the cycle tail: the least-squares iterate update."""
        if self.inner_used > 0:  # update_on_breakdown=True for the GMRES family
            try:
                y = self.lsq.solve(self.inner_used)
            except np.linalg.LinAlgError:
                self.breakdown = True
                y = None
            if y is not None and np.all(np.isfinite(y)):
                self.x = self.precond.apply_update(
                    self.shim, self.x, self.adapter, y, self.inner_used
                )
            else:
                self.breakdown = True

    def finish_cycle(self, true_residual: float):
        """Second half of the cycle tail: record the true residual.

        ``true_residual`` is ``||b - A x||`` of the updated iterate --
        computed here per lane by :meth:`end_cycle`, or by the stacked
        block matvec of :func:`_batched_cycle_tail` (bit-identical per
        row, so the recorded history is the same either way).
        """
        self.residual_norms[-1] = true_residual
        if self.convergence.is_met(true_residual, self.target):
            self.converged = True
        self.outer += 1

    def end_cycle(self):
        """The cycle tail: least-squares update and true-residual check."""
        self.update_solution()
        kernels = self.kernels
        t0 = kernels.tick()
        true_residual = ops.norm(
            ops.axpby(1.0, self.b, -1.0, ops.matvec(self.operator, self.x))
        )
        kernels.charge("matvec", t0)
        self.finish_cycle(true_residual)


class _PlainGmresLane:
    """Lane controller for a plain/guarded GMRES scenario (one attempt)."""

    is_sdc = False

    def __init__(self, operator, spec: GmresLaneSpec):
        if spec.restart <= 0:
            raise ValueError("restart must be positive")
        if spec.maxiter <= 0:
            raise ValueError("maxiter must be positive")
        if spec.gram_schmidt not in BATCH_GRAM_SCHMIDT:
            raise ValueError(
                f"no batched kernel for gram_schmidt={spec.gram_schmidt!r}; "
                "use the sequential solver for 'modified'"
            )
        self.operator = spec.operator if spec.operator is not None else operator
        self.b = np.asarray(spec.b, dtype=np.float64)
        self.x0 = spec.x0
        self.restart = int(spec.restart)
        self.maxiter = int(spec.maxiter)
        self.preconditioner = spec.preconditioner
        self.method = spec.gram_schmidt
        self.convergence = ConvergenceTest(tol=spec.tol, atol=spec.atol)
        self.policy = compose_policy(spec.policy, spec.iteration_hook, "state")
        self.result: Optional[SolveResult] = None
        self._attempt: Optional[_ArnoldiAttempt] = None

    def begin_cycle(self):
        """Advance to the next cycle head; return a cohort key or ``None``."""
        while True:
            if self.result is not None:
                return None
            if self._attempt is None:
                x = (
                    ops.copy_vector(self.x0)
                    if self.x0 is not None
                    else ops.zeros_like(self.b)
                )
                self._attempt = _ArnoldiAttempt(self, x=x, maxiter=self.maxiter)
                self.policy.begin_attempt(x)
            req = self._attempt.begin_cycle()
            if req is not _COMPLETE:
                return (req, self.method)
            self._finish()

    def after_cycle(self):
        self._attempt.end_cycle()

    def tail_begin(self):
        """Run the x-update half of the cycle tail; return the attempt
        whose true-residual matvec remains (never ``None`` here)."""
        self._attempt.update_solution()
        return self._attempt

    def _finish(self):
        a = self._attempt
        info = {
            "restarts": a.outer,
            "target": a.target,
            "gram_schmidt": self.method,
            "kernels": a.kernels.as_dict(),
        }
        result = SolveResult(
            x=a.x,
            converged=a.converged,
            iterations=a.total_iteration,
            residual_norms=a.residual_norms,
            breakdown=a.breakdown,
            info=info,
        )
        self.policy.contribute_result(result)
        self.result = result


class _SdcGmresLane:
    """Lane controller replicating the ``sdc_detecting_gmres`` attempt loop.

    The check counters (:class:`~repro.skeptical.arnoldi_checks.ArnoldiChecks`)
    persist across attempts exactly as the sequential solver's do,
    while the residual history clears per attempt
    (``SkepticalGmresPolicy.begin_attempt``).  Every detection abandons
    the cycle, so ``detection_restarts`` equals ``detections``.
    """

    is_sdc = True
    method = "cgs2"  # the skeptical solver pins CGS2

    def __init__(self, operator, spec: SdcLaneSpec):
        check_integer(spec.check_period, "check_period")
        check_positive(spec.tol, "tol")
        if spec.restart <= 0:
            raise ValueError("restart must be positive")
        if spec.maxiter <= 0:
            raise ValueError("maxiter must be positive")

        self.operator = spec.operator if spec.operator is not None else operator
        self.b = np.asarray(spec.b, dtype=np.float64)
        self.restart = int(spec.restart)
        self.maxiter = int(spec.maxiter)
        self.preconditioner = spec.preconditioner
        self.convergence = ConvergenceTest(tol=spec.tol, atol=spec.atol)
        self.max_restarts_on_detection = int(spec.max_restarts_on_detection)
        self.fault_hook = spec.fault_hook
        if spec.operator_norm is not None:
            self.norm_estimate = float(spec.operator_norm)
        else:
            # Local import: the skeptical driver sits above the engine.
            from repro.skeptical.gmres_sdc import estimate_operator_norm

            self.norm_estimate = estimate_operator_norm(self.operator, self.b)
        self.checks = ArnoldiChecks(
            self.norm_estimate,
            check_period=spec.check_period,
            orthogonality_period=spec.orthogonality_period,
            residual_check_period=spec.residual_check_period,
            hessenberg_safety=spec.hessenberg_safety,
            orthogonality_tol=spec.orthogonality_tol,
        )

        self.x_current = (
            np.array(spec.x0, dtype=np.float64, copy=True)
            if spec.x0 is not None
            else np.zeros_like(self.b)
        )
        self.total_iterations = 0
        self.all_residuals: List[float] = []
        self.converged = False
        self.breakdown = False
        self.kernels = canonical_kernel_counters()
        self.target_final = None
        self.attempts = 0
        self.result: Optional[SolveResult] = None
        self._attempt: Optional[_ArnoldiAttempt] = None
        self._finished = False

    def begin_cycle(self):
        while True:
            if self.result is not None:
                return None
            if self._attempt is None and not self._next_attempt():
                self._finalize()
                continue
            req = self._attempt.begin_cycle()
            if req is not _COMPLETE:
                return (req, self.method)
            self._complete_attempt()

    def after_cycle(self):
        a = self._attempt
        if self._tail_abandoned():
            return
        a.end_cycle()

    def tail_begin(self):
        """The x-update half of the cycle tail; ``None`` when the cycle
        was abandoned (no true-residual matvec remains for this lane)."""
        if self._tail_abandoned():
            return None
        self._attempt.update_solution()
        return self._attempt

    def _tail_abandoned(self) -> bool:
        a = self._attempt
        if a.cycle_outcome == "abandoned":
            # The corrupted cycle is discarded; its kernel work and one
            # iteration tick stay in the accounting, and the next
            # attempt restarts from the last valid iterate.
            self.kernels.merge_dict(a.kernels.as_dict())
            self.total_iterations += 1
            self._attempt = None
            return True
        return False

    def _next_attempt(self) -> bool:
        """The head of the ``while attempts <= max_restarts`` driver loop."""
        if self._finished or self.converged:
            return False
        if self.attempts > self.max_restarts_on_detection:
            return False
        self.attempts += 1
        remaining = self.maxiter - self.total_iterations
        if remaining <= 0:
            return False
        self._attempt = _ArnoldiAttempt(self, x=self.x_current, maxiter=remaining)
        # begin_attempt of the skeptical policy: clear the residual
        # history (the check counters persist).
        self.checks.begin_attempt()
        return True

    def _complete_attempt(self):
        a = self._attempt
        self._attempt = None
        self.total_iterations += a.total_iteration
        self.all_residuals.extend(a.residual_norms)
        self.kernels.merge_dict(a.kernels.as_dict())
        self.target_final = a.target
        self.x_current = np.asarray(a.x)
        self.converged = a.converged
        self.breakdown = a.breakdown
        if self.converged or self.breakdown:
            self._finished = True

    def _finalize(self):
        self.result = SolveResult(
            x=self.x_current,
            converged=self.converged,
            iterations=self.total_iterations,
            residual_norms=self.all_residuals,
            breakdown=self.breakdown,
            detected_faults=self.checks.detections,
            info={
                "detection_restarts": self.checks.detections,
                "checks_run": float(self.checks.checks_run),
                "check_flops": float(self.checks.check_flops),
                "policy": "restart",
                "operator_norm_estimate": self.norm_estimate,
                "target": self.target_final,
                "kernels": self.kernels.as_dict(),
            },
        )


def _make_state(a: _ArnoldiAttempt, j: int) -> GmresState:
    """The per-iteration :class:`GmresState` of lane-attempt ``a`` at step ``j``."""

    def reconstruct_iterate(j=j, a=a):
        y = a.lsq.solve(j + 1)
        return a.precond.apply_update(a.shim, a.x, a.adapter, y, j + 1)

    return GmresState(
        outer=a.outer,
        inner=j,
        total_iteration=a.total_iteration,
        basis=a.adapter,
        hessenberg=a.lsq.hessenberg,
        residual_norm=a.cycle_residual,
        reconstruct_iterate=reconstruct_iterate,
    )


def _swap_slots(order, s: int, t: int, basis, hess, g, giv_c, giv_s) -> None:
    """Swap two lanes' slots in the cohort stacks.

    Both lanes keep their own data -- the rows are exchanged and each
    attempt's views (basis adapter, least-squares Hessenberg and
    rotated right-hand side) are re-pointed at its new slot, so
    ``end_cycle`` and the reconstruct closures keep seeing live state.
    """
    for stack in (basis, hess, g, giv_c, giv_s):
        tmp = stack[s].copy()
        stack[s] = stack[t]
        stack[t] = tmp
    a, b = order[s], order[t]
    order[s], order[t] = b, a
    for attempt, slot in ((a, t), (b, s)):
        attempt.slot = slot
        attempt.adapter._rows = basis[slot]
        attempt.lsq.hessenberg = hess[slot]
        attempt.lsq._g = g[slot]


def _run_cohort(operator, lanes, m: int, method: str, n: int) -> None:
    """Advance one restart cycle of a cohort of lanes in lockstep.

    All lanes share the cycle dimension ``m`` and Gram-Schmidt
    ``method``; each occupies one slot of the stacked basis
    ``(G, m+1, n)``, Hessenberg ``(G, m+1, m)``, rotated right-hand
    side ``(G, m+1)`` and Givens ``(G, m)`` arrays.  Lanes leave the
    active set on convergence, happy breakdown, non-finite residual,
    skeptical abandonment or budget exhaustion; survivors proceed.
    """
    G = len(lanes)
    basis = np.zeros((G, m + 1, n), dtype=np.float64)
    hess = np.zeros((G, m + 1, m), dtype=np.float64)
    g = np.zeros((G, m + 1), dtype=np.float64)
    giv_c = np.zeros((G, m), dtype=np.float64)
    giv_s = np.zeros((G, m), dtype=np.float64)

    order = []
    for slot, lane in enumerate(lanes):
        a = lane._attempt
        a.attach(slot, basis[slot], hess[slot], g[slot], m)
        order.append(a)
    no_precond = all(a.precond.preconditioner is None for a in order)
    k = G

    for j in range(m):
        if k == 0:
            break
        g_act = k
        # Active lanes always occupy the leading slots (exited lanes
        # are swapped to the tail, see below), so every step indexes
        # the stacks with basic slices -- views, never gather/scatter
        # copies.  Values are identical either way.
        idx = slice(None) if k == G else slice(0, k)
        acts = order[:k] if k < G else order

        # Candidate directions: per-lane preconditioner (charged through
        # the sequential strategy), batched operator application.
        if no_precond:
            Z = basis[idx, j, :]
        else:
            Z = np.empty((g_act, n), dtype=np.float64)
            for i, a in enumerate(acts):
                Z[i] = a.precond.preconditioned_vector(a.shim, a.adapter, j)
        t0 = time.perf_counter()
        W = _matvec_rows(acts, Z)
        share = (time.perf_counter() - t0) / g_act
        for a in acts:
            a.mv_sec += share
            a.mv_calls += 1

        # Orthogonalization span (Gram-Schmidt, norm, happy test,
        # append), batched; one charged call per lane as sequentially.
        t0 = time.perf_counter()
        rows = basis[idx, : j + 1, :]
        W1, coeffs = orthogonalize_many(rows, W, method)
        h_next = np.sqrt(np.matmul(W1[:, None, :], W1[:, :, None])[:, 0, 0])
        cycle_res = np.array([a.cycle_residual for a in acts], dtype=np.float64)
        happy = h_next <= HAPPY_BREAKDOWN_TOL * np.maximum(cycle_res, 1.0)
        not_happy = ~happy
        out = np.zeros_like(W1)
        if not_happy.any():
            # Reciprocal-then-multiply, matching append(w, scale=1/h).
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                out[not_happy] = (1.0 / h_next[not_happy])[:, None] * W1[not_happy]
        basis[idx, j + 1, :] = out
        share = (time.perf_counter() - t0) / g_act
        for a in acts:
            a.ortho_sec += share
            a.ortho_calls += 1

        # Incremental QR of the Hessenberg columns, vectorized over the
        # cohort (uncharged, as in the sequential loop).
        col = np.concatenate([coeffs, h_next[:, None]], axis=1)
        for i in range(j):
            c = giv_c[idx, i]
            s = giv_s[idx, i]
            new_a = c * col[:, i] + s * col[:, i + 1]
            new_b = c * col[:, i + 1] - s * col[:, i]
            col[:, i] = new_a
            col[:, i + 1] = new_b
        c, s = givens_rotation_many(col[:, j], col[:, j + 1])
        giv_c[idx, j] = c
        giv_s[idx, j] = s
        new_a = c * col[:, j] + s * col[:, j + 1]
        new_b = c * col[:, j + 1] - s * col[:, j]
        col[:, j] = new_a
        col[:, j + 1] = new_b
        ga = g[idx, j]
        gb = g[idx, j + 1]
        # ``ga``/``gb`` may be views on the fast path: compute both
        # rotated values before writing either row back.
        new_gj = c * ga + s * gb
        new_gj1 = c * gb - s * ga
        g[idx, j] = new_gj
        g[idx, j + 1] = new_gj1
        hess[idx, : j + 2, j] = col
        residuals = np.abs(new_gj1).tolist()

        # Per-lane bookkeeping and observations.
        sdc_slots = []
        for i, a in enumerate(acts):
            a.adapter.n_columns = j + 2
            a.lsq.size = j + 1
            a.inner_used = j + 1
            a.total_iteration += 1
            a.cycle_residual = residuals[i]
            a.residual_norms.append(a.cycle_residual)
            lane = a.lane
            if lane.is_sdc:
                if lane.fault_hook is not None:
                    lane.fault_hook(_make_state(a, j))
                sdc_slots.append(i)
            else:
                policy = lane.policy
                if isinstance(policy, NullPolicy):
                    continue
                if policy.needs_arnoldi_state:
                    policy.observe(_make_state(a, j))
                else:
                    policy.observe(
                        IterationEvent(
                            total_iteration=a.total_iteration,
                            residual_norm=a.cycle_residual,
                            inner=j,
                            outer=a.outer,
                        )
                    )
        abandoned = set()
        if sdc_slots:
            sdc = [acts[i] for i in sdc_slots]
            failed = observe_arnoldi(
                [a.lane.checks for a in sdc], sdc_slots, j, basis, hess,
                [a.cycle_residual for a in sdc],
                lambda t: reconstructed_residual(sdc[t].operator, sdc[t].b,
                                                 _make_state(sdc[t], 0)),
            )
            abandoned = {sdc[t] for t in failed}

        # Exits, in the sequential loop's order of precedence.
        happy_l = happy.tolist()
        survive = []
        for i, a in enumerate(acts):
            if a in abandoned:
                a.cycle_outcome = "abandoned"
                survive.append(False)
                continue
            if not math.isfinite(a.cycle_residual):
                a.breakdown = True
                survive.append(False)
                continue
            # ConvergenceTest.is_met inlined (it is `residual <= target`).
            if a.cycle_residual <= a.target or happy_l[i]:
                survive.append(False)
                continue
            if a.total_iteration >= a.maxiter:
                survive.append(False)
                continue
            survive.append(True)

        # Compact survivors into the leading slots: each exited lane
        # below the new watermark swaps stack rows (and re-points its
        # views) with a survivor above it.  One (m+1)-row copy per
        # exit event instead of per-step gather copies.
        new_k = sum(survive)
        if new_k != k:
            lows = [i for i in range(new_k) if not survive[i]]
            highs = [i for i in range(new_k, k) if survive[i]]
            for s, t in zip(lows, highs):
                _swap_slots(order, s, t, basis, hess, g, giv_c, giv_s)
            k = new_k

    # Flush the deferred per-step kernel charges (identical call
    # counts to the sequential solver; seconds are the evenly split
    # batched spans either way).
    for a in order:
        if a.mv_calls:
            a.kernels.add("matvec", a.mv_sec, calls=a.mv_calls)
            a.mv_sec = 0.0
            a.mv_calls = 0
        if a.ortho_calls:
            a.kernels.add("orthogonalization", a.ortho_sec, calls=a.ortho_calls)
            a.ortho_sec = 0.0
            a.ortho_calls = 0


def run_arnoldi_batch(operator, specs: Sequence) -> List[SolveResult]:
    """Solve ``S`` independent GMRES-family scenarios in lockstep.

    ``specs`` mixes :class:`GmresLaneSpec` (plain/guarded GMRES) and
    :class:`SdcLaneSpec` (skeptical restart GMRES); all right-hand
    sides must share one length, and ``operator`` is shared.  Returns
    one :class:`~repro.krylov.result.SolveResult` per spec, in order,
    bit-identical to the sequential solver's.
    """
    lanes = []
    n = None
    for spec in specs:
        if isinstance(spec, SdcLaneSpec):
            lane = _SdcGmresLane(operator, spec)
        elif isinstance(spec, GmresLaneSpec):
            lane = _PlainGmresLane(operator, spec)
        else:
            raise TypeError(
                f"unsupported lane spec type {type(spec).__name__}"
            )
        if n is None:
            n = lane.b.size
        elif lane.b.size != n:
            raise ValueError("all lanes of a batch must share one vector length")
        lanes.append(lane)
    pool = list(lanes)
    while pool:
        cohorts = {}
        for lane in pool:
            key = lane.begin_cycle()
            if key is not None:
                cohorts.setdefault(key, []).append(lane)
        pool = []
        for (m, method), members in cohorts.items():
            _run_cohort(operator, members, m, method, n)
            _batched_cycle_tail(members)
            pool.extend(members)
    return [lane.result for lane in lanes]


#: Stack the cycle-tail residual matvecs only while the cohort's total
#: row count (``S * n`` = the number of ``reduceat`` segments) stays in
#: the interpreter-bound regime; above this the per-segment cost of the
#: axis-1 ``reduceat`` outweighs the saved per-lane dispatch (measured:
#: 2.6x faster at n=64/S=256, 3x *slower* at n=1024/S=64).
_TAIL_STACK_MAX_SEGMENTS = 16_384


def _batched_cycle_tail(members) -> None:
    """The cycle tail across one cohort, with the residual matvecs stacked.

    Every lane first runs its x-update (per lane, charged nothing, as
    sequentially); the per-lane true-residual matvecs that close each
    cycle are then stacked into one :meth:`CsrMatrix.matvec_block` call
    whenever every remaining lane shares one CsrMatrix operator.  The
    block kernel is bit-identical per row to the per-lane matvec, and
    each lane is charged one matvec call with an even share of the
    batched span -- exactly the accounting contract of the inner-loop
    spans, so batch/sequential parity (which excludes seconds only)
    holds.  Lanes with private operators (fault-injecting wrappers)
    keep their own sequential matvec, preserving fault streams
    draw for draw.

    The stacked path is gated on the block size: ``reduceat`` along
    axis 1 pays a per-segment cost that makes the block kernel *slower*
    than S well-vectorized 1-D matvecs once ``S * n`` leaves the
    interpreter-bound regime (measured crossover ~16k row segments), so
    large-n cohorts keep the per-lane tail.  Both residual forms are
    bit-identical (``b - Ax`` and ``1.0*b + (-1.0)*Ax`` are the same
    IEEE operation), so the gate is a pure time heuristic.
    """
    acts = [a for a in (lane.tail_begin() for lane in members) if a is not None]
    if not acts:
        return
    op0 = acts[0].operator
    if (
        len(acts) > 1
        and isinstance(op0, CsrMatrix)
        and len(acts) * op0.shape[0] <= _TAIL_STACK_MAX_SEGMENTS
        and all(a.operator is op0 for a in acts)
    ):
        t0 = time.perf_counter()
        X = np.array([a.x for a in acts], dtype=np.float64)
        AX = op0.matvec_block(X)
        R = np.array([a.b for a in acts], dtype=np.float64) - AX
        residuals = [float(np.sqrt(R[i] @ R[i])) for i in range(len(acts))]
        share = (time.perf_counter() - t0) / len(acts)
        for a, true_residual in zip(acts, residuals):
            a.kernels.add("matvec", share, calls=1)
            a.finish_cycle(true_residual)
        return
    for a in acts:
        kernels = a.kernels
        t0 = kernels.tick()
        true_residual = ops.norm(
            ops.axpby(1.0, a.b, -1.0, ops.matvec(a.operator, a.x))
        )
        kernels.charge("matvec", t0)
        a.finish_cycle(true_residual)


# ---------------------------------------------------------------------------
# Batched CG
# ---------------------------------------------------------------------------


class _CgLane:
    """Per-lane state of one CG scenario; init mirrors the sequential preamble."""

    def __init__(self, operator, spec: CgLaneSpec):
        if spec.maxiter <= 0:
            raise ValueError("maxiter must be positive")
        self.operator = spec.operator if spec.operator is not None else operator
        self.preconditioner = spec.preconditioner
        self.maxiter = int(spec.maxiter)
        self.policy = compose_policy(spec.policy, spec.iteration_hook, "scalar")
        self.kernels = canonical_kernel_counters()
        self.b = np.asarray(spec.b, dtype=np.float64)
        self.convergence = ConvergenceTest(tol=spec.tol, atol=spec.atol)
        self.target = self.convergence.resolve_target(ops.norm(self.b))
        x = ops.copy_vector(spec.x0) if spec.x0 is not None else ops.zeros_like(self.b)
        self.policy.begin_attempt(x)
        t0 = self.kernels.tick()
        r = ops.axpby(1.0, self.b, -1.0, ops.matvec(self.operator, x))
        self.kernels.charge("matvec", t0)
        t0 = self.kernels.tick()
        z = ops.apply_preconditioner(self.preconditioner, r)
        self.kernels.charge("preconditioner", t0)
        self.p = ops.copy_vector(z)
        self.rz = ops.dot(r, z)
        residual = ops.norm(r)
        self.residual_norms: List[float] = [residual]
        self.alphas: List[float] = []
        self.betas: List[float] = []
        self.converged = self.convergence.is_met(residual, self.target)
        self.breakdown = False
        self.iteration = 0
        self.x = x
        self.r = r
        # Deferred per-solve matvec charges (flushed at finalization).
        self.mv_sec = 0.0
        self.mv_calls = 0


def run_cg_batch(operator, specs: Sequence[CgLaneSpec], *, trace=None) -> List[SolveResult]:
    """Solve ``S`` independent CG scenarios in lockstep.

    Per-scenario convergence masks freeze finished lanes: a converged
    (or broken-down, or budget-exhausted) lane's rows of the stacked
    iterate/residual arrays are never touched again, while active lanes
    continue -- :meth:`ConvergenceTest.is_met_many` drives the mask.

    ``trace(step, advanced_lane_ids, X, R)``, when given, is called
    after every lockstep step with the (read-only by convention)
    stacked iterate and residual arrays; the property-based freeze
    tests hook it.
    """
    lanes = [_CgLane(operator, spec) for spec in specs]
    if not lanes:
        return []
    n = lanes[0].b.size
    for lane in lanes:
        if lane.b.size != n:
            raise ValueError("all lanes of a batch must share one vector length")
    X = np.stack([lane.x for lane in lanes])
    R = np.stack([lane.r for lane in lanes])
    P = np.stack([lane.p for lane in lanes])
    rz = np.array([lane.rz for lane in lanes], dtype=np.float64)
    targets = np.array([lane.target for lane in lanes], dtype=np.float64)
    tester = ConvergenceTest()

    active = [i for i, lane in enumerate(lanes) if not lane.converged]
    step = 0
    while active:
        gi = np.asarray(active, dtype=np.intp)
        g_act = len(active)
        t0 = time.perf_counter()
        act_lanes = [lanes[i] for i in active]
        op0 = act_lanes[0].operator
        if all(lane.operator is op0 for lane in act_lanes):
            AP = batched_matvec(op0, P[gi])
        else:
            AP = np.array(
                [
                    np.asarray(ops.matvec(lane.operator, P[i]), dtype=np.float64)
                    for i, lane in zip(active, act_lanes)
                ]
            )
        share = (time.perf_counter() - t0) / g_act
        for lane in act_lanes:
            lane.mv_sec += share
            lane.mv_calls += 1
        Pg = P[gi]
        p_ap = np.matmul(Pg[:, None, :], AP[:, :, None])[:, 0, 0]
        # Loss of positive definiteness: breakdown before any update.
        bad = (p_ap <= 0.0) | ~np.isfinite(p_ap)
        for k in np.flatnonzero(bad):
            lanes[active[k]].breakdown = True
        sub = np.flatnonzero(~bad)
        ids = gi[sub]
        if ids.size == 0:
            if trace is not None:
                trace(step, [], X, R)
            break
        alpha = rz[ids] / p_ap[sub]
        for k, lane_id in enumerate(ids):
            lanes[lane_id].alphas.append(float(alpha[k]))
        X[ids] = X[ids] + alpha[:, None] * P[ids]
        R_new = R[ids] + (-alpha)[:, None] * AP[sub]
        R[ids] = R_new
        res = np.sqrt(np.matmul(R_new[:, None, :], R_new[:, :, None])[:, 0, 0])
        finite = np.isfinite(res)
        met = tester.is_met_many(res, targets[ids])
        tail = []
        for k, lane_id in enumerate(ids):
            lane = lanes[lane_id]
            lane.iteration += 1
            value = float(res[k])
            lane.residual_norms.append(value)
            if not isinstance(lane.policy, NullPolicy):
                lane.policy.observe(
                    IterationEvent(total_iteration=lane.iteration, residual_norm=value)
                )
            if not finite[k]:
                lane.breakdown = True
            elif met[k]:
                lane.converged = True  # freeze: rows of X/R never touched again
            else:
                tail.append(k)
        next_active = []
        if tail:
            tk = np.asarray(tail, dtype=np.intp)
            tids = ids[tk]
            Z = np.empty((tids.size, n), dtype=np.float64)
            for k, lane_id in enumerate(tids):
                lane = lanes[lane_id]
                t0 = lane.kernels.tick()
                Z[k] = ops.apply_preconditioner(lane.preconditioner, R[lane_id])
                lane.kernels.charge("preconditioner", t0)
            Rg = R[tids]
            rz_next = np.matmul(Rg[:, None, :], Z[:, :, None])[:, 0, 0]
            good = []
            for k, lane_id in enumerate(tids):
                if not np.isfinite(rz_next[k]):
                    lanes[lane_id].breakdown = True
                else:
                    good.append(k)
            if good:
                gk = np.asarray(good, dtype=np.intp)
                ids2 = tids[gk]
                beta = rz_next[gk] / rz[ids2]
                for k, lane_id in enumerate(ids2):
                    lanes[lane_id].betas.append(float(beta[k]))
                rz[ids2] = rz_next[gk]
                P[ids2] = Z[gk] + beta[:, None] * P[ids2]
                next_active = [
                    int(i) for i in ids2 if lanes[i].iteration < lanes[i].maxiter
                ]
        if trace is not None:
            trace(step, [int(i) for i in ids], X, R)
        step += 1
        active = next_active

    results = []
    for i, lane in enumerate(lanes):
        if lane.mv_calls:
            lane.kernels.add("matvec", lane.mv_sec, calls=lane.mv_calls)
            lane.mv_sec = 0.0
            lane.mv_calls = 0
        result = SolveResult(
            x=np.array(X[i], dtype=np.float64, copy=True),
            converged=lane.converged,
            iterations=lane.iteration,
            residual_norms=lane.residual_norms,
            breakdown=lane.breakdown,
            info={
                "alphas": lane.alphas,
                "betas": lane.betas,
                "target": lane.target,
                "kernels": lane.kernels.as_dict(),
            },
        )
        lane.policy.contribute_result(result)
        results.append(result)
    return results
