"""The solver engine: one core loop, strategy objects around it.

Historically every Krylov driver in the toolkit (GMRES, FGMRES,
pipelined GMRES, the FT-GMRES outer loop) hand-rolled the same
restarted-Arnoldi machinery -- residual/restart bookkeeping, the
incremental Hessenberg QR, happy-breakdown handling, hook wiring --
and differed only in *how* it orthogonalized, preconditioned and
observed iterations.  :class:`SolverEngine` extracts that machinery
once and delegates the variation points to strategy objects:

* :class:`~repro.krylov.engine.orthogonalize.Orthogonalizer` -- the
  Gram-Schmidt kernel (blocking CGS2/classical/modified, or the fused
  single-reduction wave of the pipelined variants).
* :class:`~repro.krylov.engine.precondition.PreconditionerStrategy` --
  fixed right preconditioning vs flexible (per-iteration, possibly
  unreliable inner solves with the reliable-outer vetting of FT-GMRES).
* :class:`~repro.krylov.engine.convergence.ConvergenceTest` -- the
  stopping rule.
* :class:`~repro.krylov.engine.resilience.ResiliencePolicy` -- per
  iteration observation: user hooks, skeptical monitors, fault
  injection, residual guards.

The public solver functions (:func:`repro.krylov.gmres.gmres` and
friends) are thin wrappers that pick a strategy combination; the
:mod:`repro.krylov.registry` exposes every named combination to the
campaign layer.  The engine reproduces the pre-refactor solvers
bit-for-bit (locked by ``tests/test_engine_parity.py`` and the golden
suite): every floating-point operation happens in the same order the
hand-rolled loops used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.krylov import ops
from repro.krylov.engine.convergence import ConvergenceTest
from repro.krylov.engine.orthogonalize import Orthogonalizer
from repro.krylov.engine.precondition import PreconditionerStrategy
from repro.krylov.engine.resilience import (
    CycleAbandoned,
    IterationEvent,
    NullPolicy,
    ResiliencePolicy,
)
from repro.krylov.result import SolveResult
from repro.linalg.blas import HessenbergLsq
from repro.utils.timing import KernelCounters

__all__ = [
    "GmresState",
    "IterationScheme",
    "ArnoldiScheme",
    "SolverEngine",
    "cycle_dimension",
]

# Every engine-produced SolveResult carries these kernels (possibly at
# zero) so downstream consumers see one counter schema across solvers.
CANONICAL_KERNELS = ("matvec", "orthogonalization", "preconditioner", "basis_update")


def canonical_kernel_counters() -> KernelCounters:
    """A :class:`KernelCounters` pre-seeded with the canonical schema."""
    kernels = KernelCounters()
    for kernel in CANONICAL_KERNELS:
        kernels.add(kernel, 0.0, calls=0)
    return kernels


def cycle_dimension(restart: int, maxiter: int, total_iteration: int) -> int:
    """Krylov dimension of the next restart cycle.

    The cycle is capped both by the restart length and by the remaining
    iteration budget.  Shared by the sequential core loop and the
    batched lockstep path (:mod:`repro.krylov.engine.batch`), which
    groups lanes into cohorts by this value.
    """
    return min(int(restart), int(maxiter) - int(total_iteration))


@dataclass
class GmresState:
    """Mutable view of the Arnoldi internals passed to iteration hooks.

    Attributes
    ----------
    outer:
        Restart cycle number (0-based).
    inner:
        Inner iteration within the cycle (0-based).
    total_iteration:
        Global iteration counter across restarts.
    basis:
        The :class:`~repro.krylov.ops.KrylovBasis` of this cycle
        (``inner + 2`` stored vectors after the current step).
        ``basis[i]`` is a writable view of basis vector ``i``;
        ``basis.array`` is the whole block as an ndarray.
    hessenberg:
        The ``(m+1) x m`` Hessenberg array of this cycle.
    residual_norm:
        Current (recurrence-based) residual norm estimate.
    reconstruct_iterate:
        Optional zero-argument callable materializing the *current*
        least-squares iterate (cycle-start ``x`` plus the correction of
        the steps taken so far) -- one back-substitution plus one gemv.
        Resilience checks that need a trusted residual call it instead
        of trusting any recurrence quantity; ``None`` when the scheme
        cannot provide it.
    """

    outer: int
    inner: int
    total_iteration: int
    basis: ops.KrylovBasis
    hessenberg: np.ndarray
    residual_norm: float
    reconstruct_iterate: Optional[object] = None


class IterationScheme:
    """Strategy interface: the iteration recurrence the engine drives."""

    def run(self, engine: "SolverEngine", b, x, target: float) -> SolveResult:
        raise NotImplementedError


class ArnoldiScheme(IterationScheme):
    """Restarted Arnoldi (the GMRES family), strategies injected.

    Parameters
    ----------
    orthogonalizer, preconditioner:
        The strategy objects (see the module docstring).
    restart:
        Maximum Krylov subspace dimension per cycle.
    maxiter:
        Maximum total inner iterations.
    update_on_breakdown:
        Whether to still attempt the cycle's least-squares update after
        a mid-cycle breakdown (historical GMRES behaviour; FGMRES and
        the pipelined variant skip it).
    """

    def __init__(
        self,
        orthogonalizer: Orthogonalizer,
        preconditioner: PreconditionerStrategy,
        *,
        restart: int = 30,
        maxiter: int = 1000,
        update_on_breakdown: bool = False,
    ):
        if restart <= 0 or maxiter <= 0:
            raise ValueError("restart and maxiter must be positive")
        self.orthogonalizer = orthogonalizer
        self.preconditioner = preconditioner
        self.restart = int(restart)
        self.maxiter = int(maxiter)
        self.update_on_breakdown = bool(update_on_breakdown)

    def run(self, engine: "SolverEngine", b, x, target: float) -> SolveResult:
        operator = engine.operator
        kernels = engine.kernels
        policy = engine.policy
        # Build only the event the policy reads, as the lockstep path
        # does: nothing for the bare solver, the scalar event for
        # policies that ignore the Arnoldi internals.
        observe = None if isinstance(policy, NullPolicy) else policy.observe
        full_state = policy.needs_arnoldi_state
        convergence = engine.convergence
        maxiter = self.maxiter

        residual_norms: List[float] = []
        total_iteration = 0
        converged = False
        breakdown = False
        outer = 0

        while total_iteration < maxiter and not converged and not breakdown:
            # Residual of the current iterate.
            t0 = kernels.tick()
            r = ops.axpby(1.0, b, -1.0, ops.matvec(operator, x))
            kernels.charge("matvec", t0)
            beta = ops.norm(r)
            if not residual_norms:
                residual_norms.append(beta)
            if convergence.is_met(beta, target):
                converged = True
                break
            m = cycle_dimension(self.restart, maxiter, total_iteration)
            basis = ops.allocate_basis(b, m + 1)
            basis.append(r, scale=1.0 / beta)
            self.preconditioner.start_cycle(engine, b, m)
            lsq = HessenbergLsq(m, beta)
            inner_used = 0
            cycle_residual = beta

            for j in range(m):
                # Arnoldi step: candidate direction, orthogonalize,
                # incremental QR of the Hessenberg matrix.
                w = self.preconditioner.candidate(engine, basis, j)
                coefficients, h_next, happy = self.orthogonalizer.step(
                    engine, basis, w, j, cycle_residual
                )
                cycle_residual = lsq.append_column(coefficients, h_next)

                inner_used = j + 1
                total_iteration += 1
                residual_norms.append(cycle_residual)

                if observe is not None and full_state:

                    def reconstruct_iterate(j=j, basis=basis, lsq=lsq, x=x):
                        # Current LS iterate: cycle-start x plus the
                        # correction of the j+1 steps taken so far.
                        y = lsq.solve(j + 1)
                        return self.preconditioner.apply_update(engine, x, basis, y, j + 1)

                    observe(GmresState(outer, j, total_iteration, basis, lsq.hessenberg,
                                       cycle_residual, reconstruct_iterate))
                elif observe is not None:
                    observe(IterationEvent(total_iteration, cycle_residual, j, outer))

                if not math.isfinite(cycle_residual):
                    breakdown = True
                    break
                if convergence.is_met(cycle_residual, target) or happy:
                    break
                if total_iteration >= maxiter:
                    break

            # Form the cycle's correction: solve the small least-squares
            # system and map it back through the preconditioner strategy.
            if inner_used > 0 and (self.update_on_breakdown or not breakdown):
                try:
                    y = lsq.solve(inner_used)
                except np.linalg.LinAlgError:
                    breakdown = True
                    y = None
                if y is not None and np.all(np.isfinite(y)):
                    x = self.preconditioner.apply_update(engine, x, basis, y, inner_used)
                else:
                    breakdown = True

            # True residual check at the cycle boundary.
            t0 = kernels.tick()
            true_residual = ops.norm(ops.axpby(1.0, b, -1.0, ops.matvec(operator, x)))
            kernels.charge("matvec", t0)
            residual_norms[-1] = true_residual
            if convergence.is_met(true_residual, target):
                converged = True
            outer += 1

        info = {"restarts": outer, "target": target}
        self.preconditioner.contribute_info(info)
        self.orthogonalizer.contribute_info(info)
        info["kernels"] = kernels.as_dict()
        return SolveResult(
            x=x,
            converged=converged,
            iterations=total_iteration,
            residual_norms=residual_norms,
            breakdown=breakdown,
            info=info,
        )


class SolverEngine:
    """One configured solve: operator + scheme + convergence + policy.

    The engine owns the pieces every solver shares -- the kernel
    counters (pre-seeded with the canonical kernel names so all solvers
    report one schema), target resolution and initial-guess handling --
    and delegates the iteration recurrence to its
    :class:`IterationScheme`.

    Engines are single-shot: build one per solve (strategy objects
    carry per-solve state such as the flexible ``Z`` block or the
    pipelined reduction-wave counters).
    """

    def __init__(
        self,
        operator,
        scheme: IterationScheme,
        *,
        convergence: Optional[ConvergenceTest] = None,
        policy: Optional[ResiliencePolicy] = None,
    ):
        self.operator = operator
        self.scheme = scheme
        self.convergence = convergence if convergence is not None else ConvergenceTest()
        self.policy = policy if policy is not None else NullPolicy()
        self.kernels = canonical_kernel_counters()

    def solve(self, b, x0=None) -> SolveResult:
        """Solve ``A x = b`` and return the scheme's :class:`SolveResult`."""
        target = self.convergence.resolve_target(ops.norm(b))
        x = ops.copy_vector(x0) if x0 is not None else ops.zeros_like(b)
        self.policy.begin_attempt(x)
        try:
            result = self.scheme.run(self, b, x, target)
        except CycleAbandoned as abandoned:
            # The attempt's kernel work travels with the exception so
            # retrying callers can keep their accounting complete.
            abandoned.kernels = self.kernels.as_dict()
            raise
        self.policy.contribute_result(result)
        return result
