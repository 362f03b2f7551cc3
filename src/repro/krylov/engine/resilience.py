"""Resilience-policy adapters of the solver engine.

The paper's thesis is that resilience is an *algorithmic layer*: the
same solver can run bare, with cheap skeptical checks, or inside a
selective-reliability harness, and the choice should be a composition,
not a fork of the solver source.  Before the engine existed, that
wiring was scattered -- GMRES took a ``GmresState`` hook, FGMRES/CG
took ``(iteration, residual)`` callbacks, the SDC solver hand-rolled a
monitor adapter, and the SRP layer wrapped operators ad hoc.

A :class:`ResiliencePolicy` unifies all of it behind one ``observe``
call per inner iteration.  The engine constructs an iteration event
(the full :class:`~repro.krylov.engine.core.GmresState` for
Arnoldi-type schemes, a scalar :class:`IterationEvent` for the CG
recurrences) and hands it to the policy, which may

* record/report (detection-only policies such as
  :class:`ResidualGuardPolicy`),
* mutate the live solver state through the event's basis/Hessenberg
  views (fault-injection campaigns),
* raise :class:`CycleAbandoned` to discard the current Krylov cycle
  (the skeptical *restart* response), or
* re-raise :class:`~repro.skeptical.policies.SkepticalAbort` (the
  *abort* response).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.krylov import ops

__all__ = [
    "IterationEvent",
    "CycleAbandoned",
    "ResiliencePolicy",
    "NullPolicy",
    "CallbackPolicy",
    "CompositePolicy",
    "ResidualGuardPolicy",
    "SkepticalGmresPolicy",
    "FaultInjectionPolicy",
    "compose_policy",
    "reconstructed_residual",
]


@dataclass
class IterationEvent:
    """Minimal per-iteration view for solvers without Arnoldi state."""

    total_iteration: int
    residual_norm: float
    inner: int = 0
    outer: int = 0
    basis: Optional[object] = None
    hessenberg: Optional[object] = None
    reconstruct_iterate: Optional[object] = None


class CycleAbandoned(Exception):
    """Raised by a policy to discard the current Krylov cycle.

    The current iterate is still valid (it was formed before the
    suspected corruption), so the caller restarts the solve from it --
    "rolling back to a previous valid state" at the cost of one wasted
    cycle.  The engine attaches the abandoned attempt's kernel-counter
    payload as :attr:`kernels` before re-raising, so retrying callers
    keep their work accounting complete.
    """

    kernels: Optional[dict] = None


class ResiliencePolicy:
    """Base policy: observes iteration events; default is inert."""

    name = "none"

    #: Whether :meth:`observe` reads the Arnoldi internals (basis,
    #: Hessenberg, reconstruct closure) of its events.  The batched
    #: lockstep path (:mod:`repro.krylov.engine.batch`) skips building
    #: the full per-lane :class:`~repro.krylov.engine.core.GmresState`
    #: for policies that only look at the scalar fields -- same
    #: observations, less per-iteration interpreter work.  Conservative
    #: default: assume the state is needed.
    needs_arnoldi_state = True

    def begin_attempt(self, x) -> None:
        """Called when a (re)solve attempt starts from iterate ``x``."""

    def observe(self, event) -> None:
        """Called once per inner iteration with the iteration event."""

    def contribute_result(self, result) -> None:
        """Fold policy bookkeeping into a finished ``SolveResult``."""


class NullPolicy(ResiliencePolicy):
    """No resilience instrumentation (the bare solver)."""

    needs_arnoldi_state = False


class CallbackPolicy(ResiliencePolicy):
    """Adapts a user iteration hook to the policy protocol.

    ``style="state"`` calls ``callback(event)`` with the full event
    (the historical :func:`repro.krylov.gmres.gmres` hook signature);
    ``style="scalar"`` calls ``callback(total_iteration,
    residual_norm)`` (the FGMRES/pipelined/CG signature).
    """

    name = "callback"

    def __init__(self, callback: Callable, style: str = "state"):
        if style not in ("state", "scalar"):
            raise ValueError("style must be 'state' or 'scalar'")
        self.callback = callback
        self.style = style

    @property
    def needs_arnoldi_state(self) -> bool:
        # A scalar-style callback never sees the event object at all.
        return self.style == "state"

    @classmethod
    def from_hook(cls, hook: Optional[Callable], style: str) -> ResiliencePolicy:
        """Wrap ``hook`` (or return the inert policy for ``None``)."""
        return NullPolicy() if hook is None else cls(hook, style)

    def observe(self, event) -> None:
        if self.style == "state":
            self.callback(event)
        else:
            self.callback(event.total_iteration, event.residual_norm)


class CompositePolicy(ResiliencePolicy):
    """Run several policies in order (e.g. inject faults, then check)."""

    name = "composite"

    def __init__(self, policies: Sequence[ResiliencePolicy]):
        self.policies = list(policies)

    @property
    def needs_arnoldi_state(self) -> bool:
        return any(policy.needs_arnoldi_state for policy in self.policies)

    def begin_attempt(self, x) -> None:
        for policy in self.policies:
            policy.begin_attempt(x)

    def observe(self, event) -> None:
        for policy in self.policies:
            policy.observe(event)

    def contribute_result(self, result) -> None:
        for policy in self.policies:
            policy.contribute_result(result)


def compose_policy(
    policy: Optional[ResiliencePolicy],
    iteration_hook: Optional[Callable],
    style: str,
) -> ResiliencePolicy:
    """Merge an explicit policy with a legacy iteration hook.

    The hook (adapted through :class:`CallbackPolicy` with the solver's
    historical ``style``) runs *before* the policy, preserving the
    inject-then-check ordering the fault campaigns rely on.
    """
    hook_policy = CallbackPolicy.from_hook(iteration_hook, style)
    if policy is None:
        return hook_policy
    if iteration_hook is None:
        return policy
    return CompositePolicy([hook_policy, policy])


class ResidualGuardPolicy(ResiliencePolicy):
    """Cheap solver-agnostic SDC detector on the residual recurrence.

    Watches the per-iteration (recurrence) residual norms and flags an
    iteration as suspicious when the value is non-finite or exceeds
    ``growth_factor`` times the best residual seen so far -- the
    signature of a large corrupted coefficient.  O(1) per iteration, no
    access to solver internals, so it composes with *every* registered
    solver (the full Arnoldi-state checks of
    :class:`SkepticalGmresPolicy` remain GMRES-only).

    Detection-only: the guard records and counts, it does not alter the
    iteration (pair it with a restart-capable solver for recovery).
    """

    name = "residual_guard"
    # Observes only the scalar residual/iteration fields.
    needs_arnoldi_state = False

    def __init__(self, growth_factor: float = 1e4):
        if growth_factor <= 1.0:
            raise ValueError("growth_factor must exceed 1")
        self.growth_factor = float(growth_factor)
        self.detections = 0
        self.events: List[dict] = []
        self._best = math.inf

    def observe(self, event) -> None:
        residual = float(event.residual_norm)
        if not math.isfinite(residual) or (
            self._best < math.inf and residual > self.growth_factor * self._best
        ):
            self.detections += 1
            self.events.append(
                {"iteration": int(event.total_iteration), "residual": residual}
            )
            return
        if residual < self._best:
            self._best = residual

    def contribute_result(self, result) -> None:
        result.detected_faults += self.detections
        result.info["residual_guard"] = {
            "detections": self.detections,
            "growth_factor": self.growth_factor,
            "events": list(self.events),
        }


class FaultInjectionPolicy(ResiliencePolicy):
    """Injects declarative faults into the live solver state.

    The engine-side consumer of the reliability layer's fault models:
    every iteration event's newest basis vector (Arnoldi schemes) is
    passed through an injector built from a
    :class:`~repro.reliability.models.FaultModel`, with the iteration
    number as the schedule coordinate.  Composes with detection
    policies through :class:`CompositePolicy` in the usual
    inject-then-check order, so solver, detection policy and fault
    model stay three independent axes.

    Build it from anything :func:`repro.reliability.resolve_faults`
    accepts::

        policy = FaultInjectionPolicy.from_spec(
            "bitflip:p=0.05,bits=52..62", seed=7)
        gmres(A, b, policy=CompositePolicy([policy, ResidualGuardPolicy()]))
    """

    name = "fault_injection"

    def __init__(self, injector):
        self.injector = injector

    @classmethod
    def from_spec(cls, faults, *, rng=None, seed=None, name="engine"):
        """Resolve a fault spec/name/model into an injection policy."""
        # Local import: the reliability layer sits above the engine.
        from repro.reliability.registry import resolve_faults

        model = resolve_faults(faults)
        return cls(model.injector(rng, seed=seed, name=name, target="basis"))

    @property
    def n_injected(self) -> int:
        """Faults injected through this policy so far."""
        return self.injector.n_injected

    def observe(self, event) -> None:
        if event.basis is None:
            return
        target = np.asarray(event.basis[event.inner + 1])
        if target.size == 0:
            return
        self.injector.maybe_inject(target, now=float(event.total_iteration))

    def contribute_result(self, result) -> None:
        result.info["faults_injected"] = int(self.n_injected)


def reconstructed_residual(operator, b, event) -> float:
    """True residual ``||b - A x||`` of the event's current iterate.

    ``x`` comes from ``event.reconstruct_iterate()`` (one
    back-substitution + gemv), so a residual check compares the
    recurrence against the truth of the SAME iterate.  Falls back to
    the recurrence residual when the iterate cannot be reconstructed.
    """
    if event.reconstruct_iterate is None:
        return event.residual_norm
    try:
        x_now = event.reconstruct_iterate()
    except np.linalg.LinAlgError:
        return event.residual_norm
    return float(np.linalg.norm(b - np.asarray(ops.matvec(operator, x_now))))


class SkepticalGmresPolicy(ResiliencePolicy):
    """Runs skeptical checks on every Arnoldi iteration.

    ``monitor`` is either the default check set, an
    :class:`~repro.skeptical.arnoldi_checks.ArnoldiChecks` driven
    through its stacked kernel on views of the live state, or any
    :class:`~repro.skeptical.monitor.SkepticalMonitor`, which receives
    an observation dictionary (basis, Hessenberg, residual history,
    lazy true-residual closure).  A detection becomes either a
    :class:`CycleAbandoned` (``response="restart"``) or a
    :class:`~repro.skeptical.policies.SkepticalAbort` (``"abort"``).
    """

    name = "skeptical"

    def __init__(self, monitor, *, operator, b, response: str = "restart"):
        # Local imports: repro.skeptical imports the krylov layer.
        from repro.skeptical.arnoldi_checks import ArnoldiChecks, observe_arnoldi
        from repro.skeptical.policies import SkepticalAbort

        if response not in ("restart", "abort"):
            raise ValueError("response must be 'restart' or 'abort'")
        self.monitor = monitor
        self.operator = operator
        self.b = b
        self.response = response
        self.residual_history: List[float] = []
        self.detection_restarts = 0
        self._abort = SkepticalAbort
        self._kernel = observe_arnoldi if isinstance(monitor, ArnoldiChecks) else None

    def begin_attempt(self, x) -> None:
        self.residual_history.clear()
        if self._kernel is not None:
            self.monitor.begin_attempt()

    def observe(self, event) -> None:
        if self._kernel is not None:
            if self._kernel(
                (self.monitor,), (0,), event.inner,
                event.basis.array.T[None], event.hessenberg[None],
                (event.residual_norm,),
                lambda _i: reconstructed_residual(self.operator, self.b, event),
            ):
                self._respond(self._abort(self.monitor.last_failure))
            return
        self.residual_history.append(event.residual_norm)
        observation = {
            "basis": event.basis,
            "hessenberg": event.hessenberg,
            "inner": event.inner,
            "residual_norm": event.residual_norm,
            "residual_history": self.residual_history,
            # Reconstructed at cycle starts only; elsewhere the check
            # degenerates to a finiteness test of the recurrence.
            "true_residual": lambda: (
                reconstructed_residual(self.operator, self.b, event)
                if event.inner == 0 else event.residual_norm
            ),
        }
        try:
            self.monitor.observe(observation)
        except self._abort as abort:
            self._respond(abort)

    def _respond(self, abort) -> None:
        if self.response == "abort":
            raise abort
        self.detection_restarts += 1
        raise CycleAbandoned() from None

    def contribute_result(self, result) -> None:
        summary = self.monitor.summary()
        result.detected_faults = self.monitor.n_detections
        result.info.update(
            {
                "detection_restarts": self.detection_restarts,
                "checks_run": summary["checks_run"],
                "check_flops": summary["check_flops"],
            }
        )
