"""Named solver registry: every engine configuration under a stable name.

The campaign layer treats *experiments* as first-class sweepable axes
through :mod:`repro.campaign.registry`; this module does the same for
*solvers*.  Each :class:`RegisteredSolver` names one configuration of
the :mod:`repro.krylov.engine` (strategy combination plus resilience
wiring) and exposes a uniform ``solve(operator, b, x0=None, *,
policy=..., **params)`` entry point, so drivers and campaigns resolve
solvers by name and sweep solver x policy x fault-schedule grids
without importing solver modules.

Policies are resolved per solver: every entry lists the policy names it
supports, and :meth:`RegisteredSolver.resolve_policy` maps the generic
sweep values (``"none"``, ``"guard"``, ``"skeptical"``) onto the
strongest supported concrete policy -- full Arnoldi-state skeptical
checks for GMRES, the solver-agnostic residual guard for the rest, and
selective reliability (which is always on) for FT-GMRES.

Preconditioning is declarative too: ``solve(..., precond=...)`` accepts
anything :func:`repro.precond.resolve_preconds` does -- a registry name
(``"jacobi"``), a compact spec string (``"ssor:omega=1.2"``,
``"poly:k=4"``, ``"bjacobi:bs=8"``), a dict, a
:class:`~repro.precond.PrecondSpec`, or an already-built
preconditioner object such as the fault-injecting proxy returned by
:meth:`repro.reliability.ReliabilityDomain.preconditioner`.  Specs are
built against the operator when it is matrix-like; pass the clean
matrix via ``precond_matrix=`` when the operator is wrapped (e.g. an
:class:`~repro.reliability.environment.UnreliableOperator`).  Each
entry's :attr:`RegisteredSolver.precond_param` records which underlying
keyword receives the built object (``preconditioner=`` everywhere
except FGMRES, whose variable preconditioner is its ``inner_solve=``),
and the canonical spec string is recorded in
``result.info["precond"]``.

Precision is the fourth declarative axis: ``solve(..., precision=...)``
accepts anything :func:`repro.reliability.parse_precision` does -- a
registry name (``"fp32"``), a compact spec string
(``"fp32:storage=fp16"``), a dict or a
:class:`~repro.reliability.PrecisionSpec`.  The default (``"fp64"`` or
``None``) leaves the solve bit-for-bit identical to the historical
path; any lower precision casts the operator, right-hand side and
initial guess down before the solve, records the canonical spec string
in ``result.info["precision"]`` and returns the answer cast back to
float64 so callers always receive a double-precision ``x``.

``python -m repro.campaign list`` prints this registry as the solver
table (one row per solver: name, family, supported policies, title)
next to the experiment, fault-model and preconditioner tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.krylov.result import SolveResult

__all__ = [
    "RegisteredSolver",
    "SolverRegistry",
    "default_solver_registry",
    "solver_names",
    "batch_solve",
    "BATCHABLE_SOLVERS",
]

# Generic policy axis values campaigns sweep; resolve_policy maps them
# onto each solver's concrete policies.
GENERIC_POLICIES = ("none", "guard", "skeptical")


def _guarded(solve_fn: Callable) -> Callable:
    """Wrap a policy-aware solver function with residual-guard support."""
    from repro.krylov.engine import ResidualGuardPolicy

    def run(operator, b, x0, policy: str, options: dict, params: dict) -> SolveResult:
        if policy == "none":
            return solve_fn(operator, b, x0, **params)
        guard = ResidualGuardPolicy(**options)
        return solve_fn(operator, b, x0, policy=guard, **params)

    return run


@dataclass(frozen=True)
class RegisteredSolver:
    """One named solver configuration.

    Attributes
    ----------
    name:
        Stable registry key (``"gmres"``, ``"pipelined_cg"``, ...).
    family:
        ``"gmres"`` (nonsymmetric Arnoldi), ``"cg"`` (SPD recurrence)
        or ``"outer_inner"`` (composed reliable-outer solvers).
    title:
        One-line human description.
    policies:
        Concrete resilience-policy names this solver supports; the
        first entry is the default.
    spd_only:
        Whether the solver requires a symmetric positive definite
        operator.
    distributed:
        Whether the solver runs on the simulated distributed backend.
    experiments:
        Experiment ids whose benchmarks exercise this solver (drives
        ``run_benchmarks.py --solver``).
    precond_param:
        The underlying solver keyword that receives a preconditioner
        built from ``solve(..., precond=...)`` (``"preconditioner"``
        for the fixed-preconditioner solvers, ``"inner_solve"`` for
        FGMRES, whose preconditioner is the variable inner solve).
    """

    name: str
    family: str
    title: str
    policies: Tuple[str, ...]
    _solve: Callable = field(repr=False)
    spd_only: bool = False
    distributed: bool = True
    experiments: Tuple[str, ...] = ()
    precond_param: str = "preconditioner"

    @property
    def default_policy(self) -> str:
        return self.policies[0]

    def resolve_policy(self, requested: Optional[str]) -> str:
        """Map a requested (possibly generic) policy onto a supported one.

        ``None`` selects the solver default.  Generic values degrade
        gracefully: ``"skeptical"`` prefers the full Arnoldi-state
        checks, then the residual guard, then whatever resilience the
        solver has built in; ``"guard"`` prefers the residual guard.
        Concrete names must be supported exactly.
        """
        if requested is None:
            return self.default_policy
        requested = requested.lower()
        if requested in self.policies:
            return requested
        preferences = {
            "none": ("none",),
            "guard": ("residual_guard", "none"),
            "skeptical": ("skeptical_restart", "residual_guard", "srp"),
        }
        for candidate in preferences.get(requested, ()):
            if candidate in self.policies:
                return candidate
        if requested in GENERIC_POLICIES:
            # Solver has a single built-in behaviour (e.g. FT-GMRES's
            # selective reliability); every generic request maps to it.
            return self.default_policy
        raise ValueError(
            f"solver {self.name!r} does not support policy {requested!r} "
            f"(supported: {self.policies}; generic: {GENERIC_POLICIES})"
        )

    def solve(
        self,
        operator,
        b,
        x0=None,
        *,
        policy: Optional[str] = None,
        policy_options: Optional[Mapping] = None,
        precond=None,
        precond_matrix=None,
        precision=None,
        **params,
    ) -> SolveResult:
        """Run this solver with a named resilience policy.

        ``params`` are forwarded to the underlying solver function;
        ``policy_options`` configure the policy object (e.g. the
        residual guard's ``growth_factor``).  ``precond`` is anything
        :func:`repro.precond.resolve_preconds` accepts (registry name,
        compact spec string, dict, :class:`~repro.precond.PrecondSpec`
        or a built preconditioner object); spec-shaped values are built
        against ``precond_matrix`` when given, else against the
        operator itself.  ``precision`` is anything
        :func:`repro.reliability.parse_precision` accepts; ``None`` and
        ``"fp64"`` leave the solve bit-for-bit identical to the
        historical path, while lower precisions cast the operator and
        vectors down (spec-shaped preconditioners are then built from
        the cast operator, so ``M^{-1} v`` runs at the swept precision
        too) and the answer is cast back to float64.  The effective
        policy name is recorded in ``result.info["policy_name"]``, the
        preconditioner in ``result.info["precond"]`` and -- whenever
        ``precision`` was requested -- the canonical precision string
        in ``result.info["precision"]``.
        """
        precision_label = None
        if precision is not None:
            from repro.reliability.precision import (
                cast_operator,
                cast_vector,
                parse_precision,
            )

            pspec = parse_precision(precision)
            precision_label = pspec.to_string()
            if not pspec.is_default:
                operator = cast_operator(operator, pspec)
                if precond_matrix is not None:
                    precond_matrix = cast_operator(precond_matrix, pspec)
                b = cast_vector(b, pspec)
                if x0 is not None:
                    x0 = cast_vector(x0, pspec)
        precond_label = None
        if precond is not None:
            from repro.precond import parse_precond, resolve_preconds

            built = resolve_preconds(
                precond,
                matrix=precond_matrix if precond_matrix is not None else operator,
            )
            if built is precond:
                # An already-built object passed through; its type is
                # the most descriptive stable label available.
                precond_label = type(precond).__name__
            else:
                precond_label = parse_precond(precond).to_string()
            if built is not None:
                params[self.precond_param] = built
        effective = self.resolve_policy(policy)
        result = self._solve(operator, b, x0, effective, dict(policy_options or {}), dict(params))
        result.info.setdefault("solver_name", self.name)
        result.info["policy_name"] = effective
        if precond_label is not None:
            result.info.setdefault("precond", precond_label)
        if precision_label is not None:
            result.info["precision"] = precision_label
            if isinstance(result.x, np.ndarray) and result.x.dtype != np.float64:
                result.x = np.asarray(result.x, dtype=np.float64)
        return result


class SolverRegistry:
    """Index of named solver configurations."""

    def __init__(self, solvers: Optional[List[RegisteredSolver]] = None):
        self._by_name: Dict[str, RegisteredSolver] = {}
        for solver in solvers if solvers is not None else _builtin_solvers():
            self.add(solver)

    def add(self, solver: RegisteredSolver) -> None:
        key = solver.name.lower()
        if key in self._by_name:
            raise ValueError(f"duplicate solver name {key!r}")
        self._by_name[key] = solver

    def get(self, name: str) -> RegisteredSolver:
        try:
            return self._by_name[name.lower()]
        except KeyError:
            raise KeyError(
                f"unknown solver {name!r} (known: {', '.join(self.names())})"
            ) from None

    def names(self) -> List[str]:
        return sorted(self._by_name)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._by_name

    def __iter__(self):
        return iter(sorted(self._by_name.values(), key=lambda s: s.name))

    def __len__(self) -> int:
        return len(self._by_name)


def _builtin_solvers() -> List[RegisteredSolver]:
    # Local imports: the registry is imported by repro.krylov.__init__.
    from repro.ftgmres.outer import ft_gmres
    from repro.krylov.cg import cg
    from repro.krylov.fgmres import fgmres
    from repro.krylov.gmres import gmres
    from repro.krylov.pipelined_cg import pipelined_cg
    from repro.krylov.pipelined_gmres import pipelined_gmres
    from repro.skeptical.gmres_sdc import sdc_detecting_gmres

    def solve_sdc(operator, b, x0, policy, options, params):
        response = {"skeptical_restart": "restart", "skeptical_abort": "abort"}[policy]
        return sdc_detecting_gmres(operator, b, x0, policy=response, **options, **params)

    def solve_ft(operator, b, x0, policy, options, params):
        return ft_gmres(operator, b, x0, **options, **params)

    guard_only = ("none", "residual_guard")
    return [
        RegisteredSolver(
            name="gmres",
            family="gmres",
            title="Restarted GMRES, right preconditioning, blocking CGS2",
            policies=("none", "residual_guard", "skeptical_restart", "skeptical_abort"),
            _solve=_dispatch_gmres(gmres, sdc_detecting_gmres),
            experiments=("E1", "E3", "E6", "E8", "E9", "E10"),
        ),
        RegisteredSolver(
            name="fgmres",
            family="gmres",
            title="Flexible GMRES (variable preconditioner, reliable outer)",
            policies=guard_only,
            _solve=_guarded(fgmres),
            experiments=("E6", "E8", "E9", "E10"),
            precond_param="inner_solve",
        ),
        RegisteredSolver(
            name="pipelined_gmres",
            family="gmres",
            title="Single-reduction (latency-tolerant) GMRES",
            policies=guard_only,
            _solve=_guarded(pipelined_gmres),
            experiments=("E3", "E8", "E9"),
        ),
        RegisteredSolver(
            name="cg",
            family="cg",
            title="Preconditioned conjugate gradients",
            policies=guard_only,
            _solve=_guarded(cg),
            spd_only=True,
            experiments=("E3", "E5", "E8", "E9", "E10"),
        ),
        RegisteredSolver(
            name="pipelined_cg",
            family="cg",
            title="Pipelined (overlapped single-reduction) CG",
            policies=guard_only,
            _solve=_guarded(pipelined_cg),
            spd_only=True,
            experiments=("E3", "E8", "E9"),
        ),
        RegisteredSolver(
            name="sdc_gmres",
            family="gmres",
            title="SDC-detecting (skeptical) GMRES",
            policies=("skeptical_restart", "skeptical_abort"),
            _solve=solve_sdc,
            distributed=False,
            experiments=("E1", "E8"),
        ),
        RegisteredSolver(
            name="ft_gmres",
            family="outer_inner",
            title="Fault-tolerant GMRES (selective reliability, unreliable inner)",
            policies=("srp",),
            _solve=solve_ft,
            distributed=False,
            experiments=("E6", "E8"),
        ),
    ]


def _dispatch_gmres(gmres_fn, sdc_fn) -> Callable:
    """GMRES dispatch: plain / guarded / full skeptical by policy name."""
    from repro.krylov.engine import ResidualGuardPolicy

    def run(operator, b, x0, policy, options, params):
        if policy == "none":
            return gmres_fn(operator, b, x0, **params)
        if policy == "residual_guard":
            return gmres_fn(operator, b, x0, policy=ResidualGuardPolicy(**options), **params)
        response = {"skeptical_restart": "restart", "skeptical_abort": "abort"}[policy]
        params.pop("gram_schmidt", None)  # the skeptical solver pins CGS2
        # Uniform solve() contract: a gmres iteration_hook becomes the
        # skeptical solver's pre-check hook (same run-before-checks slot).
        hook = params.pop("iteration_hook", None)
        if hook is not None and "fault_hook" not in params:
            params["fault_hook"] = hook
        return sdc_fn(operator, b, x0, policy=response, **options, **params)

    return run


#: Solvers with a batched lockstep engine path; everything else falls
#: back to per-lane sequential solves inside :func:`batch_solve`.
BATCHABLE_SOLVERS = ("gmres", "cg", "sdc_gmres")

#: Concrete policy names the lockstep lanes support.  ``skeptical_abort``
#: is deliberately absent: aborting one lane must not kill its siblings,
#: so those solves always run sequentially.
_BATCHABLE_POLICIES = ("none", "residual_guard", "skeptical_restart")

# SdcLaneSpec fields that may arrive via solver params / policy options.
_SDC_LANE_FIELDS = (
    "tol",
    "atol",
    "restart",
    "maxiter",
    "preconditioner",
    "check_period",
    "orthogonality_period",
    "residual_check_period",
    "hessenberg_safety",
    "orthogonality_tol",
    "max_restarts_on_detection",
    "operator_norm",
    "fault_hook",
)


def _is_batchable(entry: RegisteredSolver, effective: str, merged: Mapping) -> bool:
    """Whether one lane's (solver, policy, params) has a lockstep path."""
    if entry.name not in BATCHABLE_SOLVERS:
        return False
    if effective not in _BATCHABLE_POLICIES:
        return False
    if entry.family == "gmres" and effective in ("none", "residual_guard"):
        from repro.krylov.engine.batch import BATCH_GRAM_SCHMIDT

        if merged.get("gram_schmidt", "cgs2") not in BATCH_GRAM_SCHMIDT:
            return False
    return True


def _default_precision(value) -> bool:
    """Whether a lane's precision request keeps the float64 fast path."""
    if value is None:
        return True
    from repro.reliability.precision import parse_precision

    return parse_precision(value).is_default


def _precond_label(precond) -> str:
    """The ``info["precond"]`` label, mirroring ``RegisteredSolver.solve``."""
    if hasattr(precond, "apply") or callable(precond):
        return type(precond).__name__
    from repro.precond import parse_precond

    return parse_precond(precond).to_string()


def batch_solve(
    solver: str,
    operator,
    bs,
    x0s=None,
    *,
    policy: Optional[str] = None,
    policy_options: Optional[Mapping] = None,
    precond=None,
    precond_matrix=None,
    precision=None,
    lane_params: Optional[List[Mapping]] = None,
    operators: Optional[List] = None,
    registry: Optional[SolverRegistry] = None,
    **params,
) -> List[SolveResult]:
    """Solve ``S`` independent right-hand sides of one named solver.

    The batched counterpart of :meth:`RegisteredSolver.solve`: the same
    declarative surface (named solver, named policy, ``policy_options``,
    declarative ``precond``), applied to a list of right-hand sides
    ``bs`` (optionally per-lane ``x0s`` and per-lane parameter
    overrides ``lane_params``, e.g. a per-scenario ``iteration_hook``).
    Results are bit-identical to ``S`` separate ``solve`` calls.

    Lanes whose configuration has a lockstep path (``gmres``/``cg``/
    ``sdc_gmres`` with ``none``/``residual_guard``/``skeptical_restart``
    and a batchable Gram-Schmidt kernel) advance together through
    :func:`repro.krylov.engine.batch.run_arnoldi_batch` /
    :func:`~repro.krylov.engine.batch.run_cg_batch`; anything else
    (``skeptical_abort``, ``gram_schmidt="modified"``, the pipelined /
    flexible / distributed solvers) falls back to per-lane sequential
    solves, so callers never need to special-case batchability.  A
    single right-hand side always takes the sequential path: the
    lockstep engine only pays off across lanes, so a driver can route
    its ``S = 1`` run through this function at no cost.

    ``precision`` (batch-wide, or per lane via a ``"precision"`` key in
    ``lane_params``) is the same declarative axis as
    :meth:`RegisteredSolver.solve`.  The lockstep engine is pinned to
    the bit-exact float64 contract, so any lane requesting a
    non-default precision routes the whole batch through the
    sequential fallback -- results stay identical to ``S`` separate
    ``solve`` calls either way.  (On current NumPy the stacked fp32
    kernels do match the per-lane forms bit for bit, so lifting this
    restriction is measured headroom, not a correctness risk.)

    ``operators`` optionally gives each lane its own operator (e.g. a
    per-scenario fault-injecting wrapper); the shared ``operator`` then
    only anchors the batch (and builds spec-shaped preconditioners when
    no ``precond_matrix`` is given).  Lanes with private operators still
    advance in lockstep, each applying its own operator per step.
    """
    entry = (registry or default_solver_registry()).get(solver)
    effective = entry.resolve_policy(policy)
    options = dict(policy_options or {})
    bs = list(bs)
    n_lanes = len(bs)
    if x0s is None:
        x0s = [None] * n_lanes
    elif len(x0s) != n_lanes:
        raise ValueError("x0s must match the number of right-hand sides")
    if lane_params is None:
        lane_params = [{}] * n_lanes
    elif len(lane_params) != n_lanes:
        raise ValueError("lane_params must match the number of right-hand sides")
    if operators is None:
        lane_operators = [None] * n_lanes
    elif len(operators) != n_lanes:
        raise ValueError("operators must match the number of right-hand sides")
    else:
        lane_operators = list(operators)

    merged_all = [dict(params, **dict(extra)) for extra in lane_params]
    lane_precisions = [merged.pop("precision", precision) for merged in merged_all]
    if not (
        n_lanes > 1
        and all(_default_precision(value) for value in lane_precisions)
        and all(_is_batchable(entry, effective, merged) for merged in merged_all)
    ):
        # Sequential fallback: exactly S independent solve() calls.  A
        # single lane always takes it: lockstep at S=1 costs 2.5-4.7x
        # the sequential engine for the same bits.
        return [
            entry.solve(
                lane_op if lane_op is not None else operator,
                b,
                x0,
                policy=effective,
                policy_options=options,
                precond=merged.pop("precond", precond),
                precond_matrix=precond_matrix,
                precision=lane_precision,
                **merged,
            )
            for b, x0, merged, lane_op, lane_precision in zip(
                bs, x0s, merged_all, lane_operators, lane_precisions
            )
        ]

    from repro.krylov.engine import ResidualGuardPolicy
    from repro.krylov.engine.batch import (
        CgLaneSpec,
        GmresLaneSpec,
        SdcLaneSpec,
        run_arnoldi_batch,
        run_cg_batch,
    )
    from repro.precond import resolve_preconds

    precond_label = None
    specs = []
    for b, x0, merged, lane_op in zip(bs, x0s, merged_all, lane_operators):
        # Preconditioners are resolved per lane, exactly as S separate
        # solve() calls would build them (stateful injecting proxies
        # must not be shared across lanes).
        lane_precond = merged.pop("precond", precond)
        built = None
        if lane_precond is not None:
            built = resolve_preconds(
                lane_precond,
                matrix=precond_matrix if precond_matrix is not None else operator,
            )
            if precond_label is None:
                precond_label = _precond_label(lane_precond)
        if built is not None:
            merged["preconditioner"] = built
        if entry.family == "cg":
            guard = ResidualGuardPolicy(**options) if effective == "residual_guard" else None
            specs.append(CgLaneSpec(b=b, x0=x0, policy=guard, operator=lane_op, **merged))
        elif effective == "skeptical_restart":
            # Mirror _dispatch_gmres: CGS2 is pinned, and a generic
            # iteration hook becomes the pre-check fault hook.
            merged.pop("gram_schmidt", None)
            hook = merged.pop("iteration_hook", None)
            if hook is not None and "fault_hook" not in merged:
                merged["fault_hook"] = hook
            merged.update(options)
            unknown = set(merged) - set(_SDC_LANE_FIELDS)
            if unknown:
                raise TypeError(f"unsupported skeptical solver options: {sorted(unknown)}")
            specs.append(SdcLaneSpec(b=b, x0=x0, operator=lane_op, **merged))
        else:
            guard = ResidualGuardPolicy(**options) if effective == "residual_guard" else None
            specs.append(GmresLaneSpec(b=b, x0=x0, policy=guard, operator=lane_op, **merged))

    if entry.family == "cg":
        results = run_cg_batch(operator, specs)
    else:
        results = run_arnoldi_batch(operator, specs)
    for result, lane_precision in zip(results, lane_precisions):
        result.info.setdefault("solver_name", entry.name)
        result.info["policy_name"] = effective
        if precond_label is not None:
            result.info.setdefault("precond", precond_label)
        if lane_precision is not None:
            # Lanes only reach the lockstep engine with the default
            # precision; mirror the label solve() would have recorded.
            from repro.reliability.precision import parse_precision

            result.info["precision"] = parse_precision(lane_precision).to_string()
    return results


_DEFAULT: Optional[SolverRegistry] = None


def default_solver_registry() -> SolverRegistry:
    """The process-wide registry of named solver configurations."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = SolverRegistry()
    return _DEFAULT


def solver_names() -> List[str]:
    """Sorted names of all registered solvers."""
    return default_solver_registry().names()
