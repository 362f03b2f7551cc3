"""E9 -- Sweepable preconditioners under selective reliability.

The paper's central claim -- *selective reliability* -- is that the
preconditioner is exactly the part of a flexible Krylov solve that can
run unreliably: a corrupted ``M^{-1} v`` only slows convergence, it
never corrupts a converged answer, because the reliable outer
iteration analyzes and, at worst, discards what the preconditioner
returns (conf_hpdc_Heroux13, the FT-GMRES inner/outer argument).  This
driver makes that claim a swept matrix: every requested solver from
:mod:`repro.krylov.registry` x every preconditioner from
:mod:`repro.precond` x one declarative fault spec, with the fault
routed into one of two reliability placements:

* ``target="precond"`` (the selective-reliability placement): the
  preconditioner built from the clean matrix is wrapped in
  :meth:`~repro.reliability.ReliabilityDomain.preconditioner`, so only
  ``M^{-1} v`` passes through the unreliable domain while the operator,
  the Arnoldi/CG recurrences and the updates stay reliable.
* ``target="operator"`` (the control placement): the *same* fault model
  corrupts the operator application instead -- data the solvers must
  trust -- via the fault model's selective-reliability environment,
  with the preconditioner left clean.

Everything is resolved by name: solvers through the solver registry,
preconditioners through :func:`repro.precond.resolve_preconds` (so the
``preconds`` axis takes registry names like ``"bjacobi8"`` and inline
specs like ``"ssor:omega=1.2"`` interchangeably) and faults through
:func:`repro.reliability.resolve_faults`.  Each (solver,
preconditioner) cell draws its own canonical fault stream, and each
outcome is classified against a trusted direct solution.

``fgmres`` receives the wrapped preconditioner as its variable inner
solve (``precond_param="inner_solve"``); every other solver --
including ``ft_gmres``, whose inner solve is an inner GMRES that
*applies* the preconditioner -- routes it to its ``preconditioner=``
keyword and applies it as ``M`` every iteration.  The table therefore
shows the paper's argument as data: under ``target="precond"`` the
flexible solvers stay correct (at worst slower), while under
``target="operator"`` the same fault rate degrades or destroys
convergence across the board.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.experiments.common import (
    ExperimentResult,
    ExperimentSpec,
    run_cohorts,
    trusted_scores,
    unreliable_domains,
)
from repro.krylov.registry import batch_solve, default_solver_registry
from repro.linalg.matgen import poisson_2d
from repro.precond import parse_precond, resolve_preconds
from repro.reliability.registry import resolve_faults
from repro.reliability.seeding import derive_fault_seed
from repro.utils.rng import RngFactory
from repro.utils.tables import Table
from repro.utils.validation import check_in

__all__ = ["run", "run_batch", "SPEC"]

SPEC = ExperimentSpec(
    experiment="E9",
    name="precond",
    title="Sweepable preconditioners: solver x preconditioner x fault matrix "
          "under selective reliability",
    tags=("precond", "registry", "srp", "faults"),
    smoke={"grid": 6, "solvers": ("gmres", "cg"),
           "preconds": ("none", "jacobi"), "faults": "none"},
    golden={"grid": 8,
            "preconds": ("none", "jacobi", "ssor", "poly2", "bjacobi8"),
            "faults": "bitflip:p=0.05,bits=52..62", "seed": 2013},
)

# Solvers swept by default: every registry entry that takes a fixed or
# flexible preconditioner on the sequential backend and is comparable
# under one (tol, maxiter) budget.  ft_gmres/sdc_gmres still work when
# requested explicitly; they are excluded from the default sweep
# because their resilience machinery (inner budgets, skeptical
# restarts) makes their rows answer a different question.
_DEFAULT_SOLVERS = ("gmres", "fgmres", "pipelined_gmres", "cg", "pipelined_cg")


def run(
    *,
    grid: int = 8,
    solvers: Optional[Union[str, Sequence[str]]] = None,
    preconds: Optional[Union[str, Sequence[str]]] = None,
    faults=None,
    target: str = "precond",
    tol: float = 1e-8,
    maxiter: int = 400,
    error_tolerance: float = 1e-5,
    seed: int = 2013,
) -> ExperimentResult:
    """Run experiment E9 and return its table.

    Parameters
    ----------
    grid:
        2-D Poisson grid size (SPD, so every swept solver applies).
    solvers:
        Solver-registry names to run (string or sequence; ``None`` =
        the default preconditionable set).
    preconds:
        The preconditioner axis: registry names (``"jacobi"``,
        ``"bjacobi8"``) or inline specs (``"ssor:omega=1.2"``,
        ``"poly:k=4"``), string or sequence; ``None`` = every
        registered preconditioner.
    faults:
        The fault axis: a registered fault-model name, compact spec
        string, dict or :class:`~repro.reliability.spec.FaultSpec`.
        ``None`` runs fault-free.  Only the spec's soft component
        corrupts data here; hard-fault-only specs run clean.
    target:
        Where the fault lands: ``"precond"`` routes it into the
        unreliable domain wrapping ``M^{-1} v`` (selective
        reliability; the ``none`` preconditioner then runs clean, as
        its control row), ``"operator"`` corrupts the operator
        application instead with the preconditioner left clean.
    tol, maxiter:
        Solver settings (mapped onto outer/inner limits for FT-GMRES).
    error_tolerance:
        Trusted-error threshold of the outcome classification.
    seed:
        Root seed: right-hand side and per-cell fault streams.
    """
    return _run_cohort([dict(locals())])[0]


def run_batch(params_list: List[Mapping]) -> List[ExperimentResult]:
    """Run several E9 scenarios in lockstep; results identical to :func:`run`.

    Scenarios that agree on every parameter except ``seed`` share one
    cohort; any other set runs one scenario at a time
    (:func:`~repro.experiments.common.run_cohorts`).
    """
    return run_cohorts(run, _run_cohort, params_list)


_CLAIM = (
    "Selective reliability: the preconditioner is the part of a flexible "
    "Krylov solve that can run unreliably -- a corrupted M^-1 v only slows "
    "convergence, while the same fault on the trusted operator degrades "
    "or destroys the answer."
)


def _run_cohort(scenarios: List[Mapping]) -> List[ExperimentResult]:
    """Run scenarios that differ only in ``seed``, one lane each.

    Each (solver, preconditioner) cell solves every lane in one
    :func:`repro.krylov.registry.batch_solve` call.  Selective
    reliability stays per lane: every lane gets its own preconditioner,
    built from the clean matrix and wrapped in its own unreliable
    domain, or its own fault-injecting operator when the fault targets
    the operator, each seeded from the lane's own scenario.
    """
    shared = scenarios[0]
    target = shared["target"]
    tol = shared["tol"]
    maxiter = shared["maxiter"]
    seeds = [p["seed"] for p in scenarios]

    check_in(target, ("precond", "operator"), "target")
    registry = default_solver_registry()
    solvers = shared["solvers"]
    if solvers is None:
        solver_list = list(_DEFAULT_SOLVERS)
    elif isinstance(solvers, str):
        solver_list = [solvers]
    else:
        solver_list = list(solvers)
    preconds = shared["preconds"]
    if preconds is None:
        from repro.precond import precond_names

        precond_list = precond_names()
    elif isinstance(preconds, str):
        precond_list = [preconds]
    else:
        precond_list = list(preconds)

    fault_model = resolve_faults(shared["faults"])
    soft_model = fault_model.soft_component()

    matrix = poisson_2d(shared["grid"])
    b_list = [RngFactory(s).spawn("rhs").standard_normal(matrix.n_rows) for s in seeds]
    scores = trusted_scores(matrix, b_list, shared["error_tolerance"])

    tables = [
        Table(
            ["solver", "precond", "iterations", "converged", "faults", "error",
             "outcome"],
            title=f"E9: solver x preconditioner x fault matrix "
                  f"(faults target the {target})",
        )
        for _ in scenarios
    ]
    for solver_name in solver_list:
        solver = registry.get(solver_name)
        for precond_name in precond_list:
            # Setup runs in reliable mode (the SRP assumption): the
            # preconditioner is always built from the clean matrix, once
            # per lane -- stateful preconditioners (and the injecting
            # domain proxies around them) must not be shared.
            builts = [resolve_preconds(precond_name, matrix=matrix) for _ in seeds]
            precond_label = parse_precond(precond_name).to_string()
            fault_seeds = [
                derive_fault_seed(s, f"{solver.name}/{precond_label}") for s in seeds
            ]
            lane_params = [{"precond": built} for built in builts]
            if solver.name == "ft_gmres":
                params = dict(outer_maxiter=min(maxiter, 50), inner_maxiter=20)
                for lane, fs in zip(lane_params, fault_seeds):
                    lane["seed"] = fs
            else:
                params = {"maxiter": maxiter}

            injecting = []
            operators = None
            if soft_model is not None and target == "precond" and builts[0] is not None:
                injecting = unreliable_domains(
                    soft_model, fault_seeds, f"precond/{solver.name}"
                )
                for lane, domain in zip(lane_params, injecting):
                    lane["precond"] = domain.preconditioner(
                        lane["precond"], flops_per_call=float(matrix.nnz)
                    )
            elif soft_model is not None and target == "operator":
                injecting = [soft_model.environment(seed=fs) for fs in fault_seeds]
                operators = [
                    env.unreliable_operator(matrix.matvec, flops_per_call=2.0 * matrix.nnz)
                    for env in injecting
                ]
            with np.errstate(over="ignore", invalid="ignore"):
                results = batch_solve(
                    solver.name, matrix, b_list, lane_params=lane_params,
                    operators=operators, registry=registry, tol=tol, **params,
                )
            faults_hits = [f.faults_injected() for f in injecting] or [0] * len(seeds)

            for table, score, result, faults_hit in zip(tables, scores, results, faults_hits):
                error_text, outcome, _ = score.score(result, faults_hit)
                table.add_row(
                    solver.name,
                    precond_label,
                    result.iterations,
                    result.converged,
                    faults_hit,
                    error_text,
                    outcome,
                )

    out = []
    for scenario, table, score in zip(scenarios, tables, scores):
        summary = {
            "n_runs": score.n_runs,
            "n_solvers": len(solver_list),
            "n_preconds": len(precond_list),
            "n_correct": score.n_correct,
            "n_silent_corruptions": score.n_silent,
            "total_faults_injected": score.total_faults,
            "target": target,
            "faults": fault_model.describe(),
        }
        parameters = {
            "grid": shared["grid"],
            "solvers": tuple(solver_list),
            "preconds": tuple(precond_list),
            "faults": fault_model.describe(),
            "target": target,
            "tol": tol,
            "maxiter": maxiter,
            "error_tolerance": shared["error_tolerance"],
            "seed": scenario["seed"],
        }
        out.append(ExperimentResult(
            experiment="E9", claim=_CLAIM, table=table, summary=summary,
            parameters=parameters,
        ))
    return out
