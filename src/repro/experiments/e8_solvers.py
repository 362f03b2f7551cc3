"""E8 -- The unified solver engine: solver x policy x fault matrix.

The engine refactor makes solver choice and resilience policy
orthogonal, sweepable axes (paper thesis: resilience is an
*algorithmic layer*, composable with any solver).  This driver
demonstrates it: run every solver in the
:mod:`repro.krylov.registry` -- resolved **by name**, no solver
imports -- on one SPD model problem, under one resilience-policy
setting and one declarative fault model from the
:mod:`repro.reliability.registry`, and classify each outcome against a
trusted direct solution.

Faults are resolved the reliability-layer way, uniformly for every
solver: the ``faults`` spec (a registry name, compact spec string or
dict -- e.g. ``"bitflip:p=0.02,bits=52..62"``) builds a
:class:`~repro.reliability.models.FaultModel` whose environment wraps
the operator in an
:class:`~repro.reliability.environment.UnreliableOperator`.  FT-GMRES
is the exception by design -- selective reliability *is* its policy,
so the fault model's probability is routed into its unreliable inner
domain while its outer iteration stays reliable.  The legacy
``fault_probability``/``bit_range`` parameters remain as the
fault-free/bit-flip shorthand and resolve to the same model.

The table shows, per solver, the effective policy (generic sweep
values degrade to the strongest policy each solver supports), the work
done, how many faults hit the operator, how many were detected, and
the trusted-error classification of
:func:`repro.reliability.sdc.classify_outcome`.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.experiments.common import (
    ExperimentResult,
    ExperimentSpec,
    run_cohorts,
    trusted_scores,
)
from repro.krylov.registry import batch_solve, default_solver_registry
from repro.linalg.matgen import poisson_2d
from repro.reliability.registry import resolve_faults
from repro.reliability.seeding import derive_fault_seed
from repro.skeptical.gmres_sdc import estimate_operator_norm
from repro.utils.rng import RngFactory
from repro.utils.tables import Table

__all__ = ["run", "run_batch", "SPEC"]

SPEC = ExperimentSpec(
    experiment="E8",
    name="solver_matrix",
    title="Unified solver engine: solver x resilience-policy x fault matrix",
    tags=("engine", "registry", "solvers", "faults", "srp"),
    smoke={"grid": 6, "solvers": ("gmres", "cg"), "policy": "none",
           "fault_probability": 0.0},
    golden={"grid": 8, "policy": "skeptical", "fault_probability": 0.02,
            "bit_range": (52, 62), "seed": 2013},
)


def run(
    *,
    grid: int = 8,
    solvers: Optional[Union[str, Sequence[str]]] = None,
    policy: str = "none",
    faults=None,
    fault_probability: float = 0.0,
    bit_range=None,
    tol: float = 1e-8,
    maxiter: int = 400,
    error_tolerance: float = 1e-5,
    seed: int = 2013,
) -> ExperimentResult:
    """Run experiment E8 and return its table.

    Parameters
    ----------
    grid:
        2-D Poisson grid size (SPD, so every registered solver applies).
    solvers:
        Registry names to run (string or sequence; ``None`` = all).
    policy:
        Resilience-policy axis value -- generic (``"none"``,
        ``"guard"``, ``"skeptical"``) or a concrete policy name; each
        solver resolves it to the strongest policy it supports.
    faults:
        The fault axis: a registered fault-model name, compact spec
        string, dict or :class:`~repro.reliability.spec.FaultSpec`
        (e.g. ``"bitflip:p=0.02,bits=52..62"``).  ``None`` builds the
        legacy-equivalent bit-flip model from ``fault_probability`` /
        ``bit_range``.
    fault_probability, bit_range:
        Legacy shorthand for ``faults="bitflip:p=...,bits=..."``;
        ignored when ``faults`` is given.
    tol, maxiter:
        Solver settings (mapped onto outer/inner limits for FT-GMRES).
    error_tolerance:
        Trusted-error threshold of the outcome classification.
    seed:
        Root seed: right-hand side and per-solver fault streams.
    """
    return _run_cohort([dict(locals())])[0]


def run_batch(params_list: List[Mapping]) -> List[ExperimentResult]:
    """Run several E8 scenarios in lockstep; results identical to :func:`run`.

    Scenarios that agree on every parameter except ``seed`` share one
    cohort; any other set runs one scenario at a time
    (:func:`~repro.experiments.common.run_cohorts`).
    """
    return run_cohorts(run, _run_cohort, params_list)


_CLAIM = (
    "Resilience is an algorithmic layer: one solver engine composes every "
    "registered solver with pluggable resilience policies, so solver choice, "
    "policy and fault schedule are independent sweep axes."
)


def _run_cohort(scenarios: List[Mapping]) -> List[ExperimentResult]:
    """Run scenarios that differ only in ``seed``, one lane each.

    Each solver row solves every lane in one
    :func:`repro.krylov.registry.batch_solve` call, with per-lane
    fault-injecting operators (or, for FT-GMRES, per-lane fault seeds
    and SRP environments) carried as lane parameters, so every lane
    draws the fault stream its own scenario defines.
    """
    shared = scenarios[0]
    policy = shared["policy"]
    faults = shared["faults"]
    fault_probability = shared["fault_probability"]
    bit_range = shared["bit_range"]
    tol = shared["tol"]
    maxiter = shared["maxiter"]
    seeds = [p["seed"] for p in scenarios]

    registry = default_solver_registry()
    solvers = shared["solvers"]
    if solvers is None:
        names = registry.names()
    elif isinstance(solvers, str):
        names = [solvers]
    else:
        names = list(solvers)

    if faults is None:
        fault_model = resolve_faults(
            "bitflip:p=0.0",
            p=float(fault_probability),
            bits=tuple(bit_range) if bit_range is not None else None,
        )
    else:
        fault_model = resolve_faults(faults)
    # Operator corruption comes from the spec's soft-fault component;
    # hard-fault-only specs (e.g. pure proc_fail) run the matrix clean.
    soft_model = fault_model.soft_component()
    fault_p = soft_model.probability if soft_model is not None else 0.0
    fault_bits = soft_model.bits if soft_model is not None else None

    matrix = poisson_2d(shared["grid"])
    b_list = [RngFactory(s).spawn("rhs").standard_normal(matrix.n_rows) for s in seeds]
    scores = trusted_scores(matrix, b_list, shared["error_tolerance"])
    # Setup runs in reliable mode (the SkP assumption): the skeptical
    # solvers get their ||A|| estimate from the *clean* matrix, never
    # through the fault-injecting operator wrapper.  The probe draws
    # from a fixed seed and reads only the size of b, so one serves
    # the cohort.
    trusted_norm = estimate_operator_norm(matrix, b_list[0])

    tables = [
        Table(
            ["solver", "policy", "iterations", "converged", "faults", "detected",
             "error", "outcome"],
            title="E8: solver x resilience-policy x fault-schedule matrix",
        )
        for _ in scenarios
    ]
    for name in names:
        solver = registry.get(name)
        fault_seeds = [derive_fault_seed(s, name) for s in seeds]
        environments = None
        operators = None
        if solver.name == "ft_gmres":
            # Selective reliability: faults go to the unreliable inner
            # domain, the outer iteration stays reliable.
            params = dict(outer_maxiter=min(maxiter, 50), inner_maxiter=20,
                          fault_probability=fault_p, bit_range=fault_bits)
            lane_params = [{"seed": fs} for fs in fault_seeds]
            if soft_model is not None and soft_model.kind != "bitflip":
                # Non-bit-flip fault kinds (e.g. value perturbation)
                # supply the whole SRP environment themselves, so
                # ft_gmres sees the same fault model as every other
                # solver in the row.
                for lane, fs in zip(lane_params, fault_seeds):
                    lane["environment"] = soft_model.environment(seed=fs)
        else:
            params = {"maxiter": maxiter}
            lane_params = None
            if soft_model is not None:
                environments = [soft_model.environment(seed=fs) for fs in fault_seeds]
                operators = [
                    env.unreliable_operator(matrix.matvec, flops_per_call=2.0 * matrix.nnz)
                    for env in environments
                ]

        effective_policy = solver.resolve_policy(policy)
        policy_options = (
            {"operator_norm": trusted_norm}
            if effective_policy in ("skeptical_restart", "skeptical_abort")
            else None
        )
        # Exponent flips overflow by design; the trusted-error scoring
        # classifies those answers itself, so the warnings say nothing.
        with np.errstate(over="ignore", invalid="ignore"):
            results = batch_solve(
                name, matrix, b_list, policy=policy, policy_options=policy_options,
                lane_params=lane_params, operators=operators, registry=registry,
                tol=tol, **params,
            )
        if solver.name == "ft_gmres":
            faults_hits = [int(r.info["srp_summary"]["faults_injected"]) for r in results]
        elif environments is not None:
            faults_hits = [env.faults_injected() for env in environments]
        else:
            faults_hits = [0] * len(scenarios)

        for table, score, result, faults_hit in zip(tables, scores, results, faults_hits):
            error_text, outcome, _ = score.score(result, faults_hit)
            table.add_row(
                solver.name,
                result.info["policy_name"],
                result.iterations,
                result.converged,
                faults_hit,
                result.detected_faults,
                error_text,
                outcome,
            )

    out = []
    for scenario, table, score in zip(scenarios, tables, scores):
        summary = {
            "n_solvers": len(names),
            "n_correct": score.n_correct,
            "n_detected_runs": score.n_detected,
            "n_silent_corruptions": score.n_silent,
            "total_faults_injected": score.total_faults,
            "policy": policy,
            "fault_probability": fault_probability if faults is None else fault_p,
        }
        parameters = {
            "grid": shared["grid"],
            "solvers": tuple(names),
            "policy": policy,
            "fault_probability": fault_probability,
            "bit_range": tuple(bit_range) if bit_range is not None else None,
            "tol": tol,
            "maxiter": maxiter,
            "error_tolerance": shared["error_tolerance"],
            "seed": scenario["seed"],
        }
        if faults is not None:
            summary["faults"] = fault_model.describe()
            parameters["faults"] = fault_model.describe()
        out.append(ExperimentResult(
            experiment="E8", claim=_CLAIM, table=table, summary=summary,
            parameters=parameters,
        ))
    return out
