"""E10 -- Selective precision: the fourth sweepable axis.

The paper's selective-reliability argument is about *placement*: the
inner stage of a flexible solve may be unreliable because the reliable
outer iteration bounds the damage (conf_hpdc_Heroux13).  Reduced
precision is the deterministic cousin of that unreliability -- rounding
instead of bit flips, bounded error instead of arbitrary corruption --
so the same placement argument applies, and this driver makes it a
swept matrix: every requested solver from :mod:`repro.krylov.registry`
x every precision from :mod:`repro.reliability.precision` x one
preconditioner axis x one declarative fault spec, with the reduced
precision routed into one of two placements:

* ``target="inner"`` (the selective-precision placement): only the
  inner stage runs at the swept precision.  For ``fgmres`` that stage
  is a *real inner GMRES solve* executed entirely at the swept
  precision through the solver registry's ``precision=`` axis (the
  iterative-refinement shape: fp32 inner solve, fp64 outer recurrence,
  Hessenberg QR and convergence tests); for every other solver it is
  the preconditioner application ``M^{-1} v``, wrapped in a
  :func:`~repro.reliability.lowprecision` domain.
* ``target="outer"`` (the control placement): the *whole* solve runs
  at the swept precision via ``solve(..., precision=...)`` -- operator,
  right-hand side, basis and recurrence all in the low dtype, which
  pins the solve to that dtype's residual floor (about ``1e-7``
  relative for fp32), far above a double-precision target like
  ``tol=1e-8``.

The pinned, executable claim: under ``target="inner"`` the fp32 rows
reach the fp64-accurate answer (correct to the trusted-error
tolerance), while under ``target="outer"`` the same fp32 sweep fails a
double-precision tolerance.  Selective precision, like selective
reliability, is about *where* you spend the cheap mode.

Faults compose as in E9's selective placement: a soft fault model
corrupts the (wrapped) inner stage only -- ``M^{-1} v`` or the FGMRES
inner solve -- never the outer recurrence, so the fault and precision
axes stack on the same inner/outer boundary.
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
from repro.reliability.precision import PrecisionDomain, parse_precision
from repro.reliability.registry import resolve_faults
from repro.reliability.seeding import derive_fault_seed
from repro.utils.rng import RngFactory
from repro.utils.tables import Table
from repro.utils.validation import check_in

__all__ = ["run", "run_batch", "SPEC"]

SPEC = ExperimentSpec(
    experiment="E10",
    name="precision",
    title="Selective precision: solver x precision x preconditioner x fault "
          "matrix, inner vs outer placement",
    tags=("precision", "registry", "srp", "mixed-precision"),
    smoke={"grid": 6, "solvers": ("gmres",),
           "precisions": ("fp64", "fp32"), "preconds": "none",
           "faults": "none"},
    golden={"grid": 8, "solvers": ("gmres", "fgmres", "cg"),
            "precisions": ("fp64", "fp32", "fp32:storage=fp16"),
            "preconds": ("none", "jacobi"),
            "faults": "bitflip:p=0.05,bits=52..62", "seed": 2013},
)

# Solvers swept by default: the flexible solver that owns the claim's
# flagship row (fgmres, whose inner stage is a real low-precision
# GMRES) plus one fixed-preconditioner solver per family.
_DEFAULT_SOLVERS = ("gmres", "fgmres", "cg")

#: Inner-solve budget of the fgmres selective-precision configuration.
_INNER_TOL = 1e-4
_INNER_MAXITER = 50


def _solver_axis(solvers) -> List[str]:
    if solvers is None:
        return list(_DEFAULT_SOLVERS)
    if isinstance(solvers, str):
        return [solvers]
    return list(solvers)


def _precision_axis(precisions) -> List[str]:
    """Canonical spec strings of the swept precisions."""
    if precisions is None:
        from repro.reliability.precision import (
            default_precision_registry,
            precision_names,
        )

        registry = default_precision_registry()
        values = [registry.get(name).spec for name in precision_names()]
    elif isinstance(precisions, str):
        values = [precisions]
    else:
        values = list(precisions)
    return [parse_precision(value).to_string() for value in values]


def _precond_axis(preconds) -> List[str]:
    if preconds is None:
        from repro.precond import precond_names

        return precond_names()
    if isinstance(preconds, str):
        return [preconds]
    return list(preconds)


def _fgmres_inner_solve(matrix, built, precision_label, registry):
    """The selective-precision FGMRES inner stage: a whole GMRES solve
    at the swept precision (preconditioned by the cell's ``built``)."""
    inner_entry = registry.get("gmres")

    def inner_solve(v):
        result = inner_entry.solve(
            matrix, v, tol=_INNER_TOL, maxiter=_INNER_MAXITER,
            precond=built, precision=precision_label,
        )
        return result.x

    return inner_solve


def run(
    *,
    grid: int = 8,
    solvers: Optional[Union[str, Sequence[str]]] = None,
    precisions: Optional[Union[str, Sequence[str]]] = None,
    preconds: Optional[Union[str, Sequence[str]]] = "jacobi",
    faults=None,
    target: str = "inner",
    tol: float = 1e-8,
    maxiter: int = 400,
    error_tolerance: float = 1e-5,
    seed: int = 2013,
) -> ExperimentResult:
    """Run experiment E10 and return its table.

    Parameters
    ----------
    grid:
        2-D Poisson grid size (SPD, so every swept solver applies).
    solvers:
        Solver-registry names to run (string or sequence; ``None`` =
        ``gmres``/``fgmres``/``cg``).
    precisions:
        The precision axis: registry names (``"fp32"``) or compact
        specs (``"fp32:storage=fp16"``), string or sequence; ``None`` =
        every registered precision.
    preconds:
        The preconditioner axis (names or inline specs); defaults to
        ``"jacobi"`` alone; ``None`` = every registered preconditioner.
    faults:
        The fault axis (name, compact spec, dict or ``FaultSpec``);
        only the soft component corrupts data, and it lands on the
        wrapped inner stage (never the outer recurrence).  ``None``
        runs fault-free.
    target:
        Where the reduced precision lands: ``"inner"`` places it on
        the inner stage only (the FGMRES inner solve, or ``M^{-1} v``
        for the fixed-preconditioner solvers), ``"outer"`` runs the
        whole solve at the swept precision via ``precision=``.
    tol, maxiter:
        Outer solver settings (the fgmres inner solve uses its own
        fixed budget).
    error_tolerance:
        Trusted-error threshold of the outcome classification.
    seed:
        Root seed: right-hand side and per-cell fault streams.
    """
    return _run_cohort([dict(locals())])[0]


def run_batch(params_list: List[Mapping]) -> List[ExperimentResult]:
    """Run several E10 scenarios in lockstep; results identical to :func:`run`.

    Scenarios that agree on every parameter except ``seed`` share one
    cohort; any other set runs one scenario at a time
    (:func:`~repro.experiments.common.run_cohorts`).
    """
    return run_cohorts(run, _run_cohort, params_list)


_CLAIM = (
    "Selective precision: reduced precision placed on the inner stage only "
    "(the FGMRES inner solve, or M^-1 v) still reaches the fp64-accurate "
    "answer, while running the whole solve at fp32 pins it to the fp32 "
    "residual floor and fails a double-precision tolerance."
)


def _run_cohort(scenarios: List[Mapping]) -> List[ExperimentResult]:
    """Run scenarios that differ only in ``seed``, one lane each.

    Each (solver, precond, precision) cell solves every lane in one
    :func:`repro.krylov.registry.batch_solve` call, each lane with its
    own preconditioner stage (built from the clean fp64 matrix, wrapped
    at the swept precision and, under a soft fault, in its own
    unreliable domain).  Cells without a lockstep path (reduced
    precision, fgmres) run lane by lane inside that call.
    """
    shared = scenarios[0]
    target = shared["target"]
    tol = shared["tol"]
    maxiter = shared["maxiter"]
    seeds = [p["seed"] for p in scenarios]

    check_in(target, ("inner", "outer"), "target")
    registry = default_solver_registry()
    solver_list = _solver_axis(shared["solvers"])
    precision_list = _precision_axis(shared["precisions"])
    precond_list = _precond_axis(shared["preconds"])

    fault_model = resolve_faults(shared["faults"])
    soft_model = fault_model.soft_component()

    matrix = poisson_2d(shared["grid"])
    b_list = [RngFactory(s).spawn("rhs").standard_normal(matrix.n_rows) for s in seeds]
    scores = trusted_scores(matrix, b_list, shared["error_tolerance"])
    low_runs = 0
    low_correct = [0] * len(scenarios)

    tables = [
        Table(
            ["solver", "precond", "precision", "iterations", "converged",
             "faults", "error", "outcome"],
            title=f"E10: solver x precision x preconditioner x fault matrix "
                  f"(precision on the {target} stage)",
        )
        for _ in scenarios
    ]
    for solver_name in solver_list:
        solver = registry.get(solver_name)
        for precond_name in precond_list:
            precond_label = parse_precond(precond_name).to_string()
            for precision_label in precision_list:
                pspec = parse_precision(precision_label)
                # Setup runs reliably and in full precision: the
                # preconditioner is always built from the clean fp64
                # matrix, once per lane (stateful preconditioners and
                # the wrapping proxies must not be shared).
                builts = [resolve_preconds(precond_name, matrix=matrix) for _ in seeds]
                fault_seeds = [
                    derive_fault_seed(
                        s, f"{solver.name}/{precond_label}/{precision_label}"
                    )
                    for s in seeds
                ]
                has_precond = builts[0] is not None
                if target == "outer":
                    # Whole solve at the swept precision.  Spec-shaped
                    # preconditioners go through by name so solve()
                    # builds them from the *cast* operator -- M^{-1} v
                    # then runs at the swept precision natively.  A
                    # faulted stage wraps the fp64-built object instead.
                    faulted = soft_model is not None and has_precond
                    stages = builts if faulted else [precond_name] * len(seeds)
                elif solver.name == "fgmres":
                    # The flagship selective-precision configuration: a
                    # real inner GMRES at the swept precision, fp64
                    # outer.  The precision domain pins the stage's
                    # input and output to the compute dtype (the
                    # bounded-error contract); faults land outside it,
                    # on the widened float64 result, exactly where E9
                    # lands them on M^{-1} v.
                    faulted = soft_model is not None
                    stages = [
                        PrecisionDomain(pspec).inner_solve(
                            _fgmres_inner_solve(matrix, built, precision_label, registry)
                        )
                        for built in builts
                    ]
                else:
                    # Fixed-preconditioner solvers: M^{-1} v at the swept
                    # precision (identity rounding when there is none).
                    faulted = soft_model is not None and has_precond
                    stages = [
                        PrecisionDomain(pspec).preconditioner(built) for built in builts
                    ]
                domains = []
                if faulted:
                    domains = unreliable_domains(
                        soft_model, fault_seeds, f"precision/{solver.name}"
                    )
                    stages = [
                        domain.preconditioner(stage, flops_per_call=float(matrix.nnz))
                        for domain, stage in zip(domains, stages)
                    ]
                with np.errstate(over="ignore", invalid="ignore"):
                    results = batch_solve(
                        solver.name, matrix, b_list,
                        precision=precision_label if target == "outer" else None,
                        lane_params=[{"precond": stage} for stage in stages],
                        registry=registry, tol=tol, maxiter=maxiter,
                    )
                faults_hits = [d.faults_injected() for d in domains] or [0] * len(seeds)

                low_runs += int(not pspec.is_default)
                for s, (table, score, result) in enumerate(zip(tables, scores, results)):
                    error_text, outcome, correct = score.score(result, faults_hits[s])
                    table.add_row(
                        solver.name,
                        precond_label,
                        precision_label,
                        result.iterations,
                        result.converged,
                        faults_hits[s],
                        error_text,
                        outcome,
                    )
                    if not pspec.is_default:
                        low_correct[s] += int(correct)

    out = []
    for scenario, table, score, n_low_correct in zip(scenarios, tables, scores, low_correct):
        summary = {
            "n_runs": score.n_runs,
            "n_solvers": len(solver_list),
            "n_precisions": len(precision_list),
            "n_preconds": len(precond_list),
            "n_correct": score.n_correct,
            "n_silent_corruptions": score.n_silent,
            "total_faults_injected": score.total_faults,
            # The pinned claim, as counters: under target="inner" every
            # reduced-precision row should be correct; under
            # target="outer" they fail a double-precision tolerance.
            "n_lowprecision_runs": low_runs,
            "n_lowprecision_correct": n_low_correct,
            "target": target,
            "faults": fault_model.describe(),
        }
        parameters = {
            "grid": shared["grid"],
            "solvers": tuple(solver_list),
            "precisions": tuple(precision_list),
            "preconds": tuple(precond_list),
            "faults": fault_model.describe(),
            "target": target,
            "tol": tol,
            "maxiter": maxiter,
            "error_tolerance": shared["error_tolerance"],
            "seed": scenario["seed"],
        }
        out.append(ExperimentResult(
            experiment="E10", claim=_CLAIM, table=table, summary=summary,
            parameters=parameters,
        ))
    return out
