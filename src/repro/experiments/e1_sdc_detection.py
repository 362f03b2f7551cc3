"""E1 -- SDC detection in GMRES with skeptical checks.

Paper claim (§II-A, §III-A): cheap checks of mathematical properties of
the Arnoldi process detect most silent data corruption in GMRES at very
low cost, and the solver can recover by restarting.

Procedure: for each bit-position class (mantissa / exponent / sign), run
a campaign of single-bit-flip injections into the newest Krylov basis
vector of a GMRES solve on a 2-D Poisson problem, once with the
skeptical solver (:func:`repro.skeptical.gmres_sdc.sdc_detecting_gmres`)
and classify the outcomes; also report the checking overhead (check
flops relative to solver flops) and the behaviour of plain GMRES on the
same faults (how many silently wrong answers it returns).
"""

from __future__ import annotations

from typing import List, Mapping

import numpy as np

from repro.experiments.common import ExperimentResult, ExperimentSpec, run_cohorts
from repro.krylov.registry import batch_solve
from repro.linalg.matgen import poisson_2d
from repro.reliability.events import FaultEvent, FaultRecord
from repro.reliability.registry import resolve_faults
from repro.reliability.sdc import SdcCampaign, classify_outcome
from repro.skeptical.gmres_sdc import estimate_operator_norm
from repro.utils.rng import RngFactory
from repro.utils.tables import Table

__all__ = ["run", "run_batch", "SPEC"]

SPEC = ExperimentSpec(
    experiment="E1",
    name="sdc_detection",
    title="SDC detection in GMRES with skeptical checks",
    tags=("skeptical", "gmres", "faults", "sdc"),
    smoke={"grid": 8, "n_trials": 2, "inject_at": 5},
    golden={"grid": 10, "n_trials": 3, "inject_at": 5, "seed": 2013},
)

_BIT_CLASSES = {
    "mantissa_low": (0, 25),
    "mantissa_high": (26, 51),
    "exponent": (52, 62),
    "sign": (63, 63),
}


def _record_from_result(matrix, b, result, injected, detected, *, tol, skeptical):
    """Classify one finished (possibly faulty) solve into a FaultRecord."""
    x = np.asarray(result.x, dtype=np.float64)
    error = float(np.linalg.norm(matrix.matvec(x) - b) / np.linalg.norm(b))
    outcome = classify_outcome(
        converged=result.converged,
        error_norm=error,
        tolerance=10 * tol,
        detected=detected,
    )
    return FaultRecord(
        events=[FaultEvent(kind="bitflip", target="arnoldi_basis",
                           location=injected["index"], bit=injected["bit"])],
        detected=detected,
        outcome=outcome,
        extra={
            "iterations": result.iterations,
            "relative_residual": error,
            "check_flops": result.info.get("check_flops", 0.0) if skeptical else 0.0,
        },
    )


def run(
    *,
    grid: int = 20,
    n_trials: int = 20,
    inject_at: int = 10,
    tol: float = 1e-8,
    check_period: int = 1,
    faults=None,
    seed: int = 2013,
) -> ExperimentResult:
    """Run experiment E1 and return its table.

    Parameters
    ----------
    grid:
        The Poisson problem is ``grid x grid``.
    n_trials:
        Injection trials per bit class and solver.
    inject_at:
        Iteration at which the flip is injected.
    tol:
        Solver tolerance.
    check_period:
        Period of the cheap skeptical checks (the ablation knob).
    faults:
        Injection model template (reliability-registry name, compact
        spec string or dict).  E1 consumes only its bit-level
        component: any ``bitflip`` becomes the targeted basis flip,
        which each bit class instantiates with its own ``bits`` range.
        ``None`` keeps the legacy-equivalent ``"basis_bitflip"``.  Any
        other model (``"none"``, ``perturb``, ``proc_fail``) runs the
        campaign fault-free, in two solves whatever ``n_trials`` is.
    seed:
        Root seed.
    """
    return _run_cohort([dict(locals())])[0]


def run_batch(params_list: List[Mapping]) -> List[ExperimentResult]:
    """Run several E1 scenarios in lockstep; results identical to :func:`run`.

    Scenarios that agree on every parameter except ``seed`` share one
    cohort; any other set runs one scenario at a time
    (:func:`~repro.experiments.common.run_cohorts`).
    """
    return run_cohorts(run, _run_cohort, params_list)


def _run_cohort(scenarios: List[Mapping]) -> List[ExperimentResult]:
    """Run scenarios that differ only in ``seed``, one lane each.

    Each (bit-class, solver) cell of every trial solves all lanes as one
    :func:`repro.krylov.registry.batch_solve` call (sequential for a
    single lane), with per-scenario fault hooks drawing from
    per-scenario RNG streams in the exact sequential order (hook
    creation before the trial's solve, victim draw at fire time inside
    it).  A null fault model needs one call per solver for the cohort.
    """
    shared = scenarios[0]
    n_trials = shared["n_trials"]
    tol = shared["tol"]
    fault_template, faults_label = _resolve_template(shared["faults"])
    matrix = poisson_2d(shared["grid"])
    factories = [RngFactory(p["seed"]) for p in scenarios]
    b_list = [f.spawn("rhs").standard_normal(matrix.n_rows) for f in factories]
    lanes = range(len(scenarios))

    gmres_params = {"tol": tol, "restart": 30, "maxiter": 600}
    baselines = batch_solve("gmres", matrix, b_list, **gmres_params)
    solver_flops = [2.0 * matrix.nnz * max(r.iterations, 1) for r in baselines]
    # Setup runs in reliable mode (the SkP assumption): one trusted
    # ||A||, probed from the clean matrix, serves every skeptical trial
    # (E1 corrupts the basis, never the operator).  The probe draws from
    # a fixed seed and reads only the size of b, so one serves the cohort.
    norm = estimate_operator_norm(matrix, b_list[0])

    def solve_trial(skeptical, hooks):
        if skeptical:
            return batch_solve(
                "sdc_gmres", matrix, b_list, policy="skeptical_restart",
                check_period=shared["check_period"], operator_norm=norm,
                lane_params=[{"fault_hook": hook} for hook in hooks],
                **gmres_params,
            )
        return batch_solve(
            "gmres", matrix, b_list,
            lane_params=[{"iteration_hook": hook} for hook in hooks], **gmres_params,
        )

    def classify(results, injected, skeptical):
        return [
            _record_from_result(
                matrix, b_list[s], results[s], injected[s],
                skeptical and results[s].detected_faults > 0,
                tol=tol, skeptical=skeptical,
            )
            for s in lanes
        ]

    fault_free = None
    if fault_template.is_null:
        # A null model draws and injects nothing, so every trial of
        # every cell is one deterministic solve: the plain cells are
        # the baseline (a None iteration_hook is the same call) and the
        # skeptical cells share a single sdc_gmres solve.
        injected = [{"bit": None, "index": None}] * len(lanes)
        fault_free = {
            False: classify(baselines, injected, False),
            True: classify(solve_trial(True, [None] * len(lanes)), injected, True),
        }

    tables = [_result_table() for _ in lanes]
    summaries: List[dict] = [{} for _ in lanes]
    for class_name, bit_range in _BIT_CLASSES.items():
        for skeptical in (False, True):
            if fault_free is not None:
                records = [[record] * n_trials for record in fault_free[skeptical]]
            else:
                model = fault_template.with_params(bits=bit_range)
                rngs = [f.spawn(f"{class_name}-{skeptical}") for f in factories]
                records = [[] for _ in lanes]
                for _trial in range(n_trials):
                    # The injection hook replays the historical draw
                    # order: bit position here, victim index at fire time.
                    hooks, injected = zip(*(
                        model.iteration_hook(rng, at=shared["inject_at"])
                        for rng in rngs
                    ))
                    # Exponent flips overflow by design; the record
                    # classifies those outcomes through its own
                    # finiteness checks, so the warnings say nothing.
                    with np.errstate(over="ignore", invalid="ignore"):
                        trial_records = classify(
                            solve_trial(skeptical, hooks), injected, skeptical
                        )
                    for s in lanes:
                        records[s].append(trial_records[s])
            for s in lanes:
                campaign = SdcCampaign(
                    lambda trial, _records=records[s]: _records[trial], n_trials
                ).run(metadata={"bit_class": class_name, "skeptical": skeptical})
                _add_cell(
                    tables[s], summaries[s], campaign, class_name, skeptical,
                    solver_flops[s],
                )
    return [
        _finish_result(
            tables[s], summaries[s], baselines[s].iterations,
            grid=shared["grid"], n_trials=n_trials, inject_at=shared["inject_at"],
            check_period=shared["check_period"], seed=scenarios[s]["seed"],
            faults_label=faults_label,
        )
        for s in lanes
    ]


def _resolve_template(faults):
    """Resolve the fault axis exactly as :func:`run` historically did."""
    # Record the requested axis value (like every other driver); the
    # template below may degrade to the component E1 actually consumes.
    fault_template = resolve_faults(
        faults if faults is not None else "basis_bitflip"
    )
    faults_label = fault_template.describe() if faults is not None else None
    # Degrade gracefully on a shared fault axis: any bit-level model
    # becomes the targeted basis flip it implies, and models with no
    # bit-level component (e.g. pure proc_fail) run the campaign
    # fault-free rather than crashing the sweep.
    if not fault_template.is_null:
        basis_component = fault_template.component("basis_bitflip")
        bit_component = fault_template.component("bitflip")
        if basis_component is not None:
            fault_template = basis_component
        elif bit_component is not None:
            fault_template = resolve_faults(
                "basis_bitflip", bits=bit_component.bits
            )
        else:
            fault_template = resolve_faults("none")
    return fault_template, faults_label


def _result_table() -> Table:
    return Table(
        [
            "bit_class",
            "solver",
            "detected",
            "benign",
            "sdc",
            "crash",
            "mean_iterations",
            "check_overhead",
        ],
        title="E1: single bit flips in the GMRES Arnoldi basis",
    )


def _add_cell(table, summary, campaign, class_name, skeptical, solver_flops):
    """Fold one (bit-class, solver) campaign cell into the table/summary."""
    check_flops = campaign.mean_extra("check_flops")
    overhead = check_flops / solver_flops if solver_flops else 0.0
    table.add_row(
        class_name,
        "skeptical" if skeptical else "plain",
        campaign.detection_rate,
        campaign.rate_outcome("benign"),
        campaign.rate_outcome("sdc"),
        campaign.rate_outcome("crash"),
        campaign.mean_extra("iterations"),
        overhead if skeptical else 0.0,
    )
    key = f"{class_name}_{'skeptical' if skeptical else 'plain'}"
    summary[key + "_sdc_rate"] = campaign.rate_outcome("sdc")
    summary[key + "_detection_rate"] = campaign.detection_rate


def _finish_result(
    table, summary, baseline_iterations, *, grid, n_trials, inject_at,
    check_period, seed, faults_label,
) -> ExperimentResult:
    summary["baseline_iterations"] = baseline_iterations
    parameters = {
        "grid": grid,
        "n_trials": n_trials,
        "inject_at": inject_at,
        "check_period": check_period,
        "seed": seed,
    }
    if faults_label is not None:
        parameters["faults"] = faults_label
    return ExperimentResult(
        experiment="E1",
        claim=(
            "Cheap invariant checks in the Arnoldi process detect harmful bit flips "
            "and eliminate silent data corruption at small overhead."
        ),
        table=table,
        summary=summary,
        parameters=parameters,
    )
