"""E1 hoists scenario-invariant work out of its trial loop.

Two facts make work in the E1 driver invariant across trials:

* a null fault model (``"none"``, and ``perturb``/``proc_fail``, which E1
  degrades to ``none``) draws and injects nothing, so every trial of
  every bit-class cell is the same deterministic solve -- the plain
  cells are the baseline solve and the skeptical cells are one
  ``sdc_gmres`` solve;
* E1 corrupts the Krylov basis, never the operator, so the trusted
  ``||A||`` estimate of the Hessenberg-bound check is the same in every
  skeptical trial.

The reference here is the driver's former per-trial loop, which solved
every trial and let ``sdc_gmres`` probe ``||A||`` on each solve.  The
hoisted driver must reproduce its results exactly, on the sequential
and on the lockstep path, and the exact-count tests pin that the
invariant work now happens once.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.campaign.spec import canonical_json
from repro.experiments import e1_sdc_detection as e1
from repro.experiments import e8_solvers as e8
from repro.krylov import registry as kregistry
from repro.krylov.registry import batch_solve, default_solver_registry
from repro.linalg.matgen import poisson_2d
from repro.reliability.sdc import SdcCampaign
from repro.skeptical import gmres_sdc
from repro.utils.rng import RngFactory

TIMING_KEYS = ("kernel_seconds", "elapsed")
SEEDS = [101, 102]


# ----------------------------------------------------------------------
# Reference: the former per-trial loop
# ----------------------------------------------------------------------
def _make_hook(fault_model, rng, inject_at):
    if fault_model.is_null:
        return None, {"bit": None, "index": None}
    return fault_model.iteration_hook(rng, at=inject_at)


def _reference_trial(matrix, b, *, fault_model, inject_at, rng, skeptical, tol,
                     check_period):
    fault_hook, injected = _make_hook(fault_model, rng, inject_at)
    solvers = default_solver_registry()
    if skeptical:
        result = solvers.get("sdc_gmres").solve(
            matrix, b, policy="skeptical_restart", tol=tol, restart=30, maxiter=600,
            check_period=check_period, fault_hook=fault_hook,
        )
        detected = result.detected_faults > 0
    else:
        result = solvers.get("gmres").solve(
            matrix, b, tol=tol, restart=30, maxiter=600, iteration_hook=fault_hook
        )
        detected = False
    return e1._record_from_result(
        matrix, b, result, injected, detected, tol=tol, skeptical=skeptical
    )


def reference_run(*, grid, n_trials, inject_at, tol=1e-8, check_period=1,
                  faults=None, seed=2013):
    fault_template, faults_label = e1._resolve_template(faults)
    matrix = poisson_2d(grid)
    factory = RngFactory(seed)
    b = factory.spawn("rhs").standard_normal(matrix.n_rows)
    baseline = default_solver_registry().get("gmres").solve(
        matrix, b, tol=tol, restart=30, maxiter=600
    )
    solver_flops = 2.0 * matrix.nnz * max(baseline.iterations, 1)
    table = e1._result_table()
    summary = {}
    for class_name, bit_range in e1._BIT_CLASSES.items():
        class_model = (
            fault_template
            if fault_template.is_null
            else fault_template.with_params(bits=bit_range)
        )
        for skeptical in (False, True):
            rng = factory.spawn(f"{class_name}-{skeptical}")

            def run_once(trial, _rng=rng, _model=class_model, _skeptical=skeptical):
                return _reference_trial(
                    matrix, b, fault_model=_model, inject_at=inject_at, rng=_rng,
                    skeptical=_skeptical, tol=tol, check_period=check_period,
                )

            campaign = SdcCampaign(run_once, n_trials).run(
                metadata={"bit_class": class_name, "skeptical": skeptical}
            )
            e1._add_cell(table, summary, campaign, class_name, skeptical, solver_flops)
    return e1._finish_result(
        table, summary, baseline.iterations, grid=grid, n_trials=n_trials,
        inject_at=inject_at, check_period=check_period, seed=seed,
        faults_label=faults_label,
    )


def reference_run_batch(config, seeds):
    grid, n_trials, inject_at = config["grid"], config["n_trials"], config["inject_at"]
    tol = config.get("tol", 1e-8)
    check_period = config.get("check_period", 1)
    fault_template, faults_label = e1._resolve_template(config.get("faults"))
    matrix = poisson_2d(grid)
    factories = [RngFactory(s) for s in seeds]
    b_list = [f.spawn("rhs").standard_normal(matrix.n_rows) for f in factories]
    n = len(seeds)
    baselines = batch_solve("gmres", matrix, b_list, tol=tol, restart=30, maxiter=600)
    solver_flops = [2.0 * matrix.nnz * max(r.iterations, 1) for r in baselines]
    tables = [e1._result_table() for _ in range(n)]
    summaries = [{} for _ in range(n)]
    for class_name, bit_range in e1._BIT_CLASSES.items():
        class_model = (
            fault_template
            if fault_template.is_null
            else fault_template.with_params(bits=bit_range)
        )
        for skeptical in (False, True):
            rngs = [f.spawn(f"{class_name}-{skeptical}") for f in factories]
            records = [[] for _ in range(n)]
            for _trial in range(n_trials):
                hooks, injected = zip(
                    *(_make_hook(class_model, rng, inject_at) for rng in rngs)
                )
                if skeptical:
                    results = batch_solve(
                        "sdc_gmres", matrix, b_list, policy="skeptical_restart",
                        tol=tol, restart=30, maxiter=600, check_period=check_period,
                        lane_params=[{"fault_hook": hook} for hook in hooks],
                    )
                    detected = [r.detected_faults > 0 for r in results]
                else:
                    results = batch_solve(
                        "gmres", matrix, b_list, tol=tol, restart=30, maxiter=600,
                        lane_params=[{"iteration_hook": hook} for hook in hooks],
                    )
                    detected = [False] * n
                for s in range(n):
                    records[s].append(e1._record_from_result(
                        matrix, b_list[s], results[s], injected[s], detected[s],
                        tol=tol, skeptical=skeptical,
                    ))
            for s in range(n):
                campaign = SdcCampaign(
                    lambda trial, _records=records[s]: _records[trial], n_trials
                ).run(metadata={"bit_class": class_name, "skeptical": skeptical})
                e1._add_cell(
                    tables[s], summaries[s], campaign, class_name, skeptical,
                    solver_flops[s],
                )
    return [
        e1._finish_result(
            tables[s], summaries[s], baselines[s].iterations, grid=grid,
            n_trials=n_trials, inject_at=inject_at, check_period=check_period,
            seed=seeds[s], faults_label=faults_label,
        )
        for s in range(n)
    ]


def _strip_timing(value):
    if isinstance(value, dict):
        return {k: _strip_timing(v) for k, v in value.items() if k not in TIMING_KEYS}
    if isinstance(value, list):
        return [_strip_timing(v) for v in value]
    return value


def canonical(result) -> str:
    return canonical_json(_strip_timing(result.to_dict()))


@pytest.fixture
def quiet():
    # The reference loop injects without an errstate of its own.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


# ----------------------------------------------------------------------
# Hoisted driver == reference loop
# ----------------------------------------------------------------------
NULL_FAULTS = ["none", "perturb:p=0.01,scale=1000.0", "proc_fail"]
NULL_CONFIGS = [
    dict(grid=grid, n_trials=n_trials, inject_at=4, check_period=period, faults=f)
    for f in NULL_FAULTS
    for grid in (6, 8)
    for n_trials in (1, 3)
    for period in (1, 2)
]
# The trusted-||A|| hoist touches every skeptical trial with a fault.
BITFLIP_CONFIGS = [
    dict(grid=6, n_trials=2, inject_at=4, check_period=period, faults=f)
    for f in (None, "bitflip:p=0.01,bits=52..62")
    for period in (1, 2)
]


def _id(config):
    return "-".join(f"{k}={v}" for k, v in config.items())


@pytest.mark.parametrize("config", NULL_CONFIGS + BITFLIP_CONFIGS, ids=_id)
def test_run_matches_reference_loop(config, quiet):
    assert canonical(e1.run(seed=SEEDS[0], **config)) == canonical(
        reference_run(seed=SEEDS[0], **config)
    )


@pytest.mark.parametrize("config", NULL_CONFIGS + BITFLIP_CONFIGS, ids=_id)
def test_run_batch_matches_reference_loop(config, quiet):
    batched = e1.run_batch([dict(config, seed=s) for s in SEEDS])
    reference = reference_run_batch(config, SEEDS)
    assert [canonical(r) for r in batched] == [canonical(r) for r in reference]


def test_null_results_do_not_depend_on_n_trials():
    one, five = (e1.run(grid=6, n_trials=n, faults="none", seed=7) for n in (1, 5))
    assert one.table.rows == five.table.rows
    assert one.summary == five.summary


# ----------------------------------------------------------------------
# Exact counts of the hoisted work
# ----------------------------------------------------------------------
def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("faults", NULL_FAULTS)
def test_null_scenario_makes_two_registry_solves(monkeypatch, faults):
    solves = _counting(monkeypatch, kregistry.RegisteredSolver, "solve")
    e1.run(grid=6, n_trials=3, inject_at=4, faults=faults, seed=5)
    assert [entry.name for entry, *_ in solves] == ["gmres", "sdc_gmres"]


def test_null_cohort_makes_one_batch_solve_per_solver(monkeypatch):
    solves = _counting(monkeypatch, e1, "batch_solve")
    e1.run_batch([dict(grid=6, n_trials=3, faults="none", seed=s) for s in SEEDS])
    assert [args[0] for args in solves] == ["gmres", "sdc_gmres"]


def _count_norm_probes(monkeypatch, driver=e1):
    # The driver imports the function; the solver paths look it up in
    # gmres_sdc.  Route both through one counter.
    calls = _counting(monkeypatch, gmres_sdc, "estimate_operator_norm")
    monkeypatch.setattr(driver, "estimate_operator_norm", gmres_sdc.estimate_operator_norm)
    return calls


def test_bitflip_scenario_probes_operator_norm_once(monkeypatch, quiet):
    probes = _count_norm_probes(monkeypatch)
    e1.run(grid=6, n_trials=3, inject_at=4, faults="bitflip:p=0.01", seed=5)
    assert len(probes) == 1


# The probe draws from a fixed seed and reads only the size of its
# vector, so one value serves every lane of a cohort.
def test_bitflip_cohort_probes_operator_norm_once_per_cohort(monkeypatch, quiet):
    probes = _count_norm_probes(monkeypatch)
    e1.run_batch(
        [dict(grid=6, n_trials=2, inject_at=4, faults="bitflip:p=0.01", seed=s)
         for s in SEEDS]
    )
    assert len(probes) == 1


def test_e8_cohort_probes_operator_norm_once_per_cohort(monkeypatch, quiet):
    probes = _count_norm_probes(monkeypatch, e8)
    e8.run_batch(
        [dict(grid=6, solvers=("gmres", "sdc_gmres"), policy="skeptical",
              faults="bitflip:p=0.02,bits=52..62", seed=s) for s in SEEDS]
    )
    assert len(probes) == 1


# ----------------------------------------------------------------------
# Injected trials classify overflow themselves
# ----------------------------------------------------------------------
@pytest.mark.parametrize("batched", [False, True], ids=["run", "run_batch"])
def test_injected_trials_emit_no_floating_point_warnings(batched):
    config = dict(grid=8, n_trials=3, inject_at=5, seed=2013)
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if batched:
            results = e1.run_batch([dict(config, seed=s) for s in SEEDS])
        else:
            results = [e1.run(**config)]
    assert np.geterr() == before
    # The exponent class overflows by design; the driver still sees it.
    assert all(r.summary["exponent_skeptical_sdc_rate"] == 0.0 for r in results)
