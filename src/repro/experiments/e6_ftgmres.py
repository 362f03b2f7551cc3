"""E6 -- FT-GMRES: reliable outer, unreliable inner iterations.

Paper claim (§II-D, §III-D): with selective reliability, "most data and
most computations" can run unreliably while a small reliable outer
iteration preserves robustness -- the fault-tolerant GMRES of Bridges
et al. converges where a conventional solver run entirely at the bulk
(unreliable) level fails or silently degrades.

Procedure: on a convection-diffusion system, sweep the per-operation
fault probability of the unreliable domain and compare
(a) plain restarted GMRES whose *every* matvec runs unreliably (the
all-unreliable baseline), and (b) FT-GMRES where only the inner solves
are unreliable.  Report convergence, true residuals, the fraction of
flops performed unreliably, and the modeled cost relative to running
everything reliably (e.g. under TMR).
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import ExperimentResult, ExperimentSpec
from repro.krylov.registry import default_solver_registry
from repro.linalg.matgen import convection_diffusion_2d
from repro.reliability.cost import ReliabilityCostModel
from repro.reliability.registry import resolve_faults
from repro.reliability.spec import FaultSpec
from repro.utils.rng import RngFactory
from repro.utils.tables import Table

__all__ = ["run", "SPEC"]

SPEC = ExperimentSpec(
    experiment="E6",
    name="ftgmres",
    title="FT-GMRES: reliable outer, unreliable inner iterations",
    tags=("srp", "ftgmres", "gmres", "faults"),
    smoke={
        "grid": 8,
        "fault_probabilities": (0.0, 0.05),
        "n_trials": 1,
        "outer_maxiter": 20,
        "inner_maxiter": 10,
    },
    golden={
        "grid": 8,
        "fault_probabilities": (0.0, 0.05),
        "n_trials": 2,
        "outer_maxiter": 20,
        "inner_maxiter": 10,
        "seed": 2013,
    },
)


def run(
    *,
    grid: int = 12,
    fault_probabilities=(0.0, 0.02, 0.05, 0.1),
    tol: float = 1e-8,
    outer_maxiter: int = 40,
    inner_maxiter: int = 15,
    n_trials: int = 3,
    faults=None,
    backend=None,
    seed: int = 2013,
) -> ExperimentResult:
    """Run experiment E6 and return its table.

    ``faults`` selects the *kind* of fault the unreliable domain
    injects (a reliability-registry name, compact spec string or dict);
    ``fault_probabilities`` remains the swept per-operation rate, so
    e.g. ``faults="bitflip:bits=52..62"`` sweeps exponent-bit flips.
    ``None`` keeps the legacy-equivalent any-bit flip model.
    """
    # The fault template: each probability in the sweep instantiates it
    # with p=prob, so the when-axis (rate) and the what-axis (model)
    # stay independent.  "bitflip" with no bits restriction reproduces
    # the pre-registry wiring draw-for-draw.  Only the soft-fault
    # component of a shared axis applies here; specs without one (e.g.
    # pure proc_fail) sweep the rates fault-free.
    fault_template = resolve_faults(faults if faults is not None else "bitflip")
    faults_label = fault_template.describe() if faults is not None else None
    if not fault_template.is_null:
        fault_template = fault_template.soft_component() or resolve_faults("none")
    if fault_template.kind != "none":
        # The sweep re-parameterizes the when-axis as the per-call
        # probability, so a template pinning its own when-axis
        # (times=/rate=) must shed it before each p=prob override.
        stripped = {
            k: v for k, v in fault_template.spec.params.items()
            if k not in ("times", "rate")
        }
        fault_template = resolve_faults(FaultSpec(fault_template.spec.kind, stripped))

    solvers = default_solver_registry()
    matrix = convection_diffusion_2d(grid, peclet=10.0)
    factory = RngFactory(seed)
    b = factory.spawn("rhs").standard_normal(matrix.n_rows)
    b_norm = float(np.linalg.norm(b))
    cost_model = ReliabilityCostModel(reliable_compute_factor=3.0)

    table = Table(
        [
            "fault_prob",
            "solver",
            "converged_rate",
            "mean_true_residual",
            "mean_iterations",
            "unreliable_flop_fraction",
            "cost_vs_all_reliable",
        ],
        title="E6: FT-GMRES (selective reliability) vs all-unreliable GMRES",
    )
    summary = {}

    for prob in fault_probabilities:
        fault_model = fault_template.with_params(p=prob)
        # --- all-unreliable plain GMRES baseline -----------------------
        conv = 0
        residuals = []
        iters = []
        for trial in range(n_trials):
            rng = factory.spawn(f"plain-{prob}-{trial}")
            injector = fault_model.injector(rng, target="plain_matvec")
            calls = {"n": 0}

            def unreliable_op(x, _inj=injector, _calls=calls):
                _calls["n"] += 1
                return _inj.maybe_inject(matrix.matvec(x), now=float(_calls["n"]))

            # Exponent flips overflow by design; the true-residual test
            # below classifies those answers itself.
            with np.errstate(over="ignore", invalid="ignore"):
                result = solvers.get("gmres").solve(
                    unreliable_op, b, tol=tol, restart=30,
                    maxiter=outer_maxiter * inner_maxiter,
                )
                true_res = float(
                    np.linalg.norm(b - matrix.matvec(np.asarray(result.x))) / b_norm
                )
            conv += int(result.converged and np.isfinite(true_res) and true_res <= 10 * tol)
            residuals.append(true_res if np.isfinite(true_res) else 1.0)
            iters.append(result.iterations)
        table.add_row(
            prob, "plain_unreliable", conv / n_trials, float(np.mean(residuals)),
            float(np.mean(iters)), 1.0, 1.0 / cost_model.reliable_compute_factor,
        )
        summary[f"plain_{prob}_converged"] = conv / n_trials

        # --- FT-GMRES ---------------------------------------------------
        conv = 0
        residuals = []
        iters = []
        unreliable_fracs = []
        costs = []
        for trial in range(n_trials):
            extra = {}
            if not fault_model.is_null and fault_model.component("bitflip") is None:
                # Non-bit-flip fault kinds (e.g. value perturbation)
                # supply the whole SRP environment themselves.
                extra["environment"] = fault_model.environment(
                    seed=seed + 7 * trial, cost_model=cost_model
                )
            with np.errstate(over="ignore", invalid="ignore"):
                result = solvers.get("ft_gmres").solve(
                    matrix, b, tol=tol,
                    outer_maxiter=outer_maxiter, outer_restart=outer_maxiter,
                    inner_tol=1e-2, inner_maxiter=inner_maxiter,
                    inner_restart=inner_maxiter,
                    fault_probability=fault_model.probability,
                    bit_range=fault_model.bits,
                    seed=seed + 7 * trial,
                    cost_model=cost_model,
                    **extra,
                )
                true_res = float(
                    np.linalg.norm(b - matrix.matvec(np.asarray(result.x))) / b_norm
                )
            conv += int(result.converged and np.isfinite(true_res) and true_res <= 10 * tol)
            residuals.append(true_res if np.isfinite(true_res) else 1.0)
            iters.append(result.iterations)
            unreliable_fracs.append(result.info["unreliable_fraction_flops"])
            costs.append(1.0 / result.info["srp_cost"]["savings_factor"])
        table.add_row(
            prob, "ft_gmres", conv / n_trials, float(np.mean(residuals)),
            float(np.mean(iters)), float(np.mean(unreliable_fracs)),
            float(np.mean(costs)),
        )
        summary[f"ftgmres_{prob}_converged"] = conv / n_trials
        summary[f"ftgmres_{prob}_unreliable_fraction"] = float(np.mean(unreliable_fracs))
    parameters = {
        "grid": grid,
        "fault_probabilities": tuple(fault_probabilities),
        "tol": tol,
        "outer_maxiter": outer_maxiter,
        "inner_maxiter": inner_maxiter,
        "n_trials": n_trials,
        "seed": seed,
    }
    if faults_label is not None:
        parameters["faults"] = faults_label
    if backend is not None:
        # Backend-axis evidence (never present in default/golden runs):
        # the fault-free GMRES anchor executed as a genuine SPMD solve
        # over the requested communicator.  Sim and shmem reduce in the
        # identical ascending-rank order, so this residual history is
        # bit-identical across them -- the conformance suite's E6
        # differential gate pins exactly that.
        from repro.comm.registry import resolve_backend
        from repro.experiments import backend_probe

        bound = resolve_backend(backend)
        parameters["backend"] = bound.spec.to_string()
        summary["backend"] = {
            "spec": bound.spec.to_string(),
            "anchor": backend_probe.distributed_solve(
                bound, "gmres", grid=grid, tol=tol, maxiter=400,
                seed=seed, restart=inner_maxiter,
            ),
        }
    return ExperimentResult(
        experiment="E6",
        claim=(
            "With a reliable outer iteration, GMRES converges even when the bulk of "
            "its work runs unreliably under fault injection, at a fraction of the "
            "cost of making everything reliable."
        ),
        table=table,
        summary=summary,
        parameters=parameters,
    )
