"""Differential tests of the stacked SDC check kernel.

The default check set of skeptical GMRES runs as one kernel
(:mod:`repro.skeptical.arnoldi_checks`) on both the sequential and the
lockstep path.  The reference here is the same check set registered as
six closures on the generic :class:`SkepticalMonitor` -- the
construction the solver used before the kernel existed.  Kernel and
reference must agree bit for bit on the solution, the residual history
and every counter, with E1-style bit flips at several injection points
and check periods.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.krylov.registry import batch_solve
from repro.linalg import poisson_2d
from repro.reliability.registry import resolve_faults
from repro.skeptical import SkepticalAbort, SkepticalMonitor, sdc_detecting_gmres
from repro.skeptical.arnoldi_checks import ArnoldiChecks, _monotone, observe_arnoldi
from repro.skeptical.checks import (
    finite_check,
    hessenberg_bound_check,
    monotonicity_check,
    orthogonality_check,
    residual_consistency_check,
)
from repro.skeptical.gmres_sdc import estimate_operator_norm

BIT_CLASSES = {
    "mantissa_low": (0, 25),
    "mantissa_high": (26, 51),
    "exponent": (52, 62),
    "sign": (63, 63),
}
SOLVE = dict(tol=1e-8, restart=30, maxiter=600)


def reference_monitor(
    norm_estimate,
    *,
    check_period=1,
    orthogonality_period=5,
    residual_check_period=10,
    hessenberg_safety=4.0,
    orthogonality_tol=1e-6,
):
    """The default SDC check set as closures on a generic monitor."""
    monitor = SkepticalMonitor()
    monitor.add_check(
        "finite_basis",
        lambda state: finite_check(
            np.asarray(state["basis"][state["inner"] + 1]), name="finite_basis"
        ),
        period=check_period,
    )
    monitor.add_check(
        "finite_hessenberg",
        lambda state: finite_check(
            state["hessenberg"][: state["inner"] + 2, state["inner"]],
            name="finite_hessenberg",
        ),
        period=check_period,
    )
    monitor.add_check(
        "hessenberg_bound",
        lambda state: hessenberg_bound_check(
            state["hessenberg"],
            norm_estimate,
            n_columns=state["inner"] + 1,
            safety=hessenberg_safety,
        ),
        period=check_period,
    )
    monitor.add_check(
        "residual_monotone",
        lambda state: monotonicity_check(state["residual_history"]),
        period=check_period,
    )
    monitor.add_check(
        "orthogonality",
        lambda state: orthogonality_check(state["basis"].matrix(), tol=orthogonality_tol),
        period=orthogonality_period,
    )
    monitor.add_check(
        "residual_consistency",
        lambda state: residual_consistency_check(
            state["residual_norm"], state["true_residual"]()
        ),
        period=residual_check_period,
    )
    return monitor


def _problem(grid, seed=2013):
    matrix = poisson_2d(grid)
    b = np.random.default_rng(seed).standard_normal(matrix.n_rows)
    return matrix, b, estimate_operator_norm(matrix, b)


def _hook(bits, inject_at, seed):
    model = resolve_faults("basis_bitflip").with_params(bits=bits)
    hook, _ = model.iteration_hook(np.random.default_rng(seed), at=inject_at)
    return hook


def _fingerprint(result):
    return (
        np.asarray(result.x, dtype=np.float64).tobytes(),
        np.asarray(result.residual_norms, dtype=np.float64).tobytes(),
        result.iterations,
        result.converged,
        result.detected_faults,
        result.info["checks_run"],
        result.info["check_flops"],
        result.info["detection_restarts"],
    )


def _failures(log):
    return [(event.kind, event.details) for event in log]


CASES = [
    (grid, bit_class, inject_at, check_period)
    for grid in (6, 10)
    for bit_class in BIT_CLASSES
    for inject_at in (1, 4, 10)
    for check_period in (1, 2, 3)
]


@pytest.mark.parametrize("grid,bit_class,inject_at,check_period", CASES)
def test_kernel_matches_reference_monitor(grid, bit_class, inject_at, check_period):
    matrix, b, norm = _problem(grid)
    bits = BIT_CLASSES[bit_class]
    options = dict(SOLVE, check_period=check_period, operator_norm=norm)
    seeds = (11, 12, 13)

    references = []
    for seed in seeds:
        monitor = reference_monitor(norm, check_period=check_period)
        result = sdc_detecting_gmres(
            matrix, b, monitor=monitor, fault_hook=_hook(bits, inject_at, seed), **options
        )
        references.append((_fingerprint(result), _failures(monitor.log)))

    # Sequential: the default (kernel) check set, and an explicit
    # ArnoldiChecks whose failure log is compared with the monitor's.
    for seed, (expected, expected_log) in zip(seeds, references):
        result = sdc_detecting_gmres(
            matrix, b, fault_hook=_hook(bits, inject_at, seed), **options
        )
        assert _fingerprint(result) == expected
        checks = ArnoldiChecks(norm, check_period=check_period)
        result = sdc_detecting_gmres(
            matrix, b, monitor=checks, fault_hook=_hook(bits, inject_at, seed), **options
        )
        assert _fingerprint(result) == expected
        assert _failures(checks.log) == expected_log

    # Lockstep: one lane per fault stream.
    results = batch_solve(
        "sdc_gmres", matrix, [b] * len(seeds), policy="skeptical_restart",
        lane_params=[{"fault_hook": _hook(bits, inject_at, seed)} for seed in seeds],
        **options,
    )
    assert [_fingerprint(r) for r in results] == [expected for expected, _ in references]


def _corrupt_hessenberg_newest(state):
    if state.total_iteration == 3:
        state.hessenberg[state.inner + 1, state.inner] = np.inf


def _corrupt_hessenberg_old(state):
    if state.total_iteration == 4 and state.inner > 0:
        state.hessenberg[0, 0] = np.nan


def _corrupt_hessenberg_large(state):
    if state.total_iteration == 6:
        state.hessenberg[1, state.inner] = 1e6


def _overflow_basis(state):
    # Finite entries whose Gram overflows: only orthogonality fires.
    if state.total_iteration == 5:
        state.basis[state.inner + 1][:3] = 1e200


def _scale_basis(state):
    if state.total_iteration == 7:
        state.basis[state.inner][:] *= 1.0 + 1e-3


def _nan_basis(state):
    if state.total_iteration == 5:
        state.basis[state.inner + 1][2] = np.nan


def _skew_first_column(state):
    # A finite, in-bound Hessenberg error that only the true residual
    # of the reconstructed iterate exposes.
    if state.total_iteration == 1:
        state.hessenberg[0, 0] *= 1.01


def _nan_residual_then_repair(state):
    # NaN enters at an unchecked step; at the next (checked) step the
    # basis and Hessenberg are repaired, so only the non-finite
    # residual history is left for the monotonicity check.
    if state.total_iteration == 3:
        state.basis[state.inner + 1][0] = np.nan
    elif state.total_iteration == 4:
        state.basis[state.inner + 1][:] = 0.0
        state.hessenberg[~np.isfinite(state.hessenberg)] = 0.0


HOOKS = [
    (_corrupt_hessenberg_newest, {}),
    (_corrupt_hessenberg_old, {}),
    (_corrupt_hessenberg_large, {}),
    (_overflow_basis, {}),
    (_scale_basis, {}),
    (_nan_basis, {}),
    (_skew_first_column, {"residual_check_period": 1}),
    (_nan_residual_then_repair, {"check_period": 2}),
]


@pytest.mark.parametrize("hook,settings", HOOKS, ids=[hook.__name__ for hook, _ in HOOKS])
@pytest.mark.parametrize("check_period", [1, 3])
def test_kernel_failure_paths_match_reference(hook, settings, check_period):
    matrix, b, norm = _problem(6)
    settings = {"check_period": check_period, **settings}
    options = dict(SOLVE, operator_norm=norm, **settings)
    monitor = reference_monitor(norm, **settings)
    expected = _fingerprint(
        sdc_detecting_gmres(matrix, b, monitor=monitor, fault_hook=hook, **options)
    )
    assert monitor.n_detections > 0
    checks = ArnoldiChecks(norm, **settings)
    result = sdc_detecting_gmres(matrix, b, monitor=checks, fault_hook=hook, **options)
    assert _fingerprint(result) == expected
    assert _failures(checks.log) == _failures(monitor.log)
    # Two lanes, so the lockstep check kernel runs: the faulted lane
    # next to a clean sibling.
    lane, clean = batch_solve("sdc_gmres", matrix, [b, b], policy="skeptical_restart",
                              lane_params=[{"fault_hook": hook}, {}], **options)
    assert _fingerprint(lane) == expected
    assert _fingerprint(clean) == _fingerprint(sdc_detecting_gmres(matrix, b, **options))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_gram_is_a_detection_without_warning():
    matrix, b, norm = _problem(6)
    result = sdc_detecting_gmres(matrix, b, fault_hook=_overflow_basis, **SOLVE,
                                 operator_norm=norm, orthogonality_period=1)
    assert result.detected_faults >= 1
    basis = np.linalg.qr(np.random.default_rng(0).standard_normal((8, 3)))[0]
    basis[0, 1] = 1e200
    assert orthogonality_check(basis).measure == float("inf")


def test_abort_response_reports_the_failing_check():
    matrix, b, norm = _problem(6)
    with pytest.raises(SkepticalAbort) as raised:
        sdc_detecting_gmres(matrix, b, fault_hook=_corrupt_hessenberg_newest,
                            operator_norm=norm, policy="abort", **SOLVE)
    assert raised.value.check.name == "finite_hessenberg"
    assert raised.value.check.measure == 1.0


def test_invalid_settings_are_rejected():
    with pytest.raises(ValueError, match="period must be positive"):
        ArnoldiChecks(1.0, orthogonality_period=0)
    with pytest.raises(TypeError):
        ArnoldiChecks(1.0, check_period=1.5)
    with pytest.raises(ValueError):
        ArnoldiChecks(1.0, hessenberg_safety=0.0)
    with pytest.raises(ValueError):
        ArnoldiChecks(float("nan"))


class _BasisRows:
    """The two basis accessors the reference closures use, over stack rows."""

    def __init__(self, rows, n_columns):
        self.rows = rows
        self.n_columns = n_columns

    def __getitem__(self, i):
        return self.rows[i]

    def matrix(self):
        return self.rows[: self.n_columns].T


@pytest.mark.parametrize("seed", range(12))
def test_stacked_kernel_matches_reference_per_row(seed):
    """Synthetic stacks with non-finite, huge and non-orthogonal entries,
    residual jumps and inconsistent true residuals, on non-leading rows."""
    rng = np.random.default_rng(seed)
    m, n, rows = 8, 12, [0, 2, 3]
    periods = dict(check_period=int(rng.integers(1, 3)),
                   orthogonality_period=int(rng.integers(1, 4)),
                   residual_check_period=int(rng.integers(1, 4)))
    basis = np.zeros((4, m + 1, n))
    hess = np.zeros((4, m + 1, m))
    for r in rows:
        basis[r] = np.linalg.qr(rng.standard_normal((n, m + 1)))[0].T
        hess[r] = np.triu(rng.uniform(-2.0, 2.0, (m + 1, m)), -1)
    checks = [ArnoldiChecks(1.0, **periods) for _ in rows]
    monitors = [reference_monitor(1.0, **periods) for _ in rows]
    histories = [[] for _ in rows]
    residuals = [1.0] * len(rows)
    specials = [np.nan, np.inf, -np.inf, 1e200, 5.0, -0.0]
    for j in range(m):
        truths = []
        for i, r in enumerate(rows):
            draw = rng.random(5)
            if draw[0] < 0.15:
                basis[r, j + 1, rng.integers(n)] = rng.choice(specials)
            if draw[1] < 0.15:
                hess[r, rng.integers(j + 2), rng.integers(j + 1)] = rng.choice(specials)
            if draw[2] < 0.1:
                basis[r, rng.integers(j + 2)] *= 1.01
            residuals[i] = (residuals[i] * rng.uniform(0.3, 1.0) if draw[3] > 0.2
                            else rng.choice([np.nan, np.inf, residuals[i] * 3.0]))
            truths.append(residuals[i] * (1.5 if draw[4] < 0.3 else 1.0))
        failed = observe_arnoldi(checks, rows, j, basis, hess, list(residuals),
                                 lambda i: truths[i])
        for i, r in enumerate(rows):
            histories[i].append(residuals[i])
            state = {
                "basis": _BasisRows(basis[r], j + 2),
                "hessenberg": hess[r],
                "inner": j,
                "residual_norm": residuals[i],
                "residual_history": histories[i],
                "true_residual": lambda i=i: truths[i] if j == 0 else residuals[i],
            }
            with np.errstate(all="ignore"):
                try:
                    monitors[i].observe(state)
                    aborted = False
                except SkepticalAbort:
                    aborted = True
            assert (i in failed) == aborted
    for c, monitor in zip(checks, monitors):
        assert c.summary() == monitor.summary()
        assert _failures(c.log) == _failures(monitor.log)


@pytest.mark.parametrize("history", [
    [], [1.0], [1.0, 2.0], [1.0, 1.5], [1.0, 1.5000001], [0.0, 1.0], [-1.0, 0.5, 3.0],
    [1.0, np.nan], [np.inf, 0.5], [0.1, 1.0, 1.0, 0.2, 0.29], [0.1, 1.0, 1.0, 0.2, 0.31],
    [1e-300, 1e300],
])
def test_fast_monotone_predicate_matches_check(history):
    assert _monotone(list(history)) == monotonicity_check(history).passed
