"""Tests for the SkP (skeptical) and SRP (selective reliability) layers,
including the SDC-detecting GMRES, ABFT operators, TMR and FT-GMRES."""

from __future__ import annotations

import numpy as np
import pytest

from repro.reliability import ArrayInjector, BernoulliPerCallSchedule, DeterministicSchedule
from repro.reliability.bitflip import flip_bit_array
from repro.ftgmres import UnreliableInnerSolver, ft_gmres
from repro.krylov import gmres
from repro.linalg import poisson_2d, convection_diffusion_2d
from repro.skeptical import (
    AbftMatvecOperator,
    AbortPolicy,
    AcceptIfDampedPolicy,
    RollbackPolicy,
    SkepticalAbort,
    SkepticalMonitor,
    abft_matmul,
    conservation_check,
    finite_check,
    hessenberg_bound_check,
    monotonicity_check,
    orthogonality_check,
    residual_consistency_check,
    sdc_detecting_gmres,
    spd_coefficient_check,
)
from repro.reliability import (
    ReliabilityCostModel,
    ReliabilityDomain,
    SelectiveReliabilityEnvironment,
    TmrDisagreement,
    tmr_execute,
)


class TestChecks:
    def test_finite_check(self):
        assert finite_check(np.ones(5)).passed
        bad = finite_check(np.array([1.0, np.nan, np.inf]))
        assert not bad.passed and bad.measure == 2.0

    def test_orthogonality_check_detects_corruption(self, rng):
        basis = np.linalg.qr(rng.standard_normal((30, 6)))[0]
        assert orthogonality_check(basis).passed
        corrupted = basis.copy()
        corrupted[:, 2] *= 1.5
        assert not orthogonality_check(corrupted).passed

    def test_orthogonality_check_empty_basis(self):
        assert orthogonality_check(np.zeros((5, 0))).passed

    def test_hessenberg_bound_check(self):
        h = np.array([[1.0, 2.0], [0.5, 1.5], [0.0, 0.3]])
        assert hessenberg_bound_check(h, operator_norm_estimate=3.0).passed
        h_bad = h.copy()
        h_bad[0, 1] = 1e8
        assert not hessenberg_bound_check(h_bad, operator_norm_estimate=3.0).passed
        h_nan = h.copy()
        h_nan[1, 0] = np.nan
        assert not hessenberg_bound_check(h_nan, operator_norm_estimate=3.0).passed

    def test_residual_consistency(self):
        assert residual_consistency_check(1.0e-3, 1.0001e-3).passed
        assert not residual_consistency_check(1.0e-3, 1.0).passed
        assert not residual_consistency_check(float("nan"), 1.0).passed

    def test_conservation_check(self):
        assert conservation_check(10.0, 10.0 + 1e-12).passed
        assert conservation_check(10.0, 9.0, expected_change=-1.0).passed
        assert not conservation_check(10.0, 12.0).passed
        assert not conservation_check(10.0, float("inf")).passed

    def test_monotonicity_check(self):
        assert monotonicity_check([1.0, 0.5, 0.25]).passed
        assert not monotonicity_check([1.0, 0.5, 5.0]).passed
        assert monotonicity_check([1.0]).passed
        assert not monotonicity_check([1.0, float("nan")]).passed

    @staticmethod
    def _reference_hessenberg_measure(h, k):
        # The mask/gather form hessenberg_bound_check used before its
        # single abs().max() reduction.
        window = h[: k + 1, :k]
        finite = np.isfinite(window)
        max_entry = float(np.max(np.abs(window[finite]))) if finite.any() else 0.0
        if not finite.all():
            max_entry = float("inf")
        return max_entry

    @pytest.mark.parametrize("corrupt", [
        [], [(0, 0, np.nan)], [(1, 0, np.inf)], [(2, 1, -np.inf)],
        [(0, 1, np.nan), (1, 1, np.inf)], [(0, 0, -0.0), (1, 0, 1e308)],
        [(r, c, np.nan) for r in range(3) for c in range(2)],
    ])
    @pytest.mark.parametrize("k", [1, 2])
    def test_hessenberg_bound_matches_mask_form(self, corrupt, k):
        h = np.array([[1.0, -2.0], [0.5, 1.5], [0.0, -0.3]])
        for r, c, value in corrupt:
            h[r, c] = value
        expected = self._reference_hessenberg_measure(h, k)
        result = hessenberg_bound_check(h, operator_norm_estimate=3.0, n_columns=k)
        assert result.measure == expected
        assert result.passed == (np.isfinite(expected) and expected <= 6.0)

    @staticmethod
    def _reference_monotonicity(history, allowed_increase=1.5, window=3):
        # The whole-history float conversion of the original check.
        values = [float(v) for v in history]
        if len(values) < 2:
            return True, 0.0
        recent = values[-(window + 1):]
        if not all(np.isfinite(v) for v in recent):
            return False, float("inf")
        reference = min(recent[:-1])
        if reference <= 0.0:
            return True, 0.0
        ratio = recent[-1] / reference
        return ratio <= allowed_increase, ratio

    @pytest.mark.parametrize("history", [
        [], [2.0], [1.0, np.nan], [np.inf, 1.0], [1.0, 0.5, -np.inf, 0.4],
        [np.nan, 1.0, 0.9, 0.8, 0.7], [1.0, 0.0, 0.5], [1e-300, 1e300],
        [0.3, np.inf, 0.2, 0.1, 0.05], list(np.geomspace(1.0, 1e-8, 5000)),
        list(np.geomspace(1.0, 1e-8, 5000)) + [1.0],
        [np.nan] * 4000 + [1.0, 0.9, 0.8, 0.7],
    ])
    @pytest.mark.parametrize("window", [1, 3, 10])
    def test_monotonicity_reads_only_the_window(self, history, window):
        passed, measure = self._reference_monotonicity(history, window=window)
        for seq in (history, np.asarray(history, dtype=np.float64), tuple(history)):
            result = monotonicity_check(seq, window=window)
            assert result.passed == passed
            assert result.measure == measure or (np.isnan(measure) and np.isnan(result.measure))

    def test_spd_coefficient_check(self):
        assert spd_coefficient_check([0.1, 0.5]).passed
        assert not spd_coefficient_check([0.1, -0.2]).passed
        assert spd_coefficient_check([]).passed


class TestPoliciesAndMonitor:
    def test_abort_policy_raises(self):
        failing = finite_check(np.array([np.nan]))
        with pytest.raises(SkepticalAbort):
            AbortPolicy().handle(failing)

    def test_rollback_policy_restores_then_escalates(self):
        restored = []
        policy = RollbackPolicy(lambda ctx: restored.append(ctx), max_rollbacks=2)
        failing = finite_check(np.array([np.nan]))
        assert policy.handle(failing, {"step": 1}) == "rollback"
        assert policy.handle(failing, {"step": 2}) == "rollback"
        with pytest.raises(SkepticalAbort):
            policy.handle(failing, {"step": 3})
        assert len(restored) == 2

    def test_accept_if_damped_policy(self):
        policy = AcceptIfDampedPolicy(damping_threshold=1e-3)
        small = orthogonality_check(np.eye(3) + 1e-5, tol=1e-8)
        assert policy.handle(small) == "continue"
        large = orthogonality_check(np.eye(3) + 1.0, tol=1e-8)
        with pytest.raises(SkepticalAbort):
            policy.handle(large)
        assert policy.accepted == 1

    def test_monitor_periodic_checks(self):
        monitor = SkepticalMonitor()
        monitor.add_check("finite", lambda s: finite_check(s["x"]), period=2)
        x = np.ones(3)
        assert monitor.observe({"x": x}) is None  # observation 1: period not due
        assert monitor.observe({"x": x}) is None  # observation 2: runs, passes
        assert monitor.summary()["checks_run"] == 1

    def test_monitor_detection_and_policy(self):
        monitor = SkepticalMonitor(policy=AcceptIfDampedPolicy(damping_threshold=1e9))
        monitor.add_check("finite", lambda s: finite_check(s["x"]))
        action = monitor.observe({"x": np.array([np.inf])})
        assert action == "continue"
        assert monitor.detected and monitor.n_detections == 1

    def test_monitor_requires_check_result(self):
        monitor = SkepticalMonitor()
        monitor.add_check("bad", lambda s: True)
        with pytest.raises(TypeError):
            monitor.observe({})

    def test_monitor_reset(self):
        monitor = SkepticalMonitor()
        monitor.add_check("finite", lambda s: finite_check(s["x"]))
        monitor.observe({"x": np.ones(2)})
        monitor.reset()
        assert monitor.summary()["observations"] == 0

    def test_monitor_period_validation(self):
        monitor = SkepticalMonitor()
        with pytest.raises(ValueError):
            monitor.add_check("x", lambda s: finite_check(s["x"]), period=0)


class TestAbft:
    def test_abft_operator_clean(self, poisson_small, rng):
        operator = AbftMatvecOperator(poisson_small)
        x = rng.standard_normal(poisson_small.n_rows)
        assert np.allclose(operator(x), poisson_small.matvec(x))
        assert operator.detections == 0

    def test_abft_operator_detects_and_recovers(self, poisson_small, rng):
        injector = ArrayInjector(DeterministicSchedule([1.0]), rng=0, bit_range=(55, 62))
        operator = AbftMatvecOperator(poisson_small, injector=injector)
        x = rng.standard_normal(poisson_small.n_rows)
        result = operator(x)
        assert operator.detections == 1
        assert operator.recoveries == 1
        assert np.allclose(result, poisson_small.matvec(x))

    def test_abft_operator_in_gmres(self, poisson_small, rng):
        injector = ArrayInjector(
            BernoulliPerCallSchedule(0.2, rng=1), rng=2, bit_range=(55, 62)
        )
        operator = AbftMatvecOperator(poisson_small, injector=injector)
        b = rng.standard_normal(poisson_small.n_rows)
        result = gmres(operator, b, tol=1e-8, restart=30, maxiter=400)
        assert result.converged
        assert operator.detections >= 1
        assert operator.stats()["applications"] > 0

    def test_abft_matmul_wrapper(self, rng):
        a = rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6))
        product, report = abft_matmul(a, b, corrupt=lambda c: flip_bit_array(c, 7, 60))
        assert report.corrected
        assert np.allclose(product, a @ b)


class TestSdcDetectingGmres:
    def test_fault_free_converges_without_detection(self, poisson_small, rng):
        b = rng.standard_normal(poisson_small.n_rows)
        result = sdc_detecting_gmres(poisson_small, b, tol=1e-8, restart=30, maxiter=400)
        assert result.converged
        assert result.detected_faults == 0

    def test_exponent_flip_detected_and_recovered(self, poisson_small, rng):
        b = rng.standard_normal(poisson_small.n_rows)
        injected = {"done": False}

        def fault_hook(state):
            if not injected["done"] and state.total_iteration == 5:
                target = np.asarray(state.basis[state.inner + 1])
                flip_bit_array(target, 3, 62, inplace=True)
                injected["done"] = True

        result = sdc_detecting_gmres(
            poisson_small, b, tol=1e-8, restart=30, maxiter=600, fault_hook=fault_hook
        )
        assert injected["done"]
        assert result.detected_faults >= 1
        assert result.converged
        residual = np.linalg.norm(poisson_small.matvec(np.asarray(result.x)) - b)
        assert residual / np.linalg.norm(b) < 1e-7

    def test_abort_policy_raises(self, poisson_small, rng):
        b = rng.standard_normal(poisson_small.n_rows)

        def fault_hook(state):
            if state.total_iteration == 3:
                np.asarray(state.basis[state.inner + 1])[0] = np.inf

        with pytest.raises(SkepticalAbort):
            sdc_detecting_gmres(poisson_small, b, tol=1e-8, maxiter=200,
                                fault_hook=fault_hook, policy="abort")

    def test_invalid_policy(self, poisson_tiny):
        with pytest.raises(ValueError):
            sdc_detecting_gmres(poisson_tiny, np.ones(poisson_tiny.n_rows), policy="ignore")

    def test_check_accounting(self, poisson_small, rng):
        b = rng.standard_normal(poisson_small.n_rows)
        result = sdc_detecting_gmres(poisson_small, b, tol=1e-8, restart=20, maxiter=200)
        assert result.info["checks_run"] > 0
        assert result.info["check_flops"] > 0


class TestSrp:
    def test_reliable_domain_never_corrupts(self):
        domain = ReliabilityDomain("safe", level="reliable")
        data = np.ones(64)
        for _ in range(10):
            domain.touch(data)
        assert np.all(data == 1.0)
        assert domain.faults_injected() == 0

    def test_reliable_domain_rejects_injector(self):
        with pytest.raises(ValueError):
            ReliabilityDomain("safe", level="reliable",
                              injector=ArrayInjector(DeterministicSchedule([0.0])))

    def test_unreliable_domain_corrupts_per_schedule(self):
        injector = ArrayInjector(DeterministicSchedule([1.0, 2.0]), rng=0)
        domain = ReliabilityDomain("bulk", injector=injector)
        data = np.ones(128)
        domain.touch(data, now=1.0)
        domain.touch(data, now=2.0)
        assert domain.faults_injected() == 2

    def test_domain_allocation_tracking(self):
        domain = ReliabilityDomain("bulk")
        domain.allocate((16,), name="vector")
        domain.adopt(np.zeros(8), name="extra")
        assert domain.bytes_allocated == 16 * 8 + 8 * 8
        assert len(domain.allocations) == 2

    def test_domain_run_accounts_flops(self):
        domain = ReliabilityDomain("bulk")
        result = domain.run(lambda: np.ones(4), flops=100.0)
        assert np.allclose(result, 1.0)
        assert domain.flops == 100.0

    def test_environment_summary_and_cost(self):
        env = SelectiveReliabilityEnvironment(fault_probability=0.0, seed=0)
        with env.reliable() as reliable:
            reliable.flops += 100.0
        with env.unreliable() as unreliable:
            unreliable.flops += 900.0
        summary = env.summary()
        assert summary["reliable_fraction_flops"] == pytest.approx(0.1)
        cost = env.cost_summary()
        assert cost["savings_factor"] > 1.0

    def test_environment_injects(self):
        env = SelectiveReliabilityEnvironment(fault_probability=1.0, seed=3)
        with env.unreliable() as domain:
            domain.touch(np.ones(32), now=0.0)
        assert env.faults_injected() == 1

    def test_cost_model(self):
        model = ReliabilityCostModel(reliable_compute_factor=3.0,
                                     reliable_storage_factor=2.0)
        assert model.execution_cost(10.0, 90.0) == pytest.approx(120.0)
        assert model.storage_cost(10.0, 80.0) == pytest.approx(100.0)
        assert model.speedup_vs_all_reliable(10.0, 90.0) == pytest.approx(300.0 / 120.0)
        with pytest.raises(ValueError):
            ReliabilityCostModel(reliable_compute_factor=0.0)


class TestTmr:
    def test_majority_vote_masks_one_bad_replica(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            return 99.0 if calls["n"] == 2 else 1.0

        counter = {}
        assert tmr_execute(flaky, counter=counter) == 1.0
        assert counter["tmr_corrections"] == 1
        assert counter["tmr_executions"] == 3

    def test_all_disagree_raises(self):
        values = iter([1.0, 2.0, 3.0])
        with pytest.raises(TmrDisagreement):
            tmr_execute(lambda: next(values))

    def test_array_results(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            out = np.ones(4)
            if calls["n"] == 3:
                out[2] = np.nan
            return out

        assert np.allclose(tmr_execute(flaky), 1.0)

    def test_non_numeric_results(self):
        assert tmr_execute(lambda: "same") == "same"


class TestFtGmres:
    def test_fault_free_matches_plain(self, convdiff_small, rng):
        b = rng.standard_normal(convdiff_small.n_rows)
        result = ft_gmres(convdiff_small, b, tol=1e-8, fault_probability=0.0, seed=1)
        assert result.converged
        residual = np.linalg.norm(convdiff_small.matvec(np.asarray(result.x)) - b)
        assert residual / np.linalg.norm(b) < 1e-7

    def test_converges_under_injection(self, convdiff_small, rng):
        b = rng.standard_normal(convdiff_small.n_rows)
        result = ft_gmres(convdiff_small, b, tol=1e-8, fault_probability=0.1, seed=5,
                          outer_maxiter=40, inner_maxiter=12)
        assert result.converged
        residual = np.linalg.norm(convdiff_small.matvec(np.asarray(result.x)) - b)
        assert residual / np.linalg.norm(b) < 1e-7

    def test_most_work_is_unreliable(self, convdiff_small, rng):
        b = rng.standard_normal(convdiff_small.n_rows)
        result = ft_gmres(convdiff_small, b, tol=1e-8, fault_probability=0.05, seed=2)
        assert result.info["unreliable_fraction_flops"] > 0.5
        assert result.info["srp_cost"]["savings_factor"] > 1.0

    def test_inner_solver_stats(self, poisson_small, rng):
        env = SelectiveReliabilityEnvironment(fault_probability=0.0, seed=0)
        inner = UnreliableInnerSolver(poisson_small, env, inner_maxiter=5)
        v = rng.standard_normal(poisson_small.n_rows)
        z = inner(v)
        assert z.shape == v.shape
        stats = inner.stats()
        assert stats["inner_solves"] == 1
        assert stats["inner_iterations"] > 0
        assert stats["inner_flops"] > 0

    def test_fault_probability_validation(self, poisson_tiny):
        with pytest.raises(ValueError):
            ft_gmres(poisson_tiny, np.ones(poisson_tiny.n_rows), fault_probability=1.5)
