"""Batched-vs-sequential differential suite (lockstep batch execution).

The batch layer's contract is bit-identity: ``batch_solve`` must equal
``S`` separate ``solve()`` calls, driver ``run_batch`` must equal ``S``
separate ``run()`` calls, and a batched campaign must persist exactly
what a sequential campaign persists.  This module pins that contract at
every layer:

* engine -- the solver x policy x preconditioner x fault-hook matrix,
  including mid-batch divergence (mixed per-lane tolerances) and a
  non-converging lane;
* drivers -- E1/E8/E9 ``run_batch`` against sequential ``run``;
* runner -- ``CampaignRunner(batch=...)`` store contents against the
  scenario-at-a-time run, mixed batchable/non-batchable campaigns
  included;
* properties (Hypothesis) -- ``plan_batch_groups`` partitions without
  dropping or duplicating scenarios, and the lockstep convergence mask
  freezes finished lanes' iterates for good;
* ledger -- a quarantined key completed later (e.g. by a batch
  sibling's unit) leaves ``failed_keys()`` once the store holds it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign.executor import AttemptRecord, FailureLedger
from repro.campaign.registry import default_registry
from repro.campaign.runner import CampaignRunner, plan_batch_groups
from repro.campaign.spec import Scenario, canonical_json
from repro.campaign.store import ResultStore
from repro.experiments import e1_sdc_detection, e8_solvers, e9_precond
from repro.krylov.engine.batch import CgLaneSpec, run_cg_batch
from repro.krylov.registry import batch_solve, default_solver_registry
from repro.linalg.matgen import poisson_2d
from repro.reliability.models import BasisBitflipFaults
from repro.reliability.spec import FaultSpec


@pytest.fixture(scope="module")
def matrix():
    return poisson_2d(12)


@pytest.fixture(scope="module")
def rhs(matrix):
    return [
        np.random.default_rng(100 + i).standard_normal(matrix.n_rows)
        for i in range(5)
    ]


def assert_lane_parity(results, seq_results):
    """Bit-identity of a batched result list against sequential solves."""
    assert len(results) == len(seq_results)
    for r, s in zip(results, seq_results):
        assert r.x.tobytes() == s.x.tobytes()
        assert r.residual_norms == s.residual_norms
        assert r.iterations == s.iterations
        assert r.converged == s.converged
        assert r.breakdown == s.breakdown
        r_info = {k: v for k, v in r.info.items() if k != "kernels"}
        s_info = {k: v for k, v in s.info.items() if k != "kernels"}
        assert r_info == s_info
        # Wall-clock seconds differ; the call counts must not.
        assert r.info["kernels"]["counts"] == s.info["kernels"]["counts"]


# ----------------------------------------------------------------------
# Engine layer: batch_solve vs S sequential solve() calls.
# ----------------------------------------------------------------------
class TestEngineParity:
    @pytest.mark.parametrize(
        "solver,kwargs",
        [
            ("gmres", dict(tol=1e-8, restart=30, maxiter=600)),
            ("gmres", dict(tol=1e-8, restart=25, maxiter=500, policy="residual_guard")),
            ("gmres", dict(tol=1e-8, restart=30, maxiter=600, gram_schmidt="classical")),
            ("gmres", dict(tol=1e-8, restart=30, maxiter=600, precond="jacobi")),
            ("cg", dict(tol=1e-10, maxiter=400)),
            ("cg", dict(tol=1e-10, maxiter=400, precond="jacobi")),
            ("cg", dict(tol=1e-10, maxiter=400, policy="residual_guard")),
            ("sdc_gmres", dict(policy="skeptical_restart", tol=1e-8, restart=30,
                               maxiter=600, check_period=2)),
            # Sequential-fallback configurations must agree too.
            ("pipelined_gmres", dict(tol=1e-8, maxiter=400)),
            ("fgmres", dict(tol=1e-8, maxiter=300, precond="jacobi")),
        ],
        ids=["gmres", "gmres-guard", "gmres-mgs", "gmres-jacobi", "cg",
             "cg-jacobi", "cg-guard", "sdc", "pipelined-fallback",
             "fgmres-fallback"],
    )
    def test_solver_policy_precond_matrix(self, matrix, rhs, solver, kwargs):
        registry = default_solver_registry()
        batched = batch_solve(solver, matrix, rhs, **kwargs)
        sequential = [registry.get(solver).solve(matrix, b, **kwargs) for b in rhs]
        assert_lane_parity(batched, sequential)

    def test_fault_hooks_draw_identical_streams(self, matrix, rhs):
        registry = default_solver_registry()
        model = BasisBitflipFaults(FaultSpec("basis_bitflip", {"bits": (30, 55)}))

        def hook(seed):
            h, _info = model.iteration_hook(np.random.default_rng(seed), at=5)
            return h

        kwargs = dict(policy="skeptical_restart", tol=1e-8, restart=30,
                      maxiter=600, check_period=1)
        batched = batch_solve(
            "sdc_gmres", matrix, rhs, **kwargs,
            lane_params=[{"fault_hook": hook(7 + i)} for i in range(len(rhs))],
        )
        sequential = [
            registry.get("sdc_gmres").solve(
                matrix, b, **kwargs, policy_options={"fault_hook": hook(7 + i)}
            )
            for i, b in enumerate(rhs)
        ]
        assert_lane_parity(batched, sequential)

    def test_mid_batch_divergence_mixed_tolerances(self, matrix):
        # Per-lane tolerances force staggered exits: the tightest lane
        # keeps iterating long after the loosest froze.
        registry = default_solver_registry()
        tols = [1e-4, 1e-6, 1e-8, 1e-10, 1e-12]
        lane_params = [{"tol": tols[i % 5]} for i in range(10)]
        bs = [
            np.random.default_rng(40 + i).standard_normal(matrix.n_rows)
            for i in range(10)
        ]
        for solver, kwargs in [
            ("gmres", dict(restart=30, maxiter=600)),
            ("sdc_gmres", dict(policy="skeptical_restart", restart=30,
                               maxiter=600, check_period=1)),
        ]:
            batched = batch_solve(solver, matrix, bs, **kwargs,
                                  lane_params=lane_params)
            sequential = [
                registry.get(solver).solve(matrix, b, **kwargs, **lane_params[i])
                for i, b in enumerate(bs)
            ]
            iterations = {r.iterations for r in batched}
            assert len(iterations) > 1, "tolerance mix should stagger exits"
            assert_lane_parity(batched, sequential)

    @pytest.mark.parametrize("solver", ["gmres", "cg", "sdc_gmres"])
    def test_single_lane_runs_sequentially(self, matrix, rhs, monkeypatch, solver):
        # Lockstep only pays off across lanes: one lane must never enter
        # the batch engine, and still equals its solve() call.
        from repro.krylov.engine import batch

        def refuse(*args, **kwargs):
            raise AssertionError("a one-lane batch_solve entered the lockstep engine")

        monkeypatch.setattr(batch, "run_arnoldi_batch", refuse)
        monkeypatch.setattr(batch, "run_cg_batch", refuse)
        kwargs = dict(tol=1e-8, maxiter=400)
        if solver == "sdc_gmres":
            kwargs["policy"] = "skeptical_restart"
        (lane,) = batch_solve(solver, matrix, rhs[:1], **kwargs)
        solo = default_solver_registry().get(solver).solve(matrix, rhs[0], **kwargs)
        assert_lane_parity([lane], [solo])

    def test_non_converging_lane(self, matrix, rhs):
        # A lane that exhausts maxiter must report non-convergence with
        # the exact sequential history, without stalling its siblings.
        registry = default_solver_registry()
        kwargs = dict(tol=1e-14, restart=20, maxiter=40, precond="jacobi")
        batched = batch_solve("gmres", matrix, rhs, **kwargs)
        sequential = [registry.get("gmres").solve(matrix, b, **kwargs) for b in rhs]
        assert any(not r.converged for r in batched)
        assert_lane_parity(batched, sequential)


# ----------------------------------------------------------------------
# Driver layer: run_batch vs S sequential run() calls.
# ----------------------------------------------------------------------
def assert_driver_parity(module, config, seeds):
    batched = module.run_batch([dict(config, seed=s) for s in seeds])
    sequential = [module.run(**dict(config, seed=s)) for s in seeds]
    assert len(batched) == len(sequential)
    for b, s in zip(batched, sequential):
        assert canonical_json(b.to_dict()) == canonical_json(s.to_dict())


class TestDriverParity:
    def test_e1_matches_sequential(self):
        assert_driver_parity(
            e1_sdc_detection,
            dict(grid=6, n_trials=2, inject_at=4),
            seeds=[101, 102, 103],
        )

    def test_e8_matches_sequential(self):
        assert_driver_parity(
            e8_solvers,
            dict(grid=6, solvers=("gmres", "cg", "sdc_gmres"),
                 policy="skeptical", faults="bitflip:p=0.02,bits=52..62"),
            seeds=[101, 102, 103],
        )

    def test_e8_fallback_solvers_match_sequential(self):
        # Non-batchable solvers (pipelined, flexible, ft_gmres) take
        # the sequential-fallback path inside the batch driver.
        assert_driver_parity(
            e8_solvers,
            dict(grid=6, solvers=("pipelined_gmres", "fgmres", "ft_gmres"),
                 policy="guard", faults="bitflip:p=0.02,bits=52..62"),
            seeds=[101, 102],
        )

    @pytest.mark.parametrize("target", ["precond", "operator"])
    def test_e9_matches_sequential(self, target):
        assert_driver_parity(
            e9_precond,
            dict(grid=6, solvers=("gmres", "cg"), preconds=("none", "jacobi"),
                 faults="bitflip:p=0.05,bits=52..62", target=target),
            seeds=[101, 102, 103],
        )

    def test_empty_and_singleton_batches(self):
        assert e8_solvers.run_batch([]) == []
        config = dict(grid=6, solvers=("gmres",), policy="none", seed=77)
        single = e8_solvers.run_batch([config])
        assert canonical_json(single[0].to_dict()) == canonical_json(
            e8_solvers.run(**config).to_dict()
        )

    def test_incompatible_scenarios_fall_back(self):
        # Differing non-seed parameters cannot share a lockstep batch;
        # the driver must fall back to per-scenario runs, not group them.
        params = [
            dict(grid=6, solvers=("gmres",), policy="none", seed=1),
            dict(grid=6, solvers=("cg",), policy="none", seed=1),
        ]
        batched = e8_solvers.run_batch(params)
        sequential = [e8_solvers.run(**p) for p in params]
        for b, s in zip(batched, sequential):
            assert canonical_json(b.to_dict()) == canonical_json(s.to_dict())


# ----------------------------------------------------------------------
# Runner layer: batched campaigns persist exactly the sequential stores.
# ----------------------------------------------------------------------
def _replica_scenarios():
    base = {"grid": 6, "solvers": ("gmres", "cg"), "policy": "none"}
    scenarios = [
        Scenario("E8", dict(base, seed=200 + i)) for i in range(4)
    ]
    # A non-batchable driver mixed in: grouped as singletons, results
    # unchanged.
    scenarios.append(Scenario("E7", {"node_mtbf_years": 1.0}))
    return scenarios


def _store_contents(path):
    return {
        record.key: canonical_json(record.result)
        for record in ResultStore(str(path)).records()
    }


class TestRunnerBatchMode:
    def test_batched_store_matches_sequential(self, tmp_path):
        scenarios = _replica_scenarios()
        CampaignRunner(ResultStore(str(tmp_path / "seq.jsonl"))).run(scenarios)
        CampaignRunner(
            ResultStore(str(tmp_path / "bat.jsonl")), batch=0
        ).run(scenarios)
        sequential = _store_contents(tmp_path / "seq.jsonl")
        batched = _store_contents(tmp_path / "bat.jsonl")
        assert sequential == batched

    def test_batch_cap_chunks_groups(self, tmp_path):
        scenarios = _replica_scenarios()
        groups = plan_batch_groups(scenarios, limit=3)
        assert sorted(len(g) for g in groups) == [1, 1, 3]
        CampaignRunner(ResultStore(str(tmp_path / "seq.jsonl"))).run(scenarios)
        CampaignRunner(
            ResultStore(str(tmp_path / "cap.jsonl")), batch=3
        ).run(scenarios)
        assert _store_contents(tmp_path / "seq.jsonl") == _store_contents(
            tmp_path / "cap.jsonl"
        )

    def test_batched_outcomes_report_per_scenario(self):
        scenarios = _replica_scenarios()
        outcomes = CampaignRunner(batch=0).run(scenarios)
        assert len(outcomes) == len(scenarios)
        assert all(o.status == "completed" for o in outcomes)
        keys = {o.key for o in outcomes}
        assert len(keys) == len(scenarios)

    def test_negative_batch_rejected(self):
        with pytest.raises(ValueError):
            CampaignRunner(batch=-1)


# ----------------------------------------------------------------------
# Properties: grouping partitions; convergence masks freeze lanes.
# ----------------------------------------------------------------------
_experiment = st.sampled_from(["E1", "E7", "E8", "E9"])
_params = st.fixed_dictionaries(
    {"seed": st.integers(0, 5)},
    optional={"grid": st.sampled_from([6, 8]), "policy": st.sampled_from(["none", "guard"])},
)


@st.composite
def _scenario_lists(draw):
    pairs = draw(
        st.lists(st.tuples(_experiment, _params), min_size=0, max_size=20)
    )
    return [Scenario(experiment, params) for experiment, params in pairs]


class TestBatchGroupingProperties:
    @settings(max_examples=60, deadline=None)
    @given(scenarios=_scenario_lists(), limit=st.sampled_from([0, 1, 2, 3]))
    def test_groups_partition_scenarios(self, scenarios, limit):
        registry = default_registry()
        groups = plan_batch_groups(scenarios, limit=limit)
        flat = [index for group in groups for index in group]
        # Nothing dropped, nothing duplicated.
        assert sorted(flat) == list(range(len(scenarios)))
        for group in groups:
            if limit:
                assert len(group) <= limit
            members = [scenarios[i] for i in group]
            driver = registry.get(members[0].experiment)
            if len(members) > 1:
                # Only shape-compatible scenarios of a batch-capable
                # driver share a group: same experiment, same params
                # except the seed.
                assert driver.supports_batch
                reference = {
                    k: v for k, v in members[0].params.items() if k != "seed"
                }
                for member in members[1:]:
                    assert member.experiment == members[0].experiment
                    assert {
                        k: v for k, v in member.params.items() if k != "seed"
                    } == reference

    @settings(max_examples=30, deadline=None)
    @given(scenarios=_scenario_lists())
    def test_grouping_is_deterministic(self, scenarios):
        assert plan_batch_groups(scenarios) == plan_batch_groups(scenarios)

    @settings(max_examples=30, deadline=None)
    @given(scenarios=_scenario_lists())
    def test_non_batchable_drivers_stay_singleton(self, scenarios):
        registry = default_registry()
        for group in plan_batch_groups(scenarios):
            driver = registry.get(scenarios[group[0]].experiment)
            if not driver.supports_batch:
                assert len(group) == 1


class TestMaskFreezeProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        lanes=st.lists(
            st.tuples(
                st.integers(0, 10_000),          # rhs seed
                st.integers(2, 10),              # tolerance exponent
                st.sampled_from([5, 30, 200]),   # maxiter
            ),
            min_size=2,
            max_size=6,
        )
    )
    def test_converged_lane_rows_never_change(self, lanes):
        # Once a lane leaves the advancing set (converged, broken down
        # or out of budget), its rows of the stacked iterate/residual
        # arrays must stay frozen for the rest of the lockstep run.
        matrix = poisson_2d(5)
        specs = [
            CgLaneSpec(
                b=np.random.default_rng(seed).standard_normal(matrix.n_rows),
                tol=10.0 ** -exponent,
                maxiter=maxiter,
            )
            for seed, exponent, maxiter in lanes
        ]
        snapshots = {}

        def trace(step, advanced, X, R):
            advancing = set(advanced)
            for lane in range(len(specs)):
                if lane in advancing:
                    snapshots[lane] = (X[lane].copy(), R[lane].copy())
                elif lane in snapshots:
                    x_frozen, r_frozen = snapshots[lane]
                    assert np.array_equal(X[lane], x_frozen)
                    assert np.array_equal(R[lane], r_frozen)

        results = run_cg_batch(matrix, specs, trace=trace)
        # The frozen rows are exactly what each lane returned.
        for lane, result in enumerate(results):
            if lane in snapshots:
                assert np.array_equal(result.x, snapshots[lane][0])


# ----------------------------------------------------------------------
# Ledger reconciliation: the store is authoritative for completion.
# ----------------------------------------------------------------------
class TestLedgerReconciliation:
    def test_quarantined_key_cleared_by_cached_store_hit(self, tmp_path):
        # A scenario quarantined in one run (e.g. its batch unit was
        # killed) but whose result reached the store -- a sibling's
        # unit completed it, or a later solo run journaled elsewhere --
        # must not linger in failed_keys() forever.
        store_path = tmp_path / "s.jsonl"
        scenarios = [Scenario("E7", {"node_mtbf_years": 1.0})]
        outcomes = CampaignRunner(ResultStore(str(store_path))).run(scenarios)
        key = outcomes[0].key

        ledger_path = FailureLedger.path_for(str(store_path))
        FailureLedger(ledger_path).record(
            AttemptRecord(key=key, experiment="E7", attempt=3,
                          status="crashed", outcome="quarantined")
        )
        assert key in FailureLedger(ledger_path).failed_keys()

        rerun = CampaignRunner(ResultStore(str(store_path))).run(scenarios)
        assert rerun[0].status == "cached"
        reconciled = FailureLedger(ledger_path)
        assert key not in reconciled.failed_keys()
        assert reconciled.records()[-1].status == "reconciled"

    def test_mark_completed_clears_failed_key(self, tmp_path):
        ledger = FailureLedger(str(tmp_path / "ledger.jsonl"))
        ledger.record(
            AttemptRecord(key="k1", experiment="E8", attempt=2,
                          status="timeout", outcome="timeout")
        )
        assert ledger.failed_keys() == ["k1"]
        ledger.mark_completed("k1", "E8")
        assert ledger.failed_keys() == []
        # Append-only history survives the reconciliation.
        assert [r.outcome for r in ledger.records()] == ["timeout", "completed"]
