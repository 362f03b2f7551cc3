"""Tests for the declarative preconditioning layer (``repro.precond``).

Four contract surfaces, mirroring ``tests/test_solver_registry.py``:

* :class:`PrecondSpec` -- string/dict round-trips (hypothesis-driven),
  kind/parameter validation.
* The registry -- lookup semantics, the builder contract for every
  named entry, actionable error messages that name the offending spec
  string.
* Solver wiring -- ``precond=`` on every registered solver is bitwise
  the explicitly-constructed preconditioner path.
* Selective reliability -- the paper's claim as an executable
  assertion: FGMRES with an ``unreliable(...)``-wrapped preconditioner
  converges to the reliable answer while the same fault model on the
  reliable-path operator degrades it.
* The SSOR kernel -- the level-scheduled sweeps are bit-identical to
  the row-by-row sweeps they replaced, and agree with an independent
  dense triangular-solve oracle.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import precond, reliability
from repro.krylov import default_solver_registry
from repro.krylov.fgmres import fgmres
from repro.krylov.gmres import gmres
from repro.linalg import (
    CsrMatrix,
    convection_diffusion_2d,
    diagonally_dominant,
    poisson_2d,
    poisson_3d,
)
from repro.linalg.precond import (
    BlockJacobiPreconditioner,
    JacobiPreconditioner,
    Preconditioner,
    SsorPreconditioner,
)
from repro.precond import (
    PRECOND_KINDS,
    PrecondRegistry,
    PrecondSpec,
    build_preconditioner,
    default_precond_registry,
    parse_precond,
    precond_names,
    resolve_preconds,
)

REGISTRY = default_precond_registry()


def _problem(grid: int = 8, seed: int = 17):
    matrix = poisson_2d(grid)
    rng = np.random.default_rng(seed)
    return matrix, rng.standard_normal(matrix.n_rows)


# ---------------------------------------------------------------------------
# PrecondSpec round-trips and validation
# ---------------------------------------------------------------------------

_scalars = st.one_of(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=64,
              min_value=-1e12, max_value=1e12),
)


def _spec_strategy():
    def params_for(kind):
        names = PRECOND_KINDS[kind]
        if not names:
            return st.just({})
        return st.fixed_dictionaries(
            {}, optional={name: _scalars for name in names}
        )

    return st.sampled_from(sorted(PRECOND_KINDS)).flatmap(
        lambda kind: params_for(kind).map(lambda p: PrecondSpec(kind, p))
    )


class TestPrecondSpec:
    @settings(max_examples=200, deadline=None)
    @given(_spec_strategy())
    def test_string_roundtrip_exact(self, spec):
        assert PrecondSpec.parse(spec.to_string()) == spec

    @settings(max_examples=200, deadline=None)
    @given(_spec_strategy())
    def test_dict_roundtrip_exact(self, spec):
        assert PrecondSpec.from_dict(spec.to_dict()) == spec

    def test_parse_examples(self):
        assert PrecondSpec.parse("none") == PrecondSpec("none")
        assert PrecondSpec.parse("ssor:omega=1.2") == PrecondSpec(
            "ssor", {"omega": 1.2}
        )
        assert PrecondSpec.parse("poly:k=4").get("k") == 4
        assert PrecondSpec.parse("bjacobi:bs=8").to_string() == "bjacobi:bs=8"

    def test_loose_dict_form(self):
        assert PrecondSpec.from_dict({"kind": "ssor", "omega": 1.5}) == (
            PrecondSpec("ssor", {"omega": 1.5})
        )

    def test_unknown_kind_rejected_with_known_kinds(self):
        with pytest.raises(ValueError, match="bjacobi"):
            PrecondSpec("ilu")

    def test_unknown_parameter_rejected_with_valid_set(self):
        with pytest.raises(ValueError, match="omega"):
            PrecondSpec("ssor", {"omeag": 1.2})

    def test_with_params_drops_none_overrides(self):
        spec = PrecondSpec("ssor", {"omega": 1.0})
        assert spec.with_params(omega=None) == spec
        assert spec.with_params(omega=1.5).get("omega") == 1.5

    def test_case_insensitive_kind(self):
        assert PrecondSpec("SSOR", {"omega": 1.0}).kind == "ssor"


# ---------------------------------------------------------------------------
# Registry contract (mirrors test_solver_registry.TestRegistryLookup)
# ---------------------------------------------------------------------------

class TestRegistryLookup:
    def test_names_cover_the_builtin_set(self):
        assert {"none", "jacobi", "ssor", "ssor_over", "poly2", "poly4",
                "bjacobi8"} <= set(precond_names())

    def test_unknown_precond_raises_with_known_names(self):
        with pytest.raises(KeyError, match="jacobi"):
            REGISTRY.get("ilu0")

    def test_lookup_is_case_insensitive(self):
        assert REGISTRY.get("JACOBI").name == "jacobi"

    def test_duplicate_names_rejected(self):
        registry = PrecondRegistry()
        with pytest.raises(ValueError, match="duplicate"):
            registry.add(REGISTRY.get("jacobi"))

    def test_every_entry_round_trips_and_builds(self):
        matrix, _ = _problem()
        for entry in REGISTRY:
            assert PrecondSpec.parse(entry.spec.to_string()) == entry.spec
            assert PrecondSpec.from_dict(entry.spec.to_dict()) == entry.spec
            built = entry.build(matrix)
            if entry.spec.kind == "none":
                assert built is None
                continue
            assert isinstance(built, Preconditioner)
            z = built.apply(np.ones(matrix.n_rows))
            assert z.shape == (matrix.n_rows,)
            assert np.all(np.isfinite(z))

    def test_every_entry_names_an_experiment(self):
        for entry in REGISTRY:
            assert entry.experiments, entry.name


class TestResolution:
    def test_none_resolves_to_no_preconditioner(self):
        matrix, _ = _problem()
        assert resolve_preconds(None, matrix=matrix) is None
        assert resolve_preconds("none", matrix=matrix) is None

    def test_registry_names_and_inline_specs_resolve(self):
        matrix, _ = _problem()
        assert isinstance(resolve_preconds("jacobi", matrix=matrix),
                          JacobiPreconditioner)
        assert isinstance(resolve_preconds("ssor:omega=1.2", matrix=matrix),
                          SsorPreconditioner)
        assert isinstance(resolve_preconds({"kind": "bjacobi", "bs": 4},
                                           matrix=matrix),
                          BlockJacobiPreconditioner)

    def test_built_objects_pass_through(self):
        matrix, _ = _problem()
        built = JacobiPreconditioner(matrix)
        assert resolve_preconds(built, matrix=matrix) is built
        with pytest.raises(ValueError, match="already-built"):
            resolve_preconds(built, matrix=matrix, omega=1.2)

    def test_overrides_merge_and_ignore_none(self):
        matrix, _ = _problem()
        ssor = resolve_preconds("ssor", matrix=matrix, omega=1.5)
        assert ssor._omega == 1.5
        assert parse_precond("ssor").get("omega") == 1.0

    def test_parse_precond_prefers_registry_names(self):
        assert parse_precond("bjacobi8") == PrecondSpec("bjacobi", {"bs": 8})
        assert parse_precond("bjacobi:bs=16").get("bs") == 16

    def test_building_without_matrix_is_actionable(self):
        with pytest.raises(ValueError, match="precond_matrix"):
            build_preconditioner("jacobi", None)
        with pytest.raises(ValueError, match="jacobi"):
            build_preconditioner("jacobi", lambda v: v)

    def test_validation_errors_name_the_offending_spec(self):
        matrix, _ = _problem()
        with pytest.raises(ValueError, match=r"ssor:omega=2\.5"):
            resolve_preconds("ssor:omega=2.5", matrix=matrix)
        with pytest.raises(ValueError, match=r"ssor:omega=-1\.0"):
            resolve_preconds("ssor:omega=-1.0", matrix=matrix)
        with pytest.raises(ValueError, match="bjacobi:bs=0"):
            resolve_preconds("bjacobi:bs=0", matrix=matrix)
        with pytest.raises(ValueError, match="poly:k=-1"):
            resolve_preconds("poly:k=-1", matrix=matrix)

    def test_bjacobi_block_size_maps_to_block_count(self):
        matrix, _ = _problem(grid=8)  # 64 rows
        built = resolve_preconds("bjacobi:bs=8", matrix=matrix)
        assert len(built.block_ranges) == 8
        whole = resolve_preconds("bjacobi:bs=100000", matrix=matrix)
        assert len(whole.block_ranges) == 1


# ---------------------------------------------------------------------------
# Solver wiring: precond= by spec on every registered solver
# ---------------------------------------------------------------------------

class TestSolverWiring:
    def test_spec_path_is_bitwise_the_explicit_path(self):
        matrix, b = _problem()
        solvers = default_solver_registry()
        via_spec = solvers.get("gmres").solve(matrix, b, precond="jacobi",
                                              tol=1e-9, maxiter=300)
        direct = gmres(matrix, b, preconditioner=JacobiPreconditioner(matrix),
                       tol=1e-9, maxiter=300)
        assert np.array_equal(np.asarray(via_spec.x), np.asarray(direct.x))
        assert via_spec.residual_norms == direct.residual_norms
        assert via_spec.info["precond"] == "jacobi"

    def test_fgmres_precond_is_the_inner_solve(self):
        matrix, b = _problem()
        solvers = default_solver_registry()
        via_spec = solvers.get("fgmres").solve(matrix, b,
                                               precond="ssor:omega=1.2",
                                               tol=1e-9, maxiter=300)
        direct = fgmres(matrix, b, tol=1e-9, maxiter=300,
                        inner_solve=SsorPreconditioner(matrix, omega=1.2))
        assert np.array_equal(np.asarray(via_spec.x), np.asarray(direct.x))
        assert via_spec.info["precond"] == "ssor:omega=1.2"

    @pytest.mark.parametrize(
        "name", ["gmres", "fgmres", "pipelined_gmres", "cg", "pipelined_cg",
                 "sdc_gmres", "ft_gmres"]
    )
    def test_every_registered_solver_accepts_precond_specs(self, name):
        matrix, b = _problem()
        solver = default_solver_registry().get(name)
        params = (
            {"tol": 1e-8, "outer_maxiter": 30, "inner_maxiter": 10}
            if name == "ft_gmres" else {"tol": 1e-8, "maxiter": 400}
        )
        result = solver.solve(matrix, b, precond="jacobi", **params)
        assert result.converged
        assert result.info["precond"] == "jacobi"
        residual = np.linalg.norm(matrix.matvec(np.asarray(result.x)) - b)
        assert residual <= 1e-6 * np.linalg.norm(b)

    def test_unknown_precond_name_is_actionable(self):
        matrix, b = _problem()
        with pytest.raises(ValueError, match="ilu"):
            default_solver_registry().get("gmres").solve(
                # repro: allow(spec-strings) -- unknown kind is the point
                matrix, b, precond="ilu", tol=1e-8, maxiter=100
            )

    def test_wrapped_operator_needs_precond_matrix(self):
        matrix, b = _problem()
        solver = default_solver_registry().get("gmres")
        with pytest.raises(ValueError, match="precond_matrix"):
            solver.solve(matrix.matvec, b, precond="jacobi",
                         tol=1e-8, maxiter=100)
        result = solver.solve(matrix.matvec, b, precond="jacobi",
                              precond_matrix=matrix, tol=1e-8, maxiter=100)
        assert result.converged

    def test_proxy_objects_pass_through_and_are_labelled(self):
        matrix, b = _problem()
        with reliability.unreliable("none") as dom:
            proxy = dom.preconditioner(JacobiPreconditioner(matrix))
            result = default_solver_registry().get("fgmres").solve(
                matrix, b, precond=proxy, tol=1e-8, maxiter=300
            )
        assert result.converged
        assert result.info["precond"] == "DomainPreconditioner"


# ---------------------------------------------------------------------------
# Domain proxy mechanics
# ---------------------------------------------------------------------------

class TestDomainPreconditioner:
    def test_counts_applications_and_charges_flops(self):
        matrix, _ = _problem(grid=6)
        with reliability.unreliable("none") as dom:
            proxy = dom.preconditioner(JacobiPreconditioner(matrix),
                                       flops_per_call=10.0)
            v = np.ones(matrix.n_rows)
            z1 = proxy(v)
            z2 = proxy.apply(v)
        assert proxy.applications == 2
        assert proxy.flops == 20.0
        assert dom.flops == 20.0
        assert np.array_equal(z1, z2)
        assert dom.faults_injected() == 0

    def test_identity_wrap_copies_and_injects(self):
        with reliability.unreliable("bitflip:p=1.0,bits=52..62",
                                    seed=5) as dom:
            proxy = dom.preconditioner(None)
            v = np.ones(16)
            z = proxy(v)
        assert np.array_equal(v, np.ones(16))  # input untouched
        assert dom.faults_injected() == 1
        assert np.sum(z != 1.0) == 1

    def test_deterministic_injection_stream(self):
        matrix, _ = _problem(grid=6)
        outputs = []
        for _ in range(2):
            with reliability.unreliable("bitflip:p=0.5", seed=42) as dom:
                proxy = dom.preconditioner(JacobiPreconditioner(matrix))
                outputs.append(
                    np.concatenate([proxy(np.ones(matrix.n_rows))
                                    for _ in range(5)])
                )
        assert np.array_equal(outputs[0], outputs[1])

    def test_bare_callable_base(self):
        with reliability.unreliable("none") as dom:
            proxy = dom.preconditioner(lambda v: 2.0 * np.asarray(v))
            assert np.array_equal(proxy(np.ones(4)), 2.0 * np.ones(4))


# ---------------------------------------------------------------------------
# The paper's claim as an executable assertion
# ---------------------------------------------------------------------------

class TestSelectiveReliabilityParity:
    """FGMRES converges with an unreliable preconditioner; the same
    fault model on the reliable-path operator degrades the solve."""

    TOL = 1e-8
    # Pinned parity tolerance: the unreliable-preconditioner answer
    # must match the reliable answer to this relative error.
    PARITY = 1e-6

    def _reference(self, matrix, b, ssor):
        result = fgmres(matrix, b, tol=self.TOL, maxiter=300,
                        inner_solve=ssor)
        assert result.converged
        return np.asarray(result.x)

    def test_unreliable_preconditioner_converges_to_reliable_answer(self):
        matrix, b = _problem(grid=10, seed=7)
        ssor = SsorPreconditioner(matrix, omega=1.2)
        x_ref = self._reference(matrix, b, ssor)

        # The issue's literal spec first: a realistically rare rate.
        for spec, seed in (("bitflip:p=1e-4", 3), ("bitflip:p=0.5,bits=52..62", 3)):
            with reliability.unreliable(spec, seed=seed) as dom:
                # Exponent-bit flips can produce ~1e300 values in the
                # unreliable domain; the reliable outer iteration vets
                # and discards them, so the overflow is expected noise.
                with np.errstate(over="ignore", invalid="ignore"), \
                        warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    result = fgmres(matrix, b, tol=self.TOL, maxiter=300,
                                    inner_solve=dom.preconditioner(ssor))
            assert result.converged, spec
            error = np.linalg.norm(np.asarray(result.x) - x_ref)
            assert error <= self.PARITY * np.linalg.norm(x_ref), spec

        # The aggressive rate must actually have exercised the injector,
        # otherwise the parity assertion proves nothing.
        assert dom.faults_injected() > 0

    def test_same_fault_in_reliable_domain_degrades_the_solve(self):
        matrix, b = _problem(grid=10, seed=7)
        ssor = SsorPreconditioner(matrix, omega=1.2)
        x_ref = self._reference(matrix, b, ssor)

        with reliability.unreliable("bitflip:p=0.5,bits=52..62", seed=3) as dom:
            operator = dom.operator(matrix.matvec,
                                    flops_per_call=2.0 * matrix.nnz)
            with np.errstate(over="ignore", invalid="ignore"):
                result = fgmres(operator, b, tol=self.TOL, maxiter=300,
                                inner_solve=ssor)
        assert dom.faults_injected() > 0
        x = np.asarray(result.x)
        finite = bool(np.all(np.isfinite(x)))
        error = (
            np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref)
            if finite else np.inf
        )
        degraded = (not result.converged) or error > self.PARITY
        assert degraded, (result.converged, error)


# ---------------------------------------------------------------------------
# SSOR kernel: level-scheduled sweeps vs the row loop and a dense oracle
# ---------------------------------------------------------------------------

def _row_loop_ssor(matrix, vector, omega):
    """Reference: the row-by-row SSOR apply the level schedule replaced."""
    diag = matrix.diagonal_values()
    b = np.asarray(vector, dtype=np.float64)
    n = matrix.n_rows
    x = np.zeros(n, dtype=np.float64)
    for i in range(n):
        cols, vals = matrix.row(i)
        acc = b[i]
        lower = cols < i
        acc -= vals[lower] @ x[cols[lower]]
        x[i] = omega * acc / diag[i]
    y = x.copy()
    for i in range(n - 1, -1, -1):
        cols, vals = matrix.row(i)
        acc = diag[i] * x[i] / omega
        upper = cols > i
        acc -= vals[upper] @ y[cols[upper]]
        y[i] = omega * acc / diag[i]
    return y


_SSOR_MATRICES = {
    "poisson_2d": lambda: poisson_2d(9),
    "poisson_3d": lambda: poisson_3d(5),
    "convection_diffusion_2d": lambda: convection_diffusion_2d(8),
    # ~40 entries per row: many rows have more than 8 lower entries.
    "diagonally_dominant": lambda: diagonally_dominant(200, density=0.2, rng=11),
}


def _lower_counts(matrix):
    rows = np.repeat(np.arange(matrix.n_rows), np.diff(matrix.indptr))
    return np.bincount(rows[matrix.indices < rows], minlength=matrix.n_rows)


def _assert_bitwise_equal(actual, expected):
    assert actual.dtype == expected.dtype == np.float64
    assert np.array_equal(actual, expected, equal_nan=True)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


class TestSsorKernel:
    @pytest.mark.parametrize("omega", [0.7, 1.0, 1.5])
    @pytest.mark.parametrize("name", sorted(_SSOR_MATRICES))
    def test_level_schedule_matches_row_loop(self, name, omega):
        matrix = _SSOR_MATRICES[name]()
        b = np.random.default_rng(3).standard_normal(matrix.n_rows)
        ssor = SsorPreconditioner(matrix, omega=omega)
        _assert_bitwise_equal(ssor.apply(b), _row_loop_ssor(matrix, b, omega))

    def test_reference_covers_long_rows(self):
        counts = _lower_counts(_SSOR_MATRICES["diagonally_dominant"]())
        assert np.count_nonzero(counts > 8) > 10

    @pytest.mark.parametrize("storage", [np.float32, np.float16])
    def test_reduced_precision_matrices_match_row_loop(self, storage):
        base = convection_diffusion_2d(7)
        matrix = base.astype(np.float32, storage=storage)
        assert matrix.data.dtype == np.dtype(storage)
        b = np.random.default_rng(5).standard_normal(matrix.n_rows)
        for omega in (0.7, 1.0, 1.5):
            out = SsorPreconditioner(matrix, omega=omega).apply(b)
            _assert_bitwise_equal(out, _row_loop_ssor(matrix, b, omega))

    @pytest.mark.parametrize("name", sorted(_SSOR_MATRICES))
    def test_nonfinite_inputs_match_row_loop(self, name):
        matrix = _SSOR_MATRICES[name]()
        b = np.random.default_rng(7).standard_normal(matrix.n_rows)
        b[::7] = np.inf
        b[3::11] = -np.inf
        b[5::13] = np.nan
        b[1::17] = -0.0
        with np.errstate(invalid="ignore", over="ignore"):
            for omega in (0.7, 1.0, 1.5):
                out = SsorPreconditioner(matrix, omega=omega).apply(b)
                _assert_bitwise_equal(out, _row_loop_ssor(matrix, b, omega))

    def test_empty_and_single_row_matrices(self):
        empty = CsrMatrix([0], [], [], (0, 0))
        assert SsorPreconditioner(empty).apply(np.zeros(0)).shape == (0,)
        single = CsrMatrix.from_dense(np.array([[4.0]]))
        assert SsorPreconditioner(single, omega=1.0).apply(np.array([2.0]))[0] == 0.5

    def test_forward_schedule_follows_the_wavefront(self):
        # 2-D Poisson in natural order: row (i, j) sits at level i + j,
        # so a sweep has 2*grid - 1 levels.  Levels 2..grid-1 split into
        # a k = 1 (boundary) and a k = 2 (interior) group: 3*grid - 3
        # groups in all.
        grid = 9
        groups = SsorPreconditioner(poisson_2d(grid))._forward
        levels = []
        for rows, _, _, _ in groups:
            wave = rows // grid + rows % grid
            assert np.all(wave == wave[0])
            levels.append(int(wave[0]))
        assert levels == sorted(levels)
        assert len(set(levels)) == 2 * grid - 1
        assert len(groups) == 3 * grid - 3

    @pytest.mark.parametrize("k", range(1, 21))
    def test_stacked_matmul_is_the_per_row_dot(self, k):
        """Pin the bit-identity argument: a stacked ``(m,1,k) @ (m,k,1)``
        matmul computes every row with the same dot as ``vals @ x``.

        The level schedule depends on this (short BLAS ``ddot`` kernels
        may accumulate with FMA, which other formulations do not
        reproduce); a numpy or BLAS upgrade that breaks it fails here.
        The values are padded like the schedule's to cover its strides.
        """
        rng = np.random.default_rng(k)
        m = 64
        vals = rng.standard_normal((m, k + 3))
        xs = rng.standard_normal((m, k)) * 10.0 ** rng.integers(-8, 8, (m, k))
        stacked = np.matmul(vals[:, None, :k], xs[:, :, None])[:, 0, 0]
        contiguous = np.matmul(
            np.ascontiguousarray(vals[:, :k])[:, None, :], xs[:, :, None]
        )[:, 0, 0]
        per_row = np.array([vals[i, :k].copy() @ xs[i] for i in range(m)])
        assert stacked.tobytes() == per_row.tobytes()
        assert contiguous.tobytes() == per_row.tobytes()

    @pytest.mark.parametrize("omega", [0.7, 1.0, 1.2])
    @pytest.mark.parametrize("name", sorted(_SSOR_MATRICES))
    def test_matches_dense_triangular_oracle(self, name, omega):
        """``apply(b) == (D/w + U)^-1 (D/w) (D/w + L)^-1 b`` to rounding.

        Tolerance: both sides apply the same three maps in different
        orders, so they differ by rounding only.  Write
        ``D/w + L = (D/w)(I + N_L)`` and likewise for ``U``, with
        ``r = || |N| ||_inf < 1`` (asserted below).  Substitution is
        componentwise backward stable, ``|dT| <= g_n |T|`` with
        ``g_n = n u / (1 - n u)`` (Higham, *Accuracy and Stability of
        Numerical Algorithms*, Thm 8.5), so a solve's relative forward
        error is at most ``g_n k`` with Skeel's ``cond(T) <= k =
        (1 + r) / (1 - r)``.  The forward error reaches ``y`` through
        ``(I + N_U)^-1`` (gain ``k_U`` relative to ``||y||``), the
        ``D/w`` scaling adds ``g_2 k_U`` and the backward solve ``g_n
        k_U``: per side at most ``3 g_n k_L k_U`` to first order, so
        ``6 g_n k_L k_U`` between the two; the test allows ``8 g_n k_L
        k_U`` for the second-order terms.  A dropped, duplicated or
        mis-signed dependency shifts the result by O(1e-2) or more.
        """
        matrix = _SSOR_MATRICES[name]()
        n = matrix.n_rows
        dense = matrix.to_dense()
        d_over_w = np.diag(np.diag(dense)) / omega
        lower = d_over_w + np.tril(dense, -1)
        upper = d_over_w + np.triu(dense, 1)
        b = np.random.default_rng(11).standard_normal(n)
        x = scipy.linalg.solve_triangular(lower, b, lower=True)
        oracle = scipy.linalg.solve_triangular(upper, d_over_w @ x, lower=False)

        scale = omega / np.abs(np.diag(dense))[:, None]
        r_lower = np.max(np.sum(np.abs(np.tril(dense, -1)) * scale, axis=1))
        r_upper = np.max(np.sum(np.abs(np.triu(dense, 1)) * scale, axis=1))
        assert r_lower < 1.0 and r_upper < 1.0
        u = np.finfo(np.float64).eps / 2
        gamma = n * u / (1 - n * u)
        kappa = (1 + r_lower) / (1 - r_lower) * (1 + r_upper) / (1 - r_upper)
        tol = 8 * gamma * kappa * np.max(np.abs(oracle))

        out = SsorPreconditioner(matrix, omega=omega).apply(b)
        assert np.max(np.abs(out - oracle)) <= tol


# ---------------------------------------------------------------------------
# E9 driver contract
# ---------------------------------------------------------------------------

class TestE9Driver:
    def test_smoke_configuration(self):
        from repro.experiments import e9_precond

        result = e9_precond.run(**e9_precond.SPEC.smoke)
        assert result.experiment == "E9"
        assert result.summary["n_runs"] == 4
        assert result.summary["n_correct"] == 4
        assert result.summary["total_faults_injected"] == 0

    def test_registered_and_swept_by_the_campaign_layer(self):
        from repro.campaign.builtin import builtin_campaign
        from repro.campaign.registry import default_registry

        driver = default_registry().get("E9")
        assert driver.name == "precond"
        assert driver.accepts("preconds")
        scenarios = builtin_campaign("precond")
        assert scenarios and all(s.experiment == "E9" for s in scenarios)
        targets = {s.params.get("target") for s in scenarios}
        assert {"precond", "operator"} <= targets

    def test_selective_target_beats_operator_target_under_faults(self):
        from repro.experiments import e9_precond

        common = dict(grid=8, solvers=("fgmres",),
                      preconds=("ssor", "poly2", "bjacobi8"),
                      faults="bitflip:p=0.2,bits=52..62", seed=2013)
        selective = e9_precond.run(target="precond", **common)
        control = e9_precond.run(target="operator", **common)
        assert selective.summary["total_faults_injected"] > 0
        assert (
            selective.summary["n_correct"] >= control.summary["n_correct"]
        )
        # Selective reliability keeps every flexible solve correct.
        assert selective.summary["n_correct"] == selective.summary["n_runs"]

    def test_rejects_unknown_target(self):
        from repro.experiments import e9_precond

        with pytest.raises(ValueError):
            e9_precond.run(grid=6, target="everything")
