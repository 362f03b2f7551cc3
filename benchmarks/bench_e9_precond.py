"""Benchmark/regeneration harness for experiment E9 (preconditioners).

The selective-reliability demonstration: every default solver x every
registered preconditioner with exponent-bit flips routed into the
unreliable domain wrapping ``M^{-1} v``.  Exercises the whole
preconditioner registry (spec parsing, builders, the domain proxy and
the solvers' ``precond=`` wiring) in a single run.

The module also carries an SSOR build/apply microbenchmark (the
``M^{-1} v`` kernel E9 runs unreliably), runnable on its own with the
BLAS pinned to one thread::

    python benchmarks/bench_e9_precond.py --rounds 7
"""

from __future__ import annotations

import os
import sys
import time

if __name__ == "__main__":
    # Pin before numpy loads its BLAS; under pytest the pins are only
    # recorded, since pytest has imported numpy already.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    )

import numpy as np
from conftest import report

from repro.experiments import e9_precond
from repro.linalg import poisson_2d
from repro.linalg.precond import SsorPreconditioner

#: Grids of the SSOR microbenchmark: the smoke size, the solve-large E9
#: size (n = 400) and an out-of-cache-for-Python size (n = 2304).
SSOR_GRIDS = (6, 20, 48)


def _per_call_seconds(func, calls: int, rounds: int) -> list:
    func()  # warm up (allocations, cache state)
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(calls):
            func()
        samples.append((time.perf_counter() - start) / calls)
    return samples


def ssor_microbench(rounds: int = 5) -> dict:
    """Per-call SSOR build and apply seconds on the ``SSOR_GRIDS`` grids.

    Each round times a batch of calls sized to the grid; the result
    holds the min and median over ``rounds`` rounds and the BLAS thread
    pins in effect.
    """
    if rounds < 5:
        raise ValueError("rounds must be >= 5 for a meaningful median")
    results = {
        "rounds": rounds,
        "blas_threads": {
            var: os.environ.get(var, "unset")
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "grids": {},
    }
    for grid in SSOR_GRIDS:
        matrix = poisson_2d(grid)
        vector = np.random.default_rng(grid).standard_normal(matrix.n_rows)
        ssor = SsorPreconditioner(matrix, omega=1.2)
        calls = max(1, 4000 // matrix.n_rows)
        entry = {"n": matrix.n_rows, "calls_per_round": calls}
        for name, func in (
            ("build", lambda: SsorPreconditioner(matrix, omega=1.2)),
            ("apply", lambda: ssor.apply(vector)),
        ):
            samples = _per_call_seconds(func, calls, rounds)
            entry[f"{name}_min_s"] = float(np.min(samples))
            entry[f"{name}_median_s"] = float(np.median(samples))
        results["grids"][str(grid)] = entry
    return results


def render_ssor(results: dict) -> str:
    pins = " ".join(f"{k}={v}" for k, v in results["blas_threads"].items())
    lines = [f"SSOR microbenchmark ({results['rounds']} rounds; {pins})",
             "grid      n   build min/median ms   apply min/median ms"]
    for grid, e in results["grids"].items():
        lines.append(
            f"{grid:>4s} {e['n']:>6d}"
            f"   {e['build_min_s'] * 1e3:8.3f} / {e['build_median_s'] * 1e3:8.3f}"
            f"   {e['apply_min_s'] * 1e3:8.3f} / {e['apply_median_s'] * 1e3:8.3f}"
        )
    return "\n".join(lines)


def test_e9_precond_matrix(benchmark):
    """Regenerate the E9 table."""
    result = benchmark.pedantic(
        lambda: e9_precond.run(
            grid=8,
            preconds=("none", "jacobi", "ssor", "poly2", "bjacobi8"),
            faults="bitflip:p=0.05,bits=52..62",
            seed=2013,
        ),
        rounds=1, iterations=1,
    )
    report(result)
    assert result.summary["n_preconds"] == 5
    assert result.summary["n_silent_corruptions"] == 0
    benchmark.extra_info["n_correct"] = result.summary["n_correct"]
    benchmark.extra_info["total_faults_injected"] = result.summary[
        "total_faults_injected"
    ]


def test_ssor_build_and_apply(benchmark):
    """SSOR build and apply per call at grids 6, 20 and 48."""
    results = benchmark.pedantic(
        ssor_microbench, kwargs={"rounds": 5}, rounds=1, iterations=1
    )
    print()
    print(render_ssor(results))
    for grid, entry in results["grids"].items():
        benchmark.extra_info[f"ssor_g{grid}"] = entry
    benchmark.extra_info["blas_threads"] = results["blas_threads"]


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="SSOR build/apply microbenchmark")
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args()
    print(render_ssor(ssor_microbench(args.rounds)))
