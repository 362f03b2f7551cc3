"""Benchmark/regeneration harness for experiment E1 (SDC detection in GMRES).

Paper anchor: §II-A / §III-A -- cheap invariant checks inside the
Arnoldi process detect silent bit flips and let GMRES recover by
restarting, at low cost.

The module also carries a per-iteration microbenchmark of fault-free
skeptical GMRES against plain GMRES (the price of the checks),
runnable on its own with the BLAS pinned to one thread::

    python benchmarks/bench_e1_sdc_detection.py --rounds 5
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

from repro.experiments import e1_sdc_detection
from repro.krylov import gmres
from repro.linalg import poisson_2d
from repro.skeptical import sdc_detecting_gmres
from repro.skeptical.gmres_sdc import estimate_operator_norm

#: Grids of the per-iteration microbenchmark: the campaign-small E1
#: sizes (6, 8, 10) and the solve-large E1 size (20).
SDC_GRIDS = (6, 8, 10, 20)


def sdc_microbench(rounds: int = 5, solves: int = 30) -> dict:
    """Process-time microseconds per iteration of ``sdc_gmres`` and ``gmres``.

    Each round times ``solves`` fault-free solves per solver (restart
    30, tol 1e-8, trusted operator norm, as E1 runs them); the result
    holds the min and median over ``rounds`` rounds, the ratio of the
    two solvers at each statistic and the BLAS thread pins in effect.
    """
    if rounds < 5:
        raise ValueError("rounds must be >= 5 for a meaningful median")
    results = {
        "rounds": rounds,
        "solves_per_round": solves,
        "blas_threads": {
            var: os.environ.get(var, "unset")
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "grids": {},
    }
    for grid in SDC_GRIDS:
        matrix = poisson_2d(grid)
        b = np.random.default_rng(grid).standard_normal(matrix.n_rows)
        norm = estimate_operator_norm(matrix, b)
        solvers = {
            "gmres": lambda: gmres(matrix, b, tol=1e-8, restart=30, maxiter=600),
            "sdc_gmres": lambda: sdc_detecting_gmres(
                matrix, b, tol=1e-8, restart=30, maxiter=600, operator_norm=norm
            ),
        }
        entry = {"n": matrix.n_rows}
        for name, solve in solvers.items():
            iterations = solve().iterations  # warm up; fault-free, so fixed
            samples = []
            for _ in range(rounds):
                start = time.process_time()
                for _ in range(solves):
                    solve()
                samples.append((time.process_time() - start) / (solves * iterations))
            entry[f"{name}_iterations"] = iterations
            entry[f"{name}_min_us"] = float(np.min(samples)) * 1e6
            entry[f"{name}_median_us"] = float(np.median(samples)) * 1e6
        for stat in ("min", "median"):
            entry[f"ratio_{stat}"] = entry[f"sdc_gmres_{stat}_us"] / entry[f"gmres_{stat}_us"]
        results["grids"][str(grid)] = entry
    return results


def render_sdc(results: dict) -> str:
    pins = " ".join(f"{k}={v}" for k, v in results["blas_threads"].items())
    lines = [
        f"sdc_gmres vs gmres per iteration ({results['rounds']} rounds x "
        f"{results['solves_per_round']} solves, process time; {pins})",
        "grid     n  iters   gmres min/median us   sdc_gmres min/median us   ratio min/median",
    ]
    for grid, e in results["grids"].items():
        lines.append(
            f"{grid:>4s} {e['n']:>5d} {e['sdc_gmres_iterations']:>6d}"
            f"   {e['gmres_min_us']:8.1f} / {e['gmres_median_us']:8.1f}"
            f"     {e['sdc_gmres_min_us']:8.1f} / {e['sdc_gmres_median_us']:8.1f}"
            f"       {e['ratio_min']:5.2f} / {e['ratio_median']:5.2f}"
        )
    return "\n".join(lines)


def test_e1_sdc_detection(benchmark):
    """Regenerate the E1 table (reduced trial count for benchmarking)."""
    result = benchmark.pedantic(
        lambda: e1_sdc_detection.run(grid=16, n_trials=8, inject_at=8),
        rounds=1, iterations=1,
    )
    report(result)
    rows = result.table.to_dicts()
    skeptical_severe = [
        r for r in rows
        if r["solver"] == "skeptical" and r["bit_class"] in ("exponent", "sign")
    ]
    # The qualitative claim: no silent data corruption or crashes survive
    # the skeptical solver for severe (exponent/sign) flips.
    assert all(r["sdc"] == 0.0 and r["crash"] == 0.0 for r in skeptical_severe)
    benchmark.extra_info["exponent_detection_rate"] = result.summary[
        "exponent_skeptical_detection_rate"
    ]


def test_sdc_gmres_per_iteration(benchmark):
    """Per-iteration cost of skeptical over plain GMRES at grids 6-20."""
    results = benchmark.pedantic(
        sdc_microbench, kwargs={"rounds": 5, "solves": 5}, rounds=1, iterations=1
    )
    print()
    print(render_sdc(results))
    for grid, entry in results["grids"].items():
        benchmark.extra_info[f"sdc_g{grid}"] = entry
    benchmark.extra_info["blas_threads"] = results["blas_threads"]


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="sdc_gmres vs gmres per-iteration microbenchmark")
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args()
    print(render_sdc(sdc_microbench(args.rounds)))
