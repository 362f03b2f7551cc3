"""Seeded scenario lists for the three benchmark workloads.

Each workload is a fixed multiset of scenarios; ``--seed`` fixes the
order they are handed to the campaign runner in (and, for
replicas-batch, the order of the lanes inside each cohort).  Order
decides which supervised worker runs which scenario and what each
worker's matrix cache holds, but every seed does the same work: runs on
different seeds are comparable, so their spread measures the host and
the program, not the draw.  Because the multiset is fixed, the expected
result digest of every scenario a seed can produce is known in advance
(``digests.json``, written by ``make_digests.py``).

Scenarios are plain ``{"experiment", "params", "tag"}`` dicts with
JSON-native values: the benchmark hands them to a fresh interpreter as
JSON, and the program sees only the :class:`repro.campaign.Scenario`
objects built from them.  This module imports nothing from ``repro``.
"""

from __future__ import annotations

import random
from typing import Dict, List

WORKLOADS = ("campaign-small", "replicas-batch", "solve-large")

# ---------------------------------------------------------------------------
# campaign-small: several hundred small, distinct scenarios over all ten drivers.
# ---------------------------------------------------------------------------
_SMALL_SEEDS = tuple(range(1000, 1012))

_SMOKE = {
    "E2": {"sizes": [8], "n_trials": 5},
    "E3": {"grid": 8, "rank_counts": [16, 1024], "iterations": 10},
    "E4": {"n_ranks": 4, "n_global": 32, "n_steps": 15, "failure_counts": [0, 1]},
    "E5": {"n_points": 64, "steps_before_failure": 10, "coarsening_factors": [2]},
    "E6": {"grid": 8, "fault_probabilities": [0.0, 0.05], "n_trials": 1,
           "outer_maxiter": 20, "inner_maxiter": 10},
    "E10": {"grid": 6, "solvers": ["gmres"], "precisions": ["fp64", "fp32"],
            "preconds": "none", "faults": "none"},
}
_SMALL_FAULTS = ("none", "bitflip:p=0.02,bits=52..62", "perturb:p=0.01,scale=1000.0")
_SMALL_GRIDS = (6, 8, 10)


def _campaign_small() -> List[Dict]:
    templates = [{"experiment": e, "params": p} for e, p in _SMOKE.items()]
    for grid in _SMALL_GRIDS:
        for faults in _SMALL_FAULTS:
            templates.append({"experiment": "E1", "params": {
                "grid": grid, "n_trials": 2, "inject_at": 4, "faults": faults}})
            templates.append({"experiment": "E8", "params": {
                "grid": grid, "solvers": ["gmres", "cg"], "policy": "guard",
                "faults": faults}})
            templates.append({"experiment": "E9", "params": {
                "grid": grid, "solvers": ["gmres", "cg"],
                "preconds": ["none", "jacobi"], "faults": faults}})
    scenarios = [_seeded(t, seed, "campaign-small")
                 for t in templates for seed in _SMALL_SEEDS]
    # E7 is analytic and takes no seed: its distinct axis is the node MTBF.
    scenarios.extend(
        {"experiment": "E7", "tag": "campaign-small",
         "params": {"node_counts": [1000, 100000], "node_mtbf_years": 1.0 + 0.25 * i}}
        for i in range(len(_SMALL_SEEDS)))
    return scenarios


# ---------------------------------------------------------------------------
# replicas-batch: seed-replica sweeps, one lockstep cohort per sweep.
# ---------------------------------------------------------------------------
COHORT_SIZES = (2, 4, 8, 16, 32)

# One variant per driver and cohort size.  Variants differ in a non-seed
# parameter, so batch planning never merges two sweeps.
_REPLICA_VARIANTS = {
    "E1": [{"grid": 8, "n_trials": 2, "inject_at": at} for at in (3, 4, 5, 6, 7)],
    "E8": [{"grid": 8, "solvers": ["gmres", "cg", "sdc_gmres"], "policy": "guard",
            "faults": f"bitflip:p={p},bits=52..62"}
           for p in ("0.01", "0.02", "0.03", "0.04", "0.05")],
    "E9": [{"grid": 8, "solvers": ["gmres", "cg"], "preconds": ["none", "jacobi"],
            "target": "precond", "faults": f"bitflip:p={p},bits=52..62"}
           for p in ("0.03", "0.04", "0.05", "0.06", "0.07")],
}


def _replica_sweeps() -> List[List[Dict]]:
    return [
        [_seeded({"experiment": e, "params": v}, 101 + lane, f"replicas-s{size}")
         for lane in range(size)]
        for e, variants in _REPLICA_VARIANTS.items()
        for v, size in zip(variants, COHORT_SIZES)
    ]


# ---------------------------------------------------------------------------
# solve-large: a handful of scenarios sized so the solver stack does the work.
# ---------------------------------------------------------------------------
_LARGE_TEMPLATES = [
    {"experiment": "E8", "params": {"grid": 48, "policy": "guard"}},
    {"experiment": "E8", "params": {"grid": 40, "policy": "skeptical"}},
    {"experiment": "E9", "params": {
        "grid": 20, "preconds": ["none", "jacobi", "ssor", "poly2", "bjacobi8"]}},
    {"experiment": "E10", "params": {"grid": 32, "preconds": ["none", "jacobi"]}},
    {"experiment": "E6", "params": {"grid": 24}},
    {"experiment": "E1", "params": {"grid": 20, "n_trials": 4}},
]


def _solve_large() -> List[Dict]:
    return [_seeded(t, 7, "solve-large") for t in _LARGE_TEMPLATES]


# ---------------------------------------------------------------------------
def _seeded(template: Dict, seed: int, tag: str) -> Dict:
    params = dict(template["params"], seed=seed)
    return {"experiment": template["experiment"], "params": params, "tag": tag}


def generate(workload: str, seed: int) -> List[Dict]:
    """The scenario list of ``workload`` for ``seed`` (same seed, same list)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "replicas-batch":
        sweeps = _replica_sweeps()
        rng.shuffle(sweeps)
        for sweep in sweeps:
            rng.shuffle(sweep)
        return [s for sweep in sweeps for s in sweep]
    scenarios = pool(workload)
    rng.shuffle(scenarios)
    return scenarios


def pool(workload: str) -> List[Dict]:
    """Every scenario ``generate(workload, ...)`` returns, in a fixed order."""
    if workload == "campaign-small":
        return _campaign_small()
    if workload == "replicas-batch":
        return [s for sweep in _replica_sweeps() for s in sweep]
    if workload == "solve-large":
        return _solve_large()
    raise KeyError(f"unknown workload {workload!r} (known: {WORKLOADS})")
