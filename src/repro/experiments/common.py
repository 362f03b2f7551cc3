"""Shared experiment infrastructure.

What lives here:

* :class:`ExperimentResult` -- the value every driver's ``run()``
  returns, now JSON round-trippable (:meth:`ExperimentResult.to_dict` /
  :meth:`ExperimentResult.from_dict`) so the campaign result store can
  persist it.
* :class:`ExperimentSpec` -- the registry protocol.  Each driver module
  ``e*.py`` exposes a module-level ``SPEC`` describing itself (id,
  short name, tags) plus two canonical reduced configurations: a
  ``smoke`` one for quick campaign sweeps and a ``golden`` one pinned
  by the golden regression tests.  :mod:`repro.campaign.registry`
  auto-discovers drivers by scanning this package for modules that
  define both ``SPEC`` and ``run(**params) -> ExperimentResult``.
* :func:`run_cohorts` -- the ``run_batch`` contract of the cohort
  drivers (E1, E8, E9, E10): each keeps one function that runs ``S >= 1``
  scenarios differing only in ``seed``; ``run`` is that function at
  ``S = 1`` and ``run_batch`` is :func:`run_cohorts` over it.
* :class:`TrustedScore` / :func:`trusted_scores` -- the trusted-error
  scoring of one scenario's solver rows against a direct solution
  (E8, E9, E10).
* :func:`unreliable_domains` -- one seeded unreliable domain per lane
  (E9, E10).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Tuple

import numpy as np

from repro.reliability.domain import ReliabilityDomain
from repro.reliability.sdc import classify_outcome
from repro.utils.serialization import jsonify
from repro.utils.tables import Table, one_line

__all__ = [
    "ExperimentResult",
    "ExperimentSpec",
    "TrustedScore",
    "run_cohorts",
    "trusted_scores",
    "unreliable_domains",
]

# Parameter/summary lines longer than this are wrapped one-per-line.
_WRAP_WIDTH = 88
# Individual values longer than this force the wrapped layout too.
_WRAP_CELL = 40


def _render_mapping(label: str, mapping: Mapping[str, Any]) -> List[str]:
    """Render ``label: k=v, ...`` compactly, or aligned one-per-line.

    Multi-line values are escaped (``\\n``) so a single logical entry
    never spans physical lines; when any value is long, or the joined
    line would overflow, entries are laid out one per line with the
    keys left-aligned to a common width.
    """
    cells = [(k, one_line(str(v))) for k, v in sorted(mapping.items())]
    joined = label + ": " + ", ".join(f"{k}={v}" for k, v in cells)
    if len(joined) <= _WRAP_WIDTH and all(len(v) <= _WRAP_CELL for _, v in cells):
        return [joined]
    width = max(len(k) for k, _ in cells)
    return [label + ":"] + [f"  {k.ljust(width)} = {v}" for k, v in cells]


@dataclass
class ExperimentResult:
    """What every experiment driver returns.

    Attributes
    ----------
    experiment:
        Identifier ("E1" ... "E7").
    claim:
        One-sentence statement of the paper claim being tested.
    table:
        The reproduced table (see EXPERIMENTS.md for the recorded copy).
    summary:
        Headline scalars extracted from the table (detection rate,
        speedup at the largest scale, crossover point, ...), used by the
        tests that assert the qualitative claim holds.
    parameters:
        The parameters the experiment was run with, for provenance.
    """

    experiment: str
    claim: str
    table: Table
    summary: Dict[str, Any] = field(default_factory=dict)
    parameters: Dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        """Human-readable rendering (claim, parameters, table, summary)."""
        lines = [f"[{self.experiment}] {self.claim}", ""]
        if self.parameters:
            lines.extend(_render_mapping("parameters", self.parameters))
        lines.append(self.table.render())
        if self.summary:
            lines.append("")
            lines.extend(_render_mapping("summary", self.summary))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-compatible description; inverse of :meth:`from_dict`."""
        return {
            "experiment": self.experiment,
            "claim": self.claim,
            "table": self.table.to_dict(),
            "summary": jsonify(self.summary),
            "parameters": jsonify(self.parameters),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` output."""
        return cls(
            experiment=data["experiment"],
            claim=data["claim"],
            table=Table.from_dict(data["table"]),
            summary=dict(data.get("summary", {})),
            parameters=dict(data.get("parameters", {})),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()


@dataclass(frozen=True)
class ExperimentSpec:
    """Registry metadata a driver module attaches to itself as ``SPEC``.

    Attributes
    ----------
    experiment:
        Canonical identifier ("E1" ... "E7").
    name:
        Short slug used in CLI listings and scenario tags
        (e.g. ``"sdc_detection"``).
    title:
        One-line human description.
    tags:
        Free-form labels campaigns can filter on
        (``campaign run --tag gmres``).
    smoke:
        Reduced parameter overrides that finish in roughly a second;
        the ``--smoke`` campaign and quick sweeps start from these.
    golden:
        Pinned parameters of the golden regression tests
        (``tests/test_goldens.py``).  Changing them invalidates the
        checked-in golden files, so treat them as frozen.
    """

    experiment: str
    name: str
    title: str = ""
    tags: Tuple[str, ...] = ()
    smoke: Mapping[str, Any] = field(default_factory=dict)
    golden: Mapping[str, Any] = field(default_factory=dict)


def run_cohorts(
    run: Callable[..., ExperimentResult],
    cohort: Callable[[List[dict]], List[ExperimentResult]],
    params_list: List[Mapping],
) -> List[ExperimentResult]:
    """Run scenarios through a driver's cohort function.

    Every scenario is bound to ``run``'s keyword defaults.  Scenarios
    that agree on every parameter except ``seed`` go to ``cohort`` as
    one call; any other set runs one scenario at a time.  An empty list
    returns ``[]``.
    """
    signature = inspect.signature(run)
    scenarios = []
    for params in params_list:
        bound = signature.bind(**dict(params))
        bound.apply_defaults()
        scenarios.append(dict(bound.arguments))
    if not scenarios:
        return []
    unseeded = [{k: v for k, v in p.items() if k != "seed"} for p in scenarios]
    if all(p == unseeded[0] for p in unseeded):
        return cohort(scenarios)
    return [cohort([p])[0] for p in scenarios]


def unreliable_domains(fault_model, seeds, name: str) -> List[ReliabilityDomain]:
    """One unreliable domain per lane, seeded as ``unreliable()`` seeds it.

    :func:`repro.reliability.unreliable` only yields such a domain, so a
    cohort can hold ``S`` of them without entering ``S`` contexts.
    """
    return [
        ReliabilityDomain(
            name, level="unreliable", injector=fault_model.injector(seed=seed, name=name)
        )
        for seed in seeds
    ]


class TrustedScore:
    """Trusted-error scoring of one scenario's solver rows.

    Each row's answer is compared with a direct solution of the clean
    system and classified by
    :func:`repro.reliability.sdc.classify_outcome`; the counters the
    driver summaries report accumulate here.
    """

    def __init__(self, x_ref: np.ndarray, error_tolerance: float):
        self.x_ref = x_ref
        self.x_ref_norm = float(np.linalg.norm(x_ref))
        self.error_tolerance = error_tolerance
        self.n_runs = 0
        self.n_correct = 0
        self.n_detected = 0
        self.n_silent = 0
        self.total_faults = 0

    def score(self, result, faults_hit: int) -> Tuple[str, str, bool]:
        """Fold one solve in; returns ``(error_text, outcome, correct)``."""
        x = np.asarray(result.x, dtype=np.float64)
        finite = bool(np.all(np.isfinite(x)))
        # A finite answer can still overflow its error norm; the
        # resulting inf is the classification, not a warning.
        with np.errstate(over="ignore"):
            error = (
                float(np.linalg.norm(x - self.x_ref)) / self.x_ref_norm
                if finite else float("inf")
            )
        outcome = classify_outcome(
            converged=result.converged,
            error_norm=error,
            tolerance=self.error_tolerance,
            detected=result.detected_faults > 0,
        )
        correct = result.converged and error <= self.error_tolerance
        self.n_runs += 1
        self.n_correct += int(correct)
        self.n_detected += int(result.detected_faults > 0)
        self.n_silent += int(outcome == "sdc")
        self.total_faults += faults_hit
        return (f"{error:.3e}" if finite else "inf"), outcome, correct


def trusted_scores(matrix, b_list, error_tolerance: float) -> List[TrustedScore]:
    """One :class:`TrustedScore` per right-hand side of ``matrix``."""
    dense = matrix.to_dense()
    return [TrustedScore(np.linalg.solve(dense, b), error_tolerance) for b in b_list]
