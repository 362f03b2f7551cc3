"""Repo-native static analysis: the invariants, enforced at diff time.

Every hard-won invariant of this reproduction -- bit-identical
goldens, fp64 parity, spec round-trips, the orphaned-queue-lock hazard
-- is enforced at runtime by tests and verify gates, *after* a
violation has shipped.  This package enforces them statically: an
AST-based, registry-driven lint pass (mirroring the
solver/fault/precond registry idiom) with a ``python -m
repro.analysis`` CLI, per-rule in-source suppression
(``# repro: allow(<rule-id>)``), and a checked-in baseline for
anything deliberately grandfathered.

Rules: ``determinism``, ``spec-strings``, ``driver-contract``,
``dtype-flow``, ``process-safety``, ``doc-links`` -- see
ARCHITECTURE.md ("analysis layer").

Programmatic entry points::

    from repro.analysis import run_analysis, default_rule_registry
    report = run_analysis(["src/repro"], rules=list(default_rule_registry()))
    assert report.ok, report.findings
"""

from repro.analysis.core import Baseline, Finding, Rule, SourceFile
from repro.analysis.registry import (
    RuleRegistry,
    default_rule_registry,
    resolve_rules,
    rule_names,
)
from repro.analysis.runner import (
    AnalysisContext,
    AnalysisReport,
    find_repo_root,
    run_analysis,
)

__all__ = [
    "Finding",
    "SourceFile",
    "Baseline",
    "Rule",
    "RuleRegistry",
    "default_rule_registry",
    "rule_names",
    "resolve_rules",
    "AnalysisContext",
    "AnalysisReport",
    "run_analysis",
    "find_repo_root",
]
