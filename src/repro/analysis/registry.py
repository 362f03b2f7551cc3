"""Named rule registry, mirroring the solver/fault/precond registries.

Every analyzer registers here under a stable kebab-case id; the CLI
``list`` command, the ``--rules`` filter and the verify-script
self-check all read this table.  Adding a rule is: subclass
:class:`repro.analysis.core.Rule` in a module under
``repro/analysis/rules/``, then add it to :data:`_RULE_CLASSES`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Type

from repro.analysis.core import Rule

__all__ = ["RuleRegistry", "default_rule_registry", "rule_names", "resolve_rules"]


def _rule_classes() -> Sequence[Type[Rule]]:
    # Imported lazily so `import repro.analysis` stays cheap and rule
    # modules may import heavier subsystems (registries, executor).
    from repro.analysis.rules.determinism import DeterminismRule
    from repro.analysis.rules.docs import DocLinksRule
    from repro.analysis.rules.drivers import DriverContractRule
    from repro.analysis.rules.dtype import DtypeFlowRule
    from repro.analysis.rules.process_safety import ProcessSafetyRule
    from repro.analysis.rules.specs import SpecStringsRule

    return (
        DeterminismRule,
        SpecStringsRule,
        DriverContractRule,
        DtypeFlowRule,
        ProcessSafetyRule,
        DocLinksRule,
    )


class RuleRegistry:
    """Index of analyzer instances, keyed by rule id."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None):
        if rules is None:
            rules = [cls() for cls in _rule_classes()]
        self._by_id: Dict[str, Rule] = {}
        self._rules: List[Rule] = []
        for rule in rules:
            self.add(rule)

    def add(self, rule: Rule) -> None:
        if not rule.id:
            raise ValueError(f"rule {type(rule).__name__} has no id")
        if rule.id in self._by_id:
            raise ValueError(f"duplicate rule id {rule.id!r}")
        self._by_id[rule.id] = rule
        self._rules.append(rule)
        self._rules.sort(key=lambda r: r.id)

    def get(self, rule_id: str) -> Rule:
        try:
            return self._by_id[rule_id]
        except KeyError:
            raise KeyError(
                f"unknown analysis rule {rule_id!r} (known: {self.names()})"
            ) from None

    def names(self) -> List[str]:
        return [rule.id for rule in self._rules]

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._by_id


_DEFAULT: Optional[RuleRegistry] = None


def default_rule_registry() -> RuleRegistry:
    """The process-wide registry over the built-in ruleset."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = RuleRegistry()
    return _DEFAULT


def rule_names() -> List[str]:
    return default_rule_registry().names()


def resolve_rules(spec: Optional[str]) -> List[Rule]:
    """Resolve a comma-separated id list (``None`` -> every rule)."""
    registry = default_rule_registry()
    if spec is None:
        return list(registry)
    return [registry.get(part.strip()) for part in spec.split(",") if part.strip()]
