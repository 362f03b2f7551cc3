"""The built-in analyzers.

One module per rule; :mod:`repro.analysis.registry` assembles them
into the default ruleset.  See ARCHITECTURE.md ("analysis layer") for
the rule table and how to add one.
"""

from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.docs import DocLinksRule
from repro.analysis.rules.drivers import DriverContractRule
from repro.analysis.rules.dtype import DtypeFlowRule
from repro.analysis.rules.process_safety import ProcessSafetyRule
from repro.analysis.rules.specs import SpecStringsRule

__all__ = [
    "DeterminismRule",
    "SpecStringsRule",
    "DriverContractRule",
    "DtypeFlowRule",
    "ProcessSafetyRule",
    "DocLinksRule",
]
