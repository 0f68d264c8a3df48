"""Logic rules for network telemetry: DSL, libraries, and mining.

Rules are QF_LIA formulas over record variables.  Operators can write them
by hand (:func:`paper_rules`, :func:`zoom2net_manual_rules`) or mine them
from training data NetNomos-style (:func:`mine_rules`).
"""

from .audit import compliance_check
from .diagnose import InfeasibilityReport, diagnose_infeasibility
from .dsl import Rule, RuleSet, var
from .io import (
    load_rules,
    rules_fingerprint,
    rules_from_json,
    rules_to_json,
    save_rules,
)
from .library import domain_bound_rules, paper_rules, zoom2net_manual_rules
from .mining import MinerOptions, mine_rules
from .registry import RuleSetHandle, RuleSetRegistry, builtin_registry

__all__ = [
    "Rule",
    "RuleSet",
    "var",
    "paper_rules",
    "zoom2net_manual_rules",
    "domain_bound_rules",
    "MinerOptions",
    "mine_rules",
    "save_rules",
    "load_rules",
    "rules_to_json",
    "rules_from_json",
    "rules_fingerprint",
    "compliance_check",
    "RuleSetHandle",
    "RuleSetRegistry",
    "builtin_registry",
    "diagnose_infeasibility",
    "InfeasibilityReport",
]
