"""The exact end-of-record audit, as one generated predicate per rule pack.

:meth:`RuleSet.compliant` walks every rule's formula tree per record.  For
a pack of hundreds of rules that walk is most of an audit, so
:func:`compliance_check` lowers the pack once into the source of a single
Python function -- one ``if not <rule>:`` line per rule -- and compiles it.

The predicate gives the verdict :meth:`RuleSet.compliant` gives and raises
what it raises: every rule is evaluated, in rule order, and only the
operators inside a rule short-circuit, exactly as the tree walk does (so a
variable missing from the assignment raises the same ``KeyError``).  The
source is built from fixed syntax, ``int`` literals and ``repr()``-quoted
variable names only, and runs without builtins besides ``bool``; a pack
holding anything else (a non-int coefficient, an unknown node type) is
audited by the tree walk instead.

Predicates are memoized by rule *content* (:func:`~repro.rules.io.
rules_fingerprint` plus the variable scope), so a fresh enforcer over the
same pack does not compile again.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Collection, FrozenSet, Mapping, Optional, Tuple

from ..smt.terms import And, Atom, BoolConst, Formula, Iff, Implies, Not, Or
from .dsl import RuleSet
from .io import rules_fingerprint

__all__ = ["compliance_check"]

Check = Callable[[Mapping[str, int]], bool]

# Content-keyed, so it cannot be weak: bounded instead (a long-lived
# server may see many packs over its life).
_MAX_CHECKS = 64
_CHECKS: "OrderedDict[Tuple[str, Optional[FrozenSet[str]]], Check]" = OrderedDict()


def compliance_check(
    rules: RuleSet, variables: Optional[Collection[str]] = None
) -> Check:
    """``values -> rules.compliant(values)``, generated once per content.

    With ``variables``, the predicate audits ``rules.restricted_to(
    variables)``: only the rules whose variables all lie in it.
    """
    scope = None if variables is None else frozenset(variables)
    key = (rules_fingerprint(rules), scope)
    check = _CHECKS.get(key)
    if check is not None:
        _CHECKS.move_to_end(key)
        return check
    pack = rules if scope is None else rules.restricted_to(list(scope))
    check = _generate(pack)
    _CHECKS[key] = check
    if len(_CHECKS) > _MAX_CHECKS:
        _CHECKS.popitem(last=False)
    return check


class _Unsupported(Exception):
    """A rule the generator does not lower; the pack keeps the tree walk."""


def _generate(rules: RuleSet) -> Check:
    lines = ["def check(a):", "    ok = True"]
    try:
        for rule in rules:
            lines.append(f"    if not {_expr(rule.formula)}:")
            lines.append("        ok = False")
    except _Unsupported:
        return lambda values: not rules.violations(values)
    lines.append("    return ok")
    namespace = {"__builtins__": {"bool": bool}}
    try:
        code = compile("\n".join(lines), "<rule-audit>", "exec")
    except (SyntaxError, RecursionError, MemoryError):  # nesting too deep
        return lambda values: not rules.violations(values)
    exec(code, namespace)
    return namespace["check"]


def _int(value: object) -> str:
    if type(value) is not int:
        raise _Unsupported(value)
    return f"({value!r})"


def _expr(node: Formula) -> str:
    """Source evaluating like ``node.evaluate(a)``, operand for operand."""
    kind = type(node)
    if kind is Atom:
        if node.op not in ("<=", "=="):
            raise _Unsupported(node)
        # LinExpr.evaluate: the constant, then coeff * a[name] in item order.
        terms = [_int(node.expr.const)]
        for name, coeff in node.expr.items:
            if type(name) is not str:
                raise _Unsupported(name)
            terms.append(f"{_int(coeff)} * a[{name!r}]")
        return f"({' + '.join(terms)} {node.op} 0)"
    if kind is BoolConst:
        return "True" if node.value else "False"
    if kind is Not:
        return f"(not {_expr(node.arg)})"
    if kind is And:
        return f"({' and '.join(map(_expr, node.args))})" if node.args else "True"
    if kind is Or:
        return f"({' or '.join(map(_expr, node.args))})" if node.args else "False"
    if kind is Implies:
        return f"((not {_expr(node.lhs)}) or {_expr(node.rhs)})"
    if kind is Iff:
        return f"(bool({_expr(node.lhs)}) == bool({_expr(node.rhs)}))"
    raise _Unsupported(node)
