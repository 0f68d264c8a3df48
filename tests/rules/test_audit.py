"""The generated audit predicate against the tree-walk audit it replaces."""

import io
import random
import tokenize

import pytest

from repro.data import TelemetryConfig, variable_bounds
from repro.rules import (
    Rule,
    RuleSet,
    compliance_check,
    domain_bound_rules,
    paper_rules,
    zoom2net_manual_rules,
)
from repro.rules import audit
from repro.smt import (
    FALSE,
    TRUE,
    And,
    Atom,
    Eq,
    Ge,
    Iff,
    Implies,
    IntVar,
    Le,
    Not,
    Or,
)

CONFIG = TelemetryConfig()
BOUNDS = variable_bounds(CONFIG)


def _outcome(check, values):
    """The verdict, or the exception raised (type and message)."""
    try:
        return bool(check(values))
    except Exception as exc:  # noqa: BLE001 -- the exception is the outcome
        return repr(exc)


def _tree_walk(rules):
    return lambda values: not rules.violations(values)


def _connective_rules():
    """Every node type the generator lowers, nested, plus constants."""
    x, y, z = IntVar("x"), IntVar("y"), IntVar("z")
    formulas = [
        Iff(Le(x + y, 4), Ge(z, 2)),
        Implies(Or(Le(x, 0), Eq(2 * y - z, 1)), Not(And(Ge(z, 3), Le(x - y, -2)))),
        Or(And(Le(3 * x, 7), Ge(y, -1)), Eq(x + y + z, 0), Le(-4 * z + 2, 5)),
        Not(Eq(x - z, 0)),
        Iff(Implies(Ge(x, 1), Le(y, 1)), Or(Eq(z, 0), Ge(z, 4))),
        Or(Le(x, -9), TRUE),
        Or(And(Ge(y, -9), FALSE), Le(x, 2)),
    ]
    return RuleSet([Rule(f"r{i}", f) for i, f in enumerate(formulas)])


CONNECTIVE_BOUNDS = {"x": (-3, 3), "y": (-3, 3), "z": (-1, 5)}


def _assignments(bounds, seed, count):
    """Random, boundary (each bound and one past it) and missing-variable
    assignments over ``bounds``."""
    rng = random.Random(seed)
    names = sorted(bounds)
    out = []
    for _ in range(count):
        out.append({name: rng.randint(*bounds[name]) for name in names})
    for _ in range(count):
        values = {}
        for name in names:
            low, high = bounds[name]
            values[name] = rng.choice([low - 1, low, high, high + 1])
        out.append(values)
    for values in list(out[: count // 2]):
        missing = dict(values)
        for name in rng.sample(names, rng.randint(1, min(3, len(names)))):
            del missing[name]
        out.append(missing)
    return out


def _assert_same_verdicts(rules, bounds, seed, count=60):
    check = compliance_check(rules)
    walk = _tree_walk(rules)
    outcomes = set()
    for values in _assignments(bounds, seed, count):
        expected = _outcome(walk, values)
        assert _outcome(check, values) == expected, values
        outcomes.add(expected if isinstance(expected, bool) else "raised")
        scope = sorted(values)
        restricted = rules.restricted_to(scope)
        assert _outcome(compliance_check(rules, scope), values) == _outcome(
            _tree_walk(restricted), values
        )
    return outcomes


@pytest.mark.parametrize(
    "build", [paper_rules, zoom2net_manual_rules, domain_bound_rules]
)
def test_builtin_packs(build):
    outcomes = _assert_same_verdicts(build(CONFIG), BOUNDS, seed=3)
    assert outcomes >= {False, "raised"}


def test_mined_packs():
    from repro.bench.common import get_context

    context = get_context()
    bounds = variable_bounds(context.dataset.config)
    for rules in (context.imputation_rules, context.synthesis_rules):
        _assert_same_verdicts(rules, bounds, seed=5)
        # Real records: the audit must pass every training window.
        check = compliance_check(rules)
        for assignment in context.train_assignments[:50]:
            assert _outcome(check, assignment) == _outcome(
                _tree_walk(rules), assignment
            )


def test_every_connective():
    rules = _connective_rules()
    outcomes = _assert_same_verdicts(rules, CONNECTIVE_BOUNDS, seed=11, count=300)
    assert outcomes == {True, False, "raised"}
    for rule in rules:  # each rule alone, so each takes both verdicts
        alone = RuleSet([rule])
        outcomes = _assert_same_verdicts(alone, CONNECTIVE_BOUNDS, seed=13)
        assert outcomes >= {True, "raised"}, rule


def test_a_later_rule_still_raises_after_an_earlier_violation():
    """Every rule is evaluated: a violation does not hide a missing variable."""
    x, y = IntVar("x"), IntVar("y")
    rules = RuleSet([Rule("a", Le(x, 0)), Rule("b", Le(y, 0))])
    with pytest.raises(KeyError):
        compliance_check(rules)({"x": 1})
    with pytest.raises(KeyError):
        rules.compliant({"x": 1})


def test_predicate_is_memoized_by_content():
    first = compliance_check(paper_rules(CONFIG))
    assert compliance_check(paper_rules(CONFIG)) is first
    renamed = RuleSet(paper_rules(CONFIG), name="another-name")
    assert compliance_check(renamed) is first
    scoped = compliance_check(paper_rules(CONFIG), ["I0", "I1"])
    assert scoped is not first
    assert compliance_check(paper_rules(CONFIG), ("I1", "I0")) is scoped


def test_unsupported_node_keeps_the_tree_walk(monkeypatch):
    class Custom(Atom):
        pass

    atom = Le(IntVar("x"), 1)
    rules = RuleSet([Rule("odd", Custom(atom.expr, atom.op))])
    compiled = []
    monkeypatch.setattr(audit, "_CHECKS", type(audit._CHECKS)())
    monkeypatch.setattr(audit, "compile", lambda *a: compiled.append(a), raising=False)
    check = compliance_check(rules)
    assert not compiled
    assert check({"x": 1}) and not check({"x": 2})


# Fixed syntax the generator writes around the rule expressions.
_NAMES = {"def", "check", "a", "ok", "if", "not", "and", "or", "return",
          "True", "False", "bool"}
_OPS = {"(", ")", ":", "=", "+", "-", "*", "[", "]", "<=", "=="}


@pytest.mark.parametrize(
    "build",
    [paper_rules, zoom2net_manual_rules, domain_bound_rules, None],
)
def test_compiled_source_holds_only_ints_and_quoted_names(build, monkeypatch):
    """Spy on what reaches ``compile``: fixed syntax, int literals, and
    repr()-quoted variable names of the pack, nothing else."""
    rules = _connective_rules() if build is None else build(CONFIG)
    sources = []
    real_compile = compile

    def spy(source, *args):
        sources.append(source)
        return real_compile(source, *args)

    monkeypatch.setattr(audit, "_CHECKS", type(audit._CHECKS)())
    monkeypatch.setattr(audit, "compile", spy, raising=False)
    compliance_check(rules)
    (source,) = sources
    quoted = {repr(name) for name in rules.variables()}
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.NAME:
            assert token.string in _NAMES, token
        elif token.type == tokenize.NUMBER:
            assert token.string.isdigit(), token
        elif token.type == tokenize.STRING:
            assert token.string in quoted, token
        elif token.type == tokenize.OP:
            assert token.string in _OPS, token
        else:
            assert token.type in (
                tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
                tokenize.DEDENT, tokenize.ENDMARKER,
            ), token
