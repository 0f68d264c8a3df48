"""Feasibility oracle tests: exactness of SMT, soundness of intervals."""

import io
import itertools
import random
import re
import tokenize

import pytest
from reference_fold import (
    _fold_lincons,
    interpreted_fold_pack,
    raw_pack,
    residualize_pack,
)

from repro.core import feasible
from repro.core.feasible import (
    HybridOracle,
    InfeasibleRecordError,
    IntervalOracle,
    SmtOracle,
    _row_formula,
    _substitute_simplify,
    compiled_pack,
    fold_pack,
    interval_pack,
    residualize,
)
from repro.core.transition import FeasibleSet
from repro.data import COARSE_FIELDS, TelemetryConfig, variable_bounds
from repro.rules import (
    Rule,
    RuleSet,
    domain_bound_rules,
    paper_rules,
    zoom2net_manual_rules,
)
from repro.smt import (
    FALSE,
    TRUE,
    And,
    Atom,
    BoolConst,
    Eq,
    Ge,
    Implies,
    IntVar,
    Le,
    LinCon,
    LinExpr,
    Not,
    Or,
)
from repro.smt import intervals
from repro.smt.intervals import Interval, PreparedSystem
from repro.smt.simplify import simplify, to_nnf


CONFIG = TelemetryConfig()
BOUNDS = variable_bounds(CONFIG)
RULES = paper_rules(CONFIG)

# The paper's running prompt (Total=100, congestion present).  In our
# schema `cong` counts ECN-marked ticks, so it is capped by the window.
PROMPT = {"total": 100, "cong": 3, "retx": 2, "egr": 100}


@pytest.fixture(params=["smt", "interval", "hybrid"])
def oracle(request):
    cls = {"smt": SmtOracle, "interval": IntervalOracle, "hybrid": HybridOracle}
    return cls[request.param](RULES, BOUNDS)


class TestResidualize:
    def test_deactivates_satisfied_implication(self):
        formula = Implies(Ge(IntVar("cong"), 1), Ge(IntVar("I0"), 30))
        assert residualize(formula, {"cong": 0}) == TRUE

    def test_activates_implication(self):
        formula = Implies(Ge(IntVar("cong"), 1), Ge(IntVar("I0"), 30))
        residual = residualize(formula, {"cong": 3})
        assert residual.evaluate({"I0": 30})
        assert not residual.evaluate({"I0": 29})

    def test_partial_sum_substitution(self):
        formula = Eq(IntVar("I0") + IntVar("I1"), 10)
        residual = residualize(formula, {"I0": 4})
        assert residual.evaluate({"I1": 6})
        assert not residual.evaluate({"I1": 5})

    def test_ground_false(self):
        formula = Le(IntVar("I0"), 5)
        assert residualize(formula, {"I0": 6}) == FALSE

    def test_or_collapse(self):
        formula = Or(Ge(IntVar("I0"), 30), Ge(IntVar("I1"), 30))
        residual = residualize(formula, {"I0": 0})
        assert residual == Ge(IntVar("I1"), 30)

    @pytest.mark.parametrize(
        "fixed",
        [{}, {"y": 2}, {"y": 2, "z": 2}, {"x": 9}, {"x": 0, "y": 0}, {"z": 5}],
    )
    def test_compiled_tree_matches_residualize(self, fixed):
        x, y, z = IntVar("x"), IntVar("y"), IntVar("z")
        formulas = [
            # Equal disjuncts once y == z: the fold must dedupe them.
            Or(Le(x + y, 5), Le(x + z, 5), Ge(x, 8)),
            Implies(Ge(y, 1), Or(Le(x, 3), And(Ge(z, 2), Le(x + z, 9)))),
            Implies(And(Ge(x, 1), Le(y, 2)), Eq(x + y + z, 7)),
            Not(Eq(x, y)),
            Or(And(Le(x, 9), Ge(y, 2)), And(Le(x, 9), Ge(y, 2), Le(z, 5))),
        ]
        for formula in formulas:
            base = simplify(to_nnf(formula))
            assert _substitute_simplify(base, fixed) == residualize(formula, fixed)


class TestOracleBasics:
    def test_begin_and_feasible_set(self, oracle):
        oracle.begin_record(PROMPT)
        fs = oracle.feasible_set("I0")
        assert not fs.is_empty()
        assert fs.min_value >= 0
        assert fs.max_value <= CONFIG.bandwidth

    def test_sum_forcing_last_variable(self, oracle):
        oracle.begin_record(PROMPT)
        for name, value in [("I0", 20), ("I1", 15), ("I2", 25), ("I3", 39)]:
            assert oracle.confirm(name, value)
            oracle.fix(name, value)
        fs = oracle.feasible_set("I4")
        # R2 forces I4 = 1 exactly (paper step 5).
        assert fs.segments == ((1, 1),)

    def test_confirm_rejects_bandwidth_violation(self, oracle):
        oracle.begin_record(PROMPT)
        assert not oracle.confirm("I0", 61)

    def test_confirm_rejects_sum_overflow(self, oracle):
        oracle.begin_record(PROMPT)
        oracle.fix("I0", 60)
        oracle.fix("I1", 39)
        # Remaining budget is 1; 2 overshoots the exact total.
        assert not oracle.confirm("I2", 2)


class TestSmtExactness:
    def test_lookahead_catches_r3_dead_end(self):
        oracle = SmtOracle(RULES, BOUNDS)
        oracle.begin_record(PROMPT)
        # Spend almost the whole budget without ever bursting: feasible for
        # R1/R2 alone but a dead end under R3 (no room for a 30+ burst).
        oracle.fix("I0", 25)
        oracle.fix("I1", 25)
        oracle.fix("I2", 25)
        # I3 = 20 leaves I4 = 5 < 30, violating R3: must be rejected.
        assert not oracle.confirm("I3", 20)
        # I3 = 15 leaves I4 = 35 >= 30: fine? No wait -- I4 = 10... total
        # is 100, spent 75, I3=15 leaves I4=10 <30: rejected too.
        assert not oracle.confirm("I3", 15)
        # Does any I3 work? It must make I3 or I4 >= 30: I3 <= 25 (sum),
        # so I4 = 25 - I3 >= 30 is impossible... record is a dead end.
        fs = oracle.feasible_set("I3")
        assert fs.is_empty()

    def test_interval_oracle_collapses_single_branch_disjunction(self):
        """With one free variable left in R3's Or, the interval tier *does*
        catch the dead end (the disjunction collapses to one branch)."""
        oracle = IntervalOracle(RULES, BOUNDS)
        oracle.begin_record(PROMPT)
        oracle.fix("I0", 25)
        oracle.fix("I1", 25)
        oracle.fix("I2", 25)
        assert not oracle.confirm("I3", 20)

    def test_interval_oracle_misses_two_branch_dead_end(self):
        """Documents the incompleteness the hybrid tier compensates for:
        with two variables free in R3's Or, interval propagation cannot
        rule the combination out, while the SMT tier can."""
        interval = IntervalOracle(RULES, BOUNDS)
        interval.begin_record(PROMPT)
        interval.fix("I0", 25)
        interval.fix("I1", 25)
        # I2 = 21 leaves I3 + I4 = 29: neither can reach the 30 burst R3
        # demands, but the two-branch Or hides that from interval reasoning.
        assert interval.confirm("I2", 21)
        smt = SmtOracle(RULES, BOUNDS)
        smt.begin_record(PROMPT)
        smt.fix("I0", 25)
        smt.fix("I1", 25)
        assert not smt.confirm("I2", 21)

    def test_infeasible_prompt_raises(self):
        oracle = SmtOracle(RULES, BOUNDS)
        # total=20 with congestion: R3 needs a 30+ burst, R2 caps sum at 20.
        with pytest.raises(InfeasibleRecordError):
            oracle.begin_record({"total": 20, "cong": 3, "retx": 0, "egr": 20})

    def test_any_model_is_compliant(self):
        oracle = SmtOracle(RULES, BOUNDS)
        oracle.begin_record(PROMPT)
        oracle.fix("I0", 10)
        model = oracle.any_model()
        values = dict(PROMPT)
        values.update({name: model[name] for name in ["I0", "I1", "I2", "I3", "I4"]})
        values["I0"] = 10
        assert RULES.compliant(values)

    def test_feasible_set_is_exact_range(self):
        oracle = SmtOracle(RULES, BOUNDS)
        oracle.begin_record(PROMPT)
        for name, value in [("I0", 20), ("I1", 15), ("I2", 25)]:
            oracle.fix(name, value)
        fs = oracle.feasible_set("I3")
        assert (fs.min_value, fs.max_value) == (0, 40)  # paper Fig. 2


class TestHybridSoundness:
    def test_interval_set_contains_smt_set(self):
        smt = SmtOracle(RULES, BOUNDS)
        interval = IntervalOracle(RULES, BOUNDS)
        smt.begin_record(PROMPT)
        interval.begin_record(PROMPT)
        for name in ["I0", "I1", "I2", "I3"]:
            smt_fs = smt.feasible_set(name)
            int_fs = interval.feasible_set(name)
            assert int_fs.min_value <= smt_fs.min_value
            assert int_fs.max_value >= smt_fs.max_value
            value = smt_fs.min_value
            smt.fix(name, value)
            interval.fix(name, value)

    def test_hybrid_confirm_is_exact(self):
        hybrid = HybridOracle(RULES, BOUNDS)
        hybrid.begin_record(PROMPT)
        hybrid.fix("I0", 25)
        hybrid.fix("I1", 25)
        hybrid.fix("I2", 25)
        assert not hybrid.confirm("I3", 20)  # catches the R3 dead end

    def test_manual_rules_oracle(self):
        oracle = HybridOracle(zoom2net_manual_rules(CONFIG), BOUNDS)
        oracle.begin_record(PROMPT)
        fs = oracle.feasible_set("I0")
        assert fs.max_value <= CONFIG.bandwidth


def _pure_conjunctive(formula):
    """The formula as a list of linear constraints, or None if it has any
    genuinely disjunctive structure."""
    out = []
    return out if _collect_pure(formula, out) else None


def _collect_pure(node, out):
    if isinstance(node, Atom):
        out.append(LinCon.make(node.expr.coeffs, node.expr.const, node.op))
        return True
    if isinstance(node, And):
        return all(_collect_pure(arg, out) for arg in node.args)
    if isinstance(node, Not) and isinstance(node.arg, Atom) and node.arg.op == "==":
        atom = node.arg
        out.append(LinCon.make(atom.expr.coeffs, atom.expr.const, "!="))
        return True
    return False


def _collect_lincons(node, out):
    """Linear constraints the formula implies in every model."""
    if isinstance(node, BoolConst):
        if not node.value:
            out.append(LinCon.make({}, 1, "<="))
    elif isinstance(node, Atom):
        out.append(LinCon.make(node.expr.coeffs, node.expr.const, node.op))
    elif isinstance(node, And):
        for arg in node.args:
            _collect_lincons(arg, out)
    elif isinstance(node, Or):
        live = [arg for arg in node.args if arg != FALSE]
        if not live:
            out.append(LinCon.make({}, 1, "<="))
        elif len(live) == 1:
            _collect_lincons(live[0], out)
    elif isinstance(node, Not):
        if isinstance(node.arg, Atom) and node.arg.op == "==":
            atom = node.arg
            out.append(LinCon.make(atom.expr.coeffs, atom.expr.const, "!="))


class ReferenceIntervalOracle:
    """The interval tier as a formula round trip, kept as a parity oracle.

    ``begin_record`` residualizes every rule formula; every ``fix`` turns
    the whole state back into formulas and refolds all of it; every query
    propagates from scratch.  :class:`IntervalOracle` must hold exactly
    this state and give exactly these answers.
    """

    def __init__(self, rules, bounds):
        self.rules = rules
        self.bounds = dict(bounds)
        self.fixed = {}
        self.box = dict(bounds)
        self.multi = []
        self.disjunctive = []
        self.refuted = False

    def begin_record(self, fixed):
        self.fixed = dict(fixed)
        self.refuted = False
        self._refold(self.rules.formulas(), self.fixed)
        return not self.refuted and self._propagate(None, None) is not None

    def _refold(self, formulas, fixed):
        conjunctive, disjunctive = [], []
        for formula in formulas:
            reduced = residualize(formula, fixed)
            if reduced == TRUE:
                continue
            if reduced == FALSE:
                self.refuted = True
                return
            pure = _pure_conjunctive(reduced)
            if pure is None:
                disjunctive.append(reduced)
                _collect_lincons(reduced, conjunctive)
            else:
                conjunctive.extend(pure)
        box, rows = _fold_lincons(conjunctive, self.bounds)
        for name, (low, high) in box.items():
            interval = Interval(low, high)
            if interval.is_empty() or (
                name in fixed and not interval.contains(fixed[name])
            ):
                self.refuted = True
                return
        multi = []
        for row in rows:
            formula = _row_formula(row)
            if formula == FALSE:
                self.refuted = True
                return
            _collect_lincons(formula, multi)
        self.box, self.multi, self.disjunctive = box, multi, disjunctive

    def fix(self, variable, value):
        self.fixed[variable] = value
        if self.refuted:
            return
        if variable in self.bounds:
            low, high = self.box[variable]
            if not low <= value <= high:
                self.refuted = True
                return
        formulas = []
        for con in self.multi:
            expr = LinExpr(dict(con.items), con.const)
            if con.op == "!=":
                formulas.append(Not(Atom(expr, "==")))
            else:
                formulas.append(Atom(expr, con.op))
        formulas.extend(self.disjunctive)
        previous_box = self.box
        self._refold(formulas, {variable: value})
        merged = {}
        for name, (low, high) in self.box.items():
            interval = Interval(low, high).intersect(
                Interval(*previous_box.get(name, (low, high)))
            )
            merged[name] = (interval.lower, interval.upper)
            if interval.is_empty() and name not in self.fixed:
                self.refuted = True
        self.box = merged

    def _propagate(self, extra_var, extra_value):
        if self.refuted:
            return None
        constraints = list(self.multi)
        initial = {name: Interval(low, high) for name, (low, high) in self.box.items()}
        for name, value in self.fixed.items():
            initial[name] = Interval(value, value)
        if extra_var is not None:
            pin = initial.get(extra_var, Interval(extra_value, extra_value))
            if not pin.contains(extra_value):
                return None
            initial[extra_var] = Interval(extra_value, extra_value)
            for formula in self.disjunctive:
                reduced = residualize(formula, {extra_var: extra_value})
                if reduced == TRUE:
                    continue
                if reduced == FALSE:
                    return None
                _collect_lincons(reduced, constraints)
        result = PreparedSystem(constraints).run(initial)
        return result.domain if result.feasible else None

    def feasible_set(self, variable):
        domain = self._propagate(None, None)
        if domain is None:
            return FeasibleSet.empty()
        interval = domain.get(variable)
        low_default, high_default = self.box.get(variable, self.bounds[variable])
        if interval is None:
            return FeasibleSet.from_interval(low_default, high_default)
        low = low_default if interval.lower is None else interval.lower
        high = high_default if interval.upper is None else interval.upper
        low_bound, high_bound = self.bounds[variable]
        return FeasibleSet.from_interval(low, high).intersect_interval(
            low_bound, high_bound
        )

    def confirm(self, variable, value):
        return self._propagate(variable, value) is not None


@pytest.fixture(scope="module")
def mined_context():
    from repro.bench.common import get_context

    return get_context()


@pytest.fixture
def propagation_log(monkeypatch):
    """Every propagation run in the test, as its ``converged`` flag."""
    log = []
    plain_run = intervals.PreparedSystem.run

    def run(self, *args, **kwargs):
        result = plain_run(self, *args, **kwargs)
        log.append(result.converged)
        return result

    monkeypatch.setattr(intervals.PreparedSystem, "run", run)
    return log


def _box_entails(box, bounds, expr_items, const):
    """Whether ``sum(coeff*name) + const <= 0`` holds at every corner of
    ``box`` (so on all of it), for a row over schema variables only."""
    names = [name for name, _ in expr_items]
    if not all(name in bounds for name in names):
        return False
    coeffs = dict(expr_items)
    for corner in itertools.product(*[box[name] for name in names]):
        if sum(coeffs[name] * v for name, v in zip(names, corner)) + const > 0:
            return False
    return True


def _retired(row_or_formula, box, bounds):
    """Whether the interval tier may drop a row or a disjunction: a ``<=``
    row, or an Or with a direct ``<=`` atom, that ``box`` entails."""
    if isinstance(row_or_formula, LinCon):
        return row_or_formula.op == "<=" and _box_entails(
            box, bounds, row_or_formula.items, row_or_formula.const
        )
    return isinstance(row_or_formula, Or) and any(
        isinstance(arg, Atom)
        and arg.op == "<="
        and _box_entails(box, bounds, arg.expr.items, arg.expr.const)
        for arg in row_or_formula.args
    )


def _assert_same_state(oracle, reference, bounds):
    assert oracle._refuted == reference.refuted
    if not reference.refuted:
        box = reference.box
        assert oracle._box == box
        # The oracle holds the reference's rows and disjunctions less the
        # ones its box entails, and every row it dropped narrows nothing.
        initial = oracle._initial_domain()
        live = []
        for row in reference.multi:
            if _retired(row, box, bounds):
                assert intervals._propagate_one(row, dict(initial)) == []
            else:
                live.append(row)
        assert oracle._multi_cons == live
        assert [formula for formula, _ in oracle._disjunctive] == [
            formula
            for formula in reference.disjunctive
            if not _retired(formula, box, bounds)
        ]
        # The state's domain -- warm-started when a fix follows a SAT
        # confirmation of its value -- is the cold run's over the
        # reference's full rows.
        cold = PreparedSystem(reference.multi).run(initial)
        assert oracle._state_domain() == (cold.domain if cold.feasible else None)
    for variable, (low, high) in bounds.items():
        if variable in reference.fixed:
            continue
        assert oracle.feasible_set(variable) == reference.feasible_set(variable)
        for value in range(low, high + 1):
            assert oracle.confirm(variable, value) == reference.confirm(
                variable, value
            ), (variable, value)


def _drive(rules, bounds, prompts, seed, fixes_per_record):
    rng = random.Random(seed)
    for prompt in prompts:
        oracle = IntervalOracle(rules, bounds)
        reference = ReferenceIntervalOracle(rules, bounds)
        feasible = reference.begin_record(prompt)
        try:
            oracle.begin_record(prompt)
        except InfeasibleRecordError:
            assert not feasible
        else:
            assert feasible
        _assert_same_state(oracle, reference, bounds)
        free = [name for name in bounds if name not in prompt]
        rng.shuffle(free)
        for variable in free[:fixes_per_record]:
            options = reference.feasible_set(variable)
            low, high = bounds[variable]
            if not options.is_empty() and rng.random() < 0.8:
                low, high = options.min_value, options.max_value
            value = rng.randint(low, high)
            # Confirming first lets the fix warm-start from the confirmation;
            # the sweep above cached every verdict, so drop this one to make
            # the confirmation propagate.
            oracle.cache.evict(oracle._cache_key("confirm", variable, value))
            assert oracle.confirm(variable, value) == reference.confirm(
                variable, value
            )
            oracle.fix(variable, value)
            reference.fix(variable, value)
            _assert_same_state(oracle, reference, bounds)


class TestCompiledIntervalTier:
    """The compiled, incremental tier against the formula round trip."""

    @pytest.mark.parametrize(
        "build", [paper_rules, zoom2net_manual_rules, domain_bound_rules]
    )
    def test_builtin_packs_match_reference(self, build, propagation_log):
        rules = build(CONFIG)
        prompts = [PROMPT, {}, {"total": 20, "cong": 3, "retx": 0, "egr": 20},
                   {"total": 60, "cong": 0}]
        for seed in range(3):
            _drive(rules, BOUNDS, prompts, seed, fixes_per_record=5)
        assert propagation_log and all(propagation_log)

    def test_mined_imputation_pack_matches_reference(
        self, mined_context, propagation_log
    ):
        rules = mined_context.imputation_rules
        bounds = variable_bounds(mined_context.dataset.config)
        prompts = [
            {name: window.variables()[name] for name in COARSE_FIELDS}
            for window in mined_context.test_windows()[:6]
        ]
        prompts.append({"total": 250, "cong": 5, "retx": 5, "egr": 0})
        _drive(rules, bounds, prompts, seed=11, fixes_per_record=5)
        assert propagation_log and all(propagation_log)

    def test_fix_outside_parent_box_refutes(self):
        """A fixed value outside its parent's box refutes the child, as the
        solver does, even where the schema bounds admit it."""
        x, y = IntVar("x"), IntVar("y")
        rules = RuleSet(
            [
                Rule("cap-x", Le(x, 5), kind="test"),
                Rule("sum", Le(x + y, 50), kind="test"),
            ]
        )
        bounds = {"x": (0, 100), "y": (0, 100)}
        smt = SmtOracle(rules, bounds)
        smt.begin_record({})
        smt.fix("x", 20)
        assert smt.feasible_set("y").is_empty()
        oracle = IntervalOracle(rules, bounds)
        oracle.begin_record({})
        oracle.fix("x", 20)
        assert oracle.feasible_set("y").is_empty()
        assert not oracle.confirm("y", 0)
        reference = ReferenceIntervalOracle(rules, bounds)
        reference.begin_record({})
        reference.fix("x", 20)
        assert reference.refuted
        _assert_same_state(oracle, reference, bounds)

    def test_interval_pack_drops_what_the_bounds_entail(self):
        x, y, w = IntVar("x"), IntVar("y"), IntVar("w")
        rules = RuleSet(
            [
                Rule("loose-sum", Le(x + y, 20), kind="test"),
                Rule("tight-sum", Le(x + y, 5), kind="test"),
                Rule("loose-or", Or(Le(x, 10), Ge(x + y, 3)), kind="test"),
                Rule("tight-or", Or(Le(x, 4), Ge(y, 3)), kind="test"),
                Rule("equal", Eq(x, y), kind="test"),
                Rule("off-schema", Le(w + x, 100), kind="test"),
            ]
        )
        bounds = {"x": (0, 10), "y": (0, 10)}
        pack = compiled_pack(rules)
        view = interval_pack(rules, bounds)
        assert interval_pack(rules, dict(bounds)) is view
        assert view == tuple(pack[i] for i in (1, 3, 4, 5))
        wider = interval_pack(rules, {"x": (0, 20), "y": (0, 10)})
        assert wider == pack

    @pytest.mark.parametrize("tier", [SmtOracle, IntervalOracle, HybridOracle])
    def test_off_schema_open_end_stays_open(self, tier):
        """A bound no rule gives an off-schema name stays open: ``w >= 5``
        leaves ``w`` unbounded above, ``w <= 3`` unbounded below."""
        x, w = IntVar("x"), IntVar("w")
        bounds = {"x": (0, 10)}
        for formulas in ([Ge(w, 5), Le(x + w, 20)], [Le(w, 3), Ge(x - w, 5)]):
            rules = RuleSet(
                [Rule(f"r{i}", f, kind="test") for i, f in enumerate(formulas)]
            )
            oracle = tier(rules, bounds)
            oracle.begin_record({})
            assert oracle.feasible_set("x") == FeasibleSet.from_interval(0, 10)
            assert oracle.confirm("x", 0)

    def test_rule_added_after_compiling_recompiles(self):
        rules = paper_rules(CONFIG)
        pack = compiled_pack(rules)
        assert compiled_pack(rules) is pack
        rules.add(Rule("cap-I0", Le(IntVar("I0"), 7), kind="test"))
        recompiled = compiled_pack(rules)
        assert recompiled is not pack
        assert len(recompiled) == len(rules)
        oracle = IntervalOracle(rules, BOUNDS)
        oracle.begin_record(PROMPT)
        assert oracle.feasible_set("I0").max_value == 7


def _corner_rules(always_false=True, off_schema=True):
    """Rows whose normalization, substitution and folding take every path:
    gcd > 1 before and after substitution, an always-false ``==`` (which
    refutes every record), single-variable rows of every op, repeated
    forms, rows over an off-schema variable ``w`` (one entailed only
    through ``w``'s bound), and conjunctions harvested from residual
    disjunctions."""
    x, y, z, w = IntVar("x"), IntVar("y"), IntVar("z"), IntVar("w")
    formulas = [
        Le(3 * x + 6 * y, 12),
        Le(4 * x + 6 * z, 22),
        Le(2 * x, 9),
        Ge(3 * y, -2),
        Le(x + 2 * y + 2 * z, 12),
        Le(x + 2 * y, 7),
        Le(2 * y + 4 * z + 2 * x, 13),
        # Fixing x gives the next row's form, weaker: the later row wins.
        Le(2 * x + y + z, 8),
        Le(y + z, 3),
        Not(Eq(2 * x + 4 * y, 6)),
        Or(And(Le(x + y, 5), Eq(3 * x - 3 * z, 3)), Ge(y, 4)),
        Implies(Ge(x, 2), Eq(2 * y + 2 * z, 4)),
        Implies(Ge(y, 3), And(Le(x + z, 4), Or(Le(z, 1), Ge(y, 5)))),
        Or(Le(x + y + z, 3), Ge(2 * x - 2 * z, 5)),
    ]
    if off_schema:
        formulas += [
            Eq(3 * x + 2 * y + 4 * z - 3 * w, 8),
            Le(w, 3),
            Ge(w + x, -2),
            # Entailed only through w's bound, which a child's fold drops:
            # the row must not retire.
            Le(w + x, 9),
        ]
    if always_false:
        formulas.append(Eq(2 * x + 2 * y, 1))
    return RuleSet(
        [Rule(f"c{i}", formula, kind="test") for i, formula in enumerate(formulas)]
    )


CORNER_BOUNDS = {"x": (-3, 6), "y": (-2, 5), "z": (0, 4)}


class TestFoldMatchesReference:
    """``fold_pack`` against the whole-pack reference fold over raw rows:
    the same box in the same key order (the solver's assertion order),
    the same rows in the same order, the same disjunctions, and the same
    refutations -- with and without harvesting."""

    @staticmethod
    def _check(rules, bounds, assignments):
        pack, raw = compiled_pack(rules), raw_pack(rules)
        for fixed in assignments:
            for harvest in (False, True):
                mine = fold_pack(pack, fixed, harvest, bounds)
                theirs = residualize_pack(raw, fixed, harvest)
                assert (mine is None) == (theirs is None), fixed
                if mine is None:
                    continue
                fold, disjunctive = mine
                conjunctive, their_disjunctive = theirs
                box, rows = _fold_lincons(conjunctive, bounds)
                assert list(fold.box().items()) == list(box.items()), fixed
                assert fold.folded_rows() == rows, fixed
                assert disjunctive == their_disjunctive, fixed

    @staticmethod
    def _assignments(bounds, seed, count):
        rng = random.Random(seed)
        names = sorted(bounds)
        out = [{}]
        for _ in range(count):
            chosen = rng.sample(names, rng.randint(1, len(names)))
            out.append(
                {
                    name: rng.randint(bounds[name][0] - 1, bounds[name][1] + 1)
                    for name in chosen
                }
            )
        return out

    @pytest.mark.parametrize(
        "build", [paper_rules, zoom2net_manual_rules, domain_bound_rules]
    )
    def test_builtin_packs(self, build):
        self._check(build(CONFIG), BOUNDS, [PROMPT] + self._assignments(BOUNDS, 5, 40))

    def test_mined_packs(self, mined_context):
        bounds = variable_bounds(mined_context.dataset.config)
        prompts = [
            {name: window.variables()[name] for name in COARSE_FIELDS}
            for window in mined_context.test_windows()[:10]
        ]
        for rules in (mined_context.imputation_rules, mined_context.synthesis_rules):
            self._check(rules, bounds, prompts + self._assignments(bounds, 7, 20))

    def test_corner_pack(self):
        assignments = self._assignments(dict(CORNER_BOUNDS, w=(-1, 4)), 3, 300)
        for always_false in (True, False):
            for off_schema in (True, False):
                rules = _corner_rules(always_false, off_schema)
                self._check(rules, CORNER_BOUNDS, assignments)

    @pytest.mark.parametrize("off_schema", [True, False])
    def test_corner_pack_states_match_reference(self, off_schema, propagation_log):
        prompts = [{}, {"x": 1}, {"y": 1}, {"z": 1}, {"x": 0, "z": 2}, {"y": 0}]
        rules = _corner_rules(always_false=False, off_schema=off_schema)
        for seed in range(40):
            _drive(rules, CORNER_BOUNDS, prompts, seed, fixes_per_record=3)
        assert propagation_log and all(propagation_log)


# Variable names a generated fold must carry as quoted literals only: quotes,
# backslashes, newlines, Python keywords and the generator's own local names.
_AWKWARD = ["it's", 'say "hi"', "back\\slash", "new\nline", "class", "None",
            "f", "fold", "v0", "K1"]
# What a generated fold's source may hold besides quoted names and ints.
_FOLD_NAMES = {"def", "fold", "f", "return", "None", "True", "False", "if",
               "and", "not", "else", "pass", "Fold", "B", "rows", "forms",
               "disj", "LinCon", "substitute", "append", "get", "const",
               "tight", "keep", "tree", "x", "c", "s", "t", "p", "is", "or"}


def _awkward_rules(seed):
    """Rows, guardable Ors and nested trees over awkward names."""
    rng = random.Random(seed)

    def atom():
        names = rng.sample(_AWKWARD, rng.randint(1, 3))
        expr = sum((rng.choice([-3, -2, -1, 1, 2, 3]) * IntVar(n) for n in names),
                   LinExpr({}, 0))
        return rng.choice([Le, Ge, Eq])(expr, rng.randint(-4, 8))

    formulas = []
    for _ in range(40):
        shape = rng.random()
        if shape < 0.5:
            formulas.append(atom())
        elif shape < 0.85:
            formulas.append(Or(*[atom() for _ in range(rng.randint(2, 3))]))
        else:
            formulas.append(Implies(atom(), And(atom(), Or(atom(), atom()))))
    return RuleSet(
        [Rule(f"a{i}", formula, kind="test") for i, formula in enumerate(formulas)]
    )


def _assert_same_fold(mine, theirs, key):
    assert (mine is None) == (theirs is None), key
    if mine is not None:
        assert list(mine[0].box().items()) == list(theirs[0].box().items()), key
        assert mine[0].folded_rows() == theirs[0].folded_rows(), key
        assert mine[1] == theirs[1], key


class TestGeneratedFold:
    """The generated begin fold against the rule-by-rule fold it replaced
    and the whole-pack reference (``TestFoldMatchesReference._check``)."""

    def test_awkward_names_stay_quoted(self, monkeypatch):
        sources = []
        real_compile = compile

        def spy(source, *args):
            sources.append(source)
            return real_compile(source, *args)

        monkeypatch.setattr(feasible, "compile", spy, raising=False)
        full = {name: (-2, 6) for name in _AWKWARD}
        assignments = TestFoldMatchesReference._assignments(full, 13, 60)
        # With every name bounded, and with the last one off the schema.
        for bounds in (full, {name: full[name] for name in _AWKWARD[:-1]}):
            for seed in range(4):
                rules = _awkward_rules(seed)
                TestFoldMatchesReference._check(rules, bounds, assignments)
                pack = compiled_pack(rules)
                for fixed in assignments:
                    for harvest in (False, True):
                        _assert_same_fold(
                            fold_pack(pack, fixed, harvest, bounds),
                            interpreted_fold_pack(pack, fixed, harvest, bounds),
                            fixed,
                        )
        assert sources
        quoted = {repr(name) for name in _AWKWARD} | {"'<='", "'=='"}
        local = re.compile(r"[vlhK][0-9]+")
        for source in sources:
            for token in tokenize.generate_tokens(io.StringIO(source).readline):
                if token.type == tokenize.NAME:
                    assert token.string in _FOLD_NAMES or local.fullmatch(
                        token.string
                    ), token
                elif token.type == tokenize.NUMBER:
                    assert token.string.isdigit(), token
                elif token.type == tokenize.STRING:
                    assert token.string in quoted, token

    def test_forms_after_guards_and_method_calls(self):
        """A form a guard may place, or a method call may place, is not
        known to be absent or to hold a static row afterwards."""
        x, y, w, t = IntVar("x"), IntVar("y"), IntVar("w"), IntVar("t")
        formulas = [
            Or(Le(t, 5), Le(x + y, 3)),  # places x + y only when t > 5
            Le(x + y, 8),
            And(Le(2 * x - y, 1), Le(w, 3)),  # over off-schema w: a call
            Le(2 * x - y, 6),
        ]
        rules = RuleSet(
            [Rule(f"g{i}", f, kind="test") for i, f in enumerate(formulas)]
        )
        bounds = {"x": (0, 9), "y": (0, 9), "t": (0, 9)}
        assignments = [{}, {"t": 2}, {"t": 7}, {"t": 7, "w": 1}, {"w": 0}]
        TestFoldMatchesReference._check(rules, bounds, assignments)
        pack = compiled_pack(rules)
        for fixed in assignments:
            for harvest in (False, True):
                _assert_same_fold(
                    fold_pack(pack, fixed, harvest, bounds),
                    interpreted_fold_pack(pack, fixed, harvest, bounds),
                    fixed,
                )

    def test_signature_churn_regenerates_identical_folds(self):
        rules = paper_rules(CONFIG)
        pack = compiled_pack(rules)
        names = sorted(BOUNDS)
        signatures = list(itertools.combinations(names, 2))
        assert len(signatures) > feasible._MAX_FOLDS
        rng = random.Random(5)
        firsts = {}
        for signature in signatures:
            fixed = {name: rng.randint(*BOUNDS[name]) for name in signature}
            TestFoldMatchesReference._check(rules, BOUNDS, [fixed])
            assert len(pack.folds) <= feasible._MAX_FOLDS
            firsts.setdefault(signature, fixed)
        oldest = signatures[0]
        key = (frozenset(oldest), True, tuple(BOUNDS.items()))
        assert key not in pack.folds
        fixed = firsts[oldest]
        again = fold_pack(pack, fixed, True, BOUNDS)
        assert key in pack.folds and len(pack.folds) <= feasible._MAX_FOLDS
        _assert_same_fold(again, interpreted_fold_pack(pack, fixed, True, BOUNDS), fixed)
