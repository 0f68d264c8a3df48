"""Interval propagation: soundness (never prunes a solution) + precision."""

import itertools
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from reference_propagation import reference_propagate_one

from repro.smt import intervals
from repro.smt.intervals import Interval, PreparedSystem
from repro.smt.lincon import LinCon

VARS = ["x", "y", "z"]


def bounded(low=-6, high=6):
    cons = []
    for name in VARS:
        cons.append(LinCon.make({name: 1}, -high, "<="))
        cons.append(LinCon.make({name: -1}, low, "<="))
    return cons


class TestInterval:
    def test_contains(self):
        interval = Interval(0, 5)
        assert interval.contains(0) and interval.contains(5)
        assert not interval.contains(-1) and not interval.contains(6)

    def test_half_open(self):
        assert Interval(None, 5).contains(-1000)
        assert not Interval(None, 5).contains(6)
        assert Interval(3, None).contains(1000)

    def test_empty(self):
        assert Interval(5, 3).is_empty()
        assert not Interval(5, 5).is_empty()

    def test_intersect(self):
        assert Interval(0, 10).intersect(Interval(5, 20)) == Interval(5, 10)
        assert Interval(None, 10).intersect(Interval(5, None)) == Interval(5, 10)

    def test_width(self):
        assert Interval(2, 5).width() == 4
        assert Interval(None, 5).width() is None
        assert Interval(5, 2).width() == 0


class TestPropagation:
    def test_simple_bound(self):
        result = PreparedSystem([LinCon.make({"x": 1}, -5, "<=")]).run()
        assert result.feasible
        assert result.domain["x"].upper == 5

    def test_equality_propagates_both_ways(self):
        # x + y == 10, 0 <= x <= 4  =>  6 <= y <= 10.
        cons = [
            LinCon.make({"x": 1, "y": 1}, -10, "=="),
            LinCon.make({"x": 1}, -4, "<="),
            LinCon.make({"x": -1}, 0, "<="),
        ]
        result = PreparedSystem(cons).run()
        assert result.feasible
        assert result.domain["y"].lower == 6
        assert result.domain["y"].upper == 10

    def test_conflict_detected(self):
        cons = [
            LinCon.make({"x": 1}, -2, "<="),
            LinCon.make({"x": -1}, 3, "<="),  # x >= 3
        ]
        assert not PreparedSystem(cons).run().feasible

    def test_coefficient_division_rounds_correctly(self):
        # 3x <= 10  =>  x <= 3;  -2x <= -5  =>  x >= 3 (ceil 2.5).
        cons = [
            LinCon.make({"x": 3}, -10, "<="),
            LinCon.make({"x": -2}, 5, "<="),
        ]
        result = PreparedSystem(cons).run()
        assert result.feasible
        assert result.domain["x"].lower == 3
        assert result.domain["x"].upper == 3

    def test_chain_propagation(self):
        # x == y + 1, y == z + 1, z == 5.
        cons = [
            LinCon.make({"x": 1, "y": -1}, -1, "=="),
            LinCon.make({"y": 1, "z": -1}, -1, "=="),
            LinCon.make({"z": 1}, -5, "=="),
        ]
        result = PreparedSystem(cons).run()
        assert result.domain["x"].lower == result.domain["x"].upper == 7

    def test_disequality_shaves_endpoint(self):
        cons = [
            LinCon.make({"x": 1}, -5, "<="),
            LinCon.make({"x": -1}, 0, "<="),
            LinCon.make({"x": 1}, 0, "!="),  # x != 0
        ]
        result = PreparedSystem(cons).run()
        assert result.domain["x"].lower == 1

    def test_disequality_refutes_pinned(self):
        cons = [
            LinCon.make({"x": 1}, -3, "=="),
            LinCon.make({"x": 1}, -3, "!="),
        ]
        assert not PreparedSystem(cons).run().feasible

    def test_initial_domain_respected(self):
        result = PreparedSystem([LinCon.make({"x": 1}, -100, "<=")]).run(
            {"x": Interval(2, 7)}
        )
        assert result.domain["x"].lower == 2
        assert result.domain["x"].upper == 7

    def test_ground_false_constraint(self):
        assert not PreparedSystem([LinCon.make({}, 1, "<=")]).run().feasible

    def test_iteration_cap_is_reported(self):
        # x <= 10, x <= y - 1, y <= x - 1: each pass lowers both upper
        # bounds by one and nothing stops the descent.
        cons = [
            LinCon.make({"x": 1}, -10, "<="),
            LinCon.make({"x": 1, "y": -1}, 1, "<="),
            LinCon.make({"y": 1, "x": -1}, 1, "<="),
        ]
        result = PreparedSystem(cons).run()
        assert not result.converged
        assert result.feasible  # the capped domain is sound, not refuted
        assert PreparedSystem(cons[:2]).run().converged


con_strategy = st.builds(
    lambda coeffs, const, op: LinCon.make(dict(zip(VARS, coeffs)), const, op),
    st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    st.integers(-8, 8),
    st.sampled_from(["<=", "==", "!="]),
)


@given(st.lists(con_strategy, min_size=1, max_size=5))
@settings(max_examples=120, deadline=None)
def test_soundness_no_solution_pruned(random_cons):
    cons = bounded() + random_cons
    result = PreparedSystem(cons).run()
    solutions = []
    for values in itertools.product(range(-6, 7), repeat=len(VARS)):
        assignment = dict(zip(VARS, values))
        if all(c.holds(assignment) for c in cons):
            solutions.append(assignment)
    if not result.feasible:
        assert not solutions
    else:
        for assignment in solutions:
            for name, value in assignment.items():
                if name in result.domain:
                    assert result.domain[name].contains(value)


@given(
    st.lists(con_strategy, min_size=1, max_size=6),
    st.lists(con_strategy, max_size=2),
    st.booleans(),
    st.randoms(use_true_random=False),
)
@settings(max_examples=150, deadline=None)
def test_converged_result_is_order_independent(random_cons, extra, box, rnd):
    """A converged fixpoint depends only on the constraint set: it is the
    same under any visiting order and whether the system was prepared
    once (with per-run extras) or propagated from scratch."""
    cons = (bounded() if box else []) + random_cons
    plain = PreparedSystem(cons + extra).run()
    shuffled = cons + extra
    rnd.shuffle(shuffled)
    runs = [PreparedSystem(shuffled).run(), PreparedSystem(cons).run(None, extra)]
    assume(plain.converged and all(run.converged for run in runs))
    for run in runs:
        assert run.feasible == plain.feasible
        if plain.feasible:
            assert run.domain == plain.domain


# -- the one-pass row kernel against the O(k^2) reference ----------------------

WIDE_VARS = ["a", "b", "c", "d", "e"]

bound_strategy = st.one_of(st.none(), st.integers(-12, 12))

# Half-open, unbounded, pinned and empty intervals; a variable may also be
# missing from the domain altogether (the kernel reads it as TOP).
domain_strategy = st.dictionaries(
    st.sampled_from(WIDE_VARS),
    st.builds(Interval, bound_strategy, bound_strategy),
)

row_strategy = st.builds(
    lambda coeffs, const, op: LinCon.make(coeffs, const, op),
    st.dictionaries(
        st.sampled_from(WIDE_VARS), st.integers(-7, 7), min_size=1
    ),
    st.integers(-30, 30),
    st.sampled_from(["<=", "==", "!="]),
)


@given(row_strategy, domain_strategy)
# One unbounded term: only that variable gets a bound.
@example(LinCon.make({"a": 1, "b": 2}, -10, "<="), {"a": Interval(0, 3)})
# Two unbounded terms: nothing can tighten.
@example(LinCon.make({"a": 1, "b": -1, "c": 1}, 0, "<="), {"a": Interval(0, 3)})
# Negative coefficients round toward the feasible side.
@example(
    LinCon.make({"a": -3, "b": 2}, 7, "=="),
    {"a": Interval(None, 9), "b": Interval(-4, None)},
)
# A refutation leaves the emptied interval in the domain.
@example(
    LinCon.make({"a": 1, "b": 1}, -1, "=="),
    {"a": Interval(5, 6), "b": Interval(0, 2)},
)
# A disequality shaves a pinned endpoint.
@example(
    LinCon.make({"a": 2, "b": 1}, -4, "!="),
    {"a": Interval(2, 2), "b": Interval(0, 5)},
)
@settings(max_examples=600, deadline=None)
def test_row_step_matches_reference_kernel(con, domain):
    """One row step: the same domain, the same changed list in the same
    order, and None in the same cases."""
    mine, theirs = dict(domain), dict(domain)
    assert intervals._propagate_one(con, mine) == reference_propagate_one(
        con, theirs
    )
    assert mine == theirs


@given(
    st.lists(row_strategy, min_size=1, max_size=7),
    st.lists(row_strategy, max_size=2),
    domain_strategy,
    st.integers(1, 40),
)
# The non-converging descent of test_iteration_cap_is_reported, at the
# real iteration cap.
@example(
    [
        LinCon.make({"x": 1}, -10, "<="),
        LinCon.make({"x": 1, "y": -1}, 1, "<="),
        LinCon.make({"y": 1, "x": -1}, 1, "<="),
    ],
    [],
    {},
    intervals._WIDEN_LIMIT,
)
@settings(max_examples=300, deadline=None)
def test_run_matches_reference_kernel(cons, extra, initial, limit):
    """A whole run takes the same steps under either kernel.  A small
    iteration cap cuts most runs short, so ``converged=False`` domains --
    which depend on the visiting order -- are compared too."""
    results = []
    for kernel in (intervals._propagate_one, reference_propagate_one):
        with mock.patch.object(intervals, "_propagate_one", kernel), \
                mock.patch.object(intervals, "_WIDEN_LIMIT", limit):
            results.append(PreparedSystem(cons).run(initial, extra))
    mine, theirs = results
    assert (mine.feasible, mine.converged) == (theirs.feasible, theirs.converged)
    assert mine.domain == theirs.domain


# -- warm starts: a derived query restarted from its parent's fixpoint --------


def _prepared(cons):
    """``cons`` normalized as PreparedSystem would; None if one is ground-false."""
    rows = []
    if not intervals._normalize_all(cons, rows):
        return None
    return rows


def _warm_case(base_cons, fresh_cons, extra, data):
    """A converged parent run and a derived query, with a warm start for it.

    The parent system runs cold from the box.  The derived query pins one
    variable inside the parent's fixpoint, adds ``fresh_cons`` to the
    system (the rows a fold built) and ``extra`` to the run; its start
    lies anywhere between the parent's fixpoint, narrowed to the pinned
    box, and the pinned box.  Queued: the rows watching a variable whose
    start differs from the parent's fixpoint, the fresh rows and the
    extras.
    """
    rows, fresh = _prepared(bounded() + base_cons), _prepared(fresh_cons)
    assume(rows is not None and fresh is not None)
    box = {name: Interval(-6, 6) for name in VARS}
    parent = PreparedSystem.of_normalized(rows).run(box)
    assume(parent.feasible and parent.converged)
    name = data.draw(st.sampled_from(VARS))
    value = data.draw(
        st.integers(parent.domain[name].lower, parent.domain[name].upper)
    )
    pinned = dict(box)
    pinned[name] = Interval(value, value)
    start, changed = {}, []
    for var in VARS:
        low = max(pinned[var].lower, parent.domain[var].lower)
        high = min(pinned[var].upper, parent.domain[var].upper)
        start[var] = Interval(
            data.draw(st.integers(pinned[var].lower, low)),
            data.draw(st.integers(high, pinned[var].upper)),
        )
        if start[var] != parent.domain[var]:
            changed.append(var)
    derived = PreparedSystem.of_normalized(rows + fresh)
    warm = (start, changed, range(len(rows), len(rows) + len(fresh)))
    return derived, pinned, warm


@given(
    st.lists(con_strategy, min_size=1, max_size=6),
    st.lists(con_strategy, max_size=2),
    st.lists(con_strategy, max_size=2),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_warm_run_matches_cold_run(base_cons, fresh_cons, extra, data):
    """Narrowing is monotone, so a converged run started anywhere between
    the fixpoint and the initial domain, with every row that may be
    unstable there queued, reaches the cold run's fixpoint."""
    derived, pinned, warm = _warm_case(base_cons, fresh_cons, extra, data)
    cold = derived.run(pinned, extra)
    assume(cold.converged)
    result = derived.run(pinned, extra, warm)
    assert result.converged
    assert result.feasible == cold.feasible
    if cold.feasible:
        assert result.domain == cold.domain


@given(
    st.lists(con_strategy, min_size=1, max_size=6),
    st.lists(con_strategy, max_size=2),
    st.lists(con_strategy, max_size=2),
    st.data(),
    st.integers(1, 40),
)
@settings(max_examples=200, deadline=None)
def test_capped_warm_run_falls_back_to_cold(
    base_cons, fresh_cons, extra, data, limit
):
    """A warm run that stops at the iteration cap is discarded: the result
    is then the cold run's, capped or not, step for step."""
    derived, pinned, warm = _warm_case(base_cons, fresh_cons, extra, data)
    solves = []
    real_solve = intervals._solve

    def solve(*args):
        solves.append(real_solve(*args))
        return solves[-1]

    with mock.patch.object(intervals, "_WIDEN_LIMIT", limit):
        cold = derived.run(pinned, extra)
        with mock.patch.object(intervals, "_solve", solve):
            result = derived.run(pinned, extra, warm)
    if not solves:  # a ground-false extra refutes before any run
        assert not result.feasible and not cold.feasible
    elif solves[0].converged:
        assert len(solves) == 1
        if cold.converged:
            assert result.feasible == cold.feasible
            if cold.feasible:
                assert result.domain == cold.domain
    else:
        assert len(solves) == 2
        assert (result.feasible, result.converged) == (
            cold.feasible,
            cold.converged,
        )
        assert result.domain == cold.domain


def _entailed_by(row, domain):
    """Whether ``domain`` (bounded on every row variable) entails a ``<=``
    row: its maximum activity there is at most 0."""
    if row.op != "<=":
        return False
    total = row.const
    for name, coeff in row.items:
        interval = domain[name]
        total += coeff * (interval.upper if coeff > 0 else interval.lower)
    return total <= 0


@given(
    st.lists(con_strategy, min_size=1, max_size=6),
    st.lists(con_strategy, max_size=2),
    st.lists(con_strategy, max_size=2),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_entailed_rows_retire(base_cons, fresh_cons, extra, data):
    """Dropping every ``<=`` row the initial domain entails changes no run,
    cold or warm: such a row narrows nothing on any sub-domain.  The box
    rows of ``bounded()`` are always among the dropped."""
    derived, pinned, warm = _warm_case(base_cons, fresh_cons, extra, data)
    keep = [
        index
        for index, row in enumerate(derived.active)
        if not _entailed_by(row, pinned)
    ]
    assert len(keep) < len(derived.active)
    retired = PreparedSystem.of_normalized([derived.active[i] for i in keep])
    position = {index: new for new, index in enumerate(keep)}
    start, changed, rows = warm
    retired_warm = (start, changed, [position[i] for i in rows if i in position])
    for full_start, kept_start in ((None, None), (warm, retired_warm)):
        full = derived.run(pinned, extra, full_start)
        kept = retired.run(pinned, extra, kept_start)
        assert (kept.feasible, kept.converged) == (full.feasible, full.converged)
        if full.feasible:
            assert kept.domain == full.domain


def test_of_normalized_indexes_rows_as_given():
    rows = [
        LinCon.make({"x": 1, "y": 1}, -4, "<="),
        LinCon.make({"y": 1}, -1, "=="),
    ]
    system = PreparedSystem.of_normalized(rows)
    assert system.active is rows
    assert system.watch == {"x": [0], "y": [0, 1]}
    assert system.run().domain == PreparedSystem(rows).run().domain
