"""Interval propagation: soundness (never prunes a solution) + precision."""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.smt.intervals import Interval, PreparedSystem, propagate
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
        result = propagate([LinCon.make({"x": 1}, -5, "<=")])
        assert result.feasible
        assert result.domain["x"].upper == 5

    def test_equality_propagates_both_ways(self):
        # x + y == 10, 0 <= x <= 4  =>  6 <= y <= 10.
        cons = [
            LinCon.make({"x": 1, "y": 1}, -10, "=="),
            LinCon.make({"x": 1}, -4, "<="),
            LinCon.make({"x": -1}, 0, "<="),
        ]
        result = propagate(cons)
        assert result.feasible
        assert result.domain["y"].lower == 6
        assert result.domain["y"].upper == 10

    def test_conflict_detected(self):
        cons = [
            LinCon.make({"x": 1}, -2, "<="),
            LinCon.make({"x": -1}, 3, "<="),  # x >= 3
        ]
        assert not propagate(cons).feasible

    def test_coefficient_division_rounds_correctly(self):
        # 3x <= 10  =>  x <= 3;  -2x <= -5  =>  x >= 3 (ceil 2.5).
        cons = [
            LinCon.make({"x": 3}, -10, "<="),
            LinCon.make({"x": -2}, 5, "<="),
        ]
        result = propagate(cons)
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
        result = propagate(cons)
        assert result.domain["x"].lower == result.domain["x"].upper == 7

    def test_disequality_shaves_endpoint(self):
        cons = [
            LinCon.make({"x": 1}, -5, "<="),
            LinCon.make({"x": -1}, 0, "<="),
            LinCon.make({"x": 1}, 0, "!="),  # x != 0
        ]
        result = propagate(cons)
        assert result.domain["x"].lower == 1

    def test_disequality_refutes_pinned(self):
        cons = [
            LinCon.make({"x": 1}, -3, "=="),
            LinCon.make({"x": 1}, -3, "!="),
        ]
        assert not propagate(cons).feasible

    def test_initial_domain_respected(self):
        result = propagate(
            [LinCon.make({"x": 1}, -100, "<=")],
            initial={"x": Interval(2, 7)},
        )
        assert result.domain["x"].lower == 2
        assert result.domain["x"].upper == 7

    def test_ground_false_constraint(self):
        assert not propagate([LinCon.make({}, 1, "<=")]).feasible

    def test_iteration_cap_is_reported(self):
        # x <= 10, x <= y - 1, y <= x - 1: each pass lowers both upper
        # bounds by one and nothing stops the descent.
        cons = [
            LinCon.make({"x": 1}, -10, "<="),
            LinCon.make({"x": 1, "y": -1}, 1, "<="),
            LinCon.make({"y": 1, "x": -1}, 1, "<="),
        ]
        result = propagate(cons)
        assert not result.converged
        assert result.feasible  # the capped domain is sound, not refuted
        assert propagate(cons[:2]).converged


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
    result = propagate(cons)
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
    plain = propagate(cons + extra)
    shuffled = cons + extra
    rnd.shuffle(shuffled)
    runs = [propagate(shuffled), PreparedSystem(cons).run(None, extra)]
    assume(plain.converged and all(run.converged for run in runs))
    for run in runs:
        assert run.feasible == plain.feasible
        if plain.feasible:
            assert run.domain == plain.domain
