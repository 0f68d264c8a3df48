"""A self-contained SMT solver for quantifier-free linear integer arithmetic.

This package is the repo's stand-in for z3: LeJIT's network rules (bounds,
sum-consistency, implications over counters) are QF_LIA formulas, and the
enforcer needs exactly three solver capabilities -- satisfiability checks,
models, and min/max of a linear expression -- all provided by
:class:`~repro.smt.solver.Solver`.

Layering (bottom up): :mod:`~repro.smt.sat` CDCL core ->
:mod:`~repro.smt.lra` exact simplex -> :mod:`~repro.smt.lia` branch&bound ->
:mod:`~repro.smt.solver` DPLL(T).  :mod:`~repro.smt.intervals` is a sound
bounds-propagation fast path used by the enforcer before full solver calls.
"""

from .budget import RESOURCES, BudgetMeter, SolverBudget
from .intervals import Interval, IntervalDomain, PropagationResult
from .lincon import LinCon, constraint_from_atom
from .lia import LiaLimitError, LiaResult, check_lia
from .sat import SatResult, SatSolver
from .serialize import formula_from_dict, formula_to_dict
from .simplify import simplify, substitute, to_nnf
from .solver import SAT, UNKNOWN_STATUS, UNSAT, CheckResult, Solver, UNBOUNDED
from .terms import (
    FALSE,
    TRUE,
    And,
    Atom,
    BoolConst,
    Eq,
    Formula,
    Ge,
    Gt,
    Iff,
    Implies,
    IntVar,
    Le,
    LinExpr,
    Lt,
    Ne,
    Not,
    Or,
)

__all__ = [
    "Solver",
    "CheckResult",
    "UNBOUNDED",
    "SAT",
    "UNSAT",
    "UNKNOWN_STATUS",
    "SolverBudget",
    "BudgetMeter",
    "RESOURCES",
    "SatSolver",
    "SatResult",
    "LinCon",
    "constraint_from_atom",
    "check_lia",
    "LiaResult",
    "LiaLimitError",
    "Interval",
    "IntervalDomain",
    "PropagationResult",
    "simplify",
    "to_nnf",
    "substitute",
    "formula_to_dict",
    "formula_from_dict",
    "IntVar",
    "LinExpr",
    "Formula",
    "Atom",
    "BoolConst",
    "And",
    "Or",
    "Not",
    "Implies",
    "Iff",
    "Le",
    "Lt",
    "Ge",
    "Gt",
    "Eq",
    "Ne",
    "TRUE",
    "FALSE",
]
