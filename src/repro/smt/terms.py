"""Term and formula representation for the QF_LIA fragment used by LeJIT.

The solver reasons over *linear integer arithmetic with boolean structure*:
atoms are linear constraints over integer variables, combined with the usual
boolean connectives.  This is exactly the fragment the paper's network rules
(R1-R3, NetNomos output) live in.

Linear expressions are kept in a canonical form -- a mapping from variable
name to integer coefficient plus an integer constant -- so that structural
equality, hashing and normalization are cheap and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Tuple, Union

Number = int

__all__ = [
    "LinExpr",
    "IntVar",
    "Formula",
    "Atom",
    "BoolConst",
    "Not",
    "And",
    "Or",
    "Implies",
    "Iff",
    "TRUE",
    "FALSE",
    "Le",
    "Lt",
    "Ge",
    "Gt",
    "Eq",
    "Ne",
]


def _as_linexpr(value: "LinLike") -> "LinExpr":
    if isinstance(value, LinExpr):
        return value
    if isinstance(value, int):
        return LinExpr({}, value)
    raise TypeError(f"cannot interpret {value!r} as a linear expression")


@dataclass(frozen=True)
class LinExpr:
    """An integer-valued linear expression ``sum(coeff[v] * v) + const``.

    Immutable and canonical: zero coefficients are dropped and the coefficient
    mapping is stored as a sorted tuple internally for hashing.
    """

    _items: Tuple[Tuple[str, int], ...]
    const: int

    def __init__(self, coeffs: Mapping[str, int] | None = None, const: int = 0):
        items = tuple(
            sorted((name, int(c)) for name, c in (coeffs or {}).items() if c != 0)
        )
        object.__setattr__(self, "_items", items)
        object.__setattr__(self, "const", int(const))

    @property
    def coeffs(self) -> Dict[str, int]:
        return dict(self._items)

    @property
    def items(self) -> Tuple[Tuple[str, int], ...]:
        """The ``(name, coeff)`` pairs, sorted by name, no zero coefficients."""
        return self._items

    @property
    def variables(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self._items)

    def coeff(self, name: str) -> int:
        for item_name, c in self._items:
            if item_name == name:
                return c
        return 0

    def is_constant(self) -> bool:
        return not self._items

    def evaluate(self, assignment: Mapping[str, int]) -> int:
        total = self.const
        for name, c in self._items:
            total += c * assignment[name]
        return total

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "LinLike") -> "LinExpr":
        other = _as_linexpr(other)
        coeffs = dict(self._items)
        for name, c in other._items:
            coeffs[name] = coeffs.get(name, 0) + c
        return LinExpr(coeffs, self.const + other.const)

    __radd__ = __add__

    def __neg__(self) -> "LinExpr":
        return LinExpr({name: -c for name, c in self._items}, -self.const)

    def __sub__(self, other: "LinLike") -> "LinExpr":
        return self + (-_as_linexpr(other))

    def __rsub__(self, other: "LinLike") -> "LinExpr":
        return _as_linexpr(other) + (-self)

    def __mul__(self, k: int) -> "LinExpr":
        if not isinstance(k, int):
            raise TypeError("linear expressions can only be scaled by integers")
        return LinExpr({name: c * k for name, c in self._items}, self.const * k)

    __rmul__ = __mul__

    # -- comparisons build formulas -----------------------------------------

    def __le__(self, other: "LinLike") -> "Formula":
        return Le(self, other)

    def __lt__(self, other: "LinLike") -> "Formula":
        return Lt(self, other)

    def __ge__(self, other: "LinLike") -> "Formula":
        return Ge(self, other)

    def __gt__(self, other: "LinLike") -> "Formula":
        return Gt(self, other)

    def eq(self, other: "LinLike") -> "Formula":
        return Eq(self, other)

    def ne(self, other: "LinLike") -> "Formula":
        return Ne(self, other)

    def __repr__(self) -> str:
        parts = []
        for name, c in self._items:
            if c == 1:
                parts.append(name)
            elif c == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{c}*{name}")
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts).replace("+ -", "- ")


LinLike = Union[LinExpr, int]


def IntVar(name: str) -> LinExpr:
    """An integer variable as a (trivially linear) expression."""
    if not name:
        raise ValueError("variable name must be non-empty")
    return LinExpr({name: 1}, 0)


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


class Formula:
    """Base class for boolean formulas over linear-arithmetic atoms."""

    __slots__ = ()

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)

    def __rshift__(self, other: "Formula") -> "Formula":
        return Implies(self, other)

    def evaluate(self, assignment: Mapping[str, int]) -> bool:
        raise NotImplementedError

    def atoms(self) -> Tuple["Atom", ...]:
        """All distinct atoms in the formula, in first-appearance order."""
        seen: Dict[Atom, None] = {}
        stack = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Atom):
                seen.setdefault(node, None)
            elif isinstance(node, Not):
                stack.append(node.arg)
            elif isinstance(node, (And, Or)):
                stack.extend(reversed(node.args))
            elif isinstance(node, (Implies, Iff)):
                stack.append(node.rhs)
                stack.append(node.lhs)
        return tuple(seen)

    def variables(self) -> Tuple[str, ...]:
        names: Dict[str, None] = {}
        for atom in self.atoms():
            for name in atom.expr.variables:
                names.setdefault(name, None)
        return tuple(names)


@dataclass(frozen=True)
class Atom(Formula):
    """A canonical linear atom: ``expr <= 0`` or ``expr == 0``.

    All user-facing comparison constructors normalize to these two shapes
    (strict inequalities become non-strict via integrality; ``>=``/``>`` flip
    signs; ``!=`` expands to a disjunction before this level).
    """

    expr: LinExpr
    op: str  # "<=" or "=="

    def __post_init__(self) -> None:
        if self.op not in ("<=", "=="):
            raise ValueError(f"atom op must be '<=' or '==', got {self.op!r}")

    def evaluate(self, assignment: Mapping[str, int]) -> bool:
        value = self.expr.evaluate(assignment)
        return value <= 0 if self.op == "<=" else value == 0

    def __repr__(self) -> str:
        return f"({self.expr!r} {self.op} 0)"


@dataclass(frozen=True)
class BoolConst(Formula):
    value: bool

    def evaluate(self, assignment: Mapping[str, int]) -> bool:
        return self.value

    def __repr__(self) -> str:
        return "TRUE" if self.value else "FALSE"


TRUE = BoolConst(True)
FALSE = BoolConst(False)


@dataclass(frozen=True)
class Not(Formula):
    arg: Formula

    def evaluate(self, assignment: Mapping[str, int]) -> bool:
        return not self.arg.evaluate(assignment)

    def __repr__(self) -> str:
        return f"~{self.arg!r}"


class _NaryFormula(Formula):
    __slots__ = ("args",)

    args: Tuple[Formula, ...]

    def __init__(self, *args: Formula):
        flat = []
        for arg in args:
            if isinstance(arg, Iterable) and not isinstance(arg, Formula):
                flat.extend(arg)
            else:
                flat.append(arg)
        for arg in flat:
            if not isinstance(arg, Formula):
                raise TypeError(f"expected Formula, got {arg!r}")
        object.__setattr__(self, "args", tuple(flat))

    def __setattr__(self, name, value):  # immutability, mirrors dataclass(frozen)
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.args == other.args

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.args))

    def __repr__(self) -> str:
        name = type(self).__name__
        return f"{name}({', '.join(map(repr, self.args))})"


class And(_NaryFormula):
    def evaluate(self, assignment: Mapping[str, int]) -> bool:
        return all(arg.evaluate(assignment) for arg in self.args)


class Or(_NaryFormula):
    def evaluate(self, assignment: Mapping[str, int]) -> bool:
        return any(arg.evaluate(assignment) for arg in self.args)


@dataclass(frozen=True)
class Implies(Formula):
    lhs: Formula
    rhs: Formula

    def evaluate(self, assignment: Mapping[str, int]) -> bool:
        return (not self.lhs.evaluate(assignment)) or self.rhs.evaluate(assignment)


@dataclass(frozen=True)
class Iff(Formula):
    lhs: Formula
    rhs: Formula

    def evaluate(self, assignment: Mapping[str, int]) -> bool:
        return self.lhs.evaluate(assignment) == self.rhs.evaluate(assignment)


# ---------------------------------------------------------------------------
# Comparison constructors (normalize to canonical atoms)
# ---------------------------------------------------------------------------


def Le(lhs: LinLike, rhs: LinLike) -> Formula:
    """``lhs <= rhs`` as a canonical atom (or boolean constant if ground)."""
    expr = _as_linexpr(lhs) - _as_linexpr(rhs)
    if expr.is_constant():
        return TRUE if expr.const <= 0 else FALSE
    return Atom(expr, "<=")


def Lt(lhs: LinLike, rhs: LinLike) -> Formula:
    # Over the integers, lhs < rhs  <=>  lhs <= rhs - 1.
    return Le(_as_linexpr(lhs) + 1, rhs)


def Ge(lhs: LinLike, rhs: LinLike) -> Formula:
    return Le(rhs, lhs)


def Gt(lhs: LinLike, rhs: LinLike) -> Formula:
    return Lt(rhs, lhs)


def Eq(lhs: LinLike, rhs: LinLike) -> Formula:
    expr = _as_linexpr(lhs) - _as_linexpr(rhs)
    if expr.is_constant():
        return TRUE if expr.const == 0 else FALSE
    # Canonicalize sign so that x == y and y == x produce the same atom.
    items = expr.coeffs
    first = min(items)
    if items[first] < 0:
        expr = -expr
    return Atom(expr, "==")


def Ne(lhs: LinLike, rhs: LinLike) -> Formula:
    eq = Eq(lhs, rhs)
    if isinstance(eq, BoolConst):
        return BoolConst(not eq.value)
    return Not(eq)
