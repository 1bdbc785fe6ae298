"""Expression trees for WHERE predicates (grammar ``Expr`` in Fig. 4).

The grammar admits constants, attribute references and binary operations
with arithmetic (``+ - * /``), comparison (``= ≠ > ≥ < ≤``) and logical
(``AND OR``) operators.  We add ``NOT`` as a convenience for baseline
engines that must fold negated context conditions into query predicates.

Expressions are evaluated against a *binding*: a mapping from pattern
variable names to events.  An attribute reference ``p2.vid`` looks up the
event bound to ``p2`` and reads its ``vid`` attribute; an unqualified
reference ``vid`` reads the attribute from the binding's sole event.

Two evaluation paths exist.  :meth:`Expr.evaluate` walks the tree with
isinstance dispatch — the readable reference implementation.
:meth:`Expr.compile` lowers the tree once into nested Python closures, so
the per-event cost on the hot path is plain function calls with no
re-interpretation; operators compile their predicates at plan-build time.
The two are equivalent, including :class:`ExpressionError` behaviour
(``tests/algebra/test_expressions.py`` asserts the parity on random trees).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from repro.errors import ExpressionError
from repro.events.event import Event

Binding = Mapping[str, Event]

#: The single event bound when a predicate is evaluated over one event with
#: no explicit pattern variable (e.g. a plain filter on a stream).
SELF_VAR = ""


def binding_from_event(event: Event, var: str = SELF_VAR) -> dict[str, Event]:
    """Build a one-event binding for evaluating per-event predicates."""
    return {var: event}


class Expr:
    """Base class of all expression nodes."""

    def evaluate(self, binding: Binding) -> Any:
        raise NotImplementedError

    def compile(self) -> Callable[[Binding], Any]:
        """Lower the tree to nested closures; equivalent to :meth:`evaluate`.

        The result is memoized on the node, so repeated calls (e.g. the same
        shared predicate referenced by several operators) compile once.
        """
        compiled = self.__dict__.get("_compiled")
        if compiled is None:
            compiled = self._compile()
            object.__setattr__(self, "_compiled", compiled)
        return compiled

    def _compile(self) -> Callable[[Binding], Any]:
        raise NotImplementedError

    def attributes(self) -> set[tuple[str, str]]:
        """All ``(variable, attribute)`` pairs the expression reads."""
        raise NotImplementedError

    def variables(self) -> set[str]:
        """All pattern variables the expression references."""
        return {var for var, _ in self.attributes()}

    # -- operator sugar so predicates can be written in plain Python ------

    def __and__(self, other: "Expr") -> "And":
        return And(self, _as_expr(other))

    def __or__(self, other: "Expr") -> "Or":
        return Or(self, _as_expr(other))

    def __invert__(self) -> "Not":
        return Not(self)

    def __add__(self, other: Any) -> "BinaryOp":
        return BinaryOp("+", self, _as_expr(other))

    def __sub__(self, other: Any) -> "BinaryOp":
        return BinaryOp("-", self, _as_expr(other))

    def __mul__(self, other: Any) -> "BinaryOp":
        return BinaryOp("*", self, _as_expr(other))

    def __truediv__(self, other: Any) -> "BinaryOp":
        return BinaryOp("/", self, _as_expr(other))

    def eq(self, other: Any) -> "BinaryOp":
        return BinaryOp("=", self, _as_expr(other))

    def ne(self, other: Any) -> "BinaryOp":
        return BinaryOp("!=", self, _as_expr(other))

    def gt(self, other: Any) -> "BinaryOp":
        return BinaryOp(">", self, _as_expr(other))

    def ge(self, other: Any) -> "BinaryOp":
        return BinaryOp(">=", self, _as_expr(other))

    def lt(self, other: Any) -> "BinaryOp":
        return BinaryOp("<", self, _as_expr(other))

    def le(self, other: Any) -> "BinaryOp":
        return BinaryOp("<=", self, _as_expr(other))


def _as_expr(value: Any) -> Expr:
    if isinstance(value, Expr):
        return value
    return Constant(value)


@dataclass(frozen=True)
class Constant(Expr):
    """A literal value."""

    value: Any

    def evaluate(self, binding: Binding) -> Any:
        return self.value

    def _compile(self) -> Callable[[Binding], Any]:
        value = self.value
        return lambda binding: value

    def attributes(self) -> set[tuple[str, str]]:
        return set()

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class AttrRef(Expr):
    """A reference ``var.attr`` (or bare ``attr`` with ``var == SELF_VAR``)."""

    var: str
    attr: str

    def evaluate(self, binding: Binding) -> Any:
        event = binding.get(self.var)
        if event is None:
            if self.var == SELF_VAR and len(binding) == 1:
                event = next(iter(binding.values()))
            else:
                raise ExpressionError(
                    f"no event bound to variable {self.var or '<self>'!r}; "
                    f"bound: {sorted(binding)}"
                )
        if self.attr not in event:
            raise ExpressionError(
                f"event {event.type_name!r} bound to {self.var or '<self>'!r} "
                f"has no attribute {self.attr!r}"
            )
        return event[self.attr]

    def _compile(self) -> Callable[[Binding], Any]:
        var, attr_name = self.var, self.attr

        def run(binding: Binding) -> Any:
            event = binding.get(var)
            if event is None:
                if var == SELF_VAR and len(binding) == 1:
                    event = next(iter(binding.values()))
                else:
                    raise ExpressionError(
                        f"no event bound to variable {var or '<self>'!r}; "
                        f"bound: {sorted(binding)}"
                    )
            # Read the payload mapping directly: one dict lookup instead of
            # a __contains__ call followed by a __getitem__ call.
            try:
                return event._payload[attr_name]
            except KeyError:
                raise ExpressionError(
                    f"event {event.type_name!r} bound to {var or '<self>'!r} "
                    f"has no attribute {attr_name!r}"
                ) from None

        return run

    def attributes(self) -> set[tuple[str, str]]:
        return {(self.var, self.attr)}

    def __str__(self) -> str:
        return f"{self.var}.{self.attr}" if self.var else self.attr


_ARITHMETIC: dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}

_COMPARISON: dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}


@dataclass(frozen=True)
class BinaryOp(Expr):
    """An arithmetic or comparison operation on two sub-expressions."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _ARITHMETIC and self.op not in _COMPARISON:
            raise ExpressionError(f"unknown binary operator: {self.op!r}")

    def evaluate(self, binding: Binding) -> Any:
        left = self.left.evaluate(binding)
        right = self.right.evaluate(binding)
        func = _ARITHMETIC.get(self.op) or _COMPARISON[self.op]
        try:
            return func(left, right)
        except TypeError as exc:
            raise ExpressionError(
                f"cannot apply {self.op!r} to {left!r} and {right!r}"
            ) from exc
        except ZeroDivisionError as exc:
            raise ExpressionError(f"division by zero in {self}") from exc

    def _compile(self) -> Callable[[Binding], Any]:
        op = self.op
        func = _ARITHMETIC.get(op) or _COMPARISON[op]
        label = str(self)
        # Constant operands are folded into the closure — comparisons
        # against literals (the most common predicate shape) cost one
        # sub-expression call instead of two.
        if isinstance(self.right, Constant):
            left = self.left.compile()
            b_const = self.right.value

            def run(binding: Binding) -> Any:
                a = left(binding)
                try:
                    return func(a, b_const)
                except TypeError as exc:
                    raise ExpressionError(
                        f"cannot apply {op!r} to {a!r} and {b_const!r}"
                    ) from exc
                except ZeroDivisionError as exc:
                    raise ExpressionError(
                        f"division by zero in {label}"
                    ) from exc

            return run
        if isinstance(self.left, Constant):
            a_const = self.left.value
            right = self.right.compile()

            def run(binding: Binding) -> Any:
                b = right(binding)
                try:
                    return func(a_const, b)
                except TypeError as exc:
                    raise ExpressionError(
                        f"cannot apply {op!r} to {a_const!r} and {b!r}"
                    ) from exc
                except ZeroDivisionError as exc:
                    raise ExpressionError(
                        f"division by zero in {label}"
                    ) from exc

            return run
        left = self.left.compile()
        right = self.right.compile()

        def run(binding: Binding) -> Any:
            a = left(binding)
            b = right(binding)
            try:
                return func(a, b)
            except TypeError as exc:
                raise ExpressionError(
                    f"cannot apply {op!r} to {a!r} and {b!r}"
                ) from exc
            except ZeroDivisionError as exc:
                raise ExpressionError(f"division by zero in {label}") from exc

        return run

    def attributes(self) -> set[tuple[str, str]]:
        return self.left.attributes() | self.right.attributes()

    @property
    def is_comparison(self) -> bool:
        return self.op in _COMPARISON

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class And(Expr):
    """Logical conjunction with short-circuit evaluation."""

    left: Expr
    right: Expr

    def evaluate(self, binding: Binding) -> bool:
        return bool(self.left.evaluate(binding)) and bool(
            self.right.evaluate(binding)
        )

    def _compile(self) -> Callable[[Binding], bool]:
        left = self.left.compile()
        right = self.right.compile()
        return lambda binding: bool(left(binding)) and bool(right(binding))

    def attributes(self) -> set[tuple[str, str]]:
        return self.left.attributes() | self.right.attributes()

    def __str__(self) -> str:
        return f"({self.left} AND {self.right})"


@dataclass(frozen=True)
class Or(Expr):
    """Logical disjunction with short-circuit evaluation."""

    left: Expr
    right: Expr

    def evaluate(self, binding: Binding) -> bool:
        return bool(self.left.evaluate(binding)) or bool(
            self.right.evaluate(binding)
        )

    def _compile(self) -> Callable[[Binding], bool]:
        left = self.left.compile()
        right = self.right.compile()
        return lambda binding: bool(left(binding)) or bool(right(binding))

    def attributes(self) -> set[tuple[str, str]]:
        return self.left.attributes() | self.right.attributes()

    def __str__(self) -> str:
        return f"({self.left} OR {self.right})"


@dataclass(frozen=True)
class Not(Expr):
    """Logical negation (library extension; not part of Fig. 4's grammar)."""

    operand: Expr

    def evaluate(self, binding: Binding) -> bool:
        return not bool(self.operand.evaluate(binding))

    def _compile(self) -> Callable[[Binding], bool]:
        operand = self.operand.compile()
        return lambda binding: not bool(operand(binding))

    def attributes(self) -> set[tuple[str, str]]:
        return self.operand.attributes()

    def __str__(self) -> str:
        return f"(NOT {self.operand})"


def attr(name: str, var: str = SELF_VAR) -> AttrRef:
    """Shorthand: ``attr("vid", "p2")`` is the reference ``p2.vid``."""
    return AttrRef(var, name)


def const(value: Any) -> Constant:
    """Shorthand for :class:`Constant`."""
    return Constant(value)


def all_hold(predicates: Iterable[Callable[[Binding], Any]], binding: Binding) -> bool:
    """Whether every compiled predicate holds; a raise counts as false."""
    try:
        for predicate in predicates:
            if not predicate(binding):
                return False
    except ExpressionError:
        return False
    return True


def conjuncts(expr: Expr) -> list[Expr]:
    """Flatten a conjunction into its top-level conjuncts."""
    if isinstance(expr, And):
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def split_guard(
    guard: Expr, var: str
) -> tuple[list[tuple[str, Expr]], list[Expr], list[Expr]]:
    """Sort a negation guard's conjuncts into ``(keys, own, residual)``.

    ``keys`` holds ``(attr, other)`` for each ``var.attr = other`` conjunct
    (either operand order) whose ``other`` side reads only variables other
    than ``var``; ``own`` holds the conjuncts that read no variable but
    ``var``; ``residual`` holds everything else.
    """
    keys: list[tuple[str, Expr]] = []
    own: list[Expr] = []
    residual: list[Expr] = []
    for conjunct in conjuncts(guard):
        if conjunct.variables() <= {var}:
            own.append(conjunct)
            continue
        if isinstance(conjunct, BinaryOp) and conjunct.op == "=":
            sides = (conjunct.left, conjunct.right), (conjunct.right, conjunct.left)
            for side, other in sides:
                if isinstance(side, AttrRef) and side.var == var:
                    if var not in other.variables():
                        keys.append((side.attr, other))
                        break
            else:
                residual.append(conjunct)
            continue
        residual.append(conjunct)
    return keys, own, residual


def conjoin(exprs: list[Expr]) -> Expr:
    """Combine expressions into one conjunction (``TRUE`` for empty input)."""
    if not exprs:
        return Constant(True)
    result = exprs[0]
    for expr in exprs[1:]:
        result = And(result, expr)
    return result
