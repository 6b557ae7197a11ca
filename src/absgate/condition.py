"""Three-valued condition trees over declared case fields.

Conditions evaluate under strong Kleene logic to ``TRUE``, ``FALSE``, or
``INDETERMINATE``. A comparison or membership test against a field absent
from the case is indeterminate; ``present(f)`` and ``absent(f)`` are always
two-valued. Conjunction is the minimum and disjunction the maximum over the
order FALSE < INDETERMINATE < TRUE, so ``false and x`` is false and
``true or x`` is true no matter how unknown ``x`` is; negation swaps the
poles and leaves INDETERMINATE fixed.

Each node is compiled once, on its first evaluation, into a small function
that is cached on the node and reused for every later case.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from decimal import Decimal
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable, Mapping, Union

from .diagnostics import Diagnostic, Severity
from .model import FieldKind, FieldValue

if TYPE_CHECKING:  # only for annotations; policy imports this module at runtime
    from .policy import FieldDecl

__all__ = [
    "Truth",
    "Condition",
    "Literal",
    "Comparison",
    "Present",
    "Absent",
    "Has",
    "And",
    "Or",
    "Not",
    "COMPARISON_OPS",
    "evaluate",
    "referenced_fields",
    "unresolved_fields",
    "typecheck",
    "print_condition",
]

COMPARISON_OPS = ("==", "!=", "<", "<=", ">", ">=")
_ORDERING_OPS = ("<", "<=", ">", ">=")


class Truth(Enum):
    FALSE = 0
    INDETERMINATE = 1
    TRUE = 2

    def and_(self, other: "Truth") -> "Truth":
        return self if self.value <= other.value else other

    def or_(self, other: "Truth") -> "Truth":
        return self if self.value >= other.value else other

    def not_(self) -> "Truth":
        if self is Truth.TRUE:
            return Truth.FALSE
        if self is Truth.FALSE:
            return Truth.TRUE
        return Truth.INDETERMINATE


# Source location is carried for diagnostics only; it never participates in
# equality, so structurally identical conditions compare equal. The compiled
# function lives in the instance dict as ``_fn``, outside the dataclass fields,
# and is left out of pickles and copies.
@dataclass(frozen=True)
class _Node:
    line: int = field(default=0, compare=False, kw_only=True)
    col: int = field(default=0, compare=False, kw_only=True)

    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("_fn", None)
        return state


@dataclass(frozen=True)
class Literal(_Node):
    value: bool


@dataclass(frozen=True)
class Comparison(_Node):
    field_name: str
    op: str
    literal: FieldValue

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"unknown comparison operator: {self.op!r}")


@dataclass(frozen=True)
class Present(_Node):
    field_name: str


@dataclass(frozen=True)
class Absent(_Node):
    field_name: str


@dataclass(frozen=True)
class Has(_Node):
    field_name: str
    token: str


@dataclass(frozen=True)
class And(_Node):
    left: "Condition"
    right: "Condition"


@dataclass(frozen=True)
class Or(_Node):
    left: "Condition"
    right: "Condition"


@dataclass(frozen=True)
class Not(_Node):
    inner: "Condition"


Condition = Union[Literal, Comparison, Present, Absent, Has, And, Or, Not]


_OPERATORS = dict(zip(COMPARISON_OPS, (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge)))
_TRUE, _FALSE, _INDETERMINATE = Truth.TRUE, Truth.FALSE, Truth.INDETERMINATE


# The compiled functions bind what they read as parameter defaults: locals
# are cheaper to read than closure cells, and a default needs no cell object
# per node. Children compile through the same call, one frame per level, so
# a tree compiles as deep as it evaluates.
def _compiled(cond: Condition) -> Callable[[Mapping[str, FieldValue]], Truth]:
    """The node's compiled function, built and cached on first use.

    Building is idempotent, so racing first uses merely build twice.
    """
    try:
        return cond._fn  # type: ignore[union-attr]
    except AttributeError:
        pass
    if isinstance(cond, Literal):
        def fn(fields, constant=_TRUE if cond.value else _FALSE):
            return constant

    elif isinstance(cond, (Present, Absent)):
        hit, miss = (_TRUE, _FALSE) if isinstance(cond, Present) else (_FALSE, _TRUE)

        def fn(fields, name=cond.field_name, hit=hit, miss=miss):
            return hit if name in fields else miss

    elif isinstance(cond, Comparison):
        kind, right = cond.literal.kind, cond.literal.value
        # An integer literal against a decimal field widens exactly.
        widened = Decimal(right) if kind is FieldKind.INTEGER else None

        def fn(fields, name=cond.field_name, test=_OPERATORS[cond.op], kind=kind, right=right, widened=widened):
            value = fields.get(name)
            if value is None:
                return _INDETERMINATE
            if value.kind is kind:
                return _TRUE if test(value.value, right) else _FALSE
            if value.kind is FieldKind.DECIMAL and widened is not None:
                return _TRUE if test(value.value, widened) else _FALSE
            raise ValueError(f"comparison across kinds: {value.kind.value} vs {kind.value}")

    elif isinstance(cond, Has):
        def fn(fields, name=cond.field_name, token=cond.token):
            value = fields.get(name)
            if value is None:
                return _INDETERMINATE
            if value.kind is not FieldKind.TOKEN_SET:
                raise ValueError(f"has applied to non-set field {name!r}")
            return _TRUE if token in value.value else _FALSE

    # Both operands are always evaluated, so a kind mismatch on either side
    # raises no matter what the other side yields.
    elif isinstance(cond, And):
        def fn(fields, left=_compiled(cond.left), right=_compiled(cond.right)):
            a = left(fields)
            b = right(fields)
            if a is _FALSE or b is _FALSE:
                return _FALSE
            return b if a is _TRUE else a

    elif isinstance(cond, Or):
        def fn(fields, left=_compiled(cond.left), right=_compiled(cond.right)):
            a = left(fields)
            b = right(fields)
            if a is _TRUE or b is _TRUE:
                return _TRUE
            return b if a is _FALSE else a

    elif isinstance(cond, Not):
        def fn(fields, inner=_compiled(cond.inner)):
            a = inner(fields)
            return _FALSE if a is _TRUE else _TRUE if a is _FALSE else a

    else:
        raise TypeError(f"not a condition node: {cond!r}")
    object.__setattr__(cond, "_fn", fn)
    return fn


def evaluate(cond: Condition, fields: Mapping[str, FieldValue]) -> Truth:
    """Evaluate a condition against case fields under Kleene semantics."""
    return _compiled(cond)(fields)


def referenced_fields(cond: Condition) -> frozenset[str]:
    """Every field name the condition mentions, guards included."""
    if isinstance(cond, Literal):
        return frozenset()
    if isinstance(cond, (Present, Absent, Comparison, Has)):
        return frozenset((cond.field_name,))
    if isinstance(cond, (And, Or)):
        return referenced_fields(cond.left) | referenced_fields(cond.right)
    if isinstance(cond, Not):
        return referenced_fields(cond.inner)
    raise TypeError(f"not a condition node: {cond!r}")


def unresolved_fields(cond: Condition, fields: Mapping[str, FieldValue]) -> frozenset[str]:
    """Fields whose absence can make the condition indeterminate.

    Only bare references (comparisons and ``has``) count; ``present`` and
    ``absent`` resolve either way. Whenever ``evaluate`` returns
    INDETERMINATE this set is non-empty.
    """
    if isinstance(cond, (Literal, Present, Absent)):
        return frozenset()
    if isinstance(cond, (Comparison, Has)):
        return frozenset() if cond.field_name in fields else frozenset((cond.field_name,))
    if isinstance(cond, (And, Or)):
        return unresolved_fields(cond.left, fields) | unresolved_fields(cond.right, fields)
    if isinstance(cond, Not):
        return unresolved_fields(cond.inner, fields)
    raise TypeError(f"not a condition node: {cond!r}")


def _err(code: str, message: str, node: _Node) -> Diagnostic:
    return Diagnostic(Severity.ERROR, code, message, node.line, node.col)


def typecheck(cond: Condition, schema: Mapping[str, "FieldDecl"]) -> list[Diagnostic]:
    """Static checks of a condition against a field schema.

    Reports unknown fields, operator/kind mismatches (ordering is defined
    only for integer and decimal fields), and token literals outside a
    closed enumeration.
    """
    diags: list[Diagnostic] = []

    def check(node: Condition) -> None:
        if isinstance(node, Literal):
            return
        if isinstance(node, (And, Or)):
            check(node.left)
            check(node.right)
            return
        if isinstance(node, Not):
            check(node.inner)
            return
        decl = schema.get(node.field_name)
        if decl is None:
            diags.append(_err("unknown_field", f"condition references undeclared field '{node.field_name}'", node))
            return
        if isinstance(node, (Present, Absent)):
            return
        if isinstance(node, Has):
            if decl.kind is not FieldKind.TOKEN_SET:
                diags.append(
                    _err("type_mismatch", f"'has' requires a tokenset field, '{node.field_name}' is {decl.kind.value}", node)
                )
            elif decl.enum is not None and node.token not in decl.enum:
                diags.append(
                    _err("unknown_enum_token", f"token '{node.token}' is outside the enumeration of '{node.field_name}'", node)
                )
            return
        assert isinstance(node, Comparison)
        kind = decl.kind
        lit = node.literal
        if kind is FieldKind.TOKEN_SET:
            diags.append(_err("type_mismatch", f"tokenset field '{node.field_name}' admits only 'has'", node))
            return
        if node.op in _ORDERING_OPS and kind not in (FieldKind.INTEGER, FieldKind.DECIMAL):
            diags.append(
                _err("type_mismatch", f"ordering comparison on {kind.value} field '{node.field_name}'", node)
            )
            return
        compatible = lit.kind is kind or (kind is FieldKind.DECIMAL and lit.kind is FieldKind.INTEGER)
        if not compatible:
            diags.append(
                _err(
                    "type_mismatch",
                    f"{lit.kind.value} literal compared against {kind.value} field '{node.field_name}'",
                    node,
                )
            )
            return
        if kind is FieldKind.TOKEN and decl.enum is not None and lit.value not in decl.enum:
            diags.append(
                _err("unknown_enum_token", f"token '{lit.value}' is outside the enumeration of '{node.field_name}'", node)
            )

    check(cond)
    return diags


def _literal_text(literal: FieldValue) -> str:
    if literal.kind is FieldKind.BOOLEAN:
        return "true" if literal.value else "false"
    if literal.kind is FieldKind.DECIMAL:
        return format(literal.value, ".4f")
    return str(literal.value)


def print_condition(cond: Condition) -> str:
    """Deterministic, re-parsable text form; doubles as the canonical form."""
    if isinstance(cond, Literal):
        return "true" if cond.value else "false"
    if isinstance(cond, Present):
        return f"present({cond.field_name})"
    if isinstance(cond, Absent):
        return f"absent({cond.field_name})"
    if isinstance(cond, Comparison):
        return f"{cond.field_name} {cond.op} {_literal_text(cond.literal)}"
    if isinstance(cond, Has):
        return f"{cond.field_name} has {cond.token}"
    if isinstance(cond, And):
        return f"({print_condition(cond.left)} and {print_condition(cond.right)})"
    if isinstance(cond, Or):
        return f"({print_condition(cond.left)} or {print_condition(cond.right)})"
    if isinstance(cond, Not):
        return f"(not {print_condition(cond.inner)})"
    raise TypeError(f"not a condition node: {cond!r}")
