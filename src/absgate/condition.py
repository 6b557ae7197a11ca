"""Three-valued condition trees over declared case fields.

Conditions evaluate under strong Kleene logic to ``TRUE``, ``FALSE``, or
``INDETERMINATE``. A comparison or membership test against a field absent
from the case is indeterminate; ``present(f)`` and ``absent(f)`` are always
two-valued. Conjunction is the minimum and disjunction the maximum over the
order FALSE < INDETERMINATE < TRUE, so ``false and x`` is false and
``true or x`` is true no matter how unknown ``x`` is; negation swaps the
poles and leaves INDETERMINATE fixed.

``compile_conditions`` lowers a list of conditions once into a flat
program: one function per structurally distinct leaf, run once per call,
then one table step per connective. The engine builds one program per
policy stage; ``evaluate`` builds a one-condition program and caches it on
the node.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from decimal import Decimal
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Union

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
    "compile_conditions",
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
# equality, so structurally identical conditions compare equal. The program
# ``evaluate`` compiles lives in the instance dict as ``_program``, outside the
# dataclass fields, and is left out of pickles and copies.
@dataclass(frozen=True)
class _Node:
    line: int = field(default=0, compare=False, kw_only=True)
    col: int = field(default=0, compare=False, kw_only=True)

    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("_program", None)
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

# A compiled program computes on ints: FALSE 0, INDETERMINATE 1, TRUE 2, the
# ``Truth`` values. Each connective is a 3x3 table indexed by its operands'
# values; ``not`` ignores its second operand.
_FALSE, _INDETERMINATE, _TRUE = Truth.FALSE.value, Truth.INDETERMINATE.value, Truth.TRUE.value
_AND = tuple(tuple(min(a, b) for b in range(3)) for a in range(3))
_OR = tuple(tuple(max(a, b) for b in range(3)) for a in range(3))
_NOT = tuple((2 - a,) * 3 for a in range(3))
_TRUTHS = (Truth.FALSE, Truth.INDETERMINATE, Truth.TRUE)

_Program = Callable[[Mapping[str, FieldValue]], list[int]]


# Atom functions bind what they read as parameter defaults: locals are
# cheaper to read than closure cells.
def _atom(leaf: Condition) -> Callable[[Mapping[str, FieldValue]], int]:
    """The function computing one leaf's truth value."""
    if isinstance(leaf, Literal):
        def atom(fields, constant=_TRUE if leaf.value else _FALSE):
            return constant

    elif isinstance(leaf, (Present, Absent)):
        hit, miss = (_TRUE, _FALSE) if isinstance(leaf, Present) else (_FALSE, _TRUE)

        def atom(fields, name=leaf.field_name, hit=hit, miss=miss):
            return hit if name in fields else miss

    elif isinstance(leaf, Comparison):
        kind, right = leaf.literal.kind, leaf.literal.value
        # An integer literal against a decimal field widens exactly.
        widened = Decimal(right) if kind is FieldKind.INTEGER else None

        def atom(fields, name=leaf.field_name, test=_OPERATORS[leaf.op], kind=kind, right=right, widened=widened):
            value = fields.get(name)
            if value is None:
                return _INDETERMINATE
            if value.kind is kind:
                return _TRUE if test(value.value, right) else _FALSE
            if value.kind is FieldKind.DECIMAL and widened is not None:
                return _TRUE if test(value.value, widened) else _FALSE
            raise ValueError(f"comparison across kinds: {value.kind.value} vs {kind.value}")

    elif isinstance(leaf, Has):
        def atom(fields, name=leaf.field_name, token=leaf.token):
            value = fields.get(name)
            if value is None:
                return _INDETERMINATE
            if value.kind is not FieldKind.TOKEN_SET:
                raise ValueError(f"has applied to non-set field {name!r}")
            return _TRUE if token in value.value else _FALSE

    else:
        raise TypeError(f"not a condition node: {leaf!r}")
    return atom


def compile_conditions(conds: Iterable[Condition]) -> _Program:
    """Lower conditions into one flat program over shared atoms.

    The program maps case fields to a list holding each condition's truth
    value as an int (``Truth(v)``), in the order given. Structurally equal
    leaves share one atom, and every atom runs exactly once per call, in
    first-occurrence order, so a kind mismatch raises at the first
    mismatching leaf in condition order no matter what the other operands
    yield. Each ``and``, ``or`` and ``not`` is one table step over the
    slots computed before it. The trees are walked with an explicit stack,
    so depth is bounded by memory, not by the interpreter's recursion limit.
    """
    atoms: list[Callable[[Mapping[str, FieldValue]], int]] = []
    atom_slot: dict[Condition, int] = {}
    # Operand references: n >= 0 is atom n, ~n is step n (steps follow the
    # atoms once their number is known).
    steps: list[tuple[Any, int, int]] = []
    roots: list[int] = []

    def leaf_ref(leaf: Condition) -> int:
        try:
            return atom_slot[leaf]
        except KeyError:
            atom_slot[leaf] = len(atoms)
        except TypeError:  # an unhashable literal gets a slot of its own
            pass
        atoms.append(_atom(leaf))
        return len(atoms) - 1

    for cond in conds:
        work: list[Any] = [cond]
        refs: list[int] = []
        while work:
            item = work.pop()
            if isinstance(item, (And, Or)):
                work += (_AND if isinstance(item, And) else _OR, item.right, item.left)
            elif isinstance(item, Not):
                work += (_NOT, item.inner)
            elif item is _AND or item is _OR or item is _NOT:  # its operands are done
                b = refs.pop()
                a = b if item is _NOT else refs.pop()
                steps.append((item, a, b))
                refs.append(~(len(steps) - 1))
            else:
                refs.append(leaf_ref(item))
        roots.append(refs.pop())

    def slot(ref: int, base: int = len(atoms)) -> int:
        return ref if ref >= 0 else base + ~ref

    def program(
        fields,
        atoms=tuple(atoms),
        steps=tuple((table, slot(a), slot(b)) for table, a, b in steps),
        roots=tuple(map(slot, roots)),
    ):
        slots = [atom(fields) for atom in atoms]
        append = slots.append
        for table, a, b in steps:
            append(table[slots[a]][slots[b]])
        return [slots[root] for root in roots]

    return program


def evaluate(cond: Condition, fields: Mapping[str, FieldValue]) -> Truth:
    """Evaluate a condition against case fields under Kleene semantics.

    The condition's one-condition program is compiled on first use and
    cached on the node.
    """
    try:
        program = cond._program  # type: ignore[union-attr]
    except AttributeError:
        program = compile_conditions((cond,))
        object.__setattr__(cond, "_program", program)
    return _TRUTHS[program(fields)[0]]


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
