"""Three-valued condition trees over declared case fields.

Conditions evaluate under strong Kleene logic to ``TRUE``, ``FALSE``, or
``INDETERMINATE``. A comparison or membership test against a field absent
from the case is indeterminate; ``present(f)`` and ``absent(f)`` are always
two-valued. Conjunction is the minimum and disjunction the maximum over the
order FALSE < INDETERMINATE < TRUE, so ``false and x`` is false and
``true or x`` is true no matter how unknown ``x`` is; negation swaps the
poles and leaves INDETERMINATE fixed.

``compile_conditions`` lowers a list of conditions once into a flat
program over the structurally distinct leaves, then one table step per
connective. The leaves are grouped by field, as in the alpha memories of
Rete (Forgy, 1982) and the predicate indexing of Fabret et al. (SIGMOD
2001): a field with several leaves is one group, whose truth values come
from one lookup of the case value in a table built from the literals (a
row per boolean or token literal, a row per region between sorted numeric
literals, a membership test per ``has`` token); any other leaf is one
function call. Every leaf is computed on every call, and a tree's
connective steps run only if its sentinel is not FALSE: the sentinel is
the first leaf among the conjuncts of the tree's top ``and`` chain, and a
FALSE conjunct already makes the whole tree FALSE. On any failure the
leaves rerun one by one in condition order, so the first mismatching leaf
raises. The engine builds one program per policy stage; ``evaluate``
builds a one-condition program and caches it on the node.

``typecheck`` alone decides which conditions suit a schema, naming each
defect by its leaf, as nodes hold no source position; its one caller,
``policy.reference_findings``, serves ``parse_policy`` and ``Policy`` alike.

``bare_fields`` and the connectives' ``==`` and ``hash`` read a tree in
post-order from one explicit-stack walk (``_postfix``); compiling and
``typecheck`` take that walk without its list, and ``print_condition``
walks in text order on its own stack. So a tree's depth is bounded by
memory, not by the interpreter's recursion limit.
``repr``, ``pickle`` and ``copy.deepcopy`` still recurse once per level.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from decimal import Decimal
from enum import Enum
from itertools import chain, compress
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Union

from .model import (
    _BOOLEAN, _DECIMAL, _INTEGER, _TOKEN, _TOKEN_SET, IDENT_RE, TOKEN_RE, FieldValue, _Frozen, _name, _set
)

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
    "bare_fields",
    "typecheck",
    "print_condition",
]

COMPARISON_OPS = ("==", "!=", "<", "<=", ">", ">=")
_ORDERING_OPS = ("<", "<=", ">", ">=")


class Truth(Enum):
    FALSE = 0
    INDETERMINATE = 1
    TRUE = 2


# The program ``evaluate`` compiles is kept on the node as ``_program``,
# not in a field, and is left out of pickles and copies.
class _Node(_Frozen):
    _fields = ()


class Literal(_Node):
    _fields = ("value",)

    def __init__(self, value: bool) -> None:
        if type(value) is not bool:
            raise ValueError(f"literal is not a boolean: {value!r}")
        _set(self, "value", value)


class Comparison(_Node):
    _fields = ("field_name", "op", "literal")

    def __init__(self, field_name: str, op: str, literal: FieldValue) -> None:
        _name(field_name, IDENT_RE, "field name is not an identifier")
        if op not in COMPARISON_OPS:
            raise ValueError(f"unknown comparison operator: {op!r}")
        if type(literal) is not FieldValue:
            raise ValueError(f"comparison literal is not a FieldValue: {literal!r}")
        _set(self, "field_name", field_name)
        _set(self, "op", op)
        _set(self, "literal", literal)


class Present(_Node):
    _fields = ("field_name",)

    def __init__(self, field_name: str) -> None:
        _name(field_name, IDENT_RE, "field name is not an identifier")
        _set(self, "field_name", field_name)


class Absent(_Node):
    _fields = ("field_name",)
    __init__ = Present.__init__


class Has(_Node):
    _fields = ("field_name", "token")

    def __init__(self, field_name: str, token: str) -> None:
        _name(field_name, IDENT_RE, "field name is not an identifier")
        _name(token, TOKEN_RE, "not a token (expected [a-z][a-z0-9_]*)")
        _set(self, "field_name", field_name)
        _set(self, "token", token)


# Connectives compare and hash through ``_postfix``, not field by field, so
# a tree's depth is bounded by memory here too. A post-order with fixed
# arities spells exactly one tree, so two trees are equal when their
# post-orders agree node by node: connectives by class, leaves by their
# own equality.
def _tree_eq(self: "Condition", other: object) -> bool:
    if other.__class__ is not self.__class__:
        return NotImplemented
    mine, theirs = _postfix(self), _postfix(other)
    return len(mine) == len(theirs) and all(
        a.__class__ is b.__class__ and (not isinstance(a, _LEAF_TYPES) or a == b) for a, b in zip(mine, theirs)
    )


def _tree_hash(self: "Condition") -> int:
    return hash(tuple([node if isinstance(node, _LEAF_TYPES) else node.__class__ for node in _postfix(self)]))


class And(_Node):
    _fields = ("left", "right")
    __eq__ = _tree_eq
    __hash__ = _tree_hash

    def __init__(self, left: Condition, right: Condition) -> None:
        if not (isinstance(left, _Node) and isinstance(right, _Node)):
            role, operand = ("right", right) if isinstance(left, _Node) else ("left", left)
            raise ValueError(f"{role} operand of {self.__class__.__name__} is not a condition node: {operand!r}")
        _set(self, "left", left)
        _set(self, "right", right)


class Or(_Node):
    _fields = ("left", "right")
    __init__ = And.__init__
    __eq__ = _tree_eq
    __hash__ = _tree_hash


class Not(_Node):
    _fields = ("inner",)
    __eq__ = _tree_eq
    __hash__ = _tree_hash

    def __init__(self, inner: Condition) -> None:
        if not isinstance(inner, _Node):
            raise ValueError(f"operand of {self.__class__.__name__} is not a condition node: {inner!r}")
        _set(self, "inner", inner)


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
_FIELD_LEAVES = (Comparison, Has, Present, Absent)
_LEAF_TYPES = (Literal, *_FIELD_LEAVES)


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
        widened = Decimal(right) if kind is _INTEGER else None

        def atom(
            fields, name=leaf.field_name, test=_OPERATORS[leaf.op], kind=kind, right=right, widened=widened,
            decimal=_DECIMAL,
        ):
            value = fields.get(name)
            if value is None:
                return _INDETERMINATE
            if value.kind is kind:
                return _TRUE if test(value.value, right) else _FALSE
            if value.kind is decimal and widened is not None:
                return _TRUE if test(value.value, widened) else _FALSE
            raise ValueError(f"comparison across kinds: {value.kind.value} vs {kind.value}")

    else:  # Has
        def atom(fields, name=leaf.field_name, token=leaf.token, token_set=_TOKEN_SET):
            value = fields.get(name)
            if value is None:
                return _INDETERMINATE
            if value.kind is not token_set:
                raise ValueError(f"has applied to non-set field {name!r}")
            return _TRUE if token in value.value else _FALSE

    return atom


# The most leaves one group serves. A numeric table has a row per region
# and a column per leaf, so capping the leaves keeps the tables linear in
# the number of leaves, not quadratic.
_GROUP_SIZE = 64


class _Unserved(Exception):
    """A case value of a kind its field group's table was not built for."""


def _tabled(leaf: Condition) -> bool:
    """Whether a field group's table can serve this leaf."""
    if not isinstance(leaf, Comparison):
        return True
    kind = leaf.literal.kind
    if kind in (_BOOLEAN, _TOKEN):
        return leaf.op in ("==", "!=")
    return kind is not _TOKEN_SET


def _group(name: str, leaves: list[Condition]) -> Callable[[Mapping[str, FieldValue]], Any] | None:
    """One function giving the truth values of all of one field's leaves,
    presence tests last, or None when no one table serves them all.

    Tables are built here from the literals and bounded by them: a row per
    distinct boolean or token literal plus one for any other value; a row
    per region the k sorted distinct numeric literals cut the line into
    (2k+1 of them, found by bisection); for ``has``, a membership test per
    token. A value of a kind the group was not built for raises
    ``_Unserved``, which sends the program to its ordered error path.
    """
    tests = []
    kinds = set()
    # The presence tests' values when the field is present, and when absent.
    if_present, if_absent = [], []
    for leaf in leaves:
        if isinstance(leaf, (Present, Absent)):
            hit = isinstance(leaf, Present)
            if_present.append(_TRUE if hit else _FALSE)
            if_absent.append(_FALSE if hit else _TRUE)
        elif _tabled(leaf):
            tests.append(leaf)
            kinds.add(_TOKEN_SET if isinstance(leaf, Has) else leaf.literal.kind)
        else:
            return None
    presence = tuple(if_present)
    absent = (_INDETERMINATE,) * len(tests) + tuple(if_absent)

    # ``absent`` also serves as the missing-key default of ``fields.get``, so
    # a None stored under the name is not taken for absence.
    if kinds == {_TOKEN_SET}:
        tokens = tuple(leaf.token for leaf in tests)

        def group(fields, name=name, kind=_TOKEN_SET, tokens=tokens, presence=list(presence), absent=absent):
            value = fields.get(name, absent)
            if value is absent:
                return absent
            if value.kind is not kind:
                raise _Unserved
            members = value.value
            return [_TRUE if token in members else _FALSE for token in tokens] + presence

        return group

    if kinds == {_BOOLEAN} or kinds == {_TOKEN}:
        (kind,) = kinds
        # A row per distinct literal: the row for any other value, with the
        # cells of the leaves naming that literal flipped from miss to hit.
        other = [_FALSE if leaf.op == "==" else _TRUE for leaf in tests]
        table: dict[Any, list[int]] = {}
        for cell, leaf in enumerate(tests):
            row = table.get(leaf.literal.value)
            if row is None:
                row = table[leaf.literal.value] = other.copy()
            row[cell] = _TRUE - other[cell]
        rows = {literal: tuple(row) + presence for literal, row in table.items()}

        def group(fields, name=name, kind=kind, rows=rows, other=tuple(other) + presence, absent=absent):
            value = fields.get(name, absent)
            if value is absent:
                return absent
            if value.kind is not kind:
                raise _Unserved
            return rows.get(value.value, other)

    elif kinds and kinds <= {_INTEGER, _DECIMAL}:
        widen = Decimal if _DECIMAL in kinds else int
        cuts = sorted({widen(leaf.literal.value) for leaf in tests})
        # A value in region r lies below, on or above the cut whose own
        # region is c, so ``value op cut`` holds exactly when ``sign op 0``
        # does; each leaf's column is three runs of one truth value.
        columns = []
        for leaf in tests:
            c, test = 2 * bisect_left(cuts, widen(leaf.literal.value)) + 1, _OPERATORS[leaf.op]
            below, on, above = (_TRUE if test(sign, 0) else _FALSE for sign in (-1, 0, 1))
            columns.append((below,) * c + (on,) + (above,) * (2 * len(cuts) - c))
        # Neighbouring regions often share a row; equal rows are stored once.
        regions = [cells + presence for cells in zip(*columns)]
        rows = tuple(map({}.setdefault, regions, regions))
        # Integer literals alone serve integer and decimal values alike, the
        # way an integer literal widens against a decimal field; a decimal
        # literal serves only decimal values.
        accepted = (_INTEGER, _DECIMAL) if widen is int else (_DECIMAL,)

        def group(
            fields, name=name, accepted=accepted, cuts=cuts, rows=rows, absent=absent,
            below=bisect_left, upto=bisect_right,
        ):
            value = fields.get(name, absent)
            if value is absent:
                return absent
            if value.kind not in accepted:
                raise _Unserved
            number = value.value
            return rows[below(cuts, number) + upto(cuts, number)]

    else:
        return None
    return group


def compile_conditions(conds: Iterable[Condition]) -> _Program:
    """Lower conditions into one flat program over field-grouped leaves.

    The program maps case fields to a list holding each condition's truth
    value as an int (``Truth(v)``), in the order given. Structurally equal
    leaves share one slot. A field with several leaves is one group: one
    lookup of the case value gives all their truth values from a table
    (``_group``); every other leaf is one atom call. Each ``and``, ``or``
    and ``not`` is then one table step over the slots computed before it.

    Every leaf is computed on every call, and a tree's steps run only if
    its sentinel is not FALSE. The sentinel is the first leaf among the
    conjuncts of the root's flattened ``and`` chain, found in the same walk
    that makes the steps; a tree with none, such as an ``or`` or ``not``
    root, reads a constant TRUE slot instead. A FALSE conjunct makes the
    whole tree FALSE, and the steps' slots are preset to FALSE, so a skipped
    tree's root already reads it. Trees whose sentinels share a slot run or
    skip together.

    Since every leaf runs first, if anything fails the leaves rerun one by
    one in first-occurrence order: a kind mismatch raises at the first
    mismatching leaf in condition order, whatever the other operands yield
    and whichever trees would be skipped.
    """
    leaves: list[Condition] = []
    leaf_index: dict[tuple[Any, ...], int] = {}
    # Per field, the indices of its leaves.
    by_field: dict[str, list[int]] = {}
    # Operand references: n >= 0 is leaf n, ~n is step n.
    steps: list[tuple[Any, int, int]] = []
    # Per ``and`` step, the reference of the first leaf among the conjuncts of its
    # flattened chain, or None. A tree's sentinel is its root's.
    first: dict[int, int | None] = {}
    roots, refs = [], []
    for cond in conds:
        # ``_postfix``'s walk without its list: a connective stacks its table under its operands.
        work = [cond]
        while work:
            node = work.pop()
            if isinstance(node, _LEAF_TYPES):
                # Keyed by class and fields, so no node's ``==`` or ``hash`` runs; a
                # comparison's key holds its literal's kind, keeping ``True`` and
                # ``1``, or ``1`` and ``Decimal(1)``, apart.
                if node.__class__ is Comparison:
                    key = (Comparison, node.field_name, node.op, node.literal.kind, node.literal.value)
                else:
                    key = (node.__class__, node._key(node))
                index = leaf_index.setdefault(key, len(leaves))
                if index == len(leaves):
                    leaves.append(node)
                    if not isinstance(node, Literal):
                        by_field.setdefault(node.field_name, []).append(index)
                refs.append(index)
            elif node is _AND or node is _OR or node is _NOT:
                b, ref = refs.pop(), ~len(steps)
                a = b if node is _NOT else refs.pop()
                steps.append((node, a, b))
                refs.append(ref)
                if node is _AND:
                    head = a if a >= 0 else first.get(a)
                    first[ref] = (b if b >= 0 else first.get(b)) if head is None else head
            elif isinstance(node, (And, Or)):
                work += (_AND if isinstance(node, And) else _OR, node.right, node.left)
            elif isinstance(node, Not):
                work += (_NOT, node.inner)
            else:
                raise TypeError(f"not a condition node: {node!r}")
        roots.append(refs.pop())

    groups = []
    grouped: list[int] = []
    for name, indices in by_field.items():
        if len(indices) < 2:
            continue
        indices.sort(key=lambda index: isinstance(leaves[index], (Present, Absent)))
        for start in range(0, len(indices), _GROUP_SIZE):
            members = indices[start : start + _GROUP_SIZE]
            group = _group(name, [leaves[index] for index in members]) if len(members) > 1 else None
            if group is not None:
                groups.append(group)
                grouped += members
    # Slots hold the single atoms' values, then each group's, then the
    # constant TRUE, then the steps'. A step reference ~n counts from the
    # end of ``position``, so the steps' slots are listed there in reverse.
    # Every slot number is one int object, shared by all that name it.
    singles = sorted({*range(len(leaves))}.difference(grouped))
    order = singles + grouped
    true_slot = len(leaves)
    step_slots = list(range(true_slot + 1, true_slot + 1 + len(steps)))
    position = sorted(range(true_slot), key=order.__getitem__) + step_slots[::-1]
    # The steps of the trees behind each sentinel slot, as (table, operand
    # slot, operand slot, own slot). A tree's steps end with its root's.
    slotted = [(table, position[a], position[b], out) for (table, a, b), out in zip(steps, step_slots)]
    gated: dict[int, list[tuple[Any, int, int, int]]] = {}
    start = 0
    for root in roots:
        if root < 0:
            head = first.get(root)
            gated.setdefault(true_slot if head is None else position[head], []).extend(slotted[start : ~root + 1])
            start = ~root + 1

    def ordered(fields: Mapping[str, FieldValue]) -> list[int]:
        # The error path: the first leaf in condition order that fails
        # raises its own error. If none does (a value that is no
        # ``FieldValue``, which a table cannot look up), their values fill
        # the slots.
        values = [_atom(leaf)(fields) for leaf in leaves]
        return [values[index] for index in order]

    def program(
        fields,
        atoms=tuple([_atom(leaves[index]) for index in singles]),
        groups=tuple(groups),
        ordered=ordered,
        # The constant TRUE and the steps' presets, a byte each: a list
        # extended by bytes gains their values as ints.
        preset=bytes([_TRUE] + [_FALSE] * len(steps)),
        # Two trailing reads of the TRUE slot keep the result a tuple however
        # few sentinels there are; ``compress`` stops at the last one.
        sentinels=operator.itemgetter(*gated, true_slot, true_slot),
        gated=tuple(map(tuple, gated.values())),
        roots=tuple(map(position.__getitem__, roots)),
        compress=compress,
        flatten=chain.from_iterable,
    ):
        try:
            slots = [atom(fields) for atom in atoms]
            for group in groups:
                slots += group(fields)
        except Exception:
            slots = ordered(fields)
        slots += preset
        for table, a, b, out in flatten(compress(gated, sentinels(slots))):
            slots[out] = table[slots[a]][slots[b]]
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


def _postfix(cond: Condition) -> list[Condition]:
    """The tree's nodes in post-order: operands left to right, each
    connective after its operands. The tree is walked with an explicit
    stack, so its depth is bounded by memory, not by the recursion limit.
    """
    # Node first, then the right operand's subtree, then the left one's:
    # the reverse of post-order.
    order = []
    work = [cond]
    while work:
        node = work.pop()
        order.append(node)
        if isinstance(node, (And, Or)):
            work += (node.left, node.right)
        elif isinstance(node, Not):
            work.append(node.inner)
        elif not isinstance(node, _LEAF_TYPES):
            raise TypeError(f"not a condition node: {node!r}")
    order.reverse()
    return order


def bare_fields(cond: Condition) -> frozenset[str]:
    """The fields the condition references bare, in comparisons and ``has``;
    ``present`` and ``absent`` resolve either way. Whenever ``evaluate``
    returns INDETERMINATE, one of them is missing from the case."""
    return frozenset(node.field_name for node in _postfix(cond) if isinstance(node, (Comparison, Has)))


def typecheck(cond: Condition, schema: Mapping[str, "FieldDecl"]) -> list[tuple[str, str, Condition]]:
    """Static checks of a condition against a field schema, as ``(code,
    message, leaf)`` findings: one at most per leaf, in leaf order.

    Reports unknown fields, operator/kind mismatches (ordering is defined
    only for integer and decimal fields), and token literals outside a
    closed enumeration.
    """
    # The walk of ``_postfix`` without its list, so the leaves come last first.
    findings = []
    work = [cond]
    while work:
        node = work.pop()
        if isinstance(node, (And, Or)):
            work += (node.left, node.right)
        elif isinstance(node, Not):
            work.append(node.inner)
        elif isinstance(node, _FIELD_LEAVES):
            finding = _leaf_error(node, schema.get(node.field_name))
            if finding is not None:
                findings.append(finding)
        elif not isinstance(node, Literal):
            raise TypeError(f"not a condition node: {node!r}")
    findings.reverse()
    return findings


def _leaf_error(node: Condition, decl: "FieldDecl | None") -> tuple[str, str, Condition] | None:
    """The ``(code, message, leaf)`` finding of one field leaf, or None."""
    name = node.field_name
    if decl is None:
        return "unknown_field", f"condition references undeclared field '{name}'", node
    if isinstance(node, (Present, Absent)):
        return None
    kind = decl.kind
    if isinstance(node, Has):
        if kind is not _TOKEN_SET:
            return "type_mismatch", f"'has' requires a tokenset field, '{name}' is {kind.value}", node
        if decl.enum is not None and node.token not in decl.enum:
            return "unknown_enum_token", f"token '{node.token}' is outside the enumeration of '{name}'", node
        return None
    lit = node.literal
    if kind is _TOKEN_SET:
        return "type_mismatch", f"tokenset field '{name}' admits only 'has'", node
    if node.op in _ORDERING_OPS and kind not in (_INTEGER, _DECIMAL):
        return "type_mismatch", f"ordering comparison on {kind.value} field '{name}'", node
    if not (lit.kind is kind or (kind is _DECIMAL and lit.kind is _INTEGER)):
        return "type_mismatch", f"{lit.kind.value} literal compared against {kind.value} field '{name}'", node
    if kind is _TOKEN and decl.enum is not None and lit.value not in decl.enum:
        return "unknown_enum_token", f"token '{lit.value}' is outside the enumeration of '{name}'", node
    return None


def _literal_text(literal: FieldValue) -> str:
    if literal.kind is _BOOLEAN:
        return "true" if literal.value else "false"
    if literal.kind is _DECIMAL:
        return format(literal.value, ".4f")
    return str(literal.value)


class _Glue(str):
    """Text that ``print_condition`` writes between and after operands; its
    own class, so that no operand can pass for it."""


_CLOSE_TEXT, _AND_TEXT, _OR_TEXT = _Glue(")"), _Glue(" and "), _Glue(" or ")


def print_condition(cond: Condition) -> str:
    """Deterministic, re-parsable text form; doubles as the canonical form.

    One explicit-stack walk emits the text's fragments in order: a
    connective writes its opening, then stacks its closing, its operands and
    the glue between them in reverse."""
    parts: list[str] = []
    work = [cond]
    while work:
        node = work.pop()
        if node.__class__ is _Glue:
            parts.append(node)
        elif isinstance(node, Comparison):
            parts.append(f"{node.field_name} {node.op} {_literal_text(node.literal)}")
        elif isinstance(node, And):
            parts.append("(")
            work += (_CLOSE_TEXT, node.right, _AND_TEXT, node.left)
        elif isinstance(node, Or):
            parts.append("(")
            work += (_CLOSE_TEXT, node.right, _OR_TEXT, node.left)
        elif isinstance(node, Not):
            parts.append("(not ")
            work += (_CLOSE_TEXT, node.inner)
        elif isinstance(node, Has):
            parts.append(f"{node.field_name} has {node.token}")
        elif isinstance(node, Literal):
            parts.append("true" if node.value else "false")
        elif isinstance(node, Present):
            parts.append(f"present({node.field_name})")
        elif isinstance(node, Absent):
            parts.append(f"absent({node.field_name})")
        else:
            raise TypeError(f"not a condition node: {node!r}")
    return "".join(parts)
