import copy
import itertools
import sys
from decimal import Decimal

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from absgate import condition
from absgate.condition import (
    _AND,
    _NOT,
    _OR,
    COMPARISON_OPS,
    Absent,
    And,
    Comparison,
    Has,
    Literal,
    Not,
    Or,
    Present,
    Truth,
    bare_fields,
    compile_conditions,
    evaluate,
    print_condition,
    typecheck,
)
from absgate.dsl import _lex, _Parser
from absgate.model import FieldKind, FieldValue
from absgate.policy import FieldDecl

from oracle import truth_of

F = Truth.FALSE
I = Truth.INDETERMINATE
T = Truth.TRUE


def test_kleene_tables_exhaustively():
    # FALSE < INDETERMINATE < TRUE: and is the minimum, or the maximum, and
    # not reflects the order; ``not`` ignores its second operand.
    assert (F.value, I.value, T.value) == (0, 1, 2)
    for a, b in itertools.product(range(3), repeat=2):
        assert _AND[a][b] == min(a, b)
        assert _OR[a][b] == max(a, b)
        assert _NOT[a][b] == 2 - a


def _fields(**kwargs):
    return {name: FieldValue.from_json(value) for name, value in kwargs.items()}


def test_bare_reference_to_absent_field_is_indeterminate():
    cond = Comparison("fever", "==", FieldValue.boolean(True))
    assert evaluate(cond, {}) is I
    assert evaluate(cond, _fields(fever=True)) is T
    assert evaluate(cond, _fields(fever=False)) is F


def test_presence_guards_are_two_valued():
    assert evaluate(Present("age"), {}) is F
    assert evaluate(Present("age"), _fields(age=1)) is T
    assert evaluate(Absent("age"), {}) is T
    assert evaluate(Absent("age"), _fields(age=1)) is F


def test_comparisons_per_kind():
    fields = _fields(age=70, weight="39.5", syndrome="uti", flags=["a", "b"])
    assert evaluate(Comparison("age", ">=", FieldValue.integer(70)), fields) is T
    assert evaluate(Comparison("age", "<", FieldValue.integer(70)), fields) is F
    assert evaluate(Comparison("weight", "<", FieldValue.decimal(Decimal("40.0"))), fields) is T
    assert evaluate(Comparison("syndrome", "==", FieldValue.token("uti")), fields) is T
    assert evaluate(Comparison("syndrome", "!=", FieldValue.token("uti")), fields) is F
    assert evaluate(Has("flags", "a"), fields) is T
    assert evaluate(Has("flags", "z"), fields) is F
    assert evaluate(Has("flags", "a"), {}) is I


def test_integer_literal_widens_against_decimal_field():
    fields = _fields(weight="40.0000")
    assert evaluate(Comparison("weight", ">=", FieldValue.integer(40)), fields) is T
    assert evaluate(Comparison("weight", ">", FieldValue.integer(40)), fields) is F


def test_false_conjunct_shortcuts_missing_data():
    known_false = Comparison("syndrome", "==", FieldValue.token("uti"))
    unknown = Comparison("fever", "==", FieldValue.boolean(True))
    fields = _fields(syndrome="pneumonia")
    assert evaluate(And(known_false, unknown), fields) is F
    assert evaluate(Or(Not(known_false), unknown), fields) is T


def test_bare_fields_exclude_guards():
    cond = And(Present("a"), Comparison("b", "==", FieldValue.boolean(True)))
    assert bare_fields(cond) == frozenset({"b"})
    assert bare_fields(Or(Absent("a"), Not(Has("c", "tok")))) == frozenset({"c"})
    assert bare_fields(And(Present("a"), Literal(True))) == frozenset()


@pytest.mark.parametrize("value", [1, 0, "false", None])
def test_literals_are_booleans(value):
    with pytest.raises(ValueError, match="literal is not a boolean"):
        Literal(value)


@pytest.mark.parametrize("token", ["Not A Token", "x\n", "", ["a"], None])
def test_has_tokens_are_tokens(token):
    with pytest.raises(ValueError, match="^not a token"):
        Has("risk_factors", token)


@pytest.mark.parametrize(
    ("build", "message"),
    [
        (lambda: Not(None), "operand of Not is not a condition node: None"),
        (lambda: Or(Literal(True), 3), "right operand of Or is not a condition node: 3"),
        (lambda: And("x", Literal(True)), "left operand of And is not a condition node: 'x'"),
        (lambda: And(Literal(True), Not("a == true")), "operand of Not is not a condition node: 'a == true'"),
    ],
    ids=["not_none", "or_int", "and_str", "nested_str"],
)
def test_connectives_refuse_operands_that_are_not_condition_nodes(build, message):
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == message


class _Truth(Literal):
    pass


def test_connectives_take_subclasses_of_condition_nodes():
    cond = And(_Truth(True), Or(Not(_Truth(False)), _Truth(False)))
    assert evaluate(cond, {}) is Truth.TRUE


_LEAVES = {
    "comparison": lambda name: Comparison(name, "==", FieldValue.integer(1)),
    "present": Present,
    "absent": Absent,
    "has": lambda name: Has(name, "a"),
}


@pytest.mark.parametrize("name", ["Not Ident", "9a", "x\n", "", 3, None])
@pytest.mark.parametrize("leaf", list(_LEAVES.values()), ids=list(_LEAVES))
def test_leaf_field_names_are_identifiers(leaf, name):
    with pytest.raises(ValueError) as refused:
        leaf(name)
    assert str(refused.value) == f"field name is not an identifier: {name!r}"


@pytest.mark.parametrize("literal", [5, True, "old", None, Decimal("1.5")])
def test_comparison_literals_are_field_values(literal):
    with pytest.raises(ValueError, match="^comparison literal is not a FieldValue"):
        Comparison("age", "==", literal)


def test_comparison_operators_are_known():
    with pytest.raises(ValueError, match="^unknown comparison operator: '=<'$"):
        Comparison("age", "=<", FieldValue.integer(1))


_SCHEMA = {
    decl.name: decl
    for decl in (
        FieldDecl("age", FieldKind.INTEGER),
        FieldDecl("weight", FieldKind.DECIMAL),
        FieldDecl("sex", FieldKind.TOKEN, enum=("female", "male")),
        FieldDecl("flags", FieldKind.TOKEN_SET, is_risk=True),
        FieldDecl("fever", FieldKind.BOOLEAN),
    )
}


def _codes(findings):
    return sorted(code for code, _message, _leaf in findings)


def test_typecheck_rejects_unknown_field():
    assert _codes(typecheck(Present("nope"), _SCHEMA)) == ["unknown_field"]


def test_typecheck_rejects_kind_mismatches():
    bad_ordering = Comparison("sex", "<", FieldValue.token("male"))
    assert _codes(typecheck(bad_ordering, _SCHEMA)) == ["type_mismatch"]
    bad_literal = Comparison("age", "==", FieldValue.token("old"))
    assert _codes(typecheck(bad_literal, _SCHEMA)) == ["type_mismatch"]
    bad_has = Has("age", "tok")
    assert _codes(typecheck(bad_has, _SCHEMA)) == ["type_mismatch"]


def test_typecheck_rejects_tokens_outside_closed_enums():
    outside = Comparison("sex", "==", FieldValue.token("other"))
    assert _codes(typecheck(outside, _SCHEMA)) == ["unknown_enum_token"]
    inside = Comparison("sex", "==", FieldValue.token("male"))
    assert typecheck(inside, _SCHEMA) == []


def test_print_condition_is_reparsable_text():
    cond = And(
        Or(Comparison("age", ">=", FieldValue.integer(65)), Present("fever")),
        Not(Comparison("weight", "<", FieldValue.decimal(Decimal("40")))),
    )
    text = print_condition(cond)
    assert text == "((age >= 65 or present(fever)) and (not weight < 40.0000))"


_NAMES = ("a", "b", "c")


def _conditions(depth):
    atoms = st.one_of(
        st.builds(Literal, st.booleans()),
        st.builds(Comparison, st.sampled_from(_NAMES), st.just("=="), st.builds(FieldValue.boolean, st.booleans())),
        st.builds(Present, st.sampled_from(_NAMES)),
        st.builds(Absent, st.sampled_from(_NAMES)),
    )
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner),
            st.builds(Not, inner),
        ),
        max_leaves=depth,
    )


def _assignments():
    return st.dictionaries(st.sampled_from(_NAMES), st.booleans(), max_size=len(_NAMES))


@given(_conditions(8), _assignments())
def test_de_morgan_duality(cond, assignment):
    fields = {name: FieldValue.boolean(value) for name, value in assignment.items()}
    left = evaluate(Not(And(cond, cond)), fields)
    right = evaluate(Or(Not(cond), Not(cond)), fields)
    assert left is right
    assert evaluate(Not(Not(cond)), fields) is evaluate(cond, fields)


@given(_conditions(8), _assignments(), st.sampled_from(_NAMES), st.booleans())
def test_refining_missing_data_never_flips_a_definite_verdict(cond, assignment, name, value):
    """Kleene monotonicity for guard-free conditions.

    Filling in an absent field may sharpen INDETERMINATE into TRUE or
    FALSE but can never flip one definite verdict into the other. The
    property holds only for conditions without presence guards, which
    are deliberately anti-monotone.
    """

    def guard_free(node):
        if isinstance(node, (Present, Absent)):
            return False
        if isinstance(node, (And, Or)):
            return guard_free(node.left) and guard_free(node.right)
        if isinstance(node, Not):
            return guard_free(node.inner)
        return True

    if not guard_free(cond) or name in assignment:
        return
    sparse = {k: FieldValue.boolean(v) for k, v in assignment.items()}
    before = evaluate(cond, sparse)
    refined = dict(sparse)
    refined[name] = FieldValue.boolean(value)
    after = evaluate(cond, refined)
    if before is not I:
        assert after is before


def test_evaluate_rejects_foreign_nodes():
    with pytest.raises(TypeError):
        evaluate(object(), {})


# Differential check against the oracle's truth tables on every field kind.
_ORACLE_TRUTH = {True: T, False: F, None: I}
_INTS = (-(2**63), -1, 0, 1, 39, 40, 41, 2**63 - 1)
_DECIMALS = tuple(Decimal(text) for text in ("-0.0001", "0", "39.9999", "40", "40.0001", "41"))
_SEXES = ("female", "male")
_FLAGS = ("a", "b", "c")
_KIND_FIELDS = ("age", "weight", "sex", "flags", "fever")
_ops = st.sampled_from(("==", "!=", "<", "<=", ">", ">="))
_equality = st.sampled_from(("==", "!="))


def _kind_atoms():
    return st.one_of(
        st.builds(Literal, st.booleans()),
        st.builds(Present, st.sampled_from(_KIND_FIELDS)),
        st.builds(Absent, st.sampled_from(_KIND_FIELDS)),
        st.builds(Comparison, st.just("age"), _ops, st.sampled_from(_INTS).map(FieldValue.integer)),
        st.builds(Comparison, st.just("weight"), _ops, st.sampled_from(_DECIMALS).map(FieldValue.decimal)),
        # An integer literal against the decimal field is widened.
        st.builds(Comparison, st.just("weight"), _ops, st.sampled_from(_INTS).map(FieldValue.integer)),
        st.builds(Comparison, st.just("sex"), _equality, st.sampled_from(_SEXES).map(FieldValue.token)),
        st.builds(Comparison, st.just("fever"), _equality, st.booleans().map(FieldValue.boolean)),
        st.builds(Has, st.just("flags"), st.sampled_from(_FLAGS)),
    )


def _kind_conditions():
    return st.recursive(
        _kind_atoms(),
        lambda inner: st.one_of(st.builds(And, inner, inner), st.builds(Or, inner, inner), st.builds(Not, inner)),
        max_leaves=10,
    )


@st.composite
def _kind_cases(draw):
    """A case with each field either absent or drawn near the literal boundaries."""
    values = {
        "age": st.sampled_from(_INTS).map(FieldValue.integer),
        "weight": st.sampled_from(_DECIMALS).map(FieldValue.decimal),
        "sex": st.sampled_from(_SEXES).map(FieldValue.token),
        "flags": st.sets(st.sampled_from(_FLAGS)).map(FieldValue.token_set),
        "fever": st.booleans().map(FieldValue.boolean),
    }
    return {name: draw(strategy) for name, strategy in values.items() if draw(st.booleans())}


@given(_kind_conditions(), st.lists(_kind_cases(), min_size=1, max_size=6))
def test_evaluate_matches_the_oracle_on_every_field_kind(cond, cases):
    # The same node is evaluated over several cases, so later cases run its
    # cached compiled form.
    for fields in cases:
        assert evaluate(cond, fields) is _ORACLE_TRUTH[truth_of(cond, fields)], (print_condition(cond), fields)


@pytest.mark.parametrize(
    "mismatched, kinds",
    [
        (Comparison("age", "==", FieldValue.token("old")), "integer vs token"),
        # Only a decimal field widens an integer literal.
        (Comparison("sex", "==", FieldValue.integer(1)), "token vs integer"),
    ],
)
def test_kind_mismatch_raises_even_when_the_other_operand_decides(mismatched, kinds):
    fields = _fields(age=70, sex="male")
    for cond in (
        And(Literal(False), mismatched),
        And(mismatched, Literal(False)),
        Or(Literal(True), mismatched),
        Or(mismatched, Literal(True)),
    ):
        for _ in range(2):  # the first call compiles, the second runs the cached form
            with pytest.raises(ValueError, match=f"comparison across kinds: {kinds}"):
                evaluate(cond, fields)


def test_has_on_a_non_set_value_raises():
    for _ in range(2):
        with pytest.raises(ValueError, match="has applied to non-set field 'age'"):
            evaluate(Has("age", "tok"), _fields(age=70))


class _Foreign(condition._Node):
    """A node of no kind that ``evaluate`` knows, which a connective takes."""

    _fields = ("tag",)

    def __init__(self):
        object.__setattr__(self, "tag", "foreign")


def test_evaluate_rejects_foreign_nodes_nested_in_a_tree():
    with pytest.raises(ValueError, match="^right operand of And is not a condition node: "):
        And(Literal(True), object())
    tree = And(Literal(True), _Foreign())
    readers = (
        lambda tree: evaluate(tree, {}),
        print_condition,
        lambda tree: typecheck(tree, _SCHEMA),
        bare_fields,
        lambda tree: tree == And(Literal(True), _Foreign()),
        hash,
    )
    for reader in readers:
        with pytest.raises(TypeError, match="^not a condition node: "):
            reader(tree)


# Leaves a stage program must share or keep apart correctly: equal leaves
# (the copies below are equal, distinct objects), a decimal and an int
# literal against the same decimal field, present and absent of one field,
# and the same has token twice.
_SHARED_LEAVES = (
    Literal(True),
    Literal(False),
    Comparison("weight", ">=", FieldValue.decimal(Decimal("40.0"))),
    Comparison("weight", ">=", FieldValue.integer(40)),
    Comparison("weight", "<", FieldValue.decimal(Decimal("40"))),
    Present("flags"),
    Absent("flags"),
    Has("flags", "a"),
    Has("flags", "a"),
)


@st.composite
def _stages(draw):
    """Conditions drawing their leaves from one small pool, so they share."""
    pool = draw(st.lists(st.one_of(st.sampled_from(_SHARED_LEAVES), _kind_atoms()), min_size=1, max_size=6))
    leaves = st.sampled_from(pool).flatmap(lambda leaf: st.sampled_from((leaf, copy.copy(leaf))))
    conditions = st.recursive(
        leaves,
        lambda inner: st.one_of(st.builds(And, inner, inner), st.builds(Or, inner, inner), st.builds(Not, inner)),
        max_leaves=8,
    )
    return draw(st.lists(conditions, min_size=1, max_size=6))


@given(_stages(), st.lists(_kind_cases(), min_size=1, max_size=4))
def test_stage_programs_match_the_oracle_on_shared_leaves(conds, cases):
    program = compile_conditions(conds)
    for fields in cases:
        expected = [_ORACLE_TRUTH[truth_of(cond, fields)] for cond in conds]
        assert [Truth(value) for value in program(fields)] == expected, ([print_condition(c) for c in conds], fields)


def test_unhashable_literals_get_slots_of_their_own():
    # A list literal, the one unhashable literal there was, is refused when
    # it is built: every literal hashes, so structurally equal leaves always
    # share one slot.
    with pytest.raises(ValueError, match="^not a token"):
        Comparison("sex", "==", FieldValue(FieldKind.TOKEN, ["male"]))


@pytest.mark.parametrize(
    "first, second, value, message",
    [
        (FieldValue.boolean(True), FieldValue.integer(1), FieldValue.boolean(True), "boolean vs integer"),
        (FieldValue.integer(1), FieldValue.decimal("1"), FieldValue.integer(1), "integer vs decimal"),
    ],
)
def test_literals_equal_across_kinds_keep_slots_of_their_own(first, second, value, message):
    # True == 1 and 1 == Decimal(1): were the two leaves to share a slot, the
    # mismatching second one would read the first one's value and not raise.
    program = compile_conditions([Comparison("x", "==", first), Comparison("x", "==", second)])
    with pytest.raises(ValueError, match=f"^comparison across kinds: {message}$"):
        program({"x": value})


# Field groups: many leaves per field, so every field kind gets its table.
# Case values sit at, just below and just above every literal, and outside
# the literal set.
_GROUP_INTS = (-7, 0, 1, 40, 95)
_GROUP_DECIMALS = tuple(map(Decimal, ("-0.5", "0", "39.9999", "40", "40.0001", "95.5")))


def _around(literals, step):
    return tuple(sorted({value + delta for value in literals for delta in (-step, 0, step)}))


def _group_leaves():
    return st.one_of(
        st.builds(Comparison, st.just("age"), _ops, st.sampled_from(_GROUP_INTS).map(FieldValue.integer)),
        st.builds(Comparison, st.just("weight"), _ops, st.sampled_from(_GROUP_DECIMALS).map(FieldValue.decimal)),
        # Integer literals on the decimal field, alone or next to decimal ones.
        st.builds(Comparison, st.just("weight"), _ops, st.sampled_from(_GROUP_INTS).map(FieldValue.integer)),
        st.builds(Comparison, st.just("sex"), _equality, st.sampled_from(_SEXES).map(FieldValue.token)),
        st.builds(Comparison, st.just("fever"), _equality, st.booleans().map(FieldValue.boolean)),
        st.builds(Has, st.just("flags"), st.sampled_from(_FLAGS)),
        st.builds(Present, st.sampled_from(_KIND_FIELDS)),
        st.builds(Absent, st.sampled_from(_KIND_FIELDS)),
        st.builds(Literal, st.booleans()),
    )


@st.composite
def _group_cases(draw):
    values = {
        "age": st.sampled_from(_around(_GROUP_INTS, 1)).map(FieldValue.integer),
        "weight": st.sampled_from(_around(_GROUP_DECIMALS + tuple(map(Decimal, _GROUP_INTS)), Decimal("0.0001"))).map(
            FieldValue.decimal
        ),
        "sex": st.sampled_from(_SEXES + ("other",)).map(FieldValue.token),
        "flags": st.sets(st.sampled_from(_FLAGS + ("d",))).map(FieldValue.token_set),
        "fever": st.booleans().map(FieldValue.boolean),
    }
    return {name: draw(strategy) for name, strategy in values.items() if draw(st.booleans())}


@st.composite
def _grouped_stages(draw):
    """Conditions over a pool of up to 30 leaves on five fields, so fields share groups."""
    pool = draw(st.lists(_group_leaves(), min_size=6, max_size=30))
    conditions = st.recursive(
        st.sampled_from(pool),
        lambda inner: st.one_of(st.builds(And, inner, inner), st.builds(Or, inner, inner), st.builds(Not, inner)),
        max_leaves=6,
    )
    return draw(st.lists(conditions, min_size=1, max_size=12))


@given(_grouped_stages(), st.lists(_group_cases(), min_size=1, max_size=6))
def test_grouped_programs_match_the_oracle(conds, cases):
    program = compile_conditions(conds)
    for fields in cases:
        expected = [_ORACLE_TRUTH[truth_of(cond, fields)] for cond in conds]
        assert [Truth(value) for value in program(fields)] == expected, ([print_condition(c) for c in conds], fields)


def test_a_field_with_more_leaves_than_one_group_serves():
    # 6 x 20 distinct comparisons and two presence tests of one field: two groups.
    conds = [
        Comparison("age", op, FieldValue.integer(literal)) for op in COMPARISON_OPS for literal in range(0, 60, 3)
    ] + [Present("age"), Absent("age")]
    program = compile_conditions(conds)
    for fields in [{}] + [_fields(age=value) for value in range(-1, 62)]:
        assert program(fields) == [_ORACLE_TRUTH[truth_of(cond, fields)].value for cond in conds], fields


def test_values_a_table_cannot_look_up_take_the_atoms_values():
    # A None stored under a field name is no value a table can look up. The
    # atoms give the oracle's values, so a program gives them too. A token
    # value holding a list cannot be built at all.
    with pytest.raises(ValueError, match="^not a token"):
        FieldValue(FieldKind.TOKEN, ["male"])
    conds = [
        Comparison("sex", "==", FieldValue.token("male")),
        Comparison("sex", "!=", FieldValue.token("female")),
        Present("sex"),
        Comparison("age", ">", FieldValue.integer(3)),
        Comparison("age", "<", FieldValue.integer(9)),
        Absent("age"),
    ]
    program = compile_conditions(conds)
    fields = {"sex": FieldValue.token("male"), "age": None}
    assert program(fields) == [_ORACLE_TRUTH[truth_of(cond, fields)].value for cond in conds] == [2, 2, 2, 1, 1, 0]


def test_a_comparison_with_a_token_set_literal_stays_untabled():
    # No field table is built over token-set literals: such a leaf is an
    # atom of its own, and the field's other leaves are single atoms too.
    subset = Comparison("flags", "==", FieldValue.token_set(["a"]))
    conds = [subset, Has("flags", "a"), Comparison("flags", "!=", FieldValue.token_set(["a", "b"]))]
    assert not condition._tabled(subset)
    program = compile_conditions(conds)
    for fields in ({}, _fields(flags=[]), _fields(flags=["a"]), _fields(flags=["b", "a"])):
        assert program(fields) == [_ORACLE_TRUTH[truth_of(cond, fields)].value for cond in conds], fields


def test_programs_run_every_atom_in_first_occurrence_order():
    first = Comparison("age", "==", FieldValue.token("old"))
    second = Has("age", "tok")
    fields = _fields(age=70)
    # Both mismatch; whichever occurs first raises, whatever decides the rest.
    for conds, message in (
        ([Or(Literal(True), first), second], "comparison across kinds"),
        ([Or(Literal(True), second), And(Literal(False), first)], "has applied to non-set field"),
        ([Literal(False), And(second, first), first], "has applied to non-set field"),
    ):
        with pytest.raises(ValueError, match=message):
            compile_conditions(conds)(fields)


_LIGHT = Comparison("weight", "<", FieldValue.integer(40))
_HEAVY = Comparison("weight", ">", FieldValue.decimal(Decimal("90.5")))
_SEX_HAS = Has("sex", "x")


@pytest.mark.parametrize(
    "conds, message",
    [
        # weight's leaves form one group; the has on sex is a single atom.
        # An integer weight mismatches only the decimal literal.
        ([_SEX_HAS, _LIGHT, _HEAVY], "has applied to non-set field 'sex'"),
        ([_LIGHT, _SEX_HAS, _HEAVY], "has applied to non-set field 'sex'"),
        ([_LIGHT, _HEAVY, _SEX_HAS], "comparison across kinds: integer vs decimal"),
        # A group alone: every field kind's table checks the value's kind.
        ([_LIGHT, Not(_HEAVY)], "comparison across kinds: integer vs decimal"),
        ([Has("sex", "m"), Not(_SEX_HAS)], "has applied to non-set field 'sex'"),
        (
            [Comparison("weight", op, FieldValue.token("a")) for op in ("==", "!=")],
            "comparison across kinds: integer vs token",
        ),
        (
            [Comparison("weight", op, FieldValue.boolean(True)) for op in ("==", "!=")],
            "comparison across kinds: integer vs boolean",
        ),
        ([Or(Literal(True), _HEAVY), And(Literal(False), _SEX_HAS), _LIGHT], "integer vs decimal"),
        ([Present("weight"), Not(_SEX_HAS), Absent("weight"), _HEAVY, _LIGHT], "has applied to non-set field 'sex'"),
    ],
)
def test_a_group_and_a_single_atom_raise_in_condition_order(conds, message):
    fields = _fields(weight=70, sex="male")
    with pytest.raises(ValueError, match=message):
        compile_conditions(conds)(fields)


@pytest.mark.parametrize("inner", [Not, lambda c: And(c, Present("fever")), lambda c: Or(Absent("age"), c)])
def test_evaluate_handles_trees_deeper_than_the_recursion_limit(inner):
    depth = 5000
    cond = Comparison("fever", "==", FieldValue.boolean(True))
    for level in range(depth):
        cond = Not(cond) if level % 3 == 0 else inner(cond)
    limit = sys.getrecursionlimit()
    cases = ({}, _fields(fever=True), _fields(fever=False, age=1))
    sys.setrecursionlimit(depth * 3)  # for the oracle, which recurses
    try:
        expected = [_ORACLE_TRUTH[truth_of(cond, fields)] for fields in cases]
    finally:
        sys.setrecursionlimit(limit)
    assert [evaluate(cond, fields) for fields in cases] == expected
    # The field walk uses an explicit stack too.
    assert bare_fields(cond) == frozenset({"fever"})
    assert bare_fields(cond).difference(cases[1]) == frozenset()


# Connectives compare and hash structurally, through the same post-order
# walk as everything else. A tree holds no source position.
_X = Comparison("age", "==", FieldValue.integer(1))
_Y = Present("fever")


@pytest.mark.parametrize(
    "left, right",
    [
        (And(_X, _Y), Or(_X, _Y)),
        (And(_X, _Y), And(_Y, _X)),
        # Same leaves in the same order, grouped differently.
        (And(And(_X, _Y), _X), And(_X, And(_Y, _X))),
        (Not(_X), _X),
        (Not(Not(_X)), Not(_X)),
        (Or(_X, Not(_Y)), Or(_X, Not(Absent("fever")))),
        (And(_X, _Y), 3),
        (Not(_X), None),
    ],
)
def test_distinct_trees_are_unequal(left, right):
    assert left != right and right != left
    assert not left == right


def test_equal_trees_ignore_positions_and_hash_alike():
    diags = []
    parser = _Parser(_lex("\n\n   (age == 1 and not present(fever)) or true", diags), diags)
    built = parser._condition()
    again = Or(And(copy.copy(_X), Not(Present("fever"))), Literal(True))
    assert diags == [] and repr(built) == repr(again)
    assert built == again and hash(built) == hash(again)
    assert {built: "first"}[again] == "first"
    assert len({built, again, And(_X, Not(_Y))}) == 2


@given(_kind_conditions(), _kind_conditions())
def test_connective_equality_matches_the_printed_form(cond, other):
    assert cond == copy.deepcopy(cond) and hash(cond) == hash(copy.deepcopy(cond))
    assert (cond == other) is (print_condition(cond) == print_condition(other))
    if cond == other:
        assert hash(cond) == hash(other)


# Programs skip the steps of a tree whose sentinel, the first leaf among the
# conjuncts of its top ``and`` chain, is FALSE.
_MALE = Comparison("sex", "==", FieldValue.token("male"))
_FEVER = Comparison("fever", "==", FieldValue.boolean(True))


@pytest.fixture
def step_reads(monkeypatch):
    """Table reads of the steps of programs compiled after it is set up;
    each step reads its table once."""
    reads = []

    class Counted(tuple):
        def __getitem__(self, index):
            reads.append(self)
            return tuple.__getitem__(self, index)

    for name in ("_AND", "_OR", "_NOT"):
        monkeypatch.setattr(condition, name, Counted(getattr(condition, name)))
    return reads


# (tree, its number of steps, whether its steps run whatever sex is)
_COUNTED_TREES = (
    (And(And(_MALE, Or(Present("age"), Absent("age"))), Not(_FEVER)), 4, False),
    # The sentinel is the first leaf among the conjuncts, not the first leaf.
    (And(Or(Present("age"), _FEVER), _MALE), 2, False),
    (Or(_MALE, _FEVER), 1, True),
    (Not(And(_MALE, _FEVER)), 2, True),
    # No conjunct is a leaf.
    (And(Or(_MALE, _FEVER), Not(_MALE)), 3, True),
    (_MALE, 0, True),
    (Present("age"), 0, True),
)


@pytest.mark.parametrize("tree, steps, always", _COUNTED_TREES)
@pytest.mark.parametrize("sex", ["female", "male", None])
def test_a_false_sentinel_skips_every_step_of_its_tree(step_reads, tree, steps, always, sex):
    fields = _fields(fever=True, **({} if sex is None else {"sex": sex}))
    program = compile_conditions([tree])
    assert program(fields) == [_ORACLE_TRUTH[truth_of(tree, fields)].value]
    assert len(step_reads) == (steps if always or sex != "female" else 0)


def test_each_tree_runs_or_skips_on_its_own_sentinel(step_reads):
    trees = [tree for tree, _, _ in _COUNTED_TREES]
    program = compile_conditions(trees)
    for sex, skipped in (("female", 6), ("male", 0)):
        step_reads.clear()
        fields = _fields(fever=False, age=3, sex=sex)
        assert program(fields) == [_ORACLE_TRUTH[truth_of(tree, fields)].value for tree in trees]
        assert len(step_reads) == sum(steps for _, steps, _ in _COUNTED_TREES) - skipped


def test_an_unhashable_sentinel_keeps_its_one_slot(monkeypatch):
    # The list-valued sentinel this test once used is refused when it is
    # built; a hashable sentinel still reads its own leaf's one slot.
    with pytest.raises(ValueError, match="^not a token"):
        FieldValue(FieldKind.TOKEN, ["male"])
    built, atom = [], condition._atom

    def counting_atom(leaf):
        built.append(leaf)
        return atom(leaf)

    monkeypatch.setattr(condition, "_atom", counting_atom)
    tree = And(_MALE, Not(Present("age")))
    program = compile_conditions([tree])
    # One atom per leaf: the sentinel reads its leaf's slot.
    assert built == [_MALE, Present("age")]
    for fields in ({}, _fields(sex="male"), _fields(sex="male", age=1)):
        assert program(fields) == [_ORACLE_TRUTH[truth_of(tree, fields)].value]


def test_a_mismatch_in_a_skipped_tree_still_raises_first():
    mismatched = Comparison("age", "==", FieldValue.token("old"))
    fields = _fields(age=70, sex="female")
    for conds, message in (
        ([And(_MALE, mismatched), Has("age", "tok")], "comparison across kinds"),
        ([And(_MALE, Has("age", "tok")), And(_MALE, mismatched)], "has applied to non-set field"),
        ([_MALE, Or(Literal(True), Has("age", "tok")), And(And(_MALE, _FEVER), mismatched)], "has applied"),
    ):
        program = compile_conditions(conds)
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                program(fields)


@st.composite
def _gated_programs(draw):
    """Programs of 0-8 trees sharing leaves from one small pool, most of them
    ``(leaf and tree)`` or longer ``and`` chains, so sentinels are shared
    and come out FALSE, INDETERMINATE and TRUE."""
    pool = draw(st.lists(_kind_atoms(), min_size=1, max_size=6))
    leaves = st.sampled_from(pool)
    inner = st.recursive(
        leaves,
        lambda inner: st.one_of(st.builds(And, inner, inner), st.builds(Or, inner, inner), st.builds(Not, inner)),
        max_leaves=5,
    )
    trees = st.one_of(
        leaves,
        st.builds(And, leaves, inner),
        st.builds(And, st.builds(And, inner, leaves), inner),
        st.builds(Or, leaves, inner),
        inner,
    )
    return draw(st.lists(trees, max_size=8))


@given(_gated_programs(), st.lists(_kind_cases(), min_size=1, max_size=6))
@example([], [{}])
@example([And(_MALE, _FEVER)], [_fields(sex="male", fever=True), {}])
@example([Or(_MALE, _FEVER), And(_MALE, _FEVER), _MALE], [_fields(sex="female", fever=True)])
def test_gated_programs_match_the_oracle(conds, cases):
    program = compile_conditions(conds)
    for fields in cases:
        expected = [_ORACLE_TRUTH[truth_of(cond, fields)] for cond in conds]
        assert [Truth(value) for value in program(fields)] == expected, ([print_condition(c) for c in conds], fields)
