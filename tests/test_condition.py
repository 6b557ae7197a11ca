import copy
import itertools
import sys
from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from absgate.condition import (
    Absent,
    And,
    Comparison,
    Has,
    Literal,
    Not,
    Or,
    Present,
    Truth,
    compile_conditions,
    evaluate,
    print_condition,
    typecheck,
    unresolved_fields,
)
from absgate.model import FieldKind, FieldValue
from absgate.policy import FieldDecl

from oracle import truth_of

F = Truth.FALSE
I = Truth.INDETERMINATE
T = Truth.TRUE


def test_kleene_tables_exhaustively():
    for a, b in itertools.product((F, I, T), repeat=2):
        assert Truth.and_(a, b) is min(a, b, key=lambda t: t.value)
        assert Truth.or_(a, b) is max(a, b, key=lambda t: t.value)
    assert Truth.not_(T) is F
    assert Truth.not_(F) is T
    assert Truth.not_(I) is I


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


def test_unresolved_fields_excludes_guards():
    cond = And(Present("a"), Comparison("b", "==", FieldValue.boolean(True)))
    assert unresolved_fields(cond, {}) == frozenset({"b"})
    assert unresolved_fields(cond, _fields(b=True)) == frozenset()
    assert unresolved_fields(Not(Has("c", "tok")), {}) == frozenset({"c"})


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


def _codes(diags):
    return sorted(d.code for d in diags)


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


def test_evaluate_rejects_foreign_nodes_nested_in_a_tree():
    with pytest.raises(TypeError):
        evaluate(And(Literal(True), object()), {})


# Leaves a stage program must share or keep apart correctly: equal leaves
# (the copies below are equal, distinct objects), Literal(True) == Literal(1),
# a decimal and an int literal against the same decimal field, present and
# absent of one field, and the same has token twice.
_SHARED_LEAVES = (
    Literal(True),
    Literal(1),
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
    # Built in code, past the named constructors: a list literal cannot be
    # hashed, so it cannot key the table of shared leaves.
    listed = Comparison("sex", "==", FieldValue(FieldKind.TOKEN, ["male"]))
    twin = Comparison("sex", "==", FieldValue(FieldKind.TOKEN, ["male"]))
    assert evaluate(listed, _fields(sex="male")) is F
    assert evaluate(Not(listed), _fields(sex="male")) is T
    assert evaluate(listed, {}) is I
    program = compile_conditions([listed, Or(Not(twin), listed), Present("sex")])
    assert program(_fields(sex="male")) == [0, 2, 2]
    assert program({}) == [1, 1, 0]


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
