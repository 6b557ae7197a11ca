import decimal
import json
import string
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from absgate import load_reference_policy, load_reference_suite, policy_hash
from absgate.canon import canonical_bytes
from absgate.condition import Absent, Comparison, Has, Literal, Present
from absgate.model import (
    IDENT_RE,
    PIPELINE_STAGES,
    TOKEN_RE,
    AbstentionCategory,
    AbstentionReason,
    Action,
    AuditTrace,
    CaseInput,
    ExpectedBehavior,
    FieldKind,
    FieldValue,
    MatchLevel,
    Stage,
    StageRecord,
    SystemOutput,
    Verdict,
    _name,
    _value_json,
    canonical_serialize,
    compare_outputs,
)
from absgate.policy import ClassDecl, ClinicalRule, ConsistencyConstraint, ExclusionRule, FieldDecl, StewardshipVeto
from absgate.suite import _PIN_RE, Suite, parse_suite

from canonical_forms import output_form, trace_form


def test_boolean_and_integer_values():
    assert _value_json(FieldValue.boolean(True)) == "true"
    assert FieldValue.integer(42).kind is FieldKind.INTEGER
    assert _value_json(FieldValue.integer(-(2**63))) == "-9223372036854775808"
    with pytest.raises(ValueError):
        FieldValue.integer(2**63)


def test_decimal_values_are_fixed_point():
    value = FieldValue.decimal(Decimal("3.5"))
    assert _value_json(value) == '"3.5000"'
    assert _value_json(FieldValue.decimal(Decimal("-0.0000"))) == '"0.0000"'
    with pytest.raises(ValueError):
        FieldValue.decimal(Decimal("1.23456"))


def test_decimals_too_long_to_quantize_raise_value_error():
    # Four fractional digits leave 24 integer digits of the 28.
    widest = "9" * 24 + ".9999"
    assert _value_json(FieldValue.decimal(widest)) == f'"{widest}"'
    for value in ("1" * 25 + ".5", "1" * 40 + ".5", Decimal("1e30"), "-" + "1" * 5000):
        with pytest.raises(ValueError, match="^decimal out of range: "):
            FieldValue.decimal(value)
    with pytest.raises(ValueError, match="^decimal out of range: "):
        FieldValue.from_json("1" * 40 + ".5")


@pytest.mark.parametrize("traps", [True, False])
def test_decimals_ignore_the_callers_decimal_context(traps):
    reference_hash = policy_hash(load_reference_policy())
    with decimal.localcontext() as context:
        context.prec = 4
        context.capitals = 0
        if traps:
            context.traps.update(dict.fromkeys(context.traps, True))
        else:
            context.clear_traps()
        assert policy_hash(load_reference_policy()) == reference_hash
        assert FieldValue.decimal("123.4567").value == Decimal("123.4567")
        assert FieldValue.decimal("-0.0").value.is_signed() is False
        refused = {
            "abc": "not a decimal: 'abc'",
            "1.23456": "more than 4 fractional digits: 1.23456",
            "1" * 25 + ".5": "decimal out of range: " + "1" * 25 + ".5",
            "NaN": "finite decimal required, got Decimal('NaN')",
            Decimal("1E+30"): "decimal out of range: 1E+30",
            Decimal("1E-5"): "more than 4 fractional digits: 0.00001",
        }
        for value, message in refused.items():
            with pytest.raises(ValueError) as caught:
                FieldValue.decimal(value)
            assert str(caught.value) == message


def test_token_values_enforce_lexical_shape():
    assert _value_json(FieldValue.token("severe")) == '"severe"'
    with pytest.raises(ValueError):
        FieldValue.token("Severe")
    with pytest.raises(ValueError):
        FieldValue.token("9lives")


def test_token_set_sorted_and_duplicate_free():
    value = FieldValue.token_set(["b", "a"])
    assert _value_json(value) == '["a","b"]'
    with pytest.raises(ValueError):
        FieldValue.token_set(["a", "a"])


@pytest.mark.parametrize(
    ("kind", "value", "message"),
    [
        (FieldKind.BOOLEAN, 1, "boolean value required"),
        (FieldKind.INTEGER, 1.5, "integer value required"),
        (FieldKind.INTEGER, True, "integer value required"),
        (FieldKind.INTEGER, 2**63, "integer out of 64-bit signed range"),
        (FieldKind.DECIMAL, Decimal("39.99999"), "more than 4 fractional digits"),
        (FieldKind.DECIMAL, 1.5, "finite decimal required"),
        (FieldKind.TOKEN, "Male", "not a token"),
        (FieldKind.TOKEN_SET, "ab", "token set requires a sequence of tokens"),
        (FieldKind.TOKEN_SET, ["a", "a"], "duplicate tokens in set"),
        ("boolean", True, "not a field kind"),
    ],
)
def test_values_built_directly_are_checked_like_the_named_constructors(kind, value, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        FieldValue(kind, value)


def test_values_built_directly_are_normalized_like_the_named_constructors():
    assert FieldValue(FieldKind.DECIMAL, Decimal("40.00000")) == FieldValue.decimal("40.0000")
    assert FieldValue(FieldKind.DECIMAL, "-0.0").value.is_signed() is False
    assert FieldValue(FieldKind.TOKEN_SET, ["b", "a"]) == FieldValue.token_set({"a", "b"})
    assert type(FieldValue(FieldKind.TOKEN_SET, ("a",)).value) is frozenset


def test_from_json_dispatch():
    assert FieldValue.from_json(True).kind is FieldKind.BOOLEAN
    assert FieldValue.from_json(7).kind is FieldKind.INTEGER
    assert FieldValue.from_json("3.5").kind is FieldKind.DECIMAL
    assert FieldValue.from_json("male").kind is FieldKind.TOKEN
    assert FieldValue.from_json(["a", "b"]).kind is FieldKind.TOKEN_SET
    with pytest.raises(ValueError):
        FieldValue.from_json(1.5)
    with pytest.raises(ValueError):
        FieldValue.from_json("12.3456789")
    with pytest.raises(ValueError):
        FieldValue.from_json({"nested": 1})
    with pytest.raises(ValueError):
        FieldValue.from_json("68.5\n")
    with pytest.raises(ValueError):
        FieldValue.from_json("uti\n")


def test_abstention_reason_normalizes_labels():
    reason = AbstentionReason(AbstentionCategory.MISSING_INPUTS, ("b", "a", "b"))
    assert reason.labels == ("a", "b")
    with pytest.raises(ValueError):
        AbstentionReason(AbstentionCategory.EXPLICIT_EXCLUSION, ())
    with pytest.raises(ValueError):
        AbstentionReason(AbstentionCategory.MISSING_INPUTS, ("9bad",))
    with pytest.raises(ValueError):
        AbstentionReason(AbstentionCategory.MISSING_INPUTS, ("x\n",))


def test_system_output_exclusivity():
    recommendation = SystemOutput.recommend("class_a")
    assert recommendation.action is Action.RECOMMEND
    assert recommendation.class_id == "class_a"
    assert recommendation.reason is None
    abstention = SystemOutput.abstain(AbstentionCategory.UNKNOWN_RISK, ["tok"])
    assert abstention.class_id is None and abstention.reason is not None
    with pytest.raises(ValueError):
        SystemOutput(Action.RECOMMEND, class_id=None, reason=None)
    with pytest.raises(ValueError):
        SystemOutput(Action.ABSTAIN, class_id="x", reason=abstention.reason)
    with pytest.raises(ValueError):
        SystemOutput.recommend("x\n")


@pytest.mark.parametrize(
    ("action", "parts"),
    [
        ("bogus", {"reason": AbstentionReason(AbstentionCategory.MISSING_INPUTS, ["age"])}),
        ("recommend", {"class_id": "x"}),
        ("abstain", {"reason": AbstentionReason(AbstentionCategory.MISSING_INPUTS, ["age"])}),
        (None, {"class_id": "x"}),
    ],
    ids=["bogus", "str_recommend", "str_abstain", "none"],
)
def test_an_output_refuses_an_action_that_is_not_an_action(action, parts):
    with pytest.raises(ValueError) as refused:
        SystemOutput(action, **parts)
    assert str(refused.value) == f"output action is not an Action: {action!r}"


def test_render_line_forms():
    assert SystemOutput.recommend("class_a").render_line() == "recommend class_a"
    out = SystemOutput.abstain(AbstentionCategory.EXPLICIT_EXCLUSION, ["EX_PREGNANCY"])
    assert out.render_line() == "abstain explicit_exclusion [EX_PREGNANCY]"
    out = SystemOutput.abstain(AbstentionCategory.CONFLICTING_SIGNALS, ["x2", "x1"])
    assert out.render_line() == "abstain conflicting_signals [x1, x2]"


def test_canonical_output_shape():
    rec = SystemOutput.recommend("class_a").to_canonical()
    assert rec == {"action": "recommend", "class": "class_a"}
    ab = SystemOutput.abstain(AbstentionCategory.MISSING_INPUTS, ["age"]).to_canonical()
    assert ab == {"action": "abstain", "category": "missing_inputs", "labels": ["age"]}
    raw = canonical_serialize(SystemOutput.recommend("class_a"))
    assert raw == b'{"action":"recommend","class":"class_a"}'
    assert json.loads(raw) == rec
    for output in (SystemOutput.recommend("class_a"), SystemOutput.abstain(AbstentionCategory.MISSING_INPUTS, ["b", "a"])):
        assert output.to_canonical() == output_form(output)


def test_compare_outputs_levels():
    rec_a = SystemOutput.recommend("a")
    expect_exact = ExpectedBehavior(Action.RECOMMEND, class_id="a")
    expect_other = ExpectedBehavior(Action.RECOMMEND, class_id="b")
    expect_any = ExpectedBehavior(Action.RECOMMEND)
    assert compare_outputs(rec_a, expect_exact) is MatchLevel.FULL
    assert compare_outputs(rec_a, expect_any) is MatchLevel.FULL
    assert compare_outputs(rec_a, expect_other) is MatchLevel.ACTION

    abstain = SystemOutput.abstain(AbstentionCategory.UNKNOWN_RISK, ["tok"])
    assert compare_outputs(abstain, expect_exact) is MatchLevel.MISMATCH
    assert compare_outputs(abstain, ExpectedBehavior(Action.ABSTAIN)) is MatchLevel.FULL
    assert (
        compare_outputs(abstain, ExpectedBehavior(Action.ABSTAIN, category=AbstentionCategory.UNKNOWN_RISK))
        is MatchLevel.FULL
    )
    assert (
        compare_outputs(abstain, ExpectedBehavior(Action.ABSTAIN, category=AbstentionCategory.MISSING_INPUTS))
        is MatchLevel.ACTION
    )


def test_expected_behavior_serialization():
    assert ExpectedBehavior(Action.RECOMMEND).to_canonical() == {"recommend": "any"}
    assert ExpectedBehavior(Action.RECOMMEND, class_id="a").to_canonical() == {"recommend": "a"}
    assert ExpectedBehavior(Action.ABSTAIN).to_canonical() == {"abstain": "any"}
    expected = ExpectedBehavior(Action.ABSTAIN, category=AbstentionCategory.UNKNOWN_RISK)
    assert expected.to_canonical() == {"abstain": "unknown_risk"}


@pytest.mark.parametrize(
    ("parts", "message"),
    [
        ({"category": AbstentionCategory.UNKNOWN_RISK}, "^recommend expectation cannot carry a category$"),
        ({"class_id": "Not Ident"}, "^class id is not an identifier: 'Not Ident'$"),
        ({"action": Action.ABSTAIN, "class_id": "a"}, "^abstain expectation cannot carry a class id$"),
        ({"action": "recommend"}, "^expected action is not an Action: 'recommend'$"),
        (
            {"action": Action.ABSTAIN, "category": "missing_inputs"},
            "^category is not an AbstentionCategory: 'missing_inputs'$",
        ),
    ],
    ids=["recommend_with_category", "class_id", "abstain_with_class_id", "str_action", "str_category"],
)
def test_an_expectation_refuses_a_detail_its_action_cannot_carry(parts, message):
    with pytest.raises(ValueError, match=message):
        ExpectedBehavior(**{"action": Action.RECOMMEND, **parts})


def test_stage_record_sorts_evaluations():
    record = StageRecord(Stage.EXCLUSIONS, (("z", Verdict.FIRED), ("a", Verdict.NOT_FIRED)))
    assert [rule_id for rule_id, _ in record.evaluated] == ["a", "z"]


def test_trace_requires_stage_prefix():
    final = SystemOutput.abstain(AbstentionCategory.MISSING_INPUTS, ["age"])
    one = AuditTrace((StageRecord(Stage.INPUT_ASSESSMENT, ()),), final)
    assert len(one.stages) == 1
    with pytest.raises(ValueError):
        AuditTrace((), final)
    with pytest.raises(ValueError):
        AuditTrace((StageRecord(Stage.EXCLUSIONS, ()),), final)


def test_case_input_identifier_checked():
    expected = ExpectedBehavior(Action.ABSTAIN)
    with pytest.raises(ValueError):
        CaseInput("9bad", "", "generated", {}, expected)


class _Ascii(str):
    """A ``str`` that claims to be ASCII whatever it holds."""

    def isascii(self):
        return True


@pytest.mark.parametrize(
    ("part", "message"),
    [
        ({"description": "\ud800"}, "^description is not valid Unicode text$"),
        ({"description": _Ascii("\ud800")}, "^description is not valid Unicode text$"),
        ({"description": None}, "^description is not a string: None$"),
        ({"fields": {"age": 30}}, "^field 'age' is not a FieldValue"),
        ({"expected": None}, "^expected is not an ExpectedBehavior"),
        ({"mechanism": "Not A Token"}, "^mechanism is not a token: 'Not A Token'$"),
        ({"fields": {"Not Ident": FieldValue.boolean(True)}}, "^field name is not an identifier: 'Not Ident'$"),
    ],
    ids=["lone_surrogate", "surrogate_in_a_subclass", "no_description", "raw_value", "no_expectation", "mechanism",
         "field_name"],
)
def test_a_case_built_in_code_is_checked_like_a_parsed_one(part, message):
    parts = {"description": "", "mechanism": "generated", "fields": {}, "expected": ExpectedBehavior(Action.ABSTAIN)}
    with pytest.raises(ValueError, match=message):
        CaseInput("c1", **{**parts, **part})


class _Name(str):
    pass


def test_a_case_refuses_the_first_bad_field_in_field_order():
    good, raw = FieldValue.boolean(True), True
    parts = {"description": "", "mechanism": "generated", "expected": ExpectedBehavior(Action.ABSTAIN)}
    refusals = [
        ({"a": good, "Bad name": good, "c": raw}, ValueError, "^field name is not an identifier: 'Bad name'$"),
        ({"a": good, "b": raw, "Bad name": good}, ValueError, "^field 'b' is not a FieldValue: True$"),
        ({"a": raw, 3: good}, ValueError, "^field 'a' is not a FieldValue: True$"),
        ({"a": good, 3: good, "Bad name": good}, ValueError, "^field name is not an identifier: 3$"),
        ({"a": good, "Bad name": good, 3: good}, ValueError, "^field name is not an identifier: 'Bad name'$"),
        # A str subclass is refused alone, by the C-level pass, as beside a bad value.
        ({_Name("a"): good}, ValueError, "^field name is not an identifier: 'a'$"),
        ({_Name("a"): good, "b": raw}, ValueError, "^field name is not an identifier: 'a'$"),
    ]
    for fields, error, message in refusals:
        with pytest.raises(error, match=message):
            CaseInput("c1", fields=fields, **parts)


_CASE = {
    "case_id": "c1",
    "description": "",
    "mechanism": "generated",
    "fields": {},
    "expected": ExpectedBehavior(Action.ABSTAIN),
}
_NOT_A_TOKEN = "not a token (expected [a-z][a-z0-9_]*): 3"
_REFERENCE = load_reference_policy()
_MISSING = AbstentionCategory.MISSING_INPUTS

# Every constructor that takes a name refuses one that is not a ``str`` with
# ``ValueError`` and the message it gives a malformed ``str``, never with the
# ``TypeError`` of a regex match or a sort.
_NAMES_NOT_STR = {
    "token": (lambda: FieldValue.token(3), _NOT_A_TOKEN),
    "token_set_entry": (lambda: FieldValue.token_set(["a", 3]), _NOT_A_TOKEN),
    "label": (lambda: AbstentionReason(_MISSING, [3]), "label is not an identifier: 3"),
    "label_beside_a_str": (lambda: AbstentionReason(_MISSING, ["a", 3]), "label is not an identifier: 3"),
    "output_class": (lambda: SystemOutput.recommend(3), "class id is not an identifier: 3"),
    "expected_class": (lambda: ExpectedBehavior(Action.RECOMMEND, class_id=3), "class id is not an identifier: 3"),
    "case_id": (lambda: CaseInput(**{**_CASE, "case_id": 3}), "case id is not an identifier: 3"),
    "case_mechanism": (lambda: CaseInput(**{**_CASE, "mechanism": 3}), "mechanism is not a token: 3"),
    "case_field": (
        lambda: CaseInput(**{**_CASE, "fields": {3: FieldValue.boolean(True)}}),
        "field name is not an identifier: 3",
    ),
    "has_token": (lambda: Has("f", 3), _NOT_A_TOKEN),
    "comparison_field": (lambda: Comparison(3, "==", FieldValue.integer(1)), "field name is not an identifier: 3"),
    "present_field": (lambda: Present(3), "field name is not an identifier: 3"),
    "absent_field": (lambda: Absent(3), "field name is not an identifier: 3"),
    "has_field": (lambda: Has(3, "a"), "field name is not an identifier: 3"),
    "field_name": (lambda: FieldDecl(3, FieldKind.BOOLEAN), "field name is not an identifier: 3"),
    "enum_entry": (lambda: FieldDecl("f", FieldKind.TOKEN, enum=(3,)), "enumeration entry is not a token: 3"),
    "class_id": (lambda: ClassDecl(3, 1), "class id is not an identifier: 3"),
    "consistency_id": (lambda: ConsistencyConstraint(3, Literal(True)), "consistency id is not an identifier: 3"),
    "exclusion_id": (lambda: ExclusionRule(3, "L", Literal(True)), "exclusion id is not an identifier: 3"),
    "exclusion_label": (lambda: ExclusionRule("e", 3, Literal(True)), "exclusion label is not an identifier: 3"),
    "rule_id": (lambda: ClinicalRule(3, Literal(True), "c"), "rule id is not an identifier: 3"),
    "candidate": (lambda: ClinicalRule("r", Literal(True), 3), "candidate class id is not an identifier: 3"),
    "requires": (
        lambda: ClinicalRule("r", Literal(True), "c", requires=(3,)),
        "required field is not an identifier: 3",
    ),
    "incompatible": (
        lambda: ClinicalRule("r", Literal(True), "c", incompatible_with=(3,)),
        "incompatible rule id is not an identifier: 3",
    ),
    "veto_id": (lambda: StewardshipVeto(3, "c", Literal(True)), "veto id is not an identifier: 3"),
    "veto_class": (lambda: StewardshipVeto("v", 3, Literal(True)), "vetoed class id is not an identifier: 3"),
    "policy_id": (lambda: _REFERENCE._replace(policy_id=3), "policy id is not an identifier: 3"),
    "policy_version": (lambda: _REFERENCE._replace(version=3), "version is not a token: 3"),
    "policy_required": (
        lambda: _REFERENCE._replace(required=(3,)),
        "required field is not an identifier: 3",
    ),
    "known_risk": (lambda: _REFERENCE._replace(known_risks=frozenset({3})), "known risk is not a token: 3"),
    "suite_id": (lambda: Suite(3, "v1", ("generated",), (CaseInput(**_CASE),)), "suite id is not an identifier: 3"),
    "suite_version": (
        lambda: Suite("s", 3, ("generated",), (CaseInput(**_CASE),)),
        "suite version is not a token: 3",
    ),
    "suite_mechanism": (
        lambda: Suite("s", "v1", ("generated", 3), (CaseInput(**_CASE),)),
        "mechanism is not a token: 3",
    ),
}


@pytest.mark.parametrize(("build", "message"), list(_NAMES_NOT_STR.values()), ids=list(_NAMES_NOT_STR))
def test_a_name_that_is_not_a_str_is_refused_with_value_error(build, message):
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == message


# ASCII name characters and others, beside letters and digits outside ASCII
# that ``str.isidentifier`` accepts or that ``str.islower`` counts: é, the
# long s, the Kelvin sign, the feminine ordinal and an Arabic-Indic zero.
_NAME_CHARS = string.ascii_letters + string.digits + "_-" + string.whitespace + "\u00e9\u017f\u212a\u00aa\u0660"
_NAME_TEXT = st.builds(str.__add__, st.text(_NAME_CHARS, max_size=6), st.sampled_from(["", "\n"]))
_CASE_DOC = {"description": "", "mechanism": "m", "fields": {}, "expect": {"abstain": "any"}}


@settings(max_examples=500)
@given(_NAME_TEXT)
@example("")
@example("_")
@example("_a")
@example("a_1")
@example("aB")
@example("\u017fevere")
@example("c\u212a1")
@example("\u00e2ge")
@example("\u00aa")
@example("a\u0660")
@example("a\n")
def test_the_name_checks_accept_exactly_what_the_patterns_match(text):
    abstain = ExpectedBehavior(Action.ABSTAIN)
    checks = [
        (IDENT_RE, lambda: _name(text, IDENT_RE, "identifier")),
        (TOKEN_RE, lambda: _name(text, TOKEN_RE, "token")),
        (TOKEN_RE, lambda: FieldValue.token(text)),
        (IDENT_RE, lambda: CaseInput("c1", "", "m", {text: FieldValue.boolean(True)}, abstain)),
    ]
    for pattern, check in checks:
        try:
            check()
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == (pattern.match(text) is not None)
    document = {"suite_id": "s", "version": "v1", "mechanisms": ["m"], "cases": [{**_CASE_DOC, "id": text}]}
    _, diags = parse_suite(json.dumps(document))
    assert (diags == []) == (IDENT_RE.match(text) is not None)
    # A str subclass and a value that is no str are refused with the message
    # a malformed str gets, whatever they spell.
    for pattern in (IDENT_RE, TOKEN_RE, _PIN_RE):
        for value in (_Name(text), [text]):
            with pytest.raises(ValueError) as refused:
                _name(value, pattern, "name")
            assert str(refused.value) == f"name: {value!r}"


def test_a_pin_is_still_matched_by_its_own_pattern():
    # The reference pin starts with a digit: no identifier or token test
    # would take it.
    pin = load_reference_suite().policy_hash_pin
    assert pin == policy_hash(load_reference_policy()) and pin[0].isdigit()
    assert _name(pin, _PIN_RE, "pin") is pin
    for text in ("abc", pin.upper(), pin + "\n", pin[:-1]):
        with pytest.raises(ValueError, match="^pin: "):
            _name(text, _PIN_RE, "pin")


@given(st.decimals(min_value=-1000, max_value=1000, places=4, allow_nan=False, allow_infinity=False))
def test_decimal_canonical_round_trips(value):
    rendered = json.loads(_value_json(FieldValue.decimal(value)))
    assert FieldValue.from_json(rendered).value == value.quantize(Decimal("0.0001"))


@given(st.lists(st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True), unique=True, max_size=6))
def test_token_set_canonical_is_sorted(tokens):
    assert json.loads(_value_json(FieldValue.token_set(tokens))) == sorted(tokens)


# Free text for rule ids and notes, which the model does not restrict: JSON
# escapes (quotes, backslashes, control characters) and non-ASCII text.
_FREE_TEXT = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f\n\tµ\u2028'), st.characters()), max_size=6)
# Labels and class ids are identifiers.
_IDENT = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True)


@st.composite
def _outputs(draw):
    if draw(st.booleans()):
        return SystemOutput.recommend(draw(_IDENT))
    category = draw(st.sampled_from(AbstentionCategory))
    minimum = 1 if category is AbstentionCategory.EXPLICIT_EXCLUSION else 0
    return SystemOutput.abstain(category, draw(st.lists(_IDENT, min_size=minimum, max_size=4)))


@st.composite
def _traces(draw):
    depth = draw(st.integers(1, len(PIPELINE_STAGES)))
    pairs = st.lists(st.tuples(_FREE_TEXT, st.sampled_from(Verdict)), max_size=4)
    records = tuple(
        StageRecord(stage, draw(pairs), draw(st.lists(_FREE_TEXT, max_size=3))) for stage in PIPELINE_STAGES[:depth]
    )
    return AuditTrace(records, draw(_outputs()))


@given(st.one_of(_outputs(), _traces()))
def test_direct_encoding_equals_the_reference_form(value):
    form = output_form(value) if type(value) is SystemOutput else trace_form(value)
    assert canonical_serialize(value) == canonical_bytes(form)


def test_canonical_serialize_refuses_every_other_type():
    case = load_reference_suite().cases[0]
    for value in (case, case.expected, FieldValue.token_set(["b", "a"])):
        with pytest.raises(TypeError, match=f"^not an output, stage record or trace: {type(value).__name__}$"):
            canonical_serialize(value)


def test_direct_encoding_covers_every_stage_prefix_category_and_verdict():
    finals = [SystemOutput.recommend("class_a")] + [
        SystemOutput.abstain(category, ["x"]) for category in AbstentionCategory
    ]
    evaluated = tuple((f"r{index}", verdict) for index, verdict in enumerate(Verdict))
    for depth in range(1, len(PIPELINE_STAGES) + 1):
        records = tuple(StageRecord(stage, evaluated, ("n",)) for stage in PIPELINE_STAGES[:depth])
        for final in finals:
            trace = AuditTrace(records, final)
            assert canonical_serialize(trace) == canonical_bytes(trace_form(trace))
            assert canonical_serialize(final) == canonical_bytes(output_form(final))


def test_lone_surrogate_fails_on_both_paths():
    final = SystemOutput.recommend("class_a")
    for record in (
        StageRecord(Stage.INPUT_ASSESSMENT, (("r\ud800", Verdict.FIRED),)),
        StageRecord(Stage.INPUT_ASSESSMENT, notes=("\udfff",)),
    ):
        trace = AuditTrace((record,), final)
        with pytest.raises(UnicodeEncodeError):
            canonical_serialize(trace)
        with pytest.raises(UnicodeEncodeError):
            canonical_bytes(trace_form(trace))


@pytest.mark.parametrize(
    "record",
    [
        lambda: StageRecord(Stage.EXCLUSIONS, ((1.5, Verdict.FIRED),)),
        lambda: StageRecord(Stage.EXCLUSIONS, ((7, Verdict.FIRED),)),
        lambda: StageRecord(Stage.EXCLUSIONS, notes=(1.5,)),
        lambda: StageRecord(Stage.EXCLUSIONS, (("r", "fired"),)),
        lambda: StageRecord("exclusions"),
    ],
    ids=["float_rule_id", "int_rule_id", "float_note", "str_verdict", "str_stage"],
)
def test_untyped_trace_content_never_reaches_bytes(record):
    final = SystemOutput.recommend("class_a")
    with pytest.raises(TypeError):
        canonical_serialize(AuditTrace((StageRecord(Stage.INPUT_ASSESSMENT), record()), final))


def test_untyped_output_content_never_reaches_bytes():
    with pytest.raises(TypeError):
        canonical_serialize(SystemOutput.abstain("missing_inputs", ["age"]))
    with pytest.raises(ValueError, match=r"^label is not an identifier: 1\.5$"):
        canonical_serialize(SystemOutput.abstain(AbstentionCategory.MISSING_INPUTS, [1.5]))
    with pytest.raises(TypeError):
        AuditTrace(({"stage": Stage.INPUT_ASSESSMENT},), SystemOutput.recommend("class_a"))
