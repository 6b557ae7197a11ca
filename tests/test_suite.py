import copy
import json
import re
from collections import defaultdict
from collections.abc import Mapping
from decimal import Decimal
from enum import IntEnum
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from absgate import load_reference_policy, load_reference_suite, parse_suite, run_suite, suite_hash
from absgate.canon import canonical_bytes
from absgate.diagnostics import Diagnostic, Severity, has_errors
from absgate.model import (
    IDENT_RE,
    INT64_MAX,
    INT64_MIN,
    TOKEN_RE,
    _SURROGATE_RE,
    AbstentionCategory,
    Action,
    CaseInput,
    ExpectedBehavior,
    FieldKind,
    FieldValue,
)
from absgate.reference import reference_suite_text
from absgate.policy import FieldDecl
from absgate.suite import (
    _CASE_KEYS,
    _TOP_KEYS,
    MAX_DEPTH,
    Suite,
    _json_int,
    _parse_expect,
    _suite_json,
    bind_suite,
)

from canonical_forms import suite_form

POLICY = load_reference_policy()

BASE = {
    "suite_id": "s",
    "version": "v1",
    "mechanisms": ["mech_a", "mech_b"],
    "cases": [
        {
            "id": "k1",
            "description": "",
            "mechanism": "mech_a",
            "fields": {"age": 40},
            "expect": {"abstain": "any"},
        },
        {
            "id": "k2",
            "description": "",
            "mechanism": "mech_b",
            "fields": {"age": 15},
            "expect": {"abstain": "explicit_exclusion"},
        },
    ],
}


def _doc(**overrides):
    doc = json.loads(json.dumps(BASE))
    doc.update(overrides)
    return doc


def _parse(doc):
    return parse_suite(json.dumps(doc))


def test_clean_suite_parses_and_sorts_cases():
    shuffled = _doc(cases=list(reversed(BASE["cases"])))
    suite, diags = _parse(shuffled)
    assert diags == []
    assert suite is not None
    assert [case.case_id for case in suite.cases] == ["k1", "k2"]
    assert suite.case("k2") is not None
    assert suite.case("ghost") is None


def test_a_suite_built_in_code_refuses_a_repeated_case_id():
    # run_suite keys its traces by case id, so a repeated id would audit
    # one case's recommendation against the other's trace.
    reference = load_reference_suite()
    c17, c18 = reference.case("c17"), reference.case("c18")
    assert c17 is not None and c18 is not None
    with pytest.raises(ValueError, match="^case id 'c17' appears twice$"):
        Suite("s", "v1", reference.mechanisms, (c17, c18._replace(case_id="c17")))


@pytest.mark.parametrize(
    ("mechanisms", "message"),
    [
        (("zzz",), "case 'c01': mechanism 'missing_required' is not in the suite vocabulary"),
        (("Not A Token",), "mechanism is not a token: 'Not A Token'"),
        (("missing_required", 3), "mechanism is not a token: 3"),
    ],
    ids=["outside_vocabulary", "not_a_token", "not_a_str"],
)
def test_a_suite_built_in_code_checks_its_vocabulary(mechanisms, message):
    with pytest.raises(ValueError) as refused:
        load_reference_suite()._replace(mechanisms=mechanisms)
    assert str(refused.value) == message


@pytest.mark.parametrize(
    ("changes", "message"),
    [
        ({"suite_id": "Not An Id"}, "suite id is not an identifier: 'Not An Id'"),
        ({"suite_id": 3}, "suite id is not an identifier: 3"),
        ({"version": "V1"}, "suite version is not a token: 'V1'"),
        ({"version": 3}, "suite version is not a token: 3"),
        ({"suite_id": "Not An Id", "version": 3}, "suite id is not an identifier: 'Not An Id'"),
    ],
    ids=["id_not_an_identifier", "id_not_a_str", "version_not_a_token", "version_not_a_str", "both"],
)
def test_a_suite_built_in_code_checks_its_id_and_version(changes, message):
    # parse_suite refuses each of these as a malformed document.
    with pytest.raises(ValueError) as refused:
        load_reference_suite()._replace(**changes)
    assert str(refused.value) == message
    for key, value in changes.items():
        assert [d.code for d in _parse(_doc(**{key: value}))[1]] == ["malformed_document"]


@pytest.mark.parametrize(
    ("pin", "message"),
    [
        (123, "policy hash pin is not 64 lowercase hex digits: 123"),
        ("XYZ", "policy hash pin is not 64 lowercase hex digits: 'XYZ'"),
        ("AB" * 32, f"policy hash pin is not 64 lowercase hex digits: '{'AB' * 32}'"),
        ("ab" * 33, f"policy hash pin is not 64 lowercase hex digits: '{'ab' * 33}'"),
    ],
    ids=["not_a_str", "short", "upper_case", "long"],
)
def test_a_suite_built_in_code_checks_its_pin(pin, message):
    with pytest.raises(ValueError) as refused:
        load_reference_suite()._replace(policy_hash_pin=pin)
    assert str(refused.value) == message
    assert [d.code for d in _parse(_doc(policy_hash_pin=pin))[1]] == ["invalid_pin"]
    assert load_reference_suite()._replace(policy_hash_pin="ab" * 32).policy_hash_pin == "ab" * 32


@pytest.mark.parametrize("stranger", [None, "c99", {"id": "c99"}], ids=["none", "str", "dict"])
def test_a_suite_built_in_code_holds_only_cases(stranger):
    reference = load_reference_suite()
    with pytest.raises(ValueError) as refused:
        reference._replace(cases=(*reference.cases, stranger))
    assert str(refused.value) == f"case is not a CaseInput: {stranger!r}"


def test_malformed_document_reports_location():
    suite, diags = parse_suite('{"suite_id": }')
    assert suite is None
    assert [d.code for d in diags] == ["malformed_document"]
    assert diags[0].line >= 1


def test_too_deep_a_document_is_malformed():
    nested_cases = json.dumps(BASE).replace('"cases": [', '"cases": ' + "[" * 5000 + "[", 1) + "]" * 5000
    for text in ("[" * 100000, nested_cases):
        suite, diags = parse_suite(text)
        assert suite is None
        assert [d.render() for d in diags] == ["ERROR malformed_document 0:0 document nests too deeply"]


def _arrays(depth):
    return "[" * depth + "]" * depth


# Each builds a document that nests ``depth`` deep, counting the document.
@pytest.mark.parametrize(
    ("build", "codes"),
    [
        (lambda depth: json.dumps(BASE)[:-1] + f', "notes": {_arrays(depth - 1)}}}', ["unknown_key"]),
        (lambda depth: json.dumps(BASE)[:-1] + f', "notes": {_arrays(depth - 1)}, "notes": 1}}', ["unknown_key"]),
        (lambda depth: json.dumps(BASE).replace('"age": 40', f'"age": {_arrays(depth - 4)}'), ["invalid_field_value"]),
        (lambda depth: "[" * depth, ["malformed_document"]),
    ],
    ids=["unknown_key", "replaced_unknown_key", "field_value", "unclosed"],
)
def test_a_document_nests_at_most_max_depth_deep(build, codes):
    suite, diags = parse_suite(build(MAX_DEPTH))
    assert [d.code for d in diags] == codes
    suite, diags = parse_suite(build(MAX_DEPTH + 1))
    assert suite is None
    assert [d.render() for d in diags] == ["ERROR malformed_document 0:0 document nests too deeply"]


def test_brackets_inside_strings_do_not_nest():
    for text in ('["' + "[" * 100 + '", ', '["' + "[" * 100, '["\\"' + "[" * 100 + '", '):
        suite, diags = parse_suite(text)
        assert [d.code for d in diags] == ["malformed_document"]
        assert diags[0].message != "document nests too deeply"


def test_a_description_with_a_lone_surrogate_is_malformed():
    suite, diags = _parse(_doc(cases=[{**BASE["cases"][0], "description": "half \ud800 pair"}]))
    assert suite is None
    assert [d.render() for d in diags] == [
        "ERROR malformed_case 0:0 case 'k1': description is not valid Unicode text"
    ]
    suite, diags = _parse(_doc(cases=[{**BASE["cases"][0], "description": "caf\u00e9 \U0001f9ea"}]))
    assert suite is not None and diags == []
    suite_hash(suite)


def test_oversized_numbers_are_diagnostics():
    reference = reference_suite_text()
    decimal = reference.replace('"age": 30', '"weight_kg": "' + "1" * 40 + '.5"', 1)
    suite, diags = parse_suite(decimal)
    assert suite is None
    assert [d.render() for d in diags] == [
        "ERROR invalid_field_value 0:0 case 'c03', field 'weight_kg': decimal out of range: " + "1" * 40 + ".5"
    ]
    integer = reference.replace('"age": 30', '"age": ' + "1" * 5000, 1)
    suite, diags = parse_suite(integer)
    assert suite is None
    assert [d.render() for d in diags] == [
        "ERROR malformed_document 0:0 document holds an integer with too many digits"
    ]
    # Digits are counted before conversion: past 19, the document is malformed.
    for age, codes in (
        ("1" + "0" * 18, []),
        ("-" + "9" * 19, ["invalid_field_value"]),
        ("-" + "1" * 20, ["malformed_document"]),
    ):
        suite, diags = parse_suite(reference.replace('"age": 30', '"age": ' + age, 1))
        assert [d.code for d in diags] == codes
        assert (suite is None) == bool(codes)


def _with_c19_weight(value):
    suite = load_reference_suite()
    cases = tuple(
        case._replace(fields={**case.fields, "weight_kg": value}) if case.case_id == "c19" else case
        for case in suite.cases
    )
    return suite._replace(cases=cases)


def test_suites_with_equal_digests_decide_alike():
    # A weight a hair under the 40 kg veto threshold, built in code, would
    # print and hash as 40.0000 but decide as less than 40.
    with pytest.raises(ValueError, match="^more than 4 fractional digits"):
        FieldValue(FieldKind.DECIMAL, Decimal("39.99999"))
    suites = [
        _with_c19_weight(value)
        for value in (
            FieldValue.decimal("40.0000"),
            FieldValue(FieldKind.DECIMAL, Decimal("40.00000")),
            FieldValue(FieldKind.DECIMAL, "40"),
        )
    ]
    assert len({suite_hash(suite) for suite in suites}) == 1
    assert all(bind_suite(suite, POLICY) == [] for suite in suites)
    reports = {canonical_bytes(run_suite(POLICY, suite, runs=1).to_canonical()) for suite in suites}
    assert len(reports) == 1


def test_document_must_be_an_object():
    suite, diags = parse_suite("[1, 2]")
    assert suite is None
    assert [d.code for d in diags] == ["malformed_document"]


def test_parse_errors_by_code():
    expectations = [
        (_doc(cases=[]), "empty_suite"),
        ({k: v for k, v in BASE.items() if k != "cases"}, "empty_suite"),
        (_doc(policy_hash_pin="zz"), "invalid_pin"),
        (_doc(cases=[3]), "malformed_case"),
        (_doc(cases=[{"id": "k1"}]), "malformed_case"),
        (_doc(cases=[{**BASE["cases"][0], "id": "c01\n"}]), "malformed_case"),
        (_doc(cases=[BASE["cases"][0], BASE["cases"][0]]), "duplicate_case_id"),
        (_doc(cases=[{**BASE["cases"][0], "mechanism": "ghost"}]), "unknown_mechanism"),
        (_doc(cases=[{**BASE["cases"][0], "fields": {"age": 1.5}}]), "invalid_field_value"),
        (_doc(cases=[{**BASE["cases"][0], "expect": {"explode": True}}]), "unknown_expected_behavior"),
        (_doc(cases=[{**BASE["cases"][0], "expect": {"abstain": "whimsy"}}]), "unknown_expected_behavior"),
    ]
    for doc, code in expectations:
        suite, diags = _parse(doc)
        assert suite is None, code
        assert code in {d.code for d in diags}, (code, [d.render() for d in diags])


@pytest.mark.parametrize(
    ("case", "message"),
    [
        ({"expect": [1]}, "case 'k1': expect must be a one-key object"),
        ({"expect": {"recommend": 3}}, "case 'k1': bad recommend expectation 3"),
        ({"expect": {"abstain": ["x"]}}, "case 'k1': bad abstain expectation ['x']"),
        ({"fields": [1]}, "case 'k1': fields must be an object"),
        (
            {"fields": {"flags": [["a"]]}},
            "case 'k1', field 'flags': not a token (expected [a-z][a-z0-9_]*): ['a']",
        ),
        ({"fields": {"flags": {"a": 1}}}, "case 'k1', field 'flags': unsupported field value: {'a': 1}"),
    ],
    ids=["expect_not_one_key", "recommend_not_str", "abstain_unhashable", "fields_not_object", "nested", "object"],
)
def test_a_case_refusal_names_its_defect(case, message):
    suite, diags = _parse(_doc(cases=[{**BASE["cases"][0], **case}], mechanisms=["mech_a"]))
    assert suite is None
    assert [d.message for d in diags] == [message]


def test_unknown_keys_warn_but_do_not_reject():
    suite, diags = _parse(_doc(flavor="salty"))
    assert suite is not None
    assert [d.code for d in diags] == ["unknown_key"]
    assert diags[0].severity.value == "warning"
    suite, diags = _parse(_doc(cases=[{**BASE["cases"][0], "note": "hi"}], mechanisms=["mech_a"]))
    assert suite is not None
    assert {d.code for d in diags} == {"unknown_key"}


def test_duplicate_mechanism_warns():
    suite, diags = _parse(_doc(mechanisms=["mech_a", "mech_a", "mech_b"]))
    assert suite is not None
    assert [d.code for d in diags] == ["duplicate_mechanism"]


def test_a_repeated_mechanism_is_held_once():
    suite = load_reference_suite()
    repeated = suite._replace(mechanisms=(*suite.mechanisms, suite.mechanisms[0]))
    assert repeated == suite
    assert suite_hash(repeated) == suite_hash(suite)


def test_bind_checks_fields_against_the_schema():
    checks = [
        ({"ghost": 1}, "unknown_field"),
        ({"age": "3.5"}, "type_mismatch"),
        ({"sex": "robot"}, "unknown_enum_token"),
    ]
    for fields, code in checks:
        suite, _ = _parse(_doc(cases=[{**BASE["cases"][0], "fields": fields}], mechanisms=["mech_a"]))
        assert suite is not None
        diags = bind_suite(suite, POLICY)
        assert [d.code for d in diags] == [code]
        assert diags[0].severity.value == "error"


def test_bind_accepts_open_vocabulary_risk_tokens():
    suite, _ = _parse(
        _doc(
            cases=[{**BASE["cases"][0], "fields": {"risk_factors": ["anything_at_all"]}}],
            mechanisms=["mech_a"],
        )
    )
    assert suite is not None
    assert bind_suite(suite, POLICY) == []


def test_bind_checks_expected_class():
    suite, _ = _parse(
        _doc(cases=[{**BASE["cases"][0], "expect": {"recommend": "ghost_class"}}], mechanisms=["mech_a"])
    )
    assert suite is not None
    assert [d.code for d in bind_suite(suite, POLICY)] == ["unknown_expected_class"]


def test_bind_warns_on_policy_drift():
    suite, _ = _parse(_doc(policy_hash_pin="0" * 64))
    assert suite is not None
    diags = bind_suite(suite, POLICY)
    assert [d.code for d in diags] == ["policy_drift"]
    assert diags[0].severity.value == "warning"


def test_reference_suite_binds_clean():
    suite, diags = parse_suite(reference_suite_text())
    assert diags == []
    assert suite is not None
    assert bind_suite(suite, POLICY) == []
    assert len(suite.cases) == 23


def test_suite_hash_ignores_formatting_and_case_order():
    suite_a, _ = _parse(BASE)
    shuffled = json.dumps(_doc(cases=list(reversed(BASE["cases"]))), indent=4)
    suite_b, _ = parse_suite(shuffled)
    assert suite_a is not None and suite_b is not None
    assert suite_hash(suite_a) == suite_hash(suite_b)


def test_suite_hash_tracks_content():
    suite_a, _ = _parse(BASE)
    changed = _doc(cases=[BASE["cases"][0], {**BASE["cases"][1], "fields": {"age": 16}}])
    suite_b, _ = _parse(changed)
    assert suite_a is not None and suite_b is not None
    assert suite_hash(suite_a) != suite_hash(suite_b)


def test_canonical_form_carries_the_pin_only_when_present():
    pin = "ab" * 32
    with_pin, _ = _parse(_doc(policy_hash_pin=pin))
    without, _ = _parse(BASE)
    assert with_pin is not None and without is not None
    assert json.loads(_suite_json(with_pin))["policy_hash_pin"] == pin
    assert "policy_hash_pin" not in json.loads(_suite_json(without))
    assert json.loads(_suite_json(without))["mechanisms"] == ["mech_a", "mech_b"]


# Every field kind, with repeats across cases and distinct raw values that
# build equal field values ("1.5" and "1.5000", one set in two orders).
EVERY_KIND = _doc(
    mechanisms=["mech_a"],
    cases=[
        {
            "id": f"e{i}",
            "description": "",
            "mechanism": "mech_a",
            "fields": {
                "on": i % 2 == 0,
                "n": i % 3,
                "dose": ["1.5", "1.5000", "-0.0000"][i % 3],
                "site": ["lung", "skin"][i % 2],
                "risks": [["copd", "asthma"], ["asthma", "copd"], []][i % 3],
            },
            "expect": [{"abstain": "any"}, {"recommend": "narrow"}, {"recommend": "any"}][i % 3],
        }
        for i in range(7)
    ],
)


def test_parse_matches_building_each_case_alone():
    for doc in (json.loads(reference_suite_text()), EVERY_KIND):
        suite, diags = _parse(doc)
        assert suite is not None and diags == []
        built = []
        for raw in doc["cases"]:
            case = suite.case(raw["id"])
            fields = {name: FieldValue.from_json(value) for name, value in raw["fields"].items()}
            expected = _parse_expect(raw["expect"], raw["id"], [])
            assert case is not None and case.fields == fields and case.expected == expected
            assert [v.kind for v in case.fields.values()] == [v.kind for v in fields.values()]
            built.append(CaseInput(raw["id"], raw["description"], raw["mechanism"], fields, expected))
        pin = doc.get("policy_hash_pin")
        alone = Suite(doc["suite_id"], doc["version"], tuple(doc["mechanisms"]), tuple(built), pin)
        assert suite_hash(suite) == suite_hash(alone)
    # Equal raw values across cases share one instance.
    first, second = suite.case("e0"), suite.case("e3")
    assert first is not None and second is not None
    assert first.fields["n"] is second.fields["n"] and first.expected is second.expected


CROSS_TYPE = [1, True, 1.0, "1.0000", "a", "true", ["a"], ["a", "a"]]


def _cross_type_case(index, values):
    fields = {f"f{j}": value for j, value in enumerate(values)}
    return {"id": f"x{index}", "description": "", "mechanism": "mech_a", "fields": fields, "expect": {"abstain": "any"}}


def test_equal_values_of_different_json_types_never_share_a_parse():
    kinds = {
        json.dumps(1): FieldKind.INTEGER,
        json.dumps(True): FieldKind.BOOLEAN,
        json.dumps("1.0000"): FieldKind.DECIMAL,
        json.dumps("a"): FieldKind.TOKEN,
        json.dumps("true"): FieldKind.TOKEN,
        json.dumps(["a"]): FieldKind.TOKEN_SET,
    }
    accepted = [value for value in CROSS_TYPE if json.dumps(value) in kinds]
    orders = list(permutations(accepted))[::17]
    suite, diags = _parse(_doc(mechanisms=["mech_a"], cases=[_cross_type_case(i, o) for i, o in enumerate(orders)]))
    assert suite is not None and diags == []
    for index, order in enumerate(orders):
        case = suite.case(f"x{index}")
        assert case is not None
        assert [value.kind for value in case.fields.values()] == [kinds[json.dumps(value)] for value in order]
    for shift in range(len(CROSS_TYPE)):
        rotated = [CROSS_TYPE[shift:] + CROSS_TYPE[:shift], CROSS_TYPE[::-1], CROSS_TYPE]
        cases = [_cross_type_case(i, order) for i, order in enumerate(rotated)]
        _, diags = _parse(_doc(mechanisms=["mech_a"], cases=cases))
        alone = [d for case in cases for d in _parse(_doc(mechanisms=["mech_a"], cases=[case]))[1]]
        assert diags == alone
        assert [d.code for d in diags] == ["invalid_field_value"] * 6


# Letters outside ASCII that ``str.isidentifier`` accepts, each refused with
# the diagnostic the regular expressions gave: U+00E2, the Kelvin sign
# U+212A and the long s U+017F.
@pytest.mark.parametrize(
    ("document", "rendered"),
    [
        (
            _doc(cases=[{**BASE["cases"][0], "id": "c01", "fields": {"\u00e2ge": 40}}]),
            "ERROR malformed_case 0:0 case 'c01': field name is not an identifier: '\u00e2ge'",
        ),
        (
            _doc(cases=[{**BASE["cases"][0], "id": "c\u212a1"}]),
            "ERROR malformed_case 0:0 case #0: missing or invalid id",
        ),
        (
            _doc(cases=[{**BASE["cases"][0], "fields": {"severity": "\u017fevere"}}]),
            "ERROR invalid_field_value 0:0 case 'k1', field 'severity': "
            "string is neither decimal nor token: '\u017fevere'",
        ),
        (
            _doc(cases=[{**BASE["cases"][0], "mechanism": "\u017fparse"}]),
            "ERROR malformed_case 0:0 case 'k1': mechanism is not a token: '\u017fparse'",
        ),
        (
            _doc(mechanisms=["mech_a", "mech_b", "\u017fparse"]),
            "ERROR malformed_document 0:0 mechanism is not a token: '\u017fparse'",
        ),
    ],
    ids=["field_name", "case_id", "token", "case_mechanism", "vocabulary_mechanism"],
)
def test_a_name_outside_ascii_is_refused_with_the_same_diagnostic(document, rendered):
    suite, diags = _parse(document)
    assert suite is None
    assert [d.render() for d in diags] == [rendered]


def test_bind_reports_each_token_outside_a_closed_set_for_every_case():
    policy = POLICY._replace(schema=(*POLICY.schema, FieldDecl("flags", FieldKind.TOKEN_SET, ("a", "b"))))
    cases = [{**BASE["cases"][0], "id": f"b{i}", "fields": {"flags": ["z", "a", "c"]}} for i in (2, 1)]
    suite, _ = _parse(_doc(cases=cases, mechanisms=["mech_a"]))
    assert suite is not None
    assert [d.render() for d in bind_suite(suite, policy)] == [
        f"ERROR unknown_enum_token 0:0 case '{case_id}': token '{token}' is outside the enumeration of 'flags'"
        for case_id in ("b1", "b2")
        for token in ("c", "z")
    ]


def test_bind_reports_a_repeated_bad_value_for_every_case():
    cases = [
        {**BASE["cases"][0], "id": f"b{i}", "fields": {"age": 40, "sex": "robot", "risk_factors": ["ghost"]}}
        for i in (3, 1, 2)
    ]
    suite, _ = _parse(_doc(cases=cases, mechanisms=["mech_a"]))
    assert suite is not None
    # Parsed cases share one instance of each value; cases built from fresh
    # instances, or from mappings that make their values on access, bind alike.
    unshared = _rebuilt(suite, lambda fields: {name: FieldValue(v.kind, v.value) for name, v in fields.items()})
    on_access = _rebuilt(suite, _FreshValues)
    for each in (suite, unshared, on_access):
        assert [d.render() for d in bind_suite(each, POLICY)] == [
            f"ERROR unknown_enum_token 0:0 case '{case_id}': token 'robot' is outside the enumeration of 'sex'"
            for case_id in ("b1", "b2", "b3")
        ]


class _FreshValues(Mapping):
    """Case fields that build a new ``FieldValue`` on every access, so no
    instance outlives its use."""

    def __init__(self, fields):
        self._raw = {name: (value.kind, value.value) for name, value in fields.items()}

    def __getitem__(self, name):
        return FieldValue(*self._raw[name])

    def __iter__(self):
        return iter(self._raw)

    def __len__(self):
        return len(self._raw)


def _rebuilt(suite, fields_of):
    cases = tuple(case._replace(fields=fields_of(case.fields)) for case in suite.cases)
    return suite._replace(cases=cases)


def test_bind_checks_each_value_a_mapping_makes_on_access():
    # A clean value is freed after its check, so a later bad value of the
    # same field may be built at its address.
    sexes = ("female", "male", "robot")
    cases = [{**BASE["cases"][0], "id": f"b{i}", "fields": {"sex": sexes[i % 3]}} for i in range(9)]
    suite, _ = _parse(_doc(cases=cases, mechanisms=["mech_a"]))
    assert suite is not None
    expected = [d.render() for d in bind_suite(suite, POLICY)]
    assert len(expected) == 3
    assert [d.render() for d in bind_suite(_rebuilt(suite, _FreshValues), POLICY)] == expected


def test_suite_hash_does_not_depend_on_how_cases_hold_their_values():
    suite, _ = _parse(EVERY_KIND)
    assert suite is not None
    on_access = _rebuilt(suite, _FreshValues)
    assert type(on_access.cases[0].fields) is _FreshValues
    assert _suite_json(on_access) == _suite_json(suite)
    assert _suite_json(suite).encode("utf-8") == canonical_bytes(suite_form(suite))


class _Level(IntEnum):
    LOW = -3
    HIGH = 2**40


# Description text with JSON escapes, line and paragraph separators and
# characters outside the Basic Multilingual Plane; no lone surrogates, which
# a case refuses.
_TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\\x00\x1f\x7f\n\t\u2028\u2029\xb5\U0001f600'),
        st.characters(exclude_categories=("Cs",)),
    ),
    max_size=8,
)
_TOKEN = st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True)
_IDENT = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True)
_VALUES = st.one_of(
    st.builds(FieldValue.boolean, st.booleans()),
    st.builds(FieldValue.integer, st.one_of(st.integers(INT64_MIN, INT64_MAX), st.sampled_from(_Level))),
    st.builds(
        FieldValue.decimal,
        st.one_of(st.decimals(-(10**6), 10**6, places=4), st.sampled_from(["0", "-0.0000", "-1.5", "-0.0001"])),
    ),
    st.builds(FieldValue.token, _TOKEN),
    st.builds(FieldValue.token_set, st.lists(_TOKEN, unique=True, max_size=4)),
)
_EXPECTATIONS = st.one_of(
    st.builds(ExpectedBehavior, st.just(Action.RECOMMEND), st.none() | _IDENT),
    st.builds(ExpectedBehavior, st.just(Action.ABSTAIN), category=st.none() | st.sampled_from(AbstentionCategory)),
)


@st.composite
def _suites(draw):
    """Suites whose cases share their values and expectations, as parsed
    ones do, or share none."""
    shared = draw(st.booleans())
    values = draw(st.lists(_VALUES, min_size=1, max_size=5))
    expectations = draw(st.lists(_EXPECTATIONS, min_size=1, max_size=3))
    mechanisms = draw(st.lists(_TOKEN, min_size=1, max_size=3, unique=True))
    cases = []
    for case_id in draw(st.lists(_IDENT, min_size=1, max_size=5, unique=True)):
        fields = {}
        for name in draw(st.lists(_IDENT, max_size=5, unique=True)):
            value = draw(st.sampled_from(values))
            fields[name] = value if shared else FieldValue(value.kind, value.value)
        expected = draw(st.sampled_from(expectations))
        expected = expected if shared else expected._replace()
        cases.append(CaseInput(case_id, draw(_TEXT), draw(st.sampled_from(mechanisms)), fields, expected))
    pin = draw(st.none() | st.from_regex(r"[0-9a-f]{64}", fullmatch=True))
    return Suite(draw(_IDENT), draw(_TOKEN), tuple(mechanisms), tuple(cases), pin)


@settings(max_examples=300)
@given(_suites())
def test_the_direct_suite_text_equals_the_reference_form(suite):
    assert _suite_json(suite).encode("utf-8") == canonical_bytes(suite_form(suite))


# The two-layer suite parser that checked every suite rule itself before
# construction checked them again, kept as the reference of the one checker
# (``suite_findings``, ``CaseInput``, ``ExpectedBehavior``) that
# ``parse_suite`` now reports.


def _reference_expect(raw, case_id, diags):
    if not isinstance(raw, dict) or len(raw) != 1:
        _ref_err(diags, "unknown_expected_behavior", f"case '{case_id}': expect must be a one-key object")
        return None
    key, value = next(iter(raw.items()))
    if key == "recommend":
        if not isinstance(value, str) or (value != "any" and not IDENT_RE.match(value)):
            _ref_err(diags, "unknown_expected_behavior", f"case '{case_id}': bad recommend expectation {value!r}")
            return None
        return ExpectedBehavior(Action.RECOMMEND, class_id=None if value == "any" else value)
    if key == "abstain":
        if not isinstance(value, str):
            _ref_err(diags, "unknown_expected_behavior", f"case '{case_id}': bad abstain expectation {value!r}")
            return None
        if value == "any":
            return ExpectedBehavior(Action.ABSTAIN)
        try:
            category = AbstentionCategory(value)
        except ValueError:
            _ref_err(diags, "unknown_expected_behavior", f"case '{case_id}': unknown abstention category {value!r}")
            return None
        return ExpectedBehavior(Action.ABSTAIN, category=category)
    _ref_err(diags, "unknown_expected_behavior", f"case '{case_id}': expect key must be recommend or abstain")
    return None


_HEX64 = frozenset("0123456789abcdef")


def _ref_err(diags, code, message):
    diags.append(Diagnostic(Severity.ERROR, code, message))


def _ref_warn(diags, code, message):
    diags.append(Diagnostic(Severity.WARNING, code, message))


def _reference_case(raw, index, mechanisms, diags):
    if not isinstance(raw, dict):
        _ref_err(diags, "malformed_case", f"case #{index} is not an object")
        return None
    case_id = raw.get("id")
    if not isinstance(case_id, str) or not IDENT_RE.match(case_id):
        _ref_err(diags, "malformed_case", f"case #{index}: missing or invalid id")
        return None
    for key in raw:
        if key not in _CASE_KEYS:
            _ref_warn(diags, "unknown_key", f"case '{case_id}': unknown key {key!r}")
    description = raw.get("description")
    if not isinstance(description, str):
        _ref_err(diags, "malformed_case", f"case '{case_id}': description must be a string")
        return None
    if _SURROGATE_RE.search(description):
        _ref_err(diags, "malformed_case", f"case '{case_id}': description is not valid Unicode text")
        return None
    mechanism = raw.get("mechanism")
    if not isinstance(mechanism, str) or not TOKEN_RE.match(mechanism):
        _ref_err(diags, "malformed_case", f"case '{case_id}': mechanism must be a token")
        return None
    if mechanism not in mechanisms:
        _ref_err(diags, "unknown_mechanism", f"case '{case_id}': mechanism '{mechanism}' is not in the suite vocabulary")
        return None
    raw_fields = raw.get("fields")
    if not isinstance(raw_fields, dict):
        _ref_err(diags, "malformed_case", f"case '{case_id}': fields must be an object")
        return None
    fields = {}
    ok = True
    for name, raw_value in raw_fields.items():
        if not IDENT_RE.match(name):
            _ref_err(diags, "malformed_case", f"case '{case_id}': field name {name!r} is not an identifier")
            ok = False
            continue
        try:
            fields[name] = FieldValue.from_json(raw_value)
        except ValueError as exc:
            _ref_err(diags, "invalid_field_value", f"case '{case_id}', field '{name}': {exc}")
            ok = False
    expected = _reference_expect(raw.get("expect"), case_id, diags)
    if expected is None or not ok:
        return None
    return CaseInput(case_id, description, mechanism, fields, expected)


def _reference_suite_from(document, diags):
    if not isinstance(document, dict):
        _ref_err(diags, "malformed_document", "suite document must be a JSON object")
        return None
    for key in document:
        if key not in _TOP_KEYS:
            _ref_warn(diags, "unknown_key", f"unknown top-level key {key!r}")
    suite_id = document.get("suite_id")
    if not isinstance(suite_id, str) or not IDENT_RE.match(suite_id):
        _ref_err(diags, "malformed_document", "suite_id must be an identifier")
        suite_id = None
    version = document.get("version")
    if not isinstance(version, str) or not TOKEN_RE.match(version):
        _ref_err(diags, "malformed_document", "version must be a token")
        version = None
    pin = document.get("policy_hash_pin")
    if pin is not None:
        if not isinstance(pin, str) or len(pin) != 64 or not set(pin) <= _HEX64:
            _ref_err(diags, "invalid_pin", "policy_hash_pin must be 64 lowercase hex digits")
            pin = None
    raw_mechanisms = document.get("mechanisms")
    mechanisms = ()
    if not isinstance(raw_mechanisms, list):
        _ref_err(diags, "malformed_document", "mechanisms must be an array of tokens")
    else:
        seen = []
        for entry in raw_mechanisms:
            if not isinstance(entry, str) or not TOKEN_RE.match(entry):
                _ref_err(diags, "malformed_document", f"mechanism {entry!r} is not a token")
            elif entry in seen:
                _ref_warn(diags, "duplicate_mechanism", f"mechanism '{entry}' listed twice")
            else:
                seen.append(entry)
        mechanisms = tuple(seen)
    raw_cases = document.get("cases")
    cases = []
    if not isinstance(raw_cases, list) or not raw_cases:
        _ref_err(diags, "empty_suite", "suite must carry at least one case")
    else:
        seen_ids = set()
        for index, raw_case in enumerate(raw_cases):
            case = _reference_case(raw_case, index, mechanisms, diags)
            if case is None:
                continue
            if case.case_id in seen_ids:
                _ref_err(diags, "duplicate_case_id", f"case id '{case.case_id}' appears twice")
                continue
            seen_ids.add(case.case_id)
            cases.append(case)
    if suite_id is None or version is None or not cases or has_errors(diags):
        return None
    return Suite(suite_id, version, mechanisms, tuple(cases), pin)


def _reference_parse(text):
    diags = []
    return _reference_suite_from(json.loads(text, parse_int=_json_int), diags), diags


# Each message the reference words otherwise, as a pattern over its message,
# and the constructor's wording of it. A template's fields are the pattern's
# groups, the document's header keys, and the parts of the case the message
# names; a key the document or case lacks reads None.
_REWORDED = [
    (r"suite_id must be an identifier", "suite id is not an identifier: {suite_id!r}"),
    (r"version must be a token", "suite version is not a token: {version!r}"),
    (
        r"policy_hash_pin must be 64 lowercase hex digits",
        "policy hash pin is not 64 lowercase hex digits: {policy_hash_pin!r}",
    ),
    (r"mechanism (?P<entry>.+) is not a token", "mechanism is not a token: {entry}"),
    (r"case '(?P<id>\w+)': description must be a string", "case '{id}': description is not a string: {description!r}"),
    (r"case '(?P<id>\w+)': mechanism must be a token", "case '{id}': mechanism is not a token: {mechanism!r}"),
    (
        r"case '(?P<id>\w+)': field name (?P<name>.+) is not an identifier",
        "case '{id}': field name is not an identifier: {name}",
    ),
    (
        r"case '(?P<id>\w+)': bad recommend expectation (?P<value>'.*'|\".*\")",
        "case '{id}': class id is not an identifier: {value}",
    ),
]


def _reworded(message, document):
    for pattern, template in _REWORDED:
        match = re.fullmatch(pattern, message, re.S)
        if match:
            named = match.groupdict().get("id")
            case = next((raw for raw in document["cases"] if isinstance(raw, dict) and raw.get("id") == named), {})
            return template.format_map(defaultdict(lambda: None, {**document, **case, **match.groupdict()}))
    return message


_MISSING = object()  # a header key or case part left out
_FIRST = object()  # a mechanism entry that repeats the first


def _edited(document, edit):
    """``document`` with one edit applied; each position is taken modulo the
    length of what it indexes."""
    doc = copy.deepcopy(document)
    kind, at, *rest = edit
    cases = doc["cases"]
    if kind in ("header", "case"):
        target = doc if kind == "header" else cases[at % len(cases)]
        key, value = rest
        if value is _MISSING:
            target.pop(key, None)
        else:
            target[key] = value
    elif kind == "mechanism":
        entry, replace = rest
        mechanisms, position = doc["mechanisms"], at % len(doc["mechanisms"])
        mechanisms[position : position + replace] = [mechanisms[0] if entry is _FIRST else entry]
    elif kind == "case_value":
        cases[at % len(cases)] = rest[0]
    elif kind == "repeat_id":
        source, target = at % len(cases), (at + 1 + rest[0] % (len(cases) - 1)) % len(cases)
        cases[target]["id"] = cases[source]["id"]
    elif kind in ("field_value", "field_name"):
        fields = cases[at % len(cases)]["fields"]
        if fields:
            names = list(fields)
            name = names[rest[0] % len(names)]
            if kind == "field_value":
                fields[name] = rest[1]
            else:
                cases[at % len(cases)]["fields"] = {rest[1] if n == name else n: v for n, v in fields.items()}
    return doc


_BASES = [json.loads(reference_suite_text()), EVERY_KIND]
_AT = st.integers(0, 1000)
_NOT_STR = st.sampled_from([3, None, True, ["a"], {"a": 1}])
_SUITE_EDIT = st.one_of(
    st.tuples(
        st.just("header"),
        _AT,
        st.sampled_from(["suite_id", "version", "policy_hash_pin", "mechanisms", "cases"]),
        st.sampled_from(["other", "v2", "ab" * 32, "Not An Id", "V1", "AB" * 32, "zz", "9a", "a\n", "", _MISSING])
        | _NOT_STR,
    ),
    st.tuples(st.just("mechanism"), _AT, st.sampled_from(["extra", "Bad", "", _FIRST]) | _NOT_STR, st.booleans()),
    st.tuples(
        st.just("case"),
        _AT,
        st.sampled_from(["id", "description", "mechanism", "fields", "expect", "note"]),
        st.sampled_from(["other", "ghost", "Bad Id", "c01\n", "half \ud800 pair", "mech_a", "missing_required", _MISSING])
        | _NOT_STR
        | st.sampled_from(
            [
                {"recommend": "Bad Class"},
                {"recommend": "it's"},
                {"recommend": ""},
                {"recommend": None},
                {"recommend": "narrow"},
                {"abstain": "whimsy"},
                {"abstain": ["x"]},
                {"explode": True},
                {},
                [],
            ]
        ),
    ),
    st.tuples(st.just("case_value"), _AT, _NOT_STR | st.just("c01")),
    st.tuples(st.just("repeat_id"), _AT, _AT),
    st.tuples(
        st.just("field_value"),
        _AT,
        _AT,
        st.sampled_from([1.5, "Bad", [["a"]], [], ["a", "a"], 2**63, "1.23456", "tok", "2.5", -7]) | _NOT_STR,
    ),
    st.tuples(st.just("field_name"), _AT, _AT, st.sampled_from(["Not Ident", "9a", "x\n", "", "other_name"])),
)


def _outcome(parse, text):
    suite, diags = parse(text)
    return suite and suite_hash(suite), [(d.severity, d.code) for d in diags], [d.message for d in diags]


# One example per finding: each reworded message, then each other code.
@settings(max_examples=600)
@given(st.sampled_from(range(len(_BASES))), _SUITE_EDIT)
@example(0, ("header", 0, "suite_id", "Not An Id"))
@example(0, ("header", 0, "version", 3))
@example(0, ("header", 0, "policy_hash_pin", "zz"))
@example(0, ("mechanism", 0, "Bad", True))
@example(1, ("case", 0, "description", None))
@example(1, ("case", 0, "mechanism", "Bad"))
@example(1, ("field_name", 0, 0, "Not Ident"))
@example(1, ("case", 0, "expect", {"recommend": "Bad Class"}))
@example(0, ("case", 0, "description", "half \ud800 pair"))
@example(0, ("case", 0, "mechanism", "ghost"))
@example(0, ("repeat_id", 0, 0))
@example(0, ("header", 0, "cases", _MISSING))
@example(0, ("case_value", 0, 3))
@example(0, ("field_value", 0, 0, 1.5))
@example(0, ("case", 0, "expect", {"abstain": "whimsy"}))
@example(0, ("header", 0, "mechanisms", 3))
@example(0, ("mechanism", 0, _FIRST, False))
@example(0, ("header", 0, "notes", 1))
def test_the_one_checker_reports_every_single_defect_as_the_two_layer_parser(base, edit):
    document = _edited(_BASES[base], edit)
    text = json.dumps(document)
    digest, codes, messages = _outcome(parse_suite, text)
    reference_digest, reference_codes, reference_messages = _outcome(_reference_parse, text)
    assert codes == reference_codes
    assert digest == reference_digest
    assert messages == [_reworded(message, document) for message in reference_messages]


def _base_case(**changes):
    suite, _ = _parse(BASE)
    assert suite is not None
    return suite.cases[0]._replace(**changes)


def _base_suite(**changes):
    suite, _ = _parse(BASE)
    assert suite is not None
    return suite._replace(**changes)


def _case_doc(**changes):
    return _doc(cases=[{**BASE["cases"][0], **changes}, BASE["cases"][1]])


# Per rule: a document that breaks it, the same defect built in code, and
# the prefix by which the parser names the case.
_RULES = {
    "suite_id": (_doc(suite_id="Not An Id"), lambda: _base_suite(suite_id="Not An Id"), ""),
    "version": (_doc(version=3), lambda: _base_suite(version=3), ""),
    "pin": (_doc(policy_hash_pin="zz"), lambda: _base_suite(policy_hash_pin="zz"), ""),
    "mechanism_token": (
        _doc(mechanisms=["mech_a", "mech_b", "Bad"]),
        lambda: _base_suite(mechanisms=("mech_a", "mech_b", "Bad")),
        "",
    ),
    "repeated_case_id": (
        _doc(cases=[BASE["cases"][0], {**BASE["cases"][1], "id": "k1"}]),
        lambda: _base_suite(cases=(_base_case(), _base_case(mechanism="mech_b"))),
        "",
    ),
    "unknown_mechanism": (_case_doc(mechanism="ghost"), lambda: _base_suite(cases=(_base_case(mechanism="ghost"),)), ""),
    "empty_suite": (_doc(cases=[]), lambda: _base_suite(cases=()), ""),
    "description_not_a_string": (_case_doc(description=3), lambda: _base_case(description=3), "case 'k1': "),
    "lone_surrogate": (
        _case_doc(description="half \ud800 pair"),
        lambda: _base_case(description="half \ud800 pair"),
        "case 'k1': ",
    ),
    "case_mechanism_token": (_case_doc(mechanism="Bad"), lambda: _base_case(mechanism="Bad"), "case 'k1': "),
    "field_name": (
        _case_doc(fields={"Not Ident": 40}),
        lambda: _base_case(fields={"Not Ident": FieldValue.integer(40)}),
        "case 'k1': ",
    ),
    "expected_class_id": (
        _case_doc(expect={"recommend": "Bad Class"}),
        lambda: ExpectedBehavior(Action.RECOMMEND, class_id="Bad Class"),
        "case 'k1': ",
    ),
}


@pytest.mark.parametrize(("document", "build", "prefix"), list(_RULES.values()), ids=list(_RULES))
def test_a_suite_defect_is_worded_alike_in_text_and_in_code(document, build, prefix):
    suite, diags = _parse(document)
    assert suite is None and len(diags) == 1
    with pytest.raises(ValueError) as refused:
        build()
    assert diags[0].message == prefix + str(refused.value)
