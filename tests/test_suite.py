import json

from absgate import load_reference_policy, parse_suite, suite_hash
from absgate.reference import reference_suite_text
from absgate.suite import bind_suite, suite_canonical

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


def test_malformed_document_reports_location():
    suite, diags = parse_suite('{"suite_id": }')
    assert suite is None
    assert [d.code for d in diags] == ["malformed_document"]
    assert diags[0].line >= 1


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
    assert suite_canonical(with_pin)["policy_hash_pin"] == pin
    assert "policy_hash_pin" not in suite_canonical(without)
    assert suite_canonical(without)["mechanisms"] == ["mech_a", "mech_b"]
