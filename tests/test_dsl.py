import pytest

from absgate import format_policy, parse_policy, policy_hash
from absgate.reference import reference_policy_text

MINIMAL = """\
policy p version v1
field a : bool
class c1 rank 1
rule r1 when a == true candidate c1
stewardship {
  escalation_justified_when false
}
"""


def test_minimal_policy_parses_clean():
    policy, diags = parse_policy(MINIMAL)
    assert diags == []
    assert policy is not None
    assert policy.policy_id == "p"
    assert policy.version == "v1"
    assert [c.class_id for c in policy.classes] == ["c1"]


def test_reference_policy_parses_clean():
    policy, diags = parse_policy(reference_policy_text())
    assert diags == []
    assert policy is not None
    assert len(policy.schema) == 13
    assert len(policy.classes) == 5
    assert len(policy.clinical_rules) == 10
    assert policy.required == ("age", "syndrome", "pregnant")


@pytest.mark.parametrize(
    ("mutation", "code"),
    [
        (lambda t: t + "policy q version v2\n", "duplicate_header"),
        (lambda t: t.replace("field a : bool\n", "field a : bool\nfield a : int\n"), "duplicate_field"),
        (lambda t: t.replace("class c1 rank 1\n", "class c1 rank 1\nclass c1 rank 2\n"), "duplicate_class"),
        (
            lambda t: t.replace(
                "rule r1 when a == true candidate c1\n",
                "rule r1 when a == true candidate c1\nrule r1 when a == false candidate c1\n",
            ),
            "duplicate_rule_id",
        ),
        (lambda t: t.replace("rank 1", "rank 0"), "invalid_rank"),
        (lambda t: t.replace("field a : bool", "field a : bool $"), "unexpected_character"),
        (lambda t: t.replace("stewardship {\n  escalation_justified_when false\n}\n", ""), "missing_section"),
        (lambda t: t.replace("class c1 rank 1\n", "class c1 rank 1\nrequire ghost\n"), "unknown_field"),
        (lambda t: t.replace("candidate c1", "candidate ghost"), "unknown_class"),
        (lambda t: t.replace("candidate c1", "candidate c1 incompatible ghost"), "unknown_rule"),
        (lambda t: t.replace("candidate c1", "candidate c1 incompatible r1"), "self_incompatibility"),
        (lambda t: t.replace("field a : bool", "field a : wibble"), "syntax_error"),
        (lambda t: t.replace("field a : bool", "field a : token { x, x }"), "duplicate_enum_token"),
        (
            lambda t: t.replace(
                "rule r1",
                "exclude e1 label L when a == true\nexclude e2 label L when a == false\nrule r1",
            ),
            "duplicate_label",
        ),
        (lambda t: t.replace("when a == true", "when a < 3"), "type_mismatch"),
        (lambda t: t.replace("when a == true", "when ghost == true"), "unknown_field"),
    ],
)
def test_defect_produces_expected_diagnostic(mutation, code):
    policy, diags = parse_policy(mutation(MINIMAL))
    assert policy is None
    assert code in {d.code for d in diags}
    assert all(d.severity.value == "error" for d in diags if d.code == code)


def test_recovery_reports_independent_errors():
    text = MINIMAL.replace("field a : bool", "field a : wibble\nfield b : alsobad")
    policy, diags = parse_policy(text)
    assert policy is None
    assert sum(1 for d in diags if d.code == "syntax_error") == 2


def test_diagnostics_carry_positions():
    policy, diags = parse_policy(MINIMAL.replace("field a : bool", "field a : bool $"))
    assert policy is None
    ours = [d for d in diags if d.code == "unexpected_character"]
    assert ours and ours[0].line == 2


# Declares every field type keyword; the reference policy has no closed tokenset.
EVERY_FIELD_TYPE = """\
policy every_kind version v2
field b : bool
field i : int
field d : decimal
field t : token { lo, hi }
field s : tokenset { x, y, z }
field r : tokenset risk
class c1 rank 1
class c2 rank 2 escalation
require b, i
known_risks { fever, rash }
consistency k1 forbid i < 0 and d > 1.5
exclude e1 label L1 when t == hi and s has x
rule r1 requires d when b == true or r has fever candidate c1 incompatible r2
rule r2 when not (i >= 3) and present(s) candidate c2
stewardship {
  escalation_justified_when absent(r)
  veto v1 class c2 when d <= 0.25
}
"""


def test_format_round_trips_to_the_same_hash():
    for source in (reference_policy_text(), EVERY_FIELD_TYPE):
        original, diags = parse_policy(source)
        assert original is not None and diags == []
        text = format_policy(original)
        reparsed, rediags = parse_policy(text)
        assert rediags == []
        assert reparsed is not None
        assert policy_hash(reparsed) == policy_hash(original)


# One policy with every statement-time duplicate and every resolve-phase
# check; rule r1 also names an exclusion id, which is not a clinical rule.
MULTI_DEFECT = """\
policy p version v1
policy q version v2
field a : bool
field a : int
field t : token { x, y, x }
field risks : tokenset risk
class c1 rank 1
class c1 rank 2
require a, ghost
known_risks { fever fever }
consistency k1 forbid a < 3
exclude e1 label L when a > 1
exclude e2 label L when a == false
rule r1 requires ghost2 when a == 1 candidate nowhere incompatible r1, r9, e1
rule r1 when a == true candidate c1
stewardship {
  escalation_justified_when a >= 2
  veto v1 class c9 when a != 0
}
stewardship {
  escalation_justified_when false
}
"""


def test_diagnostics_keep_their_order_codes_and_positions():
    policy, diags = parse_policy(MULTI_DEFECT)
    assert policy is None
    assert [d.render() for d in diags] == [
        "ERROR duplicate_header 2:1 policy header declared twice",
        "ERROR duplicate_field 4:7 field 'a' declared twice",
        "ERROR duplicate_enum_token 5:25 enumeration token 'x' repeated",
        "ERROR duplicate_class 8:7 class 'c1' declared twice",
        "ERROR duplicate_label 13:18 exclusion label 'L' declared twice",
        "ERROR duplicate_rule_id 15:6 rule id 'r1' declared twice",
        "ERROR duplicate_stewardship 20:1 stewardship block declared twice",
        "ERROR unknown_field 9:12 required field 'ghost' is not declared",
        "ERROR type_mismatch 14:30 integer literal compared against boolean field 'a'",
        "ERROR unknown_field 14:18 rule 'r1' requires undeclared field 'ghost2'",
        "ERROR unknown_class 14:47 rule 'r1' nominates undeclared class 'nowhere'",
        "ERROR self_incompatibility 14:68 rule 'r1' declared incompatible with itself",
        "ERROR unknown_rule 14:72 rule 'r1' incompatible with unknown rule 'r9'",
        "ERROR unknown_rule 14:76 rule 'r1' incompatible with unknown rule 'e1'",
        "ERROR type_mismatch 11:23 ordering comparison on boolean field 'a'",
        "ERROR type_mismatch 12:25 ordering comparison on boolean field 'a'",
        "ERROR type_mismatch 17:29 ordering comparison on boolean field 'a'",
        "ERROR type_mismatch 18:25 integer literal compared against boolean field 'a'",
        "ERROR unknown_class 18:17 veto 'v1' targets undeclared class 'c9'",
    ]


def test_comments_and_whitespace_do_not_change_the_hash():
    base, _ = parse_policy(MINIMAL)
    noisy = "# leading comment\n\n" + MINIMAL.replace(
        "field a : bool", "field   a   :   bool  # trailing comment"
    ).replace("class c1 rank 1", "\n\nclass c1 rank 1")
    other, diags = parse_policy(noisy)
    assert diags == []
    assert other is not None and base is not None
    assert policy_hash(other) == policy_hash(base)


def test_declaration_order_does_not_change_the_hash():
    doubled = MINIMAL.replace(
        "field a : bool\n", "field a : bool\nfield b : int\n"
    ).replace(
        "rule r1 when a == true candidate c1\n",
        "rule r1 when a == true candidate c1\nrule r2 when b >= 3 candidate c1\n",
    )
    swapped = doubled.replace(
        "field a : bool\nfield b : int\n", "field b : int\nfield a : bool\n"
    ).replace(
        "rule r1 when a == true candidate c1\nrule r2 when b >= 3 candidate c1\n",
        "rule r2 when b >= 3 candidate c1\nrule r1 when a == true candidate c1\n",
    )
    first, d1 = parse_policy(doubled)
    second, d2 = parse_policy(swapped)
    assert d1 == [] and d2 == []
    assert first is not None and second is not None
    assert policy_hash(first) == policy_hash(second)


def test_semantic_change_changes_the_hash():
    base, _ = parse_policy(MINIMAL)
    bumped, diags = parse_policy(MINIMAL.replace("rank 1", "rank 2"))
    assert diags == []
    assert base is not None and bumped is not None
    assert policy_hash(bumped) != policy_hash(base)


def test_requires_and_incompatible_clauses_parse():
    text = MINIMAL.replace(
        "rule r1 when a == true candidate c1\n",
        "rule r1 requires a when a == true candidate c1 incompatible r2\n"
        "rule r2 when a == false candidate c1 incompatible r1\n",
    )
    policy, diags = parse_policy(text)
    assert diags == []
    assert policy is not None
    first = policy.clinical_rules[0]
    assert first.requires == ("a",)
    assert first.incompatible_with == ("r2",)
