import json

import pytest

import absgate.dsl
import absgate.policy
from absgate import format_policy, load_reference_policy, parse_policy, policy_hash, validate_policy
from absgate.canon import canonical_hash
from absgate.condition import And, Comparison, Has, Literal, Not, Or, Present, typecheck
from absgate.dsl import MAX_NESTING
from absgate.model import INT64_MAX, AbstentionCategory, FieldKind, FieldValue, SystemOutput
from absgate.policy import (
    ClassDecl,
    ClinicalRule,
    ExclusionRule,
    FieldDecl,
    Policy,
    StewardshipSpec,
    StewardshipVeto,
    _policy_json,
)

from canonical_forms import policy_form
from oracle import make_kind_policy

MINIMAL = """\
policy p version v1
field a : bool
class c1 rank 1
rule r1 when a == true candidate c1
stewardship {
  escalation_justified_when false
}
"""


def _base(**overrides):
    kwargs = dict(
        policy_id="p",
        version="v1",
        schema=(FieldDecl("a", FieldKind.BOOLEAN),),
        classes=(ClassDecl("c1", 1),),
        stewardship=StewardshipSpec(Literal(True)),
        clinical_rules=(ClinicalRule("r1", Comparison("a", "==", FieldValue.boolean(True)), "c1"),),
    )
    kwargs.update(overrides)
    return Policy(**kwargs)


def test_field_decl_invariants():
    with pytest.raises(ValueError):
        FieldDecl("a", FieldKind.TOKEN, enum=())
    with pytest.raises(ValueError):
        FieldDecl("a", FieldKind.BOOLEAN, is_risk=True)
    with pytest.raises(ValueError):
        FieldDecl("a", FieldKind.TOKEN_SET, enum=("x",), is_risk=True)
    assert FieldDecl("a", FieldKind.TOKEN_SET, is_risk=True).is_risk


def test_class_decl_requires_positive_rank():
    with pytest.raises(ValueError):
        ClassDecl("c1", 0)
    assert ClassDecl("c1", INT64_MAX).spectrum_rank == INT64_MAX


# Each builds a declaration that no policy text spells: a kind given as its
# name, a rank given as a boolean, a rank ``parse_policy`` refuses, and
# class and field flags that are not exactly ``bool``.
@pytest.mark.parametrize(
    "build",
    [
        lambda: FieldDecl("a", "boolean"),
        lambda: ClassDecl("t", True),
        lambda: ClassDecl("huge", 2**70),
        lambda: ClassDecl("t", 1, 0),
        lambda: ClassDecl("t", 1, 1.5),
        lambda: ClassDecl("t", 1, "no"),
        lambda: FieldDecl("a", FieldKind.TOKEN_SET, is_risk=1),
        lambda: FieldDecl("a", FieldKind.BOOLEAN, is_risk=0),
    ],
    ids=[
        "kind_name", "bool_rank", "rank_past_int64", "int_escalation", "float_escalation", "str_escalation",
        "int_risk", "int_no_risk",
    ],
)
def test_declarations_built_in_code_refuse_what_the_dsl_cannot_spell(build):
    with pytest.raises(ValueError):
        build()


class _Rank(int):
    """A rank that prints otherwise than ``json.dumps`` writes it."""

    def __repr__(self):
        return f"_Rank({int(self)})"

    __str__ = __repr__


def test_policies_that_compare_equal_hash_equal():
    # Spellings of a class's escalation flag, its rank and a field's risk
    # marker; every policy that builds must hash equal to exactly the
    # policies it is ``==`` to.
    built = []
    for escalation in (False, True, 0, 1, 1.5, "no"):
        for rank in (1, _Rank(1), 2):
            for risk in (False, True, 0, 1):
                try:
                    field = FieldDecl("r", FieldKind.TOKEN_SET, None if risk else ("x",), is_risk=risk)
                    policy = _base(
                        schema=(FieldDecl("a", FieldKind.BOOLEAN), field),
                        classes=(ClassDecl("c1", rank, escalation),),
                    )
                except ValueError:
                    continue
                built.append(policy)
    assert len(built) == 12
    for a in built:
        for b in built:
            assert (a == b) == (policy_hash(a) == policy_hash(b))


def test_policy_rejects_duplicate_declarations():
    with pytest.raises(ValueError):
        _base(schema=(FieldDecl("a", FieldKind.BOOLEAN), FieldDecl("a", FieldKind.INTEGER)))
    with pytest.raises(ValueError):
        _base(classes=(ClassDecl("c1", 1), ClassDecl("c1", 2)))
    with pytest.raises(ValueError):
        _base(
            exclusions=(
                ExclusionRule("e1", "L", Literal(True)),
                ExclusionRule("e2", "L", Literal(False)),
            )
        )


def test_policy_rejects_rule_id_reuse_across_sections():
    with pytest.raises(ValueError):
        _base(
            stewardship=StewardshipSpec(
                Literal(True),
                (StewardshipVeto("r1", "c1", Literal(False)),),
            )
        )


def test_policy_rejects_dangling_references():
    with pytest.raises(ValueError):
        _base(clinical_rules=(ClinicalRule("r1", Literal(True), "ghost"),))
    with pytest.raises(ValueError):
        _base(required=("ghost",))
    with pytest.raises(ValueError):
        _base(
            clinical_rules=(
                ClinicalRule("r1", Literal(True), "c1", incompatible_with=("ghost",)),
            )
        )
    with pytest.raises(ValueError):
        _base(
            clinical_rules=(
                ClinicalRule("r1", Literal(True), "c1", incompatible_with=("r1",)),
            )
        )


REFERENCE = load_reference_policy()
# The reference schema plus a token set with a closed enumeration.
_SCHEMA = REFERENCE.schema + (FieldDecl("flags", FieldKind.TOKEN_SET, ("a", "b")),)


# A name that is not a ``str`` is refused like any other malformed name:
# with ``ValueError``, before a regex match or a sort can raise ``TypeError``.
@pytest.mark.parametrize(
    ("build", "message"),
    [
        (lambda: _base(policy_id="Not Ident"), "policy id is not an identifier: 'Not Ident'"),
        (lambda: _base(version="V1"), "version is not a token: 'V1'"),
        (lambda: _base(schema=()), "policy declares no fields"),
        (lambda: _base(classes=()), "policy declares no classes"),
        (
            lambda: _base(clinical_rules=(ClinicalRule("r1", Literal(True), "c1", requires=("ghost",)),)),
            "rule 'r1' requires undeclared field 'ghost'",
        ),
        (
            lambda: _base(stewardship=StewardshipSpec(Literal(True), (StewardshipVeto("v1", "ghost", Literal(False)),))),
            "veto 'v1' targets undeclared class 'ghost'",
        ),
        (lambda: _base(version=3), "version is not a token: 3"),
        (lambda: REFERENCE.clinical_rules[0]._replace(rule_id=3), "rule id is not an identifier: 3"),
        (lambda: REFERENCE._replace(required=("age", 3)), "required field is not an identifier: 3"),
        (
            lambda: REFERENCE.clinical_rules[0]._replace(requires=("age", 3)),
            "required field is not an identifier: 3",
        ),
        (
            lambda: REFERENCE.clinical_rules[0]._replace(incompatible_with=("r1", 3)),
            "incompatible rule id is not an identifier: 3",
        ),
        (lambda: REFERENCE._replace(known_risks=frozenset({3})), "known risk is not a token: 3"),
        (lambda: FieldDecl("s", FieldKind.TOKEN, enum=("a", 3)), "enumeration entry is not a token: 3"),
        (lambda: _base(stewardship=None), "stewardship is not a StewardshipSpec: None"),
        (lambda: _base(schema=(FieldDecl("a", FieldKind.BOOLEAN), None)), "schema entry is not a FieldDecl: None"),
        (
            lambda: _base(stewardship=StewardshipSpec(Literal(True), (None,))),
            "class_vetoes entry is not a StewardshipVeto: None",
        ),
        (lambda: _base(classes=("c1",)), "classes entry is not a ClassDecl: 'c1'"),
        (lambda: StewardshipSpec(Literal(True), None), "class_vetoes is not a collection: None"),
        (lambda: ClinicalRule("r1", "a == true", "c1"), "rule condition is not a condition node: 'a == true'"),
        (
            lambda: _base(clinical_rules=(ClinicalRule("r1", And(Literal(True), "a == true"), "c1"),)),
            "right operand of And is not a condition node: 'a == true'",
        ),
    ],
    ids=[
        "policy_id",
        "version",
        "no_fields",
        "no_classes",
        "undeclared_requirement",
        "veto_on_undeclared_class",
        "version_not_str",
        "rule_id_not_str",
        "required_not_str",
        "requires_not_str",
        "incompatible_not_str",
        "known_risk_not_str",
        "enum_entry_not_str",
        "stewardship_none",
        "schema_entry_none",
        "veto_none",
        "class_not_decl",
        "vetoes_none",
        "when_str",
        "nested_when_str",
    ],
)
def test_a_declaration_built_in_code_names_its_defect(build, message):
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == message


# A bare string where a collection of names is taken is refused, not split
# into characters.
@pytest.mark.parametrize(
    "build",
    [
        lambda: SystemOutput.abstain(AbstentionCategory.MISSING_INPUTS, "age"),
        lambda: FieldDecl("s", FieldKind.TOKEN, enum="abc"),
        lambda: ClinicalRule("r1", Literal(True), "c1", requires="age"),
        lambda: ClinicalRule("r1", Literal(True), "c1", incompatible_with="r2"),
        lambda: REFERENCE._replace(required="age"),
        lambda: REFERENCE._replace(known_risks="abc"),
    ],
    ids=["labels", "enum", "requires", "incompatible_with", "required", "known_risks"],
)
def test_a_bare_string_is_no_collection_of_names(build):
    with pytest.raises(ValueError, match="^names must be a collection, not the string '"):
        build()


def _first_rule_when(cond, policy=REFERENCE):
    rule = policy.clinical_rules[0]._replace(when=cond)
    return policy._replace(clinical_rules=(rule, *policy.clinical_rules[1:]))


@pytest.mark.parametrize(
    ("cond", "message"),
    [
        (Present("ghost"), "condition references undeclared field 'ghost'"),
        (Has("age", "x"), "'has' requires a tokenset field, 'age' is integer"),
        (Comparison("risk_factors", "==", FieldValue.token("x")), "tokenset field 'risk_factors' admits only 'has'"),
        (Comparison("severity", "<", FieldValue.token("mild")), "ordering comparison on token field 'severity'"),
        (Comparison("age", "==", FieldValue.token("old")), "token literal compared against integer field 'age'"),
        (Has("flags", "c"), "token 'c' is outside the enumeration of 'flags'"),
        (Comparison("severity", "==", FieldValue.token("critical")), "token 'critical' is outside the enumeration of 'severity'"),
    ],
)
def test_a_policy_is_type_checked_when_built(cond, message):
    policy = REFERENCE._replace(schema=_SCHEMA)
    assert [d.message for d in typecheck(cond, policy.field_map())] == [message]
    with pytest.raises(ValueError) as refused:
        _first_rule_when(And(Present("age"), Not(cond)), policy)
    assert str(refused.value) == message


def test_the_first_mistyped_condition_in_declaration_order_is_reported():
    # Rules, then consistency, exclusions, justification and vetoes, as
    # ``parse_policy`` reports them; within a condition, leaf order.
    rule = REFERENCE.clinical_rules[0]._replace(when=Comparison("age", "==", FieldValue.token("old")))
    stewardship = REFERENCE.stewardship._replace(escalation_justification=And(Has("sex", "x"), Present("ghost")))
    with pytest.raises(ValueError, match="^token literal compared against integer field 'age'$"):
        REFERENCE._replace(clinical_rules=(rule,), stewardship=stewardship)
    with pytest.raises(ValueError, match="^'has' requires a tokenset field, 'sex' is token$"):
        REFERENCE._replace(stewardship=stewardship)


_A_TRUE = Comparison("a", "==", FieldValue.boolean(True))


# One defect of each kind that the reference checker finds, spelled in
# ``MINIMAL``'s text and built in code.
@pytest.mark.parametrize(
    ("old", "new", "overrides", "code"),
    [
        ("class c1", "require ghost\nclass c1", dict(required=("ghost",)), "unknown_field"),
        (
            "rule r1 when",
            "rule r1 requires ghost when",
            dict(clinical_rules=(ClinicalRule("r1", _A_TRUE, "c1", requires=("ghost",)),)),
            "unknown_field",
        ),
        ("candidate c1", "candidate ghost", dict(clinical_rules=(ClinicalRule("r1", _A_TRUE, "ghost"),)), "unknown_class"),
        (
            "candidate c1",
            "candidate c1 incompatible r9",
            dict(clinical_rules=(ClinicalRule("r1", _A_TRUE, "c1", incompatible_with=("r9",)),)),
            "unknown_rule",
        ),
        (
            "candidate c1",
            "candidate c1 incompatible r1",
            dict(clinical_rules=(ClinicalRule("r1", _A_TRUE, "c1", incompatible_with=("r1",)),)),
            "self_incompatibility",
        ),
        (
            "when false",
            "when false\n  veto v1 class ghost when a == true",
            dict(stewardship=StewardshipSpec(Literal(True), (StewardshipVeto("v1", "ghost", _A_TRUE),))),
            "unknown_class",
        ),
        (
            "a == true",
            "a == 1",
            dict(clinical_rules=(ClinicalRule("r1", Comparison("a", "==", FieldValue.integer(1)), "c1"),)),
            "type_mismatch",
        ),
    ],
    ids=["required", "requires", "candidate", "unknown_incompatible", "self_incompatible", "veto_class", "condition_type"],
)
def test_a_defect_is_worded_alike_in_text_and_in_code(old, new, overrides, code):
    policy, diags = parse_policy(MINIMAL.replace(old, new))
    assert policy is None and diags[0].code == code
    with pytest.raises(ValueError) as refused:
        _base(**overrides)
    assert str(refused.value) == diags[0].message


# One repeated declaration of each kind, spelled in ``MINIMAL``'s text and
# built in code.
@pytest.mark.parametrize(
    ("old", "new", "overrides", "code"),
    [
        (
            "field a : bool",
            "field a : bool\nfield a : int",
            dict(schema=(FieldDecl("a", FieldKind.BOOLEAN), FieldDecl("a", FieldKind.INTEGER))),
            "duplicate_field",
        ),
        (
            "class c1 rank 1",
            "class c1 rank 1\nclass c1 rank 2",
            dict(classes=(ClassDecl("c1", 1), ClassDecl("c1", 2))),
            "duplicate_class",
        ),
        (
            "rule r1 when",
            "exclude r1 label L when a == true\nrule r1 when",
            dict(exclusions=(ExclusionRule("r1", "L", _A_TRUE),)),
            "duplicate_rule_id",
        ),
        (
            "rule r1 when",
            "exclude e1 label L when a == true\nexclude e2 label L when a == true\nrule r1 when",
            dict(exclusions=(ExclusionRule("e1", "L", _A_TRUE), ExclusionRule("e2", "L", _A_TRUE))),
            "duplicate_label",
        ),
    ],
    ids=["field", "class", "rule_id", "exclusion_label"],
)
def test_a_repeated_declaration_is_worded_alike_in_text_and_in_code(old, new, overrides, code):
    policy, diags = parse_policy(MINIMAL.replace(old, new))
    assert policy is None and [diag.code for diag in diags] == [code]
    with pytest.raises(ValueError) as refused:
        _base(**overrides)
    assert str(refused.value) == diags[0].message


@pytest.mark.parametrize("text", [format_policy(REFERENCE), format_policy(make_kind_policy(0))], ids=["reference", "kinds"])
def test_a_clean_parse_type_checks_each_condition_once(text, monkeypatch):
    calls = []

    def counted(cond, schema):
        calls.append(cond)
        return typecheck(cond, schema)

    monkeypatch.setattr(absgate.policy, "typecheck", counted)
    # The parser's own binding too, should it ever check a condition itself.
    monkeypatch.setattr(absgate.dsl, "typecheck", counted, raising=False)
    policy, diags = parse_policy(text)
    assert diags == []
    conditions = [
        *(c.forbid for c in policy.consistency),
        *(e.when for e in policy.exclusions),
        *(r.when for r in policy.clinical_rules),
        policy.stewardship.escalation_justification,
        *(v.when for v in policy.stewardship.class_vetoes),
    ]
    assert sorted(map(id, calls)) == sorted(map(id, conditions))


def test_a_mistyped_policy_built_in_code_never_reaches_a_case():
    # Built, it would raise a kind error in ``decide`` and format to text
    # that does not parse back.
    with pytest.raises(ValueError, match="^token literal compared against integer field 'age'$"):
        _first_rule_when(Comparison("age", "==", FieldValue.token("old")))
    with pytest.raises(ValueError, match="^'has' requires a tokenset field, 'age' is integer$"):
        _first_rule_when(Has("age", "x"))
    # A well-typed replacement builds and round-trips through text.
    policy = _first_rule_when(Comparison("age", ">=", FieldValue.integer(65)))
    reparsed, diags = parse_policy(format_policy(policy))
    assert diags == [] and reparsed == policy


@pytest.mark.parametrize(
    ("mutation", "code", "severity"),
    [
        (lambda t: t.replace("rule r1 when", "rule any when"), "reserved_identifier", "error"),
        (
            lambda t: t.replace("class c1 rank 1\n", "class c1 rank 1\nclass no_candidate rank 2\n"),
            "reserved_identifier",
            "error",
        ),
        (
            lambda t: t.replace(
                "rule r1 when a == true candidate c1\n",
                "rule r1 when a == true candidate c1 incompatible r2\n"
                "rule r2 when a == false candidate c1\n",
            ),
            "asymmetric_incompatibility",
            "error",
        ),
        (
            lambda t: t.replace("class c1 rank 1", "class c1 rank 1 escalation"),
            "unjustifiable_escalation_class",
            "error",
        ),
        (
            lambda t: t.replace(
                "rule r1 when a == true candidate c1\n",
                "consistency x1 forbid (a == true)\nrule r1 when a == true candidate c1\n",
            ),
            "unreachable_rule",
            "warning",
        ),
        (
            lambda t: t.replace("field a : bool\n", "field a : bool\nfield rf : tokenset risk\n"),
            "empty_known_risks",
            "warning",
        ),
    ],
)
def test_validate_policy_semantic_checks(mutation, code, severity):
    policy, diags = parse_policy(mutation(MINIMAL))
    assert policy is not None and diags == []
    findings = validate_policy(policy)
    matched = [d for d in findings if d.code == code]
    assert matched, [d.render() for d in findings]
    assert all(d.severity.value == severity for d in matched)


@pytest.mark.parametrize(
    ("when", "flagged"),
    [
        ("(b == false and (a == true and b != true))", True),
        # The check is syntactic: any other node makes it pass the rule.
        ("(a == true or b == false)", False),
        ("(b == false and (not (not a == true)))", False),
        ("(a == true and (b == false and present(b)))", False),
    ],
)
def test_unreachable_rule_reads_only_conjunctions_of_boolean_tests(when, flagged):
    text = MINIMAL.replace("field a : bool\n", "field a : bool\nfield b : bool\n").replace(
        "rule r1 when a == true candidate c1\n",
        f"consistency x1 forbid (a == true and b == false)\nrule r1 when {when} candidate c1\n",
    )
    policy, diags = parse_policy(text)
    assert policy is not None and diags == []
    codes = [d.code for d in validate_policy(policy)]
    assert codes == (["unreachable_rule"] if flagged else [])


def test_unreachable_rule_walks_each_condition_once(monkeypatch):
    # Three constraints that are conjunctions of boolean tests, one that is
    # not, and four rules: each condition is read once, not once per pair.
    fields = "".join(f"field {name} : bool\n" for name in "abcd")
    text = MINIMAL.replace("field a : bool\n", fields).replace(
        "rule r1 when a == true candidate c1\n",
        "consistency x1 forbid (a == true and b == false)\n"
        "consistency x2 forbid (c == true)\n"
        "consistency x3 forbid (a == true or d == true)\n"
        "consistency x4 forbid (b == false and d != false)\n"
        "rule r1 when (a == true and b == false) candidate c1\n"
        "rule r2 when (b == false and d == true and c == true) candidate c1\n"
        "rule r3 when present(a) candidate c1\n"
        "rule r4 when c == true candidate c1\n",
    )
    policy, diags = parse_policy(text)
    assert policy is not None and diags == []
    walked = []

    def counted(cond):
        walked.append(cond)
        return conjunct_atoms(cond)

    conjunct_atoms = absgate.policy._boolean_conjunct_atoms
    monkeypatch.setattr(absgate.policy, "_boolean_conjunct_atoms", counted)
    assert [d.message for d in validate_policy(policy) if d.code == "unreachable_rule"] == [
        "rule 'r1' contradicts consistency constraint 'x1'",
        "rule 'r2' contradicts consistency constraint 'x2'",
        "rule 'r4' contradicts consistency constraint 'x2'",
        "rule 'r2' contradicts consistency constraint 'x4'",
    ]
    conditions = [c.forbid for c in policy.consistency] + [r.when for r in policy.clinical_rules]
    assert sorted(map(id, walked)) == sorted(map(id, conditions))


def test_validate_policy_passes_clean_text():
    policy, _ = parse_policy(MINIMAL)
    assert policy is not None
    assert validate_policy(policy) == []


def test_escalation_with_real_justification_is_not_flagged():
    text = MINIMAL.replace("class c1 rank 1", "class c1 rank 1 escalation").replace(
        "escalation_justified_when false", "escalation_justified_when a == true"
    )
    policy, diags = parse_policy(text)
    assert policy is not None and diags == []
    assert validate_policy(policy) == []


def test_canonical_form_sorts_declarations():
    policy, _ = parse_policy(
        MINIMAL.replace("field a : bool\n", "field z : int\nfield a : bool\n")
    )
    assert policy is not None
    doc = json.loads(_policy_json(policy))
    assert [entry["name"] for entry in doc["fields"]] == ["a", "z"]
    assert doc["policy"] == "p"
    assert doc["version"] == "v1"


def test_a_repeated_required_name_is_held_once():
    repeated = REFERENCE._replace(required=(*REFERENCE.required, "age"))
    assert repeated.required == ("age", "pregnant", "syndrome")
    assert repeated == REFERENCE
    assert policy_hash(repeated) == policy_hash(REFERENCE)


def test_hash_is_pure_and_content_addressed():
    policy, _ = parse_policy(MINIMAL)
    again, _ = parse_policy(MINIMAL)
    assert policy is not None and again is not None
    assert policy_hash(policy) == policy_hash(again)
    assert len(policy_hash(policy)) == 64
    renamed, _ = parse_policy(MINIMAL.replace("policy p ", "policy q "))
    assert renamed is not None
    assert policy_hash(renamed) != policy_hash(policy)


def _deeper_than_the_dsl_allows():
    cond = Comparison("a", "==", FieldValue.boolean(True))
    for level in range(MAX_NESTING + 20):
        cond = Not(cond) if level % 3 == 0 else (And, Or)[level % 2](Present("a"), cond)
    return cond


_RISKS = frozenset(f"risk{i}" for i in range(12))
_RISK_SCHEMA = (FieldDecl("a", FieldKind.BOOLEAN), FieldDecl("r", FieldKind.TOKEN_SET, is_risk=True))


# Policies that no policy text spells, or that exercise one part of the
# canonical form each; ``make_kind_policy`` declares a field of every kind.
# Twelve known risks, so that their set's order is all but never sorted.
@pytest.mark.parametrize(
    "build",
    [
        load_reference_policy,
        lambda: _base(clinical_rules=(ClinicalRule("r1", _deeper_than_the_dsl_allows(), "c1"),)),
        lambda: _base(schema=_RISK_SCHEMA, known_risks=_RISKS),
        lambda: _base(schema=_RISK_SCHEMA),
        lambda: _base(classes=(ClassDecl("c1", _Rank(3), True), ClassDecl("c0", INT64_MAX))),
        lambda: make_kind_policy(3),
        lambda: make_kind_policy(11),
    ],
    ids=["reference", "deeper_than_max_nesting", "risk_field", "empty_known_risks", "int_subclass_rank", "kinds_3",
         "kinds_11"],
)
def test_policy_hash_is_the_digest_of_the_reference_canonical_form(build):
    policy = build()
    assert policy_hash(policy) == canonical_hash(policy_form(policy))
