"""Reference forms of absgate's canonical values, for tests only.

Each function returns a JSON-able tree whose canonical bytes
(``canon.canonical_bytes``: keys sorted, compact separators, UTF-8) must
equal what the package's one encoder for that value writes. The trees are
built from the key layout that README.md documents ("Canonical forms"),
and no encoder of the package is called, so a test that compares the two
compares two independent encoders. The benchmark imports ``oracle``, not
this module.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any

from absgate.condition import print_condition
from absgate.model import (
    Action,
    AuditTrace,
    CaseInput,
    ExpectedBehavior,
    FieldKind,
    FieldValue,
    StageRecord,
    SystemOutput,
)
from absgate.policy import FieldDecl, Policy
from absgate.suite import Suite


def value_form(value: FieldValue) -> Any:
    """A boolean or integer as itself, a token as its text, a decimal as a
    string with four fractional digits, a token set as its sorted tokens."""
    if value.kind is FieldKind.TOKEN_SET:
        return sorted(value.value)
    if value.kind is FieldKind.DECIMAL:
        # A FieldValue holds its decimal quantized to exponent -4, which
        # str() prints in plain notation with exactly four digits.
        return str(value.value)
    return value.value


def expected_form(expected: ExpectedBehavior) -> dict[str, str]:
    if expected.action is Action.RECOMMEND:
        detail = expected.class_id
    else:
        detail = None if expected.category is None else expected.category.value
    return {expected.action.value: "any" if detail is None else detail}


def case_form(case: CaseInput) -> dict[str, Any]:
    return {
        "id": case.case_id,
        "description": case.description,
        "mechanism": case.mechanism,
        "fields": {name: value_form(case.fields[name]) for name in case.fields},
        "expect": expected_form(case.expected),
    }


def suite_form(suite: Suite) -> dict[str, Any]:
    form = {
        "suite": suite.suite_id,
        "version": suite.version,
        "mechanisms": sorted(suite.mechanisms),
        "cases": [case_form(case) for case in _by("case_id", suite.cases)],
    }
    if suite.policy_hash_pin is not None:
        form["policy_hash_pin"] = suite.policy_hash_pin
    return form


def output_form(output: SystemOutput) -> dict[str, Any]:
    if output.action is Action.RECOMMEND:
        return {"action": "recommend", "class": output.class_id}
    reason = output.reason
    return {"action": "abstain", "category": reason.category.value, "labels": sorted(reason.labels)}


def record_form(record: StageRecord) -> dict[str, Any]:
    return {
        "stage": record.stage.value,
        "evaluated": [[rule_id, verdict.value] for rule_id, verdict in sorted(record.evaluated, key=lambda p: p[0])],
        "notes": list(record.notes),
    }


def trace_form(trace: AuditTrace) -> dict[str, Any]:
    return {"stages": [record_form(record) for record in trace.stages], "final": output_form(trace.final)}


def _field_form(decl: FieldDecl) -> dict[str, Any]:
    """``enum`` only when the field has one, ``risk`` only when it is true."""
    optional = {"enum": None if decl.enum is None else sorted(decl.enum), "risk": True if decl.is_risk else None}
    return {"name": decl.name, "kind": decl.kind.value, **{k: v for k, v in optional.items() if v is not None}}


def _by(attribute: str, items: Any) -> list[Any]:
    return sorted(items, key=attrgetter(attribute))


def policy_form(policy: Policy) -> dict[str, Any]:
    """Every list of declarations in id order, every condition as its
    ``print_condition`` text."""
    stewardship = policy.stewardship
    return {
        "policy": policy.policy_id,
        "version": policy.version,
        "fields": [_field_form(decl) for decl in _by("name", policy.schema)],
        "classes": [
            {"id": decl.class_id, "rank": decl.spectrum_rank, "escalation": decl.escalation_tier}
            for decl in _by("class_id", policy.classes)
        ],
        "required": sorted(policy.required),
        "known_risks": sorted(policy.known_risks),
        "consistency": [
            {"id": c.rule_id, "forbid": print_condition(c.forbid)} for c in _by("rule_id", policy.consistency)
        ],
        "exclusions": [
            {"id": e.rule_id, "label": e.label, "when": print_condition(e.when)}
            for e in _by("rule_id", policy.exclusions)
        ],
        "rules": [
            {
                "id": rule.rule_id,
                "when": print_condition(rule.when),
                "candidate": rule.candidate,
                "requires": sorted(rule.requires),
                "incompatible": sorted(rule.incompatible_with),
            }
            for rule in _by("rule_id", policy.clinical_rules)
        ],
        "stewardship": {
            "escalation_justified_when": print_condition(stewardship.escalation_justification),
            "vetoes": [
                {"id": veto.rule_id, "class": veto.class_id, "when": print_condition(veto.when)}
                for veto in _by("rule_id", stewardship.class_vetoes)
            ],
        },
    }

