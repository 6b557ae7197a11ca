"""Policy declarations: schema, classes, rules, stewardship, hashing.

A ``Policy`` is a fully resolved, immutable declaration set. Construction
enforces the structural invariants (identifier syntax, unique ids, resolved
references), so a successfully built ``Policy`` can always be executed;
``validate_policy`` adds the semantic lint layer on top (symmetry of
incompatibility declarations, justification reachability, and similar).

``policy_hash`` digests the canonical form, which normalizes declaration
order by sorting on ids: two documents that differ only in statement order
hash identically, while any semantic change (a rank, a threshold, a label)
changes the digest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .canon import canonical_hash
from .condition import (
    And,
    Comparison,
    Condition,
    Literal,
    print_condition,
    referenced_fields,
)
from .diagnostics import Diagnostic, Severity
from .model import IDENT_RE, TOKEN_RE, FieldKind

__all__ = [
    "NO_CANDIDATE",
    "ALL_CANDIDATES_VETOED",
    "JUSTIFIED_NOTE",
    "RESERVED_IDENTIFIERS",
    "FieldDecl",
    "ClassDecl",
    "ConsistencyConstraint",
    "ExclusionRule",
    "ClinicalRule",
    "StewardshipVeto",
    "StewardshipSpec",
    "Policy",
    "validate_policy",
    "policy_canonical",
    "policy_hash",
]

# Abstention labels for an empty candidate set before and after stewardship.
NO_CANDIDATE = "no_candidate"
ALL_CANDIDATES_VETOED = "all_candidates_vetoed"
# Stewardship note marking a definitively true escalation justification.
JUSTIFIED_NOTE = "escalation_justification"

# These identifiers carry fixed meanings in traces, abstention labels, and
# expectation wildcards; policies may not declare them as their own ids.
RESERVED_IDENTIFIERS = frozenset({NO_CANDIDATE, ALL_CANDIDATES_VETOED, JUSTIFIED_NOTE, "any"})


def _require_ident(value: str, what: str) -> None:
    if not IDENT_RE.match(value):
        raise ValueError(f"{what} is not an identifier: {value!r}")


@dataclass(frozen=True)
class FieldDecl:
    """One schema field. ``enum`` is the closed vocabulary for token kinds;
    a risk-typed tokenset has no enum and is screened against
    ``Policy.known_risks`` at decision time instead."""

    name: str
    kind: FieldKind
    enum: tuple[str, ...] | None = None
    is_risk: bool = False

    def __post_init__(self) -> None:
        _require_ident(self.name, "field name")
        if self.kind in (FieldKind.TOKEN, FieldKind.TOKEN_SET):
            if self.is_risk:
                if self.kind is not FieldKind.TOKEN_SET:
                    raise ValueError(f"risk marker requires a tokenset field: {self.name}")
                if self.enum is not None:
                    raise ValueError(f"risk-typed field carries no enumeration: {self.name}")
            else:
                if not self.enum:
                    raise ValueError(f"{self.kind.value} field requires a non-empty enumeration: {self.name}")
                if len(set(self.enum)) != len(self.enum):
                    raise ValueError(f"duplicate enumeration tokens on field {self.name}")
                for token in self.enum:
                    if not TOKEN_RE.match(token):
                        raise ValueError(f"enumeration entry is not a token: {token!r}")
        else:
            if self.enum is not None or self.is_risk:
                raise ValueError(f"{self.kind.value} field admits neither enum nor risk marker: {self.name}")
        if self.enum is not None:
            object.__setattr__(self, "enum", tuple(self.enum))


@dataclass(frozen=True)
class ClassDecl:
    """A recommendable class; lower spectrum rank means narrower."""

    class_id: str
    spectrum_rank: int
    escalation_tier: bool = False

    def __post_init__(self) -> None:
        _require_ident(self.class_id, "class id")
        if not isinstance(self.spectrum_rank, int) or self.spectrum_rank < 1:
            raise ValueError(f"spectrum rank must be a positive integer: {self.spectrum_rank!r}")


@dataclass(frozen=True)
class ConsistencyConstraint:
    rule_id: str
    forbid: Condition

    def __post_init__(self) -> None:
        _require_ident(self.rule_id, "consistency id")


@dataclass(frozen=True)
class ExclusionRule:
    rule_id: str
    label: str
    when: Condition

    def __post_init__(self) -> None:
        _require_ident(self.rule_id, "exclusion id")
        _require_ident(self.label, "exclusion label")


@dataclass(frozen=True)
class ClinicalRule:
    rule_id: str
    when: Condition
    candidate: str
    requires: tuple[str, ...] = ()
    incompatible_with: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _require_ident(self.rule_id, "rule id")
        _require_ident(self.candidate, "candidate class id")
        object.__setattr__(self, "requires", tuple(self.requires))
        object.__setattr__(self, "incompatible_with", tuple(self.incompatible_with))


@dataclass(frozen=True)
class StewardshipVeto:
    rule_id: str
    class_id: str
    when: Condition

    def __post_init__(self) -> None:
        _require_ident(self.rule_id, "veto id")
        _require_ident(self.class_id, "vetoed class id")


@dataclass(frozen=True)
class StewardshipSpec:
    escalation_justification: Condition
    class_vetoes: tuple[StewardshipVeto, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "class_vetoes", tuple(self.class_vetoes))


@dataclass(frozen=True)
class Policy:
    policy_id: str
    version: str
    schema: tuple[FieldDecl, ...]
    classes: tuple[ClassDecl, ...]
    stewardship: StewardshipSpec
    required: tuple[str, ...] = ()
    known_risks: frozenset[str] = frozenset()
    consistency: tuple[ConsistencyConstraint, ...] = ()
    exclusions: tuple[ExclusionRule, ...] = ()
    clinical_rules: tuple[ClinicalRule, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "schema", tuple(self.schema))
        object.__setattr__(self, "classes", tuple(self.classes))
        object.__setattr__(self, "required", tuple(self.required))
        object.__setattr__(self, "known_risks", frozenset(self.known_risks))
        object.__setattr__(self, "consistency", tuple(self.consistency))
        object.__setattr__(self, "exclusions", tuple(self.exclusions))
        object.__setattr__(self, "clinical_rules", tuple(self.clinical_rules))
        _require_ident(self.policy_id, "policy id")
        if not TOKEN_RE.match(self.version):
            raise ValueError(f"version is not a token: {self.version!r}")
        if not self.schema:
            raise ValueError("policy declares no fields")
        if not self.classes:
            raise ValueError("policy declares no classes")
        self._check_unique()
        self._check_references()

    def _check_unique(self) -> None:
        field_names = [f.name for f in self.schema]
        if len(set(field_names)) != len(field_names):
            raise ValueError("duplicate field declaration")
        class_ids = [c.class_id for c in self.classes]
        if len(set(class_ids)) != len(class_ids):
            raise ValueError("duplicate class declaration")
        rule_ids = (
            [c.rule_id for c in self.consistency]
            + [e.rule_id for e in self.exclusions]
            + [r.rule_id for r in self.clinical_rules]
            + [v.rule_id for v in self.stewardship.class_vetoes]
        )
        if len(set(rule_ids)) != len(rule_ids):
            raise ValueError("duplicate rule id")
        labels = [e.label for e in self.exclusions]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate exclusion label")

    def _check_references(self) -> None:
        fields = self.field_map()
        classes = {c.class_id for c in self.classes}
        rule_ids = {r.rule_id for r in self.clinical_rules}
        for name in self.required:
            if name not in fields:
                raise ValueError(f"required field is not declared: {name}")
        for token in self.known_risks:
            if not TOKEN_RE.match(token):
                raise ValueError(f"known risk is not a token: {token!r}")
        conditions: list[Condition] = [self.stewardship.escalation_justification]
        conditions.extend(c.forbid for c in self.consistency)
        conditions.extend(e.when for e in self.exclusions)
        conditions.extend(r.when for r in self.clinical_rules)
        conditions.extend(v.when for v in self.stewardship.class_vetoes)
        for cond in conditions:
            for name in referenced_fields(cond):
                if name not in fields:
                    raise ValueError(f"condition references undeclared field: {name}")
        for rule in self.clinical_rules:
            if rule.candidate not in classes:
                raise ValueError(f"rule {rule.rule_id} nominates undeclared class {rule.candidate}")
            for name in rule.requires:
                if name not in fields:
                    raise ValueError(f"rule {rule.rule_id} requires undeclared field {name}")
            for other in rule.incompatible_with:
                if other not in rule_ids:
                    raise ValueError(f"rule {rule.rule_id} incompatible with unknown rule {other}")
                if other == rule.rule_id:
                    raise ValueError(f"rule {rule.rule_id} declared incompatible with itself")
        for veto in self.stewardship.class_vetoes:
            if veto.class_id not in classes:
                raise ValueError(f"veto {veto.rule_id} targets undeclared class {veto.class_id}")

    def __getstate__(self) -> dict[str, Any]:
        # The engine caches its compiled stage programs on the instance as
        # ``_compiled``; they hold functions, so pickles and copies leave
        # them out and rebuild them on first use.
        state = dict(self.__dict__)
        state.pop("_compiled", None)
        return state

    def field_map(self) -> dict[str, FieldDecl]:
        return {f.name: f for f in self.schema}

    def class_map(self) -> dict[str, ClassDecl]:
        return {c.class_id: c for c in self.classes}

    def risk_fields(self) -> tuple[FieldDecl, ...]:
        return tuple(f for f in self.schema if f.is_risk)


def _boolean_conjunct_atoms(cond: Condition) -> frozenset[tuple[str, bool]] | None:
    """Atoms of a pure conjunction of boolean equality tests, else None."""
    if isinstance(cond, Comparison) and cond.literal.kind is FieldKind.BOOLEAN and cond.op in ("==", "!="):
        wanted = bool(cond.literal.value) if cond.op == "==" else not cond.literal.value
        return frozenset(((cond.field_name, wanted),))
    if isinstance(cond, And):
        left = _boolean_conjunct_atoms(cond.left)
        right = _boolean_conjunct_atoms(cond.right)
        if left is None or right is None:
            return None
        return left | right
    return None


def validate_policy(policy: Policy) -> list[Diagnostic]:
    """Semantic lint of a structurally valid policy.

    Error level: asymmetric incompatibility declarations, escalation-tier
    classes with no justification path, reserved identifiers. Warning
    level: clinical rules contradicting a boolean consistency constraint
    (conservative syntactic check) and risk-typed fields with an empty
    recognized-risk vocabulary.
    """
    diags: list[Diagnostic] = []
    rules = {r.rule_id: r for r in policy.clinical_rules}

    for rule in policy.clinical_rules:
        for other_id in rule.incompatible_with:
            other = rules[other_id]
            if rule.rule_id not in other.incompatible_with:
                diags.append(
                    Diagnostic(
                        Severity.ERROR,
                        "asymmetric_incompatibility",
                        f"rule '{rule.rule_id}' declares '{other_id}' incompatible but not vice versa",
                    )
                )

    escalation_classes = [c for c in policy.classes if c.escalation_tier]
    justification = policy.stewardship.escalation_justification
    if escalation_classes and justification == Literal(False):
        for decl in escalation_classes:
            diags.append(
                Diagnostic(
                    Severity.ERROR,
                    "unjustifiable_escalation_class",
                    f"escalation-tier class '{decl.class_id}' can never be justified "
                    "(justification condition is the false literal)",
                )
            )

    declared_ids = (
        [("class", c.class_id) for c in policy.classes]
        + [("consistency", c.rule_id) for c in policy.consistency]
        + [("exclusion", e.rule_id) for e in policy.exclusions]
        + [("label", e.label) for e in policy.exclusions]
        + [("rule", r.rule_id) for r in policy.clinical_rules]
        + [("veto", v.rule_id) for v in policy.stewardship.class_vetoes]
    )
    for what, ident in declared_ids:
        if ident in RESERVED_IDENTIFIERS:
            diags.append(
                Diagnostic(Severity.ERROR, "reserved_identifier", f"{what} id '{ident}' is reserved")
            )

    for constraint in policy.consistency:
        forbid_atoms = _boolean_conjunct_atoms(constraint.forbid)
        if not forbid_atoms:
            continue
        for rule in policy.clinical_rules:
            rule_atoms = _boolean_conjunct_atoms(rule.when)
            if rule_atoms and forbid_atoms <= rule_atoms:
                diags.append(
                    Diagnostic(
                        Severity.WARNING,
                        "unreachable_rule",
                        f"rule '{rule.rule_id}' contradicts consistency constraint '{constraint.rule_id}'",
                    )
                )

    if policy.risk_fields() and not policy.known_risks:
        diags.append(
            Diagnostic(
                Severity.WARNING,
                "empty_known_risks",
                "risk-typed fields declared but known_risks is empty; every risk token will be unknown",
            )
        )

    return diags


def _field_canonical(decl: FieldDecl) -> dict[str, Any]:
    entry: dict[str, Any] = {"name": decl.name, "kind": decl.kind.value}
    if decl.enum is not None:
        entry["enum"] = sorted(decl.enum)
    if decl.is_risk:
        entry["risk"] = True
    return entry


def policy_canonical(policy: Policy) -> dict[str, Any]:
    """Canonical JSON-able form; declaration order normalized by id sort."""
    return {
        "policy": policy.policy_id,
        "version": policy.version,
        "fields": sorted((_field_canonical(f) for f in policy.schema), key=lambda e: e["name"]),
        "classes": sorted(
            (
                {"id": c.class_id, "rank": c.spectrum_rank, "escalation": c.escalation_tier}
                for c in policy.classes
            ),
            key=lambda e: e["id"],
        ),
        "required": sorted(policy.required),
        "known_risks": sorted(policy.known_risks),
        "consistency": sorted(
            ({"id": c.rule_id, "forbid": print_condition(c.forbid)} for c in policy.consistency),
            key=lambda e: e["id"],
        ),
        "exclusions": sorted(
            (
                {"id": e.rule_id, "label": e.label, "when": print_condition(e.when)}
                for e in policy.exclusions
            ),
            key=lambda e: e["id"],
        ),
        "rules": sorted(
            (
                {
                    "id": r.rule_id,
                    "requires": sorted(r.requires),
                    "when": print_condition(r.when),
                    "candidate": r.candidate,
                    "incompatible": sorted(r.incompatible_with),
                }
                for r in policy.clinical_rules
            ),
            key=lambda e: e["id"],
        ),
        "stewardship": {
            "escalation_justified_when": print_condition(policy.stewardship.escalation_justification),
            "vetoes": sorted(
                (
                    {"id": v.rule_id, "class": v.class_id, "when": print_condition(v.when)}
                    for v in policy.stewardship.class_vetoes
                ),
                key=lambda e: e["id"],
            ),
        },
    }


def policy_hash(policy: Policy) -> str:
    """SHA-256 hex digest of the canonical policy form."""
    return canonical_hash(policy_canonical(policy))
