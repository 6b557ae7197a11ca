"""Policy declarations: schema, classes, rules, stewardship, hashing.

A ``Policy`` is a fully resolved, immutable declaration set. Construction
enforces each part's type (``_typed``), identifier syntax and unique ids,
then raises the first finding of ``reference_findings``, which
``parse_policy`` reports in full, so a defect reads alike in text and in code. A built ``Policy`` can always be executed
on a case ``bind_suite`` accepts; ``validate_policy`` adds the semantic lint
layer on top (symmetry of incompatibility declarations, justification
reachability, and similar).

Construction owns declaration order: a ``Policy`` holds its fields,
classes and rules sorted by id, and each list of names sorted without
duplicates. So documents that differ only in statement order build ``==``
policies that print and hash identically (``==`` agrees with
``policy_hash``), while any semantic change (a rank, a threshold, a label)
changes the digest. Flags are exactly ``bool`` for the same reason.

``policy_hash`` digests the canonical JSON text that ``_policy_json``
writes directly, as ``suite_hash`` does for suites, each condition as its
``print_condition`` text; the README gives the key layout.
"""

from __future__ import annotations

from collections.abc import Iterable
from json.encoder import encode_basestring as _quote
from operator import attrgetter
from typing import Any, Container, Iterator, Mapping, Sequence

from .canon import sha256_hex
from .condition import (
    And,
    Comparison,
    Condition,
    Literal,
    _Node,
    _postfix,
    print_condition,
    typecheck,
)
from .diagnostics import Diagnostic, Severity
from .model import IDENT_RE, INT64_MAX, TOKEN_RE, FieldKind, _Frozen, _name, _set, _sorted_names

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
    "reference_findings",
    "validate_policy",
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


def _typed(value: Any, cls: type, what: str) -> Any:
    """``value`` when it is a ``cls``; anything else raises ``ValueError`` with the message
    ``f"{what}: {value!r}"``, as ``model._name`` does. Each part that is no name is checked here."""
    if not isinstance(value, cls):
        raise ValueError(f"{what}: {value!r}")
    return value


def _sorted_by(items: Any, cls: type, part: str) -> tuple[Any, ...]:
    """``items``, a collection of ``cls``, sorted by the first field, the id."""
    what = f"{part} entry is not a {cls.__name__}"
    items = [_typed(item, cls, what) for item in _typed(items, Iterable, f"{part} is not a collection")]
    return tuple(sorted(items, key=attrgetter(cls._fields[0])))


class FieldDecl(_Frozen):
    """One schema field. ``enum`` is the closed vocabulary for token kinds;
    a risk-typed tokenset has no enum and is screened against
    ``Policy.known_risks`` at decision time instead."""

    _fields = ("name", "kind", "enum", "is_risk")

    def __init__(self, name: str, kind: FieldKind, enum: tuple[str, ...] | None = None, is_risk: bool = False) -> None:
        _name(name, IDENT_RE, "field name is not an identifier")
        _typed(kind, FieldKind, "not a field kind")
        _typed(is_risk, bool, "risk marker must be a boolean")
        if kind in (FieldKind.TOKEN, FieldKind.TOKEN_SET):
            if is_risk:
                if kind is not FieldKind.TOKEN_SET:
                    raise ValueError(f"risk marker requires a tokenset field: {name}")
                if enum is not None:
                    raise ValueError(f"risk-typed field carries no enumeration: {name}")
            else:
                declared, enum = enum, _sorted_names(enum or (), TOKEN_RE, "enumeration entry is not a token")
                if not enum:
                    raise ValueError(f"{kind.value} field requires a non-empty enumeration: {name}")
                if len(enum) != len(declared):
                    raise ValueError(f"duplicate enumeration tokens on field {name}")
        else:
            if enum is not None or is_risk:
                raise ValueError(f"{kind.value} field admits neither enum nor risk marker: {name}")
        _set(self, "name", name)
        _set(self, "kind", kind)
        _set(self, "enum", enum)
        _set(self, "is_risk", is_risk)


class ClassDecl(_Frozen):
    """A recommendable class; lower spectrum rank means narrower."""

    _fields = ("class_id", "spectrum_rank", "escalation_tier")

    def __init__(self, class_id: str, spectrum_rank: int, escalation_tier: bool = False) -> None:
        _name(class_id, IDENT_RE, "class id is not an identifier")
        if isinstance(spectrum_rank, bool) or not isinstance(spectrum_rank, int) or not 1 <= spectrum_rank <= INT64_MAX:
            raise ValueError(f"spectrum rank must be a positive 64-bit integer: {spectrum_rank!r}")
        _typed(escalation_tier, bool, "escalation tier must be a boolean")
        _set(self, "class_id", class_id)
        _set(self, "spectrum_rank", spectrum_rank)
        _set(self, "escalation_tier", escalation_tier)


class ConsistencyConstraint(_Frozen):
    _fields = ("rule_id", "forbid")

    def __init__(self, rule_id: str, forbid: Condition) -> None:
        _name(rule_id, IDENT_RE, "consistency id is not an identifier")
        _set(self, "rule_id", rule_id)
        _set(self, "forbid", _typed(forbid, _Node, "consistency condition is not a condition node"))


class ExclusionRule(_Frozen):
    _fields = ("rule_id", "label", "when")

    def __init__(self, rule_id: str, label: str, when: Condition) -> None:
        _name(rule_id, IDENT_RE, "exclusion id is not an identifier")
        _name(label, IDENT_RE, "exclusion label is not an identifier")
        _set(self, "rule_id", rule_id)
        _set(self, "label", label)
        _set(self, "when", _typed(when, _Node, "exclusion condition is not a condition node"))


class ClinicalRule(_Frozen):
    _fields = ("rule_id", "when", "candidate", "requires", "incompatible_with")

    def __init__(
        self, rule_id: str, when: Condition, candidate: str, requires: tuple[str, ...] = (),
        incompatible_with: tuple[str, ...] = (),
    ) -> None:
        _name(rule_id, IDENT_RE, "rule id is not an identifier")
        _name(candidate, IDENT_RE, "candidate class id is not an identifier")
        _set(self, "rule_id", rule_id)
        _set(self, "when", _typed(when, _Node, "rule condition is not a condition node"))
        _set(self, "candidate", candidate)
        _set(self, "requires", _sorted_names(requires, IDENT_RE, "required field is not an identifier"))
        incompatible = _sorted_names(incompatible_with, IDENT_RE, "incompatible rule id is not an identifier")
        _set(self, "incompatible_with", incompatible)


class StewardshipVeto(_Frozen):
    _fields = ("rule_id", "class_id", "when")

    def __init__(self, rule_id: str, class_id: str, when: Condition) -> None:
        _name(rule_id, IDENT_RE, "veto id is not an identifier")
        _name(class_id, IDENT_RE, "vetoed class id is not an identifier")
        _set(self, "rule_id", rule_id)
        _set(self, "class_id", class_id)
        _set(self, "when", _typed(when, _Node, "veto condition is not a condition node"))


class StewardshipSpec(_Frozen):
    _fields = ("escalation_justification", "class_vetoes")

    def __init__(self, escalation_justification: Condition, class_vetoes: tuple[StewardshipVeto, ...] = ()) -> None:
        justification = _typed(escalation_justification, _Node, "escalation justification is not a condition node")
        _set(self, "escalation_justification", justification)
        _set(self, "class_vetoes", _sorted_by(class_vetoes, StewardshipVeto, "class_vetoes"))


class Policy(_Frozen):
    _fields = (
        "policy_id", "version", "schema", "classes", "stewardship", "required", "known_risks", "consistency",
        "exclusions", "clinical_rules",
    )

    def __init__(
        self, policy_id: str, version: str, schema: tuple[FieldDecl, ...], classes: tuple[ClassDecl, ...],
        stewardship: StewardshipSpec, required: tuple[str, ...] = (), known_risks: frozenset[str] = frozenset(),
        consistency: tuple[ConsistencyConstraint, ...] = (), exclusions: tuple[ExclusionRule, ...] = (),
        clinical_rules: tuple[ClinicalRule, ...] = (),
    ) -> None:
        _set(self, "policy_id", policy_id)
        _set(self, "version", version)
        _set(self, "schema", _sorted_by(schema, FieldDecl, "schema"))
        _set(self, "classes", _sorted_by(classes, ClassDecl, "classes"))
        _set(self, "stewardship", _typed(stewardship, StewardshipSpec, "stewardship is not a StewardshipSpec"))
        _set(self, "required", _sorted_names(required, IDENT_RE, "required field is not an identifier"))
        _set(self, "known_risks", frozenset(_sorted_names(known_risks, TOKEN_RE, "known risk is not a token")))
        _set(self, "consistency", _sorted_by(consistency, ConsistencyConstraint, "consistency"))
        _set(self, "exclusions", _sorted_by(exclusions, ExclusionRule, "exclusions"))
        _set(self, "clinical_rules", _sorted_by(clinical_rules, ClinicalRule, "clinical_rules"))
        _name(policy_id, IDENT_RE, "policy id is not an identifier")
        _name(version, TOKEN_RE, "version is not a token")
        if not self.schema:
            raise ValueError("policy declares no fields")
        if not self.classes:
            raise ValueError("policy declares no classes")
        self._check_unique()
        for _code, message, _anchor in reference_findings(
            self.field_map(),
            {c.class_id for c in self.classes},
            self.required,
            [(r.rule_id, r.when, r.candidate, r.requires, r.incompatible_with) for r in self.clinical_rules],
            [c.forbid for c in self.consistency] + [e.when for e in self.exclusions],
            self.stewardship.escalation_justification,
            [(v.rule_id, v.class_id, v.when) for v in self.stewardship.class_vetoes],
        ):
            raise ValueError(message)

    def _check_unique(self) -> None:
        # Worded as ``parse_policy`` words a repeated declaration.
        rule_ids = (
            [c.rule_id for c in self.consistency]
            + [e.rule_id for e in self.exclusions]
            + [r.rule_id for r in self.clinical_rules]
            + [v.rule_id for v in self.stewardship.class_vetoes]
        )
        for what, names in (
            ("field", [f.name for f in self.schema]),
            ("class", [c.class_id for c in self.classes]),
            ("rule id", rule_ids),
            ("exclusion label", [e.label for e in self.exclusions]),
        ):
            seen: set[str] = set()
            for name in names:
                if name in seen:
                    raise ValueError(f"{what} '{name}' declared twice")
                seen.add(name)

    def field_map(self) -> dict[str, FieldDecl]:
        return {f.name: f for f in self.schema}

    def class_map(self) -> dict[str, ClassDecl]:
        return {c.class_id: c for c in self.classes}

    def risk_fields(self) -> tuple[FieldDecl, ...]:
        return tuple(f for f in self.schema if f.is_risk)


def reference_findings(
    fields: Mapping[str, FieldDecl],
    classes: Container[str],
    required: Sequence[str],
    rules: Sequence[tuple[str, Condition, str, Sequence[str], Sequence[str]]],
    conditions: Iterable[Condition],
    justification: Condition | None,
    vetoes: Sequence[tuple[str, str, Condition]],
) -> Iterator[tuple[str, str, Any]]:
    """Each unresolved reference in a policy's parts as ``(code, message,
    anchor)``, in part order. A rule is ``(id, when, candidate, requires,
    incompatible)``, ``conditions`` the consistency then exclusion
    conditions, and a veto ``(id, class, when)``. A condition finding is
    ``typecheck``'s, anchored at the leaf it names; a name's anchor is its
    index path in the parts: ``("rules", 2, 3, 0)`` is the third rule's
    first requires name."""
    for i, name in enumerate(required):
        if name not in fields:
            yield "unknown_field", f"required field '{name}' is not declared", ("required", i)
    rule_ids = {rule[0] for rule in rules}
    for i, (rule_id, when, candidate, requires, incompatible) in enumerate(rules):
        yield from typecheck(when, fields)
        for j, name in enumerate(requires):
            if name not in fields:
                yield "unknown_field", f"rule '{rule_id}' requires undeclared field '{name}'", ("rules", i, 3, j)
        if candidate not in classes:
            yield "unknown_class", f"rule '{rule_id}' nominates undeclared class '{candidate}'", ("rules", i, 2)
        for j, other in enumerate(incompatible):
            if other == rule_id:
                yield "self_incompatibility", f"rule '{rule_id}' declared incompatible with itself", ("rules", i, 4, j)
            elif other not in rule_ids:
                yield "unknown_rule", f"rule '{rule_id}' incompatible with unknown rule '{other}'", ("rules", i, 4, j)
    tail = () if justification is None else (justification,)
    for cond in (*conditions, *tail):
        yield from typecheck(cond, fields)
    for i, (veto_id, class_id, when) in enumerate(vetoes):
        yield from typecheck(when, fields)
        if class_id not in classes:
            yield "unknown_class", f"veto '{veto_id}' targets undeclared class '{class_id}'", ("vetoes", i, 1)


def _boolean_conjunct_atoms(cond: Condition) -> frozenset[tuple[str, bool]] | None:
    """Atoms of a pure conjunction of boolean equality tests, else None."""
    atoms = set()
    for node in _postfix(cond):
        if isinstance(node, Comparison) and node.literal.kind is FieldKind.BOOLEAN and node.op in ("==", "!="):
            atoms.add((node.field_name, bool(node.literal.value) == (node.op == "==")))
        elif not isinstance(node, And):
            return None
    return frozenset(atoms)


def validate_policy(policy: Policy) -> list[Diagnostic]:
    """Semantic lint of a structurally valid policy.

    Error level: asymmetric incompatibility declarations, escalation-tier
    classes with no justification path, reserved identifiers. Warning
    level: clinical rules contradicting a boolean consistency constraint
    (conservative syntactic check) and risk-typed fields with an empty
    recognized-risk vocabulary. Within each check, findings follow the id
    order the policy holds its declarations in.
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

    # Each condition is walked once, and the rules' only if some constraint is
    # a conjunction of boolean tests.
    forbids = [(c.rule_id, atoms) for c in policy.consistency if (atoms := _boolean_conjunct_atoms(c.forbid))]
    rule_atoms = [(r.rule_id, _boolean_conjunct_atoms(r.when)) for r in policy.clinical_rules] if forbids else []
    for constraint_id, forbid_atoms in forbids:
        for rule_id, atoms in rule_atoms:
            if atoms and forbid_atoms <= atoms:
                diags.append(
                    Diagnostic(
                        Severity.WARNING,
                        "unreachable_rule",
                        f"rule '{rule_id}' contradicts consistency constraint '{constraint_id}'",
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


# JSON text of each field kind, built once.
_KIND_JSON = {kind: _quote(kind.value) for kind in FieldKind}


def _names_json(names: Iterable[str]) -> str:
    return f"[{','.join(map(_quote, names))}]"


def _field_json(decl: FieldDecl) -> str:
    enum = "" if decl.enum is None else f'"enum":{_names_json(decl.enum)},'
    risk = ',"risk":true' if decl.is_risk else ""
    return f'{{{enum}"kind":{_KIND_JSON[decl.kind]},"name":{_quote(decl.name)}{risk}}}'


def _policy_json(policy: Policy) -> str:
    """The canonical JSON text of ``policy``, in the id order the policy
    holds: keys in sorted order, every string through the escaper that
    ``json.dumps(ensure_ascii=False)`` uses, ranks as ``json.dumps`` writes
    an ``int`` subclass too. The construction checks of ``Policy`` and its
    declarations guarantee that no float or other value ``canonical_bytes``
    refuses can reach it: names are ``str``, ranks non-``bool`` ``int``, and
    flags exactly ``bool``."""
    stewardship = policy.stewardship
    classes = [
        f'{{"escalation":{"true" if c.escalation_tier else "false"},"id":{_quote(c.class_id)},'
        f'"rank":{int.__repr__(c.spectrum_rank)}}}'
        for c in policy.classes
    ]
    consistency = [
        f'{{"forbid":{_quote(print_condition(c.forbid))},"id":{_quote(c.rule_id)}}}' for c in policy.consistency
    ]
    exclusions = [
        f'{{"id":{_quote(e.rule_id)},"label":{_quote(e.label)},"when":{_quote(print_condition(e.when))}}}'
        for e in policy.exclusions
    ]
    rules = [
        f'{{"candidate":{_quote(r.candidate)},"id":{_quote(r.rule_id)},'
        f'"incompatible":{_names_json(r.incompatible_with)},"requires":{_names_json(r.requires)},'
        f'"when":{_quote(print_condition(r.when))}}}'
        for r in policy.clinical_rules
    ]
    vetoes = [
        f'{{"class":{_quote(v.class_id)},"id":{_quote(v.rule_id)},"when":{_quote(print_condition(v.when))}}}'
        for v in stewardship.class_vetoes
    ]
    fields = [_field_json(f) for f in policy.schema]
    justification = _quote(print_condition(stewardship.escalation_justification))
    return (
        f'{{"classes":[{",".join(classes)}],"consistency":[{",".join(consistency)}],'
        f'"exclusions":[{",".join(exclusions)}],"fields":[{",".join(fields)}],'
        f'"known_risks":{_names_json(sorted(policy.known_risks))},"policy":{_quote(policy.policy_id)},'
        f'"required":{_names_json(policy.required)},"rules":[{",".join(rules)}],'
        f'"stewardship":{{"escalation_justified_when":{justification},"vetoes":[{",".join(vetoes)}]}},'
        f'"version":{_quote(policy.version)}}}'
    )


def policy_hash(policy: Policy) -> str:
    """SHA-256 hex digest of the canonical policy form."""
    return sha256_hex(_policy_json(policy).encode("utf-8"))
