"""Independent transcription of the decision procedure, for equivalence tests.

This module re-derives the pipeline behavior directly from the written
stage rules, sharing only the parsed data structures with the package.
Truth values are Python's ``True``/``False``/``None`` (``None`` meaning
"cannot be determined") instead of the engine's enum, the stages are one
straight-line function, and no engine code is imported. It gives each
case's outcome (``oracle_decide``) and the stages of its audit trace
(``oracle_trace``), to compare with the engine's through ``as_tuple`` and
``as_trace``. It also provides a seeded generator of small all-boolean
policies and exhaustive case enumerators so the equivalence check sweeps
an entire input space, and a seeded generator of small policies and cases
over every field kind.
"""

from __future__ import annotations

import itertools
import json
import random
from decimal import Decimal

from absgate.condition import (
    Absent,
    And,
    Comparison,
    Has,
    Literal,
    Not,
    Or,
    Present,
)
from absgate.model import (
    Action,
    AuditTrace,
    CaseInput,
    ExpectedBehavior,
    FieldKind,
    FieldValue,
    SystemOutput,
    canonical_serialize,
)
from absgate.policy import (
    ClassDecl,
    ClinicalRule,
    ConsistencyConstraint,
    ExclusionRule,
    FieldDecl,
    Policy,
    StewardshipSpec,
    StewardshipVeto,
)

Maybe = "bool | None"


def truth_of(cond, fields) -> bool | None:
    """Three-valued evaluation, written as explicit truth tables."""
    if isinstance(cond, Literal):
        return cond.value
    if isinstance(cond, Present):
        return cond.field_name in fields
    if isinstance(cond, Absent):
        return cond.field_name not in fields
    if isinstance(cond, Has):
        value = fields.get(cond.field_name)
        if value is None:
            return None
        return cond.token in value.value
    if isinstance(cond, Comparison):
        value = fields.get(cond.field_name)
        if value is None:
            return None
        left = value.value
        right = cond.literal.value
        if isinstance(right, int) and not isinstance(right, bool) and isinstance(left, Decimal):
            right = Decimal(right)
        if cond.op == "==":
            return left == right
        if cond.op == "!=":
            return left != right
        if cond.op == "<":
            return left < right
        if cond.op == "<=":
            return left <= right
        if cond.op == ">":
            return left > right
        if cond.op == ">=":
            return left >= right
        raise ValueError(f"unknown operator {cond.op!r}")
    if isinstance(cond, And):
        a = truth_of(cond.left, fields)
        b = truth_of(cond.right, fields)
        if a is False or b is False:
            return False
        if a is None or b is None:
            return None
        return True
    if isinstance(cond, Or):
        a = truth_of(cond.left, fields)
        b = truth_of(cond.right, fields)
        if a is True or b is True:
            return True
        if a is None or b is None:
            return None
        return False
    if isinstance(cond, Not):
        inner = truth_of(cond.inner, fields)
        return None if inner is None else not inner
    raise TypeError(f"not a condition node: {cond!r}")


def holes_of(cond, fields) -> set[str]:
    """Bare-referenced fields missing from the case (guards excluded)."""
    if isinstance(cond, (Literal, Present, Absent)):
        return set()
    if isinstance(cond, (Comparison, Has)):
        return set() if cond.field_name in fields else {cond.field_name}
    if isinstance(cond, (And, Or)):
        return holes_of(cond.left, fields) | holes_of(cond.right, fields)
    if isinstance(cond, Not):
        return holes_of(cond.inner, fields)
    raise TypeError(f"not a condition node: {cond!r}")


_VERDICT = {True: "fired", False: "not_fired", None: "indeterminate"}


def _stage(name: str, pairs, notes=()) -> tuple:
    """One stage of a trace: its name, ``(rule_id, verdict)`` pairs sorted by
    id, and its notes."""
    return (name, tuple(sorted(pairs)), tuple(notes))


def _oracle(policy: Policy, case: CaseInput) -> tuple[tuple, tuple]:
    """The stage rules transcribed verbatim: the outcome, as ``oracle_decide``
    gives it, and the stages of its trace, as ``oracle_trace`` gives them."""
    fields = case.fields
    stages = []

    # Stage 1: every consistency constraint is recorded; then required
    # fields, consistency, unknown risk tokens abstain, in that order.
    verdicts = {c.rule_id: truth_of(c.forbid, fields) for c in policy.consistency}
    stages.append(_stage("input_assessment", ((i, _VERDICT[v]) for i, v in verdicts.items())))
    missing = tuple(sorted(set(policy.required) - set(fields)))
    if missing:
        return ("abstain", "missing_inputs", missing), tuple(stages)
    violated = tuple(sorted(i for i, v in verdicts.items() if v is True))
    if violated:
        return ("abstain", "conflicting_signals", violated), tuple(stages)
    strange = set()
    for decl in policy.schema:
        if decl.is_risk and decl.name in fields:
            for token in fields[decl.name].value:
                if token not in policy.known_risks:
                    strange.add(token)
    if strange:
        return ("abstain", "unknown_risk", tuple(sorted(strange))), tuple(stages)

    # Stage 2: a true exclusion wins; otherwise indeterminate scope abstains.
    labels = []
    gaps: set[str] = set()
    pairs = []
    for exclusion in policy.exclusions:
        verdict = truth_of(exclusion.when, fields)
        pairs.append((exclusion.rule_id, _VERDICT[verdict]))
        if verdict is True:
            labels.append(exclusion.label)
        elif verdict is None:
            gaps |= holes_of(exclusion.when, fields)
    stages.append(_stage("exclusions", pairs))
    if labels:
        return ("abstain", "explicit_exclusion", tuple(sorted(labels))), tuple(stages)
    if gaps:
        return ("abstain", "missing_inputs", tuple(sorted(gaps))), tuple(stages)

    # Stage 3: any unevaluable rule (unmet requires, or an indeterminate
    # condition) is recorded indeterminate and aborts; fired incompatibles
    # conflict.
    problems: set[str] = set()
    fired: list[ClinicalRule] = []
    pairs = []
    for rule in policy.clinical_rules:
        unmet = set(rule.requires) - set(fields)
        verdict = truth_of(rule.when, fields)
        pairs.append((rule.rule_id, _VERDICT[None if unmet else verdict]))
        if unmet or verdict is None:
            problems |= unmet
            if verdict is None:
                problems |= holes_of(rule.when, fields)
        elif verdict is True:
            fired.append(rule)
    stages.append(_stage("clinical_rules", pairs))
    if problems:
        return ("abstain", "missing_inputs", tuple(sorted(problems))), tuple(stages)
    fired_ids = {rule.rule_id for rule in fired}
    clash: set[str] = set()
    for rule in fired:
        for other in rule.incompatible_with:
            if other in fired_ids:
                clash |= {rule.rule_id, other}
    if clash:
        return ("abstain", "conflicting_signals", tuple(sorted(clash))), tuple(stages)
    if not fired:
        return ("abstain", "conservative_ambiguity", ("no_candidate",)), tuple(stages)

    # Stage 4: vetoes prune (indeterminate prunes), escalation needs a
    # definitively true justification. Every veto is recorded, and so is
    # each fired rule whose candidate is removed, as vetoed; the notes are
    # the justification, when it holds, then the survivors.
    vetoes = {v.rule_id: truth_of(v.when, fields) for v in policy.stewardship.class_vetoes}
    pruned = {v.class_id for v in policy.stewardship.class_vetoes if vetoes[v.rule_id] is not False}
    justified = truth_of(policy.stewardship.escalation_justification, fields) is True
    ranks = {c.class_id: c.spectrum_rank for c in policy.classes}
    escalation = {c.class_id for c in policy.classes if c.escalation_tier}
    survivors = set()
    pairs = [(i, _VERDICT[v]) for i, v in vetoes.items()]
    for rule in fired:
        cid = rule.candidate
        if cid in pruned or (cid in escalation and not justified):
            pairs.append((rule.rule_id, "vetoed"))
        else:
            survivors.add(cid)
    notes = (("escalation_justification",) if justified else ()) + tuple(sorted(survivors))
    stages.append(_stage("stewardship", pairs, notes))
    if not survivors:
        return ("abstain", "conservative_ambiguity", ("all_candidates_vetoed",)), tuple(stages)
    best = min(ranks[cid] for cid in survivors)
    tied = tuple(sorted(cid for cid in survivors if ranks[cid] == best))
    if len(tied) > 1:
        return ("abstain", "conservative_ambiguity", tied), tuple(stages)

    # Stage 5.
    stages.append(_stage("output", (), tied))
    return ("recommend", tied[0]), tuple(stages)


def oracle_decide(policy: Policy, case: CaseInput) -> tuple:
    """The outcome as a plain comparable tuple: ``("recommend", class_id)``
    or ``("abstain", category, labels)``."""
    return _oracle(policy, case)[0]


def oracle_trace(policy: Policy, case: CaseInput) -> tuple:
    """The trace's stages as plain tuples, one ``(stage, pairs, notes)`` per
    stage reached, in pipeline order; ``pairs`` holds ``(rule_id, verdict)``
    sorted by id, and names and verdicts are their canonical strings."""
    return _oracle(policy, case)[1]


def as_tuple(output: SystemOutput) -> tuple:
    """Engine output flattened into the oracle's comparison shape."""
    if output.action is Action.RECOMMEND:
        return ("recommend", output.class_id)
    assert output.reason is not None
    return ("abstain", output.reason.category.value, output.reason.labels)


def as_trace(trace: AuditTrace) -> tuple:
    """Engine trace, decoded from its canonical bytes, in ``oracle_trace``'s
    shape."""
    stages = json.loads(canonical_serialize(trace))["stages"]
    return tuple((s["stage"], tuple(map(tuple, s["evaluated"])), tuple(s["notes"])) for s in stages)


_WILDCARD = ExpectedBehavior(Action.ABSTAIN)


def _rand_cond(rng: random.Random, names: list[str], depth: int):
    roll = rng.random()
    if depth <= 0 or roll < 0.55:
        name = rng.choice(names)
        kind = rng.randrange(5)
        if kind == 0:
            return Comparison(name, "==", FieldValue.boolean(rng.random() < 0.5))
        if kind == 1:
            return Comparison(name, "!=", FieldValue.boolean(rng.random() < 0.5))
        if kind == 2:
            return Present(name)
        if kind == 3:
            return Absent(name)
        return Literal(rng.random() < 0.5)
    if roll < 0.72:
        return And(_rand_cond(rng, names, depth - 1), _rand_cond(rng, names, depth - 1))
    if roll < 0.89:
        return Or(_rand_cond(rng, names, depth - 1), _rand_cond(rng, names, depth - 1))
    return Not(_rand_cond(rng, names, depth - 1))


def make_mini_policy(seed: int) -> Policy:
    """Small all-boolean policy drawn deterministically from ``seed``."""
    rng = random.Random(seed)
    names = [f"f{i}" for i in range(rng.randint(1, 3))]
    schema = tuple(FieldDecl(name, FieldKind.BOOLEAN) for name in names)
    required = tuple(name for name in names if rng.random() < 0.3)

    classes = []
    for i in range(rng.randint(1, 3)):
        classes.append(ClassDecl(f"c{i}", rng.randint(1, 3), escalation_tier=rng.random() < 0.3))

    consistency = tuple(
        ConsistencyConstraint(f"x{i}", _rand_cond(rng, names, 1)) for i in range(rng.randint(0, 2))
    )
    exclusions = tuple(
        ExclusionRule(f"e{i}", f"EXL{i}", _rand_cond(rng, names, 1)) for i in range(rng.randint(0, 2))
    )

    rules = []
    for i in range(rng.randint(1, 4)):
        requires = tuple(name for name in names if rng.random() < 0.2)
        rules.append(
            ClinicalRule(
                f"r{i}",
                _rand_cond(rng, names, 2),
                rng.choice(classes).class_id,
                requires=requires,
            )
        )
    incompatible: dict[str, set[str]] = {rule.rule_id: set() for rule in rules}
    for a, b in itertools.combinations([rule.rule_id for rule in rules], 2):
        if rng.random() < 0.2:
            incompatible[a].add(b)
            incompatible[b].add(a)
    rules = [
        ClinicalRule(
            rule.rule_id,
            rule.when,
            rule.candidate,
            requires=rule.requires,
            incompatible_with=tuple(sorted(incompatible[rule.rule_id])),
        )
        for rule in rules
    ]

    justification = _rand_cond(rng, names, 1)
    if isinstance(justification, Literal) and justification.value is False:
        justification = Not(Literal(True))
    vetoes = tuple(
        StewardshipVeto(f"v{i}", rng.choice(classes).class_id, _rand_cond(rng, names, 1))
        for i in range(rng.randint(0, 2))
    )

    return Policy(
        policy_id=f"mini_{seed}",
        version="v1",
        schema=schema,
        classes=tuple(classes),
        stewardship=StewardshipSpec(justification, vetoes),
        required=required,
        consistency=consistency,
        exclusions=exclusions,
        clinical_rules=tuple(rules),
    )


def full_assignments(policy: Policy):
    """Every case with all boolean fields present: 2**n cases."""
    names = [decl.name for decl in policy.schema]
    for index, values in enumerate(itertools.product((False, True), repeat=len(names))):
        fields = {name: FieldValue.boolean(value) for name, value in zip(names, values)}
        yield CaseInput(f"g{index}", "generated", "generated", fields, _WILDCARD)


def partial_assignments(policy: Policy):
    """Every case over {false, true, absent} per field: 3**n cases."""
    names = [decl.name for decl in policy.schema]
    for index, values in enumerate(itertools.product((False, True, None), repeat=len(names))):
        fields = {
            name: FieldValue.boolean(value) for name, value in zip(names, values) if value is not None
        }
        yield CaseInput(f"p{index}", "generated", "generated", fields, _WILDCARD)


# Every field kind, for policies whose cases cannot be enumerated: numeric
# case values sit at, one step below and one step above every literal the
# policies may use, integer literals included on the decimal field; tokens
# and risk tokens fall inside and outside their vocabularies.
_KIND_INTS = (0, 18, 65)
_KIND_DECIMALS = (Decimal("0.5"), Decimal("39.9999"), Decimal("40.0000"))
_KIND_TOKENS = ("a", "b", "c")
_KIND_TAGS = ("x", "y", "z")
_KIND_RISKS = ("k1", "k2")
_KIND_SCHEMA = (
    FieldDecl("n", FieldKind.INTEGER),
    FieldDecl("w", FieldKind.DECIMAL),
    FieldDecl("tok", FieldKind.TOKEN, enum=_KIND_TOKENS),
    FieldDecl("tags", FieldKind.TOKEN_SET, enum=_KIND_TAGS),
    FieldDecl("risk", FieldKind.TOKEN_SET, is_risk=True),
    FieldDecl("flag", FieldKind.BOOLEAN),
)
_KIND_VALUES = {
    "n": [FieldValue.integer(v + d) for v in _KIND_INTS for d in (-1, 0, 1)],
    "w": [
        FieldValue.decimal(v + d)
        for v in _KIND_DECIMALS + tuple(map(Decimal, _KIND_INTS))
        for d in (Decimal("-0.0001"), 0, Decimal("0.0001"))
    ],
    "tok": [FieldValue.token(t) for t in _KIND_TOKENS],
    "flag": [FieldValue.boolean(False), FieldValue.boolean(True)],
}
_OPS = ("==", "!=", "<", "<=", ">", ">=")


def _kind_leaf(rng: random.Random):
    roll = rng.randrange(10)
    if roll == 0:
        return Comparison("n", rng.choice(_OPS), FieldValue.integer(rng.choice(_KIND_INTS)))
    if roll == 1:
        return Comparison("w", rng.choice(_OPS), FieldValue.decimal(rng.choice(_KIND_DECIMALS)))
    if roll == 2:
        return Comparison("w", rng.choice(_OPS), FieldValue.integer(rng.choice(_KIND_INTS)))
    if roll == 3:
        return Comparison("tok", rng.choice(("==", "!=")), FieldValue.token(rng.choice(_KIND_TOKENS)))
    if roll == 4:
        return Comparison("flag", rng.choice(("==", "!=")), FieldValue.boolean(rng.random() < 0.5))
    if roll == 5:
        return Has("tags", rng.choice(_KIND_TAGS))
    if roll == 6:
        return Has("risk", rng.choice(_KIND_RISKS))
    if roll == 7:
        return Present(rng.choice(_KIND_SCHEMA).name)
    if roll == 8:
        return Absent(rng.choice(_KIND_SCHEMA).name)
    return Literal(rng.random() < 0.5)


def _kind_cond(rng: random.Random, depth: int):
    roll = rng.random()
    if depth <= 0 or roll < 0.5:
        return _kind_leaf(rng)
    if roll < 0.7:
        return And(_kind_cond(rng, depth - 1), _kind_cond(rng, depth - 1))
    if roll < 0.9:
        return Or(_kind_cond(rng, depth - 1), _kind_cond(rng, depth - 1))
    return Not(_kind_cond(rng, depth - 1))


def make_kind_policy(seed: int) -> Policy:
    """Small policy over every field kind drawn deterministically from
    ``seed``, with escalation-tier classes and vetoes."""
    rng = random.Random(seed)
    classes = [
        ClassDecl(f"c{i}", rng.randint(1, 3), escalation_tier=rng.random() < 0.4) for i in range(rng.randint(2, 4))
    ]
    rule_ids = [f"r{i}" for i in range(rng.randint(2, 5))]
    incompatible: dict[str, set[str]] = {rule_id: set() for rule_id in rule_ids}
    for a, b in itertools.combinations(rule_ids, 2):
        if rng.random() < 0.15:
            incompatible[a].add(b)
            incompatible[b].add(a)
    rules = tuple(
        ClinicalRule(
            rule_id,
            _kind_cond(rng, 2),
            rng.choice(classes).class_id,
            requires=tuple(decl.name for decl in _KIND_SCHEMA if rng.random() < 0.05),
            incompatible_with=tuple(sorted(incompatible[rule_id])),
        )
        for rule_id in rule_ids
    )
    justification = _kind_cond(rng, 1)
    if justification == Literal(False):
        justification = Not(Literal(True))
    return Policy(
        policy_id=f"kinds_{seed}",
        version="v1",
        schema=_KIND_SCHEMA,
        classes=tuple(classes),
        stewardship=StewardshipSpec(
            justification,
            tuple(
                StewardshipVeto(f"v{i}", rng.choice(classes).class_id, _kind_cond(rng, 1))
                for i in range(rng.randint(1, 3))
            ),
        ),
        required=tuple(decl.name for decl in _KIND_SCHEMA if rng.random() < 0.1),
        known_risks=frozenset(_KIND_RISKS),
        # Conjunctions, so that most cases get past the first two stages.
        consistency=tuple(
            ConsistencyConstraint(f"x{i}", And(_kind_leaf(rng), _kind_leaf(rng))) for i in range(rng.randint(0, 2))
        ),
        exclusions=tuple(
            ExclusionRule(f"e{i}", f"EXL{i}", And(_kind_leaf(rng), _kind_leaf(rng))) for i in range(rng.randint(0, 2))
        ),
        clinical_rules=rules,
    )


def kind_cases(seed: int, count: int):
    """``count`` cases over the every-kind schema drawn from ``seed``; each
    field is absent one time in eight."""
    rng = random.Random(seed)
    for index in range(count):
        fields = {name: rng.choice(values) for name, values in _KIND_VALUES.items()}
        fields["tags"] = FieldValue.token_set([t for t in _KIND_TAGS if rng.random() < 0.5])
        # One risk token in ten is outside known_risks.
        risks = [t for t in _KIND_RISKS if rng.random() < 0.4] + (["u1"] if rng.random() < 0.1 else [])
        fields["risk"] = FieldValue.token_set(risks)
        fields = {name: value for name, value in fields.items() if rng.random() >= 0.125}
        yield CaseInput(f"k{index}", "generated", "generated", fields, _WILDCARD)
