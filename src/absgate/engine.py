"""Decision engine: a strictly sequential five-stage pipeline.

Stages run in a fixed order and the first terminating condition wins:

1. input_assessment — globally required fields, consistency constraints,
   unrecognized risk tokens (in that precedence). A clean case costs three
   C-level tests, one per rule, and labels are built only for the finding
   that abstains; ``assess_inputs`` reports what the same three rules give.
2. exclusions — a true exclusion abstains with its labels; an exclusion
   whose scope cannot be confirmed (indeterminate) abstains conservatively
   as missing inputs.
3. clinical_rules — any rule that cannot be definitively evaluated (unmet
   ``requires`` or indeterminate condition) abstains rather than being
   skipped; fired incompatible pairs abstain as conflicting signals; zero
   fired rules abstain as conservative ambiguity.
4. stewardship — class vetoes prune candidates (an indeterminate veto
   prunes, conservatively); escalation-tier candidates are removed unless
   the justification condition is definitively true; an emptied or
   rank-tied survivor set abstains as conservative ambiguity.
5. output — the unique minimal-rank survivor is recommended.

A ``Policy`` holds its declarations in id order, so every stage reads
its conditions, and yields its verdicts, in rule-id order. Each stage's
conditions (consistency constraints, exclusions, clinical rules, and the
vetoes with the escalation justification last) are compiled once per
``Policy`` into one program over field-grouped leaves
(``condition.compile_conditions``), cached on the policy with its class map
and risk-field names.

A stage's program runs only when the stage is reached. It computes every
leaf of every condition of the stage, so a kind mismatch raises whatever
the other conditions yield, at the first mismatching leaf in rule-id order;
a condition's connective steps then run only if its sentinel conjunct is
not FALSE.

Records and outputs repeat across cases, so the cache memoizes them in one
way: a ``_Memo`` is a dict that builds a missing value from its key and,
since keys come from case data, stops storing at ``_OUTPUT_MEMO_LIMIT``
entries. Stages 1–3 find their record by ``bytes`` of their truth values
(in stage 3 a rule whose ``requires`` are unmet reads INDETERMINATE
whatever its condition yields); a miss picks each declaration's pair and
its JSON text by truth value and joins the texts (``StageRecord._encoded``).
Stage 3's entry also holds its fired rules and conflicted rule ids, and a
memo limited to the rule ids holds each rule's bare-reference fields
from the first time it reads INDETERMINATE. Stage 4 finds its outcome by
the stewardship truth values and the fired rule ids; a miss builds the
record through the public ``StageRecord`` constructor. Stage 5 holds one
record and recommendation per class, and the output memo holds
abstentions, built through the public ``SystemOutput`` constructor. A
record or output keeps its text once encoded, so a shared one is encoded
once. All are immutable, so traces share them, and ``decide`` assembles
each trace through ``AuditTrace._trusted``. Every call still evaluates
every truth value of each stage it reaches.

``decide`` is pure and deterministic: identical policy and case always
produce bitwise-identical canonical output and trace. ``CompletenessReport``
and the stage-4 outcome are ``NamedTuple`` records.
"""

from __future__ import annotations

from itertools import starmap
from operator import getitem
from typing import Any, Callable, Collection, Iterable, NamedTuple

from .condition import _FALSE, _INDETERMINATE, _TRUE, _Program, bare_fields, compile_conditions
from .model import (
    AbstentionCategory,
    AuditTrace,
    CaseInput,
    FieldKind,
    Stage,
    StageRecord,
    SystemOutput,
    Verdict,
    _pair_json,
)
from .policy import ALL_CANDIDATES_VETOED, JUSTIFIED_NOTE, NO_CANDIDATE, ClassDecl, ClinicalRule, Policy

__all__ = ["CompletenessReport", "assess_inputs", "decide"]

# Enum members read as globals, which is several times cheaper than reading
# them off their classes; each class is unpacked in definition order.
_INPUT_ASSESSMENT, _EXCLUSIONS, _CLINICAL_RULES, _STEWARDSHIP, _OUTPUT = Stage
_MISSING_INPUTS, _UNKNOWN_RISK, _CONFLICTING_SIGNALS, _EXPLICIT_EXCLUSION, _CONSERVATIVE_AMBIGUITY = AbstentionCategory
_FIRED, _VETOED = Verdict.FIRED, Verdict.VETOED
_TOKEN_SET = FieldKind.TOKEN_SET

# The most entries each ``_Memo`` of a policy keeps.
_OUTPUT_MEMO_LIMIT = 1024

# A rule's verdict, indexed by its condition's truth value.
_VERDICTS = (Verdict.NOT_FIRED, Verdict.INDETERMINATE, _FIRED)


class _Memo(dict):
    """Values by key, each built by ``build(key)`` on first use. Keys come
    from case data, so a memo stops storing at ``_OUTPUT_MEMO_LIMIT``
    entries, or at ``limit`` if the policy bounds its keys; past that, a
    missing value is built per call."""

    def __init__(self, build: Callable[[Any], Any], limit: int | None = None) -> None:
        super().__init__()
        self.build, self.limit = build, limit

    def __missing__(self, key: Any) -> Any:
        value = self.build(key)
        if len(self) < (self.limit or _OUTPUT_MEMO_LIMIT):
            self[key] = value
        return value


def _records(stage: Stage, declarations: Iterable[Any]) -> _Memo:
    """A stage's records by ``bytes`` of one truth value per declaration,
    picked by two C-level maps from each declaration's pair and its JSON
    text (``model._pair_json``), both built once per truth value."""
    verdicts = [[(decl.rule_id, verdict) for verdict in _VERDICTS] for decl in declarations]
    fragments = [[*starmap(_pair_json, pairs)] for pairs in verdicts]

    def build(truths: bytes) -> StageRecord:
        evaluated = tuple(map(getitem, verdicts, truths))
        return StageRecord._encoded(stage, evaluated, ",".join(map(getitem, fragments, truths)))

    return _Memo(build)


def _rule_outcomes(rules: tuple[ClinicalRule, ...]) -> _Memo:
    """Stage 3's ``(record, fired rules, conflicted rule ids)`` by ``bytes``
    of its truth values; ``decide`` reads the last two only if no rule abstains."""
    record = _records(_CLINICAL_RULES, rules).build

    def build(truths: bytes) -> tuple[StageRecord, tuple[ClinicalRule, ...], frozenset[str]]:
        fired = tuple([rule for rule, truth in zip(rules, truths) if truth == _TRUE])
        fired_ids = {rule.rule_id for rule in fired}
        pairs = [(rule.rule_id, other) for rule in fired for other in rule.incompatible_with if other in fired_ids]
        return record(truths), fired, frozenset().union(*pairs)

    return _Memo(build)


class _Compiled(NamedTuple):
    """What ``decide`` needs of a policy beyond its declarations."""

    consistency: _Program
    exclusions: _Program
    clinical_rules: _Program
    # Stage 1-3 records by ``bytes`` of their truth values; stage 3's with its fired rules and conflicts.
    consistency_records: _Memo
    exclusion_records: _Memo
    rule_records: _Memo
    # Stage-4 outcomes by the stewardship truth values and fired rule ids.
    stewardship_outcomes: _Memo
    # Per class id, the stage-5 record that recommends it and the output.
    recommendations: dict[str, tuple[StageRecord, SystemOutput]]
    # The positions of the clinical rules that have ``requires``.
    requiring: tuple[int, ...]
    # Per exclusion and clinical rule id, ``condition.bare_fields`` of its condition, built on
    # first use and kept for every id; keyed by the ``str`` id, as a declaration's hash walks it.
    bare_fields: _Memo
    # The class vetoes in rule-id order, then the escalation justification.
    stewardship: _Program
    class_map: dict[str, ClassDecl]
    risk_fields: tuple[str, ...]
    required: frozenset[str]
    # The abstentions decided so far, by ``(category, frozenset(labels))``.
    outputs: _Memo


def _compiled(policy: Policy) -> _Compiled:
    """The policy's stage programs and memos, built on first use and cached
    on the instance (``Policy.__getstate__`` leaves them out)."""
    try:
        return policy._compiled  # type: ignore[attr-defined]
    except AttributeError:
        pass
    stewardship = policy.stewardship
    rules = policy.clinical_rules
    class_map = policy.class_map()
    conditions = {decl.rule_id: decl.when for decl in (*policy.exclusions, *rules)}
    compiled = _Compiled(
        compile_conditions(c.forbid for c in policy.consistency),
        compile_conditions(e.when for e in policy.exclusions),
        compile_conditions(r.when for r in rules),
        _records(_INPUT_ASSESSMENT, policy.consistency),
        _records(_EXCLUSIONS, policy.exclusions),
        _rule_outcomes(rules),
        _outcomes(policy, class_map),
        {c: (StageRecord(_OUTPUT, (), (c,)), SystemOutput.recommend(c)) for c in class_map},
        tuple(position for position, rule in enumerate(rules) if rule.requires),
        _Memo(lambda rule_id: tuple(bare_fields(conditions[rule_id])), len(conditions)),
        compile_conditions([*(v.when for v in stewardship.class_vetoes), stewardship.escalation_justification]),
        class_map,
        tuple(decl.name for decl in policy.risk_fields()),
        frozenset(policy.required),
        _Memo(lambda key: SystemOutput.abstain(*key)),
    )
    object.__setattr__(policy, "_compiled", compiled)
    return compiled


class CompletenessReport(NamedTuple):
    """Stage-1 findings; total over any type-checked case."""

    missing_required: tuple[str, ...]
    consistency_violations: tuple[str, ...]
    unknown_risk_tokens: tuple[str, ...]


def assess_inputs(policy: Policy, case: CaseInput) -> CompletenessReport:
    """Assess case completeness and input coherence against the policy."""
    compiled, fields = _compiled(policy), case.fields
    truths = compiled.consistency(fields)
    return CompletenessReport(*[labels_of(policy, compiled, fields, truths) for _, labels_of in _STAGE1])


# Stage 1's three rules: the required fields the case lacks, in
# ``policy.required`` order; the consistency constraints that hold, in rule-id
# order; the risk tokens outside ``policy.known_risks``, sorted. Each answers
# a clean case with one C-level test and the empty tuple.
def _missing_required(policy: Policy, compiled: _Compiled, fields, truths: list[int]) -> tuple[str, ...]:
    if compiled.required <= fields.keys():
        return ()
    return tuple([name for name in policy.required if name not in fields])


def _violations(policy: Policy, compiled: _Compiled, fields, truths: list[int]) -> tuple[str, ...]:
    if _TRUE not in truths:
        return ()
    return tuple([c.rule_id for c, truth in zip(policy.consistency, truths) if truth == _TRUE])


def _unknown_risks(policy: Policy, compiled: _Compiled, fields, truths: list[int]) -> tuple[str, ...]:
    known, unknown = policy.known_risks, ()
    for name in compiled.risk_fields:
        value = fields.get(name)
        if value is not None and value.kind is _TOKEN_SET and not value.value <= known:
            unknown = value.value.union(unknown) - known
    return tuple(sorted(unknown)) if unknown else ()


# The rules in precedence order, each with the category it abstains with.
_STAGE1 = ((_MISSING_INPUTS, _missing_required), (_CONFLICTING_SIGNALS, _violations), (_UNKNOWN_RISK, _unknown_risks))


class _StewardshipOutcome(NamedTuple):
    record: StageRecord
    survivors: frozenset[str]
    justified: bool


def _outcomes(policy: Policy, class_map: dict[str, ClassDecl]) -> _Memo:
    """Stage-4 outcomes by ``(bytes(truths), *fired rule ids)``, the truths of
    the vetoes (in rule-id order) and of the justification. Each veto's pair
    is built once per truth value, and the records share them."""
    vetoes = policy.stewardship.class_vetoes
    pairs = [[(veto.rule_id, verdict) for verdict in _VERDICTS] for veto in vetoes]
    candidates = {rule.rule_id: rule.candidate for rule in policy.clinical_rules}

    def build(key: tuple) -> _StewardshipOutcome:
        truths, *fired = key
        nominated = {candidates[rule_id] for rule_id in fired}
        # An indeterminate veto vetoes, conservatively.
        vetoed_classes = {veto.class_id for veto, truth in zip(vetoes, truths) if truth != _FALSE}
        justified = truths[-1] == _TRUE
        removed = {c for c in nominated if c in vetoed_classes or (class_map[c].escalation_tier and not justified)}
        survivors = nominated - removed
        evaluated = [*map(getitem, pairs, truths)]
        evaluated += [(rule_id, _VETOED) for rule_id in fired if candidates[rule_id] in removed]
        notes = ((JUSTIFIED_NOTE,) if justified else ()) + tuple(sorted(survivors))
        return _StewardshipOutcome(StageRecord(_STEWARDSHIP, evaluated, notes), frozenset(survivors), justified)

    return _Memo(build)


def _stewardship_stage(policy: Policy, compiled: _Compiled, fields, fired) -> _StewardshipOutcome:
    """Stage 4: veto pruning and the escalation gate, found by ``_outcomes``' key."""
    return compiled.stewardship_outcomes[(bytes(compiled.stewardship(fields)), *[rule.rule_id for rule in fired])]


def _select_recommendation(class_map: dict[str, ClassDecl], survivors: frozenset[str]) -> "str | tuple[str, ...]":
    """Stage 5 selection: the unique minimal-rank survivor, or the tied ids."""
    minimal = min(class_map[class_id].spectrum_rank for class_id in survivors)
    tied = sorted(class_id for class_id in survivors if class_map[class_id].spectrum_rank == minimal)
    return tied[0] if len(tied) == 1 else tuple(tied)


def _abstain(
    compiled: _Compiled, stages: list[StageRecord], category: AbstentionCategory, labels: Collection[str]
) -> tuple[SystemOutput, AuditTrace]:
    final = compiled.outputs[(category, frozenset(labels))]
    return final, AuditTrace._trusted(tuple(stages), final)


def decide(policy: Policy, case: CaseInput) -> tuple[SystemOutput, AuditTrace]:
    """Run the pipeline; returns the output and its full audit trace.

    Precondition: the case type-checks against the policy schema (the
    policy's kinds are checked when it is built, the case's by the suite
    bind step; a kind mismatch here is a programming error, not an abstention).
    """
    compiled = _compiled(policy)
    fields = case.fields
    stages: list[StageRecord] = []

    # Stage 1: input assessment.
    truths = compiled.consistency(fields)
    stages.append(compiled.consistency_records[bytes(truths)])
    for category, labels_of in _STAGE1:
        labels = labels_of(policy, compiled, fields, truths)
        if labels:
            return _abstain(compiled, stages, category, labels)

    # Stage 2: exclusions.
    triggered_labels: list[str] = []
    unresolved: set[str] = set()
    truths = compiled.exclusions(fields)
    for exclusion, truth in zip(policy.exclusions, truths):
        if truth == _TRUE:
            triggered_labels.append(exclusion.label)
        elif truth == _INDETERMINATE:
            unresolved.update(name for name in compiled.bare_fields[exclusion.rule_id] if name not in fields)
    stages.append(compiled.exclusion_records[bytes(truths)])
    if triggered_labels:
        return _abstain(compiled, stages, _EXPLICIT_EXCLUSION, triggered_labels)
    if unresolved:
        return _abstain(compiled, stages, _MISSING_INPUTS, unresolved)

    # Stage 3: clinical rules, in rule-id order. A rule abstains if its
    # condition is indeterminate or a field it requires is missing: the
    # record is picked by a copy of the truth values in which such a rule
    # reads INDETERMINATE.
    rules = policy.clinical_rules
    truths = compiled.clinical_rules(fields)
    picks = truths.copy()
    problems: set[str] = set()
    for position in compiled.requiring:
        missing_req = [name for name in rules[position].requires if name not in fields]
        if missing_req:
            picks[position] = _INDETERMINATE
            problems.update(missing_req)
    if _INDETERMINATE in truths:
        for rule, truth in zip(rules, truths):
            if truth == _INDETERMINATE:
                problems.update(name for name in compiled.bare_fields[rule.rule_id] if name not in fields)
    record, fired, conflicted = compiled.rule_records[bytes(picks)]
    stages.append(record)
    if problems:
        return _abstain(compiled, stages, _MISSING_INPUTS, problems)
    if conflicted:
        return _abstain(compiled, stages, _CONFLICTING_SIGNALS, conflicted)
    if not fired:
        return _abstain(compiled, stages, _CONSERVATIVE_AMBIGUITY, (NO_CANDIDATE,))

    # Stage 4: stewardship.
    outcome = _stewardship_stage(policy, compiled, fields, fired)
    stages.append(outcome.record)
    if not outcome.survivors:
        return _abstain(compiled, stages, _CONSERVATIVE_AMBIGUITY, (ALL_CANDIDATES_VETOED,))
    selection = _select_recommendation(compiled.class_map, outcome.survivors)
    if isinstance(selection, tuple):
        return _abstain(compiled, stages, _CONSERVATIVE_AMBIGUITY, selection)

    # Stage 5: output.
    record, final = compiled.recommendations[selection]
    stages.append(record)
    return final, AuditTrace._trusted(tuple(stages), final)
