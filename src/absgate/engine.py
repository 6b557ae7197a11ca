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
(``condition.compile_conditions``), cached on the policy with its
risk-field names.

A stage's program runs only when the stage is reached. It computes every
leaf of every condition of the stage, so a kind mismatch raises whatever
the other conditions yield, at the first mismatching leaf in rule-id order;
a condition's connective steps then run only if its sentinel conjunct is
not FALSE.

Records and outputs repeat across cases, so the cache memoizes them in one
way: a ``_Memo`` is a dict that builds a missing value from its key and,
since keys come from case data, stops storing at ``_OUTPUT_MEMO_LIMIT``
entries. A stage's entry holds its record and the ending that its truth
values alone decide: an abstention, or None if they do not end the case.
Stages 1–3 find theirs by ``bytes`` of their truth values (in stage 3 a
rule whose ``requires`` are unmet reads INDETERMINATE whatever its
condition yields): ``(record, conflicting signals)``, ``(record, explicit
exclusion)`` and ``(record, conflict or no candidate, fired rule ids)``.
Stage 4 finds ``(record, stage-5 records, output)`` by the stewardship
truth values and the fired rule ids. So ``decide`` works out per call only
what depends on field values: missing required fields, unknown risks, and
the missing bare fields behind an INDETERMINATE verdict, which a memo
limited to the rule ids holds per rule. The engine builds every record
and output trusted, skipping the checks that its policy and case passed:
records of stages 1–5 through ``StageRecord._encoded``, with their text
joined from pair texts made once per declaration, and abstentions and
recommendations through ``SystemOutput._trusted``, which keep their text
once encoded. All are immutable, so traces share them, and ``decide``
assembles each trace through ``AuditTrace._trusted``. Every call still
evaluates every truth value of each stage it reaches.

``decide`` is pure and deterministic: identical policy and case always
produce bitwise-identical canonical output and trace. ``CompletenessReport``
is a ``NamedTuple`` record.
"""

from __future__ import annotations

from itertools import compress
from operator import getitem
from typing import Any, Callable, Collection, NamedTuple

from .condition import _INDETERMINATE, _TRUE, _Program, bare_fields, compile_conditions
from .model import (
    _PAIR_JSON, AbstentionCategory, AuditTrace, CaseInput, FieldKind, Stage, StageRecord, SystemOutput, Verdict, _quote
)
from .policy import ALL_CANDIDATES_VETOED, JUSTIFIED_NOTE, NO_CANDIDATE, ClassDecl, Policy

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
# ``bytes.translate`` of truth values to ``itertools.compress`` selectors of the TRUE ones.
_TRUE_ONLY = bytes.maketrans(bytes([_INDETERMINATE, _TRUE]), bytes([0, 1]))


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


def _entries(stage: Stage, declarations: tuple[Any, ...], end: Callable[[bytes], tuple]) -> _Memo:
    """A stage's entries by ``bytes`` of one truth value per declaration: the record, picked
    by two C-level maps from each declaration's pair and its JSON text (``_pairs``), then
    ``end`` of the truth values."""
    verdicts, fragments = _pairs(declarations)

    def build(truths: bytes) -> tuple:
        evaluated = tuple(map(getitem, verdicts, truths))
        return (StageRecord._encoded(stage, evaluated, ",".join(map(getitem, fragments, truths))), *end(truths))

    return _Memo(build)


def _pairs(declarations: tuple[Any, ...]) -> tuple[list[tuple[tuple[str, Verdict], ...]], list[tuple[str, ...]]]:
    """Per declaration, its pair with each of ``_VERDICTS`` and their JSON texts, from one quoted id."""
    pairs, texts = [], []
    (no, unknown, yes), (no_json, unknown_json, yes_json) = _VERDICTS, map(_PAIR_JSON.get, _VERDICTS)
    for rule_id in [decl.rule_id for decl in declarations]:
        quoted = _quote(rule_id)
        pairs.append(((rule_id, no), (rule_id, unknown), (rule_id, yes)))
        texts.append((no_json(quoted), unknown_json(quoted), yes_json(quoted)))
    return pairs, texts


class _Compiled(NamedTuple):
    """What ``decide`` needs of a policy beyond its declarations."""

    consistency: _Program
    exclusions: _Program
    clinical_rules: _Program
    # Stage 1-3 entries by ``bytes`` of their truth values: the record, the ending (an
    # abstention or None) and, in stage 3, the fired rule ids.
    consistency_records: _Memo
    exclusion_records: _Memo
    rule_records: _Memo
    # Stage 4-5 entries, ``(record, stage-5 records, output)``, by the stewardship truth values and fired rule ids.
    stewardship_outcomes: _Memo
    # The positions of the clinical rules that have ``requires``, and the union of those.
    requiring: tuple[int, ...]
    requires: frozenset[str]
    # Per exclusion and clinical rule id, ``condition.bare_fields`` of its condition, built on
    # first use and kept for every id; keyed by the ``str`` id, as a declaration's hash walks it.
    bare_fields: _Memo
    # The class vetoes in rule-id order, then the escalation justification.
    stewardship: _Program
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
    conditions = {decl.rule_id: decl.when for decl in (*policy.exclusions, *rules)}
    outputs = _Memo(lambda key: SystemOutput._trusted(None, *key))

    def ending(category: AbstentionCategory, labels: Collection[str]) -> SystemOutput | None:
        """The abstention with ``labels``, or None if there are none."""
        return outputs[(category, frozenset(labels))] if labels else None

    def true_ending(category: AbstentionCategory, labels: list[str]) -> Callable[[bytes], tuple]:
        return lambda truths: (ending(category, [*compress(labels, truths.translate(_TRUE_ONLY))]),)

    # Stage 3's fired rules come from one C-level pass; its conflicts from one test per declared pair.
    rule_ids = [rule.rule_id for rule in rules]
    conflicts = [(a, rule_ids.index(o), rule.rule_id, o) for a, rule in enumerate(rules) for o in rule.incompatible_with]

    def rule_ending(truths: bytes) -> tuple[SystemOutput | None, tuple[str, ...]]:
        fired = tuple(compress(rule_ids, truths.translate(_TRUE_ONLY)))
        if not fired:
            return ending(_CONSERVATIVE_AMBIGUITY, (NO_CANDIDATE,)), ()
        pairs = [(rule_id, other) for a, b, rule_id, other in conflicts if truths[a] == truths[b] == _TRUE]
        return ending(_CONFLICTING_SIGNALS, set().union(*pairs)), fired

    conflicting, excluding = [c.rule_id for c in policy.consistency], [e.label for e in policy.exclusions]
    requiring = tuple(position for position, rule in enumerate(rules) if rule.requires)
    compiled = _Compiled(
        compile_conditions(c.forbid for c in policy.consistency),
        compile_conditions(e.when for e in policy.exclusions),
        compile_conditions(r.when for r in rules),
        _entries(_INPUT_ASSESSMENT, policy.consistency, true_ending(_CONFLICTING_SIGNALS, conflicting)),
        _entries(_EXCLUSIONS, policy.exclusions, true_ending(_EXPLICIT_EXCLUSION, excluding)),
        _entries(_CLINICAL_RULES, rules, rule_ending),
        _outcomes(policy, ending),
        requiring,
        frozenset().union(*[rules[position].requires for position in requiring]),
        _Memo(lambda rule_id: tuple(bare_fields(conditions[rule_id])), len(conditions)),
        compile_conditions([*(v.when for v in stewardship.class_vetoes), stewardship.escalation_justification]),
        tuple(decl.name for decl in policy.risk_fields()),
        frozenset(policy.required),
        outputs,
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
    conflict = compiled.consistency_records[bytes(compiled.consistency(fields))][1]
    return CompletenessReport(
        _missing_required(policy, compiled, fields),
        () if conflict is None else conflict.reason.labels,
        _unknown_risks(policy, compiled, fields),
    )


# Stage 1's field rules: the required fields the case lacks, in ``policy.required``
# order, and the risk tokens outside ``policy.known_risks``, sorted. Each answers a
# clean case with one C-level test and the empty tuple.
def _missing_required(policy: Policy, compiled: _Compiled, fields) -> tuple[str, ...]:
    if compiled.required <= fields.keys():
        return ()
    return tuple([name for name in policy.required if name not in fields])


def _unknown_risks(policy: Policy, compiled: _Compiled, fields) -> tuple[str, ...]:
    known, unknown = policy.known_risks, ()
    for name in compiled.risk_fields:
        value = fields.get(name)
        if value is not None and value.kind is _TOKEN_SET and not value.value <= known:
            unknown = value.value.union(unknown) - known
    return tuple(sorted(unknown)) if unknown else ()


def _unresolved(compiled: _Compiled, fields, declarations: tuple[Any, ...], truths: list[int]) -> set[str]:
    """The fields missing from the case that the conditions reading
    INDETERMINATE reference bare."""
    indeterminate = [decl.rule_id for decl, truth in zip(declarations, truths) if truth == _INDETERMINATE]
    return {name for rule_id in indeterminate for name in compiled.bare_fields[rule_id] if name not in fields}


def _outcomes(policy: Policy, ending: Callable[[AbstentionCategory, Collection[str]], SystemOutput | None]) -> _Memo:
    """Stage-4 entries, ``(record, stage-5 records, output)``, by ``(bytes(truths), *fired rule
    ids)``, the truths of the vetoes (in rule-id order) and of the justification. Each veto's
    pair is built once per truth value, and each class's stage-5 record and recommendation once."""
    vetoes = policy.stewardship.class_vetoes
    pairs, fragments = _pairs(vetoes)
    vetoed = [veto.class_id for veto in vetoes]
    candidates = {rule.rule_id: rule.candidate for rule in policy.clinical_rules}
    class_map = policy.class_map()
    escalation = {class_id for class_id, decl in class_map.items() if decl.escalation_tier}
    recommendations = _Memo(
        lambda c: ((StageRecord._encoded(_OUTPUT, (), "", (c,)),), SystemOutput._trusted(c)),
        len(class_map),
    )

    def build(key: tuple) -> tuple[StageRecord, tuple[StageRecord, ...], SystemOutput]:
        truths, fired = key[0], key[1:]
        nominated = set(map(candidates.__getitem__, fired))
        # An indeterminate veto vetoes, conservatively: any truth but FALSE selects its class.
        # Unless the justification is TRUE, the escalation-tier classes go as well.
        justified = truths[-1] == _TRUE
        removed = nominated.intersection(compress(vetoed, truths)) | (set() if justified else nominated & escalation)
        survivors = nominated - removed
        evaluated, texts = [*map(getitem, pairs, truths)], [*map(getitem, fragments, truths)]
        for rule_id in fired:
            if candidates[rule_id] in removed:
                evaluated.append((rule_id, _VETOED))
                texts.append(_PAIR_JSON[_VETOED](_quote(rule_id)))
        if removed:  # Into rule-id order, as ``StageRecord`` sorts its pairs; ids are unique in a policy.
            evaluated, texts = zip(*sorted(zip(evaluated, texts)))
        notes = ((JUSTIFIED_NOTE,) if justified else ()) + tuple(sorted(survivors))
        record = StageRecord._encoded(_STEWARDSHIP, tuple(evaluated), ",".join(texts), notes)
        if not survivors:
            return record, (), ending(_CONSERVATIVE_AMBIGUITY, (ALL_CANDIDATES_VETOED,))
        selection = _select_recommendation(class_map, survivors)
        if isinstance(selection, tuple):
            return record, (), ending(_CONSERVATIVE_AMBIGUITY, selection)
        return (record, *recommendations[selection])

    return _Memo(build)


def _select_recommendation(class_map: dict[str, ClassDecl], survivors: Collection[str]) -> "str | tuple[str, ...]":
    """Stage 5 selection: the unique minimal-rank survivor, or the tied ids."""
    minimal = min(class_map[class_id].spectrum_rank for class_id in survivors)
    tied = sorted(class_id for class_id in survivors if class_map[class_id].spectrum_rank == minimal)
    return tied[0] if len(tied) == 1 else tuple(tied)


def _abstain(
    compiled: _Compiled, stages: tuple[StageRecord, ...], category: AbstentionCategory, labels: Collection[str]
) -> tuple[SystemOutput, AuditTrace]:
    final = compiled.outputs[(category, frozenset(labels))]
    return final, AuditTrace._trusted(stages, final)


def decide(policy: Policy, case: CaseInput) -> tuple[SystemOutput, AuditTrace]:
    """Run the pipeline; returns the output and its full audit trace.

    Precondition: the case type-checks against the policy schema (the
    policy's kinds are checked when it is built, the case's by the suite
    bind step; a kind mismatch here is a programming error, not an abstention).
    """
    compiled = _compiled(policy)
    fields = case.fields

    # Stage 1: input assessment; missing fields, then conflicting signals, then unknown risks.
    record, final = compiled.consistency_records[bytes(compiled.consistency(fields))]
    stages = (record,)
    missing = _missing_required(policy, compiled, fields)
    if missing:
        return _abstain(compiled, stages, _MISSING_INPUTS, missing)
    if final is not None:
        return final, AuditTrace._trusted(stages, final)
    unknown = _unknown_risks(policy, compiled, fields)
    if unknown:
        return _abstain(compiled, stages, _UNKNOWN_RISK, unknown)

    # Stage 2: exclusions; a triggered one before one whose scope cannot be confirmed.
    truths = compiled.exclusions(fields)
    record, final = compiled.exclusion_records[bytes(truths)]
    stages += (record,)
    if final is not None:
        return final, AuditTrace._trusted(stages, final)
    if _INDETERMINATE in truths:
        unresolved = _unresolved(compiled, fields, policy.exclusions, truths)
        if unresolved:
            return _abstain(compiled, stages, _MISSING_INPUTS, unresolved)

    # Stage 3: clinical rules. A rule whose condition is indeterminate or whose required
    # field is missing abstains, and reads INDETERMINATE in the copy of the truth values
    # that picks the entry; these unmet fields come before the entry's ending.
    rules = policy.clinical_rules
    truths = compiled.clinical_rules(fields)
    picks = truths.copy()
    problems: set[str] = set()
    if not compiled.requires <= fields.keys():
        for position in compiled.requiring:
            missing_req = [name for name in rules[position].requires if name not in fields]
            if missing_req:
                picks[position] = _INDETERMINATE
                problems.update(missing_req)
    if _INDETERMINATE in truths:
        problems |= _unresolved(compiled, fields, rules, truths)
    record, final, fired = compiled.rule_records[bytes(picks)]
    stages += (record,)
    if problems:
        return _abstain(compiled, stages, _MISSING_INPUTS, problems)
    if final is not None:
        return final, AuditTrace._trusted(stages, final)

    # Stages 4 and 5: stewardship and output, one entry.
    record, tail, final = compiled.stewardship_outcomes[(bytes(compiled.stewardship(fields)), *fired)]
    return final, AuditTrace._trusted((*stages, record, *tail), final)
