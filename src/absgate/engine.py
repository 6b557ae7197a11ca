"""Decision engine: a strictly sequential five-stage pipeline.

Stages run in a fixed order and the first terminating condition wins:

1. input_assessment — globally required fields, consistency constraints,
   unrecognized risk tokens (in that precedence).
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

Each stage's conditions (consistency constraints, exclusions, clinical
rules, and the vetoes with the escalation justification last) are compiled
once per ``Policy`` into one program over shared atoms
(``condition.compile_conditions``), cached on the policy with its class map
and risk-field names. A stage's program runs only when the stage is reached,
and evaluates every condition of the stage, so a kind mismatch raises
whatever the other conditions yield.

``decide`` is pure and deterministic: identical policy and case always
produce bitwise-identical canonical output and trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .condition import _FALSE, _INDETERMINATE, _TRUE, _Program, compile_conditions, unresolved_fields
from .model import (
    AbstentionCategory,
    AuditTrace,
    CaseInput,
    FieldKind,
    Stage,
    StageRecord,
    SystemOutput,
    Verdict,
)
from .policy import ALL_CANDIDATES_VETOED, JUSTIFIED_NOTE, NO_CANDIDATE, ClassDecl, ClinicalRule, Policy

__all__ = ["CompletenessReport", "assess_inputs", "decide"]

# A rule's verdict, indexed by its condition's truth value.
_VERDICTS = (Verdict.NOT_FIRED, Verdict.INDETERMINATE, Verdict.FIRED)


class _Compiled(NamedTuple):
    """What ``decide`` needs of a policy beyond its declarations."""

    consistency: _Program
    exclusions: _Program
    clinical_rules: _Program
    # The class vetoes in order, then the escalation justification.
    stewardship: _Program
    class_map: dict[str, ClassDecl]
    risk_fields: tuple[str, ...]


def _compiled(policy: Policy) -> _Compiled:
    """The policy's stage programs and tables, built on first use and cached
    on the instance (``Policy.__getstate__`` leaves them out)."""
    try:
        return policy._compiled  # type: ignore[attr-defined]
    except AttributeError:
        pass
    stewardship = policy.stewardship
    compiled = _Compiled(
        compile_conditions(c.forbid for c in policy.consistency),
        compile_conditions(e.when for e in policy.exclusions),
        compile_conditions(r.when for r in policy.clinical_rules),
        compile_conditions([*(v.when for v in stewardship.class_vetoes), stewardship.escalation_justification]),
        policy.class_map(),
        tuple(decl.name for decl in policy.risk_fields()),
    )
    object.__setattr__(policy, "_compiled", compiled)
    return compiled


@dataclass(frozen=True)
class CompletenessReport:
    """Stage-1 findings; total over any type-checked case."""

    missing_required: tuple[str, ...]
    consistency_violations: tuple[str, ...]
    unknown_risk_tokens: tuple[str, ...]
    # Verdict per consistency constraint, kept for the audit trace.
    consistency_verdicts: tuple[tuple[str, Verdict], ...] = ()


def assess_inputs(policy: Policy, case: CaseInput) -> CompletenessReport:
    """Assess case completeness and input coherence against the policy."""
    compiled = _compiled(policy)
    fields = case.fields
    missing = tuple(sorted(name for name in policy.required if name not in fields))
    truths = compiled.consistency(fields)
    # Built from a list, which sizes the tuple exactly; a generator would
    # over-allocate and shrink it (measured: a higher peak heap in run_suite).
    verdicts = tuple([(rule.rule_id, _VERDICTS[truth]) for rule, truth in zip(policy.consistency, truths)])
    unknown: set[str] = set()
    for name in compiled.risk_fields:
        value = fields.get(name)
        if value is not None and value.kind is FieldKind.TOKEN_SET:
            unknown.update(token for token in value.value if token not in policy.known_risks)
    return CompletenessReport(
        missing_required=missing,
        consistency_violations=tuple(sorted(rule_id for rule_id, verdict in verdicts if verdict is Verdict.FIRED)),
        unknown_risk_tokens=tuple(sorted(unknown)),
        consistency_verdicts=verdicts,
    )


@dataclass(frozen=True)
class _StewardshipOutcome:
    evaluated: tuple[tuple[str, Verdict], ...]
    notes: tuple[str, ...]
    survivors: frozenset[str]
    justified: bool


def _stewardship_stage(
    policy: Policy, class_map: dict[str, ClassDecl], fields, fired: list[ClinicalRule]
) -> _StewardshipOutcome:
    """Stage 4: veto pruning and the escalation gate."""
    candidates = {rule.candidate for rule in fired}
    evaluated: list[tuple[str, Verdict]] = []
    vetoed_classes: set[str] = set()
    truths = _compiled(policy).stewardship(fields)
    for veto, truth in zip(policy.stewardship.class_vetoes, truths):
        evaluated.append((veto.rule_id, _VERDICTS[truth]))
        if truth != _FALSE:  # indeterminate vetoes, conservatively
            vetoed_classes.add(veto.class_id)
    justified = truths[-1] == _TRUE
    survivors: set[str] = set()
    removed: set[str] = set()
    for class_id in candidates:
        if class_id in vetoed_classes or (class_map[class_id].escalation_tier and not justified):
            removed.add(class_id)
        else:
            survivors.add(class_id)
    for rule in fired:
        if rule.candidate in removed:
            evaluated.append((rule.rule_id, Verdict.VETOED))
    notes = ((JUSTIFIED_NOTE,) if justified else ()) + tuple(sorted(survivors))
    return _StewardshipOutcome(tuple(evaluated), notes, frozenset(survivors), justified)


def _select_recommendation(class_map: dict[str, ClassDecl], survivors: frozenset[str]) -> "str | tuple[str, ...]":
    """Stage 5 selection: the unique minimal-rank survivor, or the tied ids."""
    minimal = min(class_map[class_id].spectrum_rank for class_id in survivors)
    tied = sorted(class_id for class_id in survivors if class_map[class_id].spectrum_rank == minimal)
    return tied[0] if len(tied) == 1 else tuple(tied)


def _abstain(
    stages: list[StageRecord], category: AbstentionCategory, labels: tuple[str, ...] | list[str]
) -> tuple[SystemOutput, AuditTrace]:
    final = SystemOutput.abstain(category, labels)
    return final, AuditTrace(tuple(stages), final)


def decide(policy: Policy, case: CaseInput) -> tuple[SystemOutput, AuditTrace]:
    """Run the pipeline; returns the output and its full audit trace.

    Precondition: the case type-checks against the policy schema (the suite
    bind step enforces this; a kind mismatch here is a programming error,
    not an abstention).
    """
    compiled = _compiled(policy)
    fields = case.fields
    stages: list[StageRecord] = []

    # Stage 1: input assessment.
    report = assess_inputs(policy, case)
    stages.append(StageRecord(Stage.INPUT_ASSESSMENT, report.consistency_verdicts))
    if report.missing_required:
        return _abstain(stages, AbstentionCategory.MISSING_INPUTS, report.missing_required)
    if report.consistency_violations:
        return _abstain(stages, AbstentionCategory.CONFLICTING_SIGNALS, report.consistency_violations)
    if report.unknown_risk_tokens:
        return _abstain(stages, AbstentionCategory.UNKNOWN_RISK, report.unknown_risk_tokens)

    # Stage 2: exclusions.
    evaluated: list[tuple[str, Verdict]] = []
    triggered_labels: list[str] = []
    unresolved: set[str] = set()
    for exclusion, truth in zip(policy.exclusions, compiled.exclusions(fields)):
        evaluated.append((exclusion.rule_id, _VERDICTS[truth]))
        if truth == _TRUE:
            triggered_labels.append(exclusion.label)
        elif truth == _INDETERMINATE:
            unresolved.update(unresolved_fields(exclusion.when, fields))
    stages.append(StageRecord(Stage.EXCLUSIONS, tuple(evaluated)))
    if triggered_labels:
        return _abstain(stages, AbstentionCategory.EXPLICIT_EXCLUSION, sorted(triggered_labels))
    if unresolved:
        return _abstain(stages, AbstentionCategory.MISSING_INPUTS, sorted(unresolved))

    # Stage 3: clinical rules.
    evaluated = []
    fired: list[ClinicalRule] = []
    problems: set[str] = set()
    for rule, truth in zip(policy.clinical_rules, compiled.clinical_rules(fields)):
        missing_req = [name for name in rule.requires if name not in fields] if rule.requires else ()
        if missing_req or truth == _INDETERMINATE:
            evaluated.append((rule.rule_id, Verdict.INDETERMINATE))
            problems.update(missing_req)
            if truth == _INDETERMINATE:
                problems.update(unresolved_fields(rule.when, fields))
        elif truth == _TRUE:
            evaluated.append((rule.rule_id, Verdict.FIRED))
            fired.append(rule)
        else:
            evaluated.append((rule.rule_id, Verdict.NOT_FIRED))
    stages.append(StageRecord(Stage.CLINICAL_RULES, tuple(evaluated)))
    if problems:
        return _abstain(stages, AbstentionCategory.MISSING_INPUTS, sorted(problems))
    fired_ids = {rule.rule_id for rule in fired}
    conflicted: set[str] = set()
    for rule in fired:
        for other in rule.incompatible_with:
            if other in fired_ids:
                conflicted.update((rule.rule_id, other))
    if conflicted:
        return _abstain(stages, AbstentionCategory.CONFLICTING_SIGNALS, sorted(conflicted))
    if not fired:
        return _abstain(stages, AbstentionCategory.CONSERVATIVE_AMBIGUITY, (NO_CANDIDATE,))

    # Stage 4: stewardship.
    class_map = compiled.class_map
    outcome = _stewardship_stage(policy, class_map, fields, fired)
    stages.append(StageRecord(Stage.STEWARDSHIP, outcome.evaluated, outcome.notes))
    if not outcome.survivors:
        return _abstain(stages, AbstentionCategory.CONSERVATIVE_AMBIGUITY, (ALL_CANDIDATES_VETOED,))
    selection = _select_recommendation(class_map, outcome.survivors)
    if isinstance(selection, tuple):
        return _abstain(stages, AbstentionCategory.CONSERVATIVE_AMBIGUITY, selection)

    # Stage 5: output.
    final = SystemOutput.recommend(selection)
    stages.append(StageRecord(Stage.OUTPUT, (), (selection,)))
    return final, AuditTrace(tuple(stages), final)
