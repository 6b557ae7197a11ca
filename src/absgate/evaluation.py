"""Behavioral evaluation: metrics, stewardship audit, canonical report.

All ratios are exact ``fractions.Fraction`` values internally and are
rendered to 4-decimal fixed-point strings only at serialization, with
round-half-up performed in integer arithmetic. The canonical report is the
single machine format: JSON with sorted keys and no timestamps, machine
names, or absolute paths, so identical inputs always produce byte-identical
report files.

Determinism is not assumed but measured: the suite is executed ``runs``
times and each run's outputs and traces are folded into one digest; the
report's ``determinism_ok`` is true exactly when all run digests agree.
``CaseResult``, ``StewardshipFinding`` and ``EvaluationReport`` are
``NamedTuple`` records.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from typing import Any, Iterable, Mapping, NamedTuple

from .engine import decide
from .model import (
    AbstentionCategory,
    Action,
    AuditTrace,
    ExpectedBehavior,
    MatchLevel,
    Stage,
    SystemOutput,
    canonical_serialize,
    compare_outputs,
)
from .policy import JUSTIFIED_NOTE, ClassDecl, Policy, policy_hash
from .suite import Suite, suite_hash

__all__ = [
    "EmptySuiteError",
    "TraceRequiredError",
    "CaseResult",
    "StewardshipFinding",
    "EvaluationReport",
    "render_ratio",
    "concordance",
    "coverage_by_mechanism",
    "abstention_distribution",
    "stewardship_audit",
    "run_suite",
]

# Enum members read as globals, which is several times cheaper than reading
# them off their classes.
_RECOMMEND, _ABSTAIN = Action
_FULL, _ACTION = MatchLevel.FULL, MatchLevel.ACTION
_STEWARDSHIP = Stage.STEWARDSHIP

CHECK_NARROW = "narrow_preference"
CHECK_NO_UNJUSTIFIED = "no_unjustified_escalation"
CHECK_DOCUMENTED = "justified_escalation_documented"


class EmptySuiteError(ValueError):
    """Raised when a metric is asked about zero results (code empty_suite)."""


class TraceRequiredError(ValueError):
    """Raised when the stewardship audit lacks a trace (code trace_required)."""


def render_ratio(value: Fraction) -> str:
    """Exact 4-decimal rendering of a non-negative ratio, round half up."""
    if value < 0:
        raise ValueError(f"ratio must be non-negative: {value}")
    scaled, remainder = divmod(value.numerator * 10000, value.denominator)
    if 2 * remainder >= value.denominator:
        scaled += 1
    return f"{scaled // 10000}.{scaled % 10000:04d}"


class CaseResult(NamedTuple):
    case_id: str
    mechanism: str
    actual: SystemOutput
    expected: ExpectedBehavior
    match: MatchLevel
    trace_digest: str

    def to_canonical(self) -> dict[str, Any]:
        return {
            "case_id": self.case_id,
            "mechanism": self.mechanism,
            "actual": self.actual.to_canonical(),
            "expect": self.expected.to_canonical(),
            "match": self.match.value,
            "trace_digest": self.trace_digest,
        }


class StewardshipFinding(NamedTuple):
    case_id: str
    check: str
    passed: bool
    detail: tuple[str, ...] = ()

    def to_canonical(self) -> dict[str, Any]:
        return {
            "case_id": self.case_id,
            "check": self.check,
            "pass": self.passed,
            "detail": list(self.detail),
        }


class EvaluationReport(NamedTuple):
    policy_digest: str
    suite_digest: str
    run_count: int
    results: tuple[CaseResult, ...]
    concordance_action: Fraction
    concordance_full: Fraction
    coverage: dict[str, Fraction]
    distribution: dict[str, int]
    stewardship_findings: tuple[StewardshipFinding, ...]
    determinism_ok: bool
    run_digests: tuple[str, ...]

    def to_canonical(self) -> dict[str, Any]:
        return {
            "policy_hash": self.policy_digest,
            "suite_hash": self.suite_digest,
            "run_count": self.run_count,
            "results": [r.to_canonical() for r in self.results],
            "concordance_action": render_ratio(self.concordance_action),
            "concordance_full": render_ratio(self.concordance_full),
            "coverage_by_mechanism": {m: render_ratio(v) for m, v in self.coverage.items()},
            "abstention_distribution": dict(self.distribution),
            "stewardship_findings": [f.to_canonical() for f in self.stewardship_findings],
            "determinism_ok": self.determinism_ok,
            "run_digests": list(self.run_digests),
        }

    def all_stewardship_pass(self) -> bool:
        return all(f.passed for f in self.stewardship_findings)


def concordance(results: Iterable[CaseResult]) -> tuple[Fraction, Fraction]:
    """(action-level, full) concordance as exact fractions."""
    results = list(results)
    if not results:
        raise EmptySuiteError("empty_suite: concordance over zero results")
    total = len(results)
    full = sum(1 for r in results if r.match is _FULL)
    action = sum(1 for r in results if r.match is _FULL or r.match is _ACTION)
    return Fraction(action, total), Fraction(full, total)


def coverage_by_mechanism(results: Iterable[CaseResult]) -> dict[str, Fraction]:
    """Per-mechanism share of cases that ended in a recommendation."""
    totals: dict[str, int] = {}
    recommended: dict[str, int] = {}
    for result in results:
        totals[result.mechanism] = totals.get(result.mechanism, 0) + 1
        if result.actual.action is _RECOMMEND:
            recommended[result.mechanism] = recommended.get(result.mechanism, 0) + 1
    return {m: Fraction(recommended.get(m, 0), total) for m, total in sorted(totals.items())}


def abstention_distribution(results: Iterable[CaseResult]) -> dict[str, int]:
    """Counts per abstention category, explicit zeros included."""
    counts = {category.value: 0 for category in AbstentionCategory}
    for result in results:
        if result.actual.action is _ABSTAIN:
            assert result.actual.reason is not None
            counts[result.actual.reason.category.value] += 1
    return counts


def _audit_result(
    class_map: Mapping[str, ClassDecl], result: CaseResult, trace: AuditTrace | None
) -> list[StewardshipFinding]:
    """The stewardship findings for one result: none unless it recommends,
    and then the checks of its recommendation against its trace."""
    if result.actual.action is not _RECOMMEND:
        return []
    if trace is None:
        raise TraceRequiredError(f"trace_required: no trace recorded for case '{result.case_id}'")
    for record in trace.stages:
        if record.stage is _STEWARDSHIP:
            break
    else:
        raise TraceRequiredError(f"trace_required: case '{result.case_id}' has no stewardship stage")
    justified = JUSTIFIED_NOTE in record.notes
    survivors = tuple(note for note in record.notes if note != JUSTIFIED_NOTE)
    recommended = result.actual.class_id
    assert recommended is not None
    recommended_rank = class_map[recommended].spectrum_rank
    survivor_ranks = [class_map[s].spectrum_rank for s in survivors if s in class_map]
    narrow_ok = bool(survivor_ranks) and recommended_rank <= min(survivor_ranks) and recommended in survivors
    escalation = class_map[recommended].escalation_tier
    findings = [
        StewardshipFinding(result.case_id, CHECK_NARROW, narrow_ok, survivors),
        StewardshipFinding(result.case_id, CHECK_NO_UNJUSTIFIED, (not escalation) or justified, (recommended,)),
    ]
    if escalation:
        findings.append(StewardshipFinding(result.case_id, CHECK_DOCUMENTED, justified, (recommended, JUSTIFIED_NOTE)))
    return findings


def stewardship_audit(
    policy: Policy,
    results: Iterable[CaseResult],
    traces: Mapping[str, AuditTrace],
) -> list[StewardshipFinding]:
    """Check every recommendation against the stewardship constraints.

    Findings are derived from the audit traces, not recomputed from the
    policy semantics, so a misbehaving stage 4 that still records its
    survivor set honestly is caught rather than excused.
    """
    class_map = policy.class_map()
    findings: list[StewardshipFinding] = []
    for result in results:
        findings += _audit_result(class_map, result, traces.get(result.case_id))
    return findings


def run_suite(policy: Policy, suite: Suite, runs: int = 3) -> EvaluationReport:
    """Execute the suite ``runs`` times and assemble the canonical report.

    Precondition: ``bind_suite(suite, policy)`` reported no errors. Cases
    execute in case-id order, one after another. Each case of the first run
    is audited as soon as it is decided (as ``stewardship_audit`` would), so
    no trace outlives its case.
    """
    if type(runs) is not int or runs < 1:
        raise ValueError(f"runs must be an int of at least 1: {runs!r}")

    class_map = policy.class_map()
    run_digests: list[str] = []
    built: list[CaseResult] = []
    findings: list[StewardshipFinding] = []
    for run_index in range(runs):
        stream = hashlib.sha256()
        for case in suite.cases:
            output, trace = decide(policy, case)
            trace_bytes = canonical_serialize(trace)
            stream.update(canonical_serialize(output))
            stream.update(trace_bytes)
            if run_index == 0:
                result = CaseResult(
                    case_id=case.case_id,
                    mechanism=case.mechanism,
                    actual=output,
                    expected=case.expected,
                    match=compare_outputs(output, case.expected),
                    trace_digest=hashlib.sha256(trace_bytes).hexdigest(),
                )
                built.append(result)
                findings += _audit_result(class_map, result, trace)
        run_digests.append(stream.hexdigest())
    results = tuple(built)

    action_level, full_level = concordance(results)
    return EvaluationReport(
        policy_digest=policy_hash(policy),
        suite_digest=suite_hash(suite),
        run_count=runs,
        results=results,
        concordance_action=action_level,
        concordance_full=full_level,
        coverage=coverage_by_mechanism(results),
        distribution=abstention_distribution(results),
        stewardship_findings=tuple(findings),
        determinism_ok=len(set(run_digests)) == 1,
        run_digests=tuple(run_digests),
    )
