import dataclasses
import json
from fractions import Fraction

import pytest

import absgate.engine as engine_module
import absgate.evaluation as evaluation_module
from absgate import (
    canonical_bytes,
    decide,
    load_reference_policy,
    load_reference_suite,
    run_suite,
)
from absgate.condition import Truth, evaluate
from absgate.engine import _VERDICTS, _StewardshipOutcome
from absgate.evaluation import (
    CHECK_DOCUMENTED,
    CHECK_NARROW,
    CHECK_NO_UNJUSTIFIED,
    CaseResult,
    EmptySuiteError,
    TraceRequiredError,
    abstention_distribution,
    concordance,
    coverage_by_mechanism,
    render_ratio,
    stewardship_audit,
)
from absgate.model import (
    AbstentionCategory,
    Action,
    ExpectedBehavior,
    MatchLevel,
    SystemOutput,
    Verdict,
)

POLICY = load_reference_policy()
SUITE = load_reference_suite()


def test_render_ratio_is_exact_and_rounds_half_up():
    assert render_ratio(Fraction(1)) == "1.0000"
    assert render_ratio(Fraction(0)) == "0.0000"
    assert render_ratio(Fraction(1, 3)) == "0.3333"
    assert render_ratio(Fraction(2, 3)) == "0.6667"
    assert render_ratio(Fraction(1, 8)) == "0.1250"
    assert render_ratio(Fraction(1, 16000)) == "0.0001"
    assert render_ratio(Fraction(1, 32000)) == "0.0000"
    assert render_ratio(Fraction(5, 100000)) == "0.0001"
    with pytest.raises(ValueError):
        render_ratio(Fraction(-1, 2))


def _result(case_id, mechanism, actual, expected, match):
    return CaseResult(case_id, mechanism, actual, expected, match, "0" * 64)


def _synthetic_results():
    rec = SystemOutput.recommend("narrow_penicillin")
    ab = SystemOutput.abstain(AbstentionCategory.MISSING_INPUTS, ["age"])
    return [
        _result("k1", "m1", rec, ExpectedBehavior(Action.RECOMMEND, class_id="narrow_penicillin"), MatchLevel.FULL),
        _result("k2", "m1", rec, ExpectedBehavior(Action.RECOMMEND, class_id="macrolide"), MatchLevel.ACTION),
        _result("k3", "m2", ab, ExpectedBehavior(Action.RECOMMEND, class_id="macrolide"), MatchLevel.MISMATCH),
        _result("k4", "m2", ab, ExpectedBehavior(Action.ABSTAIN), MatchLevel.FULL),
    ]


def test_concordance_counts_action_and_full_separately():
    action_level, full_level = concordance(_synthetic_results())
    assert action_level == Fraction(3, 4)
    assert full_level == Fraction(2, 4)
    with pytest.raises(EmptySuiteError):
        concordance([])


def test_coverage_is_the_recommendation_rate_per_mechanism():
    coverage = coverage_by_mechanism(_synthetic_results())
    assert coverage == {"m1": Fraction(2, 2), "m2": Fraction(0, 2)}


def test_abstention_distribution_has_explicit_zeros():
    distribution = abstention_distribution(_synthetic_results())
    assert distribution == {
        "missing_inputs": 2,
        "unknown_risk": 0,
        "conflicting_signals": 0,
        "explicit_exclusion": 0,
        "conservative_ambiguity": 0,
    }


def test_reference_run_is_fully_concordant():
    report = run_suite(POLICY, SUITE, runs=3)
    assert report.concordance_action == Fraction(1)
    assert report.concordance_full == Fraction(1)
    assert report.determinism_ok is True
    assert len(report.run_digests) == 3
    assert len(set(report.run_digests)) == 1
    assert report.distribution == {
        "missing_inputs": 5,
        "unknown_risk": 2,
        "conflicting_signals": 3,
        "explicit_exclusion": 3,
        "conservative_ambiguity": 4,
    }
    assert report.all_stewardship_pass()
    assert len(report.stewardship_findings) == 15


def test_report_serializes_canonically():
    report = run_suite(POLICY, SUITE, runs=2)
    doc = json.loads(canonical_bytes(report.to_canonical()))
    assert set(doc) == {
        "policy_hash",
        "suite_hash",
        "run_count",
        "results",
        "concordance_action",
        "concordance_full",
        "coverage_by_mechanism",
        "abstention_distribution",
        "stewardship_findings",
        "determinism_ok",
        "run_digests",
    }
    assert doc["run_count"] == 2
    assert doc["concordance_full"] == "1.0000"
    assert len(doc["results"]) == 23
    assert doc["results"][0]["case_id"] == "c01"
    assert all(finding["pass"] is True for finding in doc["stewardship_findings"])


def test_run_suite_validates_arguments():
    with pytest.raises(ValueError):
        run_suite(POLICY, SUITE, runs=0)


def test_audit_requires_traces():
    report = run_suite(POLICY, SUITE, runs=1)
    recommended = [r for r in report.results if r.actual.action is Action.RECOMMEND]
    with pytest.raises(TraceRequiredError):
        stewardship_audit(POLICY, recommended, {})


def _gate_skipping_stewardship(policy, class_map, fields, fired):
    """Seeded bug: the escalation justification gate is never applied."""
    candidates = {rule.candidate for rule in fired}
    evaluated = []
    vetoed = set()
    for veto in policy.stewardship.class_vetoes:
        truth = evaluate(veto.when, fields)
        evaluated.append((veto.rule_id, _VERDICTS[truth.value]))
        if truth is not Truth.FALSE:
            vetoed.add(veto.class_id)
    justified = evaluate(policy.stewardship.escalation_justification, fields) is Truth.TRUE
    survivors = candidates - vetoed
    for rule in fired:
        if rule.candidate not in survivors:
            evaluated.append((rule.rule_id, Verdict.VETOED))
    notes = (("escalation_justification",) if justified else ()) + tuple(sorted(survivors))
    return _StewardshipOutcome(tuple(evaluated), notes, frozenset(survivors), justified)


def test_audit_catches_a_skipped_escalation_gate(monkeypatch):
    monkeypatch.setattr(engine_module, "_stewardship_stage", _gate_skipping_stewardship)
    report = run_suite(POLICY, SUITE, runs=1)
    failed = [f for f in report.stewardship_findings if not f.passed]
    assert failed, "the audit must flag the unjustified escalation"
    assert {f.check for f in failed} == {CHECK_NO_UNJUSTIFIED, CHECK_DOCUMENTED}
    assert "c21" in {f.case_id for f in failed}
    by_case = {r.case_id: r for r in report.results}
    assert by_case["c21"].actual.class_id == "broad_beta_lactam"
    assert by_case["c21"].match is MatchLevel.MISMATCH


def _broadest_selector(class_map, survivors):
    """Seeded bug: picks the broadest survivor instead of the narrowest."""
    worst = max(class_map[class_id].spectrum_rank for class_id in survivors)
    tied = sorted(class_id for class_id in survivors if class_map[class_id].spectrum_rank == worst)
    return tied[0] if len(tied) == 1 else tuple(tied)


def test_audit_catches_a_broadest_first_selector(monkeypatch):
    monkeypatch.setattr(engine_module, "_select_recommendation", _broadest_selector)
    report = run_suite(POLICY, SUITE, runs=1)
    failed = [f for f in report.stewardship_findings if not f.passed]
    assert {f.check for f in failed} == {CHECK_NARROW}
    assert {f.case_id for f in failed} == {"c23"}
    by_case = {r.case_id: r for r in report.results}
    assert by_case["c23"].actual.class_id == "antipseudomonal"


def test_determinism_check_fails_on_an_unstable_engine(monkeypatch):
    calls = {"n": 0}

    def flaky_decide(policy, case):
        if case.case_id == "c17":
            calls["n"] += 1
            if calls["n"] > 1:
                # Crosses the geriatric veto threshold, so a recorded
                # verdict changes between runs.
                jittered = dataclasses.replace(
                    case,
                    fields={**case.fields, "age": type(case.fields["age"]).integer(90)},
                )
                return decide(policy, jittered)
        return decide(policy, case)

    monkeypatch.setattr(evaluation_module, "decide", flaky_decide)
    report = run_suite(POLICY, SUITE, runs=3)
    assert report.determinism_ok is False
    assert len(set(report.run_digests)) > 1


def test_flipping_one_expected_class_moves_full_concordance_by_one_case():
    flipped_cases = tuple(
        dataclasses.replace(case, expected=ExpectedBehavior(Action.RECOMMEND, class_id="macrolide"))
        if case.case_id == "c17"
        else case
        for case in SUITE.cases
    )
    flipped = dataclasses.replace(SUITE, cases=flipped_cases)
    report = run_suite(POLICY, flipped, runs=1)
    assert report.concordance_action == Fraction(1)
    assert report.concordance_full == Fraction(22, 23)
    off = [r for r in report.results if r.match is not MatchLevel.FULL]
    assert [r.case_id for r in off] == ["c17"]
    assert off[0].match is MatchLevel.ACTION
