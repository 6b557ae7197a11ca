import json
import pickle
from fractions import Fraction
from importlib import resources

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
from absgate.cli import main
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
    AuditTrace,
    ExpectedBehavior,
    MatchLevel,
    Stage,
    StageRecord,
    SystemOutput,
)

POLICY = load_reference_policy()
SUITE = load_reference_suite()
POLICY_PATH = str(resources.files("absgate.data").joinpath("reference.policy"))
SUITE_PATH = str(resources.files("absgate.data").joinpath("reference_suite.json"))


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
    # Only an exact int of at least 1 is a run count: a bool would be written
    # into the report as ``true``, and the others would fail as TypeError.
    for runs in (0, -1, True, False, 2.5, 3.0, "3", None):
        with pytest.raises(ValueError, match="^runs must be an int of at least 1: "):
            run_suite(POLICY, SUITE, runs=runs)


def test_audit_requires_traces():
    report = run_suite(POLICY, SUITE, runs=1)
    recommended = [r for r in report.results if r.actual.action is Action.RECOMMEND]
    with pytest.raises(TraceRequiredError):
        stewardship_audit(POLICY, recommended, {})
    first = recommended[0]
    stageless = AuditTrace((StageRecord(Stage.INPUT_ASSESSMENT),), first.actual)
    with pytest.raises(TraceRequiredError, match=f"^trace_required: case '{first.case_id}' has no stewardship stage$"):
        stewardship_audit(POLICY, [first], {first.case_id: stageless})


def _cold(policy):
    """A copy of ``policy`` whose memos are empty, so a bug seeded in the
    engine's memo builders shows in every decision."""
    return pickle.loads(pickle.dumps(policy))


_honest_outcomes = engine_module._outcomes


def _gate_skipping_stewardship(policy, ending):
    """Seeded bug: the escalation justification gate is never applied. Stage
    4 is built as for the policy with no escalation-tier class, so only the
    vetoes prune, and the notes still record the justification."""
    classes = [c._replace(escalation_tier=False) for c in policy.classes]
    return _honest_outcomes(policy._replace(classes=classes), ending)


def test_audit_catches_a_skipped_escalation_gate(monkeypatch):
    monkeypatch.setattr(engine_module, "_outcomes", _gate_skipping_stewardship)
    report = run_suite(_cold(POLICY), SUITE, runs=1)
    failed = [f for f in report.stewardship_findings if not f.passed]
    assert failed, "the audit must flag the unjustified escalation"
    assert {f.check for f in failed} == {CHECK_NO_UNJUSTIFIED, CHECK_DOCUMENTED}
    assert "c21" in {f.case_id for f in failed}
    by_case = {r.case_id: r for r in report.results}
    assert by_case["c21"].actual.class_id == "broad_beta_lactam"
    assert by_case["c21"].match is MatchLevel.MISMATCH


@pytest.mark.parametrize("seeded_bug", [False, True], ids=["honest", "gate_skipped"])
def test_run_suite_audits_each_case_as_stewardship_audit_does(monkeypatch, seeded_bug):
    # run_suite audits each case as it is decided and keeps no trace; its
    # findings, failures and order included, are those of the public audit.
    if seeded_bug:
        monkeypatch.setattr(engine_module, "_outcomes", _gate_skipping_stewardship)
    policy = _cold(POLICY)
    report = run_suite(policy, SUITE, runs=1)
    traces = {case.case_id: decide(policy, case)[1] for case in SUITE.cases}
    assert list(report.stewardship_findings) == stewardship_audit(POLICY, report.results, traces)
    assert report.all_stewardship_pass() is not seeded_bug


def test_the_cli_summary_lists_each_failed_audit_check(monkeypatch, capsys):
    # The command parses its own policy, so its memos start empty.
    monkeypatch.setattr(engine_module, "_outcomes", _gate_skipping_stewardship)
    assert main(["evaluate", "--policy", POLICY_PATH, "--suite", SUITE_PATH, "--runs", "1", "--strict"]) == 1
    assert (
        "stewardship FAIL (2 of 18 checks failed)\n"
        "  c21 no_unjustified_escalation ('broad_beta_lactam',)\n"
        "  c21 justified_escalation_documented ('broad_beta_lactam', 'escalation_justification')\n"
    ) in capsys.readouterr().out


def _broadest_selector(class_map, survivors):
    """Seeded bug: picks the broadest survivor instead of the narrowest."""
    worst = max(class_map[class_id].spectrum_rank for class_id in survivors)
    tied = sorted(class_id for class_id in survivors if class_map[class_id].spectrum_rank == worst)
    return tied[0] if len(tied) == 1 else tuple(tied)


def test_audit_catches_a_broadest_first_selector(monkeypatch):
    monkeypatch.setattr(engine_module, "_select_recommendation", _broadest_selector)
    report = run_suite(_cold(POLICY), SUITE, runs=1)
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
                jittered = case._replace(fields={**case.fields, "age": type(case.fields["age"]).integer(90)})
                return decide(policy, jittered)
        return decide(policy, case)

    monkeypatch.setattr(evaluation_module, "decide", flaky_decide)
    report = run_suite(POLICY, SUITE, runs=3)
    assert report.determinism_ok is False
    assert len(set(report.run_digests)) > 1


def test_flipping_one_expected_class_moves_full_concordance_by_one_case():
    flipped_cases = tuple(
        case._replace(expected=ExpectedBehavior(Action.RECOMMEND, class_id="macrolide"))
        if case.case_id == "c17"
        else case
        for case in SUITE.cases
    )
    flipped = SUITE._replace(cases=flipped_cases)
    report = run_suite(POLICY, flipped, runs=1)
    assert report.concordance_action == Fraction(1)
    assert report.concordance_full == Fraction(22, 23)
    off = [r for r in report.results if r.match is not MatchLevel.FULL]
    assert [r.case_id for r in off] == ["c17"]
    assert off[0].match is MatchLevel.ACTION
