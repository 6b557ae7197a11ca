"""Acceptance criteria for the decision engine and evaluation harness.

Each test checks one criterion end to end and prints exactly one
``[criterion N] PASS|FAIL`` line to the live terminal. All comparisons
are exact: concordance is rational arithmetic, determinism is byte
equality, digests are pinned hex constants. No tolerances apply.
"""

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

from oracle import as_tuple, full_assignments, make_mini_policy, oracle_decide

import absgate.engine as engine_module
from absgate import (
    decide,
    has_errors,
    load_reference_policy,
    load_reference_suite,
    parse_policy,
    parse_suite,
    policy_hash,
    run_suite,
    suite_hash,
    validate_policy,
)
from absgate.condition import Truth, evaluate
from absgate.evaluation import CHECK_NO_UNJUSTIFIED
from absgate.model import Action, ExpectedBehavior, MatchLevel, canonical_serialize
from absgate.reference import reference_policy_text, reference_suite_text

POLICY = load_reference_policy()
SUITE = load_reference_suite()

POLICY_SHA = "1f3b7eff9cf96c909b08c7c5280fb1444943340da2120cb7b3fae2d2e51827fb"
SUITE_SHA = "5bdc8e58d91826fafc6b2175afe57b7a3712b719038866c374c000c5a2912c74"

DEFECTIVE_DIR = Path(__file__).parent / "fixtures" / "defective"


def _report(capsys, number, description, problems):
    status = "PASS" if not problems else "FAIL"
    with capsys.disabled():
        print(f"[criterion {number}] {status} {description}")
    assert not problems, f"criterion {number}: " + "; ".join(problems)


def test_criterion_1_determinism(capsys):
    problems = []
    report = run_suite(POLICY, SUITE, runs=5)
    if not report.determinism_ok:
        problems.append(f"run digests diverged: {report.run_digests}")
    if len(set(report.run_digests)) != 1:
        problems.append("expected one distinct digest across 5 runs")
    baseline = {
        case.case_id: canonical_serialize(decide(POLICY, case)[0]) + canonical_serialize(decide(POLICY, case)[1])
        for case in SUITE.cases
    }
    for _ in range(50):
        for case in SUITE.cases:
            output, trace = decide(POLICY, case)
            if canonical_serialize(output) + canonical_serialize(trace) != baseline[case.case_id]:
                problems.append(f"repeated decide drifted on {case.case_id}")
                break
    _report(capsys, 1, "identical runs produce byte-identical outputs and traces", problems)


def test_criterion_2_reference_suite_reproduces_hand_expectations(capsys):
    problems = []
    report = run_suite(POLICY, SUITE, runs=1)
    if report.concordance_full != Fraction(1):
        problems.append(f"concordance_full {report.concordance_full} != 1")
    if report.concordance_action != Fraction(1):
        problems.append(f"concordance_action {report.concordance_action} != 1")
    for result in report.results:
        if result.match is not MatchLevel.FULL:
            problems.append(f"{result.case_id} matched at level {result.match.value}")
    _report(capsys, 2, "all 23 hand-derived reference expectations reproduced exactly", problems)


def test_criterion_3_every_abstention_category_and_recommendation_path_covered(capsys):
    problems = []
    report = run_suite(POLICY, SUITE, runs=1)
    for category, count in report.distribution.items():
        if count < 2:
            problems.append(f"category {category} exercised only {count} times")
    recommends = [r for r in report.results if r.actual.action is Action.RECOMMEND]
    if len(recommends) < 3:
        problems.append(f"only {len(recommends)} recommendations")
    escalations = {c.class_id for c in POLICY.classes if c.escalation_tier}
    if not any(r.actual.class_id in escalations for r in recommends):
        problems.append("no justified escalation recommendation in the suite")
    _report(capsys, 3, "each abstention category hit at least twice, with escalating and plain recommendations", problems)


def test_criterion_4_engine_agrees_with_the_independent_oracle(capsys):
    problems = []
    policies = 0
    cases = 0
    for seed in range(100):
        policy = make_mini_policy(seed)
        if has_errors(validate_policy(policy)):
            problems.append(f"generated policy {seed} invalid")
            continue
        policies += 1
        for case in full_assignments(policy):
            cases += 1
            expected = oracle_decide(policy, case)
            actual = as_tuple(decide(policy, case)[0])
            if actual != expected:
                problems.append(f"seed {seed} case {case.case_id}: oracle {expected} engine {actual}")
    if policies < 100:
        problems.append(f"only {policies} valid generated policies")
    if cases < 100:
        problems.append(f"only {cases} exhaustive cases swept")
    _report(capsys, 4, f"oracle equivalence on {policies} generated policies ({cases} exhaustive cases)", problems)


def test_criterion_5_stewardship_audit_catches_a_seeded_gate_bypass(capsys, monkeypatch):
    problems = []
    pristine = run_suite(POLICY, SUITE, runs=1)
    if not pristine.all_stewardship_pass():
        problems.append("audit flags the correct engine")

    def gate_bypass(policy, class_map, fields, fired):
        outcome = _honest_stage(policy, class_map, fields, fired)
        vetoed = {v.class_id for v in policy.stewardship.class_vetoes
                  if evaluate(v.when, fields) is not Truth.FALSE}
        survivors = frozenset({rule.candidate for rule in fired} - vetoed)
        notes = (("escalation_justification",) if outcome.justified else ()) + tuple(sorted(survivors))
        evaluated = tuple(pair for pair in outcome.evaluated if pair[1] is not engine_module.Verdict.VETOED)
        return engine_module._StewardshipOutcome(evaluated, notes, survivors, outcome.justified)

    _honest_stage = engine_module._stewardship_stage
    with monkeypatch.context() as patch:
        patch.setattr(engine_module, "_stewardship_stage", gate_bypass)
        bugged = run_suite(POLICY, SUITE, runs=1)
    failed = [f for f in bugged.stewardship_findings if not f.passed]
    if not failed:
        problems.append("audit missed the escalation gate bypass")
    if not any(f.check == CHECK_NO_UNJUSTIFIED for f in failed):
        problems.append("no no_unjustified_escalation finding")
    if bugged.concordance_full == Fraction(1):
        problems.append("behavioral comparison also missed the bug")
    restored = run_suite(POLICY, SUITE, runs=1)
    if not restored.all_stewardship_pass():
        problems.append("engine not restored after the seeded bug")
    _report(capsys, 5, "a seeded escalation-gate bypass is caught by the stewardship audit", problems)


def test_criterion_6_defective_policies_yield_precise_diagnostics(capsys):
    expected_codes = {
        "unknown_field.policy": "unknown_field",
        "duplicate_rule_id.policy": "duplicate_rule_id",
        "unjustifiable_escalation.policy": "unjustifiable_escalation_class",
        "asymmetric_incompatibility.policy": "asymmetric_incompatibility",
        "unknown_class.policy": "unknown_class",
        "type_mismatch.policy": "type_mismatch",
        "reserved_identifier.policy": "reserved_identifier",
        "missing_section.policy": "missing_section",
    }
    problems = []
    found = sorted(path.name for path in DEFECTIVE_DIR.glob("*.policy"))
    if found != sorted(expected_codes):
        problems.append(f"fixture set mismatch: {found}")
    for name, code in expected_codes.items():
        text = (DEFECTIVE_DIR / name).read_text(encoding="utf-8")
        policy, diags = parse_policy(text)
        if policy is not None:
            diags = list(diags) + validate_policy(policy)
        matching = [d for d in diags if d.code == code]
        if not matching:
            problems.append(f"{name}: expected {code}, got {[d.code for d in diags]}")
        elif any(d.severity.value != "error" for d in matching):
            problems.append(f"{name}: {code} not reported as an error")
        elif not has_errors(diags):
            problems.append(f"{name}: accepted despite defect")
    _report(capsys, 6, f"{len(expected_codes)} defective policies each produce their specific diagnostic", problems)


def test_criterion_7_one_flipped_expectation_moves_concordance_by_exactly_one_case(capsys):
    problems = []
    baseline = run_suite(POLICY, SUITE, runs=1)
    flipped_cases = tuple(
        dataclasses.replace(case, expected=ExpectedBehavior(Action.RECOMMEND, class_id="macrolide"))
        if case.case_id == "c17"
        else case
        for case in SUITE.cases
    )
    flipped = dataclasses.replace(SUITE, cases=flipped_cases)
    report = run_suite(POLICY, flipped, runs=1)
    delta = baseline.concordance_full - report.concordance_full
    if delta != Fraction(1, 23):
        problems.append(f"concordance_full moved by {delta}, not 1/23")
    if report.concordance_action != baseline.concordance_action:
        problems.append("concordance_action moved on a class-level flip")
    off = [r.case_id for r in report.results if r.match is not MatchLevel.FULL]
    if off != ["c17"]:
        problems.append(f"cases off target: {off}")
    _report(capsys, 7, "flipping one expected class shifts full concordance by exactly 1/23", problems)


def test_criterion_8_canonical_digests_are_pinned_and_format_insensitive(capsys):
    problems = []
    if policy_hash(POLICY) != POLICY_SHA:
        problems.append(f"policy digest {policy_hash(POLICY)}")
    if suite_hash(SUITE) != SUITE_SHA:
        problems.append(f"suite digest {suite_hash(SUITE)}")
    if SUITE.policy_hash_pin != policy_hash(POLICY):
        problems.append("suite pin does not match the policy digest")

    noisy = "# extra commentary\n\n" + reference_policy_text().replace(
        "field age : int", "field   age :   int  # years"
    ).replace(
        "field syndrome : token { pneumonia, uti, cellulitis }\nfield severity : token { mild, moderate, severe }",
        "field severity : token { mild, moderate, severe }\nfield syndrome : token { pneumonia, uti, cellulitis }",
    )
    reparsed, diags = parse_policy(noisy)
    if reparsed is None or diags:
        problems.append("perturbed policy text failed to parse")
    elif policy_hash(reparsed) != POLICY_SHA:
        problems.append("formatting or declaration order changed the policy digest")

    semantic, _ = parse_policy(reference_policy_text().replace("class macrolide rank 2", "class macrolide rank 3"))
    if semantic is None or policy_hash(semantic) == POLICY_SHA:
        problems.append("a semantic edit did not change the policy digest")

    doc = json.loads(reference_suite_text())
    doc["cases"] = list(reversed(doc["cases"]))
    reshuffled, sdiags = parse_suite(json.dumps(doc, indent=8))
    if reshuffled is None or sdiags:
        problems.append("reshuffled suite failed to parse")
    elif suite_hash(reshuffled) != SUITE_SHA:
        problems.append("case order or JSON formatting changed the suite digest")

    doc["cases"] = doc["cases"][1:]
    trimmed, _ = parse_suite(json.dumps(doc))
    if trimmed is None or suite_hash(trimmed) == SUITE_SHA:
        problems.append("dropping a case did not change the suite digest")
    _report(capsys, 8, "policy and suite digests match pinned constants and ignore formatting", problems)
