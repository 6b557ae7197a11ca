"""Engine-versus-oracle equivalence over exhaustive input sweeps.

The oracle in ``tests/oracle.py`` is an independent transcription of the
stage rules; here the real engine must agree with it, on the output and on
every stage of the audit trace, on every case of every generated policy and
on the shipped reference suite.
"""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absgate import engine, has_errors, load_reference_policy, load_reference_suite, validate_policy
from absgate.model import AuditTrace, Stage, Verdict

from oracle import (
    as_trace,
    as_tuple,
    full_assignments,
    kind_cases,
    make_kind_policy,
    make_mini_policy,
    oracle_decide,
    oracle_trace,
    partial_assignments,
)


def _disagreements(policy, case) -> set[str]:
    """Which of ``"output"`` and ``"trace"`` the engine and the oracle
    disagree on; the engine is read off its module, so a patched one runs."""
    output, trace = engine.decide(policy, case)
    wrong = set()
    if as_tuple(output) != oracle_decide(policy, case):
        wrong.add("output")
    if as_trace(trace) != oracle_trace(policy, case):
        wrong.add("trace")
    return wrong


def test_generated_policies_are_valid():
    for seed in range(100):
        policy = make_mini_policy(seed)
        assert not has_errors(validate_policy(policy)), seed


def test_engine_matches_oracle_on_all_present_inputs():
    for seed in range(100):
        policy = make_mini_policy(seed)
        for case in full_assignments(policy):
            assert not _disagreements(policy, case), (seed, case.case_id)


def test_engine_matches_oracle_with_absent_fields():
    for seed in range(100):
        policy = make_mini_policy(seed)
        for case in partial_assignments(policy):
            assert not _disagreements(policy, case), (seed, case.case_id)


@settings(max_examples=150)
@given(st.integers(min_value=100, max_value=100000))
def test_engine_matches_oracle_on_arbitrary_seeds(seed):
    policy = make_mini_policy(seed)
    for case in partial_assignments(policy):
        assert not _disagreements(policy, case), case.case_id


def test_engine_matches_oracle_on_the_reference_suite():
    policy = load_reference_policy()
    for case in load_reference_suite().cases:
        assert not _disagreements(policy, case), case.case_id


def test_engine_matches_oracle_on_every_field_kind():
    seen = set()
    for seed in range(80):
        policy = make_kind_policy(seed)
        assert not has_errors(validate_policy(policy)), seed
        for case in kind_cases(seed, 40):
            assert not _disagreements(policy, case), (seed, case.case_id)
            expected = oracle_decide(policy, case)
            seen.add(expected[1] if expected[0] == "abstain" else "recommend")
            if expected[1] == "conservative_ambiguity":
                seen.add(expected[2][0] if expected[2][0] == "all_candidates_vetoed" else "tie_or_none")
    # Every outcome, unknown risks and vetoed candidates included, is swept.
    assert seen == {
        "recommend",
        "missing_inputs",
        "conflicting_signals",
        "unknown_risk",
        "explicit_exclusion",
        "conservative_ambiguity",
        "all_candidates_vetoed",
        "tie_or_none",
    }


# Trace faults that leave the output as it is, each a rewrite of the stage
# records of a trace: ``fault(policy, case, record)`` gives the record as
# the faulty engine would build it.
def _drop_vetoed(policy, case, record):
    if record.stage is not Stage.STEWARDSHIP:
        return record
    return record._replace(evaluated=tuple(pair for pair in record.evaluated if pair[1] is not Verdict.VETOED))


def _unmet_requires_not_fired(policy, case, record):
    if record.stage is not Stage.CLINICAL_RULES:
        return record
    unmet = {rule.rule_id for rule in policy.clinical_rules if not set(rule.requires) <= set(case.fields)}
    return record._replace(evaluated=tuple((i, Verdict.NOT_FIRED if i in unmet else v) for i, v in record.evaluated))


def _drop_justification_note(policy, case, record):
    return record._replace(notes=tuple(note for note in record.notes if note != "escalation_justification"))


def _shift_rule_verdicts(policy, case, record):
    if record.stage is not Stage.CLINICAL_RULES:
        return record
    ids = [i for i, _ in record.evaluated]
    verdicts = [v for _, v in record.evaluated]
    return record._replace(evaluated=tuple(zip(ids, verdicts[1:] + verdicts[:1])))


@pytest.mark.parametrize(
    "fault", [_drop_vetoed, _unmet_requires_not_fired, _drop_justification_note, _shift_rule_verdicts]
)
def test_the_trace_sweep_catches_each_planted_trace_fault(monkeypatch, fault):
    honest = engine.decide

    def faulty(policy, case):
        output, trace = honest(policy, case)
        return output, AuditTrace(tuple(fault(policy, case, record) for record in trace.stages), output)

    corpus = [(load_reference_policy(), load_reference_suite().cases)]
    corpus += [(make_kind_policy(seed), kind_cases(seed, 40)) for seed in range(20)]
    monkeypatch.setattr(engine, "decide", faulty)
    found = [_disagreements(policy, case) for policy, cases in corpus for case in cases]
    # The trace sweep catches the fault; comparing outputs alone misses it.
    assert any("trace" in wrong for wrong in found)
    assert not any("output" in wrong for wrong in found)
