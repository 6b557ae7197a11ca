"""Engine-versus-oracle equivalence over exhaustive input sweeps.

The oracle in ``tests/oracle.py`` is an independent transcription of the
stage rules; here the real engine must agree with it on every case of
every generated policy, and on the shipped reference suite.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from absgate import decide, has_errors, load_reference_policy, load_reference_suite, validate_policy

from oracle import (
    as_tuple,
    full_assignments,
    kind_cases,
    make_kind_policy,
    make_mini_policy,
    oracle_decide,
    partial_assignments,
)


def test_generated_policies_are_valid():
    for seed in range(100):
        policy = make_mini_policy(seed)
        assert not has_errors(validate_policy(policy)), seed


def test_engine_matches_oracle_on_all_present_inputs():
    for seed in range(100):
        policy = make_mini_policy(seed)
        for case in full_assignments(policy):
            expected = oracle_decide(policy, case)
            actual = as_tuple(decide(policy, case)[0])
            assert actual == expected, (seed, case.case_id, expected, actual)


def test_engine_matches_oracle_with_absent_fields():
    for seed in range(100):
        policy = make_mini_policy(seed)
        for case in partial_assignments(policy):
            expected = oracle_decide(policy, case)
            actual = as_tuple(decide(policy, case)[0])
            assert actual == expected, (seed, case.case_id, expected, actual)


@settings(max_examples=150)
@given(st.integers(min_value=100, max_value=100000))
def test_engine_matches_oracle_on_arbitrary_seeds(seed):
    policy = make_mini_policy(seed)
    for case in partial_assignments(policy):
        assert as_tuple(decide(policy, case)[0]) == oracle_decide(policy, case)


def test_engine_matches_oracle_on_the_reference_suite():
    policy = load_reference_policy()
    suite = load_reference_suite()
    for case in suite.cases:
        expected = oracle_decide(policy, case)
        actual = as_tuple(decide(policy, case)[0])
        assert actual == expected, (case.case_id, expected, actual)


def test_engine_matches_oracle_on_every_field_kind():
    seen = set()
    for seed in range(80):
        policy = make_kind_policy(seed)
        assert not has_errors(validate_policy(policy)), seed
        for case in kind_cases(seed, 40):
            expected = oracle_decide(policy, case)
            actual = as_tuple(decide(policy, case)[0])
            assert actual == expected, (seed, case.case_id, expected, actual)
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
