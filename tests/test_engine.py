import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absgate import decide, load_reference_policy, load_reference_suite
from absgate.condition import And, Comparison, Has, Literal, Or
from absgate.engine import assess_inputs
from absgate.model import (
    AbstentionCategory,
    Action,
    CaseInput,
    ExpectedBehavior,
    FieldValue,
    Stage,
    Verdict,
    canonical_serialize,
)

POLICY = load_reference_policy()

# Complete adult pneumonia presentation; every rule evaluates definitively.
BASE = {
    "age": 40,
    "syndrome": "pneumonia",
    "severity": "mild",
    "fever": False,
    "pregnant": False,
    "sex": "female",
    "beta_lactam_allergy": False,
    "renal_impairment": False,
    "icu_admission": False,
    "prior_resistant_organism": False,
    "recent_antibiotics": False,
    "weight_kg": "70.0",
}

_ANY = ExpectedBehavior(Action.ABSTAIN)


def case(drop=(), **overrides):
    values = {k: v for k, v in BASE.items() if k not in drop}
    values.update(overrides)
    fields = {name: FieldValue.from_json(value) for name, value in values.items()}
    return CaseInput("t1", "", "generated", fields, _ANY)


def outcome(c):
    output, trace = decide(POLICY, c)
    return output, trace


def labels(output):
    assert output.reason is not None
    return list(output.reason.labels)


def test_base_case_recommends_the_narrow_agent():
    output, trace = outcome(case())
    assert output.action is Action.RECOMMEND
    assert output.class_id == "narrow_penicillin"
    assert [record.stage for record in trace.stages] == [
        Stage.INPUT_ASSESSMENT,
        Stage.EXCLUSIONS,
        Stage.CLINICAL_RULES,
        Stage.STEWARDSHIP,
        Stage.OUTPUT,
    ]
    assert trace.final == output
    assert trace.stages[-1].notes == ("narrow_penicillin",)


def test_stage1_missing_required_takes_precedence():
    c = case(drop=("age",), pregnant=True, sex="male", risk_factors=["weird_token"])
    output, trace = outcome(c)
    assert output.reason.category is AbstentionCategory.MISSING_INPUTS
    assert labels(output) == ["age"]
    assert len(trace.stages) == 1


def test_stage1_consistency_beats_unknown_risk():
    c = case(pregnant=True, sex="male", risk_factors=["weird_token"])
    output, _ = outcome(c)
    assert output.reason.category is AbstentionCategory.CONFLICTING_SIGNALS
    assert labels(output) == ["c_pregnant_male"]


def test_stage1_unknown_risk_tokens_reported_sorted():
    c = case(risk_factors=["zeta_surge", "alpha_blight", "neutropenia"])
    output, _ = outcome(c)
    assert output.reason.category is AbstentionCategory.UNKNOWN_RISK
    assert labels(output) == ["alpha_blight", "zeta_surge"]


def test_stage1_records_consistency_verdicts():
    _, trace = outcome(case())
    first = trace.stages[0]
    assert first.stage is Stage.INPUT_ASSESSMENT
    assert first.evaluated == (
        ("c_icu_mild", Verdict.NOT_FIRED),
        ("c_pregnant_male", Verdict.NOT_FIRED),
    )
    assert first.notes == ()


def test_known_risk_tokens_pass_through():
    output, _ = outcome(case(risk_factors=["neutropenia", "immunosuppressed"]))
    assert output.action is Action.RECOMMEND


def test_stage2_true_exclusion_beats_indeterminate_scope():
    c = case(drop=("recent_antibiotics",), age=15)
    output, trace = outcome(c)
    assert output.reason.category is AbstentionCategory.EXPLICIT_EXCLUSION
    assert labels(output) == ["EX_PEDIATRIC"]
    assert len(trace.stages) == 2
    verdicts = dict(trace.stages[1].evaluated)
    assert verdicts["ex_pediatric"] is Verdict.FIRED
    assert verdicts["ex_recent_abx"] is Verdict.INDETERMINATE


def test_stage2_collects_all_triggered_labels():
    output, _ = outcome(case(age=15, pregnant=True))
    assert output.reason.category is AbstentionCategory.EXPLICIT_EXCLUSION
    assert labels(output) == ["EX_PEDIATRIC", "EX_PREGNANCY"]


def test_stage2_unresolved_scope_abstains_as_missing():
    output, trace = outcome(case(drop=("recent_antibiotics",)))
    assert output.reason.category is AbstentionCategory.MISSING_INPUTS
    assert labels(output) == ["recent_antibiotics"]
    assert len(trace.stages) == 2


def test_stage3_unmet_requires_aborts_even_when_the_rule_cannot_fire():
    # The uti rule's condition is definitively false for pneumonia, but its
    # declared data dependency is still unmet: the stage aborts rather than
    # skipping the rule.
    output, trace = outcome(case(drop=("renal_impairment",)))
    assert output.reason.category is AbstentionCategory.MISSING_INPUTS
    assert labels(output) == ["renal_impairment"]
    assert len(trace.stages) == 3
    verdicts = dict(trace.stages[2].evaluated)
    assert verdicts["r_uti_mild"] is Verdict.INDETERMINATE
    # The companion uti rule has no requires clause and its condition is
    # definitively false here, so it stays a plain non-match.
    assert verdicts["r_uti_renal"] is Verdict.NOT_FIRED


def test_stage3_indeterminate_condition_aborts_with_the_unresolved_field():
    output, _ = outcome(case(drop=("fever",), severity="moderate"))
    assert output.reason.category is AbstentionCategory.MISSING_INPUTS
    assert labels(output) == ["fever"]


def test_stage3_incompatible_pair_conflicts():
    output, trace = outcome(case(syndrome="cellulitis", beta_lactam_allergy=True))
    assert output.reason.category is AbstentionCategory.CONFLICTING_SIGNALS
    assert labels(output) == ["r_cellulitis_macrolide", "r_cellulitis_pcn"]
    assert len(trace.stages) == 3


def test_stage3_zero_fired_rules_is_conservative():
    output, _ = outcome(case(syndrome="cellulitis", severity="moderate"))
    assert output.reason.category is AbstentionCategory.CONSERVATIVE_AMBIGUITY
    assert labels(output) == ["no_candidate"]


def test_stage4_fired_veto_empties_the_survivor_set():
    c = case(age=90, beta_lactam_allergy=True)
    output, trace = outcome(c)
    assert output.reason.category is AbstentionCategory.CONSERVATIVE_AMBIGUITY
    assert labels(output) == ["all_candidates_vetoed"]
    record = trace.stages[3]
    verdicts = dict(record.evaluated)
    assert verdicts["v_macrolide_qt"] is Verdict.FIRED
    assert verdicts["r_cap_mild_allergy"] is Verdict.VETOED
    assert record.notes == ()


def test_stage4_indeterminate_veto_prunes_conservatively():
    c = case(drop=("weight_kg",), severity="severe")
    output, trace = outcome(c)
    assert output.reason.category is AbstentionCategory.CONSERVATIVE_AMBIGUITY
    assert labels(output) == ["all_candidates_vetoed"]
    record = trace.stages[3]
    verdicts = dict(record.evaluated)
    assert verdicts["v_low_weight"] is Verdict.INDETERMINATE
    assert verdicts["r_severe_inpatient"] is Verdict.VETOED
    assert record.notes == ("escalation_justification",)


def test_stage4_unjustified_escalation_is_removed():
    output, trace = outcome(case(syndrome="uti", renal_impairment=True))
    assert output.reason.category is AbstentionCategory.CONSERVATIVE_AMBIGUITY
    assert labels(output) == ["all_candidates_vetoed"]
    record = trace.stages[3]
    assert "escalation_justification" not in record.notes
    assert dict(record.evaluated)["r_uti_renal"] is Verdict.VETOED


def test_stage4_justified_escalation_survives():
    output, trace = outcome(case(severity="severe"))
    assert output.action is Action.RECOMMEND
    assert output.class_id == "broad_beta_lactam"
    record = trace.stages[3]
    assert record.notes == ("escalation_justification", "broad_beta_lactam")


def test_stage4_rank_tie_abstains_with_the_tied_classes():
    output, trace = outcome(case(severity="moderate", fever=True))
    assert output.reason.category is AbstentionCategory.CONSERVATIVE_AMBIGUITY
    assert labels(output) == ["first_gen_cephalosporin", "macrolide"]
    assert len(trace.stages) == 4
    assert trace.stages[3].notes == ("first_gen_cephalosporin", "macrolide")


def test_stage5_picks_the_unique_minimal_rank():
    output, trace = outcome(case(severity="severe", prior_resistant_organism=True))
    assert output.class_id == "broad_beta_lactam"
    assert trace.stages[3].notes == (
        "escalation_justification",
        "antipseudomonal",
        "broad_beta_lactam",
    )
    assert trace.stages[4].notes == ("broad_beta_lactam",)


def test_assess_inputs_reports_are_sorted_and_total():
    report = assess_inputs(POLICY, case(drop=("age", "syndrome")))
    assert report.missing_required == ("age", "syndrome")
    assert report.consistency_violations == ()
    report = assess_inputs(POLICY, case(risk_factors=["zz_token", "aa_token"]))
    assert report.unknown_risk_tokens == ("aa_token", "zz_token")


def test_decide_is_bitwise_deterministic():
    probes = [
        case(),
        case(severity="severe", prior_resistant_organism=True),
        case(severity="moderate", fever=True),
        case(drop=("recent_antibiotics",)),
        case(pregnant=True, sex="male"),
    ]
    baselines = [
        canonical_serialize(output) + canonical_serialize(trace)
        for output, trace in (decide(POLICY, probe) for probe in probes)
    ]
    for _ in range(200):
        for probe, baseline in zip(probes, baselines):
            output, trace = decide(POLICY, probe)
            assert canonical_serialize(output) + canonical_serialize(trace) == baseline


@settings(max_examples=200)
@given(
    st.fixed_dictionaries(
        {},
        optional={
            "age": st.integers(min_value=0, max_value=120),
            "syndrome": st.sampled_from(["pneumonia", "uti", "cellulitis"]),
            "severity": st.sampled_from(["mild", "moderate", "severe"]),
            "fever": st.booleans(),
            "pregnant": st.booleans(),
            "sex": st.sampled_from(["female", "male"]),
            "beta_lactam_allergy": st.booleans(),
            "renal_impairment": st.booleans(),
            "icu_admission": st.booleans(),
            "prior_resistant_organism": st.booleans(),
            "recent_antibiotics": st.booleans(),
            "weight_kg": st.sampled_from(["35.0", "40.0", "82.5"]),
            "risk_factors": st.lists(
                st.sampled_from(["neutropenia", "immunosuppressed", "mystery_exposure"]),
                unique=True,
                max_size=2,
            ),
        },
    )
)
def test_every_case_yields_exactly_one_wellformed_outcome(values):
    fields = {name: FieldValue.from_json(value) for name, value in values.items()}
    probe = CaseInput("h1", "", "generated", fields, _ANY)
    output, trace = decide(POLICY, probe)
    if output.action is Action.RECOMMEND:
        assert output.class_id in {c.class_id for c in POLICY.classes}
        assert output.reason is None
        assert len(trace.stages) == 5
    else:
        assert output.class_id is None
        assert output.reason is not None
        assert output.reason.labels
        assert 1 <= len(trace.stages) <= 4
    assert trace.final == output
    for record in trace.stages:
        assert list(record.evaluated) == sorted(record.evaluated, key=lambda pair: pair[0])


def _conditions(policy):
    return (
        [policy.stewardship.escalation_justification]
        + [c.forbid for c in policy.consistency]
        + [e.when for e in policy.exclusions]
        + [r.when for r in policy.clinical_rules]
        + [v.when for v in policy.stewardship.class_vetoes]
    )


def test_policy_survives_pickle_and_deepcopy_after_deciding():
    policy = load_reference_policy()
    suite = load_reference_suite()

    def decisions(p):
        return [canonical_serialize(o) + canonical_serialize(t) for o, t in (decide(p, c) for c in suite.cases)]

    # Deciding compiles the stage programs and caches them on the policy.
    before = decisions(policy)
    for clone in (pickle.loads(pickle.dumps(policy)), copy.deepcopy(policy)):
        assert clone is not policy
        assert clone == policy
        assert hash(clone) == hash(policy)
        # A rebuilt frozenset (known_risks) may list its members in another
        # order, so repr is compared on the conditions.
        assert [repr(c) for c in _conditions(clone)] == [repr(c) for c in _conditions(policy)]
        assert decisions(clone) == before
    assert decisions(policy) == before


# Kind mismatches a type-checked policy never holds; built in code to probe
# when and in what order the engine evaluates conditions.
_AGE_AS_TOKEN = Comparison("age", "==", FieldValue.token("old"))
_HAS_ON_A_TOKEN = Has("syndrome", "uti")
_AGE_MESSAGE = "comparison across kinds: integer vs token"
_HAS_MESSAGE = "has applied to non-set field 'syndrome'"


def _with_rules(*conditions):
    rules = tuple(
        dataclasses.replace(POLICY.clinical_rules[0], rule_id=f"r{n}", when=cond, incompatible_with=())
        for n, cond in enumerate(conditions)
    )
    return dataclasses.replace(POLICY, clinical_rules=rules)


@pytest.mark.parametrize(
    "conditions, message",
    [
        ((Or(Literal(True), _AGE_AS_TOKEN), And(_HAS_ON_A_TOKEN, _AGE_AS_TOKEN)), _AGE_MESSAGE),
        ((Literal(False), And(_HAS_ON_A_TOKEN, Literal(False)), _AGE_AS_TOKEN), _HAS_MESSAGE),
    ],
)
def test_the_first_mismatch_in_rule_order_raises(conditions, message):
    with pytest.raises(ValueError, match=message):
        decide(_with_rules(*conditions), case())


def test_a_stage_not_reached_evaluates_nothing():
    policy = _with_rules(_HAS_ON_A_TOKEN)
    # Stops at input assessment, before the mistyped rule.
    output, trace = decide(policy, case(drop=("age",)))
    assert labels(output) == ["age"]
    assert [record.stage for record in trace.stages] == [Stage.INPUT_ASSESSMENT]
    with pytest.raises(ValueError, match=_HAS_MESSAGE):
        decide(policy, case())
    # Stops at clinical rules (none fires), before the mistyped veto.
    veto = dataclasses.replace(POLICY.stewardship.class_vetoes[0], when=_AGE_AS_TOKEN)
    policy = dataclasses.replace(POLICY, stewardship=dataclasses.replace(POLICY.stewardship, class_vetoes=(veto,)))
    output, trace = decide(policy, case(syndrome="uti", severity="moderate"))
    assert labels(output) == ["no_candidate"]
    assert trace.stages[-1].stage is Stage.CLINICAL_RULES
    with pytest.raises(ValueError, match=_AGE_MESSAGE):
        decide(policy, case())
