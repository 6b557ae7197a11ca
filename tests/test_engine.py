import copy
import functools
import importlib.util
import pickle
import random
import sys
from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absgate import (
    decide,
    engine,
    format_policy,
    load_reference_policy,
    load_reference_suite,
    parse_policy,
    parse_suite,
    policy_hash,
    validate_policy,
)
from absgate.canon import canonical_bytes, canonical_hash
from absgate.condition import Absent, And, Comparison, Has, Literal, Not, Or, Present, print_condition, typecheck
from absgate.engine import _OUTPUT_MEMO_LIMIT, _compiled, assess_inputs
from absgate.model import (
    AbstentionCategory,
    Action,
    CaseInput,
    ExpectedBehavior,
    FieldKind,
    FieldValue,
    Stage,
    StageRecord,
    SystemOutput,
    Verdict,
    canonical_serialize,
)
from absgate.policy import ConsistencyConstraint
from absgate.reference import reference_policy_text, reference_suite_text

from canonical_forms import output_form, policy_form, record_form, trace_form
from oracle import as_trace, as_tuple, kind_cases, make_kind_policy, oracle_decide, oracle_trace

POLICY = load_reference_policy()
BENCH = Path(__file__).resolve().parent.parent / "bench"

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


def _encodes_to_the_reference_form(value):
    return canonical_serialize(value) == canonical_bytes(trace_form(value))


def test_engine_built_records_carry_their_text_and_encode_to_the_reference_form():
    suite = load_reference_suite()
    # c04 has a rule held indeterminate by an unmet requires and a rule whose
    # condition is indeterminate.
    c04 = suite.case("c04")
    assert c04 is not None
    rules = {rule.rule_id: rule for rule in POLICY.clinical_rules}
    assert "renal_impairment" in rules["r_uti_mild"].requires and "renal_impairment" not in c04.fields
    assert not rules["r_uti_renal"].requires
    verdicts = dict(decide(POLICY, c04)[1].stages[2].evaluated)
    assert verdicts["r_uti_mild"] is verdicts["r_uti_renal"] is Verdict.INDETERMINATE
    pairs = [(POLICY, suite.cases)]
    pairs += [(make_kind_policy(seed), kind_cases(seed, 40)) for seed in range(6)]
    stages, vetoed = set(), 0
    for policy, cases in pairs:
        for c in cases:
            trace = decide(policy, c)[1]
            assert _encodes_to_the_reference_form(trace)
            # Once the trace is encoded, every stage's record carries its text.
            for record in trace.stages:
                assert record._json is not None
                assert record._json.encode("utf-8") == canonical_bytes(record_form(record))
                stages.add(record.stage)
                vetoed += any(verdict is Verdict.VETOED for _, verdict in record.evaluated)
    assert stages == set(Stage) and vetoed


def test_equal_truth_values_give_the_identical_record():
    policy = pickle.loads(pickle.dumps(POLICY))
    cases = list(load_reference_suite().cases)
    traces = [decide(policy, c)[1] for c in cases]
    # Equal records of stages 1-3 hold equal truth values (stage 3's with
    # unmet requires read as indeterminate); a stage-5 record, the class.
    first: dict = {}
    for trace in traces:
        for record in trace.stages:
            if record.stage is not Stage.STEWARDSHIP:
                assert first.setdefault((record.stage, record.evaluated, record.notes), record) is record
    assert len(first) < sum(len(t.stages) for t in traces)
    # A stage's memo builds an entry on its first miss and hands that one
    # out for every equal vector of truth values; stage 3's holds the record,
    # the ending its truth values decide and the fired rule ids.
    records = _compiled(pickle.loads(pickle.dumps(POLICY))).rule_records
    truths = [0] * len(policy.clinical_rules)
    built = records[bytes(truths)]
    assert records == {bytes(truths): built} and records[bytes(truths.copy())] is built
    record, final, fired = built
    assert record == StageRecord(Stage.CLINICAL_RULES, [(r.rule_id, Verdict.NOT_FIRED) for r in policy.clinical_rules])
    assert final == SystemOutput.abstain(AbstentionCategory.CONSERVATIVE_AMBIGUITY, ["no_candidate"]) and fired == ()
    # Deciding again hands out the same records, stage 4's included.
    again = [decide(policy, c)[1] for c in cases]
    for trace, repeat in zip(traces, again):
        assert trace == repeat and trace is not repeat
        for record, shared in zip(trace.stages, repeat.stages):
            assert record is shared


def test_a_memo_limit_of_two_decides_alike_and_keeps_at_most_two(monkeypatch):
    cases = load_reference_suite().cases
    expected = [canonical_serialize(o) + canonical_serialize(t) for o, t in (decide(POLICY, c) for c in cases)]
    monkeypatch.setattr(engine, "_OUTPUT_MEMO_LIMIT", 2)
    policy = pickle.loads(pickle.dumps(POLICY))
    for _ in range(2):  # the second pass meets full memos
        assert [canonical_serialize(o) + canonical_serialize(t) for o, t in (decide(policy, c) for c in cases)] == expected
    compiled = _compiled(policy)
    memos = [value for value in compiled if isinstance(value, engine._Memo) and value is not compiled.bare_fields]
    # The stage 1-2 records, the stage-3 outcomes, the stage-4 outcomes and
    # the abstentions.
    named = [compiled.consistency_records, compiled.exclusion_records, compiled.rule_records]
    named += [compiled.stewardship_outcomes, compiled.outputs]
    assert list(map(id, memos)) == list(map(id, named))
    assert [len(memo) for memo in memos] == [2] * 5
    # The bare fields are keyed by rule id, which the policy bounds, so
    # their memo keeps them all.
    assert len(compiled.bare_fields) > 2


def _stewardship_key(policy, c):
    """The stewardship truth values and the fired rule ids of a case."""
    trace = decide(policy, c)[1]
    fired = {rule_id for rule_id, verdict in trace.stages[2].evaluated if verdict is Verdict.FIRED}
    return _compiled(policy).stewardship(c.fields), fired


@pytest.mark.parametrize(
    "first, second",
    [
        # Equal stewardship truth values, other fired rules.
        (case(), case(severity="moderate")),
        (case(beta_lactam_allergy=True, age=90), case(severity="moderate", fever=True, age=90)),
        # Equal fired rules, other stewardship truth values.
        (case(beta_lactam_allergy=True), case(beta_lactam_allergy=True, age=90)),
        (case(severity="severe"), case(severity="severe", weight_kg="35.0")),
    ],
)
def test_the_stage4_memo_keys_on_truth_values_and_fired_rules(first, second):
    policy = pickle.loads(pickle.dumps(POLICY))
    (truths_a, fired_a), (truths_b, fired_b) = _stewardship_key(POLICY, first), _stewardship_key(POLICY, second)
    assert (truths_a == truths_b) != (fired_a == fired_b)
    records = []
    for c in (first, second):
        output, trace = decide(policy, c)
        assert as_tuple(output) == oracle_decide(policy, c)
        assert as_trace(trace) == oracle_trace(policy, c)
        records.append(trace.stages[3])
    assert records[0] != records[1]
    assert len(_compiled(policy).stewardship_outcomes) == 2


def _load_generate():
    """``bench/generate.py``, imported from the checkout by path."""
    spec = importlib.util.spec_from_file_location("absgate_test_generate", BENCH / "generate.py")
    # Its dataclasses look their module up in sys.modules.
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def _memo_order_workloads():
    """For the reference suite, the seed-7 intake_screen suite and the seed-5
    rule_heavy smoke suite (four cases reach stage 4, three of them with a
    veto that fires): one policy, its cases, and each case's canonical
    output and trace bytes from a cold decide on a freshly parsed policy,
    one that keeps no memo entry."""
    generate = _load_generate()
    texts = [(reference_policy_text(), reference_suite_text())]
    for generated in (generate.build("intake_screen", 7), generate.build("rule_heavy", 5, smoke=True)):
        texts.append((generated.policy_text, generated.suite_text))
    workloads = []
    for policy_text, suite_text in texts:
        cases = parse_suite(suite_text)[0].cases
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "_OUTPUT_MEMO_LIMIT", 0)
            cold = parse_policy(policy_text)[0]
            expected = [canonical_serialize(o) + canonical_serialize(t) for o, t in (decide(cold, c) for c in cases)]
        workloads.append((parse_policy(policy_text)[0], cases, expected))
    return workloads


@settings(max_examples=8, derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_the_order_that_fills_the_memos_changes_no_decision(seed):
    # One warm policy per workload across every example and order.
    for policy, cases, expected in _memo_order_workloads():
        order = list(range(len(cases)))
        random.Random(seed).shuffle(order)
        for index in order:
            output, trace = decide(policy, cases[index])
            assert canonical_serialize(output) + canonical_serialize(trace) == expected[index], cases[index].case_id


def _seed5_workloads():
    """A freshly parsed policy and its cases, for the reference suite and
    the seed-5 rule_heavy and intake_screen smoke suites."""
    generate = _load_generate()
    texts = [(reference_policy_text(), reference_suite_text())]
    for name in ("rule_heavy", "intake_screen"):
        generated = generate.build(name, 5, smoke=True)
        texts.append((generated.policy_text, generated.suite_text))
    return [(parse_policy(policy_text)[0], parse_suite(suite_text)[0].cases) for policy_text, suite_text in texts]


def test_the_stage3_memo_holds_the_fired_rules_and_conflicts_of_its_record():
    truth_of = {Verdict.NOT_FIRED: 0, Verdict.INDETERMINATE: 1, Verdict.FIRED: 2}
    checked = conflicts = 0
    for policy, cases in _seed5_workloads():
        rules = {rule.rule_id: rule for rule in policy.clinical_rules}
        memo = _compiled(policy).rule_records
        for c in cases:
            output, trace = decide(policy, c)
            if len(trace.stages) < 3:
                continue
            record = trace.stages[2]
            key = bytes(truth_of[verdict] for _, verdict in record.evaluated)
            assert key in memo
            memo_record, final, fired = memo[key]
            # Recomputed from the trace and the policy's declarations.
            fired_ids = [rule_id for rule_id, verdict in record.evaluated if verdict is Verdict.FIRED]
            pairs = [(r, o) for r in fired_ids for o in rules[r].incompatible_with if o in fired_ids]
            conflicted = frozenset(name for pair in pairs for name in pair)
            assert memo_record is record and fired == tuple(fired_ids)
            if conflicted:
                assert final == SystemOutput.abstain(AbstentionCategory.CONFLICTING_SIGNALS, conflicted)
            elif not fired_ids:
                assert final == SystemOutput.abstain(AbstentionCategory.CONSERVATIVE_AMBIGUITY, ["no_candidate"])
            else:
                assert final is None
            # Unmet fields come before the entry's ending.
            if final is not None and output.reason.category is not AbstentionCategory.MISSING_INPUTS:
                assert output is final
            if output.reason is not None and output.reason.category is AbstentionCategory.CONFLICTING_SIGNALS:
                assert conflicted == frozenset(output.reason.labels)
                conflicts += 1
            checked += 1
    assert checked and conflicts


def _public_twin(value):
    """What the public constructors build from the fields of an engine-made
    output or stage record."""
    if type(value) is StageRecord:
        return StageRecord(value.stage, value.evaluated, value.notes)
    if value.action is Action.RECOMMEND:
        return SystemOutput.recommend(value.class_id)
    return SystemOutput.abstain(value.reason.category, value.reason.labels)


def test_engine_built_outputs_and_records_equal_their_public_twins():
    # The engine builds them trusted, and stage 1-5 records with their text
    # joined from pair texts; the twins are checked and encoded from scratch.
    stages, notes, vetoed, actions = set(), 0, 0, set()
    for policy, cases in _seed5_workloads():
        for c in cases:
            output, trace = decide(policy, c)
            actions.add(output.action)
            for value in (output, *trace.stages):
                twin = _public_twin(value)
                text = canonical_serialize(twin)
                for same in (value, pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
                    assert same == twin and hash(same) == hash(twin) and repr(same) == repr(twin)
                    assert canonical_serialize(same) == text
            for record in trace.stages:
                stages.add(record.stage)
                notes += bool(record.notes)
                vetoed += any(verdict is Verdict.VETOED for _, verdict in record.evaluated)
    assert stages == set(Stage) and notes and vetoed and actions == set(Action)


def test_one_pass_builds_each_memo_entry_once():
    total: dict = {}
    for policy, cases in _seed5_workloads():
        fresh = copy.copy(policy)
        memos = {name: value for name, value in _compiled(fresh)._asdict().items() if isinstance(value, engine._Memo)}
        builds = dict.fromkeys(memos, 0)
        for name, memo in memos.items():

            def counted(key, name=name, build=memo.build):
                builds[name] += 1
                return build(key)

            memo.build = counted
        for c in cases:
            decide(fresh, c)
        assert builds == {name: len(memo) for name, memo in memos.items()}
        total = {name: total.get(name, 0) + count for name, count in builds.items()}
    assert all(total.values()) and len(total) == 6


def test_the_bare_field_memo_is_keyed_by_rule_id():
    # A declaration as key would hash its whole condition tree per lookup.
    keys = []
    for policy, cases in _seed5_workloads():
        for c in cases:
            decide(policy, c)
        ids = {decl.rule_id for decl in (*policy.exclusions, *policy.clinical_rules)}
        keys += _compiled(policy).bare_fields
        assert set(_compiled(policy).bare_fields) <= ids
    assert keys and all(type(key) is str for key in keys)


def test_policy_hash_equals_the_canonical_digest():
    for policy, _ in _seed5_workloads():
        assert policy_hash(policy) == canonical_hash(policy_form(policy))


@functools.cache
def _stage1_policies():
    """The reference policy and the seed-7 intake_screen policy, by name."""
    generated = _load_generate().build("intake_screen", 7)
    return {"reference": POLICY, "intake_screen": parse_policy(generated.policy_text)[0]}


class _MinimalMapping(Mapping):
    """A mapping with only the methods ``Mapping`` requires."""

    def __init__(self, items):
        self._items = dict(items)

    def __getitem__(self, name):
        return self._items[name]

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)


_UNKNOWN_RISKS = ("aa_exposure", "mystery_exposure", "zz_unlisted")


def _value_of(decl, known_risks):
    """A strategy for one value of a declared field; a risk field draws known risks only."""
    if decl.kind is FieldKind.BOOLEAN:
        return st.booleans().map(FieldValue.boolean)
    if decl.kind is FieldKind.INTEGER:
        return st.integers(min_value=0, max_value=120).map(FieldValue.integer)
    if decl.kind is FieldKind.DECIMAL:
        return st.sampled_from(["20.5", "35.0", "82.5"]).map(FieldValue.decimal)
    if decl.kind is FieldKind.TOKEN:
        return st.sampled_from(decl.enum).map(FieldValue.token)
    tokens = sorted(known_risks) if decl.is_risk else decl.enum
    return st.lists(st.sampled_from(tokens), unique=True, max_size=3).map(FieldValue.token_set)


def _plant(cond, fields):
    """Set ``fields`` so that ``cond``, an ``and`` of ``==`` and ``has`` tests, holds."""
    if isinstance(cond, And):
        _plant(cond.left, fields)
        _plant(cond.right, fields)
    elif isinstance(cond, Has):
        tokens = fields[cond.field_name].value if cond.field_name in fields else frozenset()
        fields[cond.field_name] = FieldValue.token_set(tokens | {cond.token})
    else:
        assert isinstance(cond, Comparison) and cond.op == "=="
        fields[cond.field_name] = cond.literal


@st.composite
def _stage1_fields(draw, policy):
    """Drawn field values, every required one among them, with each of three
    edits made or not: consistency violations planted, unknown tokens added
    to every risk field, and required fields dropped."""
    fields = {}
    for decl in policy.schema:
        if decl.name in policy.required or draw(st.booleans()):
            fields[decl.name] = draw(_value_of(decl, policy.known_risks))
    if draw(st.booleans()):
        for constraint in draw(st.lists(st.sampled_from(policy.consistency), min_size=1, unique=True)):
            _plant(constraint.forbid, fields)
    if draw(st.booleans()):
        unknown = draw(st.sets(st.sampled_from(_UNKNOWN_RISKS), min_size=1))
        for decl in policy.risk_fields():
            tokens = fields[decl.name].value if decl.name in fields else frozenset()
            fields[decl.name] = FieldValue.token_set(tokens | unknown)
    if draw(st.booleans()):
        for name in draw(st.sets(st.sampled_from(policy.required), min_size=1)):
            del fields[name]
    return fields


@pytest.mark.parametrize("mapping", [dict, MappingProxyType, _MinimalMapping], ids=lambda m: m.__name__)
@pytest.mark.parametrize("workload", ["reference", "intake_screen"])
@settings(max_examples=120, derandomize=True, deadline=None)
@given(data=st.data())
def test_stage1_abstains_on_the_first_finding_of_assess_inputs(workload, mapping, data):
    policy = _stage1_policies()[workload]
    probe = CaseInput("s1", "", "generated", mapping(data.draw(_stage1_fields(policy))), _ANY)
    report = assess_inputs(policy, probe)
    findings = zip(
        (AbstentionCategory.MISSING_INPUTS, AbstentionCategory.CONFLICTING_SIGNALS, AbstentionCategory.UNKNOWN_RISK),
        report,
    )
    first = next(((category, labels) for category, labels in findings if labels), None)
    output, trace = decide(policy, probe)
    if first is None:
        assert len(trace.stages) > 1
    else:
        assert [record.stage for record in trace.stages] == [Stage.INPUT_ASSESSMENT]
        assert (output.reason.category, output.reason.labels) == first
    assert as_tuple(output) == oracle_decide(policy, probe)
    assert as_trace(trace) == oracle_trace(policy, probe)


def test_copies_of_engine_built_records_and_traces_are_equal_and_carry_no_text():
    trace = decide(POLICY, load_reference_suite().case("c17"))[1]
    assert len(trace.stages) == 5
    record = trace.stages[2]
    assert record._json is not None
    clones = (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record), record._replace())
    for clone in clones:
        assert clone == record
        assert hash(clone) == hash(record)
        assert repr(clone) == repr(record)
        assert "_json" not in vars(clone) and clone._json is None
        assert canonical_serialize(clone) == canonical_serialize(record)
    for clone in (pickle.loads(pickle.dumps(trace)), copy.deepcopy(trace)):
        assert clone == trace
        assert hash(clone) == hash(trace)
        assert all(r._json is None for r in clone.stages)
        assert canonical_serialize(clone) == canonical_serialize(trace)
    replaced = trace._replace()
    assert replaced == trace and canonical_serialize(replaced) == canonical_serialize(trace)


def test_a_record_built_in_code_still_sorts_and_checks_its_pairs():
    engine_built = decide(POLICY, load_reference_suite().case("c17"))[1].stages[2]
    public = StageRecord(Stage.CLINICAL_RULES, tuple(reversed(engine_built.evaluated)))
    assert public.evaluated == engine_built.evaluated
    assert public == engine_built and hash(public) == hash(engine_built) and repr(public) == repr(engine_built)
    assert public._json is None
    text = canonical_serialize(public)
    assert text == canonical_serialize(engine_built) == canonical_bytes(record_form(public))
    # The text is kept once encoded, and stays out of the value.
    assert public._json == text.decode("utf-8")
    assert public == engine_built and hash(public) == hash(engine_built) and repr(public) == repr(engine_built)
    assert "_json" not in repr(public) and b"_json" not in pickle.dumps(public)
    for clone in (pickle.loads(pickle.dumps(public)), copy.deepcopy(public), copy.copy(public), public._replace()):
        assert clone == public and "_json" not in vars(clone) and clone._json is None
        assert canonical_serialize(clone) == text
    with pytest.raises(TypeError, match="^verdict is not a Verdict: 'fired'$"):
        StageRecord(Stage.CLINICAL_RULES, (("r", "fired"),))


def _fresh_output(outcome):
    """A ``SystemOutput`` built anew from the oracle's flat form of one."""
    if outcome[0] == "recommend":
        return SystemOutput.recommend(outcome[1])
    return SystemOutput.abstain(AbstentionCategory(outcome[1]), outcome[2])


def test_interned_outputs_equal_fresh_ones_and_encode_to_the_reference_form():
    pairs = [(POLICY, load_reference_suite().cases)]
    pairs += [(make_kind_policy(seed), kind_cases(seed, 60)) for seed in range(6)]
    for policy, cases in pairs:
        cases = list(cases)
        # A copy decides in the other order, so its memo fills in another order.
        copied = pickle.loads(pickle.dumps(policy))
        reverse = {c.case_id: decide(copied, c)[0] for c in reversed(cases)}
        for c in cases:
            output, trace = decide(policy, c)
            fresh = _fresh_output(oracle_decide(policy, c))
            assert output == fresh and hash(output) == hash(fresh) and repr(output) == repr(fresh)
            assert trace.final is output and reverse[c.case_id] == output
            assert decide(policy, c)[0] is output
            assert canonical_serialize(output) == canonical_bytes(output_form(output)) == canonical_serialize(fresh)


def test_an_output_keeps_its_text_out_of_equality_repr_pickles_and_copies():
    output = decide(POLICY, load_reference_suite().case("c11"))[0]
    fresh = SystemOutput.abstain(output.reason.category, output.reason.labels)
    text = canonical_serialize(output)
    assert output._json == text.decode("utf-8") and fresh._json is None
    assert output == fresh and hash(output) == hash(fresh) and repr(output) == repr(fresh)
    assert "_json" not in repr(output) and b"_json" not in pickle.dumps(output)
    clones = (pickle.loads(pickle.dumps(output)), copy.deepcopy(output), copy.copy(output), output._replace())
    for clone in clones:
        assert clone == output and "_json" not in vars(clone) and clone._json is None
        assert canonical_serialize(clone) == text


def test_the_output_memo_stops_at_its_limit_and_outputs_stay_right():
    policy = pickle.loads(pickle.dumps(POLICY))
    memo = _compiled(policy).outputs
    assert memo == {}
    total = _OUTPUT_MEMO_LIMIT + 40
    for n in range(total):
        output = decide(policy, case(risk_factors=[f"zz{n}"]))[0]
        assert output == SystemOutput.abstain(AbstentionCategory.UNKNOWN_RISK, [f"zz{n}"])
    assert len(memo) == _OUTPUT_MEMO_LIMIT
    # Past the limit an output is built per call; one kept is shared.
    late = case(risk_factors=[f"zz{total - 1}"])
    assert decide(policy, late)[0] is not decide(policy, late)[0]
    early = case(risk_factors=["zz0"])
    assert decide(policy, early)[0] is decide(policy, early)[0]
    assert decide(policy, case())[0] == SystemOutput.recommend("narrow_penicillin")


# Kind mismatches ``bind_suite`` refuses in a case; the case is built in
# code, unbound, to probe when and in what order the engine evaluates
# conditions. The policy's own conditions are well typed: a mistyped one
# cannot be built. Nothing before the rules reads these two fields.
_SYNDROME_TEST = Comparison("syndrome", "==", FieldValue.token("uti"))
_RISK_TEST = Has("risk_factors", "neutropenia")
# An integer where a token is declared, a token where a token set is.
_MISTYPED = {"syndrome": 3, "risk_factors": "neutropenia"}
_SYNDROME_MESSAGE = "comparison across kinds: integer vs token"
_RISK_MESSAGE = "has applied to non-set field 'risk_factors'"


def _with_rules(*conditions):
    rules = tuple(
        POLICY.clinical_rules[0]._replace(rule_id=f"r{n}", when=cond, incompatible_with=())
        for n, cond in enumerate(conditions)
    )
    return POLICY._replace(clinical_rules=rules)


@pytest.mark.parametrize(
    "conditions, message",
    [
        ((Or(Literal(True), _SYNDROME_TEST), And(_RISK_TEST, _SYNDROME_TEST)), _SYNDROME_MESSAGE),
        ((Literal(False), And(_RISK_TEST, Literal(False)), _SYNDROME_TEST), _RISK_MESSAGE),
    ],
)
def test_the_first_mismatch_in_rule_order_raises(conditions, message):
    with pytest.raises(ValueError, match=message):
        decide(_with_rules(*conditions), case(**_MISTYPED))


def test_a_mismatch_raises_in_rule_id_order_whatever_the_declaration_order():
    policy = _with_rules(_SYNDROME_TEST, _RISK_TEST)
    declared_backwards = policy._replace(clinical_rules=policy.clinical_rules[::-1])
    assert declared_backwards == policy
    with pytest.raises(ValueError, match=_SYNDROME_MESSAGE):
        decide(declared_backwards, case(**_MISTYPED))


def test_a_stage_not_reached_evaluates_nothing():
    policy = _with_rules(_RISK_TEST)
    # Stops at input assessment, before the rule reads the mistyped field.
    output, trace = decide(policy, case(drop=("age",), risk_factors="neutropenia"))
    assert labels(output) == ["age"]
    assert [record.stage for record in trace.stages] == [Stage.INPUT_ASSESSMENT]
    with pytest.raises(ValueError, match=_RISK_MESSAGE):
        decide(policy, case(risk_factors="neutropenia"))
    # Stops at clinical rules (none fires), before the veto on weight_kg
    # reads a token there.
    output, trace = decide(POLICY, case(syndrome="uti", severity="moderate", weight_kg="light"))
    assert labels(output) == ["no_candidate"]
    assert trace.stages[-1].stage is Stage.CLINICAL_RULES
    with pytest.raises(ValueError, match="comparison across kinds: token vs decimal"):
        decide(POLICY, case(weight_kg="light"))


_DEPTH = 5000


def _deep_rule():
    """A condition _DEPTH levels deep; every level keeps the truth value of
    the weight comparison at its bottom."""
    cond = Comparison("weight_kg", "<", FieldValue.decimal("40.0"))
    for level in range(_DEPTH):
        cond = (Not(cond), And(cond, Present("fever")), Or(Absent("age"), cond))[level % 3]
    return cond


_CHAINED = ("fever", "beta_lactam_allergy", "renal_impairment")


def _deep_chain():
    """A left-deep ``and`` of _DEPTH boolean tests, false on ``case()``."""
    cond = Comparison(_CHAINED[0], "==", FieldValue.boolean(True))
    for n in range(1, _DEPTH):
        cond = And(cond, Comparison(_CHAINED[n % 3], "==", FieldValue.boolean(True)))
    return cond


def _deep_policy():
    """The deep rule as r0, and the chain as both r1 and a consistency constraint."""
    chain = _deep_chain()
    policy = _with_rules(_deep_rule(), chain)
    return policy._replace(consistency=(*policy.consistency, ConsistencyConstraint("c_deep", chain)))


def test_a_rule_deeper_than_the_recursion_limit_builds_and_abstains():
    # Built in code: the parser bounds nesting, a Policy built directly
    # does not.
    policy = _with_rules(_deep_rule())
    output, trace = decide(policy, case(drop=("weight_kg",)))
    assert output.reason.category is AbstentionCategory.MISSING_INPUTS
    assert labels(output) == ["weight_kg"]
    assert trace.stages[-1].evaluated == (("r0", Verdict.INDETERMINATE),)
    output, trace = decide(policy, case(weight_kg="35.0"))
    assert labels(output) == ["no_candidate"]


def test_a_policy_deeper_than_the_recursion_limit_hashes_validates_and_decides():
    assert sys.getrecursionlimit() < _DEPTH
    policy = _deep_policy()
    digest = policy_hash(policy)
    assert digest == policy_hash(_deep_policy()) != policy_hash(_with_rules(_deep_rule()))
    # The chain's conjuncts, walked to the full depth, cover the constraint's.
    assert [(d.code, d.message) for d in validate_policy(policy)] == [
        ("unreachable_rule", "rule 'r1' contradicts consistency constraint 'c_deep'")
    ]
    output, trace = decide(policy, case(drop=("weight_kg",)))
    assert labels(output) == ["weight_kg"]
    assert trace.stages[-1].evaluated == (("r0", Verdict.INDETERMINATE), ("r1", Verdict.NOT_FIRED))
    output, _ = decide(policy, case(**{name: True for name in _CHAINED}))
    assert output.reason.category is AbstentionCategory.CONFLICTING_SIGNALS
    assert labels(output) == ["c_deep"]


def test_a_policy_deeper_than_the_recursion_limit_typechecks():
    assert sys.getrecursionlimit() < _DEPTH
    schema = _deep_policy().field_map()
    assert typecheck(_deep_rule(), schema) == typecheck(_deep_chain(), schema) == []
    del schema["weight_kg"]
    assert [message for _code, message, _leaf in typecheck(_deep_rule(), schema)] == [
        "condition references undeclared field 'weight_kg'"
    ]
    del schema["renal_impairment"]
    assert len(typecheck(_deep_chain(), schema)) == _DEPTH // 3


def test_a_policy_deeper_than_the_recursion_limit_formats_but_does_not_reparse():
    assert sys.getrecursionlimit() < _DEPTH
    chain = _deep_chain()
    tail = "".join(f" and {_CHAINED[n % 3]} == true)" for n in range(1, _DEPTH))
    assert print_condition(chain) == "(" * (_DEPTH - 1) + "fever == true" + tail
    text = format_policy(_deep_policy())
    assert f"consistency c_deep forbid {print_condition(chain)}\n" in text
    # Its text nests deeper than the parser admits: a diagnostic, not an exception.
    policy, diags = parse_policy(text)
    assert policy is None
    assert "nesting_too_deep" in {d.code for d in diags}


def test_trees_deeper_than_the_recursion_limit_compare_and_hash():
    assert sys.getrecursionlimit() < _DEPTH
    rule, chain = _deep_rule(), _deep_chain()
    assert rule == _deep_rule() and chain == _deep_chain()
    assert hash(rule) == hash(_deep_rule()) and hash(chain) == hash(_deep_chain())
    assert rule != chain
    # The same tree with the leaf at its bottom changed.
    other = Comparison("weight_kg", "<", FieldValue.decimal("41.0"))
    for level in range(_DEPTH):
        other = (Not(other), And(other, Present("fever")), Or(Absent("age"), other))[level % 3]
    assert rule != other
    assert len({rule, _deep_rule(), chain, _deep_chain(), other}) == 3
    assert _deep_policy() == _deep_policy()
    assert _deep_policy() != _with_rules(_deep_rule(), chain)
