"""How every checked value type behaves, pinned class by class.

One table lists the constructor of each of the 24 value classes in
``model``, ``condition``, ``policy`` and ``suite`` (parameter names, kinds
and defaults, read with ``inspect.signature``) and a representative
instance. Over the table: equality and hashing by value and class,
condition nodes parsed at different positions alike in ``==``, ``hash``
and ``repr``, immutability, and ``pickle``/``copy``/``deepcopy``/``_replace`` copies
that are equal and carry no cache (``_json``, ``_program``, ``_compiled``).
A few ``repr`` strings are pinned literally.
"""

import copy
import inspect
import os
import pickle
import subprocess
import sys
from decimal import Decimal
from inspect import Parameter
from pathlib import Path

import pytest

from absgate import condition, decide, load_reference_policy, load_reference_suite, model, policy, suite
from absgate.condition import Absent, And, Comparison, Has, Literal, Not, Or, Present, evaluate, print_condition
from absgate.dsl import _lex, _Parser
from absgate.model import (
    AbstentionCategory,
    AbstentionReason,
    Action,
    ExpectedBehavior,
    FieldValue,
    Stage,
    StageRecord,
    SystemOutput,
    Verdict,
    canonical_serialize,
)

_ = Parameter.empty
P = Parameter.POSITIONAL_OR_KEYWORD
_CACHES = ("_json", "_program", "_compiled")


def _instances():
    """A representative instance per class, with its caches filled where
    it has any: the policy has decided, the outputs and records were
    encoded, the comparison was evaluated."""
    reference, cases = load_reference_policy(), load_reference_suite()
    output, trace = decide(reference, cases.case("c17"))
    abstained = decide(reference, cases.case("c11"))[0]
    canonical_serialize(trace)
    canonical_serialize(abstained)
    comparison = Comparison("age", ">=", FieldValue.integer(65))
    evaluate(comparison, {"age": FieldValue.integer(70)})
    present, has = Present("age"), Has("flags", "a")
    return {
        model.FieldValue: FieldValue.decimal("-0.50"),
        model.AbstentionReason: AbstentionReason(AbstentionCategory.EXPLICIT_EXCLUSION, ("b", "a")),
        model.SystemOutput: abstained,
        model.ExpectedBehavior: ExpectedBehavior(Action.RECOMMEND, class_id="macrolide"),
        model.CaseInput: cases.case("c17"),
        model.StageRecord: trace.stages[2],
        model.AuditTrace: trace,
        condition.Literal: Literal(True),
        condition.Comparison: comparison,
        condition.Present: present,
        condition.Absent: Absent("age"),
        condition.Has: has,
        condition.And: And(present, Not(has)),
        condition.Or: Or(has, comparison),
        condition.Not: Not(comparison),
        policy.FieldDecl: reference.schema[0],
        policy.ClassDecl: reference.classes[0],
        policy.ConsistencyConstraint: reference.consistency[0],
        policy.ExclusionRule: reference.exclusions[0],
        policy.ClinicalRule: reference.clinical_rules[0],
        policy.StewardshipVeto: reference.stewardship.class_vetoes[0],
        policy.StewardshipSpec: reference.stewardship,
        policy.Policy: reference,
        suite.Suite: cases,
    }


# Each class's constructor parameters as (name, kind, default).
SIGNATURES = {
    model.FieldValue: (("kind", P, _), ("value", P, _)),
    model.AbstentionReason: (("category", P, _), ("labels", P, _)),
    model.SystemOutput: (("action", P, _), ("class_id", P, None), ("reason", P, None)),
    model.ExpectedBehavior: (("action", P, _), ("class_id", P, None), ("category", P, None)),
    model.CaseInput: (("case_id", P, _), ("description", P, _), ("mechanism", P, _), ("fields", P, _), ("expected", P, _)),
    model.StageRecord: (("stage", P, _), ("evaluated", P, ()), ("notes", P, ())),
    model.AuditTrace: (("stages", P, _), ("final", P, _)),
    condition.Literal: (("value", P, _),),
    condition.Comparison: (("field_name", P, _), ("op", P, _), ("literal", P, _)),
    condition.Present: (("field_name", P, _),),
    condition.Absent: (("field_name", P, _),),
    condition.Has: (("field_name", P, _), ("token", P, _)),
    condition.And: (("left", P, _), ("right", P, _)),
    condition.Or: (("left", P, _), ("right", P, _)),
    condition.Not: (("inner", P, _),),
    policy.FieldDecl: (("name", P, _), ("kind", P, _), ("enum", P, None), ("is_risk", P, False)),
    policy.ClassDecl: (("class_id", P, _), ("spectrum_rank", P, _), ("escalation_tier", P, False)),
    policy.ConsistencyConstraint: (("rule_id", P, _), ("forbid", P, _)),
    policy.ExclusionRule: (("rule_id", P, _), ("label", P, _), ("when", P, _)),
    policy.ClinicalRule: (
        ("rule_id", P, _), ("when", P, _), ("candidate", P, _), ("requires", P, ()), ("incompatible_with", P, ()),
    ),
    policy.StewardshipVeto: (("rule_id", P, _), ("class_id", P, _), ("when", P, _)),
    policy.StewardshipSpec: (("escalation_justification", P, _), ("class_vetoes", P, ())),
    policy.Policy: (
        ("policy_id", P, _), ("version", P, _), ("schema", P, _), ("classes", P, _), ("stewardship", P, _),
        ("required", P, ()), ("known_risks", P, frozenset()), ("consistency", P, ()), ("exclusions", P, ()),
        ("clinical_rules", P, ()),
    ),
    suite.Suite: (("suite_id", P, _), ("version", P, _), ("mechanisms", P, _), ("cases", P, _), ("policy_hash_pin", P, None)),
}
INSTANCES = _instances()
CLASSES = list(SIGNATURES)
UNHASHABLE = {model.CaseInput, suite.Suite}
NODES = [cls for cls in CLASSES if cls.__module__ == condition.__name__]


def _names(cls):
    return [name for name, _, _ in SIGNATURES[cls]]


def _rebuilt(value, **changes):
    """``value`` built again through its constructor, with ``changes``."""
    return type(value)(**{**{name: getattr(value, name) for name in _names(type(value))}, **changes})


def _same_hash(a, b):
    """Whether ``a`` and ``b`` hash alike; a value holding a dict (a case's
    fields) cannot be hashed at all."""
    if type(a) in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(a)
        return True
    return hash(a) == hash(b)


def _assert_same_value_without_caches(clone, value):
    assert type(clone) is type(value)
    assert clone == value and value == clone and _same_hash(clone, value)
    assert sorted(vars(clone)) == sorted(_names(type(value)))
    assert all(getattr(clone, cache, None) is None for cache in _CACHES)


def test_the_table_covers_every_class_once():
    assert len(CLASSES) == 24 and set(INSTANCES) == set(CLASSES)
    assert all(type(value) is cls for cls, value in INSTANCES.items())


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_constructor_parameters(cls):
    parameters = inspect.signature(cls).parameters.values()
    assert tuple((p.name, p.kind, p.default) for p in parameters) == SIGNATURES[cls]


def test_pinned_reprs():
    assert repr(FieldValue.decimal("-0.50")) == "FieldValue(kind=<FieldKind.DECIMAL: 'decimal'>, value=Decimal('-0.5000'))"
    assert repr(Comparison("age", ">=", FieldValue.integer(65))) == (
        "Comparison(field_name='age', op='>=',"
        " literal=FieldValue(kind=<FieldKind.INTEGER: 'integer'>, value=65))"
    )
    assert repr(SystemOutput.abstain(AbstentionCategory.EXPLICIT_EXCLUSION, ["b", "a"])) == (
        "SystemOutput(action=<Action.ABSTAIN: 'abstain'>, class_id=None,"
        " reason=AbstentionReason(category=<AbstentionCategory.EXPLICIT_EXCLUSION: 'explicit_exclusion'>,"
        " labels=('a', 'b')))"
    )
    record = StageRecord(Stage.EXCLUSIONS, (("r2", Verdict.FIRED), ("r1", Verdict.NOT_FIRED)), ("n",))
    assert repr(record) == (
        "StageRecord(stage=<Stage.EXCLUSIONS: 'exclusions'>,"
        " evaluated=(('r1', <Verdict.NOT_FIRED: 'not_fired'>), ('r2', <Verdict.FIRED: 'fired'>)), notes=('n',))"
    )
    assert repr(And(Present("a"), Not(Has("b", "x")))) == (
        "And(left=Present(field_name='a'), right=Not(inner=Has(field_name='b', token='x')))"
    )


def test_repr_prints_a_frozenset_sorted_whatever_the_hash_seed():
    # The reference policy's known risks are a frozenset of strings, whose
    # iteration order follows the string hash seed.
    probe = (
        "import pickle; from absgate import load_reference_policy; policy = load_reference_policy();"
        " text = repr(policy); assert repr(pickle.loads(pickle.dumps(policy))) == text; print(text)"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    texts = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        texts.append(result.stdout)
    assert texts[0] == texts[1] == repr(load_reference_policy()) + "\n"
    risks = "'chronic_lung_disease', 'immunosuppressed', 'neutropenia', 'recent_hospitalization'"
    assert f"known_risks=frozenset({{{risks}}})" in texts[0]
    assert repr(FieldValue.token_set(["b", "c", "a"])) == (
        "FieldValue(kind=<FieldKind.TOKEN_SET: 'token_set'>, value=frozenset({'a', 'b', 'c'}))"
    )


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_equality_and_hash_go_by_class_and_value(cls):
    value = INSTANCES[cls]
    rebuilt = _rebuilt(value)
    assert rebuilt is not value and rebuilt == value and _same_hash(rebuilt, value)
    assert not rebuilt != value
    fields = tuple(getattr(value, name) for name in _names(cls))
    assert value != fields and fields != value
    assert all(value != INSTANCES[other] for other in CLASSES if other is not cls)


@pytest.mark.parametrize("cls", NODES, ids=lambda cls: cls.__name__)
def test_condition_nodes_compare_and_hash_without_their_position(cls):
    # A node holds no position: the same text parsed at another line and
    # column builds an equal node, and a constructor takes no ``line``.
    value = INSTANCES[cls]
    text = print_condition(value)
    at_start, moved = (_parsed_condition(prefix + text) for prefix in ("", "\n\n   "))
    assert moved == at_start == value and hash(moved) == hash(value) and repr(moved) == repr(value)
    with pytest.raises(TypeError, match="unexpected keyword argument 'line'"):
        _rebuilt(value, line=40)


def _parsed_condition(text):
    diags = []
    tree = _Parser(_lex(text, diags), diags)._condition()
    assert diags == []
    return tree


def test_leaves_of_another_class_over_the_same_field_differ():
    assert Present("x") != Absent("x") and Absent("x") != Present("x")
    assert Not(Present("x")) != Not(Absent("x"))
    assert And(Present("x"), Literal(True)) != Or(Present("x"), Literal(True))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_values_are_immutable(cls):
    value = INSTANCES[cls]
    before = repr(value)
    for name in (*_names(cls), "_json", "unrelated"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for name in _names(cls):
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == before


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_pickles_and_copies_are_equal_and_carry_no_cache(cls):
    value = INSTANCES[cls]
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        _assert_same_value_without_caches(clone, value)


def test_the_instances_hold_caches_for_the_copies_to_drop():
    assert INSTANCES[model.SystemOutput]._json is not None
    assert INSTANCES[model.StageRecord]._json is not None
    assert INSTANCES[condition.Comparison]._program is not None
    assert INSTANCES[policy.Policy]._compiled is not None


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_replace_rebuilds_through_the_constructor(cls):
    value = INSTANCES[cls]
    _assert_same_value_without_caches(value._replace(), value)
    with pytest.raises(TypeError):
        value._replace(no_such_field=1)


def test_replace_normalizes_and_checks_like_the_constructor():
    reason = INSTANCES[model.AbstentionReason]._replace(labels=("z", "y", "z"))
    assert reason.labels == ("y", "z")
    assert FieldValue.decimal("1.5")._replace(value="-0.0").value == Decimal("0.0000")
    with pytest.raises(ValueError, match="^class id is not an identifier: 'Not An Id'$"):
        SystemOutput.recommend("narrow")._replace(class_id="Not An Id")
