"""Seeded workload generators for the absgate benchmark.

Every workload is policy text plus suite JSON text built from the seed
alone, so the program under measurement only ever sees generated inputs.
Case expectations come from the independent oracle in ``tests/oracle.py``
(imported, never modified), not from the engine being measured, so a
benchmark run also checks the engine against the oracle on every field
kind the DSL has.

Workloads:

* ``reference`` -- the packaged policy and 23-case suite, unchanged; the
  seed only orders the per-case samples.
* ``rule_heavy`` -- about 300 rules nesting 3 to 4 deep over 40 fields of
  every kind, about 20 vetoes, fully populated cases; nearly every case
  reaches stewardship or output.
* ``intake_screen`` -- a small policy and a few thousand sparse cases;
  most cases stop at input assessment or exclusions.
"""

from __future__ import annotations

import importlib.util
import json
import random
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Any, Callable

from absgate import parse_policy, parse_suite
from absgate.reference import reference_policy_text, reference_suite_text

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("reference", "rule_heavy", "intake_screen")


def load_oracle() -> ModuleType:
    """Import ``tests/oracle.py`` from the checkout by path."""
    spec = importlib.util.spec_from_file_location("absgate_bench_oracle", ROOT / "tests" / "oracle.py")
    if spec is None or spec.loader is None:
        raise ImportError("tests/oracle.py not found")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass(frozen=True)
class Workload:
    name: str
    policy_text: str
    suite_text: str
    # Oracle outcome per case id: ("recommend", class) or ("abstain", category, labels).
    expected: dict[str, tuple]


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """Generate workload ``name`` from ``seed``; ``smoke`` shrinks it to seconds."""
    if name == "reference":
        return _with_oracle(name, reference_policy_text(), json.loads(reference_suite_text()))
    rng = random.Random(f"{name}:{seed}")
    if name == "rule_heavy":
        policy_text, document = _rule_heavy(rng, rules=30 if smoke else 300, cases=12 if smoke else 80)
    elif name == "intake_screen":
        policy_text, document = _intake_screen(rng, cases=60 if smoke else 2500)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return _with_oracle(name, policy_text, document)


def _with_oracle(name: str, policy_text: str, document: dict[str, Any]) -> Workload:
    """Fill every ``expect`` left as None from the oracle; keep hand-written ones."""
    oracle = load_oracle()
    policy, diags = parse_policy(policy_text)
    if policy is None:
        raise ValueError(f"{name}: generated policy does not parse: {[d.render() for d in diags]}")
    probe = dict(document, cases=[dict(case, expect=case["expect"] or {"abstain": "any"}) for case in document["cases"]])
    suite, diags = parse_suite(json.dumps(probe))
    if suite is None:
        raise ValueError(f"{name}: generated suite does not parse: {[d.render() for d in diags]}")
    expected = {case.case_id: oracle.oracle_decide(policy, case) for case in suite.cases}
    for case in document["cases"]:
        if case["expect"] is None:
            outcome = expected[case["id"]]
            case["expect"] = {outcome[0]: outcome[1]}
    return Workload(name, policy_text, json.dumps(document, indent=1) + "\n", expected)


# --- shared pieces ----------------------------------------------------------

@dataclass(frozen=True)
class _Field:
    name: str
    kind: str  # bool, int, decimal, token, tokenset, risk
    enum: tuple[str, ...] = ()

    def declaration(self) -> str:
        kinds = {"bool": "bool", "int": "int", "decimal": "decimal", "risk": "tokenset risk"}
        if self.kind in kinds:
            return f"field {self.name} : {kinds[self.kind]}"
        return f"field {self.name} : {self.kind} {{ {', '.join(self.enum)} }}"


def _decimal(rng: random.Random, low: int, high: int) -> str:
    return f"{rng.randint(low * 10000, high * 10000) / 10000:.4f}"


def _value(rng: random.Random, field: _Field, known_risks: tuple[str, ...]) -> Any:
    """A random JSON value of the field's kind; int and decimal span 0..100."""
    if field.kind == "bool":
        return rng.random() < 0.5
    if field.kind == "int":
        return rng.randint(0, 99)
    if field.kind == "decimal":
        return _decimal(rng, 0, 100)
    if field.kind == "token":
        return rng.choice(field.enum)
    pool = known_risks if field.kind == "risk" else field.enum
    return [token for token in pool if rng.random() < 0.35]


def _atom(rng: random.Random, field: _Field, known_risks: tuple[str, ...]) -> str:
    """One comparison, ``has`` test or guard on ``field``."""
    if rng.random() < 0.04:
        return f"{rng.choice(('present', 'absent'))}({field.name})"
    if field.kind == "bool":
        return f"{field.name} {rng.choice(('==', '!='))} {rng.choice(('true', 'false'))}"
    if field.kind in ("int", "decimal"):
        op = rng.choice(("<", "<=", ">", ">=", "<", ">", "!="))
        # An int literal against a decimal field exercises exact widening.
        literal = str(rng.randint(5, 95)) if field.kind == "int" or rng.random() < 0.3 else _decimal(rng, 5, 95)
        return f"{field.name} {op} {literal}"
    if field.kind == "token":
        return f"{field.name} {rng.choice(('==', '==', '!='))} {rng.choice(field.enum)}"
    pool = known_risks if field.kind == "risk" else field.enum
    return f"{field.name} has {rng.choice(pool)}"


def _tree(rng: random.Random, atom: Callable[[], str], depth: int) -> str:
    """A condition of exactly ``depth`` levels along its leftmost path."""
    if depth <= 1:
        return atom()
    roll = rng.random()
    if roll < 0.12:
        return f"(not {_tree(rng, atom, depth - 1)})"
    op = "and" if roll < 0.7 else "or"
    return f"({_tree(rng, atom, depth - 1)} {op} {_tree(rng, atom, rng.randint(1, depth - 1))})"


def _document(suite_id: str, mechanisms: tuple[str, ...], cases: list[dict[str, Any]]) -> dict[str, Any]:
    return {"suite_id": suite_id, "version": "v1", "mechanisms": list(mechanisms), "cases": cases}


def _case(index: int, mechanism: str, fields: dict[str, Any]) -> dict[str, Any]:
    return {
        "id": f"c{index:05d}",
        "description": f"Generated {mechanism} case {index}.",
        "mechanism": mechanism,
        "fields": fields,
        "expect": None,
    }


# --- rule_heavy -------------------------------------------------------------

_RH_RISKS = tuple(f"r{i}" for i in range(8))


def _rule_heavy_schema() -> list[_Field]:
    fields = [_Field(f"b{i}", "bool") for i in range(10)]
    fields += [_Field(f"i{i}", "int") for i in range(8)]
    fields += [_Field(f"d{i}", "decimal") for i in range(6)]
    fields += [_Field(f"t{i}", "token", tuple(f"t{i}v{j}" for j in range(4))) for i in range(8)]
    fields += [_Field(f"s{i}", "tokenset", tuple(f"s{i}m{j}" for j in range(5))) for i in range(5)]
    fields += [_Field(f"k{i}", "risk") for i in range(3)]
    return fields


def _rule_heavy(rng: random.Random, rules: int, cases: int) -> tuple[str, dict[str, Any]]:
    fields = _rule_heavy_schema()
    by_kind = {kind: [f for f in fields if f.kind == kind] for kind in ("bool", "int", "token")}
    required = [f.name for f in rng.sample(fields, 6)]
    # Two classes share each rank, so rank ties at the minimum are reachable;
    # the three broadest are escalation tier.
    classes = [(f"cls{i}", i // 2 + 1, i >= 9) for i in range(12)]

    def atom() -> str:
        return _atom(rng, rng.choice(fields), _RH_RISKS)

    def rare() -> tuple[str, dict[str, Any]]:
        # An unlikely conjunction (about 1 in 1600) and the values that make it true.
        yes, no = rng.sample(by_kind["bool"], 2)
        high = rng.choice(by_kind["int"])
        token = rng.choice(by_kind["token"])
        value = rng.choice(token.enum)
        text = f"({yes.name} == true and {high.name} > 98 and {token.name} == {value} and {no.name} == false)"
        return text, {yes.name: True, high.name: 99, token.name: value, no.name: False}

    lines = ["# Generated rule-heavy policy.", "policy rule_heavy version v1", ""]
    lines += [f.declaration() for f in fields]
    lines += [f"class {cid} rank {rank}{' escalation' if esc else ''}" for cid, rank, esc in classes]
    lines.append("require " + ", ".join(required))
    lines.append("known_risks { " + " ".join(_RH_RISKS) + " }")
    lines += [f"consistency x{i} forbid {rare()[0]}" for i in range(4)]
    exclusions = [rare() for _ in range(6)]
    lines += [f"exclude e{i} label EX{i} when {text}" for i, (text, _) in enumerate(exclusions)]
    rule_ids = [f"rule{i:03d}" for i in range(rules)]
    partners: dict[str, str] = {}
    for a, b in zip(*[iter(rng.sample(rule_ids, 2 * max(1, rules // 30)))] * 2):
        partners[a], partners[b] = b, a
    # The fields rules require are never globally required nor used by
    # exclusions, so a case without one stops at clinical_rules.
    optional = [f.name for f in fields if f.kind in ("decimal", "tokenset", "risk") and f.name not in required]
    required_by_rules = set()
    for rule_id in rule_ids:
        requires = ""
        if rule_id == rule_ids[0] or rng.random() < 0.1:
            name = rng.choice(optional)
            required_by_rules.add(name)
            requires = f" requires {name}"
        # Two closed-token tests in front keep each rule's firing odds near 3%,
        # so a case fires about nine rules and reaches stewardship.
        gate = " and ".join(f"{t.name} == {rng.choice(t.enum)}" for t in rng.sample(by_kind["token"], 2))
        when = f"({gate} and {_tree(rng, atom, rng.choice((2, 3)))})"
        incompatible = f" incompatible {partners[rule_id]}" if rule_id in partners else ""
        lines.append(f"rule {rule_id}{requires} when {when} candidate {rng.choice(classes)[0]}{incompatible}")
    lines.append("stewardship {")
    lines.append(f"    escalation_justified_when ({rng.choice(by_kind['bool']).name} == true or i0 > 60)")
    for i in range(rules // 15):
        lines.append(f"    veto v{i} class {rng.choice(classes)[0]} when ({atom()} and {atom()})")
    lines += ["}", ""]

    # In every 80 cases one stops early in each of four ways, so every
    # terminating stage is present at any seed while over 90% reach stage 4.
    early = {0: "missing_required", 20: "unknown_risk", 40: "excluded", 60: "missing_optional"}
    generated = []
    for index in range(cases):
        values = {f.name: _value(rng, f, _RH_RISKS) for f in fields}
        mechanism = early.get(index % 80, "full")
        if mechanism == "missing_required":
            del values[rng.choice(required)]
        elif mechanism == "unknown_risk":
            values[rng.choice(("k0", "k1", "k2"))].append("unlisted_risk")
        elif mechanism == "excluded":
            values.update(rng.choice(exclusions)[1])
        elif mechanism == "missing_optional":
            del values[rng.choice(sorted(required_by_rules))]
        generated.append(_case(index, mechanism, values))
    mechanisms = ("full", "missing_required", "unknown_risk", "excluded", "missing_optional")
    document = _document("rule_heavy", mechanisms, generated)
    return "\n".join(lines), document


# --- intake_screen ----------------------------------------------------------

_IS_RISKS = ("immunosuppressed", "neutropenia", "chronic_lung_disease", "recent_hospitalization")

_IS_FIELDS = (
    _Field("age", "int"),
    _Field("syndrome", "token", ("pneumonia", "uti", "cellulitis", "sepsis")),
    _Field("severity", "token", ("mild", "moderate", "severe")),
    _Field("sex", "token", ("female", "male")),
    _Field("pregnant", "bool"),
    _Field("icu_admission", "bool"),
    _Field("beta_lactam_allergy", "bool"),
    _Field("renal_impairment", "bool"),
    _Field("recent_antibiotics", "bool"),
    _Field("weight_kg", "decimal"),
    _Field("symptoms", "tokenset", ("cough", "dysuria", "rash", "fever", "chills")),
    _Field("risk_factors", "risk"),
)


def _intake_screen(rng: random.Random, cases: int) -> tuple[str, dict[str, Any]]:
    adult = rng.randint(16, 20)
    light = rng.randint(30, 40)
    policy = f"""# Generated intake-screen policy.
policy intake_screen version v1

{chr(10).join(f.declaration() for f in _IS_FIELDS)}

class narrow rank 1
class standard rank 2
class atypical rank 2
class broad rank 3 escalation
class reserve rank 4 escalation

require age, syndrome, severity
known_risks {{ {' '.join(_IS_RISKS)} }}

consistency x_pregnant_male forbid (pregnant == true and sex == male)
consistency x_icu_mild forbid (icu_admission == true and severity == mild)
consistency x_uti_rash forbid (syndrome == uti and symptoms has rash and symptoms has cough)

exclude e_pregnancy label EX_PREGNANCY when pregnant == true
exclude e_pediatric label EX_PEDIATRIC when age < {adult}
exclude e_recent_abx label EX_RECENT_ANTIBIOTICS when recent_antibiotics == true
exclude e_low_weight label EX_LOW_WEIGHT when weight_kg < {light}.0

rule r_cap_mild when (syndrome == pneumonia and severity == mild and beta_lactam_allergy == false) candidate narrow
rule r_cap_allergy when (syndrome == pneumonia and beta_lactam_allergy == true) candidate atypical
rule r_cap_moderate when (syndrome == pneumonia and severity == moderate) candidate standard
rule r_uti requires renal_impairment when (syndrome == uti and renal_impairment == false) candidate standard
rule r_uti_renal when (syndrome == uti and renal_impairment == true) candidate broad
rule r_cellulitis when (syndrome == cellulitis and not (symptoms has fever)) candidate narrow incompatible r_cellulitis_fever
rule r_cellulitis_fever when (syndrome == cellulitis and symptoms has fever) candidate standard incompatible r_cellulitis
rule r_severe when (severity == severe or syndrome == sepsis) candidate broad
rule r_severe_risk when (severity == severe and risk_factors has neutropenia) candidate reserve

stewardship {{
    escalation_justified_when (severity == severe or icu_admission == true or risk_factors has immunosuppressed)
    veto v_renal_reserve class reserve when renal_impairment == true
    veto v_old_atypical class atypical when age >= {rng.randint(80, 90)}
}}
"""
    required = ("age", "syndrome", "severity")
    generated = []
    for index in range(cases):
        fields: dict[str, Any] = {}
        for field in _IS_FIELDS:
            if rng.random() < (0.9 if field.name in required else 0.72):
                fields[field.name] = _value(rng, field, _IS_RISKS)
        for name in ("pregnant", "recent_antibiotics", "icu_admission"):
            if name in fields:
                fields[name] = rng.random() < 0.12
        if "age" in fields:
            fields["age"] = rng.randint(adult - 6, 95)
        if "risk_factors" in fields and rng.random() < 0.08:
            fields["risk_factors"].append("unlisted_risk")
        generated.append(_case(index, "sparse", fields))
    return policy, _document("intake_screen", ("sparse",), generated)
