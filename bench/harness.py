"""Measurement phases of the absgate benchmark.

Both runs repeat rounds until the time budget is spent, so every metric is a
median (or a percentile) over samples spread across the whole run:

* the end-to-end run (tracing off) times, per round, set-up, in-process
  evaluation, one audited decide per case and one ``absgate evaluate``
  process;
* the traced run wraps the same public calls in spans, from which come the
  per-layer metrics, span self times and the tracing overhead (a traced
  decide pass against an untraced one in the same round).

Every time is scaled by the calibration taken around it (see
``measure.Speedometer``); the unscaled values are kept beside the metrics.
Every output is checked: each case against the oracle, each report for
determinism and stewardship, and the CLI report byte for byte against the
in-process one. Garbage is collected outside the timed regions; no threads
are started and ``run_suite`` keeps its default ``jobs``.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from absgate import (
    MatchLevel,
    assess_inputs,
    bind_suite,
    canonical_bytes,
    canonical_serialize,
    decide,
    has_errors,
    parse_policy,
    parse_suite,
    policy_hash,
    run_suite,
    suite_hash,
    validate_policy,
)
from absgate.condition import And, Not, Or, evaluate

from generate import Workload, load_oracle
from measure import NullTracer, Speedometer, Tracer, median, percentile, run_child

STAGES = ("input_assessment", "exclusions", "clinical_rules", "stewardship", "output")
# A 99th percentile needs at least ten samples beyond it.
MIN_DECIDE_SAMPLES = 1000
# Each round times at least this many audited decides, in whole passes.
DECIDE_SAMPLES_PER_ROUND = 160
_NULL = NullTracer()
_as_tuple = load_oracle().as_tuple


class BenchmarkError(RuntimeError):
    """The program could not run a workload at all (it did not parse or bind)."""


@dataclass
class Checks:
    """Case outcomes attempted and failed, plus run-level problems."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    report_digests: set[str] = field(default_factory=set)

    def require(self, ok: bool, problem: str) -> None:
        if not ok and problem not in self.problems:
            self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems and len(self.report_digests) == 1


@dataclass(frozen=True)
class Files:
    """Where the generated inputs and the CLI's outputs live."""

    policy: Path
    suite: Path
    report: Path
    log: Path


@dataclass
class Outcome:
    # Metric name -> (value, number of samples it summarises).
    metrics: dict[str, tuple[float, int]]
    stage_mix: dict[str, int]
    rounds: int
    # Per-round values behind the round medians, to show drift within a run.
    series: dict[str, list[float]] = field(default_factory=dict)
    self_times: dict[str, dict[str, float]] = field(default_factory=dict)


def load(work: Workload, tracer: Tracer = _NULL):
    """Policy and suite text to a bound pair ready to decide."""
    tracer.begin("dsl.parse_policy")
    policy, policy_diags = parse_policy(work.policy_text)
    tracer.end()
    if policy is None:
        raise BenchmarkError(f"{work.name}: policy does not parse: {[d.render() for d in policy_diags]}")
    tracer.begin("policy.validate_policy")
    lint = validate_policy(policy)
    tracer.end()
    tracer.begin("policy.policy_hash")
    policy_hash(policy)
    tracer.end()
    tracer.begin("suite.parse_suite")
    suite, suite_diags = parse_suite(work.suite_text)
    tracer.end()
    if suite is None:
        raise BenchmarkError(f"{work.name}: suite does not parse: {[d.render() for d in suite_diags]}")
    tracer.begin("suite.bind_suite")
    binding = bind_suite(suite, policy)
    tracer.end()
    if has_errors(policy_diags + lint + suite_diags + binding):
        raise BenchmarkError(f"{work.name}: policy or suite has errors")
    return policy, suite


def evaluate_suite(policy, suite) -> tuple[object, bytes]:
    report = run_suite(policy, suite, runs=3)
    return report, canonical_bytes(report.to_canonical())


def check_report(report, data: bytes, work: Workload, checks: Checks) -> None:
    """A case fails on a wrong outcome, a failed stewardship check or diverged runs."""
    failed = {
        r.case_id for r in report.results
        if r.match is not MatchLevel.FULL or _as_tuple(r.actual) != work.expected[r.case_id]
    }
    failed.update(f.case_id for f in report.stewardship_findings if not f.passed)
    if not report.determinism_ok:
        failed = {r.case_id for r in report.results}
    checks.attempted += len(report.results)
    checks.failed += len(failed)
    checks.require(report.determinism_ok, "run digests diverged (determinism_ok is false)")
    checks.require(report.all_stewardship_pass(), "a stewardship check failed")
    checks.report_digests.add(hashlib.sha256(data).hexdigest())


def _check_outputs(cases, outputs, work: Workload, checks: Checks) -> None:
    for case, output in zip(cases, outputs):
        checks.attempted += 1
        if output is None or _as_tuple(output) != work.expected[case.case_id]:
            checks.failed += 1


def decide_pass(policy, cases, work: Workload, checks: Checks, samples_ns: list[int]) -> int:
    """One audited decide per case, each timed; returns the pass wall time in ns."""
    outputs = []
    clock = time.perf_counter_ns
    gc.collect()
    pass_start = clock()
    for case in cases:
        start = clock()
        try:
            output, trace = decide(policy, case)
            canonical_serialize(output)
            canonical_serialize(trace)
        except Exception:  # a case that raises counts as failed
            output = None
        samples_ns.append(clock() - start)
        outputs.append(output)
    wall = clock() - pass_start
    _check_outputs(cases, outputs, work, checks)
    return wall


def traced_decide_pass(policy, cases, work: Workload, checks: Checks, tracer: Tracer) -> tuple[int, int]:
    """The same calls under spans; returns (pass wall, decide + serialize busy) in ns."""
    outputs = []
    busy = 0
    clock = time.perf_counter_ns
    gc.collect()
    pass_start = clock()
    tracer.begin("engine.decide_pass")
    for case in cases:
        tracer.begin("case", case.case_id)
        tracer.begin("engine.decide", case.case_id)
        try:
            output, trace = decide(policy, case)
        except Exception:  # a case that raises counts as failed
            output = trace = None
        busy += tracer.end()
        tracer.begin("model.canonical_serialize", case.case_id)
        if trace is not None:
            canonical_serialize(output)
            canonical_serialize(trace)
        busy += tracer.end()
        tracer.end()
        outputs.append(output)
    tracer.end()
    wall = clock() - pass_start
    _check_outputs(cases, outputs, work, checks)
    return wall, busy


class Cli:
    """``absgate evaluate`` and bare start-up, run as child processes of this interpreter."""

    def __init__(self, files: Files, src: Path) -> None:
        self.files = files
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.evaluate_argv = [
            sys.executable, "-m", "absgate.cli", "evaluate", "--strict",
            "--policy", str(files.policy), "--suite", str(files.suite), "--report", str(files.report),
        ]

    def evaluate(self, expected_report: bytes, checks: Checks) -> tuple[float, int]:
        """Returns (wall seconds, peak RSS KiB) and checks exit code and report bytes."""
        self.files.report.unlink(missing_ok=True)
        code, wall, rss = run_child(self.evaluate_argv, self.env, self.files.log)
        checks.require(code == 0, f"absgate evaluate --strict exited {code}; see {self.files.log}")
        written = self.files.report.read_bytes() if self.files.report.exists() else b""
        checks.require(written == expected_report + b"\n", "CLI report differs from the in-process report")
        return wall, rss

    def startup(self, code: str) -> float:
        _, wall, _ = run_child([sys.executable, "-c", code], self.env, self.files.log)
        return wall


def _min_rounds(smoke: bool) -> int:
    return 1 if smoke else 3


def _warm_up(work: Workload, cli: Cli, checks: Checks) -> None:
    """Untimed: imports, lazy set-up and the CLI's bytecode cache."""
    policy, suite = load(work)
    _, report = evaluate_suite(policy, suite)
    decide_pass(policy, list(suite.cases), work, checks, [])
    cli.evaluate(report, checks)


def run_end_to_end(work: Workload, seconds: float, smoke: bool, seed: int, cli: Cli, checks: Checks) -> Outcome:
    order = random.Random(seed)
    _warm_up(work, cli, checks)
    speed = Speedometer()
    raw: dict[str, list[float]] = {"setup_s": [], "evaluate_s": [], "cli_evaluate_s": []}
    scaled: dict[str, list[float]] = {name: [] for name in raw}
    cli_rss: list[int] = []
    decide_ns: list[float] = []

    def record(name: str, taken: float) -> None:
        raw[name].append(taken)
        scaled[name].append(taken * speed.scale())

    def sample_decide(cases: list) -> None:
        pass_ns: list[int] = []
        order.shuffle(cases)
        decide_pass(policy, cases, work, checks, pass_ns)
        scale = speed.scale()
        decide_ns.extend(ns * scale for ns in pass_ns)

    rounds = 0
    deadline = time.perf_counter() + seconds
    while rounds < _min_rounds(smoke) or time.perf_counter() < deadline:
        gc.collect()
        start = time.perf_counter()
        policy, suite = load(work)
        record("setup_s", time.perf_counter() - start)

        gc.collect()
        start = time.perf_counter()
        report, data = evaluate_suite(policy, suite)
        record("evaluate_s", time.perf_counter() - start)
        check_report(report, data, work, checks)

        cases = list(suite.cases)
        for _ in range(-(-DECIDE_SAMPLES_PER_ROUND // len(cases))):
            sample_decide(cases)

        wall, rss = cli.evaluate(data, checks)
        record("cli_evaluate_s", wall)
        cli_rss.append(rss)
        rounds += 1
    while not smoke and len(decide_ns) < MIN_DECIDE_SAMPLES:
        sample_decide(cases)

    metrics = {name: (median(values), rounds) for name, values in scaled.items()}
    metrics["decide_p50_us"] = (percentile(decide_ns, 50) / 1e3, len(decide_ns))
    metrics["decide_p99_us"] = (percentile(decide_ns, 99) / 1e3, len(decide_ns))
    metrics["peak_rss_mb"] = (median(cli_rss) / 1024, rounds)
    series = {f"{name}_unscaled": values for name, values in raw.items()}
    series["calibration_ms"] = [ns / 1e6 for ns in speed.calibrations]
    return Outcome(metrics, _stage_mix(decide(policy, case)[1] for case in suite.cases), rounds, series)


def _stage_mix(traces) -> dict[str, int]:
    """Cases per terminating stage, read from each trace's last stage record."""
    mix = Counter(trace.stages[-1].stage.value for trace in traces)
    return {stage: mix.get(stage, 0) for stage in STAGES}


def _conditions(policy) -> list:
    found = [policy.stewardship.escalation_justification]
    found += [c.forbid for c in policy.consistency]
    found += [e.when for e in policy.exclusions]
    found += [r.when for r in policy.clinical_rules]
    found += [v.when for v in policy.stewardship.class_vetoes]
    return found


def _nodes(cond) -> int:
    if isinstance(cond, (And, Or)):
        return 1 + _nodes(cond.left) + _nodes(cond.right)
    if isinstance(cond, Not):
        return 1 + _nodes(cond.inner)
    return 1


def run_traced(work: Workload, seconds: float, smoke: bool, seed: int, cli: Cli, checks: Checks, tracer: Tracer) -> Outcome:
    order = random.Random(seed)
    _warm_up(work, cli, checks)
    speed = Speedometer()
    untraced_ns: list[float] = []
    traced_ns: list[float] = []
    busy_ns: list[float] = []

    def phase_end(first: int) -> float:
        """Scale the spans recorded since index ``first`` by their phase's speed factor."""
        scale = speed.scale()
        tracer.rescale(first, scale)
        return scale

    def decide_passes(cases: list) -> None:
        order.shuffle(cases)
        # Alternate which pass goes first, so neither always follows the same phase.
        for traced in (False, True) if len(traced_ns) % 2 == 0 else (True, False):
            if traced:
                first = len(tracer.spans)
                wall, busy = traced_decide_pass(policy, cases, work, checks, tracer)
                scale = phase_end(first)
                traced_ns.append(wall * scale)
                busy_ns.append(busy * scale)
            else:
                wall = decide_pass(policy, cases, work, checks, [])
                untraced_ns.append(wall * speed.scale())

    rounds = 0
    deadline = time.perf_counter() + seconds
    while rounds < _min_rounds(smoke) or time.perf_counter() < deadline:
        first = len(tracer.spans)
        gc.collect()
        tracer.begin("setup")
        policy, suite = load(work, tracer)
        tracer.end()
        tracer.begin("suite.suite_hash")
        suite_hash(suite)
        tracer.end()
        phase_end(first)

        cases = list(suite.cases)
        for _ in range(-(-DECIDE_SAMPLES_PER_ROUND // len(cases))):
            decide_passes(cases)

        first = len(tracer.spans)
        gc.collect()
        for case in cases:
            tracer.begin("engine.assess_inputs", case.case_id)
            assess_inputs(policy, case)
            tracer.end()
        phase_end(first)

        first = len(tracer.spans)
        conditions = _conditions(policy)
        gc.collect()
        for case in cases:
            tracer.begin("condition.evaluate", case.case_id)
            for cond in conditions:
                evaluate(cond, case.fields)
            tracer.end()
        phase_end(first)

        first = len(tracer.spans)
        gc.collect()
        tracer.begin("evaluation.run_suite")
        report = run_suite(policy, suite, runs=3)
        tracer.end()
        tracer.begin("canon.canonical_bytes")
        data = canonical_bytes(report.to_canonical())
        tracer.end()
        phase_end(first)
        check_report(report, data, work, checks)

        first = len(tracer.spans)
        tracer.begin("cli.interpreter")
        cli.startup("pass")
        tracer.end()
        tracer.begin("cli.import")
        cli.startup("import absgate")
        tracer.end()
        tracer.begin("cli.evaluate")
        cli.evaluate(data, checks)
        tracer.end()
        phase_end(first)
        rounds += 1
    while not smoke and len(tracer.durations("engine.decide")) < MIN_DECIDE_SAMPLES:
        decide_passes(cases)

    per_case = [decide(policy, case) for case in suite.cases]
    n_cases = len(per_case)
    stage_of = {case.case_id: trace.stages[-1].stage.value for case, (_, trace) in zip(suite.cases, per_case)}
    mix = _stage_mix(trace for _, trace in per_case)
    decide_by_stage: dict[str, list[float]] = {stage: [] for stage in STAGES}
    for name, start, end, _, case_id, scale in tracer.spans:
        if name == "engine.decide":
            decide_by_stage[stage_of[case_id]].append((end - start) * scale / 1e3)
    decide_us = [d / 1e3 for d in tracer.durations("engine.decide")]

    def span_median(name: str, per_ns: float) -> tuple[float, int]:
        values = tracer.durations(name)
        return median(values) / per_ns, len(values)

    nodes = sum(_nodes(cond) for cond in conditions)
    per_node, evaluated_cases = span_median("condition.evaluate", nodes)
    interpreter_ms, starts = span_median("cli.interpreter", 1e6)
    run_suite_ms, suites = span_median("evaluation.run_suite", 1e6)
    untraced = median(untraced_ns)
    metrics = {
        "dsl.parse_policy_ms": span_median("dsl.parse_policy", 1e6),
        "dsl.policy_kb": (len(work.policy_text.encode("utf-8")) / 1024, 1),
        "policy.validate_ms": span_median("policy.validate_policy", 1e6),
        "policy.hash_ms": span_median("policy.policy_hash", 1e6),
        "suite.parse_ms": span_median("suite.parse_suite", 1e6),
        "suite.bind_ms": span_median("suite.bind_suite", 1e6),
        "suite.hash_ms": span_median("suite.suite_hash", 1e6),
        "suite.cases": (n_cases, 1),
        "engine.decide_us.p50": (percentile(decide_us, 50), len(decide_us)),
        "engine.decide_us.p99": (percentile(decide_us, 99), len(decide_us)),
        "engine.assess_inputs_us": span_median("engine.assess_inputs", 1e3),
        "engine.verdicts_per_case": (
            sum(len(record.evaluated) for _, trace in per_case for record in trace.stages) / n_cases,
            n_cases,
        ),
        "condition.evaluate_ns_per_node": (per_node, evaluated_cases),
        "condition.nodes": (nodes, 1),
        "condition.evaluations": (len(conditions) * n_cases, 1),
        "model.serialize_us": span_median("model.canonical_serialize", 1e3),
        "canon.bytes_per_case": (
            sum(len(canonical_serialize(output)) + len(canonical_serialize(trace)) for output, trace in per_case)
            / n_cases,
            n_cases,
        ),
        "evaluation.run_suite_ms": (run_suite_ms, suites),
        "evaluation.overhead_ms": (run_suite_ms - 3 * median(busy_ns) / 1e6, suites),
        "evaluation.failed_share": (checks.failed / checks.attempted, checks.attempted),
        "cli.interpreter_ms": (interpreter_ms, starts),
        "cli.import_ms": (span_median("cli.import", 1e6)[0] - interpreter_ms, starts),
        "cli.evaluate_ms": span_median("cli.evaluate", 1e6),
        "trace.overhead_pct": ((median(traced_ns) - untraced) / untraced * 100, len(traced_ns)),
        "machine.calibration_ms": (median(speed.calibrations) / 1e6, len(speed.calibrations)),
    }
    for stage in STAGES:
        values = decide_by_stage[stage]
        # A stage no case ends at (possible only at smoke sizes) reads 0 from 0 samples.
        metrics[f"engine.decide_us.{stage}"] = (median(values) if values else 0.0, len(values))
        metrics[f"engine.terminal.{stage}"] = (mix[stage], n_cases)
    return Outcome(metrics, mix, rounds, self_times=tracer.self_times())
