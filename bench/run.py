"""absgate benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout, with the standard library only:

    python3 bench/run.py --workload rule_heavy --seed 7 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
is the separate traced run: it reports the per-layer metrics, writes every
span and prints span self times and the tracing overhead. ``--smoke``
shrinks the workloads so a run takes seconds. The workloads and metrics are
defined in ``bench/spec.json``, together with which end-to-end metric each
per-layer metric should move on which workload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result,
with sample counts, the environment and the terminating-stage mix, goes to
``bench/out/<workload>-seed<seed>-trace<0|1>.json``. The exit code is 0 when
every output was correct, 1 when one was not, and 2 when the checkout holds
no absgate source to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SPEC = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True, help="workload seed; the same seed gives the same inputs")
    parser.add_argument("--seconds", type=int, default=35, help="time budget of the measured rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 for the traced per-layer run")
    parser.add_argument("--smoke", action="store_true", help="tiny workloads, one round: an end-to-end check in seconds")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "seed": seed,
    }


def _check_digest(key: str, digests: set[str], problems: list[str]) -> None:
    """The canonical report for one set of inputs must never change between runs.

    The key names the workload, seed and size, and the digest of the
    generated inputs, so a change to the generator starts a new entry.
    """
    store = OUT / "report_digests.json"
    known = json.loads(store.read_text(encoding="utf-8")) if store.exists() else {}
    for digest in sorted(digests):
        if known.setdefault(key, digest) != digest:
            problems.append(f"canonical report digest for {key} changed: {known[key]} then {digest}")
    store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    missing = [p for p in ("src/absgate/__init__.py", "tests/oracle.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: {ROOT} is not an absgate checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from measure import REFERENCE_CALIBRATION_NS, Tracer, loadavg, median

    import generate
    import harness

    started = time.perf_counter()
    environment = _environment(args.seed)
    environment["loadavg_start"] = loadavg()
    work = generate.build(args.workload, args.seed, smoke=args.smoke)
    workdir = OUT / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    files = harness.Files(workdir / "policy.policy", workdir / "suite.json", workdir / "report.json", workdir / "cli.log")
    files.policy.write_text(work.policy_text, encoding="utf-8")
    files.suite.write_text(work.suite_text, encoding="utf-8")
    cli = harness.Cli(files, ROOT / "src")
    checks = harness.Checks()
    tracer = Tracer()
    if args.trace:
        outcome = harness.run_traced(work, args.seconds, args.smoke, args.seed, cli, checks, tracer)
    else:
        outcome = harness.run_end_to_end(work, args.seconds, args.smoke, args.seed, cli, checks)
    environment["loadavg_end"] = loadavg()
    size = "smoke" if args.smoke else "full"
    inputs = hashlib.sha256((work.policy_text + work.suite_text).encode("utf-8")).hexdigest()[:16]
    _check_digest(f"{args.workload}:{args.seed}:{size}:{inputs}", checks.report_digests, checks.problems)

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    metrics = {name: {"value": outcome.metrics[name][0], "unit": unit} for name, unit in units.items()}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": size,
        "environment": environment,
        "rounds": outcome.rounds,
        "wall_s": time.perf_counter() - started,
        "stage_mix": outcome.stage_mix,
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "problems": checks.problems,
        "report_digests": sorted(checks.report_digests),
        "metrics": {name: dict(m, samples=outcome.metrics[name][1]) for name, m in metrics.items()},
        "round_series": outcome.series,
        "span_self_times": outcome.self_times,
    }
    if args.trace:
        tracer.write(OUT / f"{stem}-spans.json")
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} size {size} rounds {outcome.rounds}")
    print(
        f"python {environment['python']} nproc {environment['nproc']}"
        f" loadavg {environment['loadavg_start']} -> {environment['loadavg_end']}"
    )
    print("stages " + " ".join(f"{stage}={count}" for stage, count in outcome.stage_mix.items()))
    for name, m in result["metrics"].items():
        print(f"{name:34} {m['value']:>14.4f} {m['unit']:6} n={m['samples']}")
    if "calibration_ms" in outcome.series:
        unscaled = " ".join(
            f"{name[: -len('_unscaled')]}={median(values):.4f}"
            for name, values in outcome.series.items()
            if name.endswith("_unscaled")
        )
        print(
            f"times are scaled to a {REFERENCE_CALIBRATION_NS / 1e6:.1f} ms calibration unit"
            f" (measured median {median(outcome.series['calibration_ms']):.3f} ms); unscaled medians {unscaled}"
        )
    if args.trace:
        print("span                              count   total_ms    self_ms")
        for name, row in sorted(outcome.self_times.items(), key=lambda item: -item[1]["self_ms"]):
            print(f"{name:32} {row['count']:>6} {row['total_ms']:>10.1f} {row['self_ms']:>10.1f}")
    for problem in checks.problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    print(json.dumps({"correct": checks.correct, "attempted": checks.attempted, "failed": checks.failed, "metrics": metrics}))
    return 0 if checks.correct else 1


if __name__ == "__main__":
    sys.exit(main())
