"""Summarise benchmark result files across runs.

    python3 bench/summarize.py bench/out/*-trace0.json [--write bench/baseline.json]

For each workload, trace mode and metric: the median over runs, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread,
the interquartile range as a share of the median. Smoke runs are skipped.
``--write`` also stores the summary, with each run's seed, correctness,
canonical report digest and terminating-stage mix, as a baseline file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def summarize(paths: list[Path]) -> dict:
    groups: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for path in paths:
        result = json.loads(path.read_text(encoding="utf-8"))
        if result["size"] == "full":
            groups[(result["workload"], result["trace"])].append(result)
    summary: dict = {}
    for (workload, trace), results in sorted(groups.items()):
        results.sort(key=lambda r: r["seed"])
        metrics = {}
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            mid = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (mid, mid, mid)
            metrics[name] = {
                "unit": first["unit"],
                "median": mid,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / mid if mid else 0.0,
            }
        summary.setdefault(workload, {})[f"trace{trace}"] = {
            "runs": [
                {
                    "seed": r["seed"],
                    "correct": r["correct"],
                    "report_digests": r["report_digests"],
                    "stage_mix": r["stage_mix"],
                    "loadavg": [r["environment"]["loadavg_start"], r["environment"]["loadavg_end"]],
                }
                for r in results
            ],
            "environment": {k: results[0]["environment"][k] for k in ("python", "platform", "nproc", "usable_cpus")},
            "seconds": results[0]["seconds"],
            "metrics": metrics,
        }
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="+", type=Path, help="result files written by bench/run.py")
    parser.add_argument("--write", type=Path, help="also write the summary to this JSON file")
    args = parser.parse_args(argv)
    summary = summarize(args.results)
    for workload, modes in summary.items():
        for mode, entry in modes.items():
            correct = all(run["correct"] for run in entry["runs"])
            print(f"{workload} {mode}: {len(entry['runs'])} runs, all correct: {correct}")
            for name, m in entry["metrics"].items():
                print(
                    f"  {name:34} median {m['median']:>14.4f} {m['unit']:6}"
                    f" q1 {m['q1']:>12.4f} q3 {m['q3']:>12.4f} spread {m['spread']:.3f}"
                )
    if args.write:
        args.write.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
