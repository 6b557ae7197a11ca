"""Measure the first pass over a fresh policy: what one ``absgate evaluate`` pays once.

Run from the root of a checkout:

    PYTHONPATH=src python tests/first_pass.py [--workload W ...] [--seed N ...] [--repeat N]

Every ``absgate evaluate`` parses its policy afresh, so its first pass over
the suite compiles the stage programs (``engine._compiled``) and builds
every memo entry; the later passes only look entries up. Per workload
(``bench/generate.py``, full size) and seed, this script prints:

- the medians of ``--repeat`` alternating triples of the bench's
  ``evaluate_suite`` (``run_suite(runs=3)`` and the report's canonical
  bytes) on a *fresh* policy (a copy with nothing compiled), a *compiled*
  one (programs built, memos empty) and a *warm* one (memos full). So
  fresh minus compiled is the compile cost, compiled minus warm the entry
  builds and first encodings, and fresh minus warm the whole first pass,
  each also as a share of the fresh time;
- per memo, the builds of one pass over the suite and their self time
  (nested builds, such as an abstention built inside a stage entry, count
  for their own memo only), measured by wrapping each memo's ``build`` on
  a private compiled copy of the policy, with the entries it kept;
- how many abstentions the output memo built that no decision of that
  pass returned.

The numbers are timings on the machine at hand; nothing here is pinned.
"""

from __future__ import annotations

import argparse
import copy
import gc
import sys
import time
from pathlib import Path
from statistics import median

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent

# The checkout's sources come first, as in ``tests/write_golden.py``.
sys.path[:0] = [path for path in (str(ROOT / "src"), str(ROOT / "bench")) if path not in sys.path]

import generate  # noqa: E402

import absgate.engine as engine  # noqa: E402
from absgate import bind_suite, decide, parse_policy, parse_suite, run_suite  # noqa: E402
from absgate.canon import canonical_bytes  # noqa: E402

WORKLOADS = ("reference", "rule_heavy", "intake_screen")


def _evaluate_s(policy, suite) -> float:
    """Seconds of one ``evaluate_suite`` as ``bench/harness.py`` times it."""
    gc.collect()
    start = time.perf_counter()
    canonical_bytes(run_suite(policy, suite, runs=3).to_canonical())
    return time.perf_counter() - start


def _triples(policy, suite, repeat: int) -> dict[str, float]:
    """Median seconds of ``evaluate_suite`` on fresh, compiled and warm policies."""
    warm = copy.copy(policy)
    run_suite(warm, suite, runs=1)
    times: dict[str, list[float]] = {"fresh": [], "compiled": [], "warm": []}
    for _ in range(repeat):
        times["fresh"].append(_evaluate_s(copy.copy(policy), suite))
        compiled = copy.copy(policy)
        engine._compiled(compiled)
        times["compiled"].append(_evaluate_s(compiled, suite))
        times["warm"].append(_evaluate_s(warm, suite))
    return {name: median(values) for name, values in times.items()}


def _builds(policy, suite) -> tuple[dict[str, tuple[int, float, int]], int]:
    """Per memo of a private compiled copy, ``(builds, self seconds, entries)``
    over one pass in case-id order; and the abstentions built that no
    decision of the pass returned."""
    gc.collect()
    private = copy.copy(policy)
    compiled = engine._compiled(private)
    counts: dict[str, list] = {}
    # Seconds spent in nested builds, one accumulator per open build.
    nested: list[float] = []

    def wrap(name: str, memo) -> None:
        build = memo.build
        tally = counts[name] = [0, 0.0, memo]

        def timed(key):
            nested.append(0.0)
            start = time.perf_counter()
            try:
                return build(key)
            finally:
                taken = time.perf_counter() - start
                inner = nested.pop()
                tally[0] += 1
                tally[1] += taken - inner
                if nested:
                    nested[-1] += taken

        memo.build = timed

    for name, value in compiled._asdict().items():
        if isinstance(value, engine._Memo):
            wrap(name, value)
    returned = {id(decide(private, case)[0]) for case in suite.cases}
    unreturned = sum(id(output) not in returned for output in compiled.outputs.values())
    return {name: (builds, seconds, len(memo)) for name, (builds, seconds, memo) in counts.items()}, unreturned


def report(name: str, seed: int, repeat: int) -> None:
    work = generate.build(name, seed)
    policy, _ = parse_policy(work.policy_text)
    suite, _ = parse_suite(work.suite_text)
    assert policy is not None and suite is not None, name
    bind_suite(suite, policy)
    # Untimed: imports and lazy set-up outside the policy.
    run_suite(copy.copy(policy), suite, runs=1)

    medians = _triples(policy, suite, repeat)
    fresh, compiled, warm = medians["fresh"], medians["compiled"], medians["warm"]
    print(f"{name} seed {seed}: {len(suite.cases)} cases, medians of {repeat} triples")
    print(f"  evaluate_suite ms: fresh {fresh * 1e3:.3f}  compiled {compiled * 1e3:.3f}  warm {warm * 1e3:.3f}")
    print(
        f"  share of fresh: compile {(fresh - compiled) / fresh:.1%}  builds {(compiled - warm) / fresh:.1%}"
        f"  first pass {(fresh - warm) / fresh:.1%}"
    )
    passes = [_builds(policy, suite) for _ in range(max(1, repeat // 10))]
    builds, unreturned = passes[0]
    print(f"  per memo, one pass (self time: median of {len(passes)} passes on fresh copies):")
    for memo, (count, _, entries) in builds.items():
        seconds = median(tallies[memo][1] for tallies, _ in passes)
        print(f"  {memo:<21} builds {count:>5}  self {seconds * 1e6:>9.1f} us  entries {entries:>5}")
    print(f"  abstentions built that no decision returned: {unreturned}")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS, help="default: all three")
    parser.add_argument("--seed", type=int, action="append", help="default: 7")
    parser.add_argument("--repeat", type=int, default=301, help="triples per workload and seed (default 301)")
    args = parser.parse_args(argv)
    for seed in args.seed or [7]:
        for name in args.workload or WORKLOADS:
            report(name, seed, args.repeat)


if __name__ == "__main__":
    main()
