"""Rewrite ``tests/golden.json``, the golden decision corpus.

Run from the root of a checkout: ``PYTHONPATH=src python tests/write_golden.py``.

Each corpus is a generated policy and suite. For each, the file pins:

- ``text``: the generated policy and suite texts, so generator drift shows
  apart from engine drift;
- ``policy_hash`` and ``suite_hash``;
- ``cold``: every case's canonical output and trace, in case-id order, on a
  freshly built policy;
- ``shuffled``: the same in an order fixed by the case ids' digests, on
  another fresh policy whose memos keep at most two entries each.

The corpora are the reference policy and suite, rule_heavy and
intake_screen (``bench/generate.py``) at seeds 5, 7 and 11 at full size,
and the every-kind policy and cases of ``tests/oracle.py`` at the same
seeds. ``tests/test_golden.py`` recomputes every digest and compares. A
change that rewrites the file must say why.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, Iterable

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
GOLDEN = TESTS / "golden.json"
SEEDS = (5, 7, 11)
KIND_CASES = 400

# The checkout's sources come first, as in ``bench/test_bench.py``.
sys.path[:0] = [path for path in (str(ROOT / "src"), str(ROOT / "bench"), str(TESTS)) if path not in sys.path]

import generate  # noqa: E402
from oracle import kind_cases, make_kind_policy  # noqa: E402

import absgate.engine as engine  # noqa: E402
from absgate import decide, format_policy, parse_policy, parse_suite, policy_hash, suite_hash  # noqa: E402
from absgate.model import canonical_serialize  # noqa: E402
from absgate.suite import Suite, _suite_json  # noqa: E402


def _sha(parts: Iterable[bytes]) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
        digest.update(b"\n")
    return digest.hexdigest()


def _decisions(policy, cases) -> str:
    return _sha(part for case in cases for part in map(canonical_serialize, decide(policy, case)))


def _pin(text: str, fresh: Callable[[], object], suite: Suite) -> dict[str, str]:
    """The digests of one corpus; ``fresh`` builds a new, uncompiled policy."""
    policy = fresh()
    cases = suite.cases
    order = sorted(cases, key=lambda case: hashlib.sha256(case.case_id.encode("utf-8")).digest())
    pins = {
        "text": _sha([text.encode("utf-8")]),
        "policy_hash": policy_hash(policy),
        "suite_hash": suite_hash(suite),
        "cold": _decisions(policy, cases),
    }
    limit = engine._OUTPUT_MEMO_LIMIT
    engine._OUTPUT_MEMO_LIMIT = 2
    try:
        pins["shuffled"] = _decisions(fresh(), order)
    finally:
        engine._OUTPUT_MEMO_LIMIT = limit
    return pins


def _generated(name: str, seed: int) -> dict[str, str]:
    workload = generate.build(name, seed)
    suite, _ = parse_suite(workload.suite_text)
    assert suite is not None, name

    def fresh():
        policy, _ = parse_policy(workload.policy_text)
        assert policy is not None, name
        return policy

    return _pin(workload.policy_text + "\0" + workload.suite_text, fresh, suite)


def _kinds(seed: int) -> dict[str, str]:
    suite = Suite(f"kinds_{seed}", "v1", ("generated",), tuple(kind_cases(seed, KIND_CASES)))
    return _pin(format_policy(make_kind_policy(seed)) + "\0" + _suite_json(suite), lambda: make_kind_policy(seed), suite)


def corpus() -> dict[str, dict[str, str]]:
    """Every corpus's digests, by corpus name."""
    pins = {"reference": _generated("reference", 0)}
    for seed in SEEDS:
        pins[f"rule_heavy:{seed}"] = _generated("rule_heavy", seed)
        pins[f"intake_screen:{seed}"] = _generated("intake_screen", seed)
        pins[f"kinds:{seed}"] = _kinds(seed)
    return pins


def main() -> None:
    GOLDEN.write_text(json.dumps(corpus(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
