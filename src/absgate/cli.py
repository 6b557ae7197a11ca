"""Command line front end.

Subcommands:

* ``decide``    run one case through a policy and print the outcome
* ``evaluate``  run a whole suite and print a behavioral summary
* ``validate``  parse and check a policy, printing diagnostics
* ``hash``      print the canonical digest of a policy or suite

Exit codes: 0 on success (an abstention is a successful outcome), 1 when
``evaluate --strict`` finds a behavioral mismatch or a determinism failure,
2 on usage, parse, binding, unreadable-file or unwritable-report errors,
and when stdout is closed before all output is written (as ``| head`` does).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Sequence

from . import __version__
from .canon import canonical_bytes
from .diagnostics import Diagnostic, has_errors
from .dsl import parse_policy
from .engine import decide
from .evaluation import EvaluationReport, render_ratio, run_suite
from .model import MatchLevel, canonical_serialize
from .policy import Policy, policy_hash, validate_policy
from .suite import Suite, bind_suite, parse_suite, suite_hash

__all__ = ["main"]


def _emit(diags: Sequence[Diagnostic]) -> None:
    for diag in diags:
        print(diag.render(), file=sys.stderr)


def _read_text(path: str) -> str | None:
    # As written: newline translation would end a line at a lone "\r".
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"ERROR unreadable_file 0:0 {path}: {exc}", file=sys.stderr)
        return None


def _load_policy(path: str) -> Policy | None:
    text = _read_text(path)
    if text is None:
        return None
    policy, diags = parse_policy(text)
    if policy is not None:
        diags = list(diags) + validate_policy(policy)
    _emit(diags)
    if policy is None or has_errors(diags):
        return None
    return policy


def _load_suite(path: str, policy: Policy | None) -> Suite | None:
    text = _read_text(path)
    if text is None:
        return None
    suite, diags = parse_suite(text)
    if suite is not None and policy is not None:
        diags = list(diags) + bind_suite(suite, policy)
    _emit(diags)
    if suite is None or has_errors(diags):
        return None
    return suite


def _cmd_decide(args: argparse.Namespace) -> int:
    policy = _load_policy(args.policy)
    if policy is None:
        return 2
    suite = _load_suite(args.suite, policy)
    if suite is None:
        return 2
    case = suite.case(args.case_id)
    if case is None:
        print(f"ERROR unknown_case 0:0 no case named {args.case_id!r} in {args.suite}", file=sys.stderr)
        return 2
    output, trace = decide(policy, case)
    print(output.render_line())
    if args.trace:
        print(canonical_serialize(trace).decode("utf-8"))
    return 0


def _summarize(report: EvaluationReport) -> None:
    total = len(report.results)
    print(f"policy sha256:{report.policy_digest}")
    print(f"suite sha256:{report.suite_digest}")
    print(
        f"cases {total}"
        f" concordance_action {render_ratio(report.concordance_action)}"
        f" concordance_full {render_ratio(report.concordance_full)}"
    )
    dist = " ".join(f"{name}={count}" for name, count in sorted(report.distribution.items()))
    print(f"abstentions {dist}")
    for mechanism in sorted(report.coverage):
        print(f"coverage {mechanism} {render_ratio(report.coverage[mechanism])}")
    failed = [f for f in report.stewardship_findings if not f.passed]
    if failed:
        print(f"stewardship FAIL ({len(failed)} of {len(report.stewardship_findings)} checks failed)")
        for finding in failed:
            print(f"  {finding.case_id} {finding.check} {finding.detail}")
    else:
        print(f"stewardship pass ({len(report.stewardship_findings)} checks)")
    if report.run_count == 1:
        print("determinism runs=1 (determinism not exercised)")
    else:
        print(f"determinism {'ok' if report.determinism_ok else 'FAIL'} runs={report.run_count}")
    for result in report.results:
        if result.match is not MatchLevel.FULL:
            expected = canonical_bytes(result.expected.to_canonical()).decode("utf-8")
            print(
                f"mismatch {result.case_id} level={result.match.value}"
                f" expected {expected} actual [{result.actual.render_line()}]"
            )


def _cmd_evaluate(args: argparse.Namespace) -> int:
    policy = _load_policy(args.policy)
    if policy is None:
        return 2
    suite = _load_suite(args.suite, policy)
    if suite is None:
        return 2
    report = run_suite(policy, suite, runs=args.runs)
    if args.report is not None:
        try:
            Path(args.report).write_bytes(canonical_bytes(report.to_canonical()) + b"\n")
        except OSError as exc:
            print(f"ERROR unwritable_file 0:0 {args.report}: {exc}", file=sys.stderr)
            return 2
    _summarize(report)
    if args.strict:
        full = all(r.match is MatchLevel.FULL for r in report.results)
        determinism = report.determinism_ok or report.run_count == 1
        if not (full and determinism and report.all_stewardship_pass()):
            return 1
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    policy = _load_policy(args.policy)
    if policy is None:
        return 2
    print(f"ok {policy.policy_id} {policy.version} sha256:{policy_hash(policy)}")
    return 0


def _cmd_hash(args: argparse.Namespace) -> int:
    if args.policy is not None:
        policy = _load_policy(args.policy)
        if policy is None:
            return 2
        print(f"sha256:{policy_hash(policy)}")
        return 0
    suite = _load_suite(args.suite, None)
    if suite is None:
        return 2
    print(f"sha256:{suite_hash(suite)}")
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="absgate",
        description="Deterministic empiric-therapy recommendations with typed abstention.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_decide = sub.add_parser("decide", help="run one case through a policy")
    p_decide.add_argument("--policy", required=True, help="policy file")
    p_decide.add_argument("--suite", required=True, help="suite file holding the case")
    p_decide.add_argument("--case-id", required=True, help="case to run")
    p_decide.add_argument("--trace", action="store_true", help="also print the audit trace as JSON")
    p_decide.set_defaults(handler=_cmd_decide)

    p_eval = sub.add_parser("evaluate", help="run a suite and summarize behavior")
    p_eval.add_argument("--policy", required=True, help="policy file")
    p_eval.add_argument("--suite", required=True, help="suite file")
    p_eval.add_argument("--runs", type=_positive_int, default=3, help="repeat count for the determinism check (default 3)")
    p_eval.add_argument("--report", help="write the canonical JSON report to this path")
    p_eval.add_argument("--strict", action="store_true", help="exit 1 unless every case fully matches, every stewardship check passes, and runs agree")
    p_eval.set_defaults(handler=_cmd_evaluate)

    p_validate = sub.add_parser("validate", help="check a policy and print diagnostics")
    p_validate.add_argument("--policy", required=True, help="policy file")
    p_validate.set_defaults(handler=_cmd_validate)

    p_hash = sub.add_parser("hash", help="print a canonical sha256 digest")
    group = p_hash.add_mutually_exclusive_group(required=True)
    group.add_argument("--policy", help="policy file")
    group.add_argument("--suite", help="suite file")
    p_hash.set_defaults(handler=_cmd_hash)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
    except BrokenPipeError:  # the reader left early; devnull takes the flush at exit (``signal`` docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
