"""Packaged reference policy and case suite.

These fixtures ship with the package so the behavioral evaluation is
reproducible from a clean install: a five-class empiric-therapy policy and
a hand-expected suite that exercises every abstention category, the
stewardship gates, and the recommendation paths.
"""

from __future__ import annotations

from .dsl import parse_policy
from .policy import Policy
from .suite import Suite, parse_suite

__all__ = [
    "reference_policy_text",
    "reference_suite_text",
    "load_reference_policy",
    "load_reference_suite",
]


def _read(name: str) -> str:
    from importlib import resources  # here: it loads zipfile and tempfile, which start-up need not pay for
    return resources.files("absgate.data").joinpath(name).read_text(encoding="utf-8")


def reference_policy_text() -> str:
    return _read("reference.policy")


def reference_suite_text() -> str:
    return _read("reference_suite.json")


def load_reference_policy() -> Policy:
    policy, diags = parse_policy(reference_policy_text())
    if policy is None:
        raise RuntimeError(f"packaged reference policy failed to parse: {[d.render() for d in diags]}")
    return policy


def load_reference_suite() -> Suite:
    suite, diags = parse_suite(reference_suite_text())
    if suite is None:
        raise RuntimeError(f"packaged reference suite failed to parse: {[d.render() for d in diags]}")
    return suite
