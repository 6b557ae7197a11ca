"""Diagnostics shared by the policy and suite loaders.

A ``Diagnostic`` is a ``NamedTuple`` record. It never carries machine state
beyond the source location: output must stay byte-stable across runs. The
text rendering is the single line format emitted on standard error by the
command line tools:

    LEVEL code line:col message
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

__all__ = ["Severity", "Diagnostic", "has_errors"]


class Severity(str, Enum):
    ERROR = "error"
    WARNING = "warning"


class Diagnostic(NamedTuple):
    severity: Severity
    code: str
    message: str
    line: int = 0  # 0 when no source location applies (e.g. semantic checks on JSON)
    col: int = 0

    def render(self) -> str:
        return f"{self.severity.value.upper()} {self.code} {self.line}:{self.col} {self.message}"


def has_errors(diags: list[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diags)
