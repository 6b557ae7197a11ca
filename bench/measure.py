"""Timing helpers for the benchmark: statistics, spans and child processes.

Nothing here imports absgate, so the helpers measure the program only from
outside, around its public calls.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median  # noqa: F401 -- shared with the other benchmark modules
from typing import Any, Sequence


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with ``pct``% at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100 * len(ordered))) - 1]


# Times are reported at a reference machine speed: each is multiplied by
# this constant over the calibration time measured beside it, so where one
# calibration unit takes 4 ms a reported time is wall time.
REFERENCE_CALIBRATION_NS = 4_000_000


@dataclass(frozen=True)
class _Row:
    key: str
    rank: int
    tags: tuple[str, ...]


_KEY_RE = re.compile(r"^[a-z][a-z0-9_]*$")


def _walk(node: Any) -> int:
    if isinstance(node, dict):
        return sum(_walk(value) for value in node.values())
    if isinstance(node, list):
        return sum(_walk(item) for item in node)
    return 1


def _calibration_unit() -> int:
    # The kinds of work the program does, without the program: frozen
    # dataclasses, regex checks, isinstance walks and sorted-key JSON.
    start = time.perf_counter_ns()
    rows = [_Row(f"r{i:04d}", i * 7 % 13, (f"t{i % 5}", f"u{i % 3}")) for i in range(500)]
    rows = [row for row in rows if _KEY_RE.match(row.key)]
    rows.sort(key=lambda row: (row.rank, row.key))
    tree = [{"key": row.key, "rank": row.rank, "tags": list(row.tags)} for row in rows]
    _walk(tree)
    _walk(json.loads(json.dumps(tree, sort_keys=True, separators=(",", ":"))))
    return time.perf_counter_ns() - start


def calibration_ns() -> int:
    """Time of one fixed unit of work that never touches absgate.

    It tracks how fast this process runs Python at the moment. The fastest
    of three tries is kept, because one try is often slowed by a cold cache
    or a preemption.
    """
    return min(_calibration_unit() for _ in range(3))


class Speedometer:
    """Calibrates between measured phases to scale out machine speed drift.

    A shared machine can run a third slower for tens of seconds at a time,
    far more than the program changes worth catching. Each measured phase,
    a child process included, is multiplied by the reference calibration
    time over the mean of the calibrations taken just before and after it.
    """

    def __init__(self) -> None:
        self.calibrations = [calibration_ns()]

    def scale(self) -> float:
        """The factor for the phase that just ended; also opens the next phase."""
        self.calibrations.append(calibration_ns())
        return 2 * REFERENCE_CALIBRATION_NS / (self.calibrations[-2] + self.calibrations[-1])


def loadavg() -> list[float]:
    """The 1, 5 and 15 minute load averages, or [] where /proc is absent."""
    try:
        return [float(part) for part in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return []


class Tracer:
    """Spans kept in memory and written out once, when the run ends.

    A span is ``[name, start_ns, end_ns, parent_index, case_id, scale]``;
    the parent is the span open when it began (-1 at the root) and ``scale``
    is the speed factor of its phase (see ``Speedometer``). Durations read
    from the tracer include the scale.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str, case_id: str | None = None) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, time.perf_counter_ns(), 0, parent, case_id, 1.0])

    def end(self) -> int:
        """Close the innermost open span; returns its unscaled duration in ns."""
        span = self.spans[self._open.pop()]
        span[2] = time.perf_counter_ns()
        return span[2] - span[1]

    def rescale(self, first: int, factor: float) -> None:
        """Give the spans from index ``first`` on the speed factor of their phase."""
        for span in self.spans[first:]:
            span[5] = factor

    def durations(self, name: str) -> list[float]:
        return [(end - start) * scale for span_name, start, end, _, _, scale in self.spans if span_name == name]

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total and self time (total minus child spans), in ms."""
        child_ns = [0.0] * len(self.spans)
        for _, start, end, parent, _, scale in self.spans:
            if parent >= 0:
                child_ns[parent] += (end - start) * scale
        table: dict[str, dict[str, float]] = {}
        for index, (name, start, end, _, _, scale) in enumerate(self.spans):
            row = table.setdefault(name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["count"] += 1
            row["total_ms"] += (end - start) * scale / 1e6
            row["self_ms"] += ((end - start) * scale - child_ns[index]) / 1e6
        return table

    def write(self, path: Path) -> None:
        fields = ("name", "start_ns", "end_ns", "parent", "case_id", "scale")
        path.write_text(json.dumps([dict(zip(fields, span)) for span in self.spans]) + "\n", encoding="utf-8")


class NullTracer(Tracer):
    """Tracing off: the same calls, nothing recorded."""

    def begin(self, name: str, case_id: str | None = None) -> None:
        pass

    def end(self) -> int:
        return 0


def run_child(argv: Sequence[str], env: dict[str, str], log: Path) -> tuple[int, float, int]:
    """Run ``argv`` to completion; returns (exit code, wall seconds, peak RSS KiB).

    The child is reaped with ``wait4`` so its own peak resident set is read
    from its rusage, not the maximum over every child this process had.
    """
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss
