"""Measurement helpers shared by every workload (stdlib only).

* **Reference scaling.**  The machine this benchmark runs on changes
  speed from minute to minute (shared cores), and CPU time tracks wall
  time, so the drift is in the processor, not in scheduling.  A fixed
  small-object workload owned by the benchmark (the reference loop) is
  timed around every measured item, and a time is reported as
  ``measured * (nominal / reference) ** REF_ELASTICITY``: in seconds of
  a machine on which the loop takes its nominal time.  Both sides of a
  comparison run the same loop, so a program gain shows through
  unchanged while machine drift divides out.
* **Nearest-rank percentiles** over raw samples (no interpolation).
* **Spans** with self time, kept in memory and written once.
* **Process accounting** from ``/proc``: peak RSS and CPU seconds.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

#: Points of one reference chunk, and the chunk's nominal time.
REF_POINTS = 6000
REF_NOMINAL_S = 0.005
#: Chunks timed per reference reading (the median is used).
REF_CHUNKS = 5
#: Set-up samples per run (fresh processes); ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: How much the program slows, in log terms, when the loop does.  The
#: loop does what the program does most (tuple keys, dict inserts,
#: float math, a sort), and over 10 runs that straddled slow and fast
#: spells of the 2-core box this was tuned on, log(time) followed
#: log(reference) with slope 1.08 for paper_cells and 1.06 for
#: bulk_routes.  A tight integer loop, tried first, needed an exponent
#: of 1.4-1.8 and left twice the spread.
REF_ELASTICITY = 1.0


def reference_chunk(points: int = REF_POINTS) -> float:
    """Seconds one pass of the fixed reference loop takes right now."""
    started = time.perf_counter()
    table = {}
    for i in range(points):
        point = (i * 7 % 1013, i * 13 % 997)
        table[point] = math.hypot(point[0] - 500, point[1] - 500)
    order = sorted(table, key=table.__getitem__)
    total = sum(table[p] for p in order[:100])
    elapsed = time.perf_counter() - started
    if total < 0:  # never true; keeps the loop's result live
        raise AssertionError
    return elapsed


def reference_reading(chunks: int = REF_CHUNKS) -> float:
    """Median chunk time over a few back-to-back chunks (seconds)."""
    return statistics.median(reference_chunk() for _ in range(chunks))


def scaled(
    measured_s: float,
    reference_s: float,
    elasticity: float = REF_ELASTICITY,
) -> float:
    """``measured_s`` in reference seconds (see the module docstring)."""
    if reference_s <= 0:
        raise ValueError("reference time must be positive")
    return measured_s * (REF_NOMINAL_S / reference_s) ** elasticity


class Drift:
    """Reference readings taken around measured items.

    ``time(fn)`` reads the reference before and after ``fn`` and
    returns ``(result, raw_s, scaled_s, reference_s)``, where the
    reference is the mean of the two readings.  Every reading is kept
    for the run's detail output.
    """

    def __init__(self) -> None:
        self.readings: list[float] = []
        self._last: float | None = None

    def reading(self) -> float:
        value = reference_reading()
        self.readings.append(value)
        self._last = value
        return value

    def time(self, fn, *args):
        before = self._last if self._last is not None else self.reading()
        started = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - started
        after = self.reading()
        reference = (before + after) / 2
        return result, raw, scaled(raw, reference), reference


def nearest_rank(values, p: float) -> float:
    """The nearest-rank ``p``-th percentile (0 < p <= 100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    if not 0 < p <= 100:
        raise ValueError("p must be in (0, 100]")
    rank = math.ceil(p / 100 * len(ordered))
    return ordered[rank - 1]


class Tracer:
    """Spans and counts recorded from the benchmark's own files.

    A span has a name, start, end, parent span and the id of the
    network or request it belongs to.  Spans nest through an explicit
    stack (the benchmark traces one thread).  Nothing is written until
    :meth:`write`.
    """

    recording = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, item=None):
        record = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "item": item,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value, item=None) -> None:
        self.counts.append({"name": name, "value": value, "item": item})

    def write(self, path: Path, **summary) -> None:
        spans = with_self_time(self.spans)
        document = {"summary": summary, "spans": spans, "counts": self.counts}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, indent=1), encoding="utf-8")


class NullTracer:
    """The tracer of an untraced run: spans and counts cost nothing."""

    recording = False

    @contextmanager
    def span(self, name: str, item=None):
        yield None

    def count(self, name: str, value, item=None) -> None:
        pass


def with_self_time(spans: list[dict]) -> list[dict]:
    """Copies of ``spans`` with ``duration`` and ``self`` (seconds).

    Self time is the span's duration minus the part of its interval
    covered by its child spans (overlapping children count once).
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    out = []
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(span["id"], ())):
            lo = max(child_start, reach)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, min(child_end, end))
        out.append(
            dict(span, duration=end - start, self=(end - start) - covered)
        )
    return out


def peak_rss_mb(pid: int | str = "self") -> float:
    """High-water resident set size of a live process, in MiB."""
    status = Path(f"/proc/{pid}/status").read_text(encoding="ascii")
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def cpu_seconds(pid: int | str = "self") -> float:
    """User plus system CPU seconds a live process has used."""
    stat = Path(f"/proc/{pid}/stat").read_text(encoding="ascii")
    fields = stat.rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / os.sysconf("SC_CLK_TCK")
