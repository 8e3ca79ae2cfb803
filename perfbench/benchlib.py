"""Measurement logic of the end-to-end benchmark, free of the package.

Everything here is plain Python over numbers, strings and files, so the
self-tests (``test_benchlib.py``) run without building or simulating
anything:

- :class:`Tracer` keeps spans in memory (name, start, end, parent, run or
  job id), per thread, and derives self time, per-layer totals and the
  share of traced wall that no layer span covers;
- :func:`tail_percentile` picks the highest percentile of a fixed ladder
  that still has at least ten samples beyond it;
- :class:`Tally` counts operations attempted and failed;
- :func:`check_tables` byte-compares rendered tables with their goldens;
- :func:`counter_drift` flags deterministic work counters that changed
  between runs of the same code;
- :func:`peak_rss_mb` and :func:`code_fingerprint` are the host probes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import resource
import statistics
import threading
import time
from collections.abc import Callable, Iterable, Iterator, Sequence
from pathlib import Path

#: Percentiles :func:`tail_percentile` may report, lowest first.
TAIL_LADDER: tuple[float, ...] = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10


# -- statistics --------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def nearest_rank(ordered: Sequence[float], p: float) -> tuple[float, int]:
    """Nearest-rank ``p``-th percentile of sorted values, and its 1-based rank."""
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1], rank


@dataclasses.dataclass(frozen=True)
class Tail:
    """A tail latency: its percentile, value and the samples behind it."""

    percentile: float
    value: float
    samples: int
    beyond: int


def tail_percentile(
    values: Sequence[float],
    ladder: Sequence[float] = TAIL_LADDER,
    min_beyond: int = TAIL_MIN_BEYOND,
) -> Tail:
    """The highest ladder percentile with at least ``min_beyond`` samples
    strictly beyond its nearest rank.

    Raises ``ValueError`` when even the lowest rung has too few samples
    beyond it: a tail read from fewer is a single outlier, not a tail.
    """
    ordered = sorted(values)
    best = None
    for p in ladder:
        value, rank = nearest_rank(ordered, p)
        beyond = len(ordered) - rank
        if beyond >= min_beyond:
            best = Tail(p, value, len(ordered), beyond)
    if best is None:
        raise ValueError(
            f"{len(ordered)} samples leave fewer than {min_beyond} beyond "
            f"the p{ladder[0]:g}"
        )
    return best


# -- tracing -----------------------------------------------------------------


@dataclasses.dataclass
class Span:
    """One timed call into a layer (or a structural span around several)."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


class Tracer:
    """In-memory span recorder, safe to use from several threads.

    Each thread nests its own spans; a span's parent is the innermost span
    open on the same thread, and a span without an explicit ``run_id``
    inherits its parent's.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(
        self, name: str, run_id: str | None = None, parent: Span | None = None
    ) -> Iterator[Span]:
        """Time the ``with`` body.  ``parent`` attaches the first span of a
        new thread under a span opened by another thread."""
        stack = self._stack()
        parent_id = parent.id if parent is not None else (stack[-1] if stack else None)
        if run_id is None and parent_id is not None:
            run_id = self.spans[parent_id].run_id
        with self._lock:
            record = Span(
                len(self.spans), name, self.clock(), math.nan, parent_id, run_id
            )
            self.spans.append(record)
        stack.append(record.id)
        try:
            yield record
        finally:
            record.end = self.clock()
            stack.pop()

    def self_time(self, span: Span, children: Iterable[Span] | None = None) -> float:
        """The span's duration minus the part its children cover."""
        if children is None:
            children = (s for s in self.spans if s.parent == span.id)
        covered = union_length(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children
            if c.end > span.start and c.start < span.end
        )
        return span.duration - covered

    def layer_self_times(self) -> dict[str, float]:
        """Sum of self time per span name."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        totals: dict[str, float] = {}
        for span in self.spans:
            own = self.self_time(span, children.get(span.id, ()))
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def uncovered_share(self, is_layer: Callable[[str], bool]) -> float:
        """Share of the root spans' wall that no layer span covers."""
        wall = uncovered = 0.0
        for root in (s for s in self.spans if s.parent is None):
            covered = union_length(
                (max(s.start, root.start), min(s.end, root.end))
                for s in self.spans
                if is_layer(s.name) and s.end > root.start and s.start < root.end
            )
            wall += root.duration
            uncovered += root.duration - covered
        return uncovered / wall if wall > 0 else 0.0

    def to_json(self) -> list[dict[str, object]]:
        return [dataclasses.asdict(span) for span in self.spans]


# -- correctness -------------------------------------------------------------


@dataclasses.dataclass
class Tally:
    """Operations attempted and failed, with a note per failure."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = dataclasses.field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


def compare_table(experiment_id: str, text: str, results_dir: Path) -> bool:
    """Whether a rendered table (with its trailing newline) is
    byte-identical to ``results_dir/<experiment_id>.txt``."""
    golden = results_dir / f"{experiment_id}.txt"
    try:
        return golden.read_bytes() == text.encode("utf-8")
    except OSError:
        return False


def check_tables(
    tally: Tally, tables: dict[str, str], results_dir: Path, what: str = ""
) -> None:
    """Count each rendered table as one operation, failed unless it is
    byte-identical to its golden."""
    for experiment_id, text in tables.items():
        tally.record(
            compare_table(experiment_id, text, results_dir),
            f"{what}{experiment_id} table differs from results/{experiment_id}.txt",
        )


def counter_drift(
    record_path: Path, key: str, counters: dict[str, float]
) -> list[str]:
    """Names of counters that differ from the last record under ``key``.

    Records ``counters`` under ``key`` when none exists yet.  Keys include
    the code fingerprint, so a difference is a behaviour change of
    unchanged code, never noise.
    """
    try:
        records = json.loads(record_path.read_text())
    except (OSError, ValueError):
        records = {}
    previous = records.get(key)
    if previous is None:
        records[key] = counters
        record_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = record_path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(records, indent=1, sort_keys=True))
        tmp.replace(record_path)
        return []
    names = sorted(set(previous) | set(counters))
    return [n for n in names if previous.get(n) != counters.get(n)]


# -- host probes -------------------------------------------------------------


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for
    (including their waited-for descendants), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def code_fingerprint(*roots: Path) -> str:
    """sha256 over every ``.py`` file below ``roots`` (path and content)."""
    digest = hashlib.sha256()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]
