"""Memory-trace events, files and replay.

A trace is the per-element access stream an engine charges through the
system facade, recorded by attaching a
:class:`~repro.sim.observe.TraceObserver` to an
:class:`~repro.sim.observe.InstrumentedSystem`.  Traces decouple *what a
scheduler accesses* from *what a hierarchy does with it*: record once,
then replay the same stream through differently-sized hierarchies, or
feed it to :mod:`repro.sim.reuse` for stack-distance analysis.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Iterable

from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.layout import ArrayId
from repro.sim.config import SystemConfig

__all__ = ["TraceEvent", "replay", "save_trace", "load_trace"]

#: Event kinds, matching the charging channel the access used.
KINDS = ("read", "write", "serial", "engine")


@dataclasses.dataclass(frozen=True)
class TraceEvent:
    """One recorded memory access."""

    kind: str  # one of KINDS
    core: int
    array: ArrayId
    index: int


def replay(
    trace: Iterable[TraceEvent], config: SystemConfig
) -> MemoryHierarchy:
    """Replay a trace through a fresh hierarchy; returns it for inspection."""
    hierarchy = MemoryHierarchy(config)
    for event in trace:
        if event.kind == "engine":
            hierarchy.engine_access(event.core, event.array, event.index)
        else:
            hierarchy.access(
                event.core, event.array, event.index, write=event.kind == "write"
            )
    return hierarchy


def save_trace(trace: Iterable[TraceEvent], path: str | Path) -> None:
    """Write a trace as ``kind core array index`` lines."""
    with Path(path).open("w", encoding="utf-8") as handle:
        for event in trace:
            handle.write(
                f"{event.kind} {event.core} {event.array.name} {event.index}\n"
            )


def load_trace(path: str | Path) -> list[TraceEvent]:
    """Read a trace written by :func:`save_trace`."""
    events = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            kind, core, array, index = line.split()
            events.append(
                TraceEvent(kind, int(core), ArrayId[array], int(index))
            )
    return events
