"""Traced views of the package's layers, for the benchmark's traced pass.

Each class subclasses or wraps one public surface and records a span
around every call into a layer, so the traced pass walks exactly the code
path of an untraced run:

- :class:`TracedRunner` is a :class:`~repro.harness.runner.Runner` whose
  ``dataset``/``pipeline``/``resources``/``engine`` calls are spans; its
  ``_run_spec`` (inherited, untouched) calls them in turn;
- :class:`TracedStore` is an :class:`~repro.store.ArtifactStore` whose
  typed get/put calls are spans;
- :class:`TracedEngine` wraps an engine so ``run`` is a span and the
  simulated hierarchy's counters are read after it;
- :class:`TracedClient` is a :class:`~repro.service.ServiceClient` whose
  submit and status calls are spans tagged with the job id.

Span names are the layer names the per-layer metrics use.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Any

from benchlib import Tracer

from repro.harness.runner import Runner
from repro.service import ServiceClient
from repro.store import ArtifactStore

#: Span names that belong to a layer; every other span is structure
#: (a pass, a run, a job) whose uncovered time the trace reports.
LAYER_PREFIXES = (
    "hypergraph.", "resources.", "engine.", "store.", "report.", "service.",
)


def is_layer(name: str) -> bool:
    return name.startswith(LAYER_PREFIXES)


@dataclasses.dataclass
class FamilyCounters:
    """Simulated work and host time of one engine family's runs."""

    seconds: float = 0.0
    probes: int = 0
    l1_accesses: int = 0
    l1_misses: int = 0
    dram_lines: int = 0
    dram_writebacks: int = 0


class SimCounters:
    """Per-engine-family counters read from each run's hierarchy."""

    def __init__(self) -> None:
        self.families: dict[str, FamilyCounters] = {}

    def add(self, family: str, system: Any, seconds: float) -> None:
        counters = self.families.setdefault(family, FamilyCounters())
        hierarchy = system.hierarchy
        counters.seconds += seconds
        counters.probes += hierarchy.demand_probes + hierarchy.engine_probes
        for cache in hierarchy.l1:
            counters.l1_accesses += cache.stats.hits + cache.stats.misses
            counters.l1_misses += cache.stats.misses
        counters.dram_lines += hierarchy.dram_accesses()
        counters.dram_writebacks += hierarchy.writebacks()

    def get(self, family: str) -> FamilyCounters:
        return self.families.get(family, FamilyCounters())


class TracedStore(ArtifactStore):
    def __init__(self, root: str | Path, tracer: Tracer) -> None:
        super().__init__(root)
        self.tracer = tracer

    def get_run_result(self, key: str) -> Any:
        with self.tracer.span("store.get"):
            return super().get_run_result(key)

    def put_run_result(self, key: str, result: Any) -> Path:
        with self.tracer.span("store.put"):
            return super().put_run_result(key, result)

    def get_resources(self, key: str) -> Any:
        with self.tracer.span("store.get"):
            return super().get_resources(key)

    def put_resources(self, key: str, resources: Any) -> Path:
        with self.tracer.span("store.put"):
            return super().put_resources(key, resources)


class TracedEngine:
    """An engine whose ``run`` is one span (all ``Runner`` calls on it)."""

    def __init__(
        self, engine: Any, family: str, tracer: Tracer, sim: SimCounters
    ) -> None:
        self._engine = engine
        self._family = family
        self._tracer = tracer
        self._sim = sim

    def run(self, algorithm: Any, hypergraph: Any, system: Any = None) -> Any:
        with self._tracer.span(f"engine.{self._family}.run") as span:
            result = self._engine.run(algorithm, hypergraph, system)
        self._sim.add(self._family, system, span.duration)
        return result


class TracedRunner(Runner):
    """A Runner whose calls into each layer are spans.

    Content hashing runs right after generation, under ``store.key``: it
    is the key derivation ``_run_spec`` would otherwise do inline (the
    hash is memoized on the hypergraph).
    """

    def __init__(
        self,
        tracer: Tracer,
        sim: SimCounters,
        cache_dir: str | Path | None = None,
    ) -> None:
        super().__init__(cache_dir=cache_dir)
        self.tracer = tracer
        self.sim = sim
        if self.store is not None:
            self.store = TracedStore(self.store.root, tracer)

    def dataset(self, key: str) -> Any:
        with self.tracer.span("hypergraph.generate"):
            hypergraph = super().dataset(key)
        with self.tracer.span("store.key"):
            hypergraph.content_hash()
        return hypergraph

    def pipeline(self, hypergraph: Any, preprocessing: Any) -> Any:
        with self.tracer.span("hypergraph.pipeline"):
            return super().pipeline(hypergraph, preprocessing)

    def resources(self, hypergraph: Any, config: Any, preprocessing: Any = None) -> Any:
        with self.tracer.span("resources.build"):
            return super().resources(hypergraph, config, preprocessing)

    def engine(
        self, name: str, hypergraph: Any, config: Any, preprocessing: Any = None
    ) -> Any:
        engine = super().engine(name, hypergraph, config, preprocessing)
        return TracedEngine(engine, name, self.tracer, self.sim)


class TracedClient(ServiceClient):
    """A ServiceClient whose submits and polls are spans per job id."""

    def __init__(self, tracer: Tracer, port: int) -> None:
        super().__init__(port=port)
        self.tracer = tracer

    def submit(self, request: Any) -> dict[str, Any]:
        with self.tracer.span("service.submit") as span:
            job = super().submit(request)
        span.run_id = job["job_id"]
        return job

    def status(self, job_id: str) -> dict[str, Any]:
        with self.tracer.span("service.poll", run_id=job_id):
            return super().status(job_id)
