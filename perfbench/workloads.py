"""The benchmark's three workloads, driven through the package's public
entry points: ``Runner.run_many``, the ``harness.experiments`` figure
functions, ``render_table`` and a ``repro serve`` subprocess driven by
``ServiceClient``.

Each workload has an untraced measurement (the end-to-end metrics) and a
traced pass (the per-layer metrics).  Every simulation starts with empty
caches, as the goldens in ``results/`` do; simulated statistics are
correctness outputs and must repeat exactly.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import random
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any

from benchlib import Tally, Tracer, check_tables, median, tail_percentile
from layers import SimCounters, TracedClient, TracedRunner, is_layer

from repro.cli import EXPERIMENTS
from repro.errors import ServiceError, ServiceOverloadedError
from repro.harness.datasets import clear_dataset_cache
from repro.harness.experiments import fig14_performance, run_matrix
from repro.harness.report import render_table
from repro.harness.runner import Runner
from repro.service import JobRequest, ServiceClient
from repro.store import ArtifactStore
from repro.store.serialize import run_result_to_json

#: Worker processes (and client threads): the reference host has 2 cpus.
JOBS = 2
#: Engine families whose per-layer numbers the trace reports.
FAMILIES = ("Hygra", "GLA", "ChGraph")
#: One pass's wall on the reference host, which sizes a run's passes.
FIG14_PASS_S = 27.0
SUITE_PASS_S = 1.6


@dataclasses.dataclass
class Context:
    """What one benchmark invocation hands a workload."""

    root: Path  # the checkout
    work: Path  # scratch directory inside the checkout, removed at exit
    seed: int
    seconds: int
    trace: bool
    env: dict[str, str]  # environment for subprocesses (PYTHONPATH=src)
    tally: Tally = dataclasses.field(default_factory=Tally)
    tracer: Tracer = dataclasses.field(default_factory=Tracer)
    sim: SimCounters = dataclasses.field(default_factory=SimCounters)

    @property
    def results(self) -> Path:
        return self.root / "results"

    def fresh_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.work))


@dataclasses.dataclass
class Outcome:
    """A workload's numbers: metrics by name, deterministic counters, and
    details (tail percentile, notes) for the report."""

    metrics: dict[str, float]
    counters: dict[str, float]
    details: dict[str, Any]


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: The layers this workload loads (see the per-layer table in README.md).
    loads: str
    seed_note: str
    run: Callable[[Context], Outcome]


# -- shared pieces -----------------------------------------------------------


def render(table: tuple[str, list[str], list[list[object]]]) -> str:
    """A figure function's table as the golden file holds it."""
    title, headers, rows = table
    return render_table(headers, rows, title=title) + "\n"


def import_seconds(ctx: Context) -> float:
    """Start a fresh interpreter that imports the package's entry points,
    as every ``repro`` command does."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro.cli, repro.service"],
        env=ctx.env, check=True, timeout=120,
    )
    return time.perf_counter() - start


def pass_count(seconds: int, reference_pass_s: float) -> int:
    """Whole passes in ``seconds`` at the reference host's pass time (at
    least one).  The work is fixed by the arguments, not by the clock, so
    both sides of a comparison do the same work and every counter and
    percentile rank repeats."""
    return max(1, round(seconds / reference_pass_s))


def run_latencies(report: Any) -> list[float]:
    return [r.seconds for r in report.reports]


def record_report(ctx: Context, report: Any) -> None:
    """Count each run of an execution report as one operation."""
    for run in report.reports:
        ctx.tally.record(run.ok, f"run {run.spec.label()} failed: {run.error}")


def family_counters(results: dict[Any, Any]) -> dict[str, float]:
    """Deterministic simulated work per engine family of a result map."""
    counters: dict[str, float] = {"runs": len(results)}
    for spec, result in results.items():
        for field in ("cycles", "dram_accesses", "dram_writebacks"):
            name = f"{spec.engine}.{field}"
            counters[name] = counters.get(name, 0) + getattr(result, field)
    return counters


def store_counters(runner: Runner) -> dict[str, float]:
    stats = runner.store.stats
    return {
        "store.hits": stats.hits,
        "store.misses": stats.misses,
        "store.writes": stats.writes,
        # Artifacts, not bytes: resources payloads embed their host build
        # time, so their size varies from run to run.
        "store.artifacts": len(runner.store.ls()),
    }


def e2e(
    setup: float, walls: list[float], ops_per_pass: int, op_latencies: list[float]
) -> tuple[dict[str, float], dict[str, Any]]:
    """The end-to-end metrics every workload reports."""
    wall = median(walls)
    tail = tail_percentile(op_latencies)
    metrics = {
        "setup_s": setup,
        "wall_s": wall,
        "jobs_per_s": ops_per_pass / wall,
        "op_p50_ms": median(op_latencies) * 1e3,
        "op_tail_ms": tail.value * 1e3,
    }
    details = {
        "pass_walls_s": walls,
        "op_tail": dataclasses.asdict(tail),
    }
    return metrics, details


def executor_metrics(report: Any) -> dict[str, float]:
    busy = sum(run_latencies(report))
    return {
        "parallel.worker_busy_s": busy,
        "parallel.efficiency": busy / (report.jobs * report.seconds),
        "parallel.retried": len(report.retried()),
    }


def layer_metrics(ctx: Context, reference_s: float, traced_s: float) -> dict[str, float]:
    """Per-layer metrics from the traced pass's spans and sim counters."""
    own = ctx.tracer.layer_self_times()
    metrics = {
        "hypergraph.generate_s": own.get("hypergraph.generate", 0.0),
        "hypergraph.pipeline_s": own.get("hypergraph.pipeline", 0.0),
        "resources.build_s": own.get("resources.build", 0.0),
        "store.key_s": own.get("store.key", 0.0),
        "store.get_s": own.get("store.get", 0.0),
        "store.put_s": own.get("store.put", 0.0),
        "report.render_s": own.get("report.render", 0.0),
        "trace.uncovered_share": ctx.tracer.uncovered_share(is_layer),
        "trace.overhead": traced_s / reference_s - 1.0 if reference_s else 0.0,
    }
    totals = dict.fromkeys(("probes", "l1_accesses", "l1_misses",
                            "dram_lines", "dram_writebacks"), 0)
    for family in FAMILIES:
        counters = ctx.sim.get(family)
        metrics[f"engine.{family}.run_s"] = own.get(f"engine.{family}.run", 0.0)
        metrics[f"sim.{family}.ns_per_probe"] = (
            counters.seconds * 1e9 / counters.probes if counters.probes else 0.0
        )
        for name in ("probes", "l1_misses", "dram_lines", "dram_writebacks"):
            metrics[f"sim.{family}.{name}"] = getattr(counters, name)
        for name in totals:
            totals[name] += getattr(counters, name)
    metrics["sim.probes"] = totals["probes"]
    metrics["sim.dram_lines"] = totals["dram_lines"]
    metrics["sim.dram_writebacks"] = totals["dram_writebacks"]
    metrics["sim.l1_miss_ratio"] = (
        totals["l1_misses"] / totals["l1_accesses"] if totals["l1_accesses"] else 0.0
    )
    return metrics


def traced_store_metrics(runner: TracedRunner, bytes_before: int = 0) -> dict[str, float]:
    return {
        "store.hits": runner.store.stats.hits,
        "store.misses": runner.store.stats.misses,
        "store.bytes_written": runner.store.disk_bytes() - bytes_before,
    }


#: Per-layer metrics a workload does not exercise report zero.
IDLE_LAYERS = {
    "parallel.worker_busy_s": 0.0, "parallel.efficiency": 0.0,
    "parallel.retried": 0,
    "service.server_p50_ms": 0.0, "service.client_overhead_ms": 0.0,
    "service.miss_p50_ms": 0.0, "service.polls_per_job": 0.0,
    "service.store_hit_ratio": 0.0, "service.computed": 0,
    "service.coalesced": 0, "service.rejected": 0,
}


def traced_runs(
    ctx: Context, runner: TracedRunner, specs: list[Any], expected: dict[Any, Any]
) -> None:
    """Run each spec serially through the traced runner, one ``run`` span
    each, and check cycles and DRAM counts against the untraced result."""
    for spec in specs:
        with ctx.tracer.span("run", run_id=spec.label()):
            result = runner.run(spec)
        want = expected[spec]
        ctx.tally.record(
            (result.cycles, result.dram_accesses, result.dram_writebacks)
            == (want.cycles, want.dram_accesses, want.dram_writebacks),
            f"traced {spec.label()} differs from the untraced run",
        )


# -- fig14-cold --------------------------------------------------------------


def _fig14_pass(ctx: Context, specs: list[Any]) -> tuple[float, dict, Any, dict]:
    """One cold fig14: fresh store and dataset cache, the 90-run matrix
    through the sharded executor, then the table against its golden."""
    clear_dataset_cache()
    runner = Runner(cache_dir=ctx.fresh_dir("fig14-store-"))
    start = time.perf_counter()
    results = runner.run_many(specs, jobs=JOBS)
    text = render(fig14_performance(runner))
    wall = time.perf_counter() - start
    report = runner.last_execution_report
    record_report(ctx, report)
    check_tables(ctx.tally, {"fig14": text}, ctx.results)
    counters = {**family_counters(results), **store_counters(runner)}
    return wall, counters, report, results


def run_fig14_cold(ctx: Context) -> Outcome:
    specs = run_matrix(["fig14"])
    setups = []
    for _ in range(5):
        start = time.perf_counter()
        import_seconds(ctx)
        Runner(cache_dir=ctx.fresh_dir("fig14-setup-"))
        setups.append(time.perf_counter() - start)
    if not ctx.trace:
        return measure_passes(
            ctx, pass_count(ctx.seconds, FIG14_PASS_S),
            lambda: _fig14_pass(ctx, specs), median(setups), len(specs),
        )

    wall, counters, report, expected = _fig14_pass(ctx, specs)
    executor = executor_metrics(report)
    # The untraced pass as if run serially, the traced pass's reference:
    # the parent's own time (assembly, rendering) plus the workers' busy time.
    serial_s = wall - report.seconds + executor["parallel.worker_busy_s"]
    clear_dataset_cache()
    runner = TracedRunner(ctx.tracer, ctx.sim, ctx.fresh_dir("fig14-traced-"))
    with ctx.tracer.span("pass") as root:
        traced_runs(ctx, runner, specs, expected)
        with ctx.tracer.span("report.render", run_id="fig14"):
            text = render(fig14_performance(runner))
    check_tables(ctx.tally, {"fig14": text}, ctx.results, "traced ")
    metrics = {
        **IDLE_LAYERS, **executor,
        **layer_metrics(ctx, serial_s, root.duration),
        **traced_store_metrics(runner),
        "work.runs": len(specs),
    }
    return Outcome(metrics, counters,
                   {"traced_wall_s": root.duration, "serial_untraced_s": serial_s})


def measure_passes(
    ctx: Context, count: int, one_pass: Callable[[], tuple], setup: float, ops: int
) -> Outcome:
    """Untraced passes and their end-to-end metrics.  The passes' work
    counters must agree: a difference between passes of one run is a
    behaviour change and counts as a failed operation."""
    walls, latencies, counters = [], [], []
    for _ in range(count):
        wall, pass_counters, report, _ = one_pass()
        walls.append(wall)
        latencies += run_latencies(report)
        counters.append(pass_counters)
    for later in counters[1:]:
        ctx.tally.record(later == counters[0],
                         "work counters differ between passes of one run")
    metrics, details = e2e(setup, walls, ops, latencies)
    return Outcome(metrics, counters[0], details)


# -- suite-warm --------------------------------------------------------------


def _suite_pass(
    ctx: Context, store: Path, ids: list[str], matrix: list[Any]
) -> tuple[float, dict, Any, dict]:
    """One warm suite: a fresh runner and dataset cache on the prewarmed
    store, the whole matrix through the sharded executor, then every table
    against its golden."""
    clear_dataset_cache()
    runner = Runner(cache_dir=store)
    start = time.perf_counter()
    results = runner.run_many(matrix, jobs=JOBS)
    tables = {i: render(EXPERIMENTS[i](runner)) for i in ids}
    wall = time.perf_counter() - start
    report = runner.last_execution_report
    record_report(ctx, report)
    check_tables(ctx.tally, tables, ctx.results)
    counters = {**family_counters(results), **store_counters(runner)}
    return wall, counters, report, results


def run_suite_warm(ctx: Context) -> Outcome:
    ids = list(EXPERIMENTS)
    matrix = run_matrix(ids)
    store = ctx.fresh_dir("suite-store-")
    start = time.perf_counter()
    imports = median([import_seconds(ctx) for _ in range(3)])
    prewarm = Runner(cache_dir=store)
    prewarm.run_many(matrix, jobs=JOBS)
    record_report(ctx, prewarm.last_execution_report)
    setup = imports + time.perf_counter() - start
    if not ctx.trace:
        return measure_passes(
            ctx, pass_count(ctx.seconds, SUITE_PASS_S),
            lambda: _suite_pass(ctx, store, ids, matrix), setup, len(matrix),
        )

    _, counters, report, expected = _suite_pass(ctx, store, ids, matrix)
    executor = executor_metrics(report)
    # The traced pass's reference: the same serial in-process pass, untraced.
    clear_dataset_cache()
    start = time.perf_counter()
    serial = Runner(cache_dir=store)
    for spec in matrix:
        serial.run(spec)
    for experiment_id in ids:
        render(EXPERIMENTS[experiment_id](serial))
    serial_s = time.perf_counter() - start
    clear_dataset_cache()
    runner = TracedRunner(ctx.tracer, ctx.sim, store)
    bytes_before = runner.store.disk_bytes()
    with ctx.tracer.span("pass") as root:
        traced_runs(ctx, runner, matrix, expected)
        tables = {}
        for experiment_id in ids:
            with ctx.tracer.span("report.render", run_id=experiment_id):
                tables[experiment_id] = render(EXPERIMENTS[experiment_id](runner))
    check_tables(ctx.tally, tables, ctx.results, "traced ")
    metrics = {
        **IDLE_LAYERS, **executor,
        **layer_metrics(ctx, serial_s, root.duration),
        **traced_store_metrics(runner, bytes_before),
        "work.runs": len(matrix),
    }
    return Outcome(metrics, counters,
                   {"traced_wall_s": root.duration, "serial_untraced_s": serial_s})


# -- serve-mixed -------------------------------------------------------------

#: Hit specs: engine x algorithm on the two datasets, 4 cores, 2 KB LLC.
SERVE_COMBOS = tuple(itertools.product(("Hygra", "ChGraph"), ("BFS", "PR")))
SERVE_DATASETS = ("OG", "WEB")  # one per client thread
SERVE_CORES = 4
HIT_LLC_KB = 2
#: Misses vary only the LLC size, so every miss is a distinct spec of the
#: same shape as the hits; from 32 KB on, simulation cost hardly depends
#: on the LLC size.
MISS_LLC_KB = range(32, 96)
#: One request in each block of this many is a miss (10%).  Each miss
#: blocks about one hit of the other client behind it; at 20% misses those
#: blocked hits sat right at the reported tail percentile, which then did
#: not repeat from run to run.
MISS_BLOCK = 10
#: Requests per second of ``--seconds``, sized from the reference host's
#: ~12 jobs/s at this mix so a run serves for about ``--seconds``.  The
#: count is fixed by the arguments, so every work counter repeats exactly.
REQUESTS_PER_SECOND = 10


def _request(engine: str, algorithm: str, dataset: str, llc_kb: int) -> JobRequest:
    return JobRequest.build(
        engine, algorithm, dataset, cores=SERVE_CORES, llc_kb=llc_kb
    )


def hit_requests() -> list[list[JobRequest]]:
    """Per client thread, the four specs set-up prewarms."""
    return [
        [_request(e, a, dataset, HIT_LLC_KB) for e, a in SERVE_COMBOS]
        for dataset in SERVE_DATASETS
    ]


def request_plan(seed: int, seconds: int) -> list[list[tuple[str, JobRequest]]]:
    """The seeded request sequence of each client thread.

    Thread ``t`` asks only for specs on its own dataset, so two requests
    in flight never name the same spec (nothing coalesces, by design,
    and every service counter repeats exactly).  Each block of
    ``MISS_BLOCK`` requests holds one miss at a seeded position; misses
    cycle through the four engine/algorithm pairs, each with a distinct
    seeded LLC size, so every run's misses have the same mix of costs.
    """
    rng = random.Random(seed)
    blocks = max(1, round(REQUESTS_PER_SECOND * seconds / JOBS / MISS_BLOCK))
    plan = []
    for dataset, hits in zip(SERVE_DATASETS, hit_requests()):
        llcs = rng.sample(MISS_LLC_KB, blocks)
        thread = []
        for block, llc in enumerate(llcs):
            engine, algorithm = SERVE_COMBOS[block % len(SERVE_COMBOS)]
            slot = rng.randrange(MISS_BLOCK)
            for i in range(MISS_BLOCK):
                if i == slot:
                    thread.append(("miss", _request(engine, algorithm, dataset, llc)))
                else:
                    thread.append(("hit", hits[rng.randrange(len(hits))]))
        plan.append(thread)
    return plan


class Server:
    """A ``repro serve --port 0`` subprocess on a fresh store."""

    BANNER = re.compile(rb"listening on [^:]+:(\d+)")

    def __init__(self, ctx: Context) -> None:
        self.cache_dir = ctx.fresh_dir("serve-store-")
        self._log = open(self.cache_dir.with_suffix(".log"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", str(self.cache_dir), "--workers", str(JOBS),
             "--quiet"],
            env=ctx.env, stdout=subprocess.PIPE, stderr=self._log,
        )
        try:
            match = self.BANNER.search(self.proc.stdout.readline())
            if match is None:
                raise RuntimeError("repro serve exited before listening")
            self.port = int(match.group(1))
            ServiceClient(port=self.port).health()
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        """SIGTERM (the service drains), then wait for the process."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def start_server(ctx: Context) -> tuple[Server, float]:
    """Start the serving process; set-up is three timed starts (median),
    keeping the last, plus prewarming the hit specs through it."""
    starts = []
    for attempt in range(3):
        start = time.perf_counter()
        server = Server(ctx)
        starts.append(time.perf_counter() - start)
        if attempt < 2:
            server.stop()
    try:
        start = time.perf_counter()
        client = ServiceClient(port=server.port)
        jobs = [client.submit(r) for hits in hit_requests() for r in hits]
        for job in jobs:
            done = client.wait(job["job_id"], timeout=120)
            ctx.tally.record(done["state"] == "done", f"prewarm job {done['job_id']} failed")
        return server, median(starts) + time.perf_counter() - start
    except BaseException:
        server.stop()
        raise


@dataclasses.dataclass
class Served:
    kind: str
    request: JobRequest
    latency: float
    job: dict[str, Any] | None
    error: str | None = None


def closed_loop(
    ctx: Context, client_for: Callable[[], ServiceClient], plan: list[list[Any]],
    root: Any = None,
) -> tuple[float, list[Served]]:
    """Each client thread issues its requests one after another, waiting
    for every reply (``repro submit`` callers wait)."""
    served: list[list[Served]] = [[] for _ in plan]

    def client_thread(index: int) -> None:
        client = client_for()
        for kind, request in plan[index]:
            start = time.perf_counter()
            job = error = None
            span = (ctx.tracer.span("job", parent=root) if root is not None
                    else contextlib.nullcontext())
            with span:
                try:
                    job = client.run(request, timeout=120)
                except ServiceOverloadedError as exc:
                    error = f"rejected: {exc}"
                except ServiceError as exc:
                    error = f"failed: {exc}"
            served[index].append(
                Served(kind, request, time.perf_counter() - start, job, error)
            )

    threads = [threading.Thread(target=client_thread, args=(i,)) for i in range(len(plan))]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170)
    if any(t.is_alive() for t in threads) or list(map(len, served)) != list(map(len, plan)):
        raise RuntimeError("a client thread did not finish its requests")
    return time.perf_counter() - start, [s for thread in served for s in thread]


def canonical(result: Any) -> str:
    return json.dumps(run_result_to_json(result), sort_keys=True)


def verify_served(
    ctx: Context, served: list[Served], local: Callable[[list[Any]], dict]
) -> dict[str, float]:
    """Each request is one operation: it fails if its job failed or was
    rejected, or if the served result differs from one local run of its
    spec.  Returns the served work counters."""
    expected = local(list(dict.fromkeys(s.request.spec for s in served if s.job)))
    wanted = {spec: canonical(result) for spec, result in expected.items()}
    counters = {"served.distinct": len(wanted)}
    for item in served:
        result = ServiceClient.run_result(item.job) if item.job else None
        ctx.tally.record(
            result is not None and canonical(result) == wanted[item.request.spec],
            f"{item.request.label()}: {item.error or 'differs from the local run'}",
        )
        if result is None:
            continue
        for field in ("cycles", "dram_accesses", "dram_writebacks"):
            name = f"served.{field}"
            counters[name] = counters.get(name, 0) + getattr(result, field)
    return counters


def service_counters(stats: dict[str, Any]) -> dict[str, float]:
    return {
        f"service.{name}": stats[name]
        for name in ("submitted", "completed", "failed", "rejected", "coalesced",
                     "computed", "store_hits", "store_hit_ratio", "retries")
    }


def run_serve_mixed(ctx: Context) -> Outcome:
    plan = request_plan(ctx.seed, ctx.seconds)
    requests = sum(map(len, plan))
    server, setup = start_server(ctx)
    try:
        wall, served = closed_loop(ctx, lambda: ServiceClient(port=server.port), plan)
        stats = ServiceClient(port=server.port).stats()
    finally:
        server.stop()
    hits = [s.latency for s in served if s.kind == "hit" and s.job is not None]
    misses = [s.latency for s in served if s.kind == "miss" and s.job is not None]
    counters = {"requests": requests, "hits": len(hits), "misses": len(misses),
                **service_counters(stats)}
    if not ctx.trace:
        counters.update(verify_served(ctx, served, local_runs(ctx)))
        metrics, details = e2e(setup, [wall], requests, hits)
        details["miss_p50_ms"] = median(misses) * 1e3 if misses else None
        return Outcome(metrics, counters, details)

    server, _ = start_server(ctx)
    try:
        server_store = ArtifactStore(server.cache_dir)
        bytes_before = server_store.disk_bytes()
        with ctx.tracer.span("loop") as root:
            traced_wall, traced = closed_loop(
                ctx, lambda: TracedClient(ctx.tracer, server.port), plan, root
            )
        stats = ServiceClient(port=server.port).stats()
        bytes_written = server_store.disk_bytes() - bytes_before
    finally:
        server.stop()
    runner = TracedRunner(ctx.tracer, ctx.sim)
    with ctx.tracer.span("verify"):
        counters.update(verify_served(
            ctx, traced, lambda specs: {s: runner.run(s) for s in specs}
        ))
    traced_hits = [s for s in traced if s.kind == "hit" and s.job is not None]
    traced_misses = [s.latency for s in traced if s.kind == "miss" and s.job is not None]
    client_hit_p50 = median([s.latency for s in traced_hits]) * 1e3
    server_hit_p50 = median([s.job["latency"] for s in traced_hits]) * 1e3
    polls = sum(1 for s in ctx.tracer.spans if s.name == "service.poll")
    metrics = {
        **IDLE_LAYERS,
        **layer_metrics(ctx, wall, traced_wall),
        "service.server_p50_ms": server_hit_p50,
        "service.client_overhead_ms": client_hit_p50 - server_hit_p50,
        "service.miss_p50_ms": median(traced_misses) * 1e3,
        "service.polls_per_job": polls / len(traced),
        "service.store_hit_ratio": stats["store_hit_ratio"],
        "service.computed": stats["computed"],
        "service.coalesced": stats["coalesced"],
        "service.rejected": stats["rejected"],
        "store.hits": stats["store_hits"],
        "store.misses": stats["computed"],
        "store.bytes_written": bytes_written,
        "work.runs": requests,
    }
    return Outcome(metrics, counters, {"traced_wall_s": traced_wall, "untraced_wall_s": wall})


def local_runs(ctx: Context) -> Callable[[list[Any]], dict]:
    """Local results for served specs: one fresh Runner, its own store."""
    def run(specs: list[Any]) -> dict:
        return Runner(cache_dir=ctx.fresh_dir("local-store-")).run_many(specs, jobs=JOBS)
    return run


# -- the registry ------------------------------------------------------------

_FIXED = ("does not depend on the seed, by construction: its inputs are the "
          "paper's run matrices, pinned by the goldens in results/")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fig14-cold",
            "bound by simulation: the 90-run fig14 matrix on a fresh store, "
            "sharded over 2 workers; the store is write-only",
            "hypergraph generate, resources build, engine run and the cache "
            "hierarchy (Hygra/GLA/ChGraph), store put, parallel shard balance, "
            "report render; service idle",
            _FIXED, run_fig14_cold,
        ),
        Workload(
            "suite-warm",
            "no simulation at all: all 21 figure tables from a prewarmed store, "
            "the control for engine and sim changes; the store is read-only",
            "hypergraph generate, store key and get with verify and decode, "
            "parallel pool start-up, report render; engines and service idle",
            _FIXED, run_suite_warm,
        ),
        Workload(
            "serve-mixed",
            "the only path through the service queue, scheduler and polls: a "
            "closed loop of 2 clients, 90% store hits and 10% distinct misses",
            "service submit and poll, store fast path; misses load hypergraph "
            "generate and engine run (Hygra/ChGraph) in the server's workers",
            "the seed drives the request order and the LLC sizes of the misses",
            run_serve_mixed,
        ),
    )
}
