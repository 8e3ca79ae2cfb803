#!/usr/bin/env python3
"""Caching & prewarming: pay OAG preprocessing once, reuse it forever.

The paper amortizes preprocessing across algorithms (Fig 21/22); the
artifact store amortizes it across *processes*.  This example prewarms
GlaResources for several (dataset, cores) combinations in parallel worker
processes, then times a cold build against a warm content-addressed load
and shows the store bookkeeping.

Run:  python examples/prewarm_cache.py
"""

from __future__ import annotations

import tempfile
import time

from repro import GlaResources
from repro.harness.report import render_table
from repro.harness.runner import Runner
from repro.harness.spec import RunSpec
from repro.hypergraph.generators import paper_dataset
from repro.sim import scaled_config
from repro.store import ArtifactStore, prewarm, prewarm_jobs


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-cache-") as cache_dir:
        # 1. Prewarm the store: every (dataset, cores) combo is built in a
        #    separate worker process and written atomically into one
        #    directory.  Equivalent CLI:
        #      python -m repro prewarm --cache-dir ... --datasets WEB,OK --cores 8,16
        jobs = prewarm_jobs(["WEB", "OK"], [8, 16])
        reports = prewarm(cache_dir, jobs, workers=4)
        rows = [
            [r.job.dataset, r.job.num_cores,
             "built" if r.built else "cached",
             round(r.seconds * 1e3, 1), round(r.payload_bytes / 1024, 1)]
            for r in reports
        ]
        print(render_table(
            ["Dataset", "Cores", "Status", "ms", "KB"], rows,
            title=f"Prewarmed {len(reports)} artifacts",
        ))

        # 2. Cold build vs warm load: same artifact, bit-identical payloads.
        hypergraph = paper_dataset("OK")
        store = ArtifactStore(cache_dir)
        start = time.perf_counter()
        built = GlaResources.build(hypergraph, 16)
        cold_s = time.perf_counter() - start
        start = time.perf_counter()
        loaded = GlaResources.build_or_load(hypergraph, 16, store=store)
        warm_s = time.perf_counter() - start
        assert loaded.storage_bytes() == built.storage_bytes()
        print(
            f"\ncold build: {cold_s * 1e3:.1f} ms   "
            f"warm load: {warm_s * 1e3:.1f} ms   "
            f"({cold_s / warm_s:.0f}x faster)\n"
        )

        # 3. The Runner picks the store up via cache_dir= (or
        #    $REPRO_CACHE_DIR) and persists simulation results too: a second
        #    process running the same workload skips the simulation.
        runner = Runner(pr_iterations=2, cache_dir=cache_dir)
        config = scaled_config(num_cores=16)
        runner.run(RunSpec("ChGraph", "PR", "OK", config))
        print(f"after one simulated run — store: {runner.store.stats}")

        fresh = Runner(pr_iterations=2, cache_dir=cache_dir)  # "new process"
        fresh.run(RunSpec("ChGraph", "PR", "OK", config))
        print(f"same run, fresh runner    — store: {fresh.store.stats}")


if __name__ == "__main__":
    main()
