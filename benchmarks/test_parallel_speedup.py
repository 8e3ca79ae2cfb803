"""Sharded parallel executor vs serial on a cold multi-figure run matrix.

Guards the tentpole claim of the parallel-executor PR: with four jobs on a
machine with at least four usable CPUs, a cold run of the fig02+fig05
matrix (22 runs across six resource groups) is at least 1.5× faster than
the same matrix executed serially, and the figure tables assembled from
the two stores are byte-identical.  Skipped on smaller machines, where
process-level parallelism cannot pay for itself.
"""

from __future__ import annotations

import os

import pytest

from repro.benchmark.measure import timed
from repro.harness import experiments as registry
from repro.harness.parallel import execute_runs, plan_shards
from repro.harness.report import render_table
from repro.harness.runner import Runner

MIN_SPEEDUP = 1.5
JOBS = 4
FIGURES = ("fig02", "fig05")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _render(runner: Runner, figure: str) -> str:
    title, headers, rows = registry.FIGURES[figure](runner)
    return render_table(headers, rows, title=title)


@pytest.mark.skipif(
    _usable_cpus() < JOBS,
    reason=f"needs ≥{JOBS} CPUs for a meaningful parallel-speedup gate",
)
def test_parallel_cold_run_speedup(benchmark, emit, tmp_path):
    # The executor takes normalized specs: resolve them as the runners
    # that render the tables below will.
    specs = [Runner().normalize(spec) for spec in registry.run_matrix(FIGURES)]
    assert len(specs) == 22
    assert len(plan_shards(specs, JOBS)) == JOBS  # enough groups to fan out

    serial_dir = tmp_path / "serial"
    parallel_dir = tmp_path / "parallel"

    def measure():
        serial_report, serial_s = timed(
            lambda: execute_runs(specs, cache_dir=serial_dir, jobs=1)
        )
        assert serial_report.ok and not serial_report.parallel

        parallel_report, parallel_s = timed(
            lambda: execute_runs(
                specs, cache_dir=parallel_dir, jobs=JOBS, timeout=600
            )
        )
        assert parallel_report.ok and parallel_report.parallel

        # Byte-identical tables from the two stores' warm hits.
        serial_runner = Runner(cache_dir=serial_dir)
        parallel_runner = Runner(cache_dir=parallel_dir)
        for figure in FIGURES:
            assert _render(serial_runner, figure) == _render(
                parallel_runner, figure
            )

        rows = [
            ["runs", len(specs)],
            ["shards (parallel)", len(parallel_report.shards)],
            ["serial cold run (s)", round(serial_s, 2)],
            [f"parallel cold run, {JOBS} jobs (s)", round(parallel_s, 2)],
            ["speedup", round(serial_s / parallel_s, 2)],
        ]
        title = (
            f"Parallel sharded executor — cold {'+'.join(FIGURES)} matrix, "
            f"{JOBS} jobs"
        )
        return title, ["quantity", "value"], rows

    rows = emit(
        "parallel_speedup",
        benchmark.pedantic(measure, rounds=1, iterations=1),
    )
    speedup = rows[4][1]
    assert speedup >= MIN_SPEEDUP, (
        f"parallel cold run only {speedup}x faster than serial "
        f"(need ≥{MIN_SPEEDUP}x with {JOBS} jobs)"
    )
