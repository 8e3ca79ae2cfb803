"""Smoke tests for the experiment registry on tiny datasets.

Full-size experiment tables are exercised by the benchmark suite; here a
scaled-down runner verifies every figure produces well-formed rows and
preserves the paper's qualitative direction where it is cheap to check.
Figures are restricted by narrowing their run matrix, never by parameters:
``reduce`` walks whatever matrix it is given.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections.abc import Mapping

import numpy as np
import pytest

from repro.engine.result import RunResult
from repro.harness import experiments
from repro.harness.datasets import graph_dataset
from repro.harness.experiments import FIGURES, Figure, run_matrix
from repro.harness.runner import Runner
from repro.hypergraph.generators import paper_dataset
from repro.sim.layout import ArrayId


class TinyRunner(Runner):
    """Routes the paper datasets to ~20%-scale stand-ins."""

    def __init__(self):
        super().__init__(pr_iterations=1)
        self._tiny = {}

    def dataset(self, key):
        if key in ("AZ", "PK"):
            return graph_dataset(key)
        if key not in self._tiny:
            self._tiny[key] = paper_dataset(key, scale=0.12)
        return self._tiny[key]


@pytest.fixture(scope="module")
def runner():
    return TinyRunner()


def restricted(figure: Figure, keep) -> Figure:
    """``figure`` over the part of its matrix that ``keep`` accepts."""
    return dataclasses.replace(
        figure, matrix=tuple(spec for spec in figure.matrix if keep(spec))
    )


def only_pr(spec) -> bool:
    return spec.algorithm == "PR"


def test_table1_rows():
    title, headers, rows = experiments.table1_rows()
    assert "Table I" in title
    assert len(rows) == 7


def test_table2_rows(runner):
    _, headers, rows = experiments.table2_rows(runner)
    assert len(rows) == 5
    assert headers[0] == "Dataset"


def test_fig02_and_fig03(runner):
    _, _, rows02 = experiments.fig02_memory_accesses(runner)
    assert [row[0] for row in rows02] == ["Hygra", "GLA", "ChGraph"]
    _, _, rows03 = experiments.fig03_performance(runner)
    chgraph_speedup = rows03[2][2]
    assert chgraph_speedup > 1.0  # ChGraph beats Hygra even at tiny scale


def test_fig05(runner):
    fig = restricted(experiments.fig05_memory_stalls, only_pr)
    _, headers, rows = fig(runner)
    assert len(rows) == 1
    assert all(0.0 <= value <= 1.0 for value in rows[0][1:])


def test_fig08(runner):
    _, _, rows = experiments.fig08_overlap(runner)
    assert len(rows) == 10  # 2 sides x 5 datasets
    for row in rows:
        ratios = row[2:]
        assert ratios == sorted(ratios, reverse=True)


def test_fig14_subset(runner):
    _, _, rows = restricted(experiments.fig14_performance, only_pr)(runner)
    assert len(rows) == 5
    for row in rows:
        assert row[3] > 1.0  # ChGraph speedup


def test_fig16(runner):
    _, _, rows = restricted(experiments.fig16_hw_breakdown, only_pr)(runner)
    assert len(rows) == 1
    assert rows[0][3] > 1.0  # full ChGraph beats software GLA


def test_fig17_and_fig18(runner):
    fig17 = restricted(
        experiments.fig17_dmax_sweep,
        lambda s: s.preprocessing.d_max in (2, 16),
    )
    _, _, rows17 = fig17(runner)
    assert len(rows17) == 2
    fig18 = restricted(
        experiments.fig18_wmin_sweep,
        lambda s: s.preprocessing.w_min in (1, 9),
    )
    _, _, rows18 = fig18(runner)
    assert len(rows18) == 2


def test_fig19(runner):
    fig = restricted(
        experiments.fig19_llc_sweep, lambda s: s.config.l3_size <= 4 * 1024
    )
    _, _, rows = fig(runner)
    assert [row[0] for row in rows] == ["2KB", "4KB"]


def test_fig21(runner):
    _, _, rows = experiments.fig21_preprocessing(runner)
    assert len(rows) == 5
    for row in rows:
        assert row[1] > 0  # OAG construction always costs something
        assert row[2] > 0  # and takes extra space


def test_fig24(runner):
    on_ok = dataclasses.replace(
        experiments.fig24_reordering,
        matrix=tuple(
            dataclasses.replace(spec, dataset="OK")
            for spec in experiments.fig24_reordering.matrix
        ),
    )
    title, _, rows = on_ok(runner)
    assert "on OK" in title
    assert [row[0] for row in rows] == [
        "Hygra", "Hygra+Reorder", "ChGraph", "ChGraph+Reorder",
    ]


def test_fig25(runner):
    _, _, rows = experiments.fig25_graph_apps(runner)
    assert len(rows) == 4
    for row in rows:
        assert row[2] > 0  # finite speedups


def test_vi_e():
    _, _, rows = experiments.vi_e_area_power()
    values = dict((row[0], row[1]) for row in rows)
    assert values["Total area"].endswith("mm2")


def test_fig15_tiny(runner):
    _, _, rows = restricted(experiments.fig15_breakdown, only_pr)(runner)
    assert len(rows) == 10  # 5 datasets x {Hygra, ChGraph}
    hygra_rows = [row for row in rows if row[2] == "H"]
    assert all(row[7] == 0 for row in hygra_rows)  # no OAG traffic


def test_fig20_tiny(runner):
    fig = restricted(
        experiments.fig20_core_scaling, lambda s: s.config.num_cores in (4, 8)
    )
    _, _, rows = fig(runner)
    assert [row[0] for row in rows] == [4, 8]
    assert rows[0][1] > rows[1][1]  # more cores, fewer Hygra cycles


def test_fig22_tiny(runner):
    _, _, rows = restricted(experiments.fig22_total_time, only_pr)(runner)
    assert len(rows) == 5
    assert all(row[2] > 0 for row in rows)


def test_fig23_tiny(runner):
    _, _, rows = restricted(experiments.fig23_prefetcher, only_pr)(runner)
    assert len(rows) == 5


def test_headline_summary_tiny(runner):
    _, _, rows = restricted(experiments.headline_summary, only_pr)(runner)
    assert len(rows) == 1
    assert rows[0][1] > 1.0  # min ChGraph speedup


# -- the registry itself (no simulation) --------------------------------------

FIGURE_IDS = [
    "table1", "table2", "fig02", "fig03", "fig05", "fig07", "fig08", "fig14",
    "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22",
    "fig23", "fig24", "fig25", "vi_e", "summary",
]


class Recording(Mapping):
    """A spec→result map that records which specs a reduce read; a spec
    outside the matrix raises ``KeyError`` like any missing key."""

    def __init__(self, runs):
        self._runs = runs
        self.read = set()

    def __getitem__(self, spec):
        result = self._runs[spec]
        self.read.add(spec)
        return result

    def __iter__(self):
        return iter(self._runs)

    def __len__(self):
        return len(self._runs)


def stub_result(spec, i: int) -> RunResult:
    """Distinct, positive numbers for every field a reduce reads."""
    return RunResult(
        engine=spec.engine,
        algorithm=spec.algorithm,
        dataset=spec.dataset,
        result=np.zeros(1),
        vertex_values=np.zeros(1),
        hyperedge_values=np.zeros(1),
        iterations=1,
        cycles=1000.0 + i,
        compute_cycles=500.0,
        memory_stall_cycles=250.0 + i,
        dram_accesses=100 + i,
        dram_by_array={ArrayId.VERTEX_VALUE: 100 + i},
    )


def no_simulation(spec):
    raise AssertionError(f"reduce requested a run: {spec}")


def test_registry_ids_in_presentation_order():
    assert list(FIGURES) == FIGURE_IDS


@pytest.mark.parametrize("figure_id", FIGURE_IDS)
def test_reduce_reads_exactly_its_matrix(figure_id, runner, monkeypatch):
    figure = FIGURES[figure_id]
    assert len(set(figure.matrix)) == len(figure.matrix), "duplicate specs"
    monkeypatch.setattr(runner, "run", no_simulation)
    runs = Recording(
        {spec: stub_result(spec, i) for i, spec in enumerate(figure.matrix)}
    )
    title, headers, rows = figure.reduce(runner, runs)
    assert runs.read == set(figure.matrix)
    assert title and headers and rows


def test_figure_call_runs_its_matrix_through_runner_run(runner, monkeypatch):
    figure = FIGURES["fig02"]
    stubs = {spec: stub_result(spec, i) for i, spec in enumerate(figure.matrix)}
    monkeypatch.setattr(runner, "run", stubs.__getitem__)
    report = object()
    monkeypatch.setattr(runner, "last_execution_report", report)
    assert figure(runner) == figure.reduce(runner, stubs)
    assert runner.last_execution_report is report  # not reset by run_many


def _digest(specs) -> str:
    payload = json.dumps([spec.to_json() for spec in specs], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def test_run_matrix_order_is_pinned():
    """Shard planning and the suite benchmarks depend on this exact list;
    a change here is a change to every prewarm plan."""
    suite = run_matrix(FIGURE_IDS)
    fig14 = run_matrix(["fig14"])
    assert (len(suite), len(fig14)) == (155, 90)
    assert _digest(suite) == (
        "adfc7f4edc392b270dd6f571eddf954c3619e278a615295bfecca1e3440a9d65"
    )
    assert _digest(fig14) == (
        "416e204b950c4279fce3adcbdaf49bf1374886799640fe3ca9d22e2da9e3bc1e"
    )
