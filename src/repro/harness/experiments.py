"""One declaration per paper table/figure: the reproduction registry.

A :class:`Figure` is a ``(matrix, reduce)`` pair.  ``matrix`` names every
run the figure reads, once; ``reduce`` turns the spec→result map of that
matrix into ``(title, headers, rows)`` ready for
:func:`repro.harness.report.render_table`.  Calling a figure with a runner
executes its matrix through ``runner.run`` (warm memo or store hits after
a :meth:`~repro.harness.runner.Runner.run_many` prewarm) and reduces it.

Each ``reduce`` walks its runs in matrix order, grouped by the spec fields
that vary, and never re-lists specs — so a restricted matrix
(``dataclasses.replace(figure, matrix=...)``) yields the matching smaller
table.  Benchmarks print the tables and assert the paper's qualitative
shape; EXPERIMENTS.md records the measured numbers next to the paper's.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Hashable, Iterable, Mapping, TypeVar

from repro.chgraph.area import area_report
from repro.engine.result import RunResult
from repro.harness.datasets import GRAPH_DATASETS
from repro.harness.runner import PAPER_APPS, Runner
from repro.harness.spec import RunSpec
from repro.hypergraph.generators import PAPER_DATASETS
from repro.harness.report import with_bars
from repro.hypergraph.pipeline import PreprocessSpec, StageSpec
from repro.hypergraph.stats import dataset_stats, overlap_curve
from repro.sim.config import SystemConfig, scaled_config, table1_config

__all__ = [
    "FIGURES",
    "Figure",
    "run_matrix",
    "table1_rows",
    "table2_rows",
    "fig02_memory_accesses",
    "fig03_performance",
    "fig05_memory_stalls",
    "fig07_hats_v",
    "fig08_overlap",
    "fig14_performance",
    "fig15_breakdown",
    "fig16_hw_breakdown",
    "fig17_dmax_sweep",
    "fig18_wmin_sweep",
    "fig19_llc_sweep",
    "fig20_core_scaling",
    "fig21_preprocessing",
    "fig22_total_time",
    "fig23_prefetcher",
    "fig24_reordering",
    "fig25_graph_apps",
    "headline_summary",
    "vi_e_area_power",
]

#: Cycles charged per elementary preprocessing operation when converting
#: host-side preprocessing work into simulated core cycles (Figs 21/22).
#: Bipartite CSR construction is branchy and allocation-heavy; the OAG's
#: pair-counting inner loop is a tight streaming kernel, hence cheaper
#: per operation.
PREPROCESS_OP_CYCLES = 2.0
OAG_OP_CYCLES = 0.5

#: The Figure 24 preprocessing record: run the spatial locality reordering
#: as a registered pipeline stage in front of the engine, instead of
#: hand-building reordered engines outside the runner.
REORDER_PREPROCESS = PreprocessSpec(stages=(StageSpec.make("locality-reorder"),))

Table = tuple[str, list[str], list[list[object]]]
Runs = Mapping[RunSpec, RunResult]
K = TypeVar("K", bound=Hashable)


@dataclasses.dataclass(frozen=True)
class Figure:
    """One paper table/figure: the runs it reads and how they reduce."""

    matrix: tuple[RunSpec, ...]
    reduce: Callable[[Runner, Runs], Table]

    def __call__(self, runner: Runner) -> Table:
        # ``runner.run``, not ``run_many``: a figure rendered after a batch
        # must leave the batch's ``last_execution_report`` in place.
        return self.reduce(runner, {spec: runner.run(spec) for spec in self.matrix})


def figure(
    matrix: Iterable[RunSpec] = (),
) -> Callable[[Callable[[Runner, Runs], Table]], Figure]:
    """Decorate a reduce function into the :class:`Figure` over ``matrix``."""
    specs = tuple(matrix)
    return lambda reduce: Figure(specs, reduce)


def _specs(
    engines: tuple[str, ...],
    apps: tuple[str, ...],
    datasets: tuple[str, ...],
    config: SystemConfig | None = None,
) -> list[RunSpec]:
    """The cross product apps × datasets × engines (engines innermost)."""
    return [
        RunSpec(engine=e, algorithm=a, dataset=d, config=config)
        for a in apps
        for d in datasets
        for e in engines
    ]


def _group(runs: Runs, key: Callable[[RunSpec], K]) -> dict[K, list[RunResult]]:
    """``runs`` in matrix order, grouped by ``key`` of their spec."""
    groups: dict[K, list[RunResult]] = {}
    for spec, result in runs.items():
        groups.setdefault(key(spec), []).append(result)
    return groups


def _app_dataset(spec: RunSpec) -> tuple[str, str]:
    return spec.algorithm, spec.dataset


def _dataset(runs: Runs) -> str:
    """The dataset of a single-dataset matrix (named in its title)."""
    return next(iter(runs)).dataset


def run_matrix(ids: Iterable[str]) -> list[RunSpec]:
    """The deduplicated union of the given figures' matrices, in order of
    first occurrence (the shard planner relies on that determinism)."""
    return list(dict.fromkeys(s for i in ids for s in FIGURES[i].matrix))


# -- configuration tables ----------------------------------------------------


def table1_rows() -> Table:
    config = table1_config()
    rows: list[list[object]] = [
        ["Cores", f"{config.num_cores} cores, x86-64, {config.frequency_ghz}GHz, OOO"],
        ["L1 caches", f"{config.l1_size // 1024}KB per-core, {config.l1_assoc}-way, "
                      f"{config.l1_latency}-cycle latency"],
        ["L2 cache", f"{config.l2_size // 1024}KB per-core, {config.l2_assoc}-way, "
                     f"{config.l2_latency}-cycle latency"],
        ["L3 cache", f"{config.l3_size // (1024 * 1024)}MB shared, {config.l3_banks} banks, "
                     f"{config.l3_assoc}-way, inclusive={config.inclusive_l3}, "
                     f"{config.l3_latency}-cycle bank latency"],
        ["NoC", f"4x4 mesh, X-Y routing, {config.noc_router_latency}-cycle routers, "
                f"{config.noc_link_latency}-cycle links"],
        ["Coherence", "presence + dirty bits, 64B lines (synchronous engines)"],
        ["Main memory", f"{config.dram_controllers} controllers, "
                        f"{config.dram_gbps_per_controller} GB/s each"],
    ]
    return "Table I: simulated system configuration", ["Structure", "Configuration"], rows


@figure()
def table2_rows(runner: Runner, runs: Runs) -> Table:
    rows: list[list[object]] = []
    for key in PAPER_DATASETS:
        stats = dataset_stats(runner.dataset(key))
        rows.append([
            stats.name,
            stats.num_vertices,
            stats.num_hyperedges,
            stats.num_bipartite_edges,
            round(stats.size_mb, 2),
        ])
    return (
        "Table II: hypergraph datasets (scaled stand-ins)",
        ["Dataset", "#Vertices", "#Hyperedges", "#BEdges", "Size (MB)"],
        rows,
    )


# -- headline figures ------------------------------------------------------


@figure(_specs(("Hygra", "GLA", "ChGraph"), ("PR",), ("WEB",)))
def fig02_memory_accesses(runner: Runner, runs: Runs) -> Table:
    """GLA reduces main-memory accesses vs Hygra (PR on WEB)."""
    hygra, gla, chg = runs.values()
    rows: list[list[object]] = [
        ["Hygra", hygra.dram_accesses, 1.0],
        ["GLA", gla.dram_accesses, hygra.dram_accesses / gla.dram_accesses],
        ["ChGraph", chg.dram_accesses, hygra.dram_accesses / chg.dram_accesses],
    ]
    return (
        "Figure 2: main-memory accesses, PR on WEB",
        ["System", "DRAM accesses", "Reduction vs Hygra", ""],
        with_bars(rows, 1),
    )


@figure(_specs(("Hygra", "GLA", "ChGraph"), ("PR",), ("WEB",)))
def fig03_performance(runner: Runner, runs: Runs) -> Table:
    """Software GLA is slower than Hygra; ChGraph reverses it (PR on WEB)."""
    hygra, gla, chg = runs.values()
    rows: list[list[object]] = [
        ["Hygra", hygra.cycles, 1.0],
        ["GLA", gla.cycles, gla.speedup_over(hygra)],
        ["ChGraph", chg.cycles, chg.speedup_over(hygra)],
    ]
    return (
        "Figure 3: execution time, PR on WEB (speedup vs Hygra; <1 is slower)",
        ["System", "Cycles", "Speedup vs Hygra", ""],
        with_bars(rows, 1),
    )


@figure(_specs(("Hygra",), ("BFS", "PR", "BC", "CC"), PAPER_DATASETS))
def fig05_memory_stalls(runner: Runner, runs: Runs) -> Table:
    """Fraction of Hygra execution time stalled on main memory."""
    datasets = list(dict.fromkeys(spec.dataset for spec in runs))
    rows: list[list[object]] = [
        [app, *(run.memory_stall_fraction for run in app_runs)]
        for app, app_runs in _group(runs, lambda s: s.algorithm).items()
    ]
    return (
        "Figure 5: fraction of time stalled on memory (Hygra)",
        ["App", *datasets],
        rows,
    )


@figure(_specs(("HATS-V", "ChGraph"), ("BFS", "PR"), PAPER_DATASETS))
def fig07_hats_v(runner: Runner, runs: Runs) -> Table:
    """ChGraph vs the HATS-V variant, normalized to HATS-V."""
    rows: list[list[object]] = [
        [app, dataset, chg.speedup_over(hats)]
        for (app, dataset), (hats, chg) in _group(runs, _app_dataset).items()
    ]
    return (
        "Figure 7: ChGraph speedup over HATS-V",
        ["App", "Dataset", "ChGraph vs HATS-V"],
        rows,
    )


@figure()
def fig08_overlap(runner: Runner, runs: Runs) -> Table:
    """Sharable ratios of vertices and hyperedges (two panels in one table).

    The paper plots thresholds 2..7 for datasets with mean degrees 3-37; the
    scaled stand-ins keep paper-scale hyperedge degrees but higher vertex
    degrees, so the discriminating thresholds sit higher.
    """
    thresholds = (2, 8, 32, 64)
    rows: list[list[object]] = []
    for side in ("vertex", "hyperedge"):
        for dataset in PAPER_DATASETS:
            curve = overlap_curve(runner.dataset(dataset), side, thresholds)
            rows.append([side, dataset, *[curve[t] for t in thresholds]])
    return (
        "Figure 8: sharable ratio vs sharing threshold",
        ["Side", "Dataset", *[f">={t}" for t in thresholds]],
        rows,
    )


@figure(_specs(("Hygra", "GLA", "ChGraph"), PAPER_APPS, PAPER_DATASETS))
def fig14_performance(runner: Runner, runs: Runs) -> Table:
    """Hygra vs software GLA vs ChGraph across apps and datasets."""
    rows: list[list[object]] = [
        [
            app,
            dataset,
            gla.speedup_over(hygra),
            chg.speedup_over(hygra),
            chg.dram_reduction_over(hygra),
        ]
        for (app, dataset), (hygra, gla, chg) in _group(runs, _app_dataset).items()
    ]
    return (
        "Figure 14: speedup over Hygra (GLA < 1 means slower)",
        ["App", "Dataset", "GLA", "ChGraph", "DRAM reduction"],
        rows,
    )


@figure(_specs(("Hygra", "ChGraph"), PAPER_APPS, PAPER_DATASETS))
def fig15_breakdown(runner: Runner, runs: Runs) -> Table:
    """Main-memory access breakdown by array group, Hygra (H) vs ChGraph (C)."""
    groups = ("offset", "incident", "value", "oag", "other")
    rows: list[list[object]] = []
    for (app, dataset), (hygra, chg) in _group(runs, _app_dataset).items():
        for name, run in (("H", hygra), ("C", chg)):
            breakdown = run.dram_by_group
            rows.append([
                app, dataset, name, run.dram_accesses,
                *[breakdown[g] for g in groups],
            ])
    return (
        "Figure 15: DRAM access breakdown (H=Hygra, C=ChGraph)",
        ["App", "Dataset", "Sys", "Total", *groups],
        rows,
    )


@figure(_specs(("GLA", "ChGraph-HCGonly", "ChGraph"), PAPER_APPS, ("WEB",)))
def fig16_hw_breakdown(runner: Runner, runs: Runs) -> Table:
    """Benefit breakdown of HCG and CP over the software GLA baseline."""
    rows: list[list[object]] = [
        [
            app,
            hcg.speedup_over(gla),
            full.speedup_over(hcg),
            full.speedup_over(gla),
        ]
        for app, (gla, hcg, full) in _group(runs, lambda s: s.algorithm).items()
    ]
    return (
        f"Figure 16: hardware benefit breakdown on {_dataset(runs)} "
        "(vs software GLA)",
        ["App", "+HCG", "+CP (over HCG)", "Full ChGraph"],
        rows,
    )


# -- sensitivity sweeps --------------------------------------------------------


def _sweep(runs: Runs, label: Callable[[RunSpec], object]) -> list[list[object]]:
    """One ``[label, cycles, speedup vs the first run]`` row per run."""
    base = next(iter(runs.values())).cycles
    return [
        [label(spec), run.cycles, base / run.cycles] for spec, run in runs.items()
    ]


@figure([
    RunSpec("ChGraph", "PR", "WEB", preprocessing=PreprocessSpec(d_max=d))
    for d in (2, 4, 8, 16, 32, 64)
])
def fig17_dmax_sweep(runner: Runner, runs: Runs) -> Table:
    """ChGraph PR performance vs maximum exploration depth D_max."""
    rows = _sweep(runs, lambda s: s.resolved_preprocessing().d_max)
    return (
        f"Figure 17: D_max sweep, PR on {_dataset(runs)} "
        f"(speedup vs D_max={rows[0][0]})",
        ["D_max", "Cycles", "Speedup", ""],
        with_bars(rows, 2),
    )


@figure([
    RunSpec("ChGraph", "PR", "WEB", preprocessing=PreprocessSpec(w_min=w))
    for w in (1, 3, 9, 17, 33, 65)
])
def fig18_wmin_sweep(runner: Runner, runs: Runs) -> Table:
    """ChGraph PR performance vs the OAG pruning threshold W_min.

    The paper sweeps 1..9 against datasets whose overlap weights are mostly
    1-3; the scaled stand-ins carry paper-scale hyperedge degrees (45-58),
    so their weights sit near 20-45 and the decline appears at
    correspondingly larger thresholds — same shape, shifted axis.
    """
    rows = _sweep(runs, lambda s: s.resolved_preprocessing().w_min)
    return (
        f"Figure 18: W_min sweep, PR on {_dataset(runs)} "
        f"(performance vs W_min={rows[0][0]})",
        ["W_min", "Cycles", "Relative performance", ""],
        with_bars(rows, 2),
    )


@figure([
    RunSpec("ChGraph", "PR", "WEB", scaled_config(llc_kb=llc)) for llc in (2, 4, 6, 8)
])
def fig19_llc_sweep(runner: Runner, runs: Runs) -> Table:
    """ChGraph PR on WEB vs LLC size (paper: 8-32 MB; scaled: 2-8 KB)."""
    rows = _sweep(runs, lambda s: f"{s.resolved_config().l3_size // 1024}KB")
    return (
        f"Figure 19: LLC size sweep, ChGraph PR on {_dataset(runs)}",
        ["LLC", "Cycles", "Speedup vs smallest", ""],
        with_bars(rows, 2),
    )


@figure([
    spec
    for n in (4, 8, 16)
    for spec in _specs(
        ("Hygra", "ChGraph"), ("PR",), ("WEB",), scaled_config(num_cores=n)
    )
])
def fig20_core_scaling(runner: Runner, runs: Runs) -> Table:
    """PR scaling with core count, ChGraph vs Hygra."""
    by_cores = _group(runs, lambda s: s.resolved_config().num_cores)
    rows: list[list[object]] = [
        [n, hygra.cycles, chg.cycles, chg.speedup_over(hygra)]
        for n, (hygra, chg) in by_cores.items()
    ]
    return (
        f"Figure 20: core-count scaling, PR on {_dataset(runs)}",
        ["Cores", "Hygra cycles", "ChGraph cycles", "Speedup"],
        rows,
    )


# -- preprocessing ------------------------------------------------------------


def _preprocess_costs(runner: Runner, dataset_key: str) -> tuple[float, float, int]:
    """(hygra_cycles, chgraph_extra_cycles, oag_bytes) for preprocessing.

    Hygra builds the two bipartite CSR directions (~4 ops per bipartite
    edge); ChGraph additionally builds the per-chunk OAGs, whose elementary
    operation count the builder reports.
    """
    hypergraph = runner.dataset(dataset_key)
    config = scaled_config()
    bipartite_ops = 4 * hypergraph.num_bipartite_edges
    resources = runner.resources(hypergraph, config)
    hygra_cycles = bipartite_ops * PREPROCESS_OP_CYCLES / config.num_cores
    oag_cycles = resources.build_operations * OAG_OP_CYCLES / config.num_cores
    return hygra_cycles, oag_cycles, resources.storage_bytes()


@figure()
def fig21_preprocessing(runner: Runner, runs: Runs) -> Table:
    """Extra preprocessing time and storage of ChGraph over Hygra."""
    rows: list[list[object]] = []
    for dataset in PAPER_DATASETS:
        hygra_cycles, oag_cycles, oag_bytes = _preprocess_costs(runner, dataset)
        hypergraph = runner.dataset(dataset)
        rows.append([
            dataset,
            100.0 * oag_cycles / hygra_cycles,
            100.0 * oag_bytes / hypergraph.size_bytes(),
        ])
    return (
        "Figure 21: preprocessing overhead of ChGraph vs Hygra",
        ["Dataset", "Extra preprocess time (%)", "Extra storage (%)"],
        rows,
    )


@figure(_specs(("Hygra", "ChGraph"), ("BFS", "PR", "CC"), PAPER_DATASETS))
def fig22_total_time(runner: Runner, runs: Runs) -> Table:
    """Total running time including preprocessing, normalized to Hygra."""
    rows: list[list[object]] = []
    for (app, dataset), (hygra, chg) in _group(runs, _app_dataset).items():
        hygra_pre, oag_pre, _ = _preprocess_costs(runner, dataset)
        total_hygra = hygra.cycles + hygra_pre
        total_chg = chg.cycles + hygra_pre + oag_pre
        rows.append([app, dataset, total_hygra / total_chg])
    return (
        "Figure 22: total time (incl. preprocessing) speedup over Hygra",
        ["App", "Dataset", "ChGraph speedup"],
        rows,
    )


# -- alternatives -----------------------------------------------------------


@figure(_specs(
    ("EventPrefetcher", "ChGraph", "Hygra"), ("BFS", "PR", "CC"), PAPER_DATASETS
))
def fig23_prefetcher(runner: Runner, runs: Runs) -> Table:
    """ChGraph vs the event-driven hardware prefetcher."""
    rows: list[list[object]] = [
        [app, dataset, pref.speedup_over(hygra), chg.speedup_over(pref)]
        for (app, dataset), (pref, chg, hygra) in _group(runs, _app_dataset).items()
    ]
    return (
        "Figure 23: vs event-driven prefetcher",
        ["App", "Dataset", "Prefetcher vs Hygra", "ChGraph vs Prefetcher"],
        rows,
    )


@figure([
    RunSpec(engine, "PR", "WEB", preprocessing=preprocessing)
    for preprocessing in (None, REORDER_PREPROCESS)
    for engine in ("Hygra", "ChGraph")
])
def fig24_reordering(runner: Runner, runs: Runs) -> Table:
    """Spatial reordering does not beat chain scheduling (PR).

    The reordered systems are ordinary runs whose spec carries the
    ``locality-reorder`` pipeline stage; the reordering cost comes from the
    runner's memoized pipeline result, so the comparison charges exactly
    the preprocessing work the runs actually performed.
    """
    dataset = _dataset(runs)
    pipeline = runner.pipeline(runner.dataset(dataset), REORDER_PREPROCESS)
    reorder_cycles = pipeline.cost_accesses * PREPROCESS_OP_CYCLES

    hygra, chg, hygra_re, chg_re = runs.values()
    rows: list[list[object]] = [
        ["Hygra", hygra.cycles, 1.0],
        ["Hygra+Reorder", hygra_re.cycles + reorder_cycles,
         hygra.cycles / (hygra_re.cycles + reorder_cycles)],
        ["ChGraph", chg.cycles, hygra.cycles / chg.cycles],
        ["ChGraph+Reorder", chg_re.cycles + reorder_cycles,
         hygra.cycles / (chg_re.cycles + reorder_cycles)],
    ]
    return (
        f"Figure 24: reordering comparison, PR on {dataset} (incl. reorder cost)",
        ["System", "Cycles", "Speedup vs Hygra"],
        rows,
    )


@figure(_specs(
    ("Ligra", "HATS-V", "ChGraph"), ("Adsorption", "SSSP"), GRAPH_DATASETS
))
def fig25_graph_apps(runner: Runner, runs: Runs) -> Table:
    """Ordinary-graph apps: ChGraph vs Ligra and HATS (§VI-I)."""
    rows: list[list[object]] = [
        [app, dataset, chg.speedup_over(ligra), chg.speedup_over(hats)]
        for (app, dataset), (ligra, hats, chg) in _group(runs, _app_dataset).items()
    ]
    return (
        "Figure 25: graph applications (speedups of ChGraph)",
        ["App", "Graph", "vs Ligra", "vs HATS"],
        rows,
    )


@figure(_specs(
    ("Hygra", "ChGraph", "GLA"), ("BFS", "PR", "CC"), PAPER_DATASETS
))
def headline_summary(runner: Runner, runs: Runs) -> Table:
    """The abstract's claims, condensed: per-app speedup and DRAM reduction."""
    per_app: dict[str, list[tuple[float, float, float]]] = {}
    for (app, _), (hygra, chg, soft) in _group(runs, _app_dataset).items():
        per_app.setdefault(app, []).append((
            chg.speedup_over(hygra),
            chg.dram_reduction_over(hygra),
            soft.speedup_over(hygra),
        ))
    rows: list[list[object]] = []
    for app, per_dataset in per_app.items():
        speedups, reductions, gla = zip(*per_dataset)
        rows.append([
            app,
            min(speedups), max(speedups),
            min(reductions), max(reductions),
            sum(gla) / len(gla),
        ])
    return (
        "Headline summary (paper: speedup 3.39-4.73x, DRAM 2.77-4.56x, GLA < 1)",
        ["App", "Speedup min", "max", "DRAM red min", "max", "GLA mean"],
        rows,
    )


def vi_e_area_power() -> Table:
    """The §VI-E area/power/storage accounting."""
    report = area_report()
    rows: list[list[object]] = [
        ["Stack storage", f"{report.stack_bytes} B"],
        ["Chain FIFO storage", f"{report.chain_fifo_bytes} B"],
        ["Bipartite-edge FIFO storage", f"{report.tuple_fifo_bytes} B"],
        ["Config registers", f"{report.register_bytes} B"],
        ["Total area", f"{report.total_mm2:.3f} mm2"],
        ["Area vs core", f"{report.area_fraction_of_core:.2%}"],
        ["Total power", f"{report.total_mw:.0f} mW"],
        ["Power vs core TDP", f"{report.power_fraction_of_core:.2%}"],
    ]
    return "Section VI-E: ChGraph area and power", ["Quantity", "Value"], rows


#: Every reproduced table/figure by experiment id, in presentation order.
FIGURES: dict[str, Figure] = {
    "table1": Figure((), lambda runner, runs: table1_rows()),
    "table2": table2_rows,
    "fig02": fig02_memory_accesses,
    "fig03": fig03_performance,
    "fig05": fig05_memory_stalls,
    "fig07": fig07_hats_v,
    "fig08": fig08_overlap,
    "fig14": fig14_performance,
    "fig15": fig15_breakdown,
    "fig16": fig16_hw_breakdown,
    "fig17": fig17_dmax_sweep,
    "fig18": fig18_wmin_sweep,
    "fig19": fig19_llc_sweep,
    "fig20": fig20_core_scaling,
    "fig21": fig21_preprocessing,
    "fig22": fig22_total_time,
    "fig23": fig23_prefetcher,
    "fig24": fig24_reordering,
    "fig25": fig25_graph_apps,
    "vi_e": Figure((), lambda runner, runs: vi_e_area_power()),
    "summary": headline_summary,
}
