"""One function per paper table/figure: the reproduction registry.

Each function returns ``(title, headers, rows)`` ready for
:func:`repro.harness.report.render_table`.  Benchmarks print the table and
assert the paper's qualitative shape; EXPERIMENTS.md records the measured
numbers next to the paper's.
"""

from __future__ import annotations

from typing import Iterable

from repro.chgraph.area import area_report
from repro.harness.datasets import GRAPH_DATASETS
from repro.harness.runner import PAPER_APPS, Runner
from repro.harness.spec import RunSpec
from repro.hypergraph.generators import PAPER_DATASETS
from repro.harness.report import with_bars
from repro.hypergraph.pipeline import PreprocessSpec, StageSpec
from repro.hypergraph.stats import dataset_stats, overlap_curve
from repro.sim.config import SystemConfig, scaled_config, table1_config

__all__ = [
    "RUN_MATRICES",
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


# -- run matrices ------------------------------------------------------------


def _specs(
    engines: tuple[str, ...],
    apps: tuple[str, ...],
    datasets: tuple[str, ...],
    config: SystemConfig | None = None,
) -> list[RunSpec]:
    """The cross product of engines × apps × datasets as run specs."""
    return [
        RunSpec(engine=e, algorithm=a, dataset=d, config=config)
        for a in apps
        for d in datasets
        for e in engines
    ]


def _fig17_specs(depths: tuple[int, ...] = (2, 4, 8, 16, 32, 64)) -> list[RunSpec]:
    return [
        RunSpec("ChGraph", "PR", "WEB", preprocessing=PreprocessSpec(d_max=d))
        for d in depths
    ]


def _fig18_specs(
    thresholds: tuple[int, ...] = (1, 3, 9, 17, 33, 65),
) -> list[RunSpec]:
    return [
        RunSpec("ChGraph", "PR", "WEB", preprocessing=PreprocessSpec(w_min=w))
        for w in thresholds
    ]


def _fig24_specs() -> list[RunSpec]:
    plain = _specs(("Hygra", "ChGraph"), ("PR",), ("WEB",))
    return plain + [
        RunSpec(spec.engine, "PR", "WEB", preprocessing=REORDER_PREPROCESS)
        for spec in plain
    ]


def _fig19_specs() -> list[RunSpec]:
    return [
        RunSpec("ChGraph", "PR", "WEB", scaled_config(llc_kb=llc))
        for llc in (2, 4, 6, 8)
    ]


def _fig20_specs() -> list[RunSpec]:
    return [
        spec
        for n in (4, 8, 16)
        for spec in _specs(
            ("Hygra", "ChGraph"), ("PR",), ("WEB",), scaled_config(num_cores=n)
        )
    ]


#: The ``runner.run`` matrix each figure consumes, declared up front so the
#: sharded executor (:mod:`repro.harness.parallel`) can run a whole figure
#: suite in parallel before the figure functions assemble their tables from
#: warm cache hits.  Since every run — including the fig17/fig18 sensitivity
#: sweeps and fig24's reordered engines — is now expressed as a
#: :class:`~repro.harness.spec.RunSpec` with its own preprocessing record,
#: every figure's full matrix is declared here; only config tables declare
#: nothing.
RUN_MATRICES = {
    "fig02": lambda: _specs(("Hygra", "GLA", "ChGraph"), ("PR",), ("WEB",)),
    "fig03": lambda: _specs(("Hygra", "GLA", "ChGraph"), ("PR",), ("WEB",)),
    "fig05": lambda: _specs(("Hygra",), ("BFS", "PR", "BC", "CC"), PAPER_DATASETS),
    "fig07": lambda: _specs(("HATS-V", "ChGraph"), ("BFS", "PR"), PAPER_DATASETS),
    "fig14": lambda: _specs(("Hygra", "GLA", "ChGraph"), PAPER_APPS, PAPER_DATASETS),
    "fig15": lambda: _specs(("Hygra", "ChGraph"), PAPER_APPS, PAPER_DATASETS),
    "fig16": lambda: _specs(
        ("GLA", "ChGraph-HCGonly", "ChGraph"), PAPER_APPS, ("WEB",)
    ),
    "fig17": _fig17_specs,
    "fig18": _fig18_specs,
    "fig19": _fig19_specs,
    "fig20": _fig20_specs,
    "fig22": lambda: _specs(("Hygra", "ChGraph"), ("BFS", "PR", "CC"), PAPER_DATASETS),
    "fig23": lambda: _specs(
        ("EventPrefetcher", "ChGraph", "Hygra"), ("BFS", "PR", "CC"), PAPER_DATASETS
    ),
    "fig24": _fig24_specs,
    "fig25": lambda: _specs(
        ("Ligra", "HATS-V", "ChGraph"), ("Adsorption", "SSSP"), GRAPH_DATASETS
    ),
    "summary": lambda: _specs(
        ("Hygra", "ChGraph", "GLA"), ("BFS", "PR", "CC"), PAPER_DATASETS
    ),
}


def run_matrix(ids: Iterable[str]) -> list[RunSpec]:
    """The deduplicated union run matrix of the given experiment ids.

    Ids without a declared matrix (config tables, bespoke-resource sweeps)
    contribute nothing; order follows first occurrence, so equal id lists
    always produce the identical matrix — the shard planner relies on that
    determinism.
    """
    specs: list[RunSpec] = []
    for experiment_id in ids:
        factory = RUN_MATRICES.get(experiment_id)
        if factory is not None:
            specs.extend(factory())
    return list(dict.fromkeys(specs))


# -- configuration tables ----------------------------------------------------


def table1_rows() -> tuple[str, list[str], list[list[object]]]:
    config = table1_config()
    rows = [
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


def table2_rows(runner: Runner) -> tuple[str, list[str], list[list[object]]]:
    rows = []
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


def fig02_memory_accesses(runner: Runner) -> tuple[str, list[str], list[list[object]]]:
    """GLA reduces main-memory accesses vs Hygra (PR on WEB)."""
    hygra = runner.run(RunSpec("Hygra", "PR", "WEB"))
    gla = runner.run(RunSpec("GLA", "PR", "WEB"))
    chg = runner.run(RunSpec("ChGraph", "PR", "WEB"))
    rows = [
        ["Hygra", hygra.dram_accesses, 1.0],
        ["GLA", gla.dram_accesses, hygra.dram_accesses / gla.dram_accesses],
        ["ChGraph", chg.dram_accesses, hygra.dram_accesses / chg.dram_accesses],
    ]
    return (
        "Figure 2: main-memory accesses, PR on WEB",
        ["System", "DRAM accesses", "Reduction vs Hygra", ""],
        with_bars(rows, 1),
    )


def fig03_performance(runner: Runner) -> tuple[str, list[str], list[list[object]]]:
    """Software GLA is slower than Hygra; ChGraph reverses it (PR on WEB)."""
    hygra = runner.run(RunSpec("Hygra", "PR", "WEB"))
    gla = runner.run(RunSpec("GLA", "PR", "WEB"))
    chg = runner.run(RunSpec("ChGraph", "PR", "WEB"))
    rows = [
        ["Hygra", hygra.cycles, 1.0],
        ["GLA", gla.cycles, gla.speedup_over(hygra)],
        ["ChGraph", chg.cycles, chg.speedup_over(hygra)],
    ]
    return (
        "Figure 3: execution time, PR on WEB (speedup vs Hygra; <1 is slower)",
        ["System", "Cycles", "Speedup vs Hygra", ""],
        with_bars(rows, 1),
    )


def fig05_memory_stalls(
    runner: Runner, apps: tuple[str, ...] = ("BFS", "PR", "BC", "CC")
) -> tuple[str, list[str], list[list[object]]]:
    """Fraction of Hygra execution time stalled on main memory."""
    rows = []
    for app in apps:
        row: list[object] = [app]
        for dataset in PAPER_DATASETS:
            run = runner.run(RunSpec("Hygra", app, dataset))
            row.append(run.memory_stall_fraction)
        rows.append(row)
    return (
        "Figure 5: fraction of time stalled on memory (Hygra)",
        ["App", *PAPER_DATASETS],
        rows,
    )


def fig07_hats_v(
    runner: Runner, apps: tuple[str, ...] = ("BFS", "PR")
) -> tuple[str, list[str], list[list[object]]]:
    """ChGraph vs the HATS-V variant, normalized to HATS-V."""
    rows = []
    for app in apps:
        for dataset in PAPER_DATASETS:
            hats = runner.run(RunSpec("HATS-V", app, dataset))
            chg = runner.run(RunSpec("ChGraph", app, dataset))
            rows.append([app, dataset, chg.speedup_over(hats)])
    return (
        "Figure 7: ChGraph speedup over HATS-V",
        ["App", "Dataset", "ChGraph vs HATS-V"],
        rows,
    )


def fig08_overlap(
    runner: Runner, thresholds: tuple[int, ...] = (2, 8, 32, 64)
) -> tuple[str, list[str], list[list[object]]]:
    """Sharable ratios of vertices and hyperedges (two panels in one table).

    The paper plots thresholds 2..7 for datasets with mean degrees 3-37; the
    scaled stand-ins keep paper-scale hyperedge degrees but higher vertex
    degrees, so the discriminating thresholds sit higher.
    """
    rows = []
    for side in ("vertex", "hyperedge"):
        for dataset in PAPER_DATASETS:
            curve = overlap_curve(runner.dataset(dataset), side, thresholds)
            rows.append([side, dataset, *[curve[t] for t in thresholds]])
    return (
        "Figure 8: sharable ratio vs sharing threshold",
        ["Side", "Dataset", *[f">={t}" for t in thresholds]],
        rows,
    )


def fig14_performance(
    runner: Runner, apps: tuple[str, ...] = PAPER_APPS
) -> tuple[str, list[str], list[list[object]]]:
    """Hygra vs software GLA vs ChGraph across apps and datasets."""
    rows = []
    for app in apps:
        for dataset in PAPER_DATASETS:
            hygra = runner.run(RunSpec("Hygra", app, dataset))
            gla = runner.run(RunSpec("GLA", app, dataset))
            chg = runner.run(RunSpec("ChGraph", app, dataset))
            rows.append([
                app,
                dataset,
                gla.speedup_over(hygra),
                chg.speedup_over(hygra),
                chg.dram_reduction_over(hygra),
            ])
    return (
        "Figure 14: speedup over Hygra (GLA < 1 means slower)",
        ["App", "Dataset", "GLA", "ChGraph", "DRAM reduction"],
        rows,
    )


def fig15_breakdown(
    runner: Runner, apps: tuple[str, ...] = PAPER_APPS
) -> tuple[str, list[str], list[list[object]]]:
    """Main-memory access breakdown by array group, Hygra (H) vs ChGraph (C)."""
    groups = ("offset", "incident", "value", "oag", "other")
    rows = []
    for app in apps:
        for dataset in PAPER_DATASETS:
            for name, run in (
                ("H", runner.run(RunSpec("Hygra", app, dataset))),
                ("C", runner.run(RunSpec("ChGraph", app, dataset))),
            ):
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


def fig16_hw_breakdown(
    runner: Runner,
    apps: tuple[str, ...] = PAPER_APPS,
    dataset: str = "WEB",
) -> tuple[str, list[str], list[list[object]]]:
    """Benefit breakdown of HCG and CP over the software GLA baseline."""
    rows = []
    for app in apps:
        gla = runner.run(RunSpec("GLA", app, dataset))
        hcg = runner.run(RunSpec("ChGraph-HCGonly", app, dataset))
        full = runner.run(RunSpec("ChGraph", app, dataset))
        rows.append([
            app,
            hcg.speedup_over(gla),
            full.speedup_over(hcg),
            full.speedup_over(gla),
        ])
    return (
        f"Figure 16: hardware benefit breakdown on {dataset} (vs software GLA)",
        ["App", "+HCG", "+CP (over HCG)", "Full ChGraph"],
        rows,
    )


# -- sensitivity sweeps --------------------------------------------------------


def fig17_dmax_sweep(
    runner: Runner,
    dataset: str = "WEB",
    depths: tuple[int, ...] = (2, 4, 8, 16, 32, 64),
) -> tuple[str, list[str], list[list[object]]]:
    """ChGraph PR performance vs maximum exploration depth D_max."""
    runs = {
        d: runner.run(
            RunSpec("ChGraph", "PR", dataset, preprocessing=PreprocessSpec(d_max=d))
        )
        for d in depths
    }
    base = runs[depths[0]].cycles
    rows = [[d, runs[d].cycles, base / runs[d].cycles] for d in depths]
    return (
        f"Figure 17: D_max sweep, PR on {dataset} (speedup vs D_max={depths[0]})",
        ["D_max", "Cycles", "Speedup", ""],
        with_bars(rows, 2),
    )


def fig18_wmin_sweep(
    runner: Runner,
    dataset: str = "WEB",
    thresholds: tuple[int, ...] = (1, 3, 9, 17, 33, 65),
) -> tuple[str, list[str], list[list[object]]]:
    """ChGraph PR performance vs the OAG pruning threshold W_min.

    The paper sweeps 1..9 against datasets whose overlap weights are mostly
    1-3; the scaled stand-ins carry paper-scale hyperedge degrees (45-58),
    so their weights sit near 20-45 and the decline appears at
    correspondingly larger thresholds — same shape, shifted axis.
    """
    runs = {
        w: runner.run(
            RunSpec("ChGraph", "PR", dataset, preprocessing=PreprocessSpec(w_min=w))
        )
        for w in thresholds
    }
    base = runs[thresholds[0]].cycles
    rows = [[w, runs[w].cycles, base / runs[w].cycles] for w in thresholds]
    return (
        f"Figure 18: W_min sweep, PR on {dataset} "
        f"(performance vs W_min={thresholds[0]})",
        ["W_min", "Cycles", "Relative performance", ""],
        with_bars(rows, 2),
    )


def fig19_llc_sweep(
    runner: Runner,
    dataset: str = "WEB",
    llc_kbs: tuple[int, ...] = (2, 4, 6, 8),
) -> tuple[str, list[str], list[list[object]]]:
    """ChGraph PR on WEB vs LLC size (paper: 8-32 MB; scaled: 2-8 KB)."""
    rows = []
    base_cycles = None
    for llc in llc_kbs:
        config = scaled_config(llc_kb=llc)
        run = runner.run(RunSpec("ChGraph", "PR", dataset, config))
        if base_cycles is None:
            base_cycles = run.cycles
        rows.append([f"{llc}KB", run.cycles, base_cycles / run.cycles])
    return (
        f"Figure 19: LLC size sweep, ChGraph PR on {dataset}",
        ["LLC", "Cycles", "Speedup vs smallest", ""],
        with_bars(rows, 2),
    )


def fig20_core_scaling(
    runner: Runner,
    dataset: str = "WEB",
    cores: tuple[int, ...] = (4, 8, 16),
) -> tuple[str, list[str], list[list[object]]]:
    """PR scaling with core count, ChGraph vs Hygra."""
    rows = []
    for n in cores:
        config = scaled_config(num_cores=n)
        hygra = runner.run(RunSpec("Hygra", "PR", dataset, config))
        chg = runner.run(RunSpec("ChGraph", "PR", dataset, config))
        rows.append([n, hygra.cycles, chg.cycles, chg.speedup_over(hygra)])
    return (
        f"Figure 20: core-count scaling, PR on {dataset}",
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


def fig21_preprocessing(runner: Runner) -> tuple[str, list[str], list[list[object]]]:
    """Extra preprocessing time and storage of ChGraph over Hygra."""
    rows = []
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


def fig22_total_time(
    runner: Runner, apps: tuple[str, ...] = ("BFS", "PR", "CC")
) -> tuple[str, list[str], list[list[object]]]:
    """Total running time including preprocessing, normalized to Hygra."""
    rows = []
    for app in apps:
        for dataset in PAPER_DATASETS:
            hygra_pre, oag_pre, _ = _preprocess_costs(runner, dataset)
            hygra = runner.run(RunSpec("Hygra", app, dataset))
            chg = runner.run(RunSpec("ChGraph", app, dataset))
            total_hygra = hygra.cycles + hygra_pre
            total_chg = chg.cycles + hygra_pre + oag_pre
            rows.append([app, dataset, total_hygra / total_chg])
    return (
        "Figure 22: total time (incl. preprocessing) speedup over Hygra",
        ["App", "Dataset", "ChGraph speedup"],
        rows,
    )


# -- alternatives -----------------------------------------------------------


def fig23_prefetcher(
    runner: Runner, apps: tuple[str, ...] = ("BFS", "PR", "CC")
) -> tuple[str, list[str], list[list[object]]]:
    """ChGraph vs the event-driven hardware prefetcher."""
    rows = []
    for app in apps:
        for dataset in PAPER_DATASETS:
            pref = runner.run(RunSpec("EventPrefetcher", app, dataset))
            chg = runner.run(RunSpec("ChGraph", app, dataset))
            hygra = runner.run(RunSpec("Hygra", app, dataset))
            rows.append([
                app,
                dataset,
                pref.speedup_over(hygra),
                chg.speedup_over(pref),
            ])
    return (
        "Figure 23: vs event-driven prefetcher",
        ["App", "Dataset", "Prefetcher vs Hygra", "ChGraph vs Prefetcher"],
        rows,
    )


def fig24_reordering(
    runner: Runner, dataset: str = "WEB"
) -> tuple[str, list[str], list[list[object]]]:
    """Spatial reordering does not beat chain scheduling (PR).

    The reordered systems are ordinary runs whose spec carries the
    ``locality-reorder`` pipeline stage; the reordering cost comes from the
    runner's memoized pipeline result, so the comparison charges exactly
    the preprocessing work the runs actually performed.
    """
    pipeline = runner.pipeline(runner.dataset(dataset), REORDER_PREPROCESS)
    reorder_cycles = pipeline.cost_accesses * PREPROCESS_OP_CYCLES

    hygra = runner.run(RunSpec("Hygra", "PR", dataset))
    chg = runner.run(RunSpec("ChGraph", "PR", dataset))
    hygra_re = runner.run(
        RunSpec("Hygra", "PR", dataset, preprocessing=REORDER_PREPROCESS)
    )
    chg_re = runner.run(
        RunSpec("ChGraph", "PR", dataset, preprocessing=REORDER_PREPROCESS)
    )
    rows = [
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


def fig25_graph_apps(runner: Runner) -> tuple[str, list[str], list[list[object]]]:
    """Ordinary-graph apps: ChGraph vs Ligra and HATS (§VI-I)."""
    rows = []
    for app in ("Adsorption", "SSSP"):
        for dataset in GRAPH_DATASETS:
            ligra = runner.run(RunSpec("Ligra", app, dataset))
            hats = runner.run(RunSpec("HATS-V", app, dataset))
            chg = runner.run(RunSpec("ChGraph", app, dataset))
            rows.append([
                app,
                dataset,
                chg.speedup_over(ligra),
                chg.speedup_over(hats),
            ])
    return (
        "Figure 25: graph applications (speedups of ChGraph)",
        ["App", "Graph", "vs Ligra", "vs HATS"],
        rows,
    )


def headline_summary(
    runner: Runner, apps: tuple[str, ...] = ("BFS", "PR", "CC")
) -> tuple[str, list[str], list[list[object]]]:
    """The abstract's claims, condensed: per-app speedup and DRAM reduction."""
    rows = []
    for app in apps:
        speedups = []
        reductions = []
        gla = []
        for dataset in PAPER_DATASETS:
            hygra = runner.run(RunSpec("Hygra", app, dataset))
            chg = runner.run(RunSpec("ChGraph", app, dataset))
            soft = runner.run(RunSpec("GLA", app, dataset))
            speedups.append(chg.speedup_over(hygra))
            reductions.append(chg.dram_reduction_over(hygra))
            gla.append(soft.speedup_over(hygra))
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


def vi_e_area_power() -> tuple[str, list[str], list[list[object]]]:
    """The §VI-E area/power/storage accounting."""
    report = area_report()
    rows = [
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
