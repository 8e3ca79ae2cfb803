"""Ablation: the W_min space/locality trade-off (§IV-A).

"users can set a threshold W_min to prevent creating the edges whose
weights are less than W_min ... a good tradeoff between space overhead of
OAG and representation ability of overlapping semantics."  This bench maps
the whole trade: OAG storage shrinks monotonically with W_min while the
Figure 18 sweep (run separately) shows where locality starts to suffer.
"""

from repro.engine import GlaResources
from repro.harness.runner import get_runner
from repro.hypergraph.pipeline import PreprocessSpec
from repro.sim.config import scaled_config


def _measure():
    runner = get_runner()
    hypergraph = runner.dataset("WEB")
    config = scaled_config()
    baseline_bytes = hypergraph.size_bytes()
    rows = []
    for w_min in (1, 3, 9, 17, 33):
        resources = GlaResources.build(
            hypergraph, config.num_cores, PreprocessSpec(w_min=w_min)
        )
        oag_bytes = resources.storage_bytes()
        edges = sum(o.num_edges for o in resources.hyperedge_oags)
        rows.append([
            w_min,
            edges,
            oag_bytes,
            100.0 * oag_bytes / baseline_bytes,
        ])
    return (
        "Ablation: OAG storage vs W_min on WEB",
        ["W_min", "H-OAG edges", "OAG bytes", "Overhead (%)"],
        rows,
    )


def test_ablation_wmin_storage(benchmark, emit):
    rows = emit(
        "ablation_wmin_storage",
        benchmark.pedantic(_measure, rounds=1, iterations=1),
    )
    edges = [row[1] for row in rows]
    storage = [row[2] for row in rows]
    # Pruning is monotone in both edge count and bytes.
    assert edges == sorted(edges, reverse=True)
    assert storage == sorted(storage, reverse=True)
    # The default threshold (3) must already cut storage vs keeping all.
    assert storage[1] < storage[0]
