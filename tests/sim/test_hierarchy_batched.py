"""Batched-access and prober equivalence tests for the memory hierarchy.

The PR 10 fast paths — ``access_block`` / ``engine_access_block`` (one
probe per cache line), the pre-bound prober closures
(``engine_prober`` / ``engine_pair_prober`` / ``demand_prober`` /
``SimulatedSystem.demand_writer``), and ``charge_compute_run`` — all claim
*bit-identity* with the per-element reference walk.  These tests drive
seeded randomized access streams through both paths on twin hierarchies
and assert every observable is identical: returned latencies, hit/miss/
eviction/writeback counters at every level, probe counters, DRAM traffic
and its per-array attribution, dirty-line sets, and full LRU residency
order.
"""

from __future__ import annotations

import random

import pytest

from repro.sim.config import scaled_config
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.layout import ArrayId, MemoryLayout
from repro.sim.system import SimulatedSystem

ARRAYS = [
    ArrayId.VERTEX_VALUE,
    ArrayId.HYPEREDGE_VALUE,
    ArrayId.INCIDENT_VERTEX,
    ArrayId.BITMAP,
    ArrayId.OAG_OFFSET,
]


def make_hierarchy(num_cores: int = 2, inclusive: bool = False) -> MemoryHierarchy:
    config = scaled_config(num_cores=num_cores, llc_kb=2).replace(
        inclusive_l3=inclusive
    )
    return MemoryHierarchy(config)


def _stats_tuple(cache):
    stats = cache.stats
    return (stats.hits, stats.misses, stats.evictions, stats.writebacks)


def snapshot(hierarchy: MemoryHierarchy):
    """Every externally observable fact about a hierarchy's state.

    ``resident_lines()`` iterates each set in LRU→MRU insertion order, so
    comparing it compares the full replacement state, not just membership.
    """
    caches = [*hierarchy.l1, *hierarchy.l2, hierarchy.l3]
    return {
        "stats": [_stats_tuple(cache) for cache in caches],
        "resident": [cache.resident_lines() for cache in caches],
        "dirty": [cache.dirty_lines() for cache in caches],
        "demand_probes": hierarchy.demand_probes,
        "engine_probes": hierarchy.engine_probes,
        "dram": (hierarchy.dram.accesses, hierarchy.dram.writes),
        "dram_by_array": dict(hierarchy.dram_breakdown()),
        "writebacks": dict(hierarchy.writeback_breakdown()),
    }


def _random_ops(seed: int, num_cores: int, n: int):
    rng = random.Random(seed)
    ops = []
    for _ in range(n):
        ops.append(
            (
                rng.randrange(num_cores),
                ARRAYS[rng.randrange(len(ARRAYS))],
                rng.randrange(2048),
                rng.randrange(1, 20),
                rng.random() < 0.4,
            )
        )
    return ops


# -- block accesses vs per-element loops -------------------------------------


@pytest.mark.parametrize("inclusive", [False, True])
def test_access_block_matches_per_element(inclusive: bool) -> None:
    batched = make_hierarchy(inclusive=inclusive)
    reference = make_hierarchy(inclusive=inclusive)
    for core, array, start, count, write in _random_ops(0xB10C, 2, 600):
        got = batched.access_block(core, array, start, count, write=write)
        want = 0
        for index in range(start, start + count):
            want += reference.access(core, array, index, write=write)
        assert got == want
        assert snapshot(batched) == snapshot(reference)


@pytest.mark.parametrize("inclusive", [False, True])
def test_engine_access_block_matches_per_element(inclusive: bool) -> None:
    batched = make_hierarchy(inclusive=inclusive)
    reference = make_hierarchy(inclusive=inclusive)
    for core, array, start, count, _ in _random_ops(0xE27, 2, 600):
        got = batched.engine_access_block(core, array, start, count)
        want = 0
        for index in range(start, start + count):
            want += reference.engine_access(core, array, index)
        assert got == want
        assert snapshot(batched) == snapshot(reference)


def test_block_of_zero_or_negative_count_is_free() -> None:
    hierarchy = make_hierarchy()
    before = snapshot(hierarchy)
    assert hierarchy.access_block(0, ArrayId.VERTEX_VALUE, 5, 0) == 0
    assert hierarchy.engine_access_block(0, ArrayId.VERTEX_VALUE, 5, -3) == 0
    assert snapshot(hierarchy) == before


# -- prober closures vs the methods they replace ------------------------------


@pytest.mark.parametrize("inclusive", [False, True])
def test_engine_prober_matches_engine_access(inclusive: bool) -> None:
    fast = make_hierarchy(inclusive=inclusive)
    reference = make_hierarchy(inclusive=inclusive)
    probes = {}
    for core, array, index, _, _ in _random_ops(0x9E0B, 2, 800):
        probe = probes.get((core, array))
        if probe is None:
            probe = probes[(core, array)] = fast.engine_prober(core, array)
        assert probe(index) == reference.engine_access(core, array, index)
        assert snapshot(fast) == snapshot(reference)


def test_engine_prober_uncounted_defers_probe_count() -> None:
    fast = make_hierarchy()
    reference = make_hierarchy()
    probe = fast.engine_prober(0, ArrayId.VERTEX_VALUE, counted=False)
    issued = 0
    for _, _, index, _, _ in _random_ops(0x0FF, 1, 400):
        assert probe(index) == reference.engine_access(
            0, ArrayId.VERTEX_VALUE, index
        )
        issued += 1
    # The caller settles the deferred count; everything else already agrees.
    fast.engine_probes += issued
    assert snapshot(fast) == snapshot(reference)


def test_engine_pair_prober_matches_block_of_two() -> None:
    fast = make_hierarchy()
    reference = make_hierarchy()
    probes = {}
    for core, array, start, _, _ in _random_ops(0x9A12, 2, 800):
        probe = probes.get((core, array))
        if probe is None:
            probe = probes[(core, array)] = fast.engine_pair_prober(core, array)
        assert probe(start) == reference.engine_access_block(core, array, start, 2)
        assert snapshot(fast) == snapshot(reference)


@pytest.mark.parametrize("write", [False, True])
def test_demand_prober_matches_access(write: bool) -> None:
    fast = make_hierarchy()
    reference = make_hierarchy()
    probes = {}
    for core, array, index, _, _ in _random_ops(0xD3A0 + write, 2, 800):
        probe = probes.get((core, array))
        if probe is None:
            probe = probes[(core, array)] = fast.demand_prober(
                core, array, write=write
            )
        assert probe(index) == reference.access(core, array, index, write=write)
        assert snapshot(fast) == snapshot(reference)


def test_demand_prober_with_coherence_matches_access() -> None:
    config = scaled_config(num_cores=2, llc_kb=2).replace(track_coherence=True)
    fast = MemoryHierarchy(config)
    reference = MemoryHierarchy(config)
    probes = {}
    for core, array, index, _, write in _random_ops(0xC0E, 2, 600):
        probe = probes.get((core, array, write))
        if probe is None:
            probe = probes[(core, array, write)] = fast.demand_prober(
                core, array, write=write
            )
        assert probe(index) == reference.access(core, array, index, write=write)
    assert snapshot(fast) == snapshot(reference)


# -- system-level closures and batched charges --------------------------------


def test_demand_writer_matches_write_exactly() -> None:
    config = scaled_config(num_cores=2, llc_kb=2)
    fast = SimulatedSystem(config)
    reference = SimulatedSystem(config)
    writers = {}
    for core, array, index, _, _ in _random_ops(0x33F1, 2, 800):
        writer = writers.get((core, array))
        if writer is None:
            writer = writers[(core, array)] = fast.demand_writer(core, array)
        assert writer(index) == reference.write(core, array, index)
    assert snapshot(fast.hierarchy) == snapshot(reference.hierarchy)
    assert fast.timer._memory == reference.timer._memory


def test_demand_writer_with_coherence_matches_write() -> None:
    config = scaled_config(num_cores=2, llc_kb=2).replace(track_coherence=True)
    fast = SimulatedSystem(config)
    reference = SimulatedSystem(config)
    writer = fast.demand_writer(0, ArrayId.VERTEX_VALUE)
    for _, _, index, _, _ in _random_ops(0xC0E2, 1, 300):
        assert writer(index) == reference.write(0, ArrayId.VERTEX_VALUE, index)
    assert snapshot(fast.hierarchy) == snapshot(reference.hierarchy)


def test_charge_compute_run_matches_charge_sequence() -> None:
    """The batched charge replays the exact float-addition sequence —
    including non-integer cycle costs whose sum is order-sensitive."""
    config = scaled_config(num_cores=2, llc_kb=2)
    fast = SimulatedSystem(config)
    reference = SimulatedSystem(config)
    cycles = 6 * 1.3 + 1  # the PR per-tuple core cost: non-representable
    fast.charge_compute_run(0, cycles, 1000)
    for _ in range(1000):
        reference.charge_compute(0, cycles)
    assert fast.timer._compute == reference.timer._compute
    assert fast.total_compute_cycles == reference.total_compute_cycles
    fast.charge_compute_run(1, cycles, 0)  # zero-count: a no-op
    assert fast.timer._compute == reference.timer._compute


# -- layout helpers -----------------------------------------------------------


def test_lines_of_range_covers_exactly_the_touched_lines() -> None:
    layout = MemoryLayout()
    for array in ARRAYS:
        for start, count in [(0, 1), (3, 13), (7, 8), (63, 2), (5, 0), (5, -1)]:
            got = layout.lines_of_range(array, start, count)
            want = sorted(
                {layout.line_of(array, i) for i in range(start, start + count)}
            )
            assert list(got) == want


def test_lines_of_range_is_contiguous() -> None:
    layout = MemoryLayout()
    lines = layout.lines_of_range(ArrayId.VERTEX_VALUE, 5, 100)
    assert list(lines) == list(range(lines[0], lines[-1] + 1))


# -- conservation -------------------------------------------------------------


def test_dirty_lines_are_resident_and_writebacks_conserved() -> None:
    """After a heavy mixed write stream: every dirty line is still resident
    in its cache, and per-array writeback attribution sums to the total."""
    hierarchy = make_hierarchy()
    for core, array, start, count, write in _random_ops(0xD127, 2, 1500):
        hierarchy.access_block(core, array, start, count, write=write)
    for cache in [*hierarchy.l1, *hierarchy.l2, hierarchy.l3]:
        resident = set(cache.resident_lines())
        assert set(cache.dirty_lines()) <= resident
    assert hierarchy.writebacks() == sum(
        hierarchy.writeback_breakdown().values()
    )
