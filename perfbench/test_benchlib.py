"""Self-tests of the benchmark's own logic (no simulation runs)."""

from __future__ import annotations

import itertools

import pytest

from benchlib import (
    Span,
    Tally,
    Tracer,
    check_tables,
    counter_drift,
    tail_percentile,
    union_length,
)


def fake_clock(*times: float):
    ticks = iter(times)
    return lambda: next(ticks)


# -- tail percentile ---------------------------------------------------------


def test_tail_picks_highest_rung_with_ten_beyond():
    tail = tail_percentile([float(i) for i in range(1, 101)])
    assert (tail.percentile, tail.value, tail.samples, tail.beyond) == (90.0, 90.0, 100, 10)


def test_tail_steps_down_when_a_rung_has_nine_beyond():
    tail = tail_percentile([float(i) for i in range(1, 100)])
    assert tail.percentile == 75.0 and tail.beyond == 24


def test_tail_reaches_p99_with_enough_samples():
    assert tail_percentile(list(range(1000))).percentile == 99.0


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        tail_percentile([1.0] * 19)


# -- spans -------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    # run [0, 10] holds generate [1, 4] (with store.key [2, 3] inside) and
    # an overlapping engine span [3, 6]; children cover [1, 6].
    tracer = Tracer(fake_clock(0, 1, 2, 3, 4, 10))
    with tracer.span("run", run_id="r1") as run:
        with tracer.span("hypergraph.generate") as generate:
            with tracer.span("store.key") as key:
                pass
    # A span recorded by another thread, overlapping generate.
    tracer.spans.append(Span(3, "engine.Hygra.run", 3.0, 6.0, run.id, "r1"))
    assert key.run_id == "r1" and key.parent == generate.id
    assert tracer.self_time(run) == pytest.approx(10 - 5)
    assert tracer.self_time(generate) == pytest.approx(3 - 1)
    own = tracer.layer_self_times()
    assert own["store.key"] == pytest.approx(1)
    assert own["engine.Hygra.run"] == pytest.approx(3)


def test_uncovered_share_counts_what_no_layer_span_covers():
    tracer = Tracer(fake_clock(0, 1, 4, 5, 6, 8, 9, 10))
    with tracer.span("pass"):
        with tracer.span("store.get"):
            pass
        with tracer.span("run"):  # structure, not a layer
            with tracer.span("report.render"):
                pass
    is_layer = lambda name: "." in name  # noqa: E731
    assert tracer.uncovered_share(is_layer) == pytest.approx(1 - (3 + 2) / 10)


def test_union_length_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4


def test_spans_nest_per_thread_under_an_explicit_parent():
    import threading

    tracer = Tracer()
    with tracer.span("loop") as root:
        def client():
            with tracer.span("job", parent=root):
                with tracer.span("service.poll", run_id="j1"):
                    pass
        thread = threading.Thread(target=client)
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive()
    job, poll = tracer.spans[1:]
    assert job.parent == root.id and poll.parent == job.id and poll.run_id == "j1"


# -- correctness -------------------------------------------------------------


def test_mutated_golden_counts_as_a_failed_operation(tmp_path):
    table = "Figure 2\nSystem  DRAM\n------------\n Hygra  165,344\n"
    (tmp_path / "fig02.txt").write_text(table)
    (tmp_path / "fig03.txt").write_text(table.replace("165,344", "165,345"))
    tally = Tally()
    check_tables(tally, {"fig02": table, "fig03": table}, tmp_path)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "fig03" in tally.notes[0]


def test_missing_golden_counts_as_a_failed_operation(tmp_path):
    tally = Tally()
    check_tables(tally, {"fig99": "x\n"}, tmp_path)
    assert tally.failed == 1


def test_counter_drift_flags_changed_counters_of_the_same_code(tmp_path):
    record = tmp_path / "counters.json"
    first = {"runs": 90, "Hygra.cycles": 44197779.1}
    assert counter_drift(record, "abc:fig14-cold", first) == []
    assert counter_drift(record, "abc:fig14-cold", dict(first)) == []
    assert counter_drift(record, "abc:fig14-cold", {**first, "runs": 89}) == ["runs"]
    assert counter_drift(record, "abc:fig14-cold", {"runs": 90}) == ["Hygra.cycles"]
    # Other code (another fingerprint) starts its own record.
    assert counter_drift(record, "def:fig14-cold", {"runs": 89}) == []


# -- the serve-mixed request plan --------------------------------------------


def test_request_plan_is_seeded_and_never_shares_a_spec_between_threads():
    from workloads import MISS_BLOCK, REQUESTS_PER_SECOND, request_plan

    plan = request_plan(seed=7, seconds=10)
    assert plan == request_plan(seed=7, seconds=10)
    assert plan != request_plan(seed=8, seconds=10)
    specs = [{request.spec for _, request in thread} for thread in plan]
    assert not specs[0] & specs[1]
    flat = list(itertools.chain.from_iterable(plan))
    misses = [request.spec for kind, request in flat if kind == "miss"]
    assert len(misses) * MISS_BLOCK == len(flat) == REQUESTS_PER_SECOND * 10
    assert len(set(misses)) == len(misses)
    hits = {request.spec for kind, request in flat if kind == "hit"}
    assert not hits & set(misses)
