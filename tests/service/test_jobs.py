"""JobRequest/JobRecord: validation, JSON round trip, content addressing."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import JOB_STATES, JobRecord, JobRequest
from tests.service.conftest import small_request


class TestJobRequestValidation:
    def test_valid_request_passes(self):
        small_request().validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"engine": "NoSuchEngine"},
            {"algorithm": "Dijkstra"},
            {"dataset": "nope"},
            {"cores": 0},
            {"llc_kb": -1},
            {"pr_iterations": 0},
            {"cores": 2.5},
            {"profile": 1},
            {"priority": "high"},
        ],
    )
    def test_bad_field_rejected(self, overrides):
        with pytest.raises(ValueError):
            small_request(**overrides).validate()


class TestJobRequestJson:
    def test_round_trip(self):
        request = small_request(priority=3, profile=True)
        assert JobRequest.from_json(request.to_json()) == request

    def test_defaults_fill_in(self):
        request = JobRequest.from_json(
            {"spec": {"engine": "Hygra", "algorithm": "BFS", "dataset": "FS"}}
        )
        assert request.config().num_cores == 16
        assert request.spec.pr_iterations == 2
        assert request.priority == 0

    @pytest.mark.parametrize(
        "obj, match",
        [
            ([], "JSON object"),
            ({"spec": {"engine": "Hygra", "algorithm": "BFS"}}, "missing 'dataset'"),
            (
                {"spec": {"engine": "Hygra", "algorithm": "BFS", "dataset": "FS"},
                 "turbo": True},
                "unknown job request field",
            ),
            (
                {"engine": "Hygra", "algorithm": "BFS", "dataset": "FS"},
                "unknown job request field",
            ),
            ({"priority": 1}, "needs a 'spec' object"),
        ],
    )
    def test_junk_rejected(self, obj, match):
        with pytest.raises(ValueError, match=match):
            JobRequest.from_json(obj)


#: Arbitrary JSON values: what a client can put in any request field.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 50)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)

#: Typed request fields: (where the value goes, its kind, minimum int).
TYPED_FIELDS = {
    "profile": (("spec", "profile"), bool, None),
    "check": (("spec", "check"), bool, None),
    "pr_iterations": (("spec", "pr_iterations"), int, 1),
    "w_min": (("spec", "preprocessing", "w_min"), int, 1),
    "d_max": (("spec", "preprocessing", "d_max"), int, 1),
    "num_cores": (("spec", "config", "num_cores"), int, 1),
    "priority": (("priority",), int, None),
}


@given(field=st.sampled_from(sorted(TYPED_FIELDS)), value=JSON_VALUES)
@settings(max_examples=300, deadline=None)
def test_from_json_accepts_exactly_the_well_typed_values(field, value):
    """Typed fields are validated, never coerced: a value is accepted iff
    it already has the field's JSON type (``true`` is not an int, ``1`` is
    not a bool), and then it arrives unchanged."""
    path, kind, minimum = TYPED_FIELDS[field]
    obj = {"spec": {"engine": "Hygra", "algorithm": "BFS", "dataset": "FS",
                    "preprocessing": {}, "config": {"name": "prop"}}}
    target = obj
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    if field == "pr_iterations" and value is None:
        # An explicit null means "the default", as in ``RunSpec.to_json``.
        assert JobRequest.from_json(obj).spec.pr_iterations == 2
        return
    if kind is bool:
        accepted = isinstance(value, bool)
    else:
        accepted = type(value) is int and (minimum is None or value >= minimum)
    if not accepted:
        with pytest.raises(ValueError):
            JobRequest.from_json(obj)
        return
    request = JobRequest.from_json(obj)
    got = {
        "profile": request.spec.profile, "check": request.spec.check,
        "pr_iterations": request.spec.pr_iterations,
        "w_min": request.spec.preprocessing.w_min,
        "d_max": request.spec.preprocessing.d_max,
        "num_cores": request.config().num_cores,
        "priority": request.priority,
    }[field]
    assert type(got) is type(value)
    if field != "profile":  # check=True also turns profiling on
        assert got == value
    assert JobRequest.from_json(request.to_json()) == request


class TestStoreKey:
    def test_matches_runner_key(self):
        """The service key IS the run_result_key of the equivalent local
        spec — the property both coalescing and the store fast path rest
        on, now for *any* expressible configuration."""
        from repro.harness.datasets import hypergraph_dataset
        from repro.harness.spec import RunSpec
        from repro.sim.config import scaled_config
        from repro.store.keys import run_result_key

        local = RunSpec(
            "Hygra", "BFS", "FS",
            config=scaled_config(num_cores=4, llc_kb=2),
            pr_iterations=1,
        ).normalized()
        expected = run_result_key(local, hypergraph_dataset("FS").content_hash())
        assert small_request().store_key() == expected

    def test_key_ignores_priority(self):
        # Priority affects scheduling order, not the result — requests that
        # differ only in priority must coalesce.
        assert small_request(priority=0).store_key() == \
            small_request(priority=9).store_key()

    def test_key_distinguishes_config_and_profile(self):
        base = small_request().store_key()
        assert small_request(cores=8).store_key() != base
        assert small_request(profile=True).store_key() != base

    def test_key_distinguishes_preprocessing(self):
        # The v4 keys fix the latent aliasing: sweeps and staged runs were
        # previously indistinguishable from default runs.
        base = small_request().store_key()
        assert small_request(w_min=5).store_key() != base
        assert small_request(d_max=8).store_key() != base
        assert small_request(stages=["locality-reorder"]).store_key() != base
        assert small_request(check=True).store_key() != base


class TestJobRecord:
    def test_lifecycle_fields(self):
        record = JobRecord(request=small_request(), key="k")
        assert record.state == JOB_STATES[0] == "queued"
        assert not record.finished
        assert record.latency is None
        record.state = "done"
        record.finished_at = record.submitted_at + 2.5
        assert record.finished
        assert record.latency == pytest.approx(2.5)

    def test_ids_are_unique(self):
        ids = {JobRecord(request=small_request(), key="k").job_id
               for _ in range(50)}
        assert len(ids) == 50

    def test_status_json_hides_result_by_default(self):
        record = JobRecord(request=small_request(), key="k")
        record.result = {"cycles": 1}
        assert "result" not in record.status_json()
        assert record.status_json(include_result=True)["result"] == {"cycles": 1}
        # The payload is pure JSON (travels the HTTP API unchanged).
        import json

        json.dumps(record.status_json(include_result=True))
