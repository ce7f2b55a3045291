"""Tests for checkpoint/restore of the streaming runtime.

The central property: interrupting a runtime mid-stream (mid-window!),
snapshotting it, and resuming a fresh runtime from the snapshot yields
exactly the emission sequence of an uninterrupted run -- for every
granularity, through an actual JSON round trip.
"""

import json
import random

import pytest

from repro.core.aggregate_state import TrendAccumulator, full_layout, layout_for
from repro.core.engine import CograEngine
from repro.core.executor import QueryExecutor
from repro.errors import CheckpointError, StreamOrderError
from repro.events.event import Event
from repro.events.stream import sort_events
from repro.query.aggregates import avg, count_star, count_type, max_of, min_of, sum_of
from repro.streaming.checkpoint import (
    load_checkpoint,
    restore_accumulator,
    restore_event,
    restore_executor,
    save_checkpoint,
    snapshot_accumulator,
    snapshot_aggregator,
    snapshot_event,
    snapshot_executor,
)
from repro.query.parser import parse_query
from repro.streaming.runtime import StreamingRuntime

QUERIES = {
    "pattern": """
        RETURN g, COUNT(*)
        PATTERN SEQ(A+, B)
        SEMANTICS skip-till-next-match
        GROUP-BY g
        WITHIN 20 seconds SLIDE 10 seconds
    """,
    "type": """
        RETURN g, COUNT(*), MAX(A.v)
        PATTERN SEQ(A+, B)
        SEMANTICS skip-till-any-match
        GROUP-BY g
        WITHIN 20 seconds SLIDE 10 seconds
    """,
    "mixed": """
        RETURN g, COUNT(*), SUM(A.v)
        PATTERN SEQ(A+, B)
        SEMANTICS skip-till-any-match
        WHERE A.v < NEXT(A).v
        GROUP-BY g
        WITHIN 20 seconds SLIDE 10 seconds
    """,
    "negation": """
        RETURN g, COUNT(*)
        PATTERN SEQ(A+, NOT C, B)
        SEMANTICS skip-till-any-match
        GROUP-BY g
        WITHIN 20 seconds SLIDE 10 seconds
    """,
}


def make_stream(count=200, seed=17):
    rng = random.Random(seed)
    return sort_events(
        Event(
            rng.choice("ABC"),
            rng.uniform(0.0, 80.0),
            {"g": rng.choice("xy"), "v": rng.randint(1, 9)},
        )
        for _ in range(count)
    )


def emission_signature(records):
    """Comparable rendering of an emission sequence (order matters)."""
    return [
        (
            record.query,
            record.result.window_id,
            tuple(sorted(record.result.group.items())),
            tuple(sorted(record.result.values.items())),
        )
        for record in records
    ]


def build_runtime(query_text, granularity=None):
    runtime = StreamingRuntime(lateness=3.0)
    runtime.register(query_text, name="q", granularity=granularity)
    return runtime


def run_with_interruption(query_text, events, cut, granularity=None):
    """Process ``events[:cut]``, checkpoint through JSON, resume, finish."""
    first = build_runtime(query_text, granularity)
    records = []
    for event in events[:cut]:
        records.extend(first.process(event))
    # force an actual serialisation round trip, not just a dict copy
    state = json.loads(json.dumps(first.checkpoint()))

    resumed = build_runtime(query_text, granularity)
    resumed.restore(state)
    for event in events[cut:]:
        records.extend(resumed.process(event))
    records.extend(resumed.flush())
    return records


class TestRuntimeCheckpoint:
    @pytest.mark.parametrize("granularity_name", sorted(QUERIES))
    def test_mid_stream_restore_matches_uninterrupted_run(self, granularity_name):
        events = make_stream()
        query_text = QUERIES[granularity_name]
        uninterrupted = build_runtime(query_text).run(events)
        # cut mid-stream, well inside an open window
        interrupted = run_with_interruption(query_text, events, cut=len(events) // 2)
        assert emission_signature(interrupted) == emission_signature(uninterrupted)

    def test_forced_event_granularity_restore(self):
        events = make_stream(count=120)
        query_text = QUERIES["type"]
        uninterrupted = build_runtime(query_text, granularity="event").run(events)
        interrupted = run_with_interruption(
            query_text, events, cut=47, granularity="event"
        )
        assert emission_signature(interrupted) == emission_signature(uninterrupted)

    def test_checkpoint_preserves_reorder_buffer(self):
        events = make_stream()
        query_text = QUERIES["type"]
        uninterrupted = build_runtime(query_text).run(events)
        # shuffle within the lateness bound so the buffer is non-empty at the cut
        rng = random.Random(5)
        shuffled = sorted(events, key=lambda e: (e.time + rng.uniform(0, 3.0), e.sequence))
        interrupted = run_with_interruption(query_text, shuffled, cut=101)
        assert emission_signature(interrupted) == emission_signature(uninterrupted)

    def test_checkpoint_file_round_trip(self, tmp_path):
        events = make_stream()
        runtime = build_runtime(QUERIES["mixed"])
        for event in events[:80]:
            runtime.process(event)
        path = save_checkpoint(runtime.checkpoint(), tmp_path / "ckpt.json")

        resumed = build_runtime(QUERIES["mixed"])
        resumed.restore(load_checkpoint(path))
        records = []
        for event in events[80:]:
            records.extend(resumed.process(event))
        records.extend(resumed.flush())

        tail = build_runtime(QUERIES["mixed"])
        for event in events[:80]:
            tail.process(event)
        expected = []
        for event in events[80:]:
            expected.extend(tail.process(event))
        expected.extend(tail.flush())
        assert emission_signature(records) == emission_signature(expected)

    def test_rate_metrics_use_post_restore_deltas(self):
        runtime = build_runtime(QUERIES["type"])
        for index in range(50):
            runtime.process(Event("A", float(index), {"g": "x", "v": 1}))
        state = runtime.checkpoint()

        resumed = build_runtime(QUERIES["type"])
        resumed.restore(state)
        assert resumed.metrics.events_ingested == 50  # totals carried over
        assert resumed.metrics.throughput() == 0.0  # but rates start fresh
        resumed.process(Event("A", 50.0, {"g": "x", "v": 1}))
        # one post-restore event over a sub-second elapsed time: far less
        # than the 50-event total a naive totals-based rate would claim
        assert 0.0 < resumed.metrics.throughput()
        assert resumed.metrics.events_ingested == 51

    def test_metrics_and_side_channel_survive_restore(self):
        runtime = StreamingRuntime(lateness=0.0, late_policy="side-channel")
        runtime.register(QUERIES["type"], name="q")
        runtime.process(Event("A", 50.0, {"g": "x", "v": 1}))
        runtime.process(Event("A", 10.0, {"g": "x", "v": 1}))  # late
        state = json.loads(json.dumps(runtime.checkpoint()))

        resumed = StreamingRuntime(lateness=0.0, late_policy="side-channel")
        resumed.register(QUERIES["type"], name="q")
        resumed.restore(state)
        assert resumed.metrics.events_ingested == 2
        assert resumed.metrics.late_events_rerouted == 1
        assert [e.time for e in resumed.late_events] == [10.0]


class TestCheckpointValidation:
    def test_restore_rejects_wrong_version(self):
        runtime = build_runtime(QUERIES["type"])
        state = runtime.checkpoint()
        state["version"] = 999
        with pytest.raises(CheckpointError):
            build_runtime(QUERIES["type"]).restore(state)

    def test_restore_rejects_different_queries(self):
        state = build_runtime(QUERIES["type"]).checkpoint()
        other = StreamingRuntime(lateness=3.0)
        other.register(QUERIES["pattern"], name="other-name")
        with pytest.raises(CheckpointError):
            other.restore(state)

    def test_restore_rejects_same_name_different_definition(self):
        state = build_runtime(QUERIES["type"]).checkpoint()
        other = StreamingRuntime(lateness=3.0)
        # same name, same granularity, different predicate
        other.register(
            QUERIES["type"].replace("GROUP-BY g", "WHERE A.v > 5\n        GROUP-BY g"),
            name="q",
        )
        with pytest.raises(CheckpointError):
            other.restore(state)

    def test_restore_rejects_changed_granularity(self):
        state = build_runtime(QUERIES["type"]).checkpoint()
        forced = build_runtime(QUERIES["type"], granularity="event")
        with pytest.raises(CheckpointError):
            forced.restore(state)

    def test_restore_rejects_changed_emit_empty_groups(self):
        state = build_runtime(QUERIES["type"]).checkpoint()
        other = StreamingRuntime(lateness=3.0)
        other.register(QUERIES["type"], name="q", emit_empty_groups=True)
        with pytest.raises(CheckpointError):
            other.restore(state)

    def test_failed_mid_restore_poisons_the_runtime(self):
        runtime = StreamingRuntime(lateness=3.0)
        runtime.register(QUERIES["type"], name="a")
        runtime.register(QUERIES["pattern"], name="b")
        runtime.process(Event("A", 5.0, {"g": "x", "v": 1}))
        state = json.loads(json.dumps(runtime.checkpoint()))
        # corrupt the SECOND query's executor: the first restores fine, then
        # the failure would otherwise leave a silently mixed state
        state["executors"]["b"]["aggregators"] = [["bad"]]

        fresh = StreamingRuntime(lateness=3.0)
        fresh.register(QUERIES["type"], name="a")
        fresh.register(QUERIES["pattern"], name="b")
        with pytest.raises(CheckpointError):
            fresh.restore(state)
        with pytest.raises(RuntimeError):
            fresh.process(Event("A", 6.0, {"g": "x", "v": 1}))
        with pytest.raises(RuntimeError):
            fresh.flush()
        # a successful restore un-poisons the runtime
        good = json.loads(json.dumps(runtime.checkpoint()))
        fresh.restore(good)
        fresh.process(Event("A", 6.0, {"g": "x", "v": 1}))

    def test_truncated_snapshot_surfaces_as_checkpoint_error(self):
        runtime = build_runtime(QUERIES["type"])
        with pytest.raises(CheckpointError):
            runtime.restore({"version": 1})

    def test_corrupt_snapshot_data_surfaces_as_checkpoint_error(self):
        runtime = build_runtime(QUERIES["type"])
        runtime.process(Event("A", 5.0, {"g": "x", "v": 1}))
        state = json.loads(json.dumps(runtime.checkpoint()))
        # hand-edit a buffered event to carry a malformed timestamp
        state["ingest"]["buffered"][0]["time"] = "not-a-number"
        fresh = build_runtime(QUERIES["type"])
        with pytest.raises(CheckpointError):
            fresh.restore(state)

    def test_checkpoint_after_flush_rejected(self):
        runtime = build_runtime(QUERIES["type"])
        runtime.run(make_stream(count=20))
        with pytest.raises(CheckpointError):
            runtime.checkpoint()

    def test_unknown_aggregator_class_rejected(self):
        class Mystery:
            events_processed = 0

        with pytest.raises(CheckpointError):
            snapshot_aggregator(Mystery())


class TestPrimitiveSnapshots:
    def test_event_round_trip(self):
        event = Event("A", 3.5, {"g": "x", "v": 7, "ok": True, "w": None}, sequence=9)
        assert restore_event(json.loads(json.dumps(snapshot_event(event)))) == event

    def test_accumulator_round_trip(self):
        targets = (("A", "v"), ("A", None))
        accumulator = TrendAccumulator.singleton(
            Event("A", 1.0, {"v": 4}), "A", targets
        )
        accumulator.merge(
            TrendAccumulator.singleton(Event("A", 2.0, {"v": 9}), "A", targets)
        )
        restored = restore_accumulator(
            json.loads(json.dumps(snapshot_accumulator(accumulator))),
            accumulator.layout,
        )
        assert restored.layout is accumulator.layout
        assert snapshot_accumulator(restored) == snapshot_accumulator(accumulator)
        for spec in (
            count_star(),
            count_type("A"),
            sum_of("A", "v"),
            avg("A", "v"),
            min_of("A", "v"),
            max_of("A", "v"),
        ):
            assert restored.result_value(spec) == accumulator.result_value(spec)


#: every aggregate function, several on one target
ALL_AGGREGATES = "COUNT(*), COUNT(A), SUM(A.v), AVG(A.v), MIN(A.v), MAX(A.v), MAX(B.v)"


def accumulator_states(node):
    """Every accumulator snapshot inside a checkpoint tree."""
    if isinstance(node, dict):
        if "states" in node and "targets" in node:
            yield node
        for value in node.values():
            yield from accumulator_states(value)
    elif isinstance(node, list):
        for value in node:
            yield from accumulator_states(value)


class TestAccumulatorLayouts:
    @pytest.mark.parametrize(
        "name, granularity",
        [
            ("pattern", None),
            ("type", None),
            ("mixed", None),
            ("mixed", "event"),
            ("negation", None),
        ],
    )
    def test_full_layout_snapshot_restores_into_a_lean_plan(self, name, granularity):
        """A checkpoint written with four scalars per target (the full
        layout) finishes byte-identical to an uninterrupted lean run."""
        text = QUERIES[name].replace("COUNT(*)", ALL_AGGREGATES, 1)
        rng = random.Random(3)
        events = sort_events(
            Event(
                rng.choice("ABC"),
                rng.uniform(0.0, 80.0),
                {"g": rng.choice("xy"), "v": rng.uniform(-5.0, 5.0)},
            )
            for _ in range(160)
        )
        uninterrupted = build_runtime(text, granularity).run(events)

        engine = CograEngine(parse_query(text), granularity=granularity)
        engine.plan.layout = engine.plan.targets = full_layout(engine.plan.targets)
        engine.reset()
        first = StreamingRuntime(lateness=3.0)
        first.register(engine, name="q")
        records = []
        for event in events[:90]:
            records.extend(first.process(event))
        state = json.loads(json.dumps(first.checkpoint()))
        # the full layout writes a count for every target, the lean one only
        # for (A, None)
        assert any(
            target == ["A", "v"] and cell[0] > 0
            for snapshot in accumulator_states(state)
            for target, cell in zip(snapshot["targets"], snapshot["states"])
        )

        resumed = build_runtime(text, granularity)
        resumed.restore(state)
        for event in events[90:]:
            records.extend(resumed.process(event))
        records.extend(resumed.flush())
        assert repr(emission_signature(records)) == repr(
            emission_signature(uninterrupted)
        )

    def test_lean_snapshot_keeps_the_json_shape(self):
        layout = layout_for(parse_query(QUERIES["type"]).aggregates)
        accumulator = TrendAccumulator.singleton(Event("A", 1.0, {"v": 3}), "A", layout)
        assert snapshot_accumulator(accumulator) == {
            "targets": [["A", "v"]],
            "trend_count": 1,
            "states": [[0, 0, None, 3]],
        }

    def test_restore_rejects_other_targets(self):
        state = snapshot_accumulator(
            TrendAccumulator.singleton(Event("A", 1.0, {"v": 3}), "A", (("A", "v"),))
        )
        count_only = layout_for(parse_query(QUERIES["pattern"]).aggregates)
        with pytest.raises(CheckpointError):
            restore_accumulator(state, count_only)
        state["states"] = [[1, 3, 3]]
        with pytest.raises(CheckpointError):
            restore_accumulator(state, full_layout((("A", "v"),)))

    def test_restore_without_a_last_sequence_accepts_the_last_time(self):
        query = parse_query(QUERIES["type"])
        executor = QueryExecutor(query)
        executor.process(Event("A", 4.0, {"g": "x", "v": 1}, sequence=8))
        state = json.loads(json.dumps(snapshot_executor(executor)))
        assert set(state) == {
            "query", "granularity", "events_seen", "last_time", "aggregators"
        }
        restored = QueryExecutor(query)
        restore_executor(restored, state)
        restored.process(Event("A", 4.0, {"g": "x", "v": 2}, sequence=0))
        with pytest.raises(StreamOrderError):
            restored.process(Event("A", 3.0, {"g": "x", "v": 2}, sequence=9))
