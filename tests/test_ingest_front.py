"""The shared ingest front of both runtimes.

Two contracts of :meth:`PipelineDriver._ingest`, the one push loop behind
``process`` and ``process_batch`` on :class:`StreamingRuntime` and
:class:`ShardedRuntime`:

* a raising late policy loses no records: the records of the events before
  the raising one are parked and returned by the next call;
* sampled tracing wraps the calls the untraced run makes, so turning it on
  never changes which executor calls run or what is emitted.
"""

import random

import pytest

from repro.errors import LateEventError
from repro.events.event import Event
from repro.events.stream import sort_events
from repro.streaming.observability import Observability, Tracer
from repro.streaming.runtime import StreamingRuntime
from repro.streaming.sharded import ShardedRuntime
from repro.streaming.sources import MemorySink

COUNT_QUERY = """
RETURN COUNT(*)
PATTERN A+
SEMANTICS skip-till-any-match
WITHIN 10 seconds SLIDE 10 seconds
"""

GROUPED_QUERY = """
RETURN g, COUNT(*), MAX(A.v)
PATTERN SEQ(A+, B)
SEMANTICS skip-till-any-match
GROUP-BY g
WITHIN 20 seconds SLIDE 10 seconds
"""


def late_stream():
    """Three windows of A events, then one event behind the watermark."""
    times = [1.0, 2.0, 3.0, 12.0, 13.0, 25.0, 0.5]
    return [Event("A", time, {}, sequence=index) for index, time in enumerate(times)]


def windows(records):
    """``(window id, COUNT)`` per record, in window order."""
    return sorted((r.result.window_id, r.result.trend_count) for r in records)


def emitted(records):
    """Everything a consumer sees of each record, in emission order."""
    return [
        (
            r.query,
            r.result.window_id,
            repr(r.result.group),
            repr(r.result.values),
            r.watermark,
        )
        for r in records
    ]


def single_runtime(**kwargs):
    return StreamingRuntime(**kwargs)


def sharded_runtime(**kwargs):
    # the ungrouped query cannot be split: one worker process hosts it
    return ShardedRuntime(workers=1, **kwargs)


RUNTIMES = pytest.mark.parametrize(
    "build", [single_runtime, sharded_runtime], ids=["single", "sharded"]
)

ALL_WINDOWS = [(0, 7), (1, 3), (2, 1)]


class TestLateRaiseKeepsRecords:
    @RUNTIMES
    def test_per_event_loop_keeps_every_window(self, build):
        runtime = build(lateness=0.0)
        runtime.register(COUNT_QUERY, name="q")
        records = []
        for event in late_stream():
            try:
                records.extend(runtime.process(event))
            except LateEventError:
                pass
        records.extend(runtime.flush())
        runtime.close()
        assert windows(records) == ALL_WINDOWS

    @RUNTIMES
    def test_batched_call_keeps_every_window(self, build):
        runtime = build(lateness=0.0)
        runtime.register(COUNT_QUERY, name="q")
        with pytest.raises(LateEventError):
            runtime.process_batch(late_stream())
        records = runtime.flush()
        runtime.close()
        assert windows(records) == ALL_WINDOWS
        assert runtime.metrics.events_ingested == 7
        assert runtime.metrics.late_events == 1

    def test_parked_records_surface_through_drain_pending(self):
        runtime = StreamingRuntime(lateness=0.0)
        runtime.register(COUNT_QUERY, name="q")
        with pytest.raises(LateEventError):
            runtime.process_batch(late_stream())
        parked = runtime.drain_pending()
        assert windows(parked) == [(0, 7), (1, 3)]
        assert runtime.metrics.results_emitted == 2
        assert runtime.drain_pending() == []
        assert windows(runtime.flush()) == [(2, 1)]

    def test_drive_delivers_parked_records_before_the_error(self):
        runtime = StreamingRuntime(lateness=0.0)
        runtime.register(COUNT_QUERY, name="q")
        sink = MemorySink()
        with pytest.raises(LateEventError):
            runtime.run(late_stream(), sink)
        assert windows(sink.records) == [(0, 7), (1, 3)]


def traced(spans):
    return Observability(tracer=Tracer(sample_rate=1.0, sink=spans.append))


def disordered_stream(count=300, seed=5, lateness=4.0):
    rng = random.Random(seed)
    ordered = sort_events(
        Event(
            "A" if rng.random() < 0.8 else "B",
            rng.uniform(0.0, 60.0),
            {"g": rng.choice("xyz"), "v": rng.randint(1, 9)},
        )
        for _ in range(count)
    )
    # bounded disorder: each event slips at most ``lateness`` seconds
    return sorted(ordered, key=lambda e: (e.time + rng.uniform(0.0, lateness)))


def record_executor_calls(executor, log):
    """Log ``(method, events)`` for every executor call, in call order."""
    for method in ("process", "process_batch"):
        original = getattr(executor, method)

        def wrapped(events, *args, _method=method, _original=original, **kwargs):
            size = len(events) if _method == "process_batch" else 1
            log.append((_method, size))
            return _original(events, *args, **kwargs)

        setattr(executor, method, wrapped)


class TestTracingRunsTheSamePath:
    def run_single(self, observability):
        runtime = StreamingRuntime(lateness=4.0, observability=observability)
        runtime.register(GROUPED_QUERY, name="q")
        calls = []
        record_executor_calls(runtime.engine("q").executor, calls)
        records = runtime.run(disordered_stream())
        runtime.close()
        return calls, records

    def test_single_process_executor_calls_match(self):
        spans = []
        plain_calls, plain_records = self.run_single(None)
        traced_calls, traced_records = self.run_single(traced(spans))
        assert any(m == "process_batch" and n > 1 for m, n in plain_calls)
        assert traced_calls == plain_calls
        assert emitted(traced_records) == emitted(plain_records)
        roots = [span for span in spans if span["parent"] is None]
        assert len(roots) == 300  # one sampled root per ingested event
        names = {span["name"] for span in spans}
        assert {"event", "ingest", "route", "emit"} <= names
        assert "execute" not in names

    def run_sharded(self, observability):
        runtime = ShardedRuntime(
            workers=2, lateness=4.0, ship_interval=8, observability=observability
        )
        runtime.register(GROUPED_QUERY, name="q")
        records = runtime.run(disordered_stream())
        stats = [(s.batches_sent, s.events_sent) for s in runtime.shard_stats]
        return stats, records

    def test_sharded_shipping_matches(self):
        spans = []
        plain_stats, plain_records = self.run_sharded(None)
        traced_stats, traced_records = self.run_sharded(traced(spans))
        assert traced_stats == plain_stats
        # acknowledgement timing may interleave epochs' records differently
        assert sorted(emitted(traced_records)) == sorted(emitted(plain_records))
        roots = [span for span in spans if span["parent"] is None]
        assert len([r for r in roots if r["name"] == "event"]) == 300
