"""The benchmark's workloads: queries, input streams and reference rows.

Every workload runs over the repo's stock generator
(:mod:`repro.datasets.stock`: 19 companies, 100 events per second of event
time) with ``WITHIN 10 seconds SLIDE 5 seconds`` windows, and aggregates
only with COUNT, MIN and MAX, so results compare exactly.

* ``ingest`` -- closed loop.  A JSONL file whose arrival order is shuffled
  by up to 5 s of event time feeds a :class:`StreamingRuntime` (lateness 5)
  with one TYPE-granularity and one PATTERN-granularity query, into an
  exactly-once :class:`TransactionalSink` with periodic checkpoints.  The
  executors are cheap, so decode, reordering, sink and checkpoint writes
  carry much of the time.
* ``event-trends`` -- closed loop.  In-order events from memory, lateness 0,
  on a :class:`ShardedRuntime` with 2 workers, with one EVENT-granularity and
  one MIXED-granularity query.  The quadratic predecessor scan dominates.
* ``live`` -- open loop.  The ``ingest`` job, but its shuffled stream
  arrives over the ``tcp://`` source from a separate generator process at a
  fixed rate of about half the job's closed-loop capacity, so the runtime
  sees one-event slices.
"""

from __future__ import annotations

import bisect
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

WINDOW = "GROUP-BY company WITHIN 10 seconds SLIDE 5 seconds"

#: plans to TYPE granularity: one count per (window, company)
TYPE_QUERY = (
    "RETURN company, COUNT(*) PATTERN Stock S+ "
    f"SEMANTICS skip-till-any-match {WINDOW}"
)
#: contiguous semantics plan to PATTERN granularity
PATTERN_QUERY = (
    "RETURN company, COUNT(*), MIN(S.price), MAX(S.price) PATTERN Stock S+ "
    f"SEMANTICS contiguous {WINDOW}"
)
#: an adjacent predicate on the only Kleene variable plans to EVENT granularity
EVENT_QUERY = (
    "RETURN company, COUNT(*), MIN(S.price), MAX(S.price) PATTERN Stock S+ "
    "WHERE S.price < NEXT(S).price "
    f"SEMANTICS skip-till-any-match {WINDOW}"
)
#: an adjacent predicate on one of two Kleene variables plans to MIXED
MIXED_QUERY = (
    "RETURN company, COUNT(*), MIN(A.price), MAX(B.price) "
    "PATTERN SEQ(Stock A+, Stock B+) WHERE A.price > NEXT(A).price "
    f"SEMANTICS skip-till-any-match {WINDOW}"
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: what the job runs and how input arrives."""

    name: str
    #: (result name, query text) pairs registered with the runtime
    queries: Tuple[Tuple[str, str], ...]
    #: events per job
    events: int
    #: reorder-buffer lateness in seconds of event time; the arrival order
    #: is shuffled by strictly less than this, so no event is ever late
    lateness: float
    #: ``jsonl`` (file), ``memory`` (in-process list) or ``tcp`` (socket)
    source: str
    #: worker processes; 1 runs a single-process StreamingRuntime
    workers: int = 1
    #: ingested events between checkpoints, or None for no checkpoints;
    #: the store is a job config's default one (background writer)
    checkpoint_interval: Optional[int] = None
    #: open-loop send rate in events per second, or None for a closed loop
    rate: Optional[float] = None


INGEST_QUERIES = (("type", TYPE_QUERY), ("pattern", PATTERN_QUERY))

WORKLOADS: Dict[str, Workload] = {
    "ingest": Workload(
        "ingest",
        INGEST_QUERIES,
        events=30_000,
        lateness=5.0,
        source="jsonl",
        # the interval of examples/sharded_stream.py; at the 500 of
        # examples/streaming_runtime.py the writer thread falls behind and
        # its queue of snapshots grows for the whole job
        checkpoint_interval=1000,
    ),
    "event-trends": Workload(
        "event-trends",
        (("event", EVENT_QUERY), ("mixed", MIXED_QUERY)),
        events=6_000,
        lateness=0.0,
        source="memory",
        workers=2,
    ),
    "live": Workload(
        "live",
        INGEST_QUERIES,
        events=15_000,
        lateness=5.0,
        source="tcp",
        rate=4000.0,
    ),
}


def stock_events(seed: int, count: int) -> list:
    """The time-ordered stock stream for ``seed``."""
    from repro.datasets.stock import StockConfig, generate_stock_stream

    return list(generate_stock_stream(StockConfig(event_count=count, seed=seed)))


def arrival_order(workload: Workload, seed: int) -> list:
    """The workload's input in arrival order.

    With a positive lateness each event is delayed by a uniform jitter in
    ``[0, lateness)`` of event time, so arrival order is shuffled but no
    event trails the newest one by ``lateness`` or more -- the reorder
    buffer never has to drop anything.
    """
    events = stock_events(seed, workload.events)
    if workload.lateness <= 0:
        return events
    rng = random.Random(f"arrival-{seed}")
    jitter = [workload.lateness * rng.random() for _ in events]
    order = sorted(
        range(len(events)), key=lambda i: (events[i].time + jitter[i], i)
    )
    return [events[i] for i in order]


def encode_lines(events: list) -> List[str]:
    """The events in the repo's JSONL wire format, one line each."""
    from repro.streaming import write_jsonl_events

    buffer = io.StringIO()
    write_jsonl_events(events, buffer)
    return buffer.getvalue().splitlines(keepends=True)


RowKey = Tuple[str, int, str]


def split_row(
    row: Dict[str, object], value_columns: Dict[str, Tuple[str, ...]]
) -> Tuple[RowKey, str]:
    """A decoded result row as ``((query, window, group), values)``.

    The ``watermark`` stamp is left out: it records *when* a row was emitted,
    which legitimately depends on batching and sharding.
    """
    row = dict(row)
    row.pop("watermark", None)
    query = row.pop("query")
    window_id = row.pop("window_id")
    values = {column: row.pop(column, None) for column in value_columns.get(query, ())}
    group = json.dumps(row, sort_keys=True)
    return (query, window_id, group), json.dumps(values, sort_keys=True)


@dataclass
class Reference:
    """What a correct job emits for one input, and when each window closes."""

    #: (query, window id, group) -> values, all as compared
    rows: Dict[RowKey, str]
    #: query -> names of its aggregate columns
    value_columns: Dict[str, Tuple[str, ...]]
    #: (query, window id) -> arrival index of the event closing the window,
    #: for windows an event closes (the rest close at end of stream)
    closing_index: Dict[Tuple[str, int], int]


def reference(workload: Workload, arrival: list) -> Reference:
    """Reference rows from ``CograEngine.run`` over the time-sorted input.

    Rows pass through the sink's own JSON encoding, so a float compares
    exactly as the job would write it.
    """
    from repro.core.engine import CograEngine
    from repro.events.stream import sort_events
    from repro.streaming import EmissionRecord
    from repro.streaming.jsonl import record_to_json_line

    ordered = sort_events(arrival)
    rows: Dict[RowKey, str] = {}
    value_columns: Dict[str, Tuple[str, ...]] = {}
    closing: Dict[Tuple[str, int], int] = {}
    # prefix maxima of arrival times: the first arrival whose time reaches
    # window end + lateness advances the watermark to the window end
    prefix_max: List[float] = []
    highest = -math.inf
    for event in arrival:
        highest = max(highest, event.time)
        prefix_max.append(highest)
    for name, text in workload.queries:
        engine = CograEngine.from_text(text)
        window = engine.query.window
        for result in engine.run(ordered):
            value_columns.setdefault(name, tuple(result.values))
            line = record_to_json_line(EmissionRecord(name, result, math.inf))
            key, values = split_row(json.loads(line), value_columns)
            rows[key] = values
            if (name, result.window_id) not in closing:
                index = bisect.bisect_left(
                    prefix_max, window.window_end(result.window_id) + workload.lateness
                )
                if index < len(prefix_max):
                    closing[(name, result.window_id)] = index
    return Reference(rows, value_columns, closing)
