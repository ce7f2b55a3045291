"""Checks of the benchmark's own reference and evaluation code.

Run with::

    python3 -m pytest cograbench -q

The benchmark trusts ``CograEngine.run`` as its reference.  The first check
holds that reference to the paper's semantics: on a short prefix of every
workload's input, the explicit trend enumeration of
``baselines/trend_enumeration.TrendOracle`` must produce the same rows.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402
from evaluate import compare_rows, latency_samples, tail_percentile  # noqa: E402
from job import JobClock  # noqa: E402
from workloads import WORKLOADS, Workload, arrival_order, reference  # noqa: E402

from repro.baselines.trend_enumeration import TrendOracle  # noqa: E402
from repro.core.engine import CograEngine  # noqa: E402
from repro.events.stream import sort_events  # noqa: E402
from repro.streaming import EmissionRecord  # noqa: E402
from repro.streaming.jsonl import record_to_json_line  # noqa: E402

#: events of the prefix the oracle enumerates.  Explicit enumeration of every
#: skip-till-any-match trend is exponential in the events per group, so the
#: prefix holds about eight events per company, and about four for the
#: two-variable SEQ query
ORACLE_PREFIX = {"mixed": 80}
ORACLE_PREFIX_DEFAULT = 150

#: every distinct query once, with the first workload that runs it
ORACLE_CASES = list(
    {
        text: (workload, name)
        for workload in sorted(WORKLOADS, reverse=True)
        for name, text in WORKLOADS[workload].queries
    }.values()
)


def _rows(results):
    return sorted(
        (result.window_id, sorted(result.group.items()), sorted(result.values.items()))
        for result in results
    )


@pytest.mark.parametrize("workload,name", ORACLE_CASES)
def test_reference_agrees_with_trend_enumeration(workload, name):
    spec = WORKLOADS[workload]
    size = ORACLE_PREFIX.get(name, ORACLE_PREFIX_DEFAULT)
    prefix = sort_events(arrival_order(spec, seed=1))[:size]
    engine = CograEngine.from_text(dict(spec.queries)[name])
    expected = TrendOracle(engine.query).run(prefix)
    assert expected, f"{workload}/{name}: the prefix matches no trend"
    assert _rows(engine.run(prefix)) == _rows(expected), f"{workload}/{name}"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_arrival_order_is_seeded_and_never_late(workload):
    spec = WORKLOADS[workload]
    first = arrival_order(spec, seed=5)
    assert [e.sequence for e in first] == [e.sequence for e in arrival_order(spec, 5)]
    assert sorted(e.sequence for e in first) == list(range(spec.events))
    newest = float("-inf")
    for event in first:
        newest = max(newest, event.time)
        assert newest - event.time < spec.lateness or newest == event.time


def _small(workload="ingest", events=3000):
    spec = WORKLOADS[workload]
    return Workload(
        name=spec.name,
        queries=spec.queries,
        events=events,
        lateness=spec.lateness,
        source=spec.source,
    )


def _sink_lines(workload, arrival):
    lines = []
    for name, text in workload.queries:
        for result in CograEngine.from_text(text).run(sort_events(arrival)):
            lines.append(record_to_json_line(EmissionRecord(name, result, 7.0)))
    return lines


def test_compare_rows_counts_missing_extra_and_differing(tmp_path):
    workload = _small()
    arrival = arrival_order(workload, seed=3)
    expected = reference(workload, arrival)
    lines = _sink_lines(workload, arrival)
    sink = tmp_path / "sink.jsonl"
    sink.write_text("\n".join(lines) + "\n")
    assert compare_rows(expected, sink) == {"missing": 0, "extra": 0, "differing": 0}

    changed = json.loads(lines[1])
    changed["COUNT(*)"] += 1
    broken = [lines[0], lines[0], json.dumps(changed)] + lines[3:]
    sink.write_text("\n".join(broken) + "\n")
    # line 2 is gone, line 0 is written twice, line 1 carries another count
    assert compare_rows(expected, sink) == {"missing": 1, "extra": 1, "differing": 1}


def test_closing_event_is_the_first_arrival_past_window_end_plus_lateness():
    workload = _small()
    arrival = arrival_order(workload, seed=4)
    expected = reference(workload, arrival)
    window = CograEngine.from_text(workload.queries[0][1]).query.window
    assert expected.closing_index
    for (_, window_id), index in expected.closing_index.items():
        bound = window.window_end(window_id) + workload.lateness
        assert arrival[index].time >= bound
        assert all(event.time < bound for event in arrival[:index])


def test_latency_runs_from_the_scheduled_send_of_the_closing_event():
    workload = _small()
    expected = reference(workload, arrival_order(workload, seed=4))
    (query, window_id), index = next(iter(expected.closing_index.items()))
    generator = {"t0": 100.0, "rate": 1000.0}
    record = {"accepts": [(query, window_id, 100.0 + index / 1000.0 + 0.004)]}
    (sample,) = latency_samples(expected, record, generator)
    assert sample == pytest.approx(0.004)


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert tail_percentile(5000) == 99.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(100) == pytest.approx(90.0)
    assert tail_percentile(20) == 50.0


def test_latency_on_the_cpu_clock_runs_from_the_closing_slice():
    workload = _small()
    expected = reference(workload, arrival_order(workload, seed=4))
    (query, window_id), index = next(iter(expected.closing_index.items()))
    record = {
        "pulls": [(0, 0.0, 0.0), (index, 0.0, 0.0)],
        "pulls_cpu": [(1.0, 1.5), (2.0, 2.25)],
        "accepts": [(query, window_id, 0.0)],
        "accepts_cpu": [2.5],
    }
    (sample,) = latency_samples(expected, record, None, cpu=True)
    assert sample == pytest.approx(0.25)


def _burn(seconds: float) -> None:
    until = time.process_time() + seconds
    while time.process_time() < until:
        pass


def test_job_clock_counts_live_and_exited_workers():
    clock = JobClock()
    worker = multiprocessing.get_context("fork").Process(target=_burn, args=(0.2,))
    worker.start()
    clock.watch([worker.pid])
    started = clock()
    worker.join()
    assert clock() - started >= 0.15
