"""Evaluation: job records -> metrics, and the run table -> a summary.

The sweep (``run.py`` once per workload and seed, or ``sweep.py`` for the
whole matrix) only produces raw records; everything that turns them into
numbers lives here.  Run as a script it summarises ``results/run_table.csv``::

    python3 cograbench/evaluate.py

printing, per workload and metric, the median and quartiles over the rows,
and the per-layer table of the newest traced row.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from workloads import split_row

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
RUN_TABLE = RESULTS / "run_table.csv"

#: end-to-end metrics in report order: (name, unit); their times are on the
#: job's CPU clock (job.JobClock), which a busy shared host does not stretch
END_TO_END = (
    ("cpu_throughput_eps", "1/s"),
    ("result_latency_p50_cpu_ms", "ms"),
    ("result_latency_p99_cpu_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
)

#: the same figures on the wall clock; reported, not declared, since on a
#: shared host they move with the neighbours' load as much as with the job
WALL_CLOCK = (
    ("throughput_eps", "1/s"),
    ("result_latency_p50_ms", "ms"),
    ("result_latency_p99_ms", "ms"),
    ("setup_wall_s", "s"),
)

#: per-layer metrics in report order: (name, unit)
PER_LAYER = (
    ("analyzer.plan_s", "s"),
    ("sources.decode_s", "s"),
    ("sources.events", "count"),
    ("runtime.self_s", "s"),
    ("runtime.calls", "count"),
    ("runtime.events_per_call", "count"),
    ("runtime.buffered_peak", "count"),
    ("core.execute_s", "s"),
    ("core.calls", "count"),
    ("core.results", "count"),
    ("core.storage_units_peak", "count"),
    ("core.stored_events_peak", "count"),
    ("sink.emit_s", "s"),
    ("sink.records", "count"),
    ("sink.bytes", "B"),
    ("checkpoint.snapshot_s", "s"),
    ("checkpoint.save_s", "s"),
    ("checkpoint.write_s", "s"),
    ("checkpoint.count", "count"),
    ("checkpoint.bytes", "B"),
    ("sharded.parent_s", "s"),
    ("sharded.ship_latency_p50_ms", "ms"),
    ("sharded.backpressure_s", "s"),
    ("sharded.speedup_vs_single", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.other_s", "s"),
    ("trace.other_fraction", "ratio"),
    ("trace.overhead_fraction", "ratio"),
)

#: per-layer metrics only an open loop gives a value; reported, not declared
OPEN_LOOP_LAYER = (
    ("sources.wait_s", "s"),
    ("sources.lag_peak_events", "count"),
)

LAYER_UNITS = dict(PER_LAYER + OPEN_LOOP_LAYER)

#: a live job is invalid when its generator sent any event this late
GENERATOR_LAG_BOUND_S = 0.05


# -- statistics -----------------------------------------------------------------


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile of ``values`` (0 <= q <= 1)."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(samples: int) -> float:
    """The highest percentile, at most 99, with ten samples beyond it."""
    if samples <= 20:
        return 50.0
    return min(99.0, 100.0 * (1.0 - 10.0 / samples))


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    first, median, third = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (third - first) / median if median else math.inf


# -- one job record -------------------------------------------------------------


def compare_rows(reference, sink_path: Path) -> Dict[str, int]:
    """Missing, extra and differing rows of a sink file against the reference.

    A row is identified by ``(query, window, group)``; one with the right
    identity but other values counts as differing, a second row with the
    same identity as extra.
    """
    got: Dict[Tuple, str] = {}
    extra = differing = 0
    with open(sink_path, encoding="utf-8") as lines:
        for line in lines:
            if not line.strip():
                continue
            key, values = split_row(json.loads(line), reference.value_columns)
            if key in got:
                extra += 1
                continue
            got[key] = values
            expected = reference.rows.get(key)
            if expected is None:
                extra += 1
            elif expected != values:
                differing += 1
    missing = sum(1 for key in reference.rows if key not in got)
    return {"missing": missing, "extra": extra, "differing": differing}


def delivery_times(pulls: Sequence[Sequence[float]], delivered: Sequence[float]):
    """Map an arrival index to when the source delivered its slice."""
    starts = [pull[0] for pull in pulls]

    def delivered_at(index: int) -> float:
        return delivered[bisect.bisect_right(starts, index) - 1]

    return delivered_at


def latency_samples(
    reference, record: dict, generator: Optional[dict], cpu: bool = False
) -> List[float]:
    """Per-row result latency in seconds.

    A sample runs from the moment the event closing the row's window was
    due to the sink's acceptance of the row.  On the wall clock the event
    is due at its scheduled send time in an open loop and at the delivery
    of its source slice in a closed loop.  On the job's CPU clock
    (``cpu=True``) it is due at the delivery of its slice in either loop,
    so a sample is the CPU time the job spent until the row was accepted.
    Rows of windows that only the end of the stream closes have no sample.
    """
    pulls = record.get("pulls", ())
    if cpu:
        origin = delivery_times(pulls, [pull[1] for pull in record["pulls_cpu"]])
        accepted_at = record["accepts_cpu"]
    elif generator is not None:
        t0, rate = generator["t0"], generator["rate"]

        def origin(index: int) -> float:
            return t0 + index / rate

    else:
        origin = delivery_times(pulls, [pull[2] for pull in pulls])
    if not cpu:
        accepted_at = [accept[2] for accept in record["accepts"]]
    samples = []
    for (query, window_id, _), accepted in zip(record["accepts"], accepted_at):
        index = reference.closing_index.get((query, window_id))
        if index is not None:
            samples.append(accepted - origin(index))
    return samples


def generator_lateness(generator: dict) -> Tuple[float, float]:
    """p99 and maximum of how late the generator sent events, in seconds."""
    t0, rate = generator["t0"], generator["rate"]
    late = []
    for first, count, sent in generator["bursts"]:
        late.extend(sent - (t0 + index / rate) for index in range(first, first + count))
    return quantile(late, 0.99), max(late, default=0.0)


def backlog_peak(record: dict, generator: dict) -> int:
    """Most events sent but not yet decoded, seen at any source pull."""
    sent_at = [burst[2] for burst in generator["bursts"]]
    sent_before = []
    total = 0
    for burst in generator["bursts"]:
        total += burst[1]
        sent_before.append(total)
    peak = 0
    for seen, requested, _ in record["pulls"]:
        position = bisect.bisect_right(sent_at, requested)
        sent = sent_before[position - 1] if position else 0
        peak = max(peak, sent - seen)
    return peak


def source_wait(record: dict, generator: Optional[dict]) -> Tuple[float, float]:
    """Source pull time split into (decode, wait-for-data) seconds.

    A pull waits from its request until the generator sent the first event
    it delivers; the rest of the pull is decoding.  Closed loops never wait.
    """
    pulls = record["pulls"]
    total = sum(delivered - requested for _, requested, delivered in pulls)
    if generator is None:
        return total, 0.0
    starts = [burst[0] for burst in generator["bursts"]]
    wait = 0.0
    for seen, requested, delivered in pulls:
        burst = generator["bursts"][bisect.bisect_right(starts, seen) - 1]
        wait += max(0.0, min(delivered, burst[2]) - requested)
    return total - wait, wait


def job_metrics(reference, record: dict, generator: Optional[dict]) -> dict:
    """End-to-end numbers of one job, plus its correctness counts."""
    marks = record["marks"]
    accepts = record["accepts"]
    first_pull = record["pulls"][0][1]
    last_accept = accepts[-1][2] if accepts else marks["end"]
    first_pull_cpu = record["pulls_cpu"][0][0]
    failures = compare_rows(reference, Path(record["sink"]))
    metrics = {
        "cpu_throughput_eps": record["events"]
        / (record["accepts_cpu"][-1] - first_pull_cpu),
        "setup_s": first_pull_cpu - record["cpu_start"],
        "peak_rss_mib": (record["rss_kib"] + sum(record["workers_hwm_kib"])) / 1024.0,
        "cpu_latencies": latency_samples(reference, record, generator, cpu=True),
        "throughput_eps": record["events"] / (last_accept - first_pull),
        "setup_wall_s": first_pull - marks["start"],
        "latencies": latency_samples(reference, record, generator),
        "failed": sum(failures.values()) + record["late_events"],
        "attempted": len(reference.rows),
        "failures": failures,
        "valid": True,
    }
    if generator is not None:
        lag_p99, lag_max = generator_lateness(generator)
        metrics["generator_lag_p99_ms"] = 1000.0 * lag_p99
        metrics["generator_lag_max_ms"] = 1000.0 * lag_max
        metrics["valid"] = lag_max <= GENERATOR_LAG_BOUND_S
    return metrics


def layer_metrics(record: dict, generator: Optional[dict]) -> Dict[str, float]:
    """Per-layer numbers of one traced job."""
    trace = record["trace"]
    self_s = trace["self_s"]
    calls = trace["calls"]
    decode, wait = source_wait(record, generator)
    wall = record["marks"]["end"] - record["marks"]["run"]
    runtime_s = self_s.get("runtime", 0.0)
    layers = {
        "analyzer.plan_s": self_s.get("analyzer", 0.0),
        "sources.decode_s": decode,
        "sources.events": record["events"],
        "sources.wait_s": wait,
        "sources.lag_peak_events": (
            backlog_peak(record, generator) if generator is not None else 0
        ),
        "runtime.self_s": runtime_s,
        "runtime.calls": calls.get("runtime", 0),
        "runtime.events_per_call": record["events"] / max(1, calls.get("runtime", 0)),
        "runtime.buffered_peak": trace["state"]["buffered_peak"],
        "core.execute_s": self_s.get("core", 0.0),
        "core.calls": calls.get("core", 0),
        "core.results": trace["results"].get("core", 0),
        "core.storage_units_peak": trace["state"]["storage_units_peak"],
        "core.stored_events_peak": trace["state"]["stored_events_peak"],
        "sink.emit_s": self_s.get("sink", 0.0),
        "sink.records": record["sink_records"],
        "sink.bytes": record["sink_bytes"],
        "checkpoint.snapshot_s": self_s.get("checkpoint.snapshot", 0.0),
        "checkpoint.save_s": self_s.get("checkpoint.save", 0.0),
        "checkpoint.write_s": trace["checkpoint_write_s"],
        "checkpoint.count": trace["checkpoint_count"],
        "checkpoint.bytes": trace["checkpoint_bytes"],
        "sharded.parent_s": runtime_s if record["sharded"] else 0.0,
        "sharded.ship_latency_p50_ms": 1000.0 * trace["ship_latency_p50_s"],
        "sharded.backpressure_s": trace["backpressure_s"],
        "trace.wall_s": wall,
    }
    # the run's wall time, partitioned: every top-level span plus the rest
    spans = decode + wait + sum(
        seconds for layer, seconds in self_s.items() if layer != "analyzer"
    )
    layers["trace.other_s"] = wall - spans
    # the share of wall time no layer's span accounts for
    layers["trace.other_fraction"] = layers["trace.other_s"] / wall
    return layers


# -- the run table --------------------------------------------------------------

#: run-table columns; RUN_TABLE_COLUMNS.md explains each one
COLUMNS = (
    "started_utc",
    "workload",
    "seed",
    "trace",
    "seconds",
    "jobs",
    "valid_jobs",
    "correct",
    "attempted",
    "failed",
    "failed_fraction",
    *(name for name, _ in END_TO_END),
    *(name for name, _ in WALL_CLOCK),
    "latency_percentile",
    "latency_samples",
    "generator_lag_p99_ms",
    "generator_lag_max_ms",
    "probe_before_s",
    "probe_after_s",
    "steal_fraction",
    "cpu_count",
    "python",
    "platform",
    "git_revision",
    "raw",
    "per_layer",
)


def append_row(row: Dict[str, object]) -> None:
    RUN_TABLE.parent.mkdir(parents=True, exist_ok=True)
    if RUN_TABLE.exists():
        with open(RUN_TABLE, newline="", encoding="utf-8") as handle:
            header = next(csv.reader(handle), [])
        if header != list(COLUMNS):
            # a table of an older column set: keep it, start a new one
            RUN_TABLE.replace(RUN_TABLE.with_suffix(".csv.old"))
    new = not RUN_TABLE.exists()
    with open(RUN_TABLE, "a", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=COLUMNS)
        if new:
            writer.writeheader()
        writer.writerow({column: row.get(column, "") for column in COLUMNS})


def read_rows() -> List[Dict[str, str]]:
    with open(RUN_TABLE, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def format_value(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{value:.0f}"
    return f"{value:.6g}"


def report(rows: List[Dict[str, str]], out=sys.stdout) -> None:
    """Per workload: each metric's median and quartiles over the rows."""
    workloads = sorted({row["workload"] for row in rows})
    for workload in workloads:
        mine = [row for row in rows if row["workload"] == workload]
        plain = [row for row in mine if row["trace"] == "0"]
        print(f"== {workload}: {len(plain)} untraced rows", file=out)
        failed = sum(int(row["failed"]) for row in mine)
        attempted = sum(int(row["attempted"]) for row in mine)
        print(
            f"  {'failed_fraction':<28} {failed / max(1, attempted):.6g}"
            f"  ({failed} of {attempted} rows)",
            file=out,
        )
        for name, unit in END_TO_END + WALL_CLOCK:
            values = [float(row[name]) for row in plain if row[name]]
            if not values:
                continue
            if len(values) >= 2:
                first, median, third = statistics.quantiles(values, n=4)
                median = statistics.median(values)
                quartiles = f"  q1 {format_value(first)}  q3 {format_value(third)}"
                quartiles += f"  spread {spread(values):.3f}"
            else:
                median, quartiles = values[0], ""
            print(
                f"  {name:<28} {format_value(median):>12} {unit:<6}{quartiles}",
                file=out,
            )
        traced = [row for row in mine if row["trace"] == "1" and row["per_layer"]]
        if traced:
            layers = json.loads(traced[-1]["per_layer"])
            print(f"  per-layer (seed {traced[-1]['seed']}):", file=out)
            for name, unit in LAYER_UNITS.items():
                if name in layers:
                    print(
                        f"    {name:<30} {format_value(layers[name]):>12} {unit}",
                        file=out,
                    )


def main() -> int:
    if not RUN_TABLE.exists():
        print(f"no run table at {RUN_TABLE}; run sweep.py first", file=sys.stderr)
        return 1
    report(read_rows())
    return 0


if __name__ == "__main__":
    sys.exit(main())
