"""One benchmark job in a fresh interpreter.

Usage::

    python3 cograbench/job.py SPEC.json

``SPEC.json`` names the workload, seed, leg, file locations and whether to
trace.  The job builds its runtime, sink, checkpoint store and source
through the library's public API, runs the stream to completion and writes
a JSON record of raw timings next to the sink file; ``run.py`` evaluates it
against the reference.  Every measurement point is read on two clocks:
``time.monotonic`` (``CLOCK_MONOTONIC`` on Linux, which the generator
process shares) and the job's CPU clock (:class:`JobClock`).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from layertrace import LayerTrace  # noqa: E402
from workloads import WORKLOADS, arrival_order  # noqa: E402

from repro.streaming import (  # noqa: E402
    CheckpointConfig,
    IterableSource,
    JsonlFileSource,
    ShardedRuntime,
    SocketJsonlSource,
    StreamingRuntime,
    TransactionalSink,
    snapshot_quantile,
    snapshot_value,
)

clock = time.monotonic

#: sample executor state sizes at most once per this many ingested events
STATE_SAMPLE_EVENTS = 1024


class JobClock:
    """CPU seconds the job has used so far.

    The job process's own CPU time (every thread: the driver loop, the
    background checkpoint writer, queue feeders) plus that of its shard
    workers: a live worker is read through the kernel's per-process CPU
    clock, one that has exited and been reaped through ``RUSAGE_CHILDREN``.
    Time the job waits for a core -- another process running, or the
    hypervisor running another guest -- does not advance it, so on a shared
    host it measures the job's own work where wall time also measures the
    neighbours.
    """

    def __init__(self):
        #: per-process CPU clock ids of the live workers
        self._workers = []
        self._reaped_before = self._reaped()

    @staticmethod
    def _reaped() -> float:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    def watch(self, pids) -> None:
        # the Linux encoding of clock_getcpuclockid(pid): CPUCLOCK_SCHED of
        # the whole thread group
        self._workers.extend(((~pid) << 3) | 2 for pid in pids)

    def __call__(self) -> float:
        total = time.process_time() + self._reaped() - self._reaped_before
        live = []
        for clock_id in self._workers:
            try:
                total += time.clock_gettime(clock_id)
            except OSError:
                continue  # exited: counted by RUSAGE_CHILDREN once reaped
            live.append(clock_id)
        self._workers = live
        return total


def _hwm_kib(pid: int) -> int:
    """Peak resident set (VmHWM) of a live process, in KiB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def build_runtime(workload, single: bool):
    if workload.workers > 1 and not single:
        return ShardedRuntime(
            workers=workload.workers,
            lateness=workload.lateness,
            late_policy="drop",
        )
    return StreamingRuntime(lateness=workload.lateness, late_policy="drop")


def build_source(workload, spec, events):
    if workload.source == "jsonl":
        return JsonlFileSource(spec["input"])
    if workload.source == "tcp":
        return SocketJsonlSource("127.0.0.1", spec["port"])
    return IterableSource(events)


def run_job(spec: dict) -> dict:
    workload = WORKLOADS[spec["workload"]]
    single = bool(spec.get("single"))
    events = (
        arrival_order(workload, spec["seed"]) if workload.source == "memory" else None
    )
    trace = LayerTrace(clock) if spec["traced"] else None
    cpu = JobClock()
    marks = {}
    pulls = []  # (events before the slice, requested at, delivered at)
    pulls_cpu = []  # (requested at, delivered at) on the CPU clock
    accepts = []  # (query, window id, accepted at)
    accepts_cpu = []  # accepted at, on the CPU clock
    workers_hwm = []

    marks["start"] = clock()
    cpu_start = cpu()
    runtime = build_runtime(workload, single)
    sharded = isinstance(runtime, ShardedRuntime)
    if trace is not None:
        trace.wrap(runtime, "register", "analyzer")
    for name, text in workload.queries:
        runtime.register(text, name=name)
    sink = TransactionalSink(spec["sink"])
    store = None
    if workload.checkpoint_interval:
        # built as a job config builds it: the store's defaults, so the
        # checkpoints are written on its background thread
        store = CheckpointConfig(
            dir=spec["checkpoints"], interval=workload.checkpoint_interval
        ).build_store(registry=runtime.observability.registry)
    source = build_source(workload, spec, events)
    if sharded:
        runtime.rebalance([])  # an unstarted runtime spawns its workers here
        cpu.watch(child.pid for child in multiprocessing.active_children())

    # -- measurement points: first ingested event, slices, accepted rows ---
    inner_batches = source.batches

    def batches(size):
        iterator = inner_batches(size)
        seen = 0
        while True:
            requested = clock()
            requested_cpu = cpu()
            try:
                batch = next(iterator)
            except StopIteration:
                return
            pulls_cpu.append((requested_cpu, cpu()))
            pulls.append((seen, requested, clock()))
            seen += len(batch)
            yield batch

    source.batches = batches

    inner_emit = sink.emit

    def emit(record):
        inner_emit(record)
        accepts_cpu.append(cpu())
        accepts.append((record.query, record.result.window_id, clock()))

    sink.emit = emit

    inner_flush = runtime.flush

    def flush():
        # shard workers exit inside flush: read their peaks while they live
        workers_hwm.extend(
            _hwm_kib(child.pid) for child in multiprocessing.active_children()
        )
        return inner_flush()

    runtime.flush = flush

    state = {"storage_units_peak": 0, "stored_events_peak": 0, "buffered_peak": 0}
    if trace is not None:
        _trace_layers(trace, runtime, store, sink, sharded, workload, state)

    # -- the measured stream ------------------------------------------------
    marks["run"] = clock()
    runtime.run(
        source,
        sink,
        checkpoint_store=store,
        checkpoint_interval=workload.checkpoint_interval if store else None,
    )
    marks["end"] = clock()

    if store is not None:
        store.close()
    sink.close()
    snapshot = runtime.registry_snapshot()
    runtime.close()

    record = {
        "marks": marks,
        "pulls": pulls,
        "accepts": accepts,
        "cpu_start": cpu_start,
        "pulls_cpu": pulls_cpu,
        "accepts_cpu": accepts_cpu,
        "sharded": sharded,
        "events": runtime.metrics.events_ingested,
        "late_events": runtime.metrics.late_events,
        "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "workers_hwm_kib": workers_hwm,
        "sink_records": sink.records_written,
        "sink_bytes": os.path.getsize(spec["sink"]),
    }
    if trace is not None:
        record["trace"] = _trace_record(trace, runtime, store, snapshot, state)
    return record


def _trace_layers(trace, runtime, store, sink, sharded, workload, state):
    """Wrap each layer's public entry points for the traced run."""
    seen = {"events": 0, "sampled": 0}

    def sample(records):
        state["buffered_peak"] = max(state["buffered_peak"], runtime.buffered_events)
        if sharded:
            return
        seen["events"] = runtime.metrics.events_ingested
        if seen["events"] - seen["sampled"] < STATE_SAMPLE_EVENTS:
            return
        seen["sampled"] = seen["events"]
        _sample_state(runtime, workload, state)

    trace.wrap(runtime, "process_batch", "runtime", after=sample)
    trace.wrap(runtime, "flush", "runtime")
    trace.wrap(runtime, "checkpoint", "checkpoint.snapshot")
    trace.wrap(sink, "emit", "sink")
    if store is not None:
        trace.wrap(store, "save", "checkpoint.save")
    if not sharded:
        for name, _ in workload.queries:
            executor = runtime.engine(name).executor
            for method in ("process", "process_batch", "advance_time", "flush"):
                trace.wrap(executor, method, "core")


def _sample_state(runtime, workload, state):
    units = runtime.storage_units()
    stored = sum(
        runtime.engine(name).stored_event_count() for name, _ in workload.queries
    )
    state["storage_units_peak"] = max(state["storage_units_peak"], units)
    state["stored_events_peak"] = max(state["stored_events_peak"], stored)


def _trace_record(trace, runtime, store, snapshot, state):
    write = snapshot.get("families", {}).get("cogra_checkpoint_write_seconds", {})
    ship_p50 = snapshot_quantile(snapshot, "cogra_shard_ship_latency_seconds", 0.5)
    return {
        "self_s": dict(trace.self_s),
        "calls": dict(trace.calls),
        "results": dict(trace.results),
        "state": state,
        "checkpoint_count": store.checkpoint_count if store is not None else 0,
        "checkpoint_write_s": sum(
            child.get("sum", 0.0) for child in write.get("children", ())
        ),
        "checkpoint_bytes": sum(
            child.get("value", 0.0)
            for child in snapshot.get("families", {})
            .get("cogra_checkpoint_bytes_total", {})
            .get("children", ())
        ),
        "ship_latency_p50_s": ship_p50 or 0.0,
        "backpressure_s": snapshot_value(snapshot, "cogra_backpressure_seconds_total")
        or 0.0,
    }


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec_path = Path(argv[1])
    spec = json.loads(spec_path.read_text())
    record = run_job(spec)
    Path(spec["record"]).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
