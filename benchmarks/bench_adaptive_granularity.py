"""Adaptive granularity re-planning: throughput on a selectivity-shift stream.

The static analyzer fixes one granularity per query at plan time.  This
workload is built so that no static choice is right for the whole stream:

* a long **sparse phase** spreads events over 2000 groups -- under one
  event per sub-stream, so event granularity (store the few matched events)
  is cheaper than paying one accumulator update per pattern variable;
* a **dense phase** then concentrates the stream on 4 groups -- hundreds of
  events per sub-stream, where type granularity's constant per-event work
  wins and event granularity degenerates.

The benchmark runs the same stream three ways -- forced ``type``, forced
``event``, and with ``replan.enabled`` (the observe-decide-act loop of
:mod:`repro.streaming.replan`) -- and checks that

* all three emit byte-identical results (migration is invisible to
  correctness),
* the control loop actually migrated, in *both* directions (coarse->fine
  in the sparse phase, fine->coarse in the dense one), and
* the re-planned run's throughput beats **both** static plans.

One record per leg is appended to ``BENCH_streaming.json`` so the
``check_regression.py`` gate tracks the trajectory.
"""

import random
import time

from conftest import save_report
from repro.events.event import Event
from repro.events.stream import sort_events
from repro.streaming.runtime import StreamingRuntime

from helpers_results import append_bench_record, results_signature

#: multi-variable Kleene pattern: enough per-variable accumulator work for
#: the granularity choice to dominate the per-event cost
QUERY = """
RETURN g, COUNT(*), SUM(A.v), MAX(A.v)
PATTERN SEQ(A+, B, C+, D, E+, F)
SEMANTICS skip-till-any-match
GROUP-BY g
WITHIN 20 seconds SLIDE 10 seconds
"""

SPARSE_EVENTS = 12000
SPARSE_GROUPS = 4000
SPARSE_SPAN = 800.0
DENSE_EVENTS = 3000
DENSE_GROUPS = 4

REPLAN = {"enabled": True, "check_interval_events": 400, "hysteresis": 0.2}


def selectivity_shift_workload(seed=7):
    """Sparse phase (many groups, thin sub-streams) then a dense burst."""
    rng = random.Random(seed)
    types = "AABCDEF"
    events = []
    for i in range(SPARSE_EVENTS):
        events.append(
            Event(
                types[i % len(types)],
                rng.uniform(0.0, SPARSE_SPAN),
                {"g": i % SPARSE_GROUPS, "v": i % 13},
            )
        )
    for i in range(DENSE_EVENTS):
        events.append(
            Event(
                types[i % len(types)],
                rng.uniform(SPARSE_SPAN + 400.0, SPARSE_SPAN + 500.0),
                {"g": i % DENSE_GROUPS, "v": i % 13},
            )
        )
    return sort_events(events)


#: the three plans, as StreamingRuntime / register keyword arguments
LEGS = {
    "type": ({}, {"granularity": "type"}),
    "event": ({}, {"granularity": "event"}),
    "adaptive": ({"replan": REPLAN}, {}),
}

#: interleaved cycles: a host-speed swing during one cycle hits every plan
CYCLES = 3


def _leg(events, runtime_options, register_options):
    """One wall-clock run of one plan: (runtime, records, elapsed seconds)."""
    runtime = StreamingRuntime(lateness=5.0, **runtime_options)
    runtime.register(QUERY, name="q", **register_options)
    started = time.perf_counter()
    records = runtime.run(events)
    return runtime, records, time.perf_counter() - started


def _run_interleaved(events):
    """Each plan's fastest run over ``CYCLES`` cycles of type, event, adaptive.

    Interleaving spreads a slow stretch of the host over all three plans
    instead of letting it land on one, and the best of the cycles drops it.
    Throughput stays wall-clock ev/s.
    """
    best = {}
    for _ in range(CYCLES):
        for name, (runtime_options, register_options) in LEGS.items():
            leg = _leg(events, runtime_options, register_options)
            if name not in best or leg[2] < best[name][2]:
                best[name] = leg
    return {
        name: (runtime, records, len(events) / elapsed)
        for name, (runtime, records, elapsed) in best.items()
    }


def test_replanning_beats_both_static_plans(benchmark, results_dir):
    events = selectivity_shift_workload()

    def run():
        return _run_interleaved(events)

    legs = benchmark.pedantic(run, rounds=1, iterations=1)

    # correctness first: migrations never change what is emitted
    signatures = {
        name: results_signature(r.result for r in records)
        for name, (_, records, _) in legs.items()
    }
    assert signatures["adaptive"] == signatures["type"] == signatures["event"]

    # the loop re-planned, and in both directions: the sparse phase demands
    # a coarse->fine migration, the dense burst the way back
    adaptive_runtime = legs["adaptive"][0]
    directions = {(m["from"], m["to"]) for m in adaptive_runtime.replan_log}
    assert ("type", "event") in directions, adaptive_runtime.replan_log
    assert ("event", "type") in directions, adaptive_runtime.replan_log
    assert adaptive_runtime.metrics.replan_migrations >= 2

    throughputs = {name: leg[2] for name, leg in legs.items()}
    lines = [
        "Adaptive granularity re-planning on a selectivity-shift stream",
        "",
        f"events={len(events)} (sparse {SPARSE_EVENTS}/{SPARSE_GROUPS} groups, "
        f"dense {DENSE_EVENTS}/{DENSE_GROUPS} groups)",
        f"static type : {throughputs['type']:10,.0f} ev/s",
        f"static event: {throughputs['event']:10,.0f} ev/s",
        f"re-planned  : {throughputs['adaptive']:10,.0f} ev/s  "
        f"({adaptive_runtime.metrics.replan_migrations} migrations, "
        f"pause {adaptive_runtime.metrics.replan_pause_seconds * 1000.0:.1f} ms)",
    ]
    for record in adaptive_runtime.replan_log:
        lines.append(
            f"  {record['query']}: {record['from']} -> {record['to']} "
            f"(v{record['version']}, after {record['events_total']} events)"
        )
    save_report(results_dir, "adaptive_granularity", "\n".join(lines))

    for name, throughput in throughputs.items():
        append_bench_record(
            f"adaptive_granularity_{name}",
            throughput=throughput,
            events=len(events),
            migrations=(
                adaptive_runtime.metrics.replan_migrations
                if name == "adaptive"
                else 0
            ),
        )

    # the tentpole claim: re-planning beats BOTH static plans end to end
    assert throughputs["adaptive"] > throughputs["type"], (
        f"re-planned run should out-run static type granularity: "
        f"{throughputs['adaptive']:,.0f} vs {throughputs['type']:,.0f} ev/s"
    )
    assert throughputs["adaptive"] > throughputs["event"], (
        f"re-planned run should out-run static event granularity: "
        f"{throughputs['adaptive']:,.0f} vs {throughputs['event']:,.0f} ev/s"
    )
