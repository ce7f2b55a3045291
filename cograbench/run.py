"""Run one benchmark workload for a fixed time and report its metrics.

Usage::

    python3 cograbench/run.py --workload ingest --seed 1 --seconds 45 --trace 0

The run builds the workload's input from ``--seed`` with the repo's stock
generator, computes the reference rows with ``CograEngine.run`` over the
time-sorted input (outside the timed section), then starts one job after
another, each in a fresh interpreter (``job.py``), until ``--seconds`` have
passed.  Every job's sink output is compared with the reference.

``--trace 0`` reports the end-to-end metrics: medians over the jobs of
throughput, setup time, peak memory and each job's per-row result latency
percentiles, times on the job's CPU clock (``job.JobClock``); the same
figures on the wall clock are printed as well, report-only.
``--trace 1`` alternates untraced and traced jobs (on ``event-trends`` also
a single-process leg of the same job) and reports the per-layer table.
The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` count result rows (``failed`` adds events
dropped as late), ``metrics`` maps each metric name to its value and unit.
Every run appends one row to the run table (``results/run_table.csv``,
columns in ``RUN_TABLE_COLUMNS.md``) and keeps its per-job numbers in
``results/raw/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from evaluate import (  # noqa: E402
    END_TO_END,
    LAYER_UNITS,
    PER_LAYER,
    RESULTS,
    WALL_CLOCK,
    append_row,
    job_metrics,
    layer_metrics,
    quantile,
    tail_percentile,
)
from workloads import WORKLOADS, arrival_order, encode_lines, reference  # noqa: E402

#: a single job (or the generator) taking longer than this is a failure
JOB_TIMEOUT_S = 120.0

#: iterations of the fixed pure-Python speed probe
PROBE_ITERATIONS = 1_000_000


def speed_probe() -> float:
    """Seconds one fixed pure-Python loop takes on this host right now."""
    started = time.perf_counter()
    sum(value * value % 7 for value in range(PROBE_ITERATIONS))
    return time.perf_counter() - started


def cpu_jiffies():
    """(steal, total) CPU time of the host since boot, from ``/proc/stat``."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = [int(value) for value in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def host_fingerprint() -> dict:
    revision = "unknown"
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_revision": revision,
    }


def legs(workload, traced: bool):
    """One cycle of (leg, traced) jobs; the run repeats whole cycles."""
    if not traced:
        return [("main", False)]
    cycle = [("main", False), ("main", True)]
    if workload.workers > 1:
        cycle += [("single", False), ("single", True)]
    return cycle


def run_one_job(workload, seed, leg, traced, job_dir: Path):
    """Start the job (and, for an open loop, its generator); return records."""
    job_dir.mkdir(parents=True)
    spec = {
        "workload": workload.name,
        "seed": seed,
        "single": leg == "single",
        "traced": traced,
        "input": str(job_dir.parent / "input.jsonl"),
        "sink": str(job_dir / "sink.jsonl"),
        "checkpoints": str(job_dir / "checkpoints"),
        "record": str(job_dir / "record.json"),
    }
    generator = None
    generator_log = job_dir / "generator.json"
    try:
        if workload.rate is not None:
            generator = subprocess.Popen(
                [
                    sys.executable,
                    str(HERE / "generator.py"),
                    "--seed",
                    str(seed),
                    "--log",
                    str(generator_log),
                ],
                stdout=subprocess.PIPE,
                text=True,
            )
            port = generator.stdout.readline().strip()
            if not port:
                raise RuntimeError("the generator exited before listening")
            spec["port"] = int(port)
        spec_path = job_dir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        subprocess.run(
            [sys.executable, str(HERE / "job.py"), str(spec_path)],
            check=True,
            timeout=JOB_TIMEOUT_S,
        )
        if generator is not None:
            if generator.wait(timeout=JOB_TIMEOUT_S) != 0:
                raise RuntimeError(f"the generator failed ({generator.returncode})")
    finally:
        if generator is not None:
            if generator.poll() is None:
                generator.kill()
            generator.wait()
            generator.stdout.close()
    record = json.loads(Path(spec["record"]).read_text())
    record["sink"] = spec["sink"]
    log = json.loads(generator_log.read_text()) if generator is not None else None
    return record, log


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)

    host = host_fingerprint()
    probe_before = speed_probe()
    jiffies_before = cpu_jiffies()
    started_utc = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S.%fZ")
    run_name = f"{workload.name}-seed{args.seed}-trace{args.trace}-{started_utc}"
    run_dir = RESULTS / "raw" / run_name
    scratch = run_dir / "jobs"

    # -- inputs and reference, outside the timed section -------------------
    arrival = arrival_order(workload, args.seed)
    expected = reference(workload, arrival)
    scratch.mkdir(parents=True)
    if workload.source == "jsonl":
        (scratch / "input.jsonl").write_text("".join(encode_lines(arrival)))

    # -- the sweep: whole cycles of jobs until the time is up --------------
    jobs = []
    deadline = time.monotonic() + args.seconds
    try:
        while not jobs or time.monotonic() < deadline:
            for leg, job_traced in legs(workload, traced):
                job_dir = scratch / f"job{len(jobs):03d}"
                record, log = run_one_job(workload, args.seed, leg, job_traced, job_dir)
                metrics = job_metrics(expected, record, log)
                if job_traced:
                    metrics["layers"] = layer_metrics(record, log)
                metrics.update(leg=leg, traced=job_traced)
                jobs.append(metrics)
                shutil.rmtree(job_dir)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    jiffies_after = cpu_jiffies()
    probe_after = speed_probe()

    # -- evaluation ---------------------------------------------------------
    attempted = sum(job["attempted"] for job in jobs)
    failed = sum(job["failed"] for job in jobs)
    main_jobs = [job for job in jobs if job["leg"] == "main" and not job["traced"]]
    valid = [job for job in main_jobs if job["valid"]] or main_jobs
    # latency percentiles are taken per job, then their median over the jobs:
    # a host stall in a minority of the jobs does not move the run's figure
    samples = min(len(job["latencies"]) for job in valid)
    percentile = tail_percentile(samples)

    def median(name):
        return statistics.median(job[name] for job in valid)

    def latency_ms(samples_of, q):
        return 1000.0 * statistics.median(
            quantile(job[samples_of], q) for job in valid
        )

    end_to_end = {
        "cpu_throughput_eps": median("cpu_throughput_eps"),
        "result_latency_p50_cpu_ms": latency_ms("cpu_latencies", 0.5),
        "result_latency_p99_cpu_ms": latency_ms("cpu_latencies", percentile / 100),
        "peak_rss_mib": median("peak_rss_mib"),
        "setup_s": median("setup_s"),
    }
    wall_clock = {
        "throughput_eps": median("throughput_eps"),
        "result_latency_p50_ms": latency_ms("latencies", 0.5),
        "result_latency_p99_ms": latency_ms("latencies", percentile / 100),
        "setup_wall_s": median("setup_wall_s"),
    }
    per_layer = per_layer_metrics(jobs, workload) if traced else {}

    row = {
        "started_utc": started_utc,
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "jobs": len(jobs),
        "valid_jobs": sum(1 for job in main_jobs if job["valid"]),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_fraction": failed / attempted,
        **end_to_end,
        **wall_clock,
        "latency_percentile": percentile,
        "latency_samples": samples,
        "probe_before_s": probe_before,
        "probe_after_s": probe_after,
        "steal_fraction": steal_fraction(jiffies_before, jiffies_after),
        "raw": str(run_dir.relative_to(HERE)),
        "per_layer": json.dumps(per_layer) if per_layer else "",
        **host,
    }
    if workload.rate is not None:
        row["generator_lag_p99_ms"] = max(j["generator_lag_p99_ms"] for j in main_jobs)
        row["generator_lag_max_ms"] = max(j["generator_lag_max_ms"] for j in main_jobs)
    (run_dir / "run.json").write_text(
        json.dumps(
            {
                "row": row,
                "jobs": [
                    {
                        **{
                            k: v
                            for k, v in job.items()
                            if k not in ("latencies", "cpu_latencies")
                        },
                        "latency_p50_ms": 1000.0 * quantile(job["latencies"], 0.5),
                        "latency_tail_ms": 1000.0
                        * quantile(job["latencies"], percentile / 100.0),
                        "cpu_latency_p50_ms": 1000.0
                        * quantile(job["cpu_latencies"], 0.5),
                        "cpu_latency_tail_ms": 1000.0
                        * quantile(job["cpu_latencies"], percentile / 100.0),
                    }
                    for job in jobs
                ],
            },
            indent=1,
        )
    )
    append_row(row)

    print_report(row, end_to_end, wall_clock, per_layer, traced)
    metrics = per_layer if traced else end_to_end
    units = dict(PER_LAYER if traced else END_TO_END)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0


def steal_fraction(before, after):
    """Share of the host's CPU time the hypervisor gave to others, or ''."""
    if before is None or after is None or after[1] == before[1]:
        return ""
    return (after[0] - before[0]) / (after[1] - before[1])


def per_layer_metrics(jobs, workload) -> dict:
    """Medians over the run's traced jobs.

    A sharded job's executors run in its worker processes, so on a sharded
    workload ``runtime.*`` and ``core.*`` come from the traced
    single-process leg of the same job.
    """

    def median(leg, traced, value):
        return statistics.median(
            value(job) for job in jobs if job["leg"] == leg and job["traced"] == traced
        )

    def throughput(leg, traced=False, name="throughput_eps"):
        return median(leg, traced, lambda job: job[name])

    sharded = workload.workers > 1
    layers = {}
    for name in next(job["layers"] for job in jobs if job["traced"]):
        leg = "single" if sharded and name.startswith(("runtime.", "core.")) else "main"
        layers[name] = median(leg, True, lambda job: job["layers"][name])
    layers["trace.overhead_fraction"] = 1.0 - throughput(
        "main", True, "cpu_throughput_eps"
    ) / throughput("main", name="cpu_throughput_eps")
    layers["sharded.speedup_vs_single"] = (
        throughput("main") / throughput("single") if sharded else 0.0
    )
    return {name: layers[name] for name in LAYER_UNITS}


def print_report(row, end_to_end, wall_clock, per_layer, traced) -> None:
    print(
        f"cograbench {row['workload']} seed={row['seed']} trace={row['trace']} "
        f"jobs={row['jobs']} valid={row['valid_jobs']}"
    )
    steal = row["steal_fraction"]
    print(
        f"  host: {row['cpu_count']} cpus, python {row['python']}, "
        f"{row['platform']}, rev {row['git_revision'][:12]}; speed probe "
        f"{row['probe_before_s']:.3f}s before, {row['probe_after_s']:.3f}s after"
        + (f"; {steal:.1%} of CPU time stolen" if steal != "" else "")
    )
    print(
        f"  correctness: {row['failed']} of {row['attempted']} rows failed "
        f"(failed_fraction {row['failed_fraction']:.6g})"
    )
    if traced:
        for name, value in per_layer.items():
            print(f"  {name:<30} {value:>14.6g} {LAYER_UNITS[name]}")
        return
    units = dict(END_TO_END + WALL_CLOCK)
    for name, value in end_to_end.items():
        print(f"  {name:<30} {value:>14.6g} {units[name]}")
    print("  on the wall clock (report-only):")
    for name, value in wall_clock.items():
        print(f"  {name:<30} {value:>14.6g} {units[name]}")
    print(
        f"  latency tail percentile p{row['latency_percentile']:.4g}, "
        f"at least {row['latency_samples']} samples per job"
    )
    if "generator_lag_max_ms" in row:
        print(
            f"  generator lateness: p99 {row['generator_lag_p99_ms']:.3f} ms, "
            f"max {row['generator_lag_max_ms']:.3f} ms"
        )


if __name__ == "__main__":
    sys.exit(main())
