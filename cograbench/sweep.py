"""The whole benchmark in one command.

Usage::

    python3 cograbench/sweep.py

For every workload it runs ``run.py`` once per seed in ``SEEDS`` with
``--trace 0`` (end-to-end metrics), then once with ``--trace 1`` (the
per-layer table), each run ``SECONDS`` long in a fresh interpreter, and
finally prints the evaluation of the run-table rows this sweep added: every
end-to-end metric by name with its unit (median and quartiles over the
seeds), ``failed_fraction``, and the traced per-layer table of each
workload.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from evaluate import RUN_TABLE, read_rows, report  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (1, 2, 3)
SECONDS = 45


def main() -> int:
    before = len(read_rows()) if RUN_TABLE.exists() else 0
    for workload in WORKLOADS:
        runs = [(seed, 0) for seed in SEEDS] + [(SEEDS[0], 1)]
        for seed, trace in runs:
            command = [
                sys.executable,
                str(HERE / "run.py"),
                "--workload",
                workload,
                "--seed",
                str(seed),
                "--seconds",
                str(SECONDS),
                "--trace",
                str(trace),
            ]
            subprocess.run(command, check=True)
    print()
    report(read_rows()[before:])
    return 0


if __name__ == "__main__":
    sys.exit(main())
