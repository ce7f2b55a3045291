"""Open-loop event generator for the ``live`` workload, run as its own process.

Usage::

    python3 cograbench/generator.py --seed N --log LOG.json

It listens on an ephemeral port of 127.0.0.1, prints the port as its first
line of output, accepts one connection (the job's ``tcp://`` source) and
sends the ``live`` workload's shuffled stream on a fixed schedule: event ``i`` is
due at ``t0 + i / rate`` with ``t0`` the moment the connection was
accepted.  The schedule never waits for the receiver; when a send falls
behind, the events due meanwhile go out together and the delay is
recorded.  On exit it writes ``t0``, the rate and each burst's send time to
``LOG.json``.
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, arrival_order, encode_lines  # noqa: E402

clock = time.monotonic

#: seconds to wait for the job to connect
ACCEPT_TIMEOUT = 60.0


def serve(lines, rate: float, server: socket.socket) -> dict:
    connection, _ = server.accept()
    data = [line.encode("utf-8") for line in lines]
    count = len(data)
    bursts = []  # (first index, events, sent at)
    with connection:
        connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        t0 = clock()
        index = 0
        while index < count:
            due = t0 + index / rate
            now = clock()
            if now < due:
                time.sleep(due - now)
                now = clock()
            # everything due by now goes out in one write
            stop = min(count, max(index + 1, int((now - t0) * rate) + 1))
            connection.sendall(b"".join(data[index:stop]))
            bursts.append((index, stop - index, clock()))
            index = stop
        connection.shutdown(socket.SHUT_WR)
        # wait for the job to close its end, so no data is cut off
        connection.settimeout(ACCEPT_TIMEOUT)
        while connection.recv(4096):
            pass
    return {"t0": t0, "rate": rate, "events": count, "bursts": bursts}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--log", required=True)
    args = parser.parse_args()
    workload = WORKLOADS["live"]
    lines = encode_lines(arrival_order(workload, args.seed))
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as server:
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        server.settimeout(ACCEPT_TIMEOUT)
        print(server.getsockname()[1], flush=True)
        log = serve(lines, workload.rate, server)
    Path(args.log).write_text(json.dumps(log))
    return 0


if __name__ == "__main__":
    sys.exit(main())
