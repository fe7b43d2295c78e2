"""Run one simulation of a benchmark workload in this fresh process.

Usage: ``python3 perfbench/rss_probe.py WORKLOAD SEED TRANSACTIONS``

Prints one JSON line: the process's peak resident set size in MB, the
run's digest and event count, and its host seconds. The benchmark starts
this as a child so that peak memory is measured without the benchmark's
own state, and to check the ``population_100k`` cell's digest beside
untimed work.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def peak_rss_mb(pid="self"):
    """Peak resident set size of process ``pid`` in MB (``VmHWM``).

    Not ``getrusage``: on Linux a process's ``ru_maxrss`` keeps the peak
    of the process that launched it, so a child of a large benchmark
    process would report the benchmark's memory.
    """
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def main(argv):
    workload, seed, txns = argv[0], int(argv[1]), int(argv[2])
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from repro.core.runner import run_simulation

    from sims import SIM_WORKLOADS, digest

    config = SIM_WORKLOADS[workload].make(seed, txns)
    start = time.perf_counter()
    result = run_simulation(config)
    host_s = time.perf_counter() - start
    print(json.dumps({
        "peak_rss_mb": peak_rss_mb(), "digest": digest(result),
        "events": result.engine_stats["processed_events"],
        "host_s": host_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
