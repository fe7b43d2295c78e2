"""The repository's benchmark of record.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``closed_wan``, ``popn_zipf``, ``geo_2pc_traced`` (simulated)
and ``live_loopback`` (real processes over loopback TCP). With
``--trace 0`` the run prints the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` it runs the workload with every layer's public calls
wrapped and prints the per-layer metrics. Either way it checks the
program's outputs, and the last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
code is 0 only when every check passed; it is 2, with nothing printed to
standard output, when the program's sources are missing.
"""

import argparse
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SIM_WORKLOADS = ("closed_wan", "popn_zipf", "geo_2pc_traced")
WORKLOADS = SIM_WORKLOADS + ("live_loopback",)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, quick=False):
    """Run one benchmark invocation; ``quick`` shrinks every workload to
    a few seconds for the self-test."""
    args = parse_args(argv)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(spec_path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    import loopback
    import sims

    module = sims if args.workload in SIM_WORKLOADS else loopback
    run = module.trace_run if args.trace else module.measure
    out = {}
    ledger = run(args.workload, args.seed, args.seconds, quick, out)

    metrics = {}
    for metric in spec["per_layer" if args.trace else "end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        value = out.get(name)
        if value is None or not math.isfinite(value):
            # a layer with nothing to report reads 0; an end-to-end
            # metric must always be produced
            if not args.trace:
                ledger.fail(f"end-to-end metric {name} not produced")
            value = 0
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<44} {value:>16.6g} {unit}")
    correct = not ledger.failures
    print(json.dumps({
        "correct": correct,
        "attempted": max(ledger.attempted, 1),
        "failed": min(len(ledger.failures), max(ledger.attempted, 1)),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
