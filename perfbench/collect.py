"""Run the benchmark over many seeds and summarise its spread.

Usage::

    python3 perfbench/collect.py --seeds 1-10 [--trace] \\
        [--record FILE --label TEXT]

Runs ``perfbench/run.py`` once per seed on every workload of
``BENCHMARK.json``, for its ``run_seconds``, interleaving the workloads
so that slow drift of the host's speed spreads over all of them. For every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, next to the metric's
bound. ``--trace`` adds one traced run per workload on the first seed.
``--record`` appends all of it, with every run's metrics, as one point to
the ``points`` list of a JSON trajectory file (``perfbench/trajectory.json``
is the committed one); earlier points are kept.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def run(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
    start = time.monotonic()
    done = subprocess.run(command, capture_output=True, text=True,
                          cwd=ROOT, timeout=900)
    wall = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    report = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    if done.returncode != 0 or report is None:
        sys.stderr.write(done.stdout + done.stderr)
    return report, done.returncode, wall


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_list, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--record")
    parser.add_argument("--label", default="")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    runs = {name: [] for name in workloads}
    ok = True
    for seed in args.seeds:
        for name in workloads:
            report, code, wall = run(name, seed, seconds, trace=False)
            ok &= code == 0 and report is not None and report["correct"]
            runs[name].append(compact(seed, code, wall, report))
            print(f"{name} seed {seed}: exit {code}, {wall:.1f} s",
                  flush=True)
    summary = {}
    for name in workloads:
        summary[name] = {}
        done = [r for r in runs[name] if r["metrics"]]
        print(f"\n{name} ({len(done)} runs)")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]] for r in done]
            if len(values) < 2:
                continue
            stats = summarise(values)
            summary[name][metric["name"]] = stats
            print(f"  {metric['name']:<18} median {stats['median']:>12.6g} "
                  f"q1 {stats['q1']:>12.6g} q3 {stats['q3']:>12.6g} "
                  f"spread {100 * stats['spread']:6.2f}% "
                  f"(bound {100 * metric['bound']:.0f}%)")
    layers = {}
    if args.trace:
        for name in workloads:
            report, code, wall = run(name, args.seeds[0], seconds, True)
            ok &= code == 0 and report is not None and report["correct"]
            layers[name] = compact(args.seeds[0], code, wall, report)
            print(f"{name} seed {args.seeds[0]} traced: exit {code}, "
                  f"{wall:.1f} s", flush=True)
    if args.record:
        record(args.record, {
            "label": args.label, "claim": None, "run_seconds": seconds,
            "seeds": args.seeds, "end_to_end": summary,
            "per_layer": layers, "runs": runs})
    return 0 if ok else 1


def compact(seed, code, wall, report):
    """One run as recorded: its checks and its metric values."""
    if report is None:
        return {"seed": seed, "exit": code, "wall_s": wall, "metrics": {}}
    return {"seed": seed, "exit": code, "wall_s": round(wall, 1),
            "correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {key: cell["value"]
                        for key, cell in report["metrics"].items()}}


def record(path, point):
    """Append ``point`` to the trajectory file at ``path``."""
    trajectory = {"points": []}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            trajectory = json.load(handle)
    trajectory["points"].append(point)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trajectory, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    sys.exit(main())
