"""Quick self-test of the benchmark.

Usage: ``python3 perfbench/selftest.py``

Runs every workload of ``BENCHMARK.json`` briefly, untraced and traced,
and asserts that each run passes its checks and prints every named metric
with its unit as a number. Then checks that, next to nothing but
``BENCHMARK.json`` and the benchmark's own files, the benchmark exits
non-zero without printing a result. Takes well under a minute.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import run  # noqa: E402  (this directory is first on sys.path)


def check_run(spec, workload, trace):
    argv = ["--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(argv, quick=True)
    report = json.loads(stdout.getvalue().strip().splitlines()[-1])
    assert code == 0 and report["correct"], (workload, trace, report)
    assert report["failed"] == 0 and report["attempted"] >= 1, report
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert set(report["metrics"]) == {m["name"] for m in wanted}, workload
    for metric in wanted:
        cell = report["metrics"][metric["name"]]
        assert cell["unit"] == metric["unit"], (workload, metric, cell)
        assert isinstance(cell["value"], (int, float)), (workload, cell)
        if not trace:
            assert cell["value"] > 0, (workload, metric["name"], cell)
    print(f"ok {workload} trace={trace}: {len(wanted)} metrics")


def check_without_program(spec):
    """A directory with only the benchmark's files must fail cleanly."""
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            spec["command"] + ["--workload", spec["workloads"][0]["name"],
                               "--seed", "1", "--seconds", "1",
                               "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        assert done.returncode != 0 and not done.stdout.strip(), done
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(bare))
    print("ok without the program: exit", done.returncode)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, workload["name"], trace)
    check_without_program(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
