"""The three simulated workloads and how one benchmark run measures them.

Every workload is a :class:`~repro.core.config.SimulationConfig` built
from a seed. One run derives ``subseeds`` seeds from the workload seed and
runs each once (the fixed work: every simulated metric pools these runs,
so it is exact for a given seed), then repeats them in turn until the
run's time is up. Repeats must reproduce the first run's digest and event
count. Host throughput is the median over every timed simulation of its
finished transactions per host second, scaled to the reference host by
:mod:`hostspeed`: a median, so a simulation slowed by a hiccup of the
host does not move it.
"""

import gc
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from repro.core.config import SimulationConfig
from repro.core.runner import run_simulation
from repro.obs.decompose import decompose_trace
from repro.perf.fingerprint import fingerprint_digest, result_fingerprint

from hostspeed import HostClock
from layertrace import LayerTrace, RunEntry

HERE = os.path.dirname(os.path.abspath(__file__))

#: ``BENCH_kernel.json``'s ``population_100k`` cell, the source of
#: ``popn_zipf``'s inputs; every full ``popn_zipf`` run reruns it on its
#: own seed and length, and the digests must agree
POPULATION_CELL = "population_100k"
POPULATION_CELL_SEED = 73
POPULATION_CELL_TXNS = 2000


def closed_wan(seed, txns):
    """The paper's Table 1 closed loop under g-2PL at latency 500."""
    return SimulationConfig(
        protocol="g2pl", n_clients=50, n_items=25, read_probability=0.6,
        network_latency=500.0, total_transactions=txns,
        warmup_transactions=txns // 10, seed=seed, record_history=True)


def popn_zipf(seed, txns):
    """``population_100k``'s inputs: 10^5 open-arrival users on 50 sites,
    1000 items with Zipf 0.5, offered load above capacity."""
    return SimulationConfig(
        protocol="g2pl", n_clients=50, n_items=1000, read_probability=0.6,
        network_latency=500.0, population=100_000, arrival_rate=5e-6,
        access_skew=0.5, streaming=True, total_transactions=txns,
        warmup_transactions=txns // 10, seed=seed, record_history=False)


def geo_2pc_traced(seed, txns):
    """Sharded s-2PL over four regions, 30% cross-shard 2PC, write-heavy,
    with the program's tracer and 200-unit probes on."""
    return SimulationConfig(
        protocol="s2pl", n_clients=32, n_items=64, read_probability=0.3,
        n_shards=4, n_regions=4, network_latency=100.0,
        intra_region_latency=5.0, cross_shard_probability=0.3,
        commit_protocol="2pc", trace=True, probe_interval=200.0,
        total_transactions=txns, warmup_transactions=txns // 10,
        seed=seed, record_history=True)


@dataclass(frozen=True)
class SimWorkload:
    make: object        # callable(seed, txns) -> SimulationConfig
    txns: int           # transactions per simulation
    subseeds: int       # simulations of fixed work per benchmark run
    quick_txns: int
    quick_subseeds: int

    def configs(self, seed, quick):
        txns = self.quick_txns if quick else self.txns
        count = self.quick_subseeds if quick else self.subseeds
        return [self.make(sub, txns) for sub in subseeds(seed, count)]


SIM_WORKLOADS = {
    "closed_wan": SimWorkload(closed_wan, 1500, 8, 200, 2),
    "popn_zipf": SimWorkload(popn_zipf, 500, 8, 300, 1),
    "geo_2pc_traced": SimWorkload(geo_2pc_traced, 1500, 10, 200, 2),
}


def subseeds(seed, count):
    """The simulation seeds one benchmark run derives from its seed."""
    return [seed * 1000 + index for index in range(count)]


def digest(result):
    return fingerprint_digest(result_fingerprint(result))


@dataclass
class Rep:
    """One ``run_simulation`` call, measured from outside."""

    result: object      # the SimulationResult, dropped once summarised
    host_s: float
    setup_s: float
    digest: str
    events: int


def run_rep(config):
    """Run once untraced; set-up ends when the kernel is entered.

    Collecting garbage first starts every run from the same heap, so no
    run pays for collecting what earlier runs left behind.
    """
    gc.collect()
    with RunEntry() as entry:
        start = time.perf_counter()
        result = run_simulation(config)
        end = time.perf_counter()
    return Rep(result, end - start, entry.entered[0] - start, digest(result),
               result.engine_stats["processed_events"])


def run_traced(config):
    """Run once inside a :class:`LayerTrace`; returns ``(rep, trace)``."""
    gc.collect()
    trace = LayerTrace()
    with trace:
        start = time.perf_counter()
        result = trace.root(run_simulation, config)
        end = time.perf_counter()
    return (Rep(result, end - start, float("nan"), digest(result),
                result.engine_stats["processed_events"]), trace)


class Ledger:
    """Attempted and failed runs of one benchmark invocation."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def attempt(self, label, fn, *args):
        """Call ``fn``; a raise is a failed run, reported and survived."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # any raise is a failed run, not a crash
            self.fail(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def fail(self, message):
        self.failures.append(message)
        print(f"FAILED {message}", file=sys.stderr)

    def same(self, label, first, again):
        """A repeat must reproduce the first run's trajectory."""
        if (again.digest, again.events) != (first.digest, first.events):
            self.fail(f"{label}: nondeterministic (digest {first.digest[:12]}"
                      f"/{again.digest[:12]}, events {first.events}"
                      f"/{again.events})")


# -- response-time samples pooled across seeds --------------------------------

def response_sample(metrics):
    """``(count, mean, values)`` of a run's measured committed responses."""
    if metrics.streaming:
        return (metrics.moments.count, metrics.moments.mean,
                list(metrics.reservoir.values))
    values = list(metrics.response_times)
    return len(values), sum(values) / len(values), values


def percentile(values, p):
    """Linearly interpolated percentile, as ``RunMetrics.percentile``; a
    copy, so that no change to the program can redefine a bounded metric."""
    data = sorted(values)
    rank = (p / 100.0) * (len(data) - 1)
    low = int(rank)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (rank - low)


def outcome_summary(result):
    """What the end-to-end metrics need from one run."""
    metrics = result.metrics
    return {"committed": metrics.committed, "finished": metrics.finished,
            "messages": result.messages_sent,
            "response": response_sample(metrics)}


def simulated_metrics(summaries):
    """The exact end-to-end metrics, pooled over the fixed-work runs."""
    committed = sum(s["committed"] for s in summaries)
    finished = sum(s["finished"] for s in summaries)
    count = total = 0.0
    values = []
    for summary in summaries:
        n, mean, sample = summary["response"]
        count += n
        total += n * mean
        values += sample
    return {
        "resp_mean": total / count,
        "resp_p50": percentile(values, 50.0),
        "resp_p99": percentile(values, 99.0),
        "resp_samples": len(values),
        "commit_pct": 100.0 * committed / finished,
        "msgs_per_commit": sum(s["messages"] for s in summaries) / committed,
    }


# -- runs in a fresh process -------------------------------------------------

class Probe:
    """One run of a workload in a fresh interpreter (``rss_probe.py``),
    started at once and waited for by :meth:`report`."""

    def __init__(self, workload, seed, txns):
        self.label = f"{workload} seed {seed} in a fresh process"
        self._child = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "rss_probe.py"), workload,
             str(seed), str(txns)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)

    def report(self, ledger):
        """The child's JSON report, or None when it failed."""
        ledger.attempted += 1
        try:
            stdout, stderr = self._child.communicate(timeout=170)
        except subprocess.TimeoutExpired:
            self._child.kill()
            stdout, stderr = self._child.communicate()
        if self._child.returncode != 0:
            ledger.fail(f"{self.label}: exit {self._child.returncode}\n"
                        f"{stderr}")
            return None
        return json.loads(stdout.strip().splitlines()[-1])


def peak_rss(workload, config, ledger):
    """Run ``config`` once in a fresh interpreter; returns its peak RSS in
    MB and its run as a :class:`Rep`, or ``(None, None)`` when the child
    failed."""
    report = Probe(workload, config.seed,
                   config.total_transactions).report(ledger)
    if report is None:
        return None, None
    return report["peak_rss_mb"], Rep(None, report["host_s"], float("nan"),
                                      report["digest"], report["events"])


def population_cell(name, quick):
    """Start the ``population_100k`` cell, on its own seed and length, in a
    fresh interpreter; None when this run does not check it. Every
    ``popn_zipf`` run but the self-test's checks it, whatever its seed. It
    takes about 25 s, so it runs beside untimed work."""
    if name != "popn_zipf" or quick:
        return None
    return Probe(name, POPULATION_CELL_SEED, POPULATION_CELL_TXNS)


def check_population_cell(cell, ledger):
    """On the cell's own seed and length, ``popn_zipf`` is the
    ``population_100k`` cell: its digest must equal the committed one."""
    if cell is None:
        return
    report = cell.report(ledger)
    if report is None:
        return
    path = os.path.join(os.path.dirname(HERE), "BENCH_kernel.json")
    with open(path, "r", encoding="utf-8") as handle:
        expected = json.load(handle)["cells"][POPULATION_CELL]["digest"]
    verdict = "matches" if report["digest"] == expected else "DIFFERS FROM"
    print(f"  {POPULATION_CELL} digest {report['digest']} {verdict} "
          f"BENCH_kernel.json")
    if report["digest"] != expected:
        ledger.fail(f"{POPULATION_CELL} digest {report['digest']} != "
                    f"{expected}")


# -- one measured run ---------------------------------------------------------

def measure(name, seed, seconds, quick, out):
    """Measure workload ``name``; fills ``out`` (metric -> value) and
    returns the :class:`Ledger`."""
    workload = SIM_WORKLOADS[name]
    deadline = time.perf_counter() + seconds
    ledger = Ledger()
    clock = HostClock()
    configs = workload.configs(seed, quick)
    first, summaries, runs, rates, setups = {}, {}, {}, [], []
    unscaled = []

    def timed(config, rep, scale):
        runs[config.seed] += 1
        finished = summaries[config.seed]["finished"]
        rates.append(finished / (rep.host_s * scale))
        unscaled.append(finished / rep.host_s)
        setups.append(rep.setup_s * scale)

    for config in configs:
        rep = ledger.attempt(f"seed {config.seed}", run_rep, config)
        scale = clock.tick()
        if rep is not None:
            summaries[config.seed] = outcome_summary(rep.result)
            rep.result = None
            first[config.seed] = rep
            runs[config.seed] = 0
            timed(config, rep, scale)
    if not first:
        return ledger
    probe = configs[0]
    cell = population_cell(name, quick)
    rss_mb, fresh = peak_rss(name, probe, ledger)
    check_population_cell(cell, ledger)
    if probe.seed in first and fresh is not None:
        ledger.same(f"seed {probe.seed} in a fresh process",
                    first[probe.seed], fresh)
    clock = HostClock()
    repeats = 0
    # Repeat the seeds until time is up; with no fresh-process run to
    # compare against, repeat at least once to check determinism.
    while time.perf_counter() < deadline or repeats == 0 and fresh is None:
        config = configs[repeats % len(configs)]
        repeats += 1
        if config.seed not in first:
            continue
        rep = ledger.attempt(f"seed {config.seed} repeat", run_rep, config)
        scale = clock.tick()
        if rep is None:
            continue
        ledger.same(f"seed {config.seed} repeat", first[config.seed], rep)
        timed(config, rep, scale)

    sim = simulated_metrics(list(summaries.values()))
    out["host_txns_per_s"] = statistics.median(rates)
    out["setup_s"] = statistics.median(setups)
    if rss_mb is not None:
        out["peak_rss_mb"] = rss_mb
    # every run pools at least 2500 samples, so ten or more lie beyond p99
    out["resp_tail"] = sim["resp_p99"]
    for key in ("resp_p50", "commit_pct", "msgs_per_commit"):
        out[key] = sim[key]
    print(f"{name}: seed {seed}, {len(first)} simulations of "
          f"{configs[0].total_transactions} txns, "
          f"{len(rates)} timed runs; median {out['host_txns_per_s']:.1f} "
          f"txn/s scaled, {statistics.median(unscaled):.1f} unscaled")
    for config in configs:
        if config.seed in first:
            rep = first[config.seed]
            print(f"  digest seed {config.seed}: {rep.digest} "
                  f"({rep.events} events, {runs[config.seed]} runs)")
    print(f"  response samples {sim['resp_samples']}: mean "
          f"{sim['resp_mean']:.1f}, p99 {sim['resp_p99']:.1f} units; "
          f"aborted {100.0 - sim['commit_pct']:.2f}%")
    return ledger


# -- one traced run -----------------------------------------------------------

def layer_table(trace, root_s, out, scale=1.0):
    """``<layer>.self_s`` (scaled to the reference host) and
    ``<layer>.share`` from one traced run of ``root_s`` host seconds."""
    for layer, spent in trace.layer_self().items():
        out[f"{layer}.self_s"] = spent * scale
        out[f"{layer}.share"] = 100.0 * spent / root_s
    out.update(trace.counters())


def exact_counters(result, out):
    """Per-layer counters the program itself reports (exact per seed)."""
    engine, stats = result.engine_stats, result.server_stats
    metrics = result.metrics
    out["sim.events"] = engine["processed_events"]
    out["sim.peak_heap"] = engine["peak_heap_depth"]
    out["sim.cancelled"] = engine["cancelled_events"]
    out["network.messages"] = result.messages_sent
    out["network.data_units"] = result.data_units_sent
    for key in ("aborts_initiated", "windows_dispatched", "mean_fl_length",
                "deadlocks_found", "mean_op_wait"):
        out[f"protocols.{key}"] = stats.get(key, 0)
    for key in ("twopc_commits", "twopc_aborts", "distributed_deadlocks"):
        out[f"protocols.sharded.{key}"] = stats.get(key, 0)
    arrivals = stats.get("popn_arrivals", 0)
    out["workload.arrivals"] = arrivals
    out["workload.shed"] = stats.get("popn_shed", 0)
    out["workload.busy_skipped"] = stats.get("popn_busy_skipped", 0)
    out["workload.shed_pct"] = (100.0 * out["workload.shed"] / arrivals
                                if arrivals else 0.0)
    out["stats.abort_pct"] = metrics.abort_percentage


def phase_means(trace_data, out, prefix="phase."):
    decomposition = decompose_trace(trace_data)
    for phase in ("network", "server_queue", "lock_wait", "client_think",
                  "commit_coord", "abort_resolution"):
        out[f"{prefix}{phase}"] = decomposition.mean(phase)


def trace_run(name, seed, seconds, quick, out):
    """Per-layer metrics of workload ``name`` from traced runs of its first
    seed, each paired with an untraced run of the same seed."""
    workload = SIM_WORKLOADS[name]
    deadline = time.perf_counter() + seconds
    ledger = Ledger()
    clock = HostClock()
    config = workload.configs(seed, quick)[0]
    plain, traced = [], []
    while not plain or time.perf_counter() < deadline and len(plain) < 5:
        rep = ledger.attempt(f"seed {config.seed}", run_rep, config)
        clock.tick()
        got = ledger.attempt(f"seed {config.seed} traced", run_traced, config)
        scale = clock.tick()
        if rep is None or got is None:
            break
        ledger.same(f"seed {config.seed} traced", rep, got[0])
        if plain:
            ledger.same(f"seed {config.seed} repeat", plain[0], rep)
        plain.append(rep)
        traced.append((*got, scale))
    if not traced:
        return ledger
    traced.sort(key=lambda entry: entry[0].host_s)
    rep, trace, scale = traced[len(traced) // 2]
    layer_table(trace, rep.host_s, out, scale)
    exact_counters(rep.result, out)
    out["stats.resp_mean"] = response_sample(rep.result.metrics)[1]
    untraced_s = statistics.median(r.host_s for r in plain)
    out["trace.overhead_pct"] = 100.0 * (rep.host_s / untraced_s - 1.0)
    cell = population_cell(name, quick)
    program_trace = plain[0].result.trace
    if program_trace is None:
        extra = ledger.attempt(f"seed {config.seed} with tracer",
                               run_rep, config.replace(trace=True))
        program_trace = extra.result.trace if extra is not None else None
    if program_trace is not None:
        phase_means(program_trace, out)
    check_population_cell(cell, ledger)
    first = plain[0]
    same = all((got.digest, got.events) == (first.digest, first.events)
               for got, _trace, _scale in traced)
    print(f"{name}: seed {config.seed} traced {len(traced)} times; digest "
          f"{first.digest} and {first.events} events "
          f"{'equal' if same else 'DIFFER from'} untraced")
    return ledger
