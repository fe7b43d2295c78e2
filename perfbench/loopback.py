"""The ``live_loopback`` workload: one server and two client processes.

Each scenario is the g-2PL Table 1 generator in ``workload`` mode, run by
:func:`repro.live.harness.calibrate` over real asyncio TCP on loopback
and checked against the simulator (serializable, strict, per-transaction
rounds equal). One benchmark run pools several scenarios, one per seed it
derives, so set-up is measured several times and the response sample is
large enough for a p95 with ten samples beyond it.

At 0.005 wall seconds per simulation unit the live stack's own cost is a
visible, steady part of the response time; at larger scales the shaped
latency hides it, at smaller ones the tail wanders with the scheduler.
"""

import os
import shutil
import statistics
import threading
import time

from repro.live.harness import calibrate
from repro.live.scenario import ScenarioSpec
from repro.obs.decompose import (common_committed, compare,
                                 decompose_records, decompose_trace)
from repro.perf.fingerprint import fingerprint_digest

from layertrace import LayerTrace
from rss_probe import peak_rss_mb
from sims import Ledger, layer_table, percentile, phase_means, subseeds

HERE = os.path.dirname(os.path.abspath(__file__))
#: live runs keep their endpoint configs and results inside the checkout
WORKDIR = os.path.join(os.path.dirname(HERE), ".perfbench")

TIME_SCALE = 0.005       # wall seconds per simulation unit
LEAD = 0.2               # wall seconds from the start broadcast to time zero
DURATION = 1000.0        # simulation units in which clients start txns
SCENARIOS = 3
QUICK_DURATION = 150.0
MEMORY_POLL_S = 0.05     # wall seconds between polls of endpoint memory


def scenario(seed, quick):
    return ScenarioSpec(protocol="g2pl", mode="workload", n_clients=2,
                        duration=QUICK_DURATION if quick else DURATION,
                        seed=seed)


class EndpointMemory:
    """Peak RSS of the endpoint processes, polled while they run.

    The endpoints are children of this process, so their own peaks are
    read from ``/proc`` (see :func:`rss_probe.peak_rss_mb`). The peak only
    grows, so the last poll before an endpoint exits misses at most its
    final :data:`MEMORY_POLL_S`.
    """

    def __init__(self):
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)
        main = threading.main_thread().native_id
        self._children = f"/proc/{os.getpid()}/task/{main}/children"

    def _poll(self):
        while not self._stop.wait(MEMORY_POLL_S):
            with open(self._children, encoding="ascii") as handle:
                pids = handle.read().split()
            for pid in pids:
                try:
                    self.peak_mb = max(self.peak_mb, peak_rss_mb(pid))
                except (OSError, RuntimeError):  # exited between reads
                    pass

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        self._thread.join(timeout=5.0)
        return False


class Scenario:
    """One calibrated live run and its set-up time."""

    def __init__(self, spec):
        workdir = os.path.join(WORKDIR, f"live-{os.getpid()}-{spec.seed}")
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        try:
            launched = time.time()
            start = time.perf_counter()
            with EndpointMemory() as memory:
                self.report = calibrate(spec, time_scale=TIME_SCALE,
                                        workdir=workdir, lead=LEAD)
            self.host_s = time.perf_counter() - start
            self.peak_rss_mb = memory.peak_mb
            self.setup_s = self._time_zero(workdir) - launched
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                os.rmdir(WORKDIR)
            except OSError:  # another run still uses it
                pass
        merged = self.report.live.merged
        self.outcomes = [o for o in merged.outcomes if o["measured"]]
        self.committed = [o for o in self.outcomes if o["committed"]]
        # the live run's span: time zero to the last transaction's end
        self.wall_s = max(o["end"] for o in self.outcomes) * TIME_SCALE
        self.messages = merged.messages_sent
        reference = self.report.reference
        self.digest = fingerprint_digest(
            [[o.txn_id, o.committed, repr(o.response_time)]
             for o, _measured in reference.outcomes])

    def _time_zero(self, workdir):
        """Wall-clock time zero, from the endpoints' result files.

        Each endpoint stamps its payload with its kernel clock and writes
        it at once, so a file's modification time less that clock (in wall
        seconds) is time zero plus the write's own duration; the earliest
        endpoint bounds it most tightly.
        """
        origins = []
        for payload in self.report.live.merged.payloads:
            path = os.path.join(workdir, f"result-{payload['site']}.json")
            origins.append(os.stat(path).st_mtime
                           - payload["engine"]["end_time"] * TIME_SCALE)
        return min(origins)


def run_scenario(spec, ledger):
    got = ledger.attempt(f"live seed {spec.seed}", Scenario, spec)
    if got is not None and not got.report.ok:
        ledger.fail(f"live seed {spec.seed} failed calibration:\n"
                    f"{got.report.describe()}")
    return got


def response_ms(runs):
    return [o["response"] * TIME_SCALE * 1000.0
            for run in runs for o in run.committed]


def measure(name, seed, seconds, quick, out):
    ledger = Ledger()
    count = 1 if quick else SCENARIOS
    runs = [run for run in (run_scenario(scenario(sub, quick), ledger)
                            for sub in subseeds(seed, count))
            if run is not None]
    if not runs:
        return ledger
    committed = sum(len(run.committed) for run in runs)
    units = [o["response"] for run in runs for o in run.committed]
    out["host_txns_per_s"] = committed / sum(run.wall_s for run in runs)
    out["setup_s"] = statistics.median(run.setup_s for run in runs)
    out["peak_rss_mb"] = statistics.median(run.peak_rss_mb for run in runs)
    out["resp_p50"] = percentile(units, 50.0)
    # about 200 samples a run: p95 is the highest percentile with ten
    # or more beyond it
    out["resp_tail"] = percentile(units, 95.0)
    out["commit_pct"] = 100.0 * committed / sum(len(r.outcomes)
                                                for r in runs)
    out["msgs_per_commit"] = sum(run.messages for run in runs) / committed
    millis = response_ms(runs)
    print(f"{name}: seed {seed}, {len(runs)} live scenarios of "
          f"{runs[0].report.spec.duration:g} units at {TIME_SCALE} s/unit")
    for run in runs:
        print(f"  reference digest seed {run.report.spec.seed}: {run.digest}"
              f" ({len(run.committed)} committed live, set-up "
              f"{run.setup_s:.3f} s)")
    print(f"  live response samples {len(millis)}: mean "
          f"{sum(units) / len(units):.3f} units, p50 "
          f"{percentile(millis, 50.0):.2f} ms, p95 "
          f"{percentile(millis, 95.0):.2f} ms")
    return ledger


def trace_run(name, seed, seconds, quick, out):
    ledger = Ledger()
    spec = scenario(subseeds(seed, 1)[0], quick)
    plain = run_scenario(spec, ledger)
    trace = LayerTrace()
    with trace:
        start = time.perf_counter()
        traced = trace.root(run_scenario, spec, ledger)
        root_s = time.perf_counter() - start
    if plain is None or traced is None:
        return ledger
    if traced.digest != plain.digest:
        ledger.fail(f"live seed {spec.seed}: the traced reference simulation "
                    f"differs ({traced.digest[:12]}/{plain.digest[:12]})")
    layer_table(trace, root_s, out)
    out["trace.overhead_pct"] = 100.0 * (traced.host_s / plain.host_s - 1.0)

    report = plain.report
    reference = report.reference
    phase_means(reference.trace, out)
    sim_records, live_records = common_committed(reference,
                                                 report.live.merged)
    divergence = compare(decompose_records(sim_records, label="sim"),
                         decompose_records(live_records, label="live"))
    for phase in ("network", "overhead", "lock_wait"):
        out[f"live.phase.{phase}"] = divergence.live.mean(phase)
    out["live.gap_pct"] = 100.0 * divergence.response_gap_relative
    out["live.rounds_matched"] = report.rounds_matched
    out["live.rounds_compared"] = report.n_compared
    millis = response_ms([plain])
    out["live.resp_p50_ms"] = percentile(millis, 50.0)
    out["live.resp_p95_ms"] = percentile(millis, 95.0)
    out["live.resp_samples"] = len(millis)
    # the layer counters describe this process's reference simulation,
    # the only part of a live run the wrappers can see
    out["network.messages"] = reference.messages_sent
    committed = sum(1 for o in plain.outcomes if o["committed"])
    out["stats.abort_pct"] = 100.0 * (1.0 - committed / len(plain.outcomes))
    out["stats.resp_mean"] = (sum(o["response"] for o in plain.committed)
                              / len(plain.committed))
    print(f"{name}: seed {spec.seed} live twice, once traced; reference "
          f"digest {plain.digest}; {decompose_trace(reference.trace).n_txns}"
          f" reference txns decomposed")
    return ledger
