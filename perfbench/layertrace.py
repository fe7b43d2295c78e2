"""Outside-in layer timing: wrap each layer's public calls, count self time.

Nothing inside ``src/`` knows about this module. :class:`LayerTrace`
replaces chosen class attributes (and the two checker names the runner
imported) with timing wrappers for the duration of a ``with`` block. It
must be entered before the run builds its objects, so bound methods taken
during assembly (delivery thunks, timer callbacks, handler caches) are
already the wrappers.

Each wrapper is a span boundary: it counts the call and keeps the open
span on one stack, whose top is the span's parent. When a span ends, its
duration minus the time of the spans it enclosed is its *self* time,
charged to its name and layer; spans are folded into these totals as they
close rather than kept. The root span is the benchmark's own call into
the program (``core``), so the layer self times add up to the root's
duration. Generator functions (client ``execute``, driver loops) get a
generator wrapper that times each resume, so coroutine steps land in
their layer rather than in the kernel's.

The wrappers never change which code runs: ``_Dispatcher.receive`` (whose
identity picks the batched delivery thunk) is deliberately left alone, and
the benchmark checks that a traced run's digest and event count equal the
untraced run's.
"""

import functools
import inspect
import time

#: layers in report order; ``core`` is the root span's self time
LAYERS = ("core", "sim", "network", "protocols", "protocols.precedence",
          "protocols.sharded", "locking", "workload", "stats", "obs",
          "validate", "storage", "live")

#: counted calls reported as per-layer counters: metric -> span names
CALL_COUNTERS = {
    "network.sends": ("_Dispatcher.send",),
    "protocols.dispatches": ("ProtocolServer._dispatch",
                             "_Dispatcher._dispatch"),
    "protocols.precedence.reaches_any_calls": (
        "PrecedenceGraph.reaches_any",),
    "protocols.precedence.linear_extension_calls": (
        "PrecedenceGraph.linear_extension",),
    "protocols.precedence.add_edge_calls": (
        "PrecedenceGraph.add_edge", "PrecedenceGraph.add_edge_unchecked"),
    "locking.acquire_calls": ("LockTable.acquire",),
    "locking.blockers_of_calls": ("LockTable.blockers_of",),
    "locking.find_cycle_calls": ("WaitForGraph.find_any_cycle",
                                 "S2PLServer._find_cycle_from"),
    "workload.specs": ("WorkloadGenerator.next_spec",
                       "OpenArrivalGenerator.next_spec"),
    "stats.outcomes": ("MetricsCollector.record_outcome",),
    "storage.installs": ("VersionedStore.install",
                         "VersionedStore.install_as"),
    "obs.emits": ("Tracer.emit",),
    "obs.probe_samples": ("Tracer.probe",),
}


def _public(cls):
    """Names of the plain functions ``cls`` itself defines, minus dunders
    and underscore helpers."""
    return [name for name, value in vars(cls).items()
            if inspect.isfunction(value) and not name.startswith("_")]


def _own(cls):
    """Every plain function ``cls`` itself defines, minus dunders."""
    return [name for name, value in vars(cls).items()
            if inspect.isfunction(value) and not name.startswith("__")]


def targets():
    """``(owner, attribute, layer)`` for every call the trace wraps.

    An owner is a class or a module. Layers are named after the module
    that holds the code, except the s-2PL server's inlined wait-for search
    and the sharded global deadlock sweep, which are the wait-for graph's
    work and so belong to ``locking``.
    """
    from repro.core import runner
    from repro.live import harness
    from repro.locking.lock_table import LockTable
    from repro.locking.waitfor import WaitForGraph
    from repro.network.transport import Network
    from repro.obs.probes import ProbeSampler
    from repro.obs.tracer import Tracer
    from repro.protocols import base, g2pl, s2pl, sharded
    from repro.protocols.precedence import PrecedenceGraph
    from repro.protocols.sharding import (GlobalDeadlockDetector,
                                          SharedPrecedence)
    from repro.sim.engine import Simulator
    from repro.stats.collector import MetricsCollector
    from repro.storage.store import VersionedStore
    from repro.storage.wal import WriteAheadLog
    from repro.workload.driver import ClientDriver
    from repro.workload.generator import WorkloadGenerator
    from repro.workload.population import (OpenArrivalGenerator,
                                           PopulationDriver)

    out = [(Simulator, "run", "sim")]
    out += [(base._Dispatcher, "send", "network")]
    out += [(Network, name, "network")
            for name in ("_deliver_plain", "_deliver_traced",
                         "_deliver_batch", "_deliver_batch_traced")]
    out += [(base._Dispatcher, "_dispatch", "protocols"),
            (base.ProtocolServer, "_dispatch", "protocols"),
            (s2pl.S2PLClient, "execute", "protocols"),
            (g2pl.G2PLClient, "execute", "protocols")]
    out += [(PrecedenceGraph, name, "protocols.precedence")
            for name in _public(PrecedenceGraph)]
    out += [(SharedPrecedence, name, "protocols.precedence")
            for name in _public(SharedPrecedence)]
    for cls in (sharded.TwoPhaseParticipant, sharded.TwoPhaseCoordinator,
                sharded.ShardedS2PLServer, sharded.ShardedS2PLClient,
                sharded.ShardedG2PLServer, sharded.ShardedG2PLClient):
        out += [(cls, name, "protocols.sharded") for name in _own(cls)]
    # Entry points only: the reads and edge updates these make are
    # already inside a locking span, and wrapping them too would only add
    # overhead.
    out += [(LockTable, name, "locking")
            for name in ("acquire", "blockers_of", "drop_queued",
                         "release_all")]
    out += [(WaitForGraph, "find_any_cycle", "locking"),
            (s2pl.S2PLServer, "_find_cycle_from", "locking"),
            (GlobalDeadlockDetector, "_tick", "locking")]
    out += [(WorkloadGenerator, "next_spec", "workload"),
            (OpenArrivalGenerator, "next_spec", "workload"),
            (ClientDriver, "_loop", "workload"),
            (PopulationDriver, "_arrival_loop", "workload"),
            (PopulationDriver, "_on_arrival", "workload"),
            (PopulationDriver, "_run", "workload")]
    out += [(MetricsCollector, "record_outcome", "stats")]
    out += [(Tracer, name, "obs") for name in _public(Tracer)]
    out += [(ProbeSampler, "_tick", "obs")]
    out += [(harness, "run_live", "live")]
    out += [(runner, "check_history", "validate"),
            (runner, "check_strictness", "validate"),
            (harness, "check_history", "validate"),
            (harness, "check_strictness", "validate")]
    out += [(VersionedStore, name, "storage")
            for name in ("install", "install_as")]
    out += [(WriteAheadLog, name, "storage")
            for name in ("append", "force", "garbage_collect")]
    return out


class LayerTrace:
    """Span accounting over the wrapped calls, active inside ``with``."""

    def __init__(self):
        #: one slot per open span: the time its child spans have taken
        self._stack = []
        #: span name -> [calls, self seconds, layer]
        self.spans = {}
        self._saved = []

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, name, layer):
        acc = self.spans.setdefault(name, [0, 0.0, layer])
        stack = self._stack
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                acc[0] += 1
                gen = fn(*args, **kwargs)
                value = exc = None
                while True:
                    stack.append(0.0)
                    start = clock()
                    try:
                        if exc is None:
                            step = gen.send(value)
                        else:
                            step = gen.throw(exc)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        spent = clock() - start
                        acc[1] += spent - stack.pop()
                        if stack:
                            stack[-1] += spent
                    try:
                        value, exc = (yield step), None
                    except GeneratorExit:
                        gen.close()
                        raise
                    except BaseException as thrown:  # re-thrown into gen
                        value, exc = None, thrown
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            acc[0] += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - start
                acc[1] += spent - stack.pop()
                if stack:
                    stack[-1] += spent
        return wrapper

    def root(self, fn, *args, **kwargs):
        """Call ``fn`` as the root span (layer ``core``)."""
        return self._wrap(fn, "root", "core")(*args, **kwargs)

    # -- install / remove -----------------------------------------------------

    def __enter__(self):
        for owner, attr, layer in targets():
            original = vars(owner)[attr]
            label = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, label, layer))
        return self

    def __exit__(self, *exc_info):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    # -- results --------------------------------------------------------------

    def layer_self(self):
        """Layer -> self seconds, summed over its spans."""
        totals = {layer: 0.0 for layer in LAYERS}
        for _calls, spent, layer in self.spans.values():
            totals[layer] += spent
        return totals

    def counters(self):
        """The :data:`CALL_COUNTERS` values: summed call counts."""
        return {metric: sum(self.spans.get(name, (0,))[0] for name in names)
                for metric, names in CALL_COUNTERS.items()}


class RunEntry:
    """Records when each ``Simulator.run`` call is entered.

    The only wrapper of an untraced run: set-up time is the time from the
    benchmark's call into ``run_simulation`` to the kernel taking over.
    """

    def __init__(self):
        self.entered = []
        self._original = None

    def __enter__(self):
        from repro.sim.engine import Simulator

        self._original = original = vars(Simulator)["run"]
        entered = self.entered

        @functools.wraps(original)
        def run(sim, *args, **kwargs):
            entered.append(time.perf_counter())
            return original(sim, *args, **kwargs)

        Simulator.run = run
        return self

    def __exit__(self, *exc_info):
        from repro.sim.engine import Simulator

        Simulator.run = self._original
        return False
