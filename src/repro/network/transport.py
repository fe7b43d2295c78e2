"""Message transport: delivery scheduling and traffic accounting.

``Network.send`` is on the kernel's hot path (one call per protocol
message), so the transport is built fast-path style:

* the send implementation is **selected once per run** — one per mode:
  plain, traced, or faulted — and bound directly as the instance's
  ``send`` attribute, so per-message code never re-checks ``sim.tracer``
  or ``faults`` (:meth:`Network.refresh_fast_path` re-selects; the
  tracer's ``bind_network`` calls it when tracing attaches after
  construction);
* per-(src, dst) link latency is **memoised** in a flat dict — the
  topology object is consulted once per pair, not once per message;
* payload traffic classes are cached per payload *type* instead of
  re-deriving ``type(...).__name__`` (plus wrapper unwrapping) per send.

The plain and traced sends batch delivery: consecutive sends on the
same (src, dst) link that compute the *same* delivery timestamp coalesce
into one heap entry holding a mutable list, which fans out on pop.
Coalescing is only allowed while the batch entry is the most recent heap
push — every scheduling call allocates a sequence number, so
``seq == batch.last_seq + 1`` proves nothing was scheduled in between —
which makes the fan-out order exactly the order one heap entry per
message would pop in (each appended message consumes the very sequence
number its own heap entry would have carried).  The engine's
logical-delivery counters (``Simulator._hidden`` / ``_extra_events`` /
``_batch_peak``) keep ``pending``, ``processed_events`` and
``peak_heap_depth`` counting deliveries, not heap nodes.  The committed
goldens (``repro.perf.goldens``) equal the runs with one heap entry per
message and pin that equivalence.  The faulted path never batches
(jitter makes shared timestamps rare and duplicates complicate fan-out).
"""

import heapq
from dataclasses import dataclass, field

from repro.network.message import Envelope

#: payload class -> traffic-class name, or _WRAPPER for classes carrying
#: an ``inner`` payload (reliable-channel framing) that must be unwrapped
#: per message.  Keyed by type, so the cache is stable across runs.
_WRAPPER = object()
_KIND_BY_CLASS = {}


def payload_kind(payload):
    """Traffic class of a payload. Reliable-channel wrappers are
    transparent: the protocol mix matters, not the framing."""
    cls = payload.__class__
    kind = _KIND_BY_CLASS.get(cls)
    if kind is None:
        kind = _WRAPPER if hasattr(payload, "inner") else cls.__name__
        _KIND_BY_CLASS[cls] = kind
    if kind is _WRAPPER:
        inner = payload.inner
        return cls.__name__ if inner is None else inner.__class__.__name__
    return kind


@dataclass
class NetworkStats:
    """Aggregate traffic counters, used to verify the paper's round-count
    arithmetic (g-2PL exchanges fewer, larger messages than s-2PL)."""

    messages_sent: int = 0
    data_units_sent: float = 0.0
    per_type: dict = field(default_factory=dict)

    def record(self, envelope):
        self.messages_sent += 1
        self.data_units_sent += envelope.size
        kind = payload_kind(envelope.payload)
        self.per_type[kind] = self.per_type.get(kind, 0) + 1


class SiteRegistry:
    """The site directory shared by every transport implementation.

    Both the simulator's :class:`Network` and the live TCP transport
    (:class:`repro.live.transport.LiveTransport`) register protocol sites
    the same way; protocol assembly code (``make_protocol`` callers) can
    therefore wire a run identically against either.
    """

    def __init__(self):
        self._sites = {}

    def add_site(self, site):
        """Register a site; its ``site_id`` must be unique."""
        if site.site_id in self._sites:
            raise ValueError(f"duplicate site id {site.site_id!r}")
        self._sites[site.site_id] = site
        site.attach(self)
        return site

    def site(self, site_id):
        """Look up a registered site."""
        return self._sites[site_id]

    @property
    def sites(self):
        """All registered sites (read-only view)."""
        return dict(self._sites)


class Network(SiteRegistry):
    """Delivers payloads between attached sites.

    Delivery delay = topology latency (propagation + switching) plus, when a
    finite ``bandwidth`` is configured, ``size / bandwidth`` of transmission
    time. The paper assumes infinite bandwidth (transmission negligible at
    gigabit rates); the finite setting exists for the A2 ablation.

    An optional :class:`~repro.network.faults.FaultInjector` makes the link
    lossy: it may drop, duplicate, or extra-delay each send, and severs
    messages whose flight interval overlaps a crash window of either
    endpoint.
    """

    def __init__(self, sim, topology, bandwidth=None, faults=None):
        if bandwidth is not None and bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth!r}")
        super().__init__()
        self.sim = sim
        self.topology = topology
        self.bandwidth = bandwidth
        self.faults = faults
        self.stats = NetworkStats()
        self._last_deliver = {}  # (src, dst) -> last scheduled delivery time
        self._latency_cache = {}  # (src, dst) -> topology latency
        self._open_batches = {}  # (src, dst) -> [key, items, when, last_seq]
        self._thunk_cache = {}   # dst -> (callable, takes_payload)
        self._tracer = None
        self.refresh_fast_path()

    def refresh_fast_path(self):
        """Re-select the per-run send/deliver implementations.

        Called at construction and whenever the run's observers change
        (:meth:`~repro.obs.tracer.Tracer.bind_network` attaches a tracer).
        The chosen implementation is bound straight onto the instance, so
        dispatching a send is a single attribute load — no per-message
        tracer or faults checks.
        """
        tracer = self._tracer = self.sim.tracer
        self._open_batches.clear()
        self._thunk_cache.clear()
        if self.faults is not None:
            self.send = self._send_faulted
        elif tracer is not None:
            self.send = self._send_traced_batched
        else:
            self.send = self._send_plain_batched
        self._deliver_impl = (self._deliver_plain if tracer is None
                              else self._deliver_traced)

    # -- send fast paths -----------------------------------------------------
    #
    # ``send`` is assigned per instance by refresh_fast_path; the class
    # attribute below only provides the documented signature (and handles
    # the pathological case of a send before __init__ finished).

    def send(self, src, dst, payload, size=1.0):
        """Ship ``payload`` from ``src`` to ``dst``; returns the envelope.

        Messages between distinct pairs may overtake each other; messages on
        the same (src, dst) pair are always delivered in FIFO order: each
        computed delivery time (latency + transmission + any fault jitter)
        is clamped to the link's previous delivery time, serialising the
        link. Without the clamp a later small message would overtake an
        earlier large one whenever finite ``bandwidth`` (or jitter) makes
        the delay size-dependent.
        """
        self.refresh_fast_path()
        return self.send(src, dst, payload, size=size)

    # -- batched sends -------------------------------------------------------
    #
    # A batch record is ``[key, items, when, last_seq, fn]``; the heap
    # entry holds the record itself, so later sends extend it in place
    # without touching the heap.  Every item on a record shares one
    # destination (batches are per link), so the delivery call ``fn`` is
    # resolved once per record, not per message.  The ``last_seq``
    # contiguity check (see module docstring) makes appending exactly
    # equivalent to pushing a fresh per-message entry, because the
    # appended message consumes the very sequence number that entry would
    # have carried.  Only stock protocol sites batch; a site with a
    # custom ``receive`` (or a reliable channel) gets one heap entry per
    # message, which is faster for traffic that can never coalesce.

    def _resolve_thunk(self, dst):
        """Pick the per-destination delivery treatment once per run.

        Stock dispatcher sites with no reliable channel batch, taking the
        payload straight into ``_dispatch`` (untraced) or the envelope
        into ``receive`` (traced).  Anything else returns False: those
        destinations get one heap entry per message.
        """
        site = self._sites[dst]
        from repro.protocols.base import _Dispatcher

        if (isinstance(site, _Dispatcher)
                and type(site).receive is _Dispatcher.receive
                and site.reliable is None):
            fn = site._dispatch if self._tracer is None else site.receive
        else:
            fn = False
        self._thunk_cache[dst] = fn
        return fn

    def _send_plain_batched(self, src, dst, payload, size=1.0):
        """Batched fast path: no tracer, no faults (the default)."""
        sites = self._sites
        if dst not in sites:
            raise KeyError(f"unknown destination site {dst!r}")
        if src not in sites:
            raise KeyError(f"unknown source site {src!r}")
        sim = self.sim
        now = sim._now
        envelope = Envelope(src, dst, payload, size, now)
        stats = self.stats
        stats.messages_sent += 1
        stats.data_units_sent += size
        kind = payload_kind(payload)
        per_type = stats.per_type
        per_type[kind] = per_type.get(kind, 0) + 1
        latency_cache = self._latency_cache
        key = (src, dst)
        latency = latency_cache.get(key)
        if latency is None:
            latency = latency_cache[key] = self.topology.latency(src, dst)
        if self.bandwidth is not None:
            latency = latency + size / self.bandwidth
        deliver = now + latency
        last = self._last_deliver
        prev = last.get(key)
        if prev is not None and prev > deliver:
            deliver = prev
        last[key] = deliver
        envelope.deliver_time = deliver
        # now + (deliver - now), not deliver: the relative-delay float
        # every send path schedules at (scheduling at `deliver` directly
        # could move the heap timestamp by one ulp and reorder ties).
        when = now + (deliver - now)
        cache = self._thunk_cache
        fn = cache[dst] if dst in cache else self._resolve_thunk(dst)
        if fn is False:
            sim.schedule_at(when, self._deliver_plain, envelope)
            return envelope
        seq = next(sim._seq)
        rec = self._open_batches.get(key)
        if rec is not None and rec[2] == when and rec[3] == seq - 1:
            rec[1].append(payload)
            rec[3] = seq
            sim._hidden += 1
        else:
            rec = [key, [payload], when, seq, fn]
            self._open_batches[key] = rec
            heapq.heappush(sim._heap,
                           (when, seq, self._deliver_batch, (rec,)))
        return envelope

    def _send_traced_batched(self, src, dst, payload, size=1.0):
        """Batched with a tracer attached: items carry full envelopes so
        the fan-out can replay ``net_delivered`` per message."""
        sites = self._sites
        if dst not in sites:
            raise KeyError(f"unknown destination site {dst!r}")
        if src not in sites:
            raise KeyError(f"unknown source site {src!r}")
        sim = self.sim
        now = sim._now
        envelope = Envelope(src, dst, payload, size, now)
        stats = self.stats
        stats.messages_sent += 1
        stats.data_units_sent += size
        kind = payload_kind(payload)
        per_type = stats.per_type
        per_type[kind] = per_type.get(kind, 0) + 1
        latency_cache = self._latency_cache
        key = (src, dst)
        latency = latency_cache.get(key)
        if latency is None:
            latency = latency_cache[key] = self.topology.latency(src, dst)
        if self.bandwidth is not None:
            latency = latency + size / self.bandwidth
        deliver = now + latency
        last = self._last_deliver
        prev = last.get(key)
        if prev is not None and prev > deliver:
            deliver = prev
        last[key] = deliver
        envelope.deliver_time = deliver
        when = now + (deliver - now)
        cache = self._thunk_cache
        fn = cache[dst] if dst in cache else self._resolve_thunk(dst)
        if fn is False:
            sim.schedule_at(when, self._deliver_traced, envelope)
        else:
            seq = next(sim._seq)
            rec = self._open_batches.get(key)
            if rec is not None and rec[2] == when and rec[3] == seq - 1:
                rec[1].append(envelope)
                rec[3] = seq
                sim._hidden += 1
            else:
                rec = [key, [envelope], when, seq, fn]
                self._open_batches[key] = rec
                heapq.heappush(
                    sim._heap,
                    (when, seq, self._deliver_batch_traced, (rec,)))
        tracer = self._tracer
        tracer.net_scheduled(envelope)
        tracer.net_send(envelope, kind)
        return envelope

    def _deliver_batch(self, rec):
        """Fan a coalesced entry out in append (= sequence) order.

        The record is closed first so a handler's same-timestamp send on
        this link opens a fresh entry (it pops right after this one, as a
        per-message entry would).  Depth samples and the extra-delivery
        count are reported per logical delivery, so engine diagnostics
        count deliveries, not heap nodes (``k - idx`` deliveries of this
        batch are still pending when delivery ``idx`` is sampled).
        """
        open_batches = self._open_batches
        key = rec[0]
        if open_batches.get(key) is rec:
            del open_batches[key]
        lst = rec[1]
        fn = rec[4]
        if len(lst) == 1:
            fn(lst[0])
            return
        sim = self.sim
        k = len(lst)
        sim._hidden -= k - 1
        heap = sim._heap
        batch_peak = sim._batch_peak
        idx = 0
        for arg in lst:
            if idx:
                depth = len(heap) + sim._hidden + (k - idx)
                if depth > batch_peak:
                    batch_peak = depth
            idx += 1
            fn(arg)
        sim._batch_peak = batch_peak
        sim._extra_events += k - 1

    def _deliver_batch_traced(self, rec):
        """Traced fan-out: ``net_delivered`` fires once per envelope, in
        sequence order."""
        open_batches = self._open_batches
        key = rec[0]
        if open_batches.get(key) is rec:
            del open_batches[key]
        lst = rec[1]
        fn = rec[4]
        tracer = self._tracer
        if len(lst) == 1:
            env = lst[0]
            tracer.net_delivered(env)
            fn(env)
            return
        sim = self.sim
        k = len(lst)
        sim._hidden -= k - 1
        heap = sim._heap
        batch_peak = sim._batch_peak
        idx = 0
        for env in lst:
            if idx:
                depth = len(heap) + sim._hidden + (k - idx)
                if depth > batch_peak:
                    batch_peak = depth
            idx += 1
            tracer.net_delivered(env)
            fn(env)
        sim._batch_peak = batch_peak
        sim._extra_events += k - 1

    def _send_faulted(self, src, dst, payload, size=1.0):
        """Fault injector consulted per send; tracer optional."""
        sites = self._sites
        if dst not in sites:
            raise KeyError(f"unknown destination site {dst!r}")
        if src not in sites:
            raise KeyError(f"unknown source site {src!r}")
        sim = self.sim
        now = sim._now
        envelope = Envelope(src, dst, payload, size, now)
        stats = self.stats
        stats.messages_sent += 1
        stats.data_units_sent += size
        kind = payload_kind(payload)
        per_type = stats.per_type
        per_type[kind] = per_type.get(kind, 0) + 1
        tracer = self._tracer
        latency_cache = self._latency_cache
        key = (src, dst)
        base_delay = latency_cache.get(key)
        if base_delay is None:
            base_delay = latency_cache[key] = self.topology.latency(src, dst)
        if self.bandwidth is not None:
            base_delay = base_delay + size / self.bandwidth
        faults = self.faults
        fstats = faults.stats
        if tracer is not None:
            pre_loss = fstats.dropped_loss
            pre_partition = fstats.dropped_partition
            pre_dup = fstats.duplicated
        last = self._last_deliver
        severed_by_crash = faults.severed_by_crash
        first = None
        for extra in faults.plan_delays(src, dst, now):
            deliver = now + base_delay + extra
            prev = last.get(key)
            if prev is not None and prev > deliver:
                deliver = prev
            if severed_by_crash(src, dst, now, deliver):
                fstats.dropped_crash += 1
                if tracer is not None:
                    tracer.net_dropped(envelope, "crash")
                continue
            fstats.delivered += 1
            # Clamp again against our own earlier copies (a duplicate with
            # less jitter must not overtake the first copy), then schedule
            # at the same relative-delay float as the batched sends.
            prev = last.get(key)
            if prev is not None and prev > deliver:
                deliver = prev
            last[key] = deliver
            sim.schedule_at(now + (deliver - now), self._deliver_impl,
                            envelope)
            if tracer is not None:
                tracer.net_scheduled(envelope)
            if first is None:
                first = deliver
        # A dropped message still reports when it *would* have arrived.
        envelope.deliver_time = first if first is not None \
            else now + base_delay
        if tracer is not None:
            for _ in range(fstats.dropped_loss - pre_loss):
                tracer.net_dropped(envelope, "loss")
            for _ in range(fstats.dropped_partition - pre_partition):
                tracer.net_dropped(envelope, "partition")
            for _ in range(fstats.duplicated - pre_dup):
                tracer.net_duplicated(envelope)
            tracer.net_send(envelope, kind)
        return envelope

    # -- delivery ------------------------------------------------------------

    def _deliver_plain(self, envelope):
        self._sites[envelope.dst].receive(envelope)

    def _deliver_traced(self, envelope):
        self._tracer.net_delivered(envelope)
        self._sites[envelope.dst].receive(envelope)
