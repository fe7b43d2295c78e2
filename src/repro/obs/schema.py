"""The trace event schema and its validator (used by CI's chaos smoke)."""

#: event kind -> required field names (extra fields are allowed)
EVENT_SCHEMA = {
    # network
    "msg.send": frozenset({"id", "src", "dst", "kind", "size", "deliver"}),
    "msg.deliver": frozenset({"id", "src", "dst"}),
    "msg.drop": frozenset({"id", "src", "dst", "cause"}),
    "msg.dup": frozenset({"id", "src", "dst"}),
    "msg.retransmit": frozenset({"src", "dst"}),
    "msg.dup_suppressed": frozenset({"site", "src"}),
    # locking (s-2PL family)
    "lock.request": frozenset({"txn", "item", "mode", "client"}),
    "lock.queued": frozenset({"txn", "item"}),
    "lock.grant": frozenset({"txn", "item", "mode"}),
    "lock.release": frozenset({"txn", "granted"}),
    "lock.deadlock": frozenset({"requester", "victim", "cycle"}),
    # transaction lifecycle
    "txn.begin": frozenset({"txn", "client"}),
    "txn.end": frozenset({"txn", "client", "committed", "response"}),
    "txn.abort": frozenset({"txn", "reason"}),
    # fault recovery
    "crash.sweep": frozenset({"reclaimed"}),
    # g-2PL forward lists and chains
    "fl.collect": frozenset({"txn", "item", "window"}),
    "fl.window_open": frozenset({"item", "carried"}),
    "fl.window_close": frozenset({"item", "size"}),
    "fl.dispatch": frozenset({"item", "n_txns", "epoch"}),
    "fl.home": frozenset({"item"}),
    "fl.graft": frozenset({"txn", "item"}),
    "fl.handoff": frozenset({"txn", "item", "to"}),
    "fl.return": frozenset({"txn", "item"}),
    "fl.watchdog": frozenset({"item", "attempt"}),
    "fl.repair": frozenset({"item", "action"}),
    "chain.commit": frozenset({"txn"}),
}

#: keys every per-transaction accounting record must carry
TXN_RECORD_KEYS = frozenset({
    "txn", "client", "committed", "measured", "start", "end", "response",
    "rounds", "rounds_sequential", "propagation", "transmission", "slack",
    "server_queue", "client_think", "lock_wait",
    "commit_coord", "abort_resolution", "overhead",
})


def validate_events(events, max_errors=20):
    """Check a trace's event stream against :data:`EVENT_SCHEMA`.

    Returns a list of error strings (empty = valid): unknown kinds,
    missing required fields, and non-monotonic timestamps.
    """
    errors = []
    previous_time = float("-inf")
    for index, (time, kind, fields) in enumerate(events):
        if len(errors) >= max_errors:
            errors.append("... (further errors suppressed)")
            break
        if time < previous_time:
            errors.append(
                f"event {index} ({kind}): time {time} < previous "
                f"{previous_time} (trace must be time-ordered)")
        previous_time = time
        required = EVENT_SCHEMA.get(kind)
        if required is None:
            errors.append(f"event {index}: unknown kind {kind!r}")
            continue
        missing = required - fields.keys()
        if missing:
            errors.append(
                f"event {index} ({kind}): missing fields {sorted(missing)}")
    return errors


def validate_trace(trace):
    """Validate a full :class:`~repro.obs.tracer.TraceData`."""
    errors = validate_events(trace.events)
    for index, record in enumerate(trace.txns):
        missing = TXN_RECORD_KEYS - record.keys()
        if missing:
            errors.append(
                f"txn record {index}: missing keys {sorted(missing)}")
    for index, sample in enumerate(trace.probes):
        if len(sample) != 3:
            errors.append(f"probe sample {index}: expected "
                          f"(time, name, value), got {sample!r}")
    return errors
