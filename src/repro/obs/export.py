"""Trace exporters: JSONL, Chrome trace-event JSON (Perfetto), CSV.

The Chrome trace maps one simulation time unit to one microsecond, so a
run with latency 500 shows 500 µs wire flights — open the file at
https://ui.perfetto.dev (or chrome://tracing) to scrub the timeline.
"""

import dataclasses
import json

from repro.obs.spans import PHASE_COLORS, PHASES, phase_view


def _summary_dict(summary):
    if summary is None:
        return None
    return dataclasses.asdict(summary)


def write_jsonl(path, trace, config=None, seed=None):
    """One JSON object per line: a header, then events, transactions, and
    probe samples in that order."""
    with open(path, "w", encoding="utf-8") as out:
        header = {"type": "header", "seed": seed,
                  "config": config.describe() if config is not None else None,
                  "summary": _summary_dict(trace.summary)}
        out.write(json.dumps(header) + "\n")
        for time, kind, fields in trace.events:
            row = {"type": "event", "t": time, "kind": kind}
            row.update(fields)
            out.write(json.dumps(row) + "\n")
        for record in trace.txns:
            row = {"type": "txn"}
            row.update(record)
            out.write(json.dumps(row) + "\n")
        for time, name, value in trace.probes:
            out.write(json.dumps({"type": "probe", "t": time,
                                  "name": name, "value": value}) + "\n")
    return path


_PID_CLIENTS = 1
_PID_NETWORK = 2
_PID_PROTOCOL = 3
_PID_PROBES = 4


def _phase_slices(record, pid, tid):
    """Phase-colored child slices nested under a transaction's span.

    The phases are laid back-to-back as a budget bar (their real
    occurrences interleave — e.g. think alternates with waits — but their
    *durations* are exact and sum to the parent span by the decomposition
    invariant). Child slices carry ``cat: "phase"`` so span-counting
    consumers filtering on ``cat: "txn"`` are unaffected.
    """
    slices = []
    cursor = record["start"]
    for name, value in phase_view(record).items():
        if value <= 0.0:
            continue
        slices.append({
            "ph": "X", "cat": "phase", "pid": pid, "tid": tid,
            "ts": cursor, "dur": value, "name": name,
            "cname": PHASE_COLORS[name],
            "args": {"txn": record["txn"]},
        })
        cursor += value
    return slices


def write_chrome_trace(path, trace):
    """Chrome trace-event format: transaction spans per client, message
    flights per link, counter tracks for probes, instants for the rest."""
    out = [
        {"ph": "M", "name": "process_name", "pid": _PID_CLIENTS, "tid": 0,
         "args": {"name": "clients (transactions)"}},
        {"ph": "M", "name": "process_name", "pid": _PID_NETWORK, "tid": 0,
         "args": {"name": "network (message flights)"}},
        {"ph": "M", "name": "process_name", "pid": _PID_PROTOCOL, "tid": 0,
         "args": {"name": "protocol events"}},
        {"ph": "M", "name": "process_name", "pid": _PID_PROBES, "tid": 0,
         "args": {"name": "probes"}},
    ]
    for record in trace.txns:
        label = ("commit" if record["committed"]
                 else record.get("abort_reason") or "abort")
        tid = record["client"] if record["client"] is not None else 0
        out.append({
            "ph": "X", "cat": "txn", "pid": _PID_CLIENTS,
            "tid": tid,
            "ts": record["start"],
            "dur": max(record["response"], 0.0),
            "name": f"txn {record['txn']} ({label})",
            "args": {"rounds_sequential": record["rounds_sequential"],
                     "rounds": record["rounds"],
                     "lock_wait": record["lock_wait"],
                     "propagation": record["propagation"],
                     "client_think": record["client_think"]},
        })
        out.extend(_phase_slices(record, _PID_CLIENTS, tid))
    link_tids = {}
    for time, kind, fields in trace.events:
        if kind == "msg.send":
            link = (fields["src"], fields["dst"])
            tid = link_tids.get(link)
            if tid is None:
                tid = link_tids[link] = len(link_tids) + 1
                out.append({"ph": "M", "name": "thread_name",
                            "pid": _PID_NETWORK, "tid": tid,
                            "args": {"name": f"{link[0]} to {link[1]}"}})
            out.append({
                "ph": "X", "cat": "msg", "pid": _PID_NETWORK, "tid": tid,
                "ts": time, "dur": max(fields["deliver"] - time, 0.0),
                "name": fields["kind"],
                "args": {"id": fields["id"], "size": fields["size"]},
            })
        else:
            args = {key: value for key, value in fields.items()
                    if isinstance(value, (int, float, str, bool))
                    or value is None}
            out.append({"ph": "i", "s": "p", "cat": "protocol",
                        "pid": _PID_PROTOCOL, "tid": 0, "ts": time,
                        "name": kind, "args": args})
    for time, name, value in trace.probes:
        out.append({"ph": "C", "pid": _PID_PROBES, "tid": 0, "ts": time,
                    "name": name, "args": {"value": value}})
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": out, "displayTimeUnit": "ms"}, handle)
    return path


def write_probes_csv(path, trace):
    """Probe samples as ``time,series,value`` rows."""
    with open(path, "w", encoding="utf-8") as out:
        out.write("time,series,value\n")
        for time, name, value in trace.probes:
            out.write(f"{time:g},{name},{value:g}\n")
    return path


def write_phases_csv(path, records):
    """Per-transaction phase decomposition as CSV, one row per txn."""
    with open(path, "w", encoding="utf-8") as out:
        out.write("txn,client,committed,response,"
                  + ",".join(PHASES) + "\n")
        for record in records:
            phases = phase_view(record)
            out.write(
                f"{record['txn']},{record['client']},"
                f"{int(bool(record['committed']))},{record['response']:g},"
                + ",".join(f"{phases[name]:g}" for name in PHASES) + "\n")
    return path


def write_merged_chrome_trace(path, payloads):
    """One Chrome trace for a whole live run: every endpoint process gets
    its own pid lane, with its transactions (phase-colored), its event
    instants, and its probe counters interleaved on the shared
    CLOCK_MONOTONIC origin all kernels were pinned to.

    ``payloads`` are endpoint payload dicts (see
    :func:`repro.live.results.endpoint_payload`) whose ``trace_events`` /
    ``probes`` entries exist when the run's spec set ``trace_export``.
    JSON round-trips tuples as lists, so both shapes are accepted.
    """
    out = []
    for index, payload in enumerate(sorted(payloads,
                                           key=lambda p: p["site"])):
        pid = 10 + index
        out.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": f"site {payload['site']} "
                             f"({payload['role']})"}})
        for record in payload["txn_records"]:
            label = ("commit" if record["committed"]
                     else record.get("abort_reason") or "abort")
            out.append({
                "ph": "X", "cat": "txn", "pid": pid, "tid": 0,
                "ts": record["start"],
                "dur": max(record["response"], 0.0),
                "name": f"txn {record['txn']} ({label})",
                "args": {"rounds": record["rounds"],
                         "lock_wait": record["lock_wait"],
                         "overhead": record.get("overhead", 0.0)},
            })
            out.extend(_phase_slices(record, pid, 0))
        for event in payload.get("trace_events", []):
            when, kind, fields = event
            if kind == "msg.send":
                out.append({
                    "ph": "X", "cat": "msg", "pid": pid, "tid": 1,
                    "ts": when,
                    "dur": max(fields["deliver"] - when, 0.0),
                    "name": fields["kind"],
                    "args": {"src": fields["src"], "dst": fields["dst"],
                             "size": fields["size"]},
                })
            else:
                args = {key: value for key, value in fields.items()
                        if isinstance(value, (int, float, str, bool))
                        or value is None}
                out.append({"ph": "i", "s": "t", "cat": "protocol",
                            "pid": pid, "tid": 2, "ts": when,
                            "name": kind, "args": args})
        for sample in payload.get("probes", []):
            when, name, value = sample
            out.append({"ph": "C", "pid": pid, "tid": 3, "ts": when,
                        "name": name, "args": {"value": value}})
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": out, "displayTimeUnit": "ms"}, handle)
    return path
