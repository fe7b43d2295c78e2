"""Batched delivery must be invisible: bit-identical trajectories.

The plain and traced sends coalesce same-timestamp deliveries on one
link into a single heap entry that fans out on pop.  That is a pure
scheduling-representation change: the fan-out replays the exact
per-message heap order.  The reference is committed: every golden cell
(:mod:`repro.perf.goldens`) equals the run on a transport that gave each
message its own heap entry, so each protocol family, and the faulted,
traced and sharded cells, must reproduce its golden byte for byte —
serially and under the spawn pool.  These tests pin that invariant,
plus the logical engine counters (``processed_events`` /
``peak_heap_depth`` / ``cancelled_events`` / ``pending``) that must
count deliveries, not batch nodes.
"""

import pytest

from repro.core.config import SimulationConfig
from repro.core.parallel import SimulationCell, run_cells
from repro.core.runner import run_simulation
from repro.perf.fingerprint import fingerprint_digest, result_fingerprint
from repro.perf.goldens import GOLDEN_CELLS, load_golden

#: protocol family -> its golden cell (g2pl variants share a family)
FAMILIES = {
    "s2pl": "s2pl_plain",
    "g2pl": "g2pl_plain",
    "g2pl-basic": "g2pl_basic_plain",
    "g2pl-ro": "g2pl_ro_plain",
    "c2pl": "c2pl_plain",
    "2v2pl": "2v2pl_plain",
}

_FAULTS = "loss=0.05,dup=0.02,jitter=20,crash=2@2000:4000"


def _base(protocol, **overrides):
    kwargs = dict(
        protocol=protocol, n_clients=6, n_items=8, read_probability=0.6,
        network_latency=100.0, total_transactions=120,
        warmup_transactions=20, record_history=False)
    kwargs.update(overrides)
    return kwargs


def _assert_matches_golden(cell, result):
    golden = load_golden(cell)
    fingerprint = result_fingerprint(result)
    assert fingerprint == golden["fingerprint"], (
        f"{cell}: batched delivery changed the trajectory")
    assert fingerprint_digest(fingerprint) == golden["digest"]


def _replay(cell, kwargs, seed):
    # The golden must be this exact run, or the comparison proves nothing.
    assert GOLDEN_CELLS[cell] == (kwargs, seed)
    _assert_matches_golden(
        cell, run_simulation(SimulationConfig(**kwargs), seed=seed))


class TestSerialIdentity:
    @pytest.mark.parametrize("protocol", sorted(FAMILIES))
    def test_family_is_batch_invariant(self, protocol):
        _replay(FAMILIES[protocol], _base(protocol), seed=11)

    def test_faulted_run_is_batch_invariant(self):
        # the faulted send path never batches; its golden pins it anyway
        _replay("g2pl_faulted",
                _base("g2pl", n_clients=5, n_items=6, faults=_FAULTS,
                      total_transactions=100, warmup_transactions=15),
                seed=7)

    def test_traced_run_is_batch_invariant(self):
        _replay("s2pl_traced",
                _base("s2pl", trace=True, probe_interval=150.0), seed=11)

    def test_sharded_run_is_batch_invariant(self):
        _replay("g2pl_sharded_plain",
                _base("g2pl", n_shards=4, n_regions=2,
                      cross_shard_probability=0.5,
                      intra_region_latency=1.0), seed=11)


class TestPooledIdentity:
    def test_all_families_batch_invariant_at_jobs_4(self):
        names = sorted(FAMILIES)
        cells = [SimulationCell(config=SimulationConfig(**_base(name)),
                                seed=11)
                 for name in names]
        results = run_cells(cells, jobs=4)
        for name, result in zip(names, results):
            _assert_matches_golden(FAMILIES[name], result)


class TestLogicalEngineStats:
    """The engine counters must see through batch nodes."""

    def test_engine_stats_count_logical_deliveries(self):
        # High fan-in on one link (many clients, one server, uniform
        # latency) so batching actually coalesces.  The expected values
        # were recorded with one heap entry per message.
        result = run_simulation(
            SimulationConfig(**_base("g2pl", n_clients=12, n_items=8)),
            seed=23)
        stats = result.engine_stats
        assert stats["processed_events"] == 1876
        assert stats["peak_heap_depth"] == 19
        assert stats["cancelled_events"] == 0

    def test_pending_and_fanout_are_logical(self):
        from repro.network.topology import UniformTopology
        from repro.network.transport import Network
        from repro.protocols.base import _Dispatcher
        from repro.sim.engine import Simulator

        received = []

        class Sink(_Dispatcher):
            def on_int(self, payload):
                received.append(payload)

        sim = Simulator()
        network = Network(sim, UniformTopology(10.0))
        network.add_site(Sink(1))
        network.add_site(Sink(2))
        for payload in range(5):
            network.send(1, 2, payload)
        # five same-timestamp sends on one link coalesce into one heap
        # node, but the logical view must still say five deliveries
        assert len(sim._heap) == 1
        assert sim.pending == 5
        sim.run()
        assert received == [0, 1, 2, 3, 4]
        assert sim.processed_events == 5
        assert sim.peak_heap_depth == 5
        assert sim.pending == 0
