"""Concurrency: coalescing, bit-identity under load, tenant isolation.

The contracts under test:

* Identical in-flight windows share ONE composition (the instrumented
  ``compositions`` / ``coalesced`` counters prove it), and every client —
  leader or follower — decodes a CSR bit-identical to a direct
  synthesis.
* ``degrees`` coalesces with plain ``window`` requests over the same
  window; ``ego`` reads the window's cached parts and composes nothing.
* Admission budgets are strictly per tenant: one tenant saturating its
  budget is rejected with ``retry_after`` while another tenant's
  identical query is admitted, and nothing leaks between ledgers.

Tests drive a real server over real sockets; determinism for the
admission tests comes from pinning ``executor_threads=1`` and parking a
gate job in the executor so admitted queries stay in flight for exactly
as long as the test wants.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.core import synthesize_layers
from repro.errors import AdmissionError
from repro.analysis import degree_distribution, ego_network
from repro.evlog import LogSet
from repro.service import (
    AdmissionController,
    NetworkQueryService,
    ServiceClient,
    ServiceConfig,
)
from repro.service.protocol import decode_network

from .conftest import assert_bit_identical

pytestmark = pytest.mark.timeout(120)


def make_service(service_logs, small_pop, **overrides) -> NetworkQueryService:
    config = ServiceConfig(port=0, **overrides)
    return NetworkQueryService(
        service_logs,
        small_pop.n_persons,
        places=small_pop.places,
        config=config,
    )


async def connect_clients(port: int, n: int, **kw) -> list[ServiceClient]:
    clients = [ServiceClient(port=port, **kw) for _ in range(n)]
    await asyncio.gather(*(c.connect() for c in clients))
    return clients


async def close_clients(clients) -> None:
    await asyncio.gather(*(c.close() for c in clients))


async def wait_for(predicate, timeout: float = 30.0) -> None:
    """Poll an event-loop-side predicate until true (deterministic sync
    point: the watched state only changes on this same loop)."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() > deadline:
            raise AssertionError("timed out waiting for server state")
        await asyncio.sleep(0.005)


class TestCoalescing:
    def test_identical_windows_share_one_composition(
        self, service_logs, small_pop, direct_ref
    ):
        ref = direct_ref(24, 192)
        n_clients = 12

        async def scenario():
            svc = make_service(service_logs, small_pop)
            async with svc:
                clients = await connect_clients(svc.port, n_clients)
                try:
                    # the window is cold: the leader's composition also
                    # builds its tiles, giving every follower ample time
                    # to arrive in flight
                    nets = await asyncio.gather(
                        *(c.query_window(24, 192) for c in clients)
                    )
                finally:
                    await close_clients(clients)
                assert svc.stats.queries == n_clients
                assert svc.stats.compositions == 1
                assert svc.stats.coalesced == n_clients - 1
                return nets

        nets = asyncio.run(scenario())
        assert len(nets) == n_clients
        for net in nets:
            assert (net.t0, net.t1) == (24, 192)
            assert_bit_identical(net.adjacency, ref.adjacency)

    def test_64_way_burst_is_one_composition_and_64_identical_replies(
        self, service_logs, small_pop, direct_ref
    ):
        """Encoding on the loop, once per waiter, must not cost the burst
        its single composition or any reply its bytes."""
        ref = direct_ref(48, 216)
        n_clients = 64

        async def scenario():
            svc = make_service(service_logs, small_pop)
            async with svc:
                clients = await connect_clients(svc.port, n_clients)
                try:
                    replies = await asyncio.gather(
                        *(c.request("window", t0=48, t1=216) for c in clients)
                    )
                finally:
                    await close_clients(clients)
                assert svc.stats.compositions == 1
                assert svc.stats.coalesced == n_clients - 1
                return replies

        replies = asyncio.run(scenario())
        assert len(replies) == n_clients
        blobs = {blob for _header, blob in replies}
        assert len(blobs) == 1  # byte-for-byte the same reply
        net = decode_network(blobs.pop())
        assert (net.t0, net.t1) == (48, 216)
        assert_bit_identical(net.adjacency, ref.adjacency)
        assert all(h["n_edges"] == ref.n_edges for h, _blob in replies)

    def test_distinct_windows_compose_once_each(
        self, service_logs, small_pop, direct_ref
    ):
        windows = [(0, 168), (24, 192), (5, 100)]
        per_window = 4
        refs = {w: direct_ref(*w) for w in windows}

        async def scenario():
            svc = make_service(service_logs, small_pop)
            async with svc:
                clients = await connect_clients(
                    svc.port, len(windows) * per_window
                )
                try:
                    jobs = [
                        c.query_window(*w)
                        for w, group in zip(
                            windows,
                            [
                                clients[i::len(windows)]
                                for i in range(len(windows))
                            ],
                        )
                        for c in group
                    ]
                    nets = await asyncio.gather(*jobs)
                finally:
                    await close_clients(clients)
                assert svc.stats.compositions == len(windows)
                assert svc.stats.coalesced == len(windows) * (per_window - 1)
                return nets

        nets = asyncio.run(scenario())
        for net in nets:
            assert_bit_identical(
                net.adjacency, refs[(net.t0, net.t1)].adjacency
            )

    def test_derived_ops_coalesce_with_window(
        self, service_logs, small_pop, direct_ref
    ):
        """ego + degrees + window over one window: one composition,
        shared by window and degrees; ego composes nothing."""
        ref = direct_ref(0, 168)
        person = 7

        async def scenario():
            svc = make_service(service_logs, small_pop)
            async with svc:
                a, b, c = await connect_clients(svc.port, 3)
                try:
                    net, ego, deg = await asyncio.gather(
                        a.query_window(0, 168),
                        b.query_ego(person, 0, 168),
                        c.degree_summary(0, 168),
                    )
                    assert svc.stats.queries == 3
                    assert svc.stats.compositions == 1
                    assert svc.stats.coalesced == 1
                    # an ego on a window nothing composed adds no
                    # composition either
                    await b.query_ego(person, 6, 174)
                    assert svc.stats.queries == 4
                    assert svc.stats.compositions == 1
                finally:
                    await close_clients([a, b, c])
                return net, ego, deg

        net, ego, deg = asyncio.run(scenario())
        assert_bit_identical(net.adjacency, ref.adjacency)
        # the served derivations match those computed from the reference
        ref_ego = ego_network(ref, person, radius=2)
        assert ego.center == person
        assert list(ego.persons) == list(ref_ego.persons)
        assert_bit_identical(ego.matrix, ref_ego.matrix)
        ref_dist = degree_distribution(ref.degrees())
        assert deg["n_vertices"] == ref_dist.n_vertices
        assert deg["n_isolated"] == ref_dist.n_isolated
        assert deg["mean_degree"] == pytest.approx(ref_dist.mean_degree)
        assert deg["degrees"] == ref_dist.degrees.tolist()
        assert deg["counts"] == ref_dist.counts.tolist()

    def test_layers_decompose_served_full_network(
        self, service_logs, small_pop, direct_ref
    ):
        """Concurrent layer queries sum exactly to the full adjacency,
        and each layer matches its own direct per-kind cache."""
        ref = direct_ref(0, 168)
        kinds = ["home", "school", "workplace", "other"]

        async def scenario():
            svc = make_service(service_logs, small_pop)
            async with svc:
                clients = await connect_clients(svc.port, len(kinds))
                try:
                    nets = await asyncio.gather(
                        *(
                            c.query_layer(kind, 0, 168)
                            for c, kind in zip(clients, kinds)
                        )
                    )
                finally:
                    await close_clients(clients)
                return dict(zip(kinds, nets))

        layers = asyncio.run(scenario())
        total = sum(net.adjacency for net in layers.values())
        assert (total != ref.adjacency).nnz == 0
        expected = synthesize_layers(
            LogSet(service_logs).read_all(),
            small_pop.places,
            small_pop.n_persons,
            0,
            168,
        )
        for kind, net in layers.items():
            assert_bit_identical(net.adjacency, expected[kind].adjacency)


class TestAdmission:
    def test_controller_is_strictly_per_tenant(self):
        ctl = AdmissionController(budget_nnz=100.0, assume_nnz_per_hour=10.0)
        cost = ctl.admit("alice", 24)  # idle tenant: over-budget admitted
        assert cost == 240.0
        with pytest.raises(AdmissionError) as err:
            ctl.admit("alice", 24)
        assert err.value.retry_after == ctl.retry_after
        # bob's ledger is untouched by alice's saturation
        assert ctl.admit("bob", 24) == 240.0
        ctl.release("alice", cost)
        assert ctl.tenants["alice"].in_flight_queries == 0
        assert ctl.admit("alice", 24) == 240.0  # idle again
        assert ctl.tenants["alice"].rejected == 1
        assert ctl.tenants["bob"].rejected == 0

    def test_density_ratchets_up_only(self):
        ctl = AdmissionController(budget_nnz=None)
        assert ctl.estimate(24) == 1.0  # no prior: concurrency cap
        ctl.observe(24, 2400)
        assert ctl.density == 100.0
        ctl.observe(24, 24)  # sparser window must not relax the estimate
        assert ctl.density == 100.0
        assert ctl.estimate(10) == 1000.0

    def test_server_rejects_over_budget_tenant_only(
        self, service_logs, small_pop, direct_ref
    ):
        ref = direct_ref(0, 24)

        async def scenario():
            svc = make_service(
                service_logs,
                small_pop,
                executor_threads=1,
                tenant_budget_nnz=100.0,
                assume_nnz_per_hour=10.0,
            )
            async with svc:
                gate = threading.Event()
                try:
                    a1, a2 = await connect_clients(
                        svc.port, 2, tenant="alice"
                    )
                    (b1,) = await connect_clients(svc.port, 1, tenant="bob")
                    # park the only executor thread: admitted queries
                    # stay charged until the gate opens
                    svc._executor.submit(gate.wait)
                    first = asyncio.create_task(a1.query_window(0, 24))
                    await wait_for(
                        lambda: svc.admission.tenants.get("alice")
                        is not None
                        and svc.admission.tenants["alice"].in_flight_queries
                        == 1
                    )
                    # alice is over budget (240 in flight > 100): rejected
                    with pytest.raises(AdmissionError) as err:
                        await a2.query_window(0, 24)
                    assert err.value.retry_after == pytest.approx(0.05)
                    assert svc.stats.rejections == 1
                    # bob's identical query is admitted despite alice
                    second = asyncio.create_task(b1.query_window(0, 24))
                    await wait_for(
                        lambda: svc.admission.tenants.get("bob") is not None
                        and svc.admission.tenants["bob"].in_flight_queries
                        == 1
                    )
                    assert svc.admission.tenants["bob"].rejected == 0
                    gate.set()
                    net_a, net_b = await asyncio.gather(first, second)
                    # rejected-then-idle: alice's retry is admitted now
                    net_retry = await a2.query_window(0, 24)
                    await close_clients([a1, a2, b1])
                finally:
                    gate.set()
                alice = svc.admission.tenants["alice"]
                bob = svc.admission.tenants["bob"]
                assert (alice.admitted, alice.rejected) == (2, 1)
                assert (bob.admitted, bob.rejected) == (1, 0)
                assert alice.in_flight_queries == 0
                assert bob.in_flight_queries == 0
                return net_a, net_b, net_retry

        for net in asyncio.run(scenario()):
            assert_bit_identical(net.adjacency, ref.adjacency)

    def test_client_retry_loop_rides_out_rejection(
        self, service_logs, small_pop, direct_ref
    ):
        ref = direct_ref(0, 24)

        async def scenario():
            svc = make_service(
                service_logs,
                small_pop,
                executor_threads=1,
                tenant_budget_nnz=100.0,
                assume_nnz_per_hour=10.0,
                retry_after=0.02,
            )
            async with svc:
                gate = threading.Event()
                try:
                    a1, a2 = await connect_clients(
                        svc.port, 2, tenant="alice", retries=100
                    )
                    svc._executor.submit(gate.wait)
                    first = asyncio.create_task(a1.query_window(0, 24))
                    await wait_for(
                        lambda: svc.admission.tenants.get("alice")
                        is not None
                        and svc.admission.tenants["alice"].in_flight_queries
                        == 1
                    )
                    second = asyncio.create_task(a2.query_window(0, 24))
                    # let the retry loop hit at least one rejection
                    await wait_for(lambda: svc.stats.rejections >= 1)
                    gate.set()
                    net1, net2 = await asyncio.gather(first, second)
                    await close_clients([a1, a2])
                finally:
                    gate.set()
                assert svc.stats.rejections >= 1
                return net1, net2

        for net in asyncio.run(scenario()):
            assert_bit_identical(net.adjacency, ref.adjacency)
