"""Fleet observability: the client-id dimension.

Multi-client topologies give each stack a scoped view of the one root
observer: metric keys grow a ``{client}/`` prefix and spans carry a
``client=`` attribute, so per-client rates fall out of one snapshot.  A
single-client topology keeps the historical unprefixed keys — existing
dashboards read the same names they always did.
"""

from repro.obs.core import observed
from repro.obs.export import build_spans
from repro.topology import FleetWorkload, Topology
from repro.units import KIB


def test_fleet_metrics_carry_client_prefix():
    with observed() as session:
        topo = Topology(clients=2)
        FleetWorkload(topo, 64 * KIB).run()
    assert len(session.observabilities) == 1
    snapshot = session.observabilities[0].metrics.snapshot()
    client0 = [k for k in snapshot if k.startswith("client0/")]
    client1 = [k for k in snapshot if k.startswith("client1/")]
    assert client0 and client1
    # The same per-client instruments exist under both prefixes.
    assert {k[len("client0/") :] for k in client0} == {
        k[len("client1/") :] for k in client1
    }
    # Identical clients, identical work.
    assert snapshot["client0/syscall/write_calls"] == snapshot[
        "client1/syscall/write_calls"
    ]


def test_single_client_topology_keeps_unprefixed_keys():
    with observed() as session:
        topo = Topology(clients=1)
        topo.run_workload("sequential-write", {"file_bytes": 64 * KIB})
    snapshot = session.observabilities[0].metrics.snapshot()
    assert "syscall/write_calls" in snapshot
    assert not any(k.startswith("client/") for k in snapshot)


def test_fleet_spans_carry_client_attribute():
    with observed() as session:
        topo = Topology(clients=2)
        FleetWorkload(topo, 64 * KIB).run()
    spans = build_spans(session.observabilities[0].tracer)
    clients = {
        span.attrs.get("client")
        for span in spans.values()
        if span.component == "syscall"
    }
    assert clients == {"client0", "client1"}
