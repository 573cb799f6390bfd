"""Sharded parallel DES: plan unit tests and the equivalence contract.

The load-bearing property is *bit-identical fingerprints*: for any
shard count, fault schedule or sanitizer setting, a sharded run must
reduce to exactly the serial
:meth:`~repro.topology.fleet.FleetPointResult.run_fingerprint`.
"""

import random

import pytest

from repro.analysis.sanitize.runtime import sanitized
from repro.errors import ConfigError
from repro.faults.link import Duplicate, DropFrames, GilbertElliott
from repro.parallel.des import (
    FleetFaults,
    build_plan,
    run_sharded_fleet,
)
from repro.topology import (
    ClientSpec,
    FleetJobSpec,
    FleetWorkload,
    ServerSpec,
    Topology,
    reduce_fleet,
    run_fleet_job,
)
from repro.units import KIB, ms, us

SMALL = 96 * KIB


def serial_point(spec, faults=None):
    topo = Topology(clients=spec.clients, servers=spec.servers, switch=spec.switch)
    if faults is not None:
        faults.apply_serial(topo)
    workload = FleetWorkload(
        topo,
        spec.file_bytes,
        chunk_bytes=spec.chunk_bytes,
        do_fsync=spec.do_fsync,
        stagger_ns=spec.stagger_ns,
    )
    return reduce_fleet(workload.run(time_limit_ns=spec.time_limit_ns))


# -- plan ---------------------------------------------------------------------


def test_plan_partitions_contiguously_and_balanced():
    spec = FleetJobSpec.homogeneous(10, file_bytes=SMALL)
    plan = build_plan(spec, 4)
    assert plan.nshards == 4
    flat = [i for group in plan.groups for i in group]
    assert flat == list(range(10))
    sizes = [len(g) for g in plan.groups]
    assert max(sizes) - min(sizes) <= 1


def test_plan_clamps_shards_to_client_count():
    spec = FleetJobSpec.homogeneous(3, file_bytes=SMALL)
    assert build_plan(spec, 16).nshards == 3


def test_plan_lookahead_is_min_client_latency():
    from repro.config import NetConfig

    clients = (
        ClientSpec(net=NetConfig.gigabit()),
        ClientSpec(net=NetConfig.fast_ethernet()),
    )
    spec = FleetJobSpec(clients=clients)
    assert build_plan(spec, 2).lookahead_ns == us(25)


def test_plan_rejects_zero_latency_and_local_mounts():
    from repro.config import NetConfig

    zero = FleetJobSpec(
        clients=(ClientSpec(net=NetConfig(latency_ns=0)),)
    )
    with pytest.raises(ConfigError):
        build_plan(zero, 2)
    local = FleetJobSpec(
        clients=(ClientSpec(),), servers=(ServerSpec(kind="local"),)
    )
    with pytest.raises(ConfigError):
        build_plan(local, 2)


def test_fault_routing_splits_by_link_ownership():
    spec = FleetJobSpec.homogeneous(4, file_bytes=SMALL)
    plan = build_plan(spec, 2)
    faults = FleetFaults(
        uplink={"client0": DropFrames([1]), "client3": DropFrames([2])},
        downlink={"client1": DropFrames([3])},
        server_schedules=((0, (("pause_between", (ms(1), ms(2))),)),),
    )
    per_shard, hub = faults.split(plan)
    assert "client0" in per_shard[0].uplink
    assert "client3" in per_shard[1].uplink
    # Downlinks are switch-driven, so they always land hub-side.
    assert "client1" in hub.downlink
    assert not per_shard[0].downlink and not per_shard[1].downlink
    assert hub.server_schedules == faults.server_schedules


# -- equivalence --------------------------------------------------------------


@pytest.mark.parametrize("clients,shards", [(1, 1), (2, 2), (4, 2), (5, 3), (6, 6)])
def test_sharded_matches_serial_across_counts(clients, shards):
    spec = FleetJobSpec.homogeneous(clients, target="netapp", file_bytes=SMALL)
    serial = run_fleet_job(spec)
    out = run_sharded_fleet(spec, shards=shards, transport="inline")
    assert out.point.run_fingerprint() == serial.run_fingerprint()


def test_sharded_matches_serial_linux_target_with_stagger():
    spec = FleetJobSpec.homogeneous(
        4, target="linux", file_bytes=SMALL, stagger_ns=ms(2)
    )
    serial = run_fleet_job(spec)
    out = run_sharded_fleet(spec, shards=2, transport="inline")
    assert out.point.run_fingerprint() == serial.run_fingerprint()


def test_inline_is_the_only_transport():
    spec = FleetJobSpec.homogeneous(2, target="netapp", file_bytes=SMALL)
    with pytest.raises(ConfigError, match="unknown shard transport 'process'"):
        run_sharded_fleet(spec, shards=2, transport="process")


def _burst_faults():
    return FleetFaults(
        uplink={
            "client1": GilbertElliott(random.Random(7), p_good_to_bad=0.02),
        },
        downlink={
            "client2": DropFrames([5, 9]),
            "client0": Duplicate(random.Random(3), probability=0.05, lag_ns=us(40)),
        },
        server_schedules=((0, (("pause_between", (ms(5), ms(8))),)),),
    )


def test_sharded_matches_serial_under_link_and_server_faults():
    spec = FleetJobSpec.homogeneous(3, target="linux", file_bytes=SMALL)
    serial = serial_point(spec, faults=_burst_faults())
    out = run_sharded_fleet(
        spec, shards=3, transport="inline", faults=_burst_faults()
    )
    assert out.point.run_fingerprint() == serial.run_fingerprint()
    # The faults really fired: the fleet retransmitted or dropped.
    assert any(
        row["bytes_received"] > 0 for row in out.point.servers
    )


def test_sharded_matches_serial_under_sanitizers():
    spec = FleetJobSpec.homogeneous(3, target="netapp", file_bytes=64 * KIB)
    with sanitized() as serial_session:
        serial = serial_point(spec)
        serial_groups = {k: len(v) for k, v in serial_session.grouped().items()}
    with sanitized() as shard_session:
        out = run_sharded_fleet(spec, shards=2, transport="inline")
        shard_groups = {k: len(v) for k, v in shard_session.grouped().items()}
    assert out.point.run_fingerprint() == serial.run_fingerprint()
    assert shard_groups == serial_groups


def test_sharded_run_exposes_live_hub_servers():
    spec = FleetJobSpec.homogeneous(2, target="netapp", file_bytes=SMALL)
    out = run_sharded_fleet(spec, shards=2, transport="inline")
    assert len(out.servers) == 1
    server = out.servers[0]
    # Durable file state lives hub-side, inspectable like a serial run.
    assert server.bytes_received == out.point.servers[0]["bytes_received"]
    names = {f"client{i}-file" for i in range(2)}
    assert names <= {f.name for f in server.files.values()}


def _observed_serial(spec):
    from repro.obs.core import observed

    with observed() as session:
        point = serial_point(spec)
    assert session.observabilities, "serial observer did not attach"
    return point, session.observabilities[0]


def _observed_sharded(spec, shards, transport):
    from repro.obs.core import observed

    with observed() as session:
        outcome = run_sharded_fleet(spec, shards=shards, transport=transport)
    assert outcome.observability is not None
    assert outcome.observability in session.observabilities
    return outcome.point, outcome.observability


def _export_bundle(obs):
    """The byte-level view of one observer: trace, metrics, timelines."""
    import json

    from repro.obs.export import chrome_trace, prometheus_text
    from repro.obs.slo import evaluate_slos

    trace = json.dumps(chrome_trace(obs), sort_keys=True)
    prom = prometheus_text(obs.metrics)
    timeline = json.dumps(obs.timelines.snapshot(), sort_keys=True)
    slo = json.dumps(evaluate_slos(obs.timelines), sort_keys=True)
    return trace, prom, timeline, slo


@pytest.mark.parametrize(
    "shards,transport", [(2, "inline"), (3, "inline")]
)
def test_observed_sharded_exports_byte_identical(shards, transport):
    spec = FleetJobSpec.homogeneous(4, target="netapp", file_bytes=SMALL)
    serial, serial_obs = _observed_serial(spec)
    sharded, sharded_obs = _observed_sharded(spec, shards, transport)
    assert sharded.run_fingerprint() == serial.run_fingerprint()
    serial_bundle = _export_bundle(serial_obs)
    sharded_bundle = _export_bundle(sharded_obs)
    for name, a, b in zip(
        ("chrome-trace", "prometheus", "timeline", "slo-report"),
        serial_bundle,
        sharded_bundle,
    ):
        assert a == b, f"{name} export differs serial vs {shards} shards"


def test_observed_sharded_matches_unobserved_fingerprint():
    # Telemetry-on must equal telemetry-off in both engines: the
    # pure-observer replay proof for the sharded path.
    spec = FleetJobSpec.homogeneous(3, target="netapp", file_bytes=SMALL)
    bare = run_sharded_fleet(spec, shards=2, transport="inline")
    assert bare.observability is None
    observed_point, _ = _observed_sharded(spec, 2, "inline")
    assert observed_point.run_fingerprint() == bare.point.run_fingerprint()
    assert observed_point.run_fingerprint() == serial_point(spec).run_fingerprint()


def test_sharded_propagates_time_limit_wedge():
    from repro.errors import SimulationError

    spec = FleetJobSpec.homogeneous(
        2, target="netapp", file_bytes=SMALL, time_limit_ns=us(100)
    )
    with pytest.raises(SimulationError):
        run_sharded_fleet(spec, shards=2, transport="inline")


# -- client events ------------------------------------------------------------


def test_client_event_routing_splits_by_owner():
    spec = FleetJobSpec.homogeneous(4, file_bytes=SMALL)
    plan = build_plan(spec, 2)
    faults = FleetFaults(
        client_events=((0, (ms(1), ms(2), 1)), (3, (ms(3), ms(4), 2))),
    )
    per_shard, hub = faults.split(plan)
    assert per_shard[0].client_events == ((0, (ms(1), ms(2), 1)),)
    assert per_shard[1].client_events == ((3, (ms(3), ms(4), 2)),)
    assert hub.client_events == ()


def test_client_event_out_of_range_rejected():
    spec = FleetJobSpec.homogeneous(2, file_bytes=SMALL)
    plan = build_plan(spec, 2)
    faults = FleetFaults(client_events=((5, (ms(1), ms(2), 1)),))
    with pytest.raises(ConfigError, match="client event targets client 5"):
        faults.split(plan)


def test_sharded_matches_serial_under_client_events():
    spec = FleetJobSpec.homogeneous(3, target="netapp", file_bytes=SMALL)
    event = ((1, (ms(1), ms(30), 1)),)
    serial = serial_point(spec, faults=FleetFaults(client_events=event))
    out = run_sharded_fleet(
        spec,
        shards=3,
        transport="inline",
        faults=FleetFaults(client_events=event),
    )
    assert out.point.run_fingerprint() == serial.run_fingerprint()
    # Starving one client must actually change the interleaving.
    unfaulted = serial_point(spec)
    assert serial.run_fingerprint() != unfaulted.run_fingerprint()


# -- idle shard worlds are not stepped ----------------------------------------


def _count_windows(monkeypatch):
    from repro.parallel.des import worlds

    calls = {"shard": 0, "hub": 0}
    shard_window = worlds.ClientShardWorld.run_window
    hub_window = worlds.HubWorld.run_window

    def counted_shard(self, end, messages):
        calls["shard"] += 1
        return shard_window(self, end, messages)

    def counted_hub(self, end, messages):
        calls["hub"] += 1
        return hub_window(self, end, messages)

    monkeypatch.setattr(worlds.ClientShardWorld, "run_window", counted_shard)
    monkeypatch.setattr(worlds.HubWorld, "run_window", counted_hub)
    return calls


def _staggered_fleet():
    return FleetJobSpec.homogeneous(
        8, target="netapp", file_bytes=SMALL, stagger_ns=ms(2)
    )


def test_idle_shards_skip_their_windows(monkeypatch):
    spec = _staggered_fleet()
    calls = _count_windows(monkeypatch)
    out = run_sharded_fleet(spec, shards=4, transport="inline")
    rounds = calls["hub"] - 1  # the last hub call is the completion clamp
    # Staggered clients leave whole shards with nothing due for most
    # windows; the hub still steps every round.
    assert rounds > 0
    assert calls["shard"] * 3 < rounds * 4
    assert out.point.run_fingerprint() == serial_point(spec).run_fingerprint()


def _uplink_and_crash_faults():
    return FleetFaults(
        uplink={"client5": DropFrames([3, 7, 11])},
        server_schedules=((0, (("crash_at", (ms(6),)), ("restart_at", (ms(9),)))),),
    )


def test_idle_shard_skip_matches_serial_under_faults(monkeypatch):
    spec = _staggered_fleet()
    calls = _count_windows(monkeypatch)
    serial = serial_point(spec, faults=_uplink_and_crash_faults())
    out = run_sharded_fleet(
        spec, shards=4, transport="inline", faults=_uplink_and_crash_faults()
    )
    assert calls["shard"] * 3 < (calls["hub"] - 1) * 4
    assert [label for _t, label in out.schedules[0].log] == ["crash", "restart"]
    assert out.point.run_fingerprint() == serial.run_fingerprint()
    assert serial.run_fingerprint() != serial_point(spec).run_fingerprint()
