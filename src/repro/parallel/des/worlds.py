"""The two kinds of shard-local simulations: client worlds and the hub.

Each world is an ordinary :class:`~repro.sim.Simulator` plus a partial
topology.  The partition cut runs through every client's access link:

* a **client world** owns a group of complete client stacks and the
  client end of their links — its ports' *uplinks* are
  :class:`BoundaryLink` objects that capture departing frames instead
  of scheduling a local delivery;
* the **hub world** owns the switch and every server, plus a stub port
  per client whose *downlink* is a :class:`BoundaryLink` — the switch
  forwards into it normally (paying queueing, loss and fault handling
  exactly where the serial run does) and the arrival pops out as a
  cross-shard message.

Construction mirrors the serial :class:`~repro.topology.build.Topology`
assembly order inside each world (hosts, then servers, then stacks,
then sanitizers), and the hub attaches client stub ports before the
servers so port ids match the serial switch registry.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ...config import NetConfig
from ...net.link import Link
from ...net.switch import Switch
from ...obs.core import Observability, ScopedObservability
from ...sim import Simulator, all_done
from ...topology.build import ClientStack, materialise_server, _named_server_specs
from ...topology.fleet import fleet_workload_for, server_rows
from .plan import FleetFaults, ShardPlan, client_names

__all__ = ["BoundaryLink", "ClientShardWorld", "HubWorld", "SPAN_NAMESPACE_STRIDE"]

#: A captured boundary frame: (arrival time, sender-local seq, fragment).
Message = Tuple[int, int, Any]

#: Span-id range each world mints from: the hub starts at 0, client
#: shard ``s`` at ``(s + 1) * STRIDE`` — disjoint for any realistic run,
#: so per-world spans merge without collisions and exports renumber
#: them canonically.
SPAN_NAMESPACE_STRIDE = 1 << 48

#: (ring capacity, timeline window_ns) shipped to each world when the
#: parent has an active ``observed()`` session.
ObsConfig = Optional[Tuple[int, int]]


class BoundaryLink(Link):
    """A link whose receiving end lives in another shard.

    ``send`` does full serialisation/queueing/fault accounting exactly
    like :class:`Link` — only the delivery changes: instead of going on
    the local heap, each (possibly fault-delayed) arrival is appended
    to :attr:`outbox` with a seq reserved from the local simulator, so
    the receiving shard can replay same-timestamp frames in the order
    the sender emitted them.
    """

    __slots__ = ("outbox",)

    def __init__(self, sim, bandwidth_bytes_per_sec, latency_ns, name):
        super().__init__(sim, bandwidth_bytes_per_sec, latency_ns, name)
        self.outbox: List[Message] = []

    def _emit(self, time, deliver, args):
        self.outbox.append((time, self._sim.alloc_seq(), args[0]))

    def _emit_clean(self, arrival, deliver, args):
        self.outbox.append((arrival, self._sim.alloc_seq(), args[0]))


class _ShardTopo:
    """Duck-typed Topology context for :class:`ClientStack` phases.

    Carries the *full* client/server spec tuples (naming depends on the
    fleet-wide client count) but only this shard's live objects.
    """

    def __init__(self, sim, switch, client_specs, server_specs):
        self.sim = sim
        self.switch = switch
        self.client_specs = client_specs
        self.server_specs = server_specs
        #: Server objects by index — None in client worlds (the servers
        #: live in the hub; stacks mount them by name).
        self.servers: List[Optional[object]] = [None] * len(server_specs)


def _drain_outboxes(links: List[BoundaryLink]) -> List[Message]:
    """Merge and clear boundary outboxes into (time, seq) order."""
    out: List[Message] = []
    for link in links:
        if link.outbox:
            out.extend(link.outbox)
            link.outbox.clear()
    out.sort(key=lambda m: (m[0], m[1]))
    return out


class ClientShardWorld:
    """One worker's simulation: a group of whole client stacks."""

    def __init__(
        self,
        plan: ShardPlan,
        shard_id: int,
        faults: FleetFaults,
        obs_config: ObsConfig = None,
    ):
        spec = plan.spec
        self.plan = plan
        self.shard_id = shard_id
        self.group = plan.groups[shard_id]
        self.sim = Simulator()
        self.switch = Switch(
            self.sim, name=spec.switch.name, seed=spec.switch.seed
        )
        # Hub owns namespace 0; client shard s owns s+1 (mod nshards+1).
        self.switch.set_dgram_namespace(shard_id + 1, plan.nshards + 1)
        server_specs = tuple(_named_server_specs(spec.servers))
        topo = _ShardTopo(self.sim, self.switch, tuple(spec.clients), server_specs)
        self.stacks: List[ClientStack] = [
            ClientStack(topo, index, spec.clients[index]) for index in self.group
        ]
        for stack in self.stacks:
            stack._build_host()
        # Cut the uplinks: departing frames become boundary messages.
        self.boundaries: List[BoundaryLink] = []
        for stack in self.stacks:
            port = stack.host.port
            port.uplink = BoundaryLink(
                self.sim,
                port.net.bandwidth_bytes_per_sec,
                port.net.latency_ns,
                f"{port.name}-up",
            )
            self.boundaries.append(port.uplink)
        for stack in self.stacks:
            stack._build_stack(profile=False)
        from ...analysis.sanitize.runtime import attach_if_active

        for stack in self.stacks:
            stack.sanitizer = attach_if_active(stack)
        # Shard-side observability: this world records its own stacks
        # and the client ends of the cut links; span ids mint from the
        # shard's namespace so the parent can merge all worlds' rings.
        self.obs: Optional[Observability] = None
        if obs_config is not None:
            capacity, window_ns = obs_config
            obs = Observability(
                self.sim, enabled=True, capacity=capacity, window_ns=window_ns
            )
            obs.set_span_namespace((shard_id + 1) * SPAN_NAMESPACE_STRIDE)
            scoped = len(spec.clients) > 1
            for stack in self.stacks:
                stack.host.port.uplink.obs = obs
                view = ScopedObservability(obs, stack.name) if scoped else obs
                stack.obs = view
                stack.syscalls.obs = view
                stack.pagecache.obs = view
                if stack.nfs is not None:
                    stack.nfs.obs = view
                    stack.nfs.xprt.obs = view
            self.obs = obs
        faults.apply_links(self.switch)
        self.starvations = faults.apply_client_events(self.stacks)
        # Workload tasks spawn before the first window, as in serial.
        from ...bench.workloads import client_workload_body

        self.workloads = [fleet_workload_for(spec, stack) for stack in self.stacks]
        self.tasks = [
            self.sim.spawn(
                client_workload_body(
                    stack,
                    workload,
                    stack.spec.start_offset_ns + stack.index * spec.stagger_ns,
                ),
                name=f"benchmark-{stack.name}",
                daemon=True,
            )
            for stack, workload in zip(self.stacks, self.workloads)
        ]
        self._all_done = all_done(self.tasks)

    # -- window protocol -----------------------------------------------------

    def run_window(self, end: int, messages: List[Message]) -> Dict[str, Any]:
        """Inject inbound frames, simulate ``[now, end)``, report back."""
        for time, _seq, frag in messages:
            port = self.switch.port(frag.dgram.dst)
            self.sim.call_at(time, port._arrive, frag)
        self.sim.run_window(end)
        done = self._all_done()
        return {
            "outbox": _drain_outboxes(self.boundaries),
            "next": self.sim.next_event_time(),
            "done": done,
            # Completion times, read by the driver once, when done.
            "ends": [t.result[1] for t in self.tasks if t.error is None]
            if done
            else [],
        }

    def finalise(self) -> Dict[str, Any]:
        """Reduce results once the fleet has globally completed."""
        rows, errors = [], []
        for stack, workload, task in zip(self.stacks, self.workloads, self.tasks):
            if task.error is not None:
                errors.append((stack.index, task.error))
            elif task.done:
                rows.append(
                    (stack.index, workload.row(stack.name, *task.result))
                )
        findings = []
        for stack in self.stacks:
            if stack.sanitizer is not None:
                findings.extend(stack.sanitizer.audit())
        return {
            "rows": rows,
            "errors": errors,
            "pending": [s.name for s, t in zip(self.stacks, self.tasks) if not t.done],
            "events": self.sim.events_processed,
            "findings": findings,
            # Everything the parent needs to merge this world's
            # telemetry: raw trace records (NamedTuples pickle fine),
            # the metrics dump, and the timeline snapshot.
            "obs": None
            if self.obs is None
            else {
                "records": self.obs.tracer.records(),
                "metrics": self.obs.metrics.dump_state(),
                "timelines": self.obs.timelines.snapshot(),
            },
        }


class HubWorld:
    """The parent-side simulation: switch, servers, client stubs."""

    def __init__(
        self, plan: ShardPlan, faults: FleetFaults, obs_config: ObsConfig = None
    ):
        spec = plan.spec
        self.plan = plan
        self.sim = Simulator()
        self.switch = Switch(
            self.sim, name=spec.switch.name, seed=spec.switch.seed
        )
        self.switch.set_dgram_namespace(0, plan.nshards + 1)
        self.server_specs = tuple(_named_server_specs(spec.servers))
        # Stub ports first, in client order, so switch port ids line up
        # with the serial registry; then the real servers.
        self.boundaries: List[BoundaryLink] = []
        self.stub_owner: Dict[str, int] = {}
        names = client_names(spec)
        owner = {
            index: shard
            for shard, group in enumerate(plan.groups)
            for index in group
        }
        for index, client in enumerate(spec.clients):
            net = client.net or NetConfig.gigabit()
            port = self.switch.attach(names[index], net)
            port.downlink = BoundaryLink(
                self.sim,
                net.bandwidth_bytes_per_sec,
                net.latency_ns,
                f"{port.name}-down",
            )
            self.boundaries.append(port.downlink)
            self.stub_owner[names[index]] = owner[index]
        self.servers = [
            materialise_server(self.sim, self.switch, s) for s in self.server_specs
        ]
        # Hub-side observability: the switch, every server, and the
        # switch ends of the links — frame spans record where the send
        # happens, so hub and shards partition them without overlap.
        # The hub keeps the default span namespace (base 0).
        self.obs: Optional[Observability] = None
        if obs_config is not None:
            capacity, window_ns = obs_config
            obs = Observability(
                self.sim, enabled=True, capacity=capacity, window_ns=window_ns
            )
            self.switch.obs = obs
            for port in self.switch.ports():
                port.uplink.obs = obs
                port.downlink.obs = obs
            for server in self.servers:
                server.obs = obs
                server.rpc.obs = obs
            self.obs = obs
        faults.apply_links(self.switch)
        self.schedules = faults.apply_schedules(self.servers)

    def run_window(self, end: int, messages: List[Message]) -> None:
        """Inject client frames at the switch's forward path and run."""
        for time, _seq, frag in messages:
            self.sim.call_at(time, self.switch._forward, frag)
        self.sim.run_window(end)

    def drain(self) -> Dict[int, List[Message]]:
        """Collect outbound frames, bucketed by destination shard."""
        per_shard: Dict[int, List[Message]] = {}
        for msg in _drain_outboxes(self.boundaries):
            shard = self.stub_owner[msg[2].dgram.dst]
            per_shard.setdefault(shard, []).append(msg)
        return per_shard

    def next_event_time(self) -> Optional[int]:
        return self.sim.next_event_time()

    def server_rows(self) -> List[Dict[str, Any]]:
        return server_rows(self.servers, self.switch)
