"""Conservative window synchronisation across shard worlds.

The driver owns the hub world (switch + servers) and steps one worker
per client shard, all in this process.  Time advances in lookahead
windows:

1. compute ``m`` — the earliest event anywhere (worker heap heads, the
   hub's heap head, undelivered boundary frames) — and open the window
   ``[.., m + W)`` where ``W`` is the minimum client link latency;
2. tell every worker that has work before the new horizon — inbound
   boundary frames, or its own next event — to simulate up to it,
   handing it those frames.  An idle worker is not stepped: its reply
   is already known (an empty outbox, the same next event and done
   flag), and its clock simply catches up in the next window it runs;
3. simulate the hub up to the *previous* horizon (the hub lags one
   window so that when the last client finishes, the hub has not yet
   run past the completion time);
4. collect worker outboxes for the hub's next window.

Any frame sent during a window arrives at least ``W`` later — at or
after the next horizon — so frames exchanged at window boundaries are
always injected before the receiving shard reaches their arrival time:
no rollback, no deadlock, and (empirically enforced by the fingerprint
tests) a bit-identical outcome to the serial event loop.

When every client has finished, the hub is clamped to
``run_window(tc + 1)`` where ``tc`` is the last client's completion
time: the serial loop stops at the event that completes the last
benchmark, so the hub must not process the stray retransmissions and
DRC replays that live beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ...errors import ConfigError, SimulationError
from ...topology.fleet import FleetJobSpec, FleetPointResult
from .plan import FleetFaults, ShardPlan, build_plan
from .worlds import ClientShardWorld, HubWorld

__all__ = ["run_sharded_fleet", "ShardedFleetOutcome"]


class InlineWorker:
    """One client shard world, stepped in the driver's process."""

    def __init__(
        self, plan: ShardPlan, shard_id: int, faults: FleetFaults, obs_config=None
    ):
        self.world = ClientShardWorld(plan, shard_id, faults, obs_config)
        self._reply: Optional[Dict[str, Any]] = None

    def send_window(self, end: int, messages) -> None:
        self._reply = self.world.run_window(end, messages)

    def recv_window(self) -> Dict[str, Any]:
        reply, self._reply = self._reply, None
        return reply

    def finalise(self) -> Dict[str, Any]:
        return self.world.finalise()


@dataclass
class ShardedFleetOutcome:
    """A sharded run's reduced point plus the live hub-side state.

    The hub's server objects stay live, so callers can inspect durable
    file state exactly as they would after a serial run.
    """

    point: FleetPointResult
    servers: List[Any]
    schedules: List[Any] = field(default_factory=list)
    #: The merged fleet-wide observer (None when run unobserved).
    observability: Any = None


def run_sharded_fleet(
    spec: FleetJobSpec,
    shards: int,
    transport: str = "inline",
    faults: Optional[FleetFaults] = None,
) -> ShardedFleetOutcome:
    """Run one fleet point across ``shards`` window-synchronised worlds.

    Every shard is stepped in this process; ``transport`` accepts only
    ``"inline"``.  The result must be bit-identical to
    ``run_fleet_job(spec)`` up to
    :meth:`FleetPointResult.run_fingerprint`.  An active sanitizer
    session audits the shard stacks directly, as in a serial run.
    """
    if transport != "inline":
        raise ConfigError(f"unknown shard transport {transport!r}")
    from ...obs.core import active_session as obs_session

    obs_sess = obs_session()
    obs_config = (
        (obs_sess.capacity, obs_sess.window_ns) if obs_sess is not None else None
    )
    plan = build_plan(spec, shards)
    faults = faults or FleetFaults()
    shard_faults, hub_faults = faults.split(plan)
    hub = HubWorld(plan, hub_faults, obs_config)
    workers = [
        InlineWorker(plan, s, shard_faults[s], obs_config)
        for s in range(plan.nshards)
    ]
    return _drive(spec, plan, hub, workers, obs_sess)


def _drive(spec, plan, hub, workers, obs_sess) -> ShardedFleetOutcome:
    lookahead = plan.lookahead_ns
    nshards = plan.nshards
    hub_inbox: List[Any] = []
    pending: Dict[int, List[Any]] = {s: [] for s in range(nshards)}
    # Workload tasks spawn at t=0 in every shard, so everyone's first
    # event is at 0 until the first window reply says otherwise.
    worker_next: List[Optional[int]] = [0] * nshards
    worker_done = [False] * nshards
    ends: List[int] = []
    prev_horizon = 0

    while not all(worker_done):
        candidates = [t for t in worker_next if t is not None]
        hub_next = hub.next_event_time()
        if hub_next is not None:
            candidates.append(hub_next)
        candidates.extend(m[0] for m in hub_inbox)
        for msgs in pending.values():
            candidates.extend(m[0] for m in msgs)
        if not candidates:
            names = []
            for worker in workers:
                names.extend(worker.finalise()["pending"])
            raise ConfigError(
                f"fleet benchmark did not finish on {', '.join(names)}; "
                "simulation wedged?"
            )
        earliest = min(candidates)
        if spec.time_limit_ns is not None and earliest > spec.time_limit_ns:
            raise SimulationError(
                f"run_until hit the time limit at {spec.time_limit_ns} ns"
            )
        horizon = earliest + lookahead
        stepped = []
        for shard, worker in enumerate(workers):
            msgs = pending[shard]
            nxt = worker_next[shard]
            if msgs or (nxt is not None and nxt < horizon):
                worker.send_window(horizon, msgs)
                pending[shard] = []
                stepped.append(shard)
        # The hub lags one window: the stepped workers are at horizon,
        # and the hub catches up to prev_horizon.
        hub.run_window(prev_horizon, hub_inbox)
        hub_inbox = []
        for shard, msgs in hub.drain().items():
            pending[shard].extend(msgs)
        for shard in stepped:
            reply = workers[shard].recv_window()
            hub_inbox.extend(reply["outbox"])
            worker_next[shard] = reply["next"]
            if reply["done"] and not worker_done[shard]:
                worker_done[shard] = True
                ends.extend(reply["ends"])
        prev_horizon = horizon

    # Global completion: clamp the hub to the last client's completion
    # time, mirroring where the serial run_until loop stopped.
    clamp = (max(ends) if ends else hub.sim.now) + 1
    hub.run_window(max(clamp, hub.sim.now), hub_inbox)

    rows: Dict[int, Dict[str, Any]] = {}
    errors: List[Any] = []
    obs_payloads: List[Any] = []
    events = hub.sim.events_processed
    for worker in workers:
        final = worker.finalise()
        for index, row in final["rows"]:
            rows[index] = row
        errors.extend(final["errors"])
        obs_payloads.append(final.get("obs"))
        events += final["events"]
    if errors:
        errors.sort(key=lambda item: item[0])
        raise errors[0][1]
    if hub.obs is not None:
        # Fold every shard's telemetry into the hub observer in shard
        # order: trace records append (exports renumber canonically),
        # counters/histograms add, gauges join, timelines merge
        # window-wise — the result is the serial run's telemetry.
        for payload in obs_payloads:
            if payload is None:
                continue
            hub.obs.tracer.absorb(payload["records"])
            hub.obs.metrics.merge_state(payload["metrics"])
            hub.obs.timelines.merge_snapshot(payload["timelines"])
        obs_sess.observabilities.append(hub.obs)
    point = FleetPointResult(
        clients=[rows[i] for i in sorted(rows)],
        servers=hub.server_rows(),
        events_processed=events,
    )
    return ShardedFleetOutcome(
        point=point,
        servers=hub.servers,
        schedules=hub.schedules,
        observability=hub.obs,
    )
