"""Conservative window synchronisation across shard worlds.

The parent process owns the hub world (switch + servers) and drives one
worker per client shard.  Time advances in lookahead windows:

1. compute ``m`` — the earliest event anywhere (worker heap heads, the
   hub's heap head, undelivered boundary frames) — and open the window
   ``[.., m + W)`` where ``W`` is the minimum client link latency;
2. tell every worker that has work before the new horizon — inbound
   boundary frames, or its own next event — to simulate up to it,
   handing it those frames.  An idle worker is not stepped: its reply
   is already known (an empty outbox, the same next event and done
   flag), and its clock simply catches up in the next window it runs;
3. while the workers run, simulate the hub up to the *previous*
   horizon (the hub lags one window so that when the last client
   finishes, the hub has not yet run past the completion time);
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

import multiprocessing
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ...errors import ConfigError, SimulationError
from ...topology.fleet import FleetJobSpec, FleetPointResult
from .plan import FleetFaults, ShardPlan, build_plan
from .worlds import ClientShardWorld, HubWorld

__all__ = ["run_sharded_fleet", "ShardedFleetOutcome"]

#: Seconds a process worker may take to answer one command (build its
#: world and run a window, or finalise) before it counts as hung.
WORKER_REPLY_DEADLINE_S = 300.0


class InlineWorker:
    """Same-process worker: no pickling, for tests and debugging."""

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

    def close(self) -> None:
        pass


def _worker_main(conn, plan, shard_id, faults, sanitize_config, obs_config) -> None:
    """Child-process loop: build the shard world, serve window commands."""
    from ...analysis.sanitize.runtime import sanitized

    guard = sanitized(sanitize_config) if sanitize_config is not None else nullcontext()
    try:
        with guard:
            world = ClientShardWorld(plan, shard_id, faults, obs_config)
            while True:
                cmd = conn.recv()
                if cmd[0] == "w":
                    conn.send(("ok", world.run_window(cmd[1], cmd[2])))
                elif cmd[0] == "f":
                    conn.send(("ok", world.finalise()))
                else:  # "q"
                    return
    except EOFError:
        return
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass


class ProcessWorker:
    """One shard in its own OS process, spoken to over a pipe."""

    def __init__(
        self,
        plan: ShardPlan,
        shard_id: int,
        faults: FleetFaults,
        sanitize_config,
        obs_config=None,
    ):
        parent_conn, child_conn = multiprocessing.Pipe()
        self.shard_id = shard_id
        self.process = multiprocessing.Process(
            target=_worker_main,
            args=(child_conn, plan, shard_id, faults, sanitize_config, obs_config),
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn

    def send_window(self, end: int, messages) -> None:
        self.conn.send(("w", end, messages))

    def _recv(self) -> Dict[str, Any]:
        # A dead worker closes its pipe (EOF); a hung one would block
        # recv() forever, so wait against a progress deadline first.
        if not self.conn.poll(WORKER_REPLY_DEADLINE_S):
            self.process.terminate()
            self.process.join(timeout=10)
            raise ConfigError(
                f"shard {self.shard_id} worker sent no reply within "
                f"{WORKER_REPLY_DEADLINE_S:g} s; terminated it"
            )
        try:
            reply = self.conn.recv()
        except EOFError:
            raise ConfigError(
                f"shard {self.shard_id} worker died without a reply"
            ) from None
        if reply[0] == "error":
            raise ConfigError(
                f"shard {self.shard_id} worker failed:\n{reply[1]}"
            )
        return reply[1]

    def recv_window(self) -> Dict[str, Any]:
        return self._recv()

    def finalise(self) -> Dict[str, Any]:
        self.conn.send(("f",))
        return self._recv()

    def close(self) -> None:
        try:
            self.conn.send(("q",))
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=10)
        if self.process.is_alive():  # pragma: no cover - hard kill path
            self.process.terminate()
        self.conn.close()


@dataclass
class ShardedFleetOutcome:
    """A sharded run's reduced point plus the live hub-side state.

    The hub's server objects and switch stay in the parent process, so
    callers (the CLI's invariant checks) can inspect durable file state
    and port accounting exactly as they would after a serial run.
    """

    point: FleetPointResult
    servers: List[Any]
    switch: Any
    schedules: List[Any] = field(default_factory=list)
    findings: List[Any] = field(default_factory=list)
    #: The merged fleet-wide observer (None when run unobserved).
    observability: Any = None


class _ShippedFindings:
    """Duck-typed harness carrying findings audited in a worker."""

    def __init__(self, findings):
        self._findings = list(findings)

    def audit(self):
        return list(self._findings)


def run_sharded_fleet(
    spec: FleetJobSpec,
    shards: int,
    transport: str = "process",
    faults: Optional[FleetFaults] = None,
) -> ShardedFleetOutcome:
    """Run one fleet point across ``shards`` parallel shard worlds.

    ``transport`` is ``"process"`` (one OS process per client shard) or
    ``"inline"`` (every shard stepped in this process — same engine,
    same window schedule, no parallelism; used by the equivalence
    tests).  The result must be bit-identical to ``run_fleet_job(spec)``
    up to :meth:`FleetPointResult.run_fingerprint`.
    """
    if transport not in ("process", "inline"):
        raise ConfigError(f"unknown shard transport {transport!r}")
    from ...obs.core import active_session as obs_session

    obs_sess = obs_session()
    obs_config = (
        (obs_sess.capacity, obs_sess.window_ns) if obs_sess is not None else None
    )
    plan = build_plan(spec, shards)
    faults = faults or FleetFaults()
    shard_faults, hub_faults = faults.split(plan)

    from ...analysis.sanitize.runtime import active_session

    session = active_session()
    hub = HubWorld(plan, hub_faults, obs_config)
    if transport == "inline":
        workers: List[Any] = [
            InlineWorker(plan, s, shard_faults[s], obs_config)
            for s in range(plan.nshards)
        ]
    else:
        config = session.config if session is not None else None
        workers = [
            ProcessWorker(plan, s, shard_faults[s], config, obs_config)
            for s in range(plan.nshards)
        ]
    try:
        return _drive(spec, plan, hub, workers, session, transport)
    finally:
        for worker in workers:
            worker.close()


def _drive(spec, plan, hub, workers, session, transport) -> ShardedFleetOutcome:
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
        # The hub lags one window: while the workers simulate
        # [prev_horizon, horizon), it catches up to prev_horizon.
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
    findings: List[Any] = []
    obs_payloads: List[Any] = []
    events = hub.sim.events_processed
    for worker in workers:
        final = worker.finalise()
        for index, row in final["rows"]:
            rows[index] = row
        errors.extend(final["errors"])
        findings.extend(final["findings"])
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
        from ...obs.core import active_session as obs_session

        obs_sess = obs_session()
        if obs_sess is not None:
            obs_sess.observabilities.append(hub.obs)
    if session is not None and transport == "process":
        # Worker-side sanitizer findings were audited in the child;
        # graft them into the caller's ambient session so its grouped
        # report sees the whole fleet.
        session.harnesses.append(_ShippedFindings(findings))
    point = FleetPointResult(
        clients=[rows[i] for i in sorted(rows)],
        servers=hub.server_rows(),
        events_processed=events,
    )
    return ShardedFleetOutcome(
        point=point,
        servers=hub.servers,
        switch=hub.switch,
        schedules=hub.schedules,
        findings=findings,
        observability=hub.obs,
    )
