"""Fleet workloads: N concurrent clients on one Topology.

:class:`FleetWorkload` runs every client of a topology through a
registered :class:`~repro.bench.workloads.Workload` *simultaneously* —
the paper's sequential writer by default, any registry entry (including
the open-loop traffic driver of :mod:`repro.traffic`) by name —
optionally with staggered starts and per-client write sizes — and
reduces the outcome to per-client and aggregate figures: individual
throughput and p99 write latency, aggregate throughput over the
contended window, Jain's fairness index across clients, and the
servers' per-source ingest shares plus output-port queueing.

The sweep-facing half mirrors :mod:`repro.parallel.executor`:
:class:`FleetJobSpec` is a picklable value object describing one fleet
point, :func:`run_fleet_job` materialises and runs it, and
:class:`FleetPointResult` survives pickling and the JSON result cache.
Importing this module registers the pair with the executor, so
``SweepExecutor.map`` fans fleet points out over processes — and caches
them — exactly like single-client points.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.stats import jain_index
from ..bench.bonnie import BenchmarkResult
from ..cache import fingerprint
from ..errors import ConfigError
from ..sim import all_done
from ..units import throughput, to_mbps, to_us
from .build import Topology
from .spec import ClientSpec, ServerSpec, SwitchSpec

__all__ = [
    "FleetWorkload",
    "FleetClientResult",
    "FleetResult",
    "FleetJobSpec",
    "FleetPointResult",
    "fleet_client_body",
    "fleet_workload_for",
    "client_row",
    "server_rows",
    "reduce_fleet",
    "run_fleet_job",
]


@dataclass
class FleetClientResult:
    """One client's run inside a fleet: absolute window + outcome.

    ``result`` is whatever the client's workload body returned — a
    :class:`BenchmarkResult` for the sequential writer, a
    :class:`~repro.bench.workloads.WorkloadOutcome` for everything
    else; the accessors below bridge the two shapes.
    """

    name: str
    #: Simulated time this client's workload actually began (after any
    #: staggered-start offset) and finished.
    start_ns: int
    end_ns: int
    result: Any

    @property
    def bytes_written(self) -> int:
        if isinstance(self.result, BenchmarkResult):
            return self.result.file_bytes
        return self.result.bytes_written

    @property
    def write_throughput(self) -> float:
        if isinstance(self.result, BenchmarkResult):
            return self.result.write_throughput
        return throughput(self.bytes_written, self.end_ns - self.start_ns)

    @property
    def write_mbps(self) -> float:
        return to_mbps(self.write_throughput)

    @property
    def close_mbps(self) -> float:
        if isinstance(self.result, BenchmarkResult):
            return self.result.close_mbps
        return self.write_mbps

    @property
    def p99_ns(self) -> int:
        return self.result.trace.percentile_ns(99)


@dataclass
class FleetResult:
    """Per-client results plus fleet-level fairness accounting."""

    clients: List[FleetClientResult]
    #: Simulator callbacks dispatched for the whole fleet run.
    events_processed: int
    #: Per-server accounting rows (name, bytes, shares, port queueing),
    #: in server order.
    servers: List[Dict[str, Any]] = field(default_factory=list)
    #: Per-client reduced rows in client order, built by each client's
    #: workload (``None`` for hand-assembled legacy results — the
    #: reducer falls back to the sequential-write row shape).
    rows: Optional[List[Dict[str, Any]]] = None

    @property
    def total_bytes(self) -> int:
        return sum(c.bytes_written for c in self.clients)

    @property
    def span_ns(self) -> int:
        """First benchmark start to last benchmark finish."""
        if not self.clients:
            return 0
        return max(c.end_ns for c in self.clients) - min(
            c.start_ns for c in self.clients
        )

    @property
    def aggregate_bytes_per_sec(self) -> float:
        """Fleet throughput over the whole contended window."""
        return throughput(self.total_bytes, self.span_ns)

    @property
    def aggregate_mbps(self) -> float:
        return to_mbps(self.aggregate_bytes_per_sec)

    @property
    def fairness(self) -> float:
        """Jain's index over per-client write throughput."""
        return jain_index([c.write_throughput for c in self.clients])

    def summary(self) -> str:
        return (
            f"{len(self.clients)} client(s): aggregate "
            f"{self.aggregate_mbps:.1f} MBps, Jain {self.fairness:.3f}"
        )


class FleetWorkload:
    """N concurrent workload bodies, one per topology client.

    The default is the paper's sequential writer (``file_bytes``/
    ``chunk_bytes``/``do_fsync``); ``workload=(name, params)`` swaps in
    any registered :class:`~repro.bench.workloads.Workload`, and
    ``arrivals=ArrivalSpec(...)`` runs every client open-loop through
    the ``"open-loop"`` driver on ``seed``-keyed streams.

    ``stagger_ns`` adds ``index * stagger_ns`` to each client's start
    on top of its spec's own ``start_offset_ns``; a client spec's
    ``chunk_bytes`` (when non-zero) overrides the fleet-wide chunk size,
    giving mixed-write-size fleets.
    """

    def __init__(
        self,
        topology: Topology,
        file_bytes: int = 0,
        chunk_bytes: int = 8192,
        do_fsync: bool = True,
        stagger_ns: int = 0,
        workload: Optional[Tuple[str, Any]] = None,
        arrivals: Any = None,
        seed: int = 1,
    ):
        if workload is None and arrivals is None and file_bytes <= 0:
            raise ConfigError("file_bytes must be positive")
        if stagger_ns < 0:
            raise ConfigError("stagger_ns must be >= 0")
        self.topology = topology
        self.file_bytes = file_bytes
        self.chunk_bytes = chunk_bytes
        self.do_fsync = do_fsync
        self.stagger_ns = stagger_ns
        self.workload = workload
        self.arrivals = arrivals
        self.seed = seed

    def _workload_for(self, stack):
        from ..bench.workloads import get_workload

        if self.arrivals is not None:
            return get_workload(
                "open-loop", {"arrivals": self.arrivals, "seed": self.seed}
            )
        if self.workload is not None:
            name, params = self.workload
            return get_workload(name, dict(params))
        return get_workload(
            "sequential-write",
            {
                "file_bytes": self.file_bytes,
                "chunk_bytes": stack.spec.chunk_bytes or self.chunk_bytes,
                "do_fsync": self.do_fsync,
            },
        )

    def run(self, time_limit_ns: Optional[int] = None) -> FleetResult:
        """Run every client to completion (blocking); returns the fleet."""
        from ..bench.workloads import client_workload_body

        topo = self.topology
        sim = topo.sim
        tasks = []
        workloads = []
        for stack in topo.clients:
            offset = stack.spec.start_offset_ns + stack.index * self.stagger_ns
            workload = self._workload_for(stack)
            workloads.append(workload)
            tasks.append(
                sim.spawn(
                    client_workload_body(stack, workload, offset),
                    name=f"benchmark-{stack.name}",
                    daemon=True,
                )
            )
        sim.run_until(all_done(tasks), limit=time_limit_ns)
        stragglers = [
            stack.name for stack, t in zip(topo.clients, tasks) if not t.done
        ]
        if stragglers:
            raise ConfigError(
                f"fleet benchmark did not finish on {', '.join(stragglers)}; "
                "simulation wedged?"
            )
        for task in tasks:
            if task.error is not None:
                raise task.error
        for stack in topo.clients:
            if stack.profiler is not None:
                stack.profiler.stop()
        clients = [
            FleetClientResult(stack.name, *task.result)
            for stack, task in zip(topo.clients, tasks)
        ]
        rows = [
            workload.row(stack.name, *task.result)
            for stack, workload, task in zip(topo.clients, workloads, tasks)
        ]
        return FleetResult(
            clients=clients,
            events_processed=sim.events_processed,
            servers=_server_rows(topo),
            rows=rows,
        )


def fleet_workload_for(spec: "FleetJobSpec", stack):
    """The Workload instance one client of a :class:`FleetJobSpec` runs.

    Module-level and spec-driven so shard workers instantiate exactly
    what the serial fleet instantiates; the per-stack ``chunk_bytes``
    override only applies to the default sequential writer, as it
    always has.
    """
    from ..bench.workloads import get_workload

    if spec.arrivals is not None:
        return get_workload(
            "open-loop", {"arrivals": spec.arrivals, "seed": spec.seed}
        )
    if spec.workload is not None:
        name, params = spec.workload
        return get_workload(name, dict(params))
    return get_workload(
        "sequential-write",
        {
            "file_bytes": spec.file_bytes,
            "chunk_bytes": stack.spec.chunk_bytes or spec.chunk_bytes,
            "do_fsync": spec.do_fsync,
        },
    )


def fleet_client_body(stack, offset_ns: int, chunk_bytes: int, file_bytes: int, do_fsync: bool):
    """Deprecated: the pre-registry fleet writer signature.

    Kept as a bit-identical shim over the registered sequential-write
    workload; new code should go through the registry
    (:func:`repro.bench.workloads.get_workload` +
    :func:`repro.bench.workloads.client_workload_body`).
    """
    from ..bench.workloads import client_workload_body, get_workload

    workload = get_workload(
        "sequential-write",
        {
            "file_bytes": file_bytes,
            "chunk_bytes": chunk_bytes,
            "do_fsync": do_fsync,
        },
    )
    return client_workload_body(stack, workload, offset_ns)


def server_rows(servers, switch) -> List[Dict[str, Any]]:
    """Per-server accounting rows from live server objects + switch."""
    rows: List[Dict[str, Any]] = []
    for server in servers:
        if server is None:
            continue
        downlink = switch.port(server.name).downlink
        rows.append(
            {
                "name": server.name,
                "bytes_received": server.bytes_received,
                "writes_handled": server.writes_handled,
                "commits_handled": server.commits_handled,
                "ingest_shares": server.ingest_shares(),
                "downlink_queue_ns": downlink.total_queue_ns,
                "downlink_peak_queue_ns": downlink.peak_queue_ns,
            }
        )
    return rows


def _server_rows(topo: Topology) -> List[Dict[str, Any]]:
    return server_rows(topo.servers, topo.switch)


# -- sweep integration --------------------------------------------------------


@dataclass(frozen=True)
class FleetJobSpec:
    """One fleet sweep point, expressed entirely as picklable specs.

    ``workload`` (a ``(name, ((key, value), ...))`` pair) swaps the
    default sequential writer for any registered workload; ``arrivals``
    (an :class:`~repro.traffic.spec.ArrivalSpec` or its dict form)
    runs every client open-loop, with ``seed`` keying the per-client
    arrival/size/mix streams.  Both ride the cache fingerprint like any
    other spec field.
    """

    clients: Sequence[ClientSpec]
    servers: Sequence[ServerSpec] = (ServerSpec(),)
    switch: SwitchSpec = SwitchSpec()
    file_bytes: int = 1 << 20
    chunk_bytes: int = 8192
    do_fsync: bool = True
    stagger_ns: int = 0
    time_limit_ns: Optional[int] = None
    workload: Optional[Tuple[str, Tuple[Tuple[str, Any], ...]]] = None
    arrivals: Any = None
    seed: int = 1

    def __post_init__(self):
        if self.workload is not None and self.arrivals is not None:
            raise ConfigError("give either workload or arrivals, not both")
        if self.workload is not None:
            name, params = self.workload
            if isinstance(params, dict):
                params = tuple(sorted(params.items()))
            object.__setattr__(self, "workload", (name, tuple(params)))
        if isinstance(self.arrivals, dict):
            from ..traffic.spec import ArrivalSpec

            object.__setattr__(
                self, "arrivals", ArrivalSpec.from_dict(self.arrivals)
            )

    @staticmethod
    def homogeneous(
        count: int,
        target: str = "netapp",
        client: Union[str, Any] = "stock",
        file_bytes: int = 1 << 20,
        **kwargs: Any,
    ) -> "FleetJobSpec":
        """``count`` identical clients against one default server."""
        return FleetJobSpec(
            clients=ClientSpec(client=client).replicate(count),
            servers=(ServerSpec(kind=target),),
            file_bytes=file_bytes,
            **kwargs,
        )

    def fingerprint(self, version: Optional[str] = None) -> str:
        return fingerprint(self, version=version)


@dataclass
class FleetPointResult:
    """The reduced outcome of one :class:`FleetJobSpec`.

    Carries per-client timing triples, p99s, and a checksum of each
    latency trace (not the full series — a 32-client point would drag
    hundreds of thousands of integers through the cache), plus the
    fleet aggregates and per-server fairness rows.
    """

    clients: List[Dict[str, Any]]
    servers: List[Dict[str, Any]]
    events_processed: int

    PAYLOAD_KIND = "fleet"

    @property
    def count(self) -> int:
        return len(self.clients)

    @property
    def total_bytes(self) -> int:
        return sum(c["file_bytes"] for c in self.clients)

    @property
    def span_ns(self) -> int:
        if not self.clients:
            return 0
        return max(c["end_ns"] for c in self.clients) - min(
            c["start_ns"] for c in self.clients
        )

    @property
    def aggregate_bytes_per_sec(self) -> float:
        return throughput(self.total_bytes, self.span_ns)

    @property
    def aggregate_mbps(self) -> float:
        return to_mbps(self.aggregate_bytes_per_sec)

    @property
    def fairness(self) -> float:
        return jain_index(
            [
                throughput(c["file_bytes"], c["write_elapsed_ns"])
                for c in self.clients
            ]
        )

    def client_mbps(self) -> List[float]:
        return [
            to_mbps(throughput(c["file_bytes"], c["write_elapsed_ns"]))
            for c in self.clients
        ]

    def client_p99_us(self) -> List[float]:
        return [to_us(c["p99_ns"]) for c in self.clients]

    def to_payload(self) -> Dict[str, Any]:
        return {
            "__kind__": self.PAYLOAD_KIND,
            "clients": self.clients,
            "servers": self.servers,
            "events_processed": self.events_processed,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "FleetPointResult":
        return cls(
            clients=payload["clients"],
            servers=payload["servers"],
            events_processed=payload["events_processed"],
        )

    def run_fingerprint(self) -> str:
        """Content hash of the whole *simulated* outcome — two runs of
        the same spec must produce the same digest (the determinism
        contract).

        ``events_processed`` is excluded: it counts engine dispatches,
        not simulated behaviour, and a sharded run's window bookkeeping
        legitimately dispatches a different number of callbacks while
        producing bit-identical timings, traces and server accounting.
        """
        payload = self.to_payload()
        payload.pop("events_processed", None)
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _trace_sha(result: BenchmarkResult) -> str:
    blob = ",".join(str(v) for v in result.trace.latencies_ns)
    return hashlib.sha256(blob.encode()).hexdigest()


def client_row(name: str, start_ns: int, end_ns: int, result: BenchmarkResult) -> Dict[str, Any]:
    """One client's reduced row — shard workers build these locally so
    the full latency trace never crosses the process boundary."""
    return {
        "name": name,
        "file_bytes": result.file_bytes,
        "chunk_bytes": result.chunk_bytes,
        "start_ns": start_ns,
        "end_ns": end_ns,
        "write_elapsed_ns": result.write_elapsed_ns,
        "flush_elapsed_ns": result.flush_elapsed_ns,
        "close_elapsed_ns": result.close_elapsed_ns,
        "p99_ns": result.trace.percentile_ns(99),
        "calls": len(result.trace),
        "trace_sha": _trace_sha(result),
    }


def reduce_fleet(fleet: FleetResult) -> FleetPointResult:
    """Reduce a live :class:`FleetResult` to its cacheable point form."""
    if fleet.rows is not None:
        clients = fleet.rows
    else:
        clients = [
            client_row(c.name, c.start_ns, c.end_ns, c.result)
            for c in fleet.clients
        ]
    return FleetPointResult(
        clients=clients,
        servers=fleet.servers,
        events_processed=fleet.events_processed,
    )


def run_fleet_job(
    spec: FleetJobSpec, shards: int = 1, transport: str = "process"
) -> FleetPointResult:
    """Build one pristine topology, run the fleet, reduce the result.

    Module-level so process-pool workers can unpickle a reference to it.
    ``shards`` is an *execution* argument, deliberately not part of the
    spec: a sharded run must reduce to the same point (and the same
    :meth:`FleetPointResult.run_fingerprint`) as ``shards=1``, so it
    must not perturb the spec's cache fingerprint either.
    """
    if shards > 1:
        from ..parallel.des import run_sharded_fleet

        return run_sharded_fleet(spec, shards=shards, transport=transport).point
    topo = Topology(
        clients=spec.clients, servers=spec.servers, switch=spec.switch
    )
    workload = FleetWorkload(
        topo,
        spec.file_bytes,
        chunk_bytes=spec.chunk_bytes,
        do_fsync=spec.do_fsync,
        stagger_ns=spec.stagger_ns,
        workload=spec.workload,
        arrivals=spec.arrivals,
        seed=spec.seed,
    )
    return reduce_fleet(workload.run(time_limit_ns=spec.time_limit_ns))


# Register with the sweep executor: FleetJobSpec points fan out and
# cache exactly like single-client JobSpecs.
from ..parallel.executor import register_job_type  # noqa: E402

register_job_type(
    FleetJobSpec,
    run_fleet_job,
    FleetPointResult.PAYLOAD_KIND,
    FleetPointResult.from_payload,
)
