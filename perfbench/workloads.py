"""The benchmark's four workloads: set-up, one pass, and its checks.

Every workload is a batch job: one simulation at a time, in one
process.  ``prepare`` does the set-up (specs, worlds where the public
API lets them be built ahead of the run, the cache's code-version
token) and returns a ``run`` closure: the measured pass.  ``check`` audits the finished pass; each check is a
``(name, ok, detail, failed_ops)`` row, where ``failed_ops`` is how many
of the pass's operations the failure takes down.

Simulated results are deterministic, so the fingerprint of a pass at
the default seed is pinned in ``pins.json`` and compared exactly.  Only
``open-loop`` draws from the seed; any other seed gets the structural
checks alone (the held-out path).
"""

from __future__ import annotations

import hashlib
import json
import os
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bench.runner import TestBed
from repro.cache import ResultCache, code_version_token
from repro.chaos.checks import CheckContext, CHECKS
from repro.parallel.des import engine as des_engine
from repro.parallel.executor import SweepExecutor
from repro.topology import FleetJobSpec, FleetWorkload, Topology
from repro.topology.fleet import reduce_fleet
from repro.traffic.spec import ArrivalSpec, MixEntry, SizeSpec
from repro.units import KIB, MB, ms

#: The seed the pins were taken at, and the one kept out of shape-picking.
DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017

#: seq-write must reproduce the paper's headline: nolock >= 3x stock.
MIN_IMPROVEMENT = 3.0

SIZES: Dict[str, Dict[str, Any]] = {
    "full": {
        "seq_bytes": 30 * MB,
        "fleet_clients": 32,
        "fleet_file_bytes": 1024 * KIB,
        "shards": 4,
        "open_clients": 4,
        "open_sessions": 60,
    },
    # Seconds-long smoke size for the benchmark's own tests.
    "tiny": {
        "seq_bytes": 2 * MB,
        "fleet_clients": 4,
        "fleet_file_bytes": 128 * KIB,
        "shards": 2,
        "open_clients": 2,
        "open_sessions": 6,
    },
}

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")

Check = Tuple[str, bool, str, int]


def load_pins() -> Dict[str, str]:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _digest(payload: Any) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class Outcome:
    """What one pass produced, for the checks and the fingerprint."""

    def __init__(self, fingerprint: str, ops: int, events: int, **facts: Any):
        self.fingerprint = fingerprint
        self.ops = ops
        self.events = events
        self.facts = facts


#: A set-up workload: calling it runs the measured pass.
Run = Callable[[], Outcome]


def _pin_check(name: str, outcome: Outcome, size: str, seed: int, pin_key: str) -> List[Check]:
    """Exact fingerprint at the default seed and full size; none elsewhere."""
    if size != "full" or (name == "open-loop" and seed != DEFAULT_SEED):
        return []
    pinned = load_pins().get(pin_key)
    ok = pinned == outcome.fingerprint
    return [(
        "pinned-fingerprint", ok,
        f"{outcome.fingerprint[:16]} != pinned {str(pinned)[:16]}", outcome.ops,
    )]


def _invariants(rows, per_row_failures: Callable[[Any], int]) -> List[Check]:
    return [(r.name, r.ok, r.detail, 0 if r.ok else per_row_failures(r)) for r in rows]


# -- seq-write ----------------------------------------------------------------


def prepare_seq_write(size: str, seed: int, workdir: str) -> Run:
    """The paper's headline: one client, 30 MB to the filer, stock then nolock."""
    file_bytes = SIZES[size]["seq_bytes"]
    beds = {variant: TestBed(target="netapp", client=variant) for variant in ("stock", "nolock")}

    def run() -> Outcome:
        results = {v: bed.run_sequential_write(file_bytes) for v, bed in beds.items()}
        rows = {}
        for variant, result in results.items():
            files = beds[variant].server.files.values()
            rows[variant] = {
                "file_bytes": result.file_bytes,
                "write_elapsed_ns": result.write_elapsed_ns,
                "flush_elapsed_ns": result.flush_elapsed_ns,
                "close_elapsed_ns": result.close_elapsed_ns,
                "trace_sha": _digest(result.trace.latencies_ns),
                "server_files": sorted((f.name, f.size, f.stable_bytes) for f in files),
            }
        return Outcome(
            _digest(rows), ops=len(beds),
            events=sum(bed.sim.events_processed for bed in beds.values()),
            rows=rows, file_bytes=file_bytes,
            mbps={v: r.write_mbps for v, r in results.items()},
        )

    return run


def check_seq_write(outcome: Outcome, size: str, seed: int) -> List[Check]:
    checks: List[Check] = []
    for variant, row in outcome.facts["rows"].items():
        durable = row["server_files"] == [
            ("testfile", outcome.facts["file_bytes"], outcome.facts["file_bytes"])
        ]
        checks.append((
            f"file-complete-durable[{variant}]", durable,
            f"server files {row['server_files']}", 1,
        ))
    mbps = outcome.facts["mbps"]
    ratio = mbps["nolock"] / mbps["stock"] if mbps["stock"] else 0.0
    if size == "full":
        checks.append((
            "nolock-improvement", ratio >= MIN_IMPROVEMENT,
            f"stock {mbps['stock']:.1f} -> nolock {mbps['nolock']:.1f} MBps "
            f"is {ratio:.2f}x < {MIN_IMPROVEMENT}x", outcome.ops,
        ))
    return checks + _pin_check("seq-write", outcome, size, seed, "seq-write")


# -- fleet (serial, through the sweep executor and its cache) -------------------


def _fleet_spec(size: str) -> FleetJobSpec:
    shape = SIZES[size]
    return FleetJobSpec.homogeneous(
        shape["fleet_clients"], target="netapp", file_bytes=shape["fleet_file_bytes"]
    )


def prepare_fleet(size: str, seed: int, workdir: str) -> Run:
    """32 closed-loop clients, computed like ``repro-nfs run fleet``:
    ``SweepExecutor(jobs=1)`` on a fresh result cache, then replayed warm."""
    spec = _fleet_spec(size)
    cache = ResultCache(os.path.join(workdir, "cache"))
    executor = SweepExecutor(jobs=1, cache=cache)
    code_version_token()

    def run() -> Outcome:
        (cold,) = executor.map([spec])
        cold_misses, cold_hits = cache.misses, cache.hits
        (warm,) = executor.map([spec])
        return Outcome(
            cold.run_fingerprint(), ops=len(spec.clients) + 1,
            events=cold.events_processed, point=cold, spec=spec,
            replay_equal=cold.to_payload() == warm.to_payload(),
            cold=(cold_misses, cold_hits),
            warm=(cache.misses - cold_misses, cache.hits - cold_hits),
        )

    return run


def _client_file_checks(point, spec) -> List[Check]:
    short = [c["name"] for c in point.clients if c["file_bytes"] != spec.file_bytes]
    total = sum(row["bytes_received"] for row in point.servers)
    want = len(spec.clients) * spec.file_bytes
    return [
        ("client-files-complete", not short, f"short clients: {short}", len(short)),
        ("server-ingest-exact", total == want, f"{total} bytes ingested, want {want}", 0 if total == want else len(spec.clients)),
    ]


def check_fleet(outcome: Outcome, size: str, seed: int) -> List[Check]:
    f = outcome.facts
    point, spec = f["point"], f["spec"]
    ctx = CheckContext(spec=None, payload={}, point=point)
    checks = _client_file_checks(point, spec)
    checks += _invariants(CHECKS["fleet-fair-share"](ctx, {}), lambda r: len(spec.clients))
    checks.append((
        "cache-replay", f["replay_equal"] and f["cold"] == (1, 0) and f["warm"] == (0, 1),
        f"cold (misses, hits) {f['cold']}, warm {f['warm']}, payload equal {f['replay_equal']}", 1,
    ))
    return checks + _pin_check("fleet", outcome, size, seed, "fleet-point")


# -- fleet-sharded (same point, inline window-sync driver) ----------------------


def _fleet_ctx(spec: FleetJobSpec, servers, point) -> CheckContext:
    """A check context for chaos checks over a live fleet's servers."""
    stand_in = SimpleNamespace(
        bed=SimpleNamespace(clients=len(spec.clients)),
        workload=SimpleNamespace(file_bytes=spec.file_bytes),
    )
    return CheckContext(
        spec=stand_in, payload={}, topology=SimpleNamespace(servers=servers), point=point
    )


def prepare_fleet_sharded(size: str, seed: int, workdir: str) -> Run:
    """The fleet point through ``run_sharded_fleet(transport="inline")``."""
    spec = _fleet_spec(size)
    shards = SIZES[size]["shards"]

    def run() -> Outcome:
        result = des_engine.run_sharded_fleet(spec, shards=shards, transport="inline")
        return Outcome(
            result.point.run_fingerprint(), ops=len(spec.clients),
            events=result.point.events_processed, point=result.point,
            spec=spec, servers=result.servers,
        )

    return run


def check_fleet_sharded(outcome: Outcome, size: str, seed: int) -> List[Check]:
    f = outcome.facts
    point, spec = f["point"], f["spec"]
    ctx = _fleet_ctx(spec, f["servers"], point)
    clients = len(spec.clients)
    checks = _client_file_checks(point, spec)
    checks += _invariants(CHECKS["fleet-files-durable"](ctx, {}), lambda r: clients)
    checks += _invariants(CHECKS["within-ingest-envelope"](ctx, {}), lambda r: clients)
    checks += _invariants(CHECKS["fleet-fair-share"](ctx, {}), lambda r: clients)
    return checks + _pin_check("fleet-sharded", outcome, size, seed, "fleet-point")


# -- open-loop (knfsd, seeded MMPP sessions) -------------------------------------


def arrival_spec(size: str) -> ArrivalSpec:
    """MMPP bursts of four session kinds, capped per client.

    The cap is always reached, and each kind's parameters are set so a
    session costs about the same simulated work, so the seed moves the
    schedule and the mix but barely the amount of work.
    """
    return ArrivalSpec(
        process="mmpp",
        rate_per_s=40.0,
        burst_rate_per_s=400.0,
        mean_idle_ns=ms(20),
        mean_burst_ns=ms(10),
        duration_ns=ms(2000),
        sizes=SizeSpec(dist="fixed", bytes=224 * KIB),
        mix=(
            MixEntry("sequential-write", 1.0),
            MixEntry("database-fsync", 1.0, (("record_bytes", 4096), ("transactions", 30))),
            MixEntry("mail-spool", 1.0, (("concurrency", 2), ("messages", 6))),
            MixEntry("read-vs-write", 1.0, (("file_bytes", 128 * KIB),)),
        ),
        max_sessions=SIZES[size]["open_sessions"],
    )


def prepare_open_loop(size: str, seed: int, workdir: str) -> Run:
    """4 clients against knfsd: UNSTABLE writes, COMMIT, bdflush, reads."""
    spec = FleetJobSpec.homogeneous(
        SIZES[size]["open_clients"], target="linux", arrivals=arrival_spec(size), seed=seed
    )
    topo = Topology(clients=spec.clients, servers=spec.servers, switch=spec.switch)
    fleet = FleetWorkload(
        topo, spec.file_bytes, chunk_bytes=spec.chunk_bytes, do_fsync=spec.do_fsync,
        stagger_ns=spec.stagger_ns, workload=spec.workload, arrivals=spec.arrivals,
        seed=spec.seed,
    )

    def run() -> Outcome:
        point = reduce_fleet(fleet.run(time_limit_ns=spec.time_limit_ns))
        planned = sum(c["extra"]["sessions"] for c in point.clients)
        return Outcome(
            point.run_fingerprint(), ops=planned, events=point.events_processed,
            point=point, spec=spec, topology=topo,
            offered_bytes=sum(c["extra"]["offered_bytes"] for c in point.clients),
        )

    return run


def check_open_loop(outcome: Outcome, size: str, seed: int) -> List[Check]:
    f = outcome.facts
    point, topo = f["point"], f["topology"]
    ctx = CheckContext(spec=None, payload={}, topology=topo, point=point)
    completed = sum(c.get("ops", 0) for c in point.clients)
    checks = _invariants(
        CHECKS["open-loop-complete"](ctx, {}),
        lambda r: max(outcome.ops - completed, 1),
    )
    servers = [s for s in topo.servers if s is not None]
    commits = sum(s.commits_handled for s in servers)
    reads = sum(s.reads_handled for s in servers)
    checks.append(("commits-and-reads-served", commits > 0 and reads > 0,
                   f"{commits} COMMITs, {reads} READs", outcome.ops))
    return checks + _pin_check("open-loop", outcome, size, seed, f"open-loop@{DEFAULT_SEED}")


WORKLOADS: Dict[str, Tuple[Callable[..., Run], Callable[..., List[Check]]]] = {
    "seq-write": (prepare_seq_write, check_seq_write),
    "fleet": (prepare_fleet, check_fleet),
    "fleet-sharded": (prepare_fleet_sharded, check_fleet_sharded),
    "open-loop": (prepare_open_loop, check_open_loop),
}


def failed_ops(outcome: Optional[Outcome], checks: List[Check], ops: int) -> int:
    """Operations a pass lost: every op if it raised, else the worst check."""
    if outcome is None:
        return ops
    return min(ops, sum(n for _name, ok, _detail, n in checks if not ok))
