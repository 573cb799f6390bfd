"""Outside-in per-layer tracing of the simulator's host time.

The traced pass wraps public functions of every simulator layer from
here, the benchmark's side; nothing under ``src/`` knows it is being
measured.  Each wrapped call is timed on the host clock and charged to
its layer as *self* time: time inside the call minus time inside
nested wrapped calls.  Generator functions (the simulated tasks' call
chains) get a step-timing proxy that forwards ``send``/``throw``/
``close``, so every resumption of a simulated call is charged to the
layer that owns the generator.

Coarse calls (syscalls, run loops, the fleet driver, the sweep
executor, cache reads and writes, session planning) also record a span
``(name, start, end, parent, pass)`` kept in memory and written out at
the end.  Per-event calls are only aggregated, so memory stays bounded.

Targets are resolved before the first pass and every missing one is an
error: a renamed function must break the benchmark, not read zero.
:meth:`Tracer.unwrap` restores the original class and module
attributes and checks that they are back, so untraced passes in the
same process run pristine code.
"""

from __future__ import annotations

import importlib
import inspect
import pickle
import time
import types
from typing import Any, Callable, Dict, List, Optional, Tuple

perf = time.perf_counter

# Target flags.
SPAN = "span"          # record a span per call
CAPTURE = "capture"    # __init__: remember the instance for stats reads
PREDICATE = "predicate"  # run_until: time the fleet driver's predicate
WINDOW = "window"      # shard/hub run_window: boundary frames and bytes
COUNT_RESULT = "count-result"  # add len(result) to "<name>.items"
HIT = "hit"            # cache get: count non-None results as hits

#: Every wrapped function: ``module:Qualname`` -> (layer, flags).
#: Layers are the per-layer metric prefixes; ``des.*`` splits the
#: sharded run into its driver, hub and shard worlds.
TARGETS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    # sim: the event loop, task stepping, CPU slots, locks.
    "repro.sim.core:Simulator.__init__": ("sim", (CAPTURE,)),
    "repro.sim.core:Simulator.run": ("sim", (SPAN,)),
    "repro.sim.core:Simulator.run_until": ("sim", (SPAN, PREDICATE)),
    "repro.sim.core:Simulator.run_window": ("sim", ()),
    "repro.sim.task:Task._step": ("sim", ()),
    "repro.sim.cpu:CpuSet.execute": ("sim.cpu", ()),
    "repro.sim.cpu:CpuSet._complete": ("sim.cpu", ()),
    "repro.sim.sync:Lock.acquire": ("sim.sync", ()),
    "repro.sim.sync:Lock.release": ("sim.sync", ()),
    "repro.sim.sync:MonitoredLock.acquire": ("sim.sync", ()),
    "repro.sim.sync:MonitoredLock.release": ("sim.sync", ()),
    "repro.sim.sync:Event.trigger": ("sim.sync", ()),
    "repro.sim.sync:WaitQueue.sleep": ("sim.sync", ()),
    "repro.sim.sync:WaitQueue.wake_one": ("sim.sync", ()),
    "repro.sim.sync:WaitQueue.wake_all": ("sim.sync", ()),
    # kernel: syscalls, page cache, BKL.
    "repro.kernel.syscalls:SyscallLayer.__init__": ("kernel", (CAPTURE,)),
    "repro.kernel.syscalls:SyscallLayer.write": ("kernel", (SPAN,)),
    "repro.kernel.syscalls:SyscallLayer.read": ("kernel", (SPAN,)),
    "repro.kernel.syscalls:SyscallLayer.fsync": ("kernel", (SPAN,)),
    "repro.kernel.syscalls:SyscallLayer.close": ("kernel", (SPAN,)),
    "repro.kernel.pagecache:PageCache.__init__": ("kernel", (CAPTURE,)),
    "repro.kernel.pagecache:PageCache.charge": ("kernel", ()),
    "repro.kernel.pagecache:PageCache.uncharge": ("kernel", ()),
    "repro.kernel.bkl:BigKernelLock.__init__": ("kernel", (CAPTURE,)),
    "repro.kernel.bkl:BigKernelLock.break_all": ("kernel", ()),
    "repro.kernel.bkl:BigKernelLock.reacquire": ("kernel", ()),
    # nfsclient: the write path and the request index.
    "repro.nfsclient.client:NfsClient.__init__": ("nfsclient", (CAPTURE,)),
    "repro.nfsclient.client:NfsClient.submit_write": ("nfsclient", ()),
    "repro.nfsclient.client:NfsClient.fetch_pages": ("nfsclient", ()),
    "repro.nfsclient.client:NfsClient.commit_inode": ("nfsclient", ()),
    "repro.nfsclient.client:NfsClient.flush_writes": ("nfsclient", ()),
    "repro.nfsclient.client:NfsClient.flush_inode": ("nfsclient", ()),
    "repro.nfsclient.writepath:WritePath.nfs_updatepage": ("nfsclient", ()),
    "repro.nfsclient.writepath:WritePath.nfs_strategy": ("nfsclient", ()),
    "repro.nfsclient.writepath:WritePath.schedule_all": ("nfsclient", ()),
    "repro.nfsclient.request_list:SortedListIndex.__init__": ("nfsclient.index", (CAPTURE,)),
    "repro.nfsclient.request_list:SortedListIndex.find": ("nfsclient.index", ()),
    "repro.nfsclient.request_list:SortedListIndex.insert": ("nfsclient.index", ()),
    "repro.nfsclient.request_list:SortedListIndex.remove": ("nfsclient.index", ()),
    "repro.nfsclient.request_hash:HashTableIndex.__init__": ("nfsclient.index", (CAPTURE,)),
    "repro.nfsclient.request_hash:HashTableIndex.find": ("nfsclient.index", ()),
    "repro.nfsclient.request_hash:HashTableIndex.insert": ("nfsclient.index", ()),
    "repro.nfsclient.request_hash:HashTableIndex.remove": ("nfsclient.index", ()),
    # rpc: the client transport.
    "repro.rpc.xprt:UdpTransport.__init__": ("rpc", (CAPTURE,)),
    "repro.rpc.xprt:UdpTransport.submit": ("rpc", ()),
    "repro.rpc.xprt:UdpTransport.call_and_wait": ("rpc", ()),
    "repro.rpc.xprt:UdpTransport._handle_reply": ("rpc", ()),
    "repro.rpc.xprt:UdpTransport._on_timeout": ("rpc", ()),
    "repro.rpc.xprt:UdpTransport._work_one": ("rpc", ()),
    # net: links, switch ports, UDP.
    "repro.net.link:Link.__init__": ("net", (CAPTURE,)),
    "repro.net.link:Link.send": ("net", ()),
    "repro.net.link:Link._deliver_head": ("net", ()),
    "repro.net.switch:Port.send_datagram": ("net", ()),
    "repro.net.switch:Port._arrive": ("net", ()),
    "repro.net.switch:Switch._forward": ("net", ()),
    "repro.net.udp:UdpSocket.sendto": ("net", ()),
    "repro.net.udp:UdpStack.deliver": ("net", ()),
    "repro.net.host:Host._rx_fragment": ("net", ()),
    # server: RPC dispatch and both server models.
    "repro.rpc.server:RpcServer._serve": ("server", ()),
    "repro.server.base:NfsServerBase.__init__": ("server", (CAPTURE,)),
    "repro.server.base:NfsServerBase.handle": ("server", ()),
    "repro.server.netapp:NetappFiler.store_write": ("server", ()),
    "repro.server.netapp:NetappFiler.do_commit": ("server", ()),
    "repro.server.linux_nfsd:LinuxNfsServer.store_write": ("server", ()),
    "repro.server.linux_nfsd:LinuxNfsServer.do_commit": ("server", ()),
    "repro.server.linux_nfsd:LinuxNfsServer._bdflush": ("server", ()),
    # topology: world construction and the fleet driver.
    "repro.topology.build:Topology.__init__": ("topology", (SPAN,)),
    "repro.topology.fleet:FleetWorkload.run": ("topology", (SPAN,)),
    # traffic: session planning and release.
    "repro.traffic.openloop:plan_sessions": ("traffic", (SPAN, COUNT_RESULT)),
    "repro.traffic.openloop:OpenLoopWorkload.body": ("traffic", ()),
    # parallel.des: window driver, hub world, shard worlds.
    "repro.parallel.des.engine:run_sharded_fleet": ("des.driver", (SPAN,)),
    "repro.parallel.des.engine:InlineWorker.send_window": ("des.driver", ()),
    "repro.parallel.des.engine:InlineWorker.recv_window": ("des.driver", ()),
    "repro.parallel.des.engine:InlineWorker.finalise": ("des.driver", ()),
    "repro.parallel.des.worlds:HubWorld.__init__": ("des.hub", (CAPTURE,)),
    "repro.parallel.des.worlds:HubWorld.run_window": ("des.hub", (WINDOW,)),
    "repro.parallel.des.worlds:HubWorld.drain": ("des.hub", ()),
    "repro.parallel.des.worlds:HubWorld.next_event_time": ("des.hub", ()),
    "repro.parallel.des.worlds:ClientShardWorld.__init__": ("des.shard", ()),
    "repro.parallel.des.worlds:ClientShardWorld.run_window": ("des.shard", (WINDOW,)),
    "repro.parallel.des.worlds:ClientShardWorld.finalise": ("des.shard", ()),
    # parallel.executor / cache: the sweep path.
    "repro.parallel.executor:SweepExecutor.map": ("executor", (SPAN,)),
    "repro.parallel.executor:run_job": ("executor", ()),
    "repro.cache:ResultCache.__init__": ("cache", (CAPTURE,)),
    "repro.cache:ResultCache.get": ("cache.load", (SPAN, HIT)),
    "repro.cache:ResultCache.put": ("cache.store", (SPAN,)),
}

#: The caller whose ``run_until`` predicate is the fleet driver's.
FLEET_DRIVER = "repro.topology.fleet:FleetWorkload.run"

#: Spans kept per traced pass; later spans are counted, not stored.
SPAN_CAP = 200_000


#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER_UNITS: Dict[str, str] = {
    "sim.events": "count",
    "sim.self_s": "s",
    "sim.cpu.self_s": "s",
    "sim.sync.self_s": "s",
    "sim.host_ns_per_event": "ns",
    "kernel.syscalls": "count",
    "kernel.self_s": "s",
    "kernel.eio": "count",
    "kernel.bkl.wait_ns": "ns",
    "kernel.pagecache.throttled_ns": "ns",
    "nfsclient.updatepages": "count",
    "nfsclient.index.nodes_visited": "count",
    "nfsclient.index.nodes_per_lookup": "count",
    "nfsclient.index.self_s": "s",
    "nfsclient.self_s": "s",
    "nfsclient.write_rpcs": "count",
    "nfsclient.commits": "count",
    "nfsclient.reads": "count",
    "nfsclient.hard_sleeps": "count",
    "rpc.calls": "count",
    "rpc.self_s": "s",
    "rpc.retransmits": "count",
    "rpc.inline_fraction": "ratio",
    "rpc.completed_ratio": "ratio",
    "net.frames": "count",
    "net.datagrams": "count",
    "net.self_s": "s",
    "net.queue_ns": "ns",
    "server.rpcs": "count",
    "server.ingest_bytes": "bytes",
    "server.self_s": "s",
    "topology.predicate_calls": "count",
    "topology.self_s": "s",
    "traffic.sessions": "count",
    "traffic.offered_bytes": "bytes",
    "traffic.self_s": "s",
    "des.windows": "count",
    "des.events_per_window": "count",
    "des.boundary_frames": "count",
    "des.boundary_bytes": "bytes",
    "des.hub_event_share": "ratio",
    "des.driver_self_s": "s",
    "des.hub_self_s": "s",
    "des.shard_self_s": "s",
    "cache.lookups": "count",
    "cache.hits": "count",
    "cache.hit_ratio": "ratio",
    "cache.store_s": "s",
    "cache.load_s": "s",
    "executor.self_s": "s",
    "trace.overhead_x": "x",
    "obs.overhead_x": "x",
    "sanitize.overhead_x": "x",
}


class WrapTargetError(RuntimeError):
    """A wrap target no longer exists where the benchmark expects it."""


class _Target:
    __slots__ = ("name", "owner", "attr", "original", "layer", "flags")

    def __init__(self, name, owner, attr, original, layer, flags):
        self.name = name
        self.owner = owner
        self.attr = attr
        self.original = original
        self.layer = layer
        self.flags = flags


def resolve_targets(table: Dict[str, Tuple[str, Tuple[str, ...]]] = TARGETS) -> List[_Target]:
    """Import and look up every target; raise naming every missing one.

    A method must be defined on the named class itself (not inherited),
    so the wrapper sits exactly where the table says it does.
    """
    targets = []
    missing = []
    for name, (layer, flags) in table.items():
        module_name, qualname = name.split(":")
        try:
            owner: Any = importlib.import_module(module_name)
        except ImportError as err:
            missing.append(f"{name} ({err})")
            continue
        parts = qualname.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                break
        attr = parts[-1]
        namespace = vars(owner) if owner is not None else {}
        original = namespace.get(attr)
        if original is None or not callable(original):
            missing.append(name)
            continue
        targets.append(_Target(name, owner, attr, original, layer, flags))
    if missing:
        raise WrapTargetError(
            "wrap targets not found (renamed or removed?): " + ", ".join(missing)
        )
    return targets


class _StepProxy:
    """Times every resumption of a wrapped generator.

    ``yield from`` and :class:`repro.sim.task.Task` drive it exactly like
    the generator it stands for: ``send``, ``throw`` and ``close`` are
    forwarded, and ``StopIteration`` carries the return value through.
    """

    __slots__ = ("_gen", "_tracer", "_layer", "_span", "__name__")

    def __init__(self, gen, tracer, layer, span):
        self._gen = gen
        self._tracer = tracer
        self._layer = layer
        # [name, parent, first-step start] for span targets, else None.
        self._span = span
        self.__name__ = getattr(gen, "__name__", "task")

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        return self._step(self._gen.send, value)

    def throw(self, *args):
        return self._step(self._gen.throw, *args)

    def close(self):
        return self._gen.close()

    def _step(self, method, *args):
        tracer = self._tracer
        stack = tracer.stack
        frame = [perf(), 0.0, None]
        if self._span is not None and self._span[2] is None:
            self._span[2] = frame[0]
        stack.append(frame)
        finished = True
        try:
            item = method(*args)
            finished = False
            return item
        finally:
            end = perf()
            stack.pop()
            elapsed = end - frame[0]
            tracer.self_s[self._layer] += elapsed - frame[1]
            if stack:
                stack[-1][1] += elapsed
            if finished and self._span is not None:
                name, parent, start = self._span
                tracer.add_span(name, start, end, parent)


class Tracer:
    """Wraps the layer targets for one traced pass and holds the tallies."""

    def __init__(self, targets: List[_Target], pass_id: int = 0):
        self.targets = targets
        self.pass_id = pass_id
        #: Open frames: [start, child time, target name or None].
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, int] = {
            "topology.predicate_calls": 0,
            "des.boundary_frames": 0,
            "des.boundary_bytes": 0,
            "cache.hits": 0,
        }
        #: Instances captured by ``__init__`` targets, keyed by class name.
        self.instances: Dict[str, List[Any]] = {}
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self.spans_dropped = 0
        #: Indices of the open non-generator spans (parents of new spans).
        self._span_stack: List[int] = []

    # -- bookkeeping ---------------------------------------------------------

    def add_span(self, name: str, start: float, end: float, parent: int) -> int:
        if len(self.spans) >= SPAN_CAP:
            self.spans_dropped += 1
            return -1
        self.spans.append((name, start, end, parent, self.pass_id))
        return len(self.spans) - 1

    def _charge_overhead(self, started: float) -> None:
        """Hide the tracer's own work (pickling) from the open frame."""
        if self.stack:
            self.stack[-1][1] += perf() - started

    # -- wrapping ------------------------------------------------------------

    def wrap(self) -> None:
        for target in self.targets:
            self.self_s.setdefault(target.layer, 0.0)
            self.calls[target.name] = 0
            setattr(target.owner, target.attr, self._wrapper(target))

    def unwrap(self) -> None:
        """Put every original back and prove it is back."""
        for target in self.targets:
            setattr(target.owner, target.attr, target.original)
        stale = [
            t.name for t in self.targets if vars(t.owner).get(t.attr) is not t.original
        ]
        if stale:
            raise WrapTargetError(f"originals not restored: {', '.join(stale)}")

    def _wrapper(self, target: _Target) -> Callable:
        tracer = self
        original = target.original
        name = target.name
        layer = target.layer
        flags = target.flags
        stack = self.stack
        self_s = self.self_s
        calls = self.calls
        span_stack = self._span_stack
        is_span = SPAN in flags
        gen_fn = inspect.isgeneratorfunction(original)

        def call(*args, **kwargs):
            calls[name] += 1
            if PREDICATE in flags:
                args, kwargs = tracer._time_predicate(args, kwargs)
            if WINDOW in flags:
                tracer._count_boundary(args)
            span_index = -1
            if is_span and not gen_fn:
                parent = span_stack[-1] if span_stack else -1
                span_index = tracer.add_span(name, 0.0, 0.0, parent)
                span_stack.append(span_index)
            frame = [perf(), 0.0, name]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                elapsed = end - frame[0]
                self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if is_span and not gen_fn:
                    span_stack.pop()
                    if span_index >= 0:
                        tracer.spans[span_index] = (
                            name, frame[0], end,
                            tracer.spans[span_index][3], tracer.pass_id,
                        )
            if CAPTURE in flags:
                obj = args[0]
                tracer.instances.setdefault(type(obj).__name__, []).append(obj)
            if COUNT_RESULT in flags:
                key = f"{name}.items"
                tracer.counts[key] = tracer.counts.get(key, 0) + len(result)
            if HIT in flags and result is not None:
                tracer.counts["cache.hits"] += 1
            if type(result) is types.GeneratorType:
                span = None
                if is_span:
                    span = [name, span_stack[-1] if span_stack else -1, None]
                return _StepProxy(result, tracer, layer, span)
            return result

        call.__wrapped__ = original
        call.__name__ = getattr(original, "__name__", target.attr)
        call.__qualname__ = getattr(original, "__qualname__", target.attr)
        return call

    def _time_predicate(self, args, kwargs):
        """Time the fleet driver's ``run_until`` predicate as topology.

        Only the predicate :class:`FleetWorkload.run` passes is the
        fleet driver's; a single test bed's ``lambda: task.done`` stays
        part of the event loop.
        """
        if not self.stack or self.stack[-1][2] != FLEET_DRIVER:
            return args, kwargs
        args = list(args)
        if len(args) > 1:
            predicate = args[1]
        else:
            predicate = kwargs["predicate"]
        stack = self.stack
        self_s = self.self_s
        counts = self.counts
        self_s.setdefault("topology", 0.0)

        def timed():
            counts["topology.predicate_calls"] += 1
            frame = [perf(), 0.0, None]
            stack.append(frame)
            try:
                return predicate()
            finally:
                elapsed = perf() - frame[0]
                stack.pop()
                self_s["topology"] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        if len(args) > 1:
            args[1] = timed
        else:
            kwargs = dict(kwargs, predicate=timed)
        return tuple(args), kwargs

    def _count_boundary(self, args) -> None:
        """Frames a window carries, and what the process transport would
        pickle for them."""
        messages = args[2] if len(args) > 2 else []
        if not messages:
            return
        started = perf()
        self.counts["des.boundary_frames"] += len(messages)
        self.counts["des.boundary_bytes"] += len(
            pickle.dumps(messages, protocol=pickle.HIGHEST_PROTOCOL)
        )
        self._charge_overhead(started)

    # -- results -------------------------------------------------------------

    def captured(self, *class_names: str) -> List[Any]:
        found: List[Any] = []
        for cls in class_names:
            found.extend(self.instances.get(cls, ()))
        return found

    def span_records(self) -> List[Dict[str, Any]]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "pass": k}
            for n, s, e, p, k in self.spans
        ]


def _total(objs, attr: str) -> int:
    return sum(getattr(o, attr) for o in objs)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, events_total: Optional[int] = None) -> Dict[str, float]:
    """The per-layer metrics of one traced pass.

    Counts come from wrapper call tallies and the captured instances'
    own statistics; ``*.self_s`` from the tracer's self-time ledger.
    ``events_total`` overrides the summed simulator counters (a sharded
    run's outcome already carries its fleet-wide total).
    """
    t = tracer
    calls = t.calls
    selfs = t.self_s

    def n(*names: str) -> int:
        return sum(calls[name] for name in names)

    sims = t.captured("Simulator")
    events = events_total if events_total is not None else _total(sims, "events_processed")
    syscalls = t.captured("SyscallLayer")
    pagecaches = t.captured("PageCache")
    bkls = t.captured("BigKernelLock")
    clients = t.captured("NfsClient")
    indexes = t.captured("SortedListIndex", "HashTableIndex")
    xprts = t.captured("UdpTransport")
    links = t.captured("Link", "BoundaryLink")
    servers = t.captured("NetappFiler", "LinuxNfsServer", "SimpleNfsServer")
    hubs = t.captured("HubWorld")

    index_walks = n(
        "repro.nfsclient.request_list:SortedListIndex.find",
        "repro.nfsclient.request_list:SortedListIndex.insert",
        "repro.nfsclient.request_hash:HashTableIndex.find",
        "repro.nfsclient.request_hash:HashTableIndex.insert",
    )
    nodes = _total(indexes, "nodes_walked")
    submitted = sum(x.stats.submitted for x in xprts)
    retransmits = sum(x.stats.retransmits for x in xprts)
    inline = sum(x.stats.sent_inline for x in xprts)
    by_rpciod = sum(x.stats.sent_by_rpciod for x in xprts)
    completed = sum(x.stats.completed for x in xprts)
    hub_calls = n("repro.parallel.des.worlds:HubWorld.run_window")
    windows = max(hub_calls - 1, 0)  # the last call is the completion clamp
    hub_events = sum(h.sim.events_processed for h in hubs)
    lookups = n("repro.cache:ResultCache.get")

    return {
        "sim.events": events,
        "sim.self_s": selfs["sim"],
        "sim.cpu.self_s": selfs["sim.cpu"],
        "sim.sync.self_s": selfs["sim.sync"],
        "kernel.syscalls": n(
            "repro.kernel.syscalls:SyscallLayer.write",
            "repro.kernel.syscalls:SyscallLayer.read",
            "repro.kernel.syscalls:SyscallLayer.fsync",
            "repro.kernel.syscalls:SyscallLayer.close",
        ),
        "kernel.self_s": selfs["kernel"],
        "kernel.eio": _total(syscalls, "eio_errors"),
        "kernel.bkl.wait_ns": sum(b.stats.total_wait_ns for b in bkls),
        "kernel.pagecache.throttled_ns": _total(pagecaches, "throttled_ns"),
        "nfsclient.updatepages": n("repro.nfsclient.writepath:WritePath.nfs_updatepage"),
        "nfsclient.index.nodes_visited": nodes,
        "nfsclient.index.nodes_per_lookup": _ratio(nodes, index_walks),
        "nfsclient.index.self_s": selfs["nfsclient.index"],
        "nfsclient.self_s": selfs["nfsclient"],
        "nfsclient.write_rpcs": sum(c.stats.writes_sent for c in clients),
        "nfsclient.commits": sum(c.stats.commits_sent for c in clients),
        "nfsclient.reads": sum(c.stats.reads_sent for c in clients),
        "nfsclient.hard_sleeps": sum(c.stats.hard_sleeps for c in clients),
        "rpc.calls": n("repro.rpc.xprt:UdpTransport.submit"),
        "rpc.self_s": selfs["rpc"],
        "rpc.retransmits": retransmits,
        "rpc.inline_fraction": _ratio(inline, inline + by_rpciod),
        "rpc.completed_ratio": _ratio(completed, submitted + retransmits),
        "net.frames": n("repro.net.link:Link.send"),
        "net.datagrams": n("repro.net.switch:Port.send_datagram"),
        "net.self_s": selfs["net"],
        "net.queue_ns": _total(links, "total_queue_ns"),
        "server.rpcs": n("repro.server.base:NfsServerBase.handle"),
        "server.ingest_bytes": _total(servers, "bytes_received"),
        "server.self_s": selfs["server"],
        "topology.predicate_calls": t.counts["topology.predicate_calls"],
        "topology.self_s": selfs["topology"],
        "traffic.sessions": t.counts.get("repro.traffic.openloop:plan_sessions.items", 0),
        "traffic.self_s": selfs["traffic"],
        "des.windows": windows,
        "des.events_per_window": _ratio(events, windows),
        "des.boundary_frames": t.counts["des.boundary_frames"],
        "des.boundary_bytes": t.counts["des.boundary_bytes"],
        "des.hub_event_share": _ratio(hub_events, events) if hubs else 0.0,
        "des.driver_self_s": selfs["des.driver"],
        "des.hub_self_s": selfs["des.hub"],
        "des.shard_self_s": selfs["des.shard"],
        "cache.lookups": lookups,
        "cache.hits": t.counts["cache.hits"],
        "cache.hit_ratio": _ratio(t.counts["cache.hits"], lookups),
        "cache.store_s": selfs["cache.store"],
        "cache.load_s": selfs["cache.load"],
        "executor.self_s": selfs["executor"],
    }
