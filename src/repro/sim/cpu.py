"""CPU model: a set of cores on which tasks charge labelled compute time.

A task performs work with ``yield from cpus.execute(ns, label)``; event
callbacks (receive interrupts) use ``cpus.submit(ns, label, priority,
fn, *args)``.  The request queues until a core is free; the core then
runs it to completion (work units in this codebase are all a few tens
of microseconds, so non-preemptive slots are an adequate model of the
2.4 kernel, which did not preempt kernel code either).

Three priority levels mirror interrupt > softirq/kernel daemon > user
work.  Exact per-label time accounting feeds the profiler-style reports
the paper relies on for its diagnosis.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import SimulationError
from .core import Simulator
from .task import Task, Waitable

__all__ = ["CpuSet", "PRIO_INTERRUPT", "PRIO_KERNEL", "PRIO_USER"]

PRIO_INTERRUPT = 0
PRIO_KERNEL = 1
PRIO_USER = 2


class _ExecRequest(Waitable):
    """One CPU slot and the continuation that runs when it completes.

    A task yields the request itself: :meth:`_arm` records the task's
    step as the continuation.  A :meth:`CpuSet.submit` request carries
    its callback from the start.
    """

    __slots__ = ("priority", "seq", "duration", "label", "fn", "args")

    def __init__(
        self,
        priority: int,
        seq: int,
        duration: int,
        label: str,
        fn: Optional[Callable[..., None]],
        args: Tuple[Any, ...],
    ):
        self.priority = priority
        self.seq = seq
        self.duration = duration
        self.label = label
        self.fn = fn
        self.args = args

    def _arm(self, task: Task) -> None:
        # Slots are never zero-length, so this always runs before
        # CpuSet._complete does.
        self.fn = task._step
        self.args = (None, None)


class CpuSet:
    """N identical cores with a shared priority run queue."""

    def __init__(self, sim: Simulator, ncpus: int, name: str = "cpu"):
        if ncpus < 1:
            raise SimulationError(f"{name}: need at least one CPU")
        self._sim = sim
        self.name = name
        self.ncpus = ncpus
        self._free: List[int] = list(range(ncpus))
        self._seq = 0
        self._queue: List[Tuple[int, int, _ExecRequest]] = []
        #: Label currently executing on each core (None = idle); sampled
        #: by the profiler.
        self.core_labels: List[Optional[str]] = [None] * ncpus
        #: Exact nanoseconds of compute charged per label.
        self.time_by_label: Dict[str, int] = {}
        self.total_busy_ns = 0
        self._created_at = sim.now

    # -- work submission ------------------------------------------------------

    def execute(self, duration: int, label: str = "kernel", priority: int = PRIO_USER):
        """Generator: consume ``duration`` ns of CPU under ``label``."""
        if duration < 0:
            raise SimulationError(f"{self.name}: negative duration {duration}")
        if duration == 0:
            return
            yield  # pragma: no cover - generator marker
        yield self._request(duration, label, priority, None, ())

    def submit(
        self,
        duration: int,
        label: str,
        priority: int,
        fn: Callable[..., None],
        *args: Any,
    ) -> None:
        """Callback form of :meth:`execute`: charge ``duration`` ns under
        ``label``, then run ``fn(*args)``.

        The slot queues exactly like a task's, and ``fn`` is scheduled
        with zero delay when it completes, where a task's resumed step
        would be.  A zero ``duration`` runs ``fn`` at once, as a task
        runs on past a zero-length :meth:`execute` without yielding.
        """
        if duration < 0:
            raise SimulationError(f"{self.name}: negative duration {duration}")
        if duration == 0:
            fn(*args)
            return
        self._request(duration, label, priority, fn, args)

    # -- internals -------------------------------------------------------------

    def _request(
        self,
        duration: int,
        label: str,
        priority: int,
        fn: Optional[Callable[..., None]],
        args: Tuple[Any, ...],
    ) -> _ExecRequest:
        self._seq += 1
        req = _ExecRequest(priority, self._seq, duration, label, fn, args)
        if self._free:
            self._start(self._free.pop(), req)
        else:
            heapq.heappush(self._queue, (priority, req.seq, req))
        return req

    def _start(self, core: int, req: _ExecRequest) -> None:
        self.core_labels[core] = req.label
        self._sim.call_after(req.duration, self._complete, core, req)

    def _complete(self, core: int, req: _ExecRequest) -> None:
        self.time_by_label[req.label] = (
            self.time_by_label.get(req.label, 0) + req.duration
        )
        self.total_busy_ns += req.duration
        self.core_labels[core] = None
        if self._queue:
            _prio, _seq, nxt = heapq.heappop(self._queue)
            self._start(core, nxt)
        else:
            self._free.append(core)
        self._sim.call_after(0, req.fn, *req.args)

    # -- reporting --------------------------------------------------------------

    def utilization(self) -> float:
        """Mean core utilization since creation."""
        elapsed = self._sim.now - self._created_at
        if elapsed <= 0:
            return 0.0
        return self.total_busy_ns / (elapsed * self.ncpus)

    def top_labels(self, n: int = 10) -> List[Tuple[str, int]]:
        """Labels by exact CPU time, descending — the profiler's view."""
        ranked = sorted(self.time_by_label.items(), key=lambda kv: -kv[1])
        return ranked[:n]
