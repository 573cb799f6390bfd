"""Deterministic discrete-event simulation core.

The :class:`Simulator` owns an integer-nanosecond clock and a binary-heap
event queue.  Events scheduled for the same instant fire in the order
they were scheduled (a monotonically increasing sequence number breaks
ties), which makes every run bit-for-bit reproducible.

Simulated concurrency is expressed with generator-based tasks (see
:mod:`repro.sim.task`); the core only knows about timed callbacks.

Events live in two places:

* the **heap** holds every timed event: positive delays, cancellable
  events, and explicit ``call_at``/``push_at`` entries (which may be
  due at the current instant too);
* the **same-instant lane** is a FIFO of fire-and-forget callbacks due
  at the current instant — every zero-delay :meth:`Simulator.call_after`
  (task resumes, CPU slot completions, receive interrupts) lands there
  without a heap sift.

Both take their tie-break ``seq`` from one counter at scheduling time,
so every event keeps the ``(time, seq)`` key it would have had on a
heap-only queue.  A lane entry is due at ``now`` and the heap never
holds anything earlier than ``now``, so the next event is the lane
head unless the heap head is also at ``now`` with a smaller seq; the
run loops check exactly that, and dispatch order is identical to one
heap over both.  The clock only advances once the lane is empty.

Two shapes of heap entry coexist:

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` return a
  cancellable :class:`EventHandle` (heap entry ``(time, seq, handle)``).
* :meth:`Simulator.call_after` / :meth:`Simulator.call_at` are the fast
  path for the vast majority of events that are never cancelled (task
  steps, timeouts, CPU slot completions, frame deliveries): the entry is
  a bare ``(time, seq, fn, args)`` tuple — no per-event object
  allocation, no ``cancelled`` test on dispatch.

Heap entries are ordered by their ``(time, seq)`` prefix; ``seq`` is
unique, so comparison never reaches the third element and the two entry
shapes coexist safely.  Cancelled handles are lazily deleted at pop
time, and the heap is compacted (rebuilt without dead entries) once
cancelled entries outnumber live ones — long fault-injection runs cancel
almost every rpciod retransmit timer, which would otherwise accumulate
without bound.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from ..errors import SimulationError

__all__ = ["Simulator", "EventHandle"]

#: Compaction floor: don't bother rebuilding heaps smaller than this.
_COMPACT_MIN_CANCELLED = 8


class EventHandle:
    """A cancellable reference to a scheduled callback."""

    __slots__ = ("time", "fn", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: int,
        fn: Callable[..., None],
        args: Tuple[Any, ...],
        sim: Optional["Simulator"] = None,
    ):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            if self._sim is not None:
                self._sim._note_cancelled()


class Simulator:
    """Event loop with an integer-nanosecond virtual clock."""

    def __init__(self) -> None:
        self._now: int = 0
        self._seq: int = 0
        # Entries are (time, seq, EventHandle) or (time, seq, fn, args).
        self._queue: List[tuple] = []
        #: Same-instant lane: ``(seq, fn, args)`` due at ``now``, in seq order.
        self._lane: Deque[tuple] = deque()
        self._running = False
        self._cancelled = 0
        #: Total callbacks dispatched (cancelled entries excluded) — the
        #: numerator of the events-per-second benchmarks.
        self.events_processed: int = 0
        #: The task currently being stepped (set by :class:`~repro.sim.task.Task`).
        self.current_task: Optional[object] = None

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    # -- scheduling --------------------------------------------------------

    def schedule(self, delay: int, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Run ``fn(*args)`` after ``delay`` nanoseconds of simulated time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, time: int, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Run ``fn(*args)`` at absolute simulated ``time`` nanoseconds."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} (now={self._now})"
            )
        handle = EventHandle(time, fn, args, self)
        self._seq += 1
        heapq.heappush(self._queue, (time, self._seq, handle))
        return handle

    def call_after(self, delay: int, fn: Callable[..., None], *args: Any) -> None:
        """Fast path: like :meth:`schedule` but not cancellable.

        No :class:`EventHandle` is allocated; use this for fire-and-forget
        callbacks on hot paths (it is what tasks and timeouts use).  A
        zero delay goes on the same-instant lane instead of the heap.
        """
        if delay:
            if delay < 0:
                raise SimulationError(f"cannot schedule in the past (delay={delay})")
            self._seq += 1
            heapq.heappush(self._queue, (self._now + delay, self._seq, fn, args))
        else:
            self._seq += 1
            self._lane.append((self._seq, fn, args))

    def call_at(self, time: int, fn: Callable[..., None], *args: Any) -> None:
        """Fast path: like :meth:`schedule_at` but not cancellable."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} (now={self._now})"
            )
        self._seq += 1
        heapq.heappush(self._queue, (time, self._seq, fn, args))

    def alloc_seq(self) -> int:
        """Reserve the next tie-break sequence number without queueing.

        Pairs with :meth:`push_at`: a caller that defers heap insertion
        (e.g. a link keeping one live event per wire) reserves the seq
        at submission time, so pop order is identical to eager
        ``call_at`` — ``(time, seq)`` keys don't depend on *when* the
        entry physically enters the heap.
        """
        self._seq += 1
        return self._seq

    def push_at(self, time: int, seq: int, fn: Callable[..., None], *args: Any) -> None:
        """Insert a fast-path heap entry under a seq from :meth:`alloc_seq`."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} (now={self._now})"
            )
        heapq.heappush(self._queue, (time, seq, fn, args))

    # -- cancellation bookkeeping -------------------------------------------

    def _note_cancelled(self) -> None:
        """Called by :meth:`EventHandle.cancel`; compacts when dead
        entries exceed half the heap."""
        self._cancelled += 1
        if (
            self._cancelled >= _COMPACT_MIN_CANCELLED
            and self._cancelled * 2 > len(self._queue) + len(self._lane)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries.

        Mutates ``self._queue`` in place (the run loops hold a local
        alias).  Pop order is unchanged: entry keys ``(time, seq)`` are
        unique, so any heap over the same live entries drains identically.
        """
        queue = self._queue
        queue[:] = [
            entry for entry in queue if len(entry) == 4 or not entry[2].cancelled
        ]
        heapq.heapify(queue)
        self._cancelled = 0

    # -- task support -------------------------------------------------------

    def spawn(self, generator, name: Optional[str] = None, daemon: bool = False):
        """Start a generator-based task.  See :class:`repro.sim.task.Task`."""
        from .task import Task

        return Task(self, generator, name=name, daemon=daemon)

    def timeout(self, delay: int):
        """A waitable that fires after ``delay`` nanoseconds."""
        from .task import Timeout

        return Timeout(self, delay)

    # -- running ------------------------------------------------------------
    #
    # Every loop dispatches the lane head while it precedes the heap head:
    # ``not queue or queue[0][0] > now or queue[0][1] > lane[0][0]`` (heap
    # entries are never earlier than ``now``, so a heap head at ``now``
    # competes on seq alone).  The clock moves only on heap dispatch.

    def run(self, until: Optional[int] = None) -> int:
        """Process events until the queue drains or ``until`` is reached.

        Returns the simulated time at which processing stopped.  When
        ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fired earlier.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        self._running = True
        queue = self._queue
        lane = self._lane
        popleft = lane.popleft
        heappop = heapq.heappop
        processed = 0
        now = self._now
        try:
            if until is None:
                # Hoisted fast loop: no bound check per event.
                while True:
                    if lane and (
                        not queue or queue[0][0] > now or queue[0][1] > lane[0][0]
                    ):
                        _seq, fn, args = popleft()
                        processed += 1
                        fn(*args)
                        continue
                    if not queue:
                        break
                    entry = heappop(queue)
                    if len(entry) == 4:
                        now = self._now = entry[0]
                        processed += 1
                        entry[2](*entry[3])
                    else:
                        handle = entry[2]
                        if handle.cancelled:
                            self._cancelled -= 1
                            continue
                        now = self._now = entry[0]
                        processed += 1
                        handle.fn(*handle.args)
            else:
                while True:
                    if lane and now <= until and (
                        not queue or queue[0][0] > now or queue[0][1] > lane[0][0]
                    ):
                        _seq, fn, args = popleft()
                        processed += 1
                        fn(*args)
                        continue
                    if not queue or queue[0][0] > until:
                        break
                    entry = heappop(queue)
                    if len(entry) == 4:
                        now = self._now = entry[0]
                        processed += 1
                        entry[2](*entry[3])
                    else:
                        handle = entry[2]
                        if handle.cancelled:
                            self._cancelled -= 1
                            continue
                        now = self._now = entry[0]
                        processed += 1
                        handle.fn(*handle.args)
                if self._now < until:
                    self._now = until
        finally:
            self._running = False
            self.events_processed += processed
        return self._now

    def run_window(self, end: int) -> int:
        """Process every event strictly before ``end``, then advance to ``end``.

        The conservative parallel-DES building block: a shard runs the
        half-open window ``[now, end)``, so events scheduled exactly at
        ``end`` (the next window's opening edge, or a message injected
        by another shard) stay queued.  Unlike :meth:`run`, the bound is
        exclusive — once ``now >= end`` the same-instant lane stays put.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        self._running = True
        queue = self._queue
        lane = self._lane
        popleft = lane.popleft
        heappop = heapq.heappop
        processed = 0
        now = self._now
        try:
            while True:
                if lane and now < end and (
                    not queue or queue[0][0] > now or queue[0][1] > lane[0][0]
                ):
                    _seq, fn, args = popleft()
                    processed += 1
                    fn(*args)
                    continue
                if not queue or queue[0][0] >= end:
                    break
                entry = heappop(queue)
                if len(entry) == 4:
                    now = self._now = entry[0]
                    processed += 1
                    entry[2](*entry[3])
                else:
                    handle = entry[2]
                    if handle.cancelled:
                        self._cancelled -= 1
                        continue
                    now = self._now = entry[0]
                    processed += 1
                    handle.fn(*handle.args)
            if self._now < end:
                self._now = end
        finally:
            self._running = False
            self.events_processed += processed
        return self._now

    def next_event_time(self) -> Optional[int]:
        """Timestamp of the earliest live event, or None when drained.

        Pops cancelled heads that precede it as a side effect (they are
        dead anyway); used by the shard synchroniser to skip empty
        lookahead windows.
        """
        queue = self._queue
        lane = self._lane
        if lane:
            now = self._now
            first = lane[0][0]
            while queue:
                entry = queue[0]
                if (
                    len(entry) == 3
                    and entry[2].cancelled
                    and entry[0] == now
                    and entry[1] < first
                ):
                    heapq.heappop(queue)
                    self._cancelled -= 1
                    continue
                break
            return now
        while queue:
            entry = queue[0]
            if len(entry) == 3 and entry[2].cancelled:
                heapq.heappop(queue)
                self._cancelled -= 1
                continue
            return entry[0]
        return None

    def run_for(self, duration: int) -> int:
        """Process events for ``duration`` nanoseconds of simulated time."""
        return self.run(until=self._now + duration)

    def run_until(self, predicate: Callable[[], bool], limit: Optional[int] = None) -> int:
        """Process events until ``predicate()`` is true or the queue drains.

        Needed because perpetual daemons (flush daemons, rpciod timers)
        keep the queue non-empty forever; callers typically wait for a
        foreground task: ``sim.run_until(lambda: task.done)``.
        An optional absolute-time ``limit`` guards against wedged runs.

        The limit check peeks before popping: the over-limit event stays
        queued, so a caller that catches the :class:`SimulationError` and
        resumes (e.g. after extending the limit) loses nothing.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        self._running = True
        queue = self._queue
        lane = self._lane
        popleft = lane.popleft
        heappop = heapq.heappop
        processed = 0
        now = self._now
        try:
            if limit is None:
                # Hoisted fast loop: no limit check per event.
                while not predicate():
                    if lane and (
                        not queue or queue[0][0] > now or queue[0][1] > lane[0][0]
                    ):
                        _seq, fn, args = popleft()
                        processed += 1
                        fn(*args)
                        continue
                    if not queue:
                        break
                    entry = heappop(queue)
                    if len(entry) == 4:
                        now = self._now = entry[0]
                        processed += 1
                        entry[2](*entry[3])
                    else:
                        handle = entry[2]
                        if handle.cancelled:
                            self._cancelled -= 1
                            continue
                        now = self._now = entry[0]
                        processed += 1
                        handle.fn(*handle.args)
            else:
                while not predicate():
                    if lane and (
                        not queue or queue[0][0] > now or queue[0][1] > lane[0][0]
                    ):
                        if now > limit:
                            self._over_limit(limit)
                        _seq, fn, args = popleft()
                        processed += 1
                        fn(*args)
                        continue
                    if not queue:
                        break
                    entry = queue[0]
                    if len(entry) == 3 and entry[2].cancelled:
                        heappop(queue)
                        self._cancelled -= 1
                        continue
                    if entry[0] > limit:
                        self._over_limit(limit)
                    heappop(queue)
                    now = self._now = entry[0]
                    processed += 1
                    if len(entry) == 4:
                        entry[2](*entry[3])
                    else:
                        handle = entry[2]
                        handle.fn(*handle.args)
        finally:
            self._running = False
            self.events_processed += processed
        return self._now

    def _over_limit(self, limit: int) -> None:
        """Stop ``run_until`` at ``limit``: set the clock there and raise.

        A limit behind ``now`` moves the clock back, so lane entries
        first go to the heap under their own ``(time, seq)`` keys.
        """
        lane = self._lane
        if lane:
            now = self._now
            queue = self._queue
            for seq, fn, args in lane:
                heapq.heappush(queue, (now, seq, fn, args))
            lane.clear()
        self._now = limit
        raise SimulationError(f"run_until hit the time limit at {limit} ns")

    def pending_events(self) -> int:
        """Number of queued (possibly cancelled) events.  Mostly for tests."""
        return len(self._queue) + len(self._lane)
