"""Simulator against a heap-only reference model.

``_HeapSimulator`` is the straightforward form of the event loop: every
event, zero-delay or not, is pushed on one binary heap keyed by
``(time, seq)``.  The real :class:`~repro.sim.Simulator` keeps zero-delay
``call_after`` callbacks on a same-instant lane beside the heap, but
reserves every seq at the same point, so both must dispatch identically
under every run mode: same trace, same event count, same
``next_event_time()`` and ``pending_events()`` between runs.
"""

import heapq

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Simulator


class _HeapHandle:
    def __init__(self, fn, args, sim):
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self):
        if not self.cancelled:
            self.cancelled = True
            self._sim._note_cancelled()


class _HeapSimulator:
    """One heap for everything; lazy deletion and compaction as before."""

    def __init__(self):
        self.now = 0
        self._seq = 0
        self._queue = []
        self._cancelled = 0
        self.events_processed = 0

    def schedule(self, delay, fn, *args):
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time, fn, *args):
        handle = _HeapHandle(fn, args, self)
        self._seq += 1
        heapq.heappush(self._queue, (time, self._seq, handle))
        return handle

    def call_after(self, delay, fn, *args):
        self.call_at(self.now + delay, fn, *args)

    def call_at(self, time, fn, *args):
        self._seq += 1
        heapq.heappush(self._queue, (time, self._seq, fn, args))

    def alloc_seq(self):
        self._seq += 1
        return self._seq

    def push_at(self, time, seq, fn, *args):
        heapq.heappush(self._queue, (time, seq, fn, args))

    def _note_cancelled(self):
        self._cancelled += 1
        if self._cancelled >= 8 and self._cancelled * 2 > len(self._queue):
            self._queue[:] = [
                e for e in self._queue if len(e) == 4 or not e[2].cancelled
            ]
            heapq.heapify(self._queue)
            self._cancelled = 0

    def _dispatch(self, entry):
        """Run a popped entry, skipping a cancelled handle."""
        if len(entry) == 3:
            if entry[2].cancelled:
                self._cancelled -= 1
                return
            fn, args = entry[2].fn, entry[2].args
        else:
            fn, args = entry[2], entry[3]
        self.now = entry[0]
        self.events_processed += 1
        fn(*args)

    def run(self, until=None):
        queue = self._queue
        while queue and (until is None or queue[0][0] <= until):
            self._dispatch(heapq.heappop(queue))
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def run_window(self, end):
        queue = self._queue
        while queue and queue[0][0] < end:
            self._dispatch(heapq.heappop(queue))
        if self.now < end:
            self.now = end
        return self.now

    def run_until(self, predicate, limit=None):
        queue = self._queue
        while not predicate() and queue:
            entry = queue[0]
            if len(entry) == 3 and entry[2].cancelled:
                heapq.heappop(queue)
                self._cancelled -= 1
                continue
            if limit is not None and entry[0] > limit:
                self.now = limit
                raise SimulationError(f"run_until hit the time limit at {limit} ns")
            self._dispatch(heapq.heappop(queue))
        return self.now

    def next_event_time(self):
        queue = self._queue
        while queue:
            entry = queue[0]
            if len(entry) == 3 and entry[2].cancelled:
                heapq.heappop(queue)
                self._cancelled -= 1
                continue
            return entry[0]
        return None

    def pending_events(self):
        return len(self._queue)


# An action is what a firing event does; a program is a tuple of them.
# Scheduling actions carry the program of the event they create.
_delays = st.sampled_from([0, 0, 0, 1, 2, 5])
_leaf = st.one_of(
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=7)),
    st.tuples(st.just("burst"), _delays, st.integers(min_value=1, max_value=12)),
    st.tuples(st.just("flush")),
)


def _programs(inner):
    return st.lists(
        st.one_of(
            _leaf,
            st.tuples(st.just("after"), _delays, inner),
            st.tuples(st.just("at"), _delays, inner),
            st.tuples(st.just("sched"), _delays, inner),
            st.tuples(st.just("alloc"), st.sampled_from([0, 0, 1, 3]), inner),
        ),
        min_size=1,
        max_size=4,
    ).map(tuple)


_program = st.recursive(st.just(()), _programs, max_leaves=32)

_steps = st.lists(
    st.one_of(
        # Schedule from outside a run (tests do this; so does a shard
        # world injecting boundary frames between windows).
        st.tuples(st.just("spawn"), _program),
        st.tuples(st.just("run")),
        st.tuples(st.just("until"), st.integers(min_value=0, max_value=6)),
        st.tuples(st.just("window"), st.integers(min_value=0, max_value=6)),
        # run_until(n more dispatches), optionally with a limit relative
        # to now (a negative one stops behind the clock).
        st.tuples(
            st.just("run_until"),
            st.integers(min_value=0, max_value=8),
            st.one_of(st.none(), st.integers(min_value=-2, max_value=8)),
        ),
    ),
    min_size=2,
    max_size=10,
)


def _drive(sim, steps):
    trace = []
    handles = []
    reserved = []  # (time, seq, label, program) from alloc_seq
    labels = iter(range(1_000_000))

    def fire(label, program):
        trace.append((sim.now, label))
        perform(program)

    def perform(program):
        for action in program:
            kind = action[0]
            if kind == "after":
                sim.call_after(action[1], fire, next(labels), action[2])
            elif kind == "at":
                sim.call_at(sim.now + action[1], fire, next(labels), action[2])
            elif kind == "sched":
                handles.append(sim.schedule(action[1], fire, next(labels), action[2]))
            elif kind == "alloc":
                reserved.append(
                    (sim.now + action[1], sim.alloc_seq(), next(labels), action[2])
                )
            elif kind == "flush":
                # Deferred insertion under seqs reserved earlier, as a
                # batching link does: due-now entries carry old seqs.
                keep = []
                for time, seq, label, prog in reserved:
                    if time >= sim.now:
                        sim.push_at(time, seq, fire, label, prog)
                    else:
                        keep.append((time, seq, label, prog))
                reserved[:] = keep
            elif kind == "cancel":
                if handles:
                    handles[action[1] % len(handles)].cancel()
            else:  # burst: many cancelled timers, to reach compaction
                for _ in range(action[2]):
                    handle = sim.schedule(action[1], fire, next(labels), ())
                    handle.cancel()

    states = []
    for step in steps:
        kind = step[0]
        outcome = None
        if kind == "spawn":
            perform(step[1])
        elif kind == "run":
            outcome = sim.run()
        elif kind == "until":
            outcome = sim.run(until=sim.now + step[1])
        elif kind == "window":
            outcome = sim.run_window(sim.now + step[1])
        else:
            target = len(trace) + step[1]
            limit = None if step[2] is None else sim.now + step[2]
            try:
                outcome = sim.run_until(lambda: len(trace) >= target, limit=limit)
            except SimulationError:
                outcome = "limit"
        states.append(
            (
                outcome,
                sim.now,
                sim.events_processed,
                sim.pending_events(),
                sim.next_event_time(),
                sim.pending_events(),
            )
        )
    sim.run()
    return trace, states, sim.now, sim.events_processed


@given(_steps)
@settings(max_examples=300, deadline=None)
# A heap entry due now with an older seq than the lane head.
@example([("spawn", (("after", 1, (("at", 0, ()), ("after", 0, ()))),)), ("run_until", 8, None)])
@example([("spawn", (("after", 1, (("at", 0, ()), ("after", 0, ()))),)), ("run_until", 8, 9)])
@example([("spawn", (("alloc", 1, ()), ("after", 1, (("after", 0, ()), ("flush",))))), ("run",)])
# A cancelled heap head ahead of the lane head.
@example([("spawn", (("sched", 0, ()), ("cancel", 0), ("after", 0, ()))), ("run",)])
# Compaction counts the lane as queued.
@example([("spawn", (("after", 0, ()),) * 10 + (("burst", 5, 9),)), ("run",)])
# run_window at its own end leaves the lane queued.
@example([("window", 3), ("spawn", (("after", 0, ()),)), ("window", 0), ("run",)])
# A limit behind the clock: lane entries keep their own keys.
@example(
    [
        ("spawn", (("after", 0, ()),)),
        ("run_until", 1, -1),
        ("spawn", (("after", 0, ()),)),
        ("run",),
    ]
)
def test_lane_dispatches_exactly_like_the_heap_reference(steps):
    assert _drive(Simulator(), steps) == _drive(_HeapSimulator(), steps)

