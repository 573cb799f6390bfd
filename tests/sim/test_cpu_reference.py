"""CpuSet against an Event-based reference model.

``_ReferenceCpuSet`` is the straightforward form of the CPU model: every
slot allocates an :class:`~repro.sim.sync.Event` and the task waits on
it, and callback work runs in a daemon task around ``execute``.  The
real :class:`~repro.sim.cpu.CpuSet` has neither object, but reserves
every ``(time, seq)`` key at the same point and in the same order, so
both models must dispatch identically: same trace, same accounting,
same number of events.
"""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import CpuSet, Event, Simulator


class _ReferenceCpuSet:
    """N cores, shared priority run queue, one Event per slot."""

    def __init__(self, sim, ncpus):
        self._sim = sim
        self._free = list(range(ncpus))
        self._seq = 0
        self._queue = []
        self.core_labels = [None] * ncpus
        self.time_by_label = {}
        self.total_busy_ns = 0

    def execute(self, duration, label, priority):
        if duration == 0:
            return
            yield  # pragma: no cover - generator marker
        event = Event(self._sim)
        self._seq += 1
        req = (priority, self._seq, duration, label, event)
        if self._free:
            self._start(self._free.pop(), req)
        else:
            heapq.heappush(self._queue, req[:2] + (req,))
        yield event

    def _start(self, core, req):
        self.core_labels[core] = req[3]
        self._sim.call_after(req[2], self._complete, core, req)

    def _complete(self, core, req):
        _prio, _seq, duration, label, event = req
        self.time_by_label[label] = self.time_by_label.get(label, 0) + duration
        self.total_busy_ns += duration
        self.core_labels[core] = None
        if self._queue:
            self._start(core, heapq.heappop(self._queue)[2])
        else:
            self._free.append(core)
        event.trigger()


def _callback_reference(sim, cpus, duration, label, priority, fn, *args):
    """Callback work as a daemon task around ``execute``."""

    def body():
        yield from cpus.execute(duration, label, priority)
        fn(*args)

    sim.spawn(body(), daemon=True)


def _callback_submit(sim, cpus, duration, label, priority, fn, *args):
    """Callback work as one zero-delay event that submits the slot."""
    sim.call_after(0, cpus.submit, duration, label, priority, fn, *args)


_durations = st.integers(min_value=0, max_value=6)
_ops = st.lists(
    st.one_of(
        # A task that runs a chain of slots.
        st.tuples(
            st.just("task"),
            st.integers(min_value=0, max_value=8),  # start time
            st.lists(
                st.tuples(_durations, st.integers(min_value=0, max_value=2)),
                min_size=1,
                max_size=4,
            ),
        ),
        # One callback slot, as a receive interrupt issues it.
        st.tuples(
            st.just("callback"),
            st.integers(min_value=0, max_value=8),
            st.tuples(_durations, st.integers(min_value=0, max_value=2)),
        ),
        # A chain of zero-delay events that only records itself.
        st.tuples(
            st.just("noise"),
            st.integers(min_value=0, max_value=8),
            st.integers(min_value=1, max_value=3),
        ),
    ),
    min_size=1,
    max_size=20,
)


def _run(ncpus, ops, cpu_cls, callback):
    sim = Simulator()
    cpus = cpu_cls(sim, ncpus)
    trace = []

    def record(label, order):
        trace.append((sim.now, label, order, tuple(cpus.core_labels)))

    def task(label, slots):
        for order, (duration, priority) in enumerate(slots):
            yield from cpus.execute(duration, label, priority)
            record(label, order)

    def noise(label, hops):
        record(label, hops)
        if hops > 1:
            sim.call_after(0, noise, label, hops - 1)

    for i, (kind, start, arg) in enumerate(ops):
        label = f"{kind}{i}"
        if kind == "task":
            sim.call_at(start, sim.spawn, task(label, arg))
        elif kind == "callback":
            duration, priority = arg
            sim.call_at(
                start, callback, sim, cpus, duration, label, priority,
                record, label, 0,
            )
        else:
            sim.call_at(start, noise, label, arg)
    sim.run()
    return trace, cpus.time_by_label, cpus.total_busy_ns, sim.events_processed


@given(st.integers(min_value=1, max_value=4), _ops)
@settings(max_examples=200, deadline=None)
def test_cpuset_dispatches_exactly_like_the_event_reference(ncpus, ops):
    expected = _run(ncpus, ops, _ReferenceCpuSet, _callback_reference)
    actual = _run(ncpus, ops, CpuSet, _callback_submit)
    assert actual == expected

